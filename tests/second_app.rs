//! A second application through both compilation routes: a 4:1 block-mean
//! *thumbnailer* with a brightness/contrast post-pass. Exercises the same
//! abstractions as the downscaler (tilers, WITH-loops, folding, both code
//! generators) on a differently-shaped pipeline, demonstrating that nothing
//! in the toolchain is downscaler-specific.

mod common;

use mdarray::NdArray;
use sac_lang::opt::{optimize, ArgDesc, OptConfig};
use simgpu::device::Device;
use simgpu::ExecOptions;

const ROWS: usize = 24;
const COLS: usize = 32;

/// Hand-written reference: 4-pixel horizontal means, then `v*2 + 10`.
fn reference(frame: &NdArray<i64>) -> NdArray<i64> {
    NdArray::from_fn([ROWS, COLS / 4], |ix| {
        let sum: i64 = (0..4).map(|p| *frame.get(&[ix[0], ix[1] * 4 + p]).unwrap()).sum();
        (sum / 4) * 2 + 10
    })
}

fn test_frame() -> NdArray<i64> {
    NdArray::from_fn([ROWS, COLS], |ix| ((ix[0] * 13 + ix[1] * 29) % 256) as i64)
}

/// The SaC version: gather/mean WITH-loop, then an elementwise WITH-loop;
/// WLF fuses them into one kernel.
#[test]
fn sac_route_thumbnailer() {
    let src = format!(
        r#"
int[*] mean4(int[{ROWS},{COLS}] f)
{{
    out = with {{
        (. <= rep <= .) {{
            s = f[[rep[0], rep[1] * 4]] + f[[rep[0], rep[1] * 4 + 1]]
              + f[[rep[0], rep[1] * 4 + 2]] + f[[rep[0], rep[1] * 4 + 3]];
        }} : s / 4;
    }} : genarray( [{ROWS},{TC}]);
    return( out);
}}
int[*] main(int[{ROWS},{COLS}] f)
{{
    thumb = mean4(f);
    out = with {{ (. <= iv <= .) : thumb[iv] * 2 + 10; }} : genarray( [{ROWS},{TC}], 0);
    return( out);
}}
"#,
        TC = COLS / 4
    );
    let prog = sac_lang::parse_program(&src).unwrap();
    let args = [ArgDesc::Array { name: "f".into(), shape: vec![ROWS, COLS] }];
    let (flat, report) = optimize(&prog, "main", &args, &OptConfig::default()).unwrap();
    // The two loops fuse; the access pattern is wrap-free so no splits occur.
    assert_eq!(report.fold.folds, 1);
    assert_eq!(flat.generator_count(), 1);

    let frame = test_frame();
    let expect = reference(&frame);
    assert_eq!(flat.run(std::slice::from_ref(&frame), &mut 0).unwrap(), expect);

    let cuda = sac_cuda::compile_flat_program(&flat).unwrap();
    let mut device = Device::gtx480();
    let (got, stats) = common::run_sac_once(
        &cuda,
        &mut device,
        std::slice::from_ref(&frame),
        ExecOptions::default(),
    )
    .unwrap();
    assert_eq!(got, expect);
    assert_eq!(stats.launches, 1, "fused pipeline is a single kernel");
}

/// The GASPARD2 version: two repetitive tasks (SumReduce-style mean via
/// windows, then an AffineMap) wired by tilers.
#[test]
fn gaspard_route_thumbnailer() {
    use arrayol::{ElementaryOp, IMat, Tiler};
    use gaspard::model::*;
    use gaspard::transform::{deploy, schedule, to_arrayol};
    let tc = COLS / 4;

    let mean_task = Component {
        name: "Mean4".into(),
        stereotype: Stereotype::SwResource,
        ports: vec![
            Port { name: "pin".into(), dir: PortDir::In, shape: vec![4] },
            Port { name: "pout".into(), dir: PortDir::Out, shape: vec![1] },
        ],
        // The IP set has no divide, so this route computes block *sums*;
        // its reference expectation below differs from the SaC route's
        // mean accordingly.
        kind: ComponentKind::Elementary { op: ElementaryOp::SumReduce },
    };
    let post_task = Component {
        name: "Post".into(),
        stereotype: Stereotype::SwResource,
        ports: vec![
            Port { name: "pin".into(), dir: PortDir::In, shape: vec![1] },
            Port { name: "pout".into(), dir: PortDir::Out, shape: vec![1] },
        ],
        kind: ComponentKind::Elementary { op: ElementaryOp::AffineMap { mul: 2, add: 10 } },
    };
    let mean_stage = Component {
        name: "MeanStage".into(),
        stereotype: Stereotype::SwResource,
        ports: vec![
            Port { name: "fin".into(), dir: PortDir::In, shape: vec![ROWS, COLS] },
            Port { name: "fout".into(), dir: PortDir::Out, shape: vec![ROWS, tc] },
        ],
        kind: ComponentKind::Repetitive {
            repetition: vec![ROWS, tc],
            inner: "Mean4".into(),
            input_tilers: vec![(
                vec![4],
                Tiler::new(
                    vec![0, 0],
                    IMat::from_rows(&[&[0], &[1]]),
                    IMat::from_rows(&[&[1, 0], &[0, 4]]),
                ),
            )],
            output_tilers: vec![(
                vec![1],
                Tiler::new(
                    vec![0, 0],
                    IMat::from_rows(&[&[0], &[1]]),
                    IMat::from_rows(&[&[1, 0], &[0, 1]]),
                ),
            )],
        },
    };
    let post_stage = Component {
        name: "PostStage".into(),
        stereotype: Stereotype::SwResource,
        ports: vec![
            Port { name: "fin".into(), dir: PortDir::In, shape: vec![ROWS, tc] },
            Port { name: "fout".into(), dir: PortDir::Out, shape: vec![ROWS, tc] },
        ],
        kind: ComponentKind::Repetitive {
            repetition: vec![ROWS, tc],
            inner: "Post".into(),
            input_tilers: vec![(
                vec![1],
                Tiler::new(
                    vec![0, 0],
                    IMat::from_rows(&[&[0], &[1]]),
                    IMat::from_rows(&[&[1, 0], &[0, 1]]),
                ),
            )],
            output_tilers: vec![(
                vec![1],
                Tiler::new(
                    vec![0, 0],
                    IMat::from_rows(&[&[0], &[1]]),
                    IMat::from_rows(&[&[1, 0], &[0, 1]]),
                ),
            )],
        },
    };
    let source = Component {
        name: "Src".into(),
        stereotype: Stereotype::SwResource,
        ports: vec![Port { name: "out".into(), dir: PortDir::Out, shape: vec![ROWS, COLS] }],
        kind: ComponentKind::FrameSource,
    };
    let sink = Component {
        name: "Snk".into(),
        stereotype: Stereotype::SwResource,
        ports: vec![Port { name: "in".into(), dir: PortDir::In, shape: vec![ROWS, tc] }],
        kind: ComponentKind::FrameSink,
    };
    let root = Component {
        name: "Thumb".into(),
        stereotype: Stereotype::SwResource,
        ports: vec![],
        kind: ComponentKind::Composite {
            parts: vec![
                ("src".into(), "Src".into()),
                ("mean".into(), "MeanStage".into()),
                ("post".into(), "PostStage".into()),
                ("snk".into(), "Snk".into()),
            ],
            connections: vec![
                Connection {
                    from: PartRef::Part { part: "src".into(), port: "out".into() },
                    to: PartRef::Part { part: "mean".into(), port: "fin".into() },
                },
                Connection {
                    from: PartRef::Part { part: "mean".into(), port: "fout".into() },
                    to: PartRef::Part { part: "post".into(), port: "fin".into() },
                },
                Connection {
                    from: PartRef::Part { part: "post".into(), port: "fout".into() },
                    to: PartRef::Part { part: "snk".into(), port: "in".into() },
                },
            ],
        },
    };
    let model = Model {
        name: "thumbnailer".into(),
        components: vec![mean_task, post_task, mean_stage, post_stage, source, sink, root],
        root: "Thumb".into(),
    };
    let alloc = Allocation::default()
        .allocate("Src", "i7_930")
        .allocate("Snk", "i7_930")
        .allocate("MeanStage", "gtx480")
        .allocate("PostStage", "gtx480");

    let deployed = deploy(model, Platform::cpu_gpu(), alloc).unwrap();
    let scheduled = schedule(&deployed).unwrap();
    let opencl = gaspard::generate_opencl(&scheduled).unwrap();
    assert_eq!(opencl.kernels.len(), 2);

    // This route computes sum4 then *2+10 (no divide in the IP set).
    let frame = test_frame();
    let expect = NdArray::from_fn([ROWS, tc], |ix| {
        let sum: i64 = (0..4).map(|p| *frame.get(&[ix[0], ix[1] * 4 + p]).unwrap()).sum();
        sum * 2 + 10
    });

    // Generated OpenCL on the device == ArrayOL reference executor.
    let mut device = Device::gtx480();
    let outs =
        common::run_gaspard_once(&opencl, &mut device, std::slice::from_ref(&frame)).unwrap();
    assert_eq!(outs[0], expect);

    let g = to_arrayol(&scheduled).unwrap();
    let mut inputs = std::collections::HashMap::new();
    inputs.insert(g.external_inputs[0], frame);
    let seq = arrayol::exec::execute(&g, &inputs).unwrap();
    assert_eq!(seq[&g.external_outputs[0]], expect);

    // Host artefacts generate too.
    let host = gaspard::emit::emit_host_source(&opencl);
    assert!(host.contains("clEnqueueNDRangeKernel"));
}
