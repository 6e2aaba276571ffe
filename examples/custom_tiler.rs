//! Building a new ArrayOL application from scratch: a 2-D block-mean
//! pyramid reducer, specified with tilers, validated, executed with the
//! reference executor, and pushed through the GASPARD2 chain onto the
//! simulated GPU.
//!
//! ```sh
//! cargo run --release --example custom_tiler
//! ```
//!
//! Demonstrates the abstractions the paper argues for: the application is
//! *only* tilers + an elementary function; the same specification runs on
//! the CPU (ArrayOL reference executor) and the GPU (generated OpenCL).

use gpu_abstractions::{arrayol, gaspard, mdarray, simgpu};

use arrayol::exec::execute;
use arrayol::{ApplicationGraph, ElementaryOp, IMat, Port, RepetitiveTask, TaskBody, Tiler};
use gaspard::model::{
    Allocation, Component, ComponentKind, Connection, Model, PartRef, Platform, Port as MPort,
    PortDir, Stereotype,
};
use gaspard::transform::{deploy, schedule};
use mdarray::{NdArray, Shape};
use simgpu::device::Device;
use std::collections::HashMap;
use std::sync::Arc;

const N: usize = 64;
const B: usize = 4; // block edge

fn main() {
    // ---- 1. Pure ArrayOL: specify 4x4 block-sum reduction with tilers ----
    let mut g = ApplicationGraph::new();
    let input = g.declare_array("image", [N, N]);
    let reduced = g.declare_array("reduced", [N / B, N / B]);
    g.external_inputs.push(input);
    g.external_outputs.push(reduced);

    // Input tiler: a BxB pattern paving the image in BxB steps.
    let in_tiler = Tiler::new(
        vec![0, 0],
        IMat::from_rows(&[&[1, 0], &[0, 1]]),
        IMat::from_rows(&[&[B as i64, 0], &[0, B as i64]]),
    );
    // Output tiler: one scalar element per repetition (rank-0 pattern, so
    // the fitting matrix has zero columns).
    let out_tiler = Tiler::new(vec![0, 0], IMat::zeros(2, 0), IMat::identity(2));
    g.add_task(RepetitiveTask {
        name: "block_sum".into(),
        repetition: Shape::new(vec![N / B, N / B]),
        inputs: vec![Port::new("in", input, [B, B], in_tiler)],
        outputs: vec![Port::new("out", reduced, Shape::scalar(), out_tiler)],
        body: TaskBody::Elementary {
            kernel_name: "sum16".into(),
            f: Arc::new(|patterns| {
                vec![NdArray::scalar(patterns[0].as_slice().iter().sum::<i64>())]
            }),
        },
    });
    g.validate().expect("ArrayOL specification is well-formed");

    let image = NdArray::from_fn([N, N], |ix| ((ix[0] / B + ix[1] / B) % 7) as i64);
    let mut inputs = HashMap::new();
    inputs.insert(input, image.clone());
    let sums = &execute(&g, &inputs).expect("reference run")[&reduced];
    for i in 0..N / B {
        for j in 0..N / B {
            let direct: i64 =
                (0..B * B).map(|k| *image.get(&[i * B + k / B, j * B + k % B]).unwrap()).sum();
            assert_eq!(*sums.get(&[i, j]).unwrap(), direct);
        }
    }
    println!(
        "ArrayOL reference executor: {}x{} image -> {}x{} block sums (verified)",
        N,
        N,
        N / B,
        N / B
    );

    // ---- 2. The same application as a GASPARD2 model on the GPU ----------
    // (patterns are rank-1 in the MDE chain, so the block tiler reads rows)
    let strip = Component {
        name: "RowSum".into(),
        stereotype: Stereotype::SwResource,
        ports: vec![
            MPort { name: "pin".into(), dir: PortDir::In, shape: vec![B] },
            MPort { name: "pout".into(), dir: PortDir::Out, shape: vec![1] },
        ],
        kind: ComponentKind::Elementary { op: ElementaryOp::SumReduce },
    };
    let reducer = Component {
        name: "StripReducer".into(),
        stereotype: Stereotype::SwResource,
        ports: vec![
            MPort { name: "fin".into(), dir: PortDir::In, shape: vec![N, N] },
            MPort { name: "fout".into(), dir: PortDir::Out, shape: vec![N, N / B] },
        ],
        kind: ComponentKind::Repetitive {
            repetition: vec![N, N / B],
            inner: "RowSum".into(),
            input_tilers: vec![(
                vec![B],
                Tiler::new(
                    vec![0, 0],
                    IMat::from_rows(&[&[0], &[1]]),
                    IMat::from_rows(&[&[1, 0], &[0, B as i64]]),
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
        ports: vec![MPort { name: "out".into(), dir: PortDir::Out, shape: vec![N, N] }],
        kind: ComponentKind::FrameSource,
    };
    let sink = Component {
        name: "Snk".into(),
        stereotype: Stereotype::SwResource,
        ports: vec![MPort { name: "in".into(), dir: PortDir::In, shape: vec![N, N / B] }],
        kind: ComponentKind::FrameSink,
    };
    let root = Component {
        name: "App".into(),
        stereotype: Stereotype::SwResource,
        ports: vec![],
        kind: ComponentKind::Composite {
            parts: vec![
                ("src".into(), "Src".into()),
                ("red".into(), "StripReducer".into()),
                ("snk".into(), "Snk".into()),
            ],
            connections: vec![
                Connection {
                    from: PartRef::Part { part: "src".into(), port: "out".into() },
                    to: PartRef::Part { part: "red".into(), port: "fin".into() },
                },
                Connection {
                    from: PartRef::Part { part: "red".into(), port: "fout".into() },
                    to: PartRef::Part { part: "snk".into(), port: "in".into() },
                },
            ],
        },
    };
    let model = Model {
        name: "strip-reduce".into(),
        components: vec![strip, reducer, source, sink, root],
        root: "App".into(),
    };
    let alloc = Allocation::default()
        .allocate("Src", "i7_930")
        .allocate("Snk", "i7_930")
        .allocate("StripReducer", "gtx480");

    let deployed = deploy(model, Platform::cpu_gpu(), alloc).expect("deployment");
    let scheduled = schedule(&deployed).expect("scheduling");
    let opencl = gaspard::generate_opencl(&scheduled).expect("codegen");
    println!("GASPARD2 chain generated {} OpenCL kernel(s):\n", opencl.kernels.len());
    println!("{}", opencl.emit_opencl_source());

    // Lower the generated host loop to a launch plan and run one frame.
    let mut device = Device::gtx480();
    let plan = gaspard::lower_plan(&opencl);
    let (mut frames, _) =
        simgpu::run_plan(plan, &mut device, &[vec![image.clone()]], &Default::default())
            .expect("GPU run");
    let outs = frames.pop().expect("one frame");

    // Row sums on the device must agree with a direct computation.
    for i in 0..N {
        for t in 0..N / B {
            let direct: i64 = (0..B).map(|p| *image.get(&[i, t * B + p]).unwrap()).sum();
            assert_eq!(*outs[0].get(&[i, t]).unwrap(), direct);
        }
    }
    println!("device result verified; simulated GPU time {:.1} us", device.now_us());
}
