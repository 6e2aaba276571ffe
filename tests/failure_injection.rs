//! Failure injection: every layer must surface faults as typed errors, never
//! panics or silent corruption.

mod common;

use downscaler::pipelines::{
    build_gaspard, build_sac, run_gaspard_batch, run_sac_batch, PipelineError,
};
use downscaler::sac_src::{Part, Variant};
use downscaler::{FrameGenerator, Scenario};
use proptest::prelude::*;
use sac_lang::wir::{FlatGen, FlatProgram, FlatWith, Step, SymExpr};
use simgpu::device::{BufferId, Device, DeviceConfig};
use simgpu::Calibration;
use simgpu::ExecOptions;
use simgpu::ScheduleError::Sim;
use std::collections::HashMap;

/// A device too small for the frames: the run must fail with OutOfMemory and
/// leave no partial simulated-time record inconsistencies.
#[test]
fn device_oom_is_reported() {
    let s = Scenario::tiny();
    let route = build_sac(&s, Variant::NonGeneric, Part::Full, &Default::default()).unwrap();
    let frame = FrameGenerator::new(s.channels, s.rows, s.cols, 1).frame_rank3(0);
    // Frame alone needs 3*18*32*4 = 6912 bytes; give the device less.
    let mut device = Device::new(DeviceConfig::toy(4096), Calibration::gtx480());
    let err = common::run_sac_once(
        &route.cuda,
        &mut device,
        std::slice::from_ref(&frame),
        ExecOptions::default(),
    );
    match err {
        Err(Sim(simgpu::SimError::OutOfMemory { .. })) => {}
        other => panic!("expected OutOfMemory, got {other:?}"),
    }
}

/// The same, for the OpenCL route.
#[test]
fn gaspard_oom_is_reported() {
    let s = Scenario::tiny();
    let route = build_gaspard(&s).unwrap();
    let channels = FrameGenerator::new(s.channels, s.rows, s.cols, 1).frame_channels(0);
    let mut device = Device::new(DeviceConfig::toy(1024), Calibration::gtx480());
    let err = common::run_gaspard_once(&route.opencl, &mut device, &channels);
    assert!(matches!(err, Err(Sim(simgpu::SimError::OutOfMemory { .. }))), "{err:?}");
}

/// Double free: the second `free` returns `UnknownBuffer` and the allocated
/// byte accounting stays exact — with the pool off and on.
#[test]
fn double_free_is_rejected_with_exact_accounting() {
    for pool in [false, true] {
        let mut d = Device::new(DeviceConfig::toy(1 << 20), Calibration::gtx480());
        d.set_pool_enabled(pool);
        let a = d.malloc(100).unwrap();
        let b = d.malloc(100).unwrap();
        let bytes_per = d.allocated_bytes() / 2;
        assert!(bytes_per >= 400, "pool={pool}");

        d.free(a).unwrap();
        assert_eq!(d.allocated_bytes(), bytes_per, "pool={pool}");
        let err = d.free(a);
        assert!(matches!(err, Err(simgpu::SimError::UnknownBuffer { .. })), "pool={pool}: {err:?}");
        // The rejected free changed no accounting.
        assert_eq!(d.allocated_bytes(), bytes_per, "pool={pool}");
        assert_eq!(d.profiler.alloc.frees, 1, "pool={pool}");

        d.free(b).unwrap();
        assert_eq!(d.allocated_bytes(), 0, "pool={pool}");
        assert_eq!(d.profiler.alloc.frees, 2, "pool={pool}");
    }
}

/// Mid-batch OOM with degradation enabled: the batch that dies under plain
/// multi-stream settings completes at reduced lanes with results
/// bit-identical to the 1-stream run, and reports the downgrade.
#[test]
fn mid_batch_oom_degrades_to_fewer_lanes() {
    let s = Scenario::tiny(); // 2 frames: the second frame's lane OOMs
    let seed = 9;
    let sac = build_sac(&s, Variant::NonGeneric, Part::Full, &Default::default()).unwrap();
    let gasp = build_gaspard(&s).unwrap();

    // SaC route.
    let mut base = Device::gtx480();
    let baseline = run_sac_batch(&s, &sac, &mut base, seed, ExecOptions::default()).unwrap();
    let cfg = DeviceConfig::toy(base.peak_allocated_bytes()); // one lane fits
    let two = ExecOptions { streams: 2, ..Default::default() };

    let mut naive = Device::new(cfg.clone(), Calibration::gtx480());
    let err = run_sac_batch(&s, &sac, &mut naive, seed, two);
    assert!(
        matches!(
            err,
            Err(PipelineError::Cuda(sac_cuda::CudaError::Schedule(Sim(
                simgpu::SimError::OutOfMemory { .. }
            ))))
        ),
        "{err:?}"
    );

    let mut deg = Device::new(cfg, Calibration::gtx480());
    let outs = run_sac_batch(&s, &sac, &mut deg, seed, ExecOptions { degrade_on_oom: true, ..two })
        .unwrap();
    assert_eq!(outs, baseline);
    assert_eq!(deg.allocated_bytes(), 0);
    assert!(deg.profiler.notes().any(|n| n.contains("degraded")));

    // GASPARD route.
    let mut base = Device::gtx480();
    let baseline = run_gaspard_batch(&s, &gasp, &mut base, seed, ExecOptions::default()).unwrap();
    let cfg = DeviceConfig::toy(base.peak_allocated_bytes());

    let mut naive = Device::new(cfg.clone(), Calibration::gtx480());
    let err = run_gaspard_batch(&s, &gasp, &mut naive, seed, two);
    assert!(
        matches!(
            err,
            Err(PipelineError::Gaspard(gaspard::GaspardError::Schedule(Sim(
                simgpu::SimError::OutOfMemory { .. }
            ))))
        ),
        "{err:?}"
    );

    let mut deg = Device::new(cfg, Calibration::gtx480());
    let outs =
        run_gaspard_batch(&s, &gasp, &mut deg, seed, ExecOptions { degrade_on_oom: true, ..two })
            .unwrap();
    assert_eq!(outs, baseline);
    assert!(deg.profiler.notes().any(|n| n.contains("degraded")));
}

proptest! {
    /// Pool hit/miss/cached-bytes accounting matches a naive replay of the
    /// same malloc/free sequence over power-of-two size classes.
    #[test]
    fn pool_accounting_matches_naive_replay(
        ops in proptest::collection::vec((1usize..64, any::<bool>()), 1..40)
    ) {
        // Huge capacity (no eviction interference), free timing.
        let mut d = Device::new(DeviceConfig::toy(1 << 30), Calibration::zero());
        d.set_pool_enabled(true);

        let mut live: Vec<(BufferId, usize)> = Vec::new(); // (id, class_len)
        let mut bins: HashMap<usize, usize> = HashMap::new(); // class_len -> cached
        let (mut hits, mut misses) = (0u64, 0u64);
        let mut cached = 0usize;
        for (len, free_oldest) in ops {
            if free_oldest && !live.is_empty() {
                let (id, class) = live.remove(0);
                d.free(id).unwrap();
                *bins.entry(class).or_insert(0) += 1;
                cached += class * 4;
            }
            let class = len.next_power_of_two();
            let id = d.malloc(len).unwrap();
            match bins.get_mut(&class) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    cached -= class * 4;
                    hits += 1;
                }
                _ => misses += 1,
            }
            live.push((id, class));
        }

        prop_assert_eq!(d.profiler.alloc.pool_hits, hits);
        prop_assert_eq!(d.profiler.alloc.pool_misses, misses);
        prop_assert_eq!(d.profiler.alloc.mallocs, misses);
        prop_assert_eq!(d.pool().cached_bytes(), cached);
        // Charged bytes equal the sum of live buffers' class sizes.
        let expect_live: usize = live.iter().map(|(_, c)| c * 4).sum();
        prop_assert_eq!(d.allocated_bytes(), expect_live);
        prop_assert_eq!(d.footprint_bytes(), expect_live + cached);
    }
}

/// A hand-built flat program with an out-of-bounds load: the kernel must
/// fault (as a real GPU would report an illegal access), not wrap or clamp.
#[test]
fn kernel_oob_load_faults() {
    let mut p = FlatProgram::default();
    let a = p.declare("a", vec![8]);
    let out = p.declare("out", vec![8]);
    p.inputs.push(a);
    p.result = out;
    p.steps.push(Step::With {
        target: out,
        with: FlatWith {
            shape: vec![8],
            default: 0,
            modarray_src: None,
            generators: vec![FlatGen::dense(
                &[8],
                // a[iv + 4]: indices 4..12 run past the end.
                SymExpr::Load {
                    array: a,
                    index: vec![SymExpr::bin(
                        sac_lang::ast::BinKind::Add,
                        SymExpr::Idx(0),
                        SymExpr::Const(4),
                    )],
                },
            )],
        },
    });
    // The flat evaluator catches it…
    let frame = mdarray::NdArray::filled([8usize], 1i64);
    assert!(p.run(std::slice::from_ref(&frame), &mut 0).is_err());
    // …and so does the simulated device.
    let cuda = sac_cuda::compile_flat_program(&p).unwrap();
    let mut device = Device::gtx480();
    let err = common::run_sac_once(&cuda, &mut device, &[frame], ExecOptions::default());
    assert!(matches!(err, Err(Sim(simgpu::SimError::OutOfBounds { .. }))), "{err:?}");
}

/// Malformed SaC programs are rejected with a line-numbered parse error or a
/// typed check error — never accepted or panicked on.
#[test]
fn frontend_rejects_malformed_programs() {
    for (src, expect) in [
        ("int f( { }", "parse"),
        ("int f() { return( x); }", "type"),
        ("int f() { y = with { } : genarray( [2]); return( y); }", "parse"),
        ("int f(int x) { y = x; }", "type"), // missing return
    ] {
        let result = sac_lang::parse_program(src)
            .map_err(|e| e.to_string())
            .and_then(|p| sac_lang::types::check_program(&p).map_err(|e| e.to_string()));
        let err = result.expect_err(src);
        assert!(err.contains(expect), "'{src}' gave: {err}");
    }
}

/// Runtime faults in SaC programs (division by zero, out-of-range selection)
/// surface as evaluation errors from every execution engine.
#[test]
fn runtime_faults_are_uniform() {
    let src = r#"
int[*] main(int[4] a)
{
    out = with { (. <= iv <= .) : a[iv] / (a[iv] - a[iv]); } : genarray( [4], 0);
    return( out);
}
"#;
    let prog = sac_lang::parse_program(src).unwrap();
    let frame = mdarray::NdArray::filled([4usize], 3i64);

    // Interpreter.
    let mut interp = sac_lang::Interp::new(&prog);
    assert!(interp.call("main", vec![sac_lang::value::Value::Arr(frame.clone())]).is_err());

    // Flat evaluator and device.
    let args = [sac_lang::opt::ArgDesc::Array { name: "a".into(), shape: vec![4] }];
    let (flat, _) = sac_lang::opt::optimize(&prog, "main", &args, &Default::default()).unwrap();
    assert!(flat.run(std::slice::from_ref(&frame), &mut 0).is_err());
    let cuda = sac_cuda::compile_flat_program(&flat).unwrap();
    let mut device = Device::gtx480();
    let err = common::run_sac_once(&cuda, &mut device, &[frame], ExecOptions::default());
    assert!(matches!(err, Err(Sim(simgpu::SimError::DivByZero { .. }))), "{err:?}");
}

/// Deployment faults: a model whose filters are allocated to a nonexistent
/// resource is rejected by the chain, not at code generation time.
#[test]
fn bad_allocation_rejected_at_deploy() {
    let (model, _) = downscaler::model::downscaler_model(&Scenario::tiny());
    let alloc = gaspard::Allocation::default()
        .allocate("FrameGenerator", "i7_930")
        .allocate("FrameConstructor", "i7_930")
        .allocate("HFilterChannel", "tpu9000")
        .allocate("VFilterChannel", "gtx480");
    let err = gaspard::transform::deploy(model, gaspard::Platform::cpu_gpu(), alloc);
    assert!(matches!(err, Err(gaspard::GaspardError::UnknownElement { .. })), "{err:?}");
}
