//! Cross-crate integration: both compilation routes, the interpreter, the
//! flat evaluator and the reference filters must agree bit-exactly on the
//! same video frames — the property underlying the paper's entire comparison.

mod common;

use downscaler::frames::{FrameGenerator, FrameSink};
use downscaler::pipelines::{build_gaspard, build_sac, reference_downscale};
use downscaler::sac_src::{program_src, Part, Variant};
use downscaler::Scenario;
use mdarray::NdArray;
use sac_lang::value::Value;
use sac_lang::Interp;
use simgpu::device::Device;
use simgpu::profiler::OpClass;
use simgpu::ExecOptions;

#[test]
fn five_implementations_one_result() {
    let s = Scenario::tiny();
    let gen = FrameGenerator::new(s.channels, s.rows, s.cols, 77);
    let planes = gen.frame_channels(0);
    let frame = FrameGenerator::stack(&planes);

    // 1. Golden CPU filters.
    let expect = reference_downscale(&s, &frame);

    // 2. The SaC AST interpreter on the non-generic source.
    let src = program_src(&s, Variant::NonGeneric, Part::Full);
    let prog = sac_lang::parse_program(&src).unwrap();
    let mut interp = Interp::new(&prog);
    let got = interp.call("main", vec![Value::Arr(frame.clone())]).unwrap();
    assert_eq!(got.as_array().unwrap(), &expect, "AST interpreter");

    // 3. The optimised flat program, evaluated sequentially.
    let route = build_sac(&s, Variant::NonGeneric, Part::Full, &Default::default()).unwrap();
    let flat_out = route.flat.run(std::slice::from_ref(&frame), &mut 0).unwrap();
    assert_eq!(flat_out, expect, "flat evaluator after WLF");

    // 4. The CUDA route on the simulated device.
    let mut device = Device::gtx480();
    let (cuda_out, _) = common::run_sac_once(
        &route.cuda,
        &mut device,
        std::slice::from_ref(&frame),
        ExecOptions { channel_chunks: s.channels, ..Default::default() },
    )
    .unwrap();
    assert_eq!(cuda_out, expect, "SaC -> CUDA route");

    // 5. The GASPARD2 OpenCL route.
    let gasp = build_gaspard(&s).unwrap();
    let mut device2 = Device::gtx480();
    let outs = common::run_gaspard_once(&gasp.opencl, &mut device2, &planes).unwrap();
    assert_eq!(FrameGenerator::stack(&outs), expect, "GASPARD2 -> OpenCL route");
}

#[test]
fn generic_variant_agrees_end_to_end() {
    let s = Scenario::tiny();
    let frame = FrameGenerator::new(s.channels, s.rows, s.cols, 5).frame_rank3(1);
    let expect = reference_downscale(&s, &frame);

    let route = build_sac(&s, Variant::Generic, Part::Full, &Default::default()).unwrap();
    assert!(route.cuda.host_steps_per_run() > 0, "generic route must fall back to the host");
    let mut device = Device::gtx480();
    let (out, stats) = common::run_sac_once(
        &route.cuda,
        &mut device,
        std::slice::from_ref(&frame),
        ExecOptions::default(),
    )
    .unwrap();
    assert_eq!(out, expect);
    assert!(stats.host_ops > 0);
    // Also sequentially.
    assert_eq!(route.flat.run(&[frame], &mut 0).unwrap(), expect);
}

#[test]
fn multi_frame_stream_is_deterministic() {
    let s = Scenario::tiny();
    let route = build_sac(&s, Variant::NonGeneric, Part::Full, &Default::default()).unwrap();
    let gen = FrameGenerator::new(s.channels, s.rows, s.cols, 9);

    let run_stream = || {
        let mut device = Device::gtx480();
        let mut sink = FrameSink::new();
        for f in 0..3 {
            let frame = gen.frame_rank3(f);
            let (out, _) =
                common::run_sac_once(&route.cuda, &mut device, &[frame], ExecOptions::default())
                    .unwrap();
            sink.consume(&FrameGenerator::unstack(&out));
        }
        (sink.digest, device.now_us())
    };
    let (d1, t1) = run_stream();
    let (d2, t2) = run_stream();
    assert_eq!(d1, d2, "results deterministic across runs");
    assert_eq!(t1, t2, "simulated time deterministic across runs");
}

#[test]
fn per_filter_and_full_pipelines_compose() {
    let s = Scenario::tiny();
    let frame = FrameGenerator::new(s.channels, s.rows, s.cols, 31).frame_rank3(0);

    let h = build_sac(&s, Variant::NonGeneric, Part::Horizontal, &Default::default()).unwrap();
    let v = build_sac(&s, Variant::NonGeneric, Part::Vertical, &Default::default()).unwrap();
    let full = build_sac(&s, Variant::NonGeneric, Part::Full, &Default::default()).unwrap();

    let mut d = Device::gtx480();
    let opts = ExecOptions::default();
    let (hf, _) =
        common::run_sac_once(&h.cuda, &mut d, std::slice::from_ref(&frame), opts).unwrap();
    let (vf, _) = common::run_sac_once(&v.cuda, &mut d, &[hf], opts).unwrap();
    let (direct, _) = common::run_sac_once(&full.cuda, &mut d, &[frame], opts).unwrap();
    assert_eq!(vf, direct);
}

#[test]
fn fused_gaspard_route_agrees_with_unfused_and_reference() {
    let s = Scenario::tiny();
    let route = build_gaspard(&s).unwrap();
    // Every per-channel H→V pair fuses; nothing is refused on the downscaler.
    let fused_plan = downscaler::pipelines::fused_gaspard_plan(&route).unwrap();
    let launches = fused_plan
        .steps
        .iter()
        .filter(|st| matches!(st, simgpu::schedule::PlanStep::Launch { .. }))
        .count();
    assert_eq!(launches, s.channels, "{fused_plan:?}");

    let planes = FrameGenerator::new(s.channels, s.rows, s.cols, 77).frame_channels(0);
    let expect = reference_downscale(&s, &FrameGenerator::stack(&planes));
    let frames = vec![planes];
    let opts = simgpu::ExecOptions::default();
    let mut d_unf = Device::gtx480();
    let out_unf = common::run_gaspard(&route.opencl, &mut d_unf, &frames, opts).unwrap();
    let mut d_fus = Device::gtx480();
    let fus_opts = simgpu::ExecOptions { optimize: simgpu::PlanOptLevel::FUSION_FAITHFUL, ..opts };
    let out_fus = common::run_gaspard(&route.opencl, &mut d_fus, &frames, fus_opts).unwrap();
    assert_eq!(out_fus, out_unf, "fusion must preserve bits");
    assert_eq!(FrameGenerator::stack(&out_fus[0]), expect, "fused route vs golden filters");
    // Same bits for half the launches and strictly less simulated time.
    assert!(
        d_fus.profiler.class_calls(OpClass::Kernel) < d_unf.profiler.class_calls(OpClass::Kernel)
    );
    assert!(d_fus.now_us() < d_unf.now_us());
}

#[test]
fn fusion_refuses_multi_consumer_diamond() {
    use gaspard::transform::ScheduledArray;
    use gaspard::{deploy, generate_opencl, schedule, Platform};

    let (model, alloc) = gaspard::fixtures::mini_two_stage_model();
    let mut sm = schedule(&deploy(model, Platform::cpu_gpu(), alloc).unwrap()).unwrap();
    // Diamond: s1's intermediate also feeds a second consumer with its own
    // sink, so fusing s1 into either consumer would recompute or orphan it.
    let mut extra = sm.kernels[1].clone();
    extra.name = "s2b".into();
    let out_shape = sm.arrays[extra.output].shape.clone();
    sm.arrays.push(ScheduledArray { name: "o2".into(), shape: out_shape });
    extra.output = sm.arrays.len() - 1;
    sm.kernels.push(extra);
    sm.outputs.push(sm.arrays.len() - 1);

    let prog = generate_opencl(&sm).unwrap();
    // Refusal: the plan-level pass leaves the launch structure unchanged and
    // records the reason.
    let unfused_plan = gaspard::exec::lower_plan(&prog);
    let mut fused_plan = gaspard::exec::lower_plan(&prog);
    let report = simgpu::planopt::optimize(&mut fused_plan, simgpu::PlanOptLevel::FUSION).unwrap();
    let launches = |plan: &simgpu::schedule::LaunchPlan<'_>| {
        plan.steps.iter().filter(|s| matches!(s, simgpu::schedule::PlanStep::Launch { .. })).count()
    };
    assert_eq!(launches(&fused_plan), launches(&unfused_plan));
    assert!(
        report.notes.iter().any(|n| n.contains("refused") && n.contains("feeds 2 consumers")),
        "{:?}",
        report.notes
    );

    let frames: Vec<Vec<NdArray<i64>>> = (0..2)
        .map(|f| {
            vec![NdArray::from_fn([4usize, 16], |ix| ((ix[0] * 16 + ix[1] + f * 7) % 29) as i64)]
        })
        .collect();
    let opts = ExecOptions { streams: 2, ..Default::default() };
    let mut d_unf = Device::gtx480();
    let base = common::run_gaspard(&prog, &mut d_unf, &frames, opts).unwrap();
    let mut d_fus = Device::gtx480();
    let fus_opts = ExecOptions { optimize: simgpu::PlanOptLevel::FUSION, ..opts };
    let got = common::run_gaspard(&prog, &mut d_fus, &frames, fus_opts).unwrap();
    assert_eq!(got, base, "refused fusion must fall back to unfused results");
    // The fallback is surfaced to the profiler for ablation reports.
    assert!(
        d_fus.profiler.notes().any(|n| n.contains("refused") && n.contains("feeds 2 consumers")),
        "missing refusal note"
    );
}

/// Every registry workload — not just the downscaler — is bit-identical
/// across both routes, 1 vs 2 streams, and planopt OFF vs ALL, and every
/// configuration matches the entry's CPU reference. This is the paper's
/// core property lifted from one case study to a family of pipelines.
#[test]
fn registry_workloads_agree_across_routes_streams_and_planopt() {
    use scenarios::{registry_small, Route};
    use simgpu::PlanOptLevel;

    for w in registry_small() {
        let built = w.build().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let mut baseline: Option<Vec<NdArray<i64>>> = None;
        for route in Route::BOTH {
            for streams in [1usize, 2] {
                for (passes, optimize) in [("off", PlanOptLevel::OFF), ("all", PlanOptLevel::ALL)] {
                    let label =
                        format!("{} ({} streams={streams} passes={passes})", w.name, route.name());
                    let opts = simgpu::schedule::ExecOptions {
                        streams,
                        pool: streams > 1,
                        executed: 3,
                        optimize,
                        ..Default::default()
                    };
                    let mut device = Device::gtx480();
                    let (outs, _) = built
                        .run(route, &mut device, &opts)
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    for (f, out) in outs.iter().enumerate() {
                        assert_eq!(out, &built.reference(f), "{label}: frame {f} vs CPU reference");
                    }
                    match &baseline {
                        None => baseline = Some(outs),
                        Some(b) => assert_eq!(&outs, b, "{label}: diverges from first config"),
                    }
                }
            }
        }
    }
}

#[test]
fn gaspard_and_sac_kernel_structure_differs_as_published() {
    // The structural finding of §VIII.C: same maths, different kernel
    // decomposition (3+3 model-driven vs 5+7 after folding).
    let s = Scenario::tiny();
    let gasp = build_gaspard(&s).unwrap();
    assert_eq!(gasp.opencl.kernels.len(), 2 * s.channels);

    let sac = build_sac(&s, Variant::NonGeneric, Part::Full, &Default::default()).unwrap();
    assert_eq!(sac.cuda.launches_per_run(), 12);
    // Both routes transfer the same frame data.
    let mut d1 = Device::gtx480();
    let planes = FrameGenerator::new(s.channels, s.rows, s.cols, 1).frame_channels(0);
    common::run_gaspard_once(&gasp.opencl, &mut d1, &planes).unwrap();
    let mut d2 = Device::gtx480();
    common::run_sac_once(
        &sac.cuda,
        &mut d2,
        &[FrameGenerator::stack(&planes)],
        ExecOptions { channel_chunks: s.channels, ..Default::default() },
    )
    .unwrap();
    let h2d1 = d1.profiler.class_total_us(simgpu::profiler::OpClass::H2D);
    let h2d2 = d2.profiler.class_total_us(simgpu::profiler::OpClass::H2D);
    assert!((h2d1 - h2d2).abs() < 1e-6, "equal frame traffic: {h2d1} vs {h2d2}");
}

/// The tentpole property of the plan-level fusion pass: a SaC route built
/// with WITH-loop folding *disabled* plus plan fusion must recover (or
/// beat) the WLF-on launch count and agree bit-exactly; the GASPARD2
/// stencil chain must drop from three kernels per frame to one.
#[test]
fn plan_level_fusion_recovers_wlf_and_collapses_the_stencil_chain() {
    use sac_lang::opt::OptConfig;
    use scenarios::{registry_small, Kind, Route};
    use simgpu::PlanOptLevel;

    let w = registry_small().into_iter().find(|w| w.kind == Kind::ImagePipe).unwrap();
    let wlf_on = w.build().unwrap();
    let wlf_off = w
        .build_with_sac_config(&OptConfig { with_loop_folding: false, resolve_modulo: true })
        .unwrap();

    let launches = |plan: &simgpu::schedule::LaunchPlan<'_>| {
        plan.steps.iter().filter(|s| matches!(s, simgpu::schedule::PlanStep::Launch { .. })).count()
    };

    // Unfused baseline really is one kernel per stage.
    let sac_unfused = wlf_off.plan(Route::Sac).unwrap();
    assert_eq!(launches(&sac_unfused), 3, "WLF-off imagepipe should have 3 stage kernels");
    let mut sac_fused = wlf_off.plan(Route::Sac).unwrap();
    let report = simgpu::planopt::optimize(&mut sac_fused, PlanOptLevel::FUSION).unwrap();
    assert!(
        launches(&sac_fused) <= launches(&wlf_on.plan(Route::Sac).unwrap()),
        "plan fusion must recover the WLF-on launch count: {:?}",
        report.notes
    );
    assert_eq!(launches(&sac_fused), 1, "{:?}", report.notes);

    // GASPARD2: 3 stencil kernels/frame collapse to 1.
    let mut gasp_fused = wlf_off.plan(Route::Gaspard).unwrap();
    let report = simgpu::planopt::optimize(&mut gasp_fused, PlanOptLevel::FUSION).unwrap();
    assert_eq!(launches(&gasp_fused), 1, "{:?}", report.notes);

    // Bit-identical outputs and timing parity across all four configs.
    let run = |built: &scenarios::BuiltWorkload, route, optimize| {
        let opts = simgpu::schedule::ExecOptions { optimize, ..Default::default() };
        let mut device = Device::gtx480();
        let (outs, stats) = built.run(route, &mut device, &opts).unwrap();
        (outs, stats, device.now_us())
    };
    let (on_outs, on_stats, on_us) = run(&wlf_on, Route::Sac, simgpu::PlanOptLevel::OFF);
    let (off_outs, off_stats, off_us) = run(&wlf_off, Route::Sac, simgpu::PlanOptLevel::OFF);
    let (fus_outs, fus_stats, fus_us) = run(&wlf_off, Route::Sac, simgpu::PlanOptLevel::FUSION);
    for (f, out) in fus_outs.iter().enumerate() {
        assert_eq!(out, &wlf_off.reference(f), "frame {f} vs CPU reference");
    }
    assert_eq!(fus_outs, on_outs);
    assert_eq!(fus_outs, off_outs);
    assert!(off_stats.launches > on_stats.launches, "WLF-off must launch more kernels");
    assert!(fus_stats.launches <= on_stats.launches, "fusion must recover WLF launch counts");
    assert!(off_us > on_us, "unfused must be slower");
    assert!(fus_us <= on_us, "fused-at-plan-level must match or beat WLF-on: {fus_us} vs {on_us}");

    let (g_outs, g_stats, _) = run(&wlf_off, Route::Gaspard, simgpu::PlanOptLevel::OFF);
    let (gf_outs, gf_stats, _) = run(&wlf_off, Route::Gaspard, simgpu::PlanOptLevel::FUSION);
    assert_eq!(gf_outs, g_outs);
    assert_eq!(gf_outs, fus_outs, "both routes agree after plan fusion");
    assert!(gf_stats.launches < g_stats.launches);
}

/// Parity between the faithful-codegen fusion mode (the successor of the
/// removed route-local `fuse_model`) and the default lean mode on the
/// downscaler: identical outputs, equal-or-better launch counts and time.
#[test]
fn plan_fusion_matches_route_local_fusion_on_the_downscaler() {
    use simgpu::PlanOptLevel;

    let s = Scenario::tiny();
    let unfused = build_gaspard(&s).unwrap();
    let gen = FrameGenerator::new(s.channels, s.rows, s.cols, 4242);
    let frames: Vec<Vec<NdArray<i64>>> = (0..2).map(|f| gen.frame_channels(f)).collect();
    let opts = simgpu::ExecOptions::default();

    // Faithful: the exact kernels the scheduled-model-level fuse_model
    // route generated (6 -> 3 kernels, same composed bodies).
    let mut d_legacy = Device::gtx480();
    let legacy_opts = simgpu::ExecOptions { optimize: PlanOptLevel::FUSION_FAITHFUL, ..opts };
    let legacy = common::run_gaspard(&unfused.opencl, &mut d_legacy, &frames, legacy_opts).unwrap();

    // Default: the same pass with the lean fused codegen.
    let mut d_plan = Device::gtx480();
    let plan_opts = simgpu::ExecOptions { optimize: PlanOptLevel::FUSION, ..opts };
    let plan = common::run_gaspard(&unfused.opencl, &mut d_plan, &frames, plan_opts).unwrap();

    assert_eq!(plan, legacy, "lean plan fusion must match the faithful mode bit-for-bit");
    let launches = |d: &Device| {
        d.profiler.records().filter(|r| r.class == OpClass::Kernel).map(|r| r.calls).sum::<u64>()
    };
    assert_eq!(launches(&d_plan), launches(&d_legacy), "both fusion modes collapse the same pairs");
    assert!(
        d_plan.now_us() <= d_legacy.now_us(),
        "lean codegen must not be slower than the faithful baseline: {} vs {}",
        d_plan.now_us(),
        d_legacy.now_us()
    );
}
