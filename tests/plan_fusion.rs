//! Property tests for the route-agnostic plan-level kernel-fusion pass.
//!
//! Random multi-stage exact-cover stencil chains are lowered to naive
//! [`LaunchPlan`]s (every intermediate makes a host round trip), then run
//! under **every** planopt pass subset × streams {1, 2}. Whatever the pass
//! manager does to the plan, the batch outputs must stay bit-identical to the
//! CPU reference semantics of the composed accesses (`apply_access`), and the
//! fusion pass must collapse each chain to a single launch per frame.
//!
//! An OOM sub-case re-runs the fused plan on a memory-starved toy device with
//! lane degradation enabled, and a `Carry` regression pins the
//! refusal-as-fallback behaviour at the integration level.
//!
//! A registry test pins that compile-time exact cover stays cheap: every
//! output tiler of every registry entry's MARTE model, and every tiler the
//! fusion pass checks for it, is separable, so `check_exact_cover` decides it
//! per dimension instead of walking the array.

use arrayol::access::{apply_access, ElementaryOp, TiledAccess};
use arrayol::{IMat, Tiler};
use mdarray::NdArray;
use proptest::prelude::*;
use proptest::TestRng;
use simgpu::device::{Device, DeviceConfig};
use simgpu::schedule::Carry;
use simgpu::{
    optimize, ArrayDecl, BatchScheduler, Calibration, ExecOptions, KernelFlavor, LaunchPlan,
    PlanKernel, PlanOptLevel, PlanStep, TiledKernel,
};

/// Sliding column-stencil access `[rows, cols] -> [rows, cols - k + 1]`:
/// row-parallel, unit paving along the column axis, pattern width `k`.
fn stencil(rows: usize, cols: usize, weights: Vec<i64>) -> TiledAccess {
    let k = weights.len();
    TiledAccess {
        repetition: vec![rows, cols - k + 1],
        in_pattern: vec![k],
        in_tiler: Tiler::new(
            vec![0, 0],
            IMat::from_rows(&[&[0], &[1]]),
            IMat::from_rows(&[&[1, 0], &[0, 1]]),
        ),
        out_pattern: vec![1],
        out_tiler: Tiler::new(
            vec![0, 0],
            IMat::from_rows(&[&[0], &[0]]),
            IMat::from_rows(&[&[1, 0], &[0, 1]]),
        ),
        op: ElementaryOp::WeightedSum { weights },
    }
}

fn gen(name: &str, acc: &TiledAccess, in_shape: &[usize], out_shape: &[usize]) -> TiledKernel {
    simgpu::generate_tiled_kernel(name, acc, in_shape, out_shape, KernelFlavor::Cuda).unwrap()
}

/// The naive N-stage plan a route without fusion would emit: upload the
/// input, then per stage alloc + launch + download, with every intermediate
/// re-uploaded for its consumer (a full host round trip for the pass
/// manager to clean up).
fn chain_plan<'a>(
    kernels: &'a [TiledKernel],
    accesses: &[TiledAccess],
    shapes: &[Vec<usize>],
) -> LaunchPlan<'a> {
    let n = kernels.len();
    let mut steps = vec![PlanStep::Upload { array: 0, chunks: 1 }];
    for i in 0..n {
        steps.push(PlanStep::Alloc { array: i + 1 });
        steps.push(PlanStep::Launch { kernel: i });
        steps.push(PlanStep::Download { array: i + 1, chunks: 1 });
        if i + 1 < n {
            steps.push(PlanStep::Upload { array: i + 1, chunks: 1 });
        }
    }
    LaunchPlan {
        arrays: shapes
            .iter()
            .enumerate()
            .map(|(i, s)| ArrayDecl { name: format!("a{i}"), shape: s.clone() })
            .collect(),
        inputs: vec![0],
        outputs: vec![n],
        kernels: kernels
            .iter()
            .zip(accesses)
            .enumerate()
            .map(|(i, (k, a))| {
                PlanKernel::new(&k.kernel, k.config, vec![i + 1, i]).with_access(a.clone())
            })
            .collect(),
        host_ops: Vec::new(),
        steps,
        prologue: Vec::new(),
        invariant: Vec::new(),
        batches: Vec::new(),
        carries: Vec::new(),
        lane_label: "stream lanes",
    }
}

/// The pass subset encoded by the low six bits of `bits`.
fn level_from_bits(bits: u32) -> PlanOptLevel {
    PlanOptLevel {
        fusion: bits & 1 != 0,
        residency: bits & 2 != 0,
        dead_transfers: bits & 4 != 0,
        reorder: bits & 8 != 0,
        coalesce: bits & 16 != 0,
        fusion_faithful: bits & 32 != 0,
    }
}

proptest! {
    /// Fused ≡ unfused ≡ CPU reference on random 2–4 stage exact-cover
    /// chains, for every planopt pass subset and both lane counts, with an
    /// OOM-degradation sub-case on the fused plan.
    #[test]
    fn every_pass_subset_preserves_chain_semantics(
        rows in 1usize..4,
        n_stages in 2usize..5,
        extra_cols in 1usize..7,
        seed in any::<u32>(),
    ) {
        let mut rng = TestRng::new(seed as u64 + 1);

        // Random stage widths and weights; the input is wide enough that
        // every stage output keeps at least `extra_cols` columns.
        let widths: Vec<usize> =
            (0..n_stages).map(|_| 1 + rng.below(3) as usize).collect();
        let weightses: Vec<Vec<i64>> = widths
            .iter()
            .map(|&k| (0..k).map(|_| rng.below(7) as i64 - 3).collect())
            .collect();
        let cols0 = widths.iter().map(|k| k - 1).sum::<usize>() + extra_cols;

        let mut shapes = vec![vec![rows, cols0]];
        let mut accesses = Vec::new();
        for (i, w) in weightses.iter().enumerate() {
            let cols = shapes[i][1];
            accesses.push(stencil(rows, cols, w.clone()));
            shapes.push(vec![rows, cols - (w.len() - 1)]);
        }
        let kernels: Vec<TiledKernel> = accesses
            .iter()
            .enumerate()
            .map(|(i, a)| gen(&format!("s{i}"), a, &shapes[i], &shapes[i + 1]))
            .collect();

        // Two input frames and their CPU reference outputs.
        let frames: Vec<Vec<NdArray<i64>>> = (0..2)
            .map(|f| {
                vec![NdArray::from_fn(vec![rows, cols0], |ix| {
                    (f * 1000 + ix[0] * cols0 + ix[1] + seed as usize) as i64 % 41 - 17
                })]
            })
            .collect();
        let expect: Vec<NdArray<i64>> = frames
            .iter()
            .map(|f| {
                let mut cur = f[0].clone();
                for (acc, shape) in accesses.iter().zip(&shapes[1..]) {
                    cur = apply_access(acc, &cur, shape);
                }
                cur
            })
            .collect();

        for bits in 0..64u32 {
            let level = level_from_bits(bits);
            for streams in [1usize, 2] {
                let mut plan = chain_plan(&kernels, &accesses, &shapes);
                optimize(&mut plan, level).unwrap();
                let launches =
                    plan.steps.iter().filter(|s| matches!(s, PlanStep::Launch { .. })).count();
                if level.fusion {
                    prop_assert_eq!(launches, 1, "bits {:02x}: {:?}", bits, plan.steps);
                } else {
                    prop_assert_eq!(launches, n_stages, "bits {:02x}: {:?}", bits, plan.steps);
                }
                let mut device = Device::gtx480();
                let (outs, stats) = BatchScheduler::new(&plan)
                    .run(&mut device, &frames, &ExecOptions { streams, ..Default::default() })
                    .unwrap();
                prop_assert_eq!(stats.launches, launches * frames.len());
                for (got, want) in outs.iter().zip(&expect) {
                    prop_assert_eq!(&got[0], want, "bits {:02x} streams {}", bits, streams);
                }
            }
        }

        // OOM degradation: give the toy device exactly one lane's worth of
        // memory; a 2-lane fused batch must degrade (not fail) and still
        // produce the reference outputs.
        let mut plan = chain_plan(&kernels, &accesses, &shapes);
        optimize(&mut plan, PlanOptLevel::FUSION).unwrap();
        let mut probe = Device::gtx480();
        BatchScheduler::new(&plan)
            .run(&mut probe, &frames, &ExecOptions::default())
            .unwrap();
        let mut starved =
            Device::new(DeviceConfig::toy(probe.peak_allocated_bytes()), Calibration::gtx480());
        let (outs, _) = BatchScheduler::new(&plan)
            .run(
                &mut starved,
                &frames,
                &ExecOptions { streams: 2, degrade_on_oom: true, ..Default::default() },
            )
            .unwrap();
        for (got, want) in outs.iter().zip(&expect) {
            prop_assert_eq!(&got[0], want, "OOM-degraded run diverged");
        }
    }
}

/// A `Carry` edge through the intermediate must block fusion with a refusal
/// note — and the refused plan must still run correctly, including the
/// serialized cross-frame data flow.
#[test]
fn carry_through_the_intermediate_blocks_fusion_and_stays_correct() {
    let (rows, cols) = (3, 5);
    let accesses = vec![stencil(rows, cols, vec![2]), stencil(rows, cols, vec![3])];
    let shapes = vec![vec![rows, cols]; 3];
    let kernels = vec![
        gen("dbl", &accesses[0], &shapes[0], &shapes[1]),
        gen("tpl", &accesses[1], &shapes[1], &shapes[2]),
    ];

    let build = || {
        let mut plan = chain_plan(&kernels, &accesses, &shapes);
        // Frame f+1's input is frame f's intermediate (2·input).
        plan.carries = vec![Carry { from: 1, to: 0 }];
        plan
    };
    let frames: Vec<Vec<NdArray<i64>>> =
        vec![vec![NdArray::from_fn(vec![rows, cols], |ix| (ix[0] * cols + ix[1]) as i64)]; 2];

    let mut fused = build();
    let report = optimize(&mut fused, PlanOptLevel::FUSION).unwrap();
    assert!(
        report.notes.iter().any(|n| n.contains("crosses the temporal carry boundary")),
        "{:?}",
        report.notes
    );
    let launches = |p: &LaunchPlan<'_>| {
        p.steps.iter().filter(|s| matches!(s, PlanStep::Launch { .. })).count()
    };
    assert_eq!(launches(&fused), 2, "refusal must leave the chain unfused");

    let run = |plan: &LaunchPlan<'_>| {
        let mut device = Device::gtx480();
        let (outs, _) =
            BatchScheduler::new(plan).run(&mut device, &frames, &ExecOptions::default()).unwrap();
        outs
    };
    let base = run(&build());
    let refused = run(&fused);
    assert_eq!(refused, base, "the refused plan must not change results");

    // Frame 0: out = 6·in. Frame 1: input := 2·in, so out = 12·in.
    for (f, mul) in [(0usize, 6i64), (1, 12)] {
        let want = NdArray::from_fn(vec![rows, cols], |ix| (ix[0] * cols + ix[1]) as i64 * mul);
        assert_eq!(refused[f][0], want, "frame {f}");
    }
}

/// The `(tiler, repetition, pattern)` triples whose exact cover the fusion
/// pass checks on `plan`: the producer's output tiler before each
/// composition and the composed scatter tiler after it. The pass's fixpoint
/// is followed over every producer→consumer pair of access-described
/// launches, a superset of the pairs it actually composes.
fn fusion_checked_tilers(plan: &LaunchPlan<'_>) -> Vec<(Tiler, Vec<usize>, Vec<usize>)> {
    let shape = |a: usize| plan.arrays[a].shape.clone();
    // (output array, input array, access) per access-described launch.
    let mut stages: Vec<(usize, usize, TiledAccess)> = plan
        .steps
        .iter()
        .filter_map(|st| match st {
            PlanStep::Launch { kernel } => Some(&plan.kernels[*kernel]),
            _ => None,
        })
        .filter(|k| k.args.len() == 2)
        .filter_map(|k| Some((k.args[0], k.args[1], k.access.clone()?)))
        .collect();
    let mut checked = Vec::new();
    'fixpoint: loop {
        for i in 0..stages.len() {
            for j in 0..stages.len() {
                let (mid, input, producer) = &stages[i];
                let (out, consumer_in, consumer) = &stages[j];
                if i == j || consumer_in != mid {
                    continue;
                }
                checked.push((
                    producer.out_tiler.clone(),
                    producer.repetition.clone(),
                    producer.out_pattern.clone(),
                ));
                let composed = arrayol::access::compose_access(
                    producer,
                    consumer,
                    &shape(*input),
                    &shape(*mid),
                    &shape(*out),
                );
                if let Ok(fused) = composed {
                    checked.push((
                        fused.out_tiler.clone(),
                        fused.repetition.clone(),
                        fused.out_pattern.clone(),
                    ));
                    stages[j] = (*out, *input, fused);
                    stages.remove(i);
                    continue 'fixpoint;
                }
            }
        }
        return checked;
    }
}

/// The MARTE model a registry entry's GASPARD2 route is built from.
fn registry_model(w: &scenarios::Workload) -> gaspard::model::Model {
    use scenarios::{models, Kind};
    match w.kind {
        Kind::Downscale => {
            let s = downscaler::Scenario::new(w.name, 3, w.rows, w.cols, w.frames).unwrap();
            downscaler::model::downscaler_model(&s).0
        }
        Kind::ImagePipe => models::imagepipe_model(w.rows, w.cols).0,
        Kind::Delta => models::delta_model(w.rows, w.cols).0,
        Kind::BlockMean => models::blockmean_model(w.rows, w.cols).0,
    }
}

/// No registry entry, 8K included, sends MARTE validation or the fusion
/// pass's exact-cover checks to the array-walking fallback.
#[test]
fn every_compile_time_exact_cover_is_decided_per_dimension() {
    use gaspard::model::ComponentKind;
    use mdarray::Shape;
    let separable = |t: &Tiler, rep: &[usize], pat: &[usize]| {
        t.is_separable(&Shape::new(rep.to_vec()), &Shape::new(pat.to_vec()))
    };
    for w in scenarios::registry_extended() {
        let model = registry_model(&w);
        let mut outputs = 0;
        for c in &model.components {
            if let ComponentKind::Repetitive { repetition, output_tilers, .. } = &c.kind {
                for (pattern, tiler) in output_tilers {
                    assert!(
                        separable(tiler, repetition, pattern),
                        "{}: {} {tiler:?}",
                        w.name,
                        c.name
                    );
                    outputs += 1;
                }
            }
        }
        assert!(outputs > 0, "{}: no output tiler", w.name);

        // The SaC route offers the pass its per-stage kernels only when WLF
        // is off; with WLF on it has nothing left to fuse.
        let built = w.build().unwrap();
        let no_wlf = sac_lang::opt::OptConfig { with_loop_folding: false, ..Default::default() };
        let unfolded = w.build_with_sac_config(&no_wlf).unwrap();
        let gaspard_unfused = gaspard::exec::lower_plan(&built.opencl);
        let sac = built.plan(scenarios::Route::Sac).unwrap();
        let sac_unfolded = unfolded.plan(scenarios::Route::Sac).unwrap();
        let plans = [("gaspard", &gaspard_unfused), ("sac", &sac), ("sac no WLF", &sac_unfolded)];
        for (route, plan) in plans {
            let checked = fusion_checked_tilers(plan);
            for (tiler, rep, pat) in &checked {
                assert!(separable(tiler, rep, pat), "{}/{route}: {tiler:?}", w.name);
            }
            // Every GASPARD2 chain but delta's single stage offers a pair.
            if route == "gaspard" && w.kind != scenarios::Kind::Delta {
                assert!(!checked.is_empty(), "{}", w.name);
            }
        }
    }
}
