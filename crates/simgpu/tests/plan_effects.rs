//! Random-plan checks of the step-effect table behind `LaunchPlan::validate`
//! and the planopt dataflow passes (residency, dead transfers, reorder,
//! coalesce), on plans no route emits: host ops between launches, kernels
//! with several writable or in-place parameters, invariant inputs with and
//! without a prologue, and a cross-frame carry.
//!
//! * **Every pass subset preserves a legal plan.** For each of the 64
//!   `PlanOptLevel` bit patterns the optimised plan validates, its outputs
//!   are bit-identical to the unoptimised plan's at 1 and 2 lanes (with
//!   executed and timing-replayed frames), and it moves no more H2D + D2H
//!   bytes.
//! * **A mutated plan fails typed, never panics.** One field at a time is
//!   broken (an index out of range, a step dropped, duplicated or swapped,
//!   an empty batch, a retargeted carry or invariant, a launch or host op in
//!   the prologue, a chunk count), and `validate`, `optimize` at every level
//!   and `BatchScheduler::run` must each return `Ok` or a typed error.
//!
//! Plans come from the proptest shim's deterministic generator, a fixed
//! number of cases per test.

use mdarray::NdArray;
use proptest::{seed_from_name, TestRng};
use simgpu::kir::KernelBuilder;
use simgpu::schedule::{Carry, HostOp, RunStats, ScheduleError};
use simgpu::{
    optimize, ArrayDecl, BatchScheduler, BinOp, Device, ExecOptions, Kernel, KernelFlavor,
    LaunchConfig, LaunchPlan, PlanKernel, PlanOptLevel, PlanStep, Special,
};
use std::borrow::Cow;

/// Every array's shape: two leading slices, so transfers may be chunked.
const SHAPE: [usize; 2] = [2, 4];
const LEN: usize = SHAPE[0] * SHAPE[1];
/// Generated plans per test.
const CASES: u64 = 256;

/// Planopt levels by bit pattern, as in the workspace's plan-fusion tests.
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

fn below(rng: &mut TestRng, n: usize) -> usize {
    rng.below(n as u64) as usize
}

/// A uniformly chosen element of `candidates`, if any.
fn pick(rng: &mut TestRng, candidates: &[usize]) -> Option<usize> {
    (!candidates.is_empty()).then(|| candidates[below(rng, candidates.len())])
}

/// How a generated kernel uses one buffer parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Use {
    /// Loaded, never stored.
    Read,
    /// Loaded, then stored: a read-modify-write in place.
    InPlace,
    /// Stored without being loaded.
    WriteOnly,
}

/// An elementwise kernel: each thread sums its loaded parameters' elements
/// (weighted by position) and stores `(sum + j + 1) % 997` through each
/// writable parameter `j`, so values stay small on every path.
fn kernel(name: String, uses: &[Use]) -> Kernel {
    let mut b = KernelBuilder::new(name, KernelFlavor::Cuda);
    let params: Vec<usize> = uses
        .iter()
        .enumerate()
        .map(|(j, u)| b.buffer_param(format!("p{j}"), *u != Use::Read))
        .collect();
    let gid = b.special(Special::GlobalIdX);
    let mut sum = b.constant(1);
    for (j, u) in uses.iter().enumerate() {
        if *u != Use::WriteOnly {
            let v = b.load(params[j], gid);
            let w = b.bin_imm(BinOp::Mul, v, j as i64 + 2);
            sum = b.bin(BinOp::Add, sum, w);
        }
    }
    for (j, u) in uses.iter().enumerate() {
        if *u != Use::Read {
            let v = b.bin_imm(BinOp::Add, sum, j as i64 + 1);
            let v = b.bin_imm(BinOp::Rem, v, 997);
            b.store(params[j], gid, v);
        }
    }
    b.finish()
}

/// A host op writing `(Σ_k (k+1)·reads[k] + op) % 1000` into its target.
fn host_op(op: usize, reads: Vec<usize>, target: usize) -> HostOp<'static> {
    HostOp {
        name: format!("h{op}(host)"),
        target,
        reads,
        run: std::rc::Rc::new(move |arrs| {
            let out = NdArray::from_fn(SHAPE.to_vec(), |ix| {
                let i = ix[0] * SHAPE[1] + ix[1];
                let sum: i64 =
                    arrs.iter().enumerate().map(|(k, a)| (k as i64 + 1) * a.as_slice()[i]).sum();
                (sum + op as i64).rem_euclid(1000)
            });
            Ok((out, (LEN * arrs.len()) as u64))
        }),
    }
}

/// What the generator knows of each array while it emits steps.
struct State {
    /// The host copy holds this frame's value.
    host: Vec<bool>,
    /// The device copy holds this frame's value.
    dev: Vec<bool>,
    /// A device buffer exists that `validate` counts as resident.
    present: Vec<bool>,
    /// Never written: a declared frame-invariant input.
    invariant: Vec<bool>,
    /// How each kernel-table entry uses its parameters.
    uses: Vec<Vec<Use>>,
}

/// A random legal plan over 2–5 arrays. Every step reads only values the
/// frame itself defined (or the invariant prologue uploaded), so outputs do
/// not depend on which lane, or which earlier frame, left a buffer behind.
fn random_plan(rng: &mut TestRng) -> LaunchPlan<'static> {
    let n = 2 + below(rng, 4);
    let inputs: Vec<usize> = (0..n).filter(|&a| a == 0 || below(rng, 2) == 0).collect();
    let invariant: Vec<usize> = inputs.iter().copied().filter(|_| below(rng, 3) == 0).collect();
    let mut plan = LaunchPlan {
        arrays: (0..n)
            .map(|a| ArrayDecl { name: format!("a{a}"), shape: SHAPE.to_vec() })
            .collect(),
        inputs,
        outputs: Vec::new(),
        kernels: Vec::new(),
        host_ops: Vec::new(),
        steps: Vec::new(),
        prologue: Vec::new(),
        invariant,
        batches: Vec::new(),
        carries: Vec::new(),
        lane_label: "stream lanes",
    };
    let mut st = State {
        host: (0..n).map(|a| plan.inputs.contains(&a)).collect(),
        dev: vec![false; n],
        present: vec![false; n],
        invariant: (0..n).map(|a| plan.invariant.contains(&a)).collect(),
        uses: Vec::new(),
    };
    for &a in &plan.invariant {
        if below(rng, 2) == 0 {
            plan.prologue.push(PlanStep::Upload { array: a, chunks: 1 });
            (st.dev[a], st.present[a]) = (true, true);
        }
    }
    let chunks = |rng: &mut TestRng| 1 + below(rng, 2);
    let steps = 4 + below(rng, 9);
    for _ in 0..8 * steps {
        if plan.steps.len() >= steps {
            break;
        }
        match below(rng, 6) {
            0 => {
                let Some(a) = pick(rng, &(0..n).filter(|&a| st.host[a]).collect::<Vec<_>>()) else {
                    continue;
                };
                plan.steps.push(PlanStep::Upload { array: a, chunks: chunks(rng) });
                (st.dev[a], st.present[a]) = (true, true);
            }
            1 => {
                let a = below(rng, n);
                plan.steps.push(PlanStep::Alloc { array: a });
                st.present[a] = true;
            }
            2 => {
                let Some(a) = pick(rng, &(0..n).filter(|&a| st.dev[a]).collect::<Vec<_>>()) else {
                    continue;
                };
                plan.steps.push(PlanStep::Download { array: a, chunks: chunks(rng) });
                st.host[a] = true;
            }
            3 => {
                let readable: Vec<usize> = (0..n).filter(|&a| st.host[a]).collect();
                let writable: Vec<usize> = (0..n).filter(|&a| !st.invariant[a]).collect();
                let (Some(r), Some(t)) = (pick(rng, &readable), pick(rng, &writable)) else {
                    continue;
                };
                let mut reads = vec![r];
                if let Some(r2) = pick(rng, &readable).filter(|&r2| r2 != r) {
                    reads.push(r2);
                }
                let op = plan.host_ops.len();
                plan.host_ops.push(host_op(op, reads, t));
                plan.steps.push(PlanStep::Host { op });
                (st.host[t], st.dev[t], st.present[t]) = (true, false, false);
            }
            4 if !plan.kernels.is_empty() => relaunch(rng, &mut plan, &mut st),
            _ => launch(rng, &mut plan, &mut st),
        }
    }
    finish(rng, &mut plan, &st);
    plan
}

/// Emit a launch of a new kernel with 1–3 distinct arguments, preceded by
/// the allocations its write-only arguments need.
fn launch(rng: &mut TestRng, plan: &mut LaunchPlan<'static>, st: &mut State) {
    let n = plan.arrays.len();
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, below(rng, i + 1));
    }
    let mut args = Vec::new();
    let mut uses = Vec::new();
    for &a in order.iter().take(1 + below(rng, 3)) {
        let mut options = Vec::new();
        if st.dev[a] {
            options.push(Use::Read);
        }
        if !st.invariant[a] {
            options.push(Use::WriteOnly);
            if st.dev[a] {
                options.push(Use::InPlace);
            }
        }
        if !options.is_empty() {
            let u = options[below(rng, options.len())];
            args.push(a);
            uses.push(u);
        }
    }
    if !uses.iter().any(|u| *u != Use::Read) {
        return;
    }
    for (&a, u) in args.iter().zip(&uses) {
        if *u == Use::WriteOnly && !st.present[a] {
            plan.steps.push(PlanStep::Alloc { array: a });
            st.present[a] = true;
        }
    }
    let k = plan.kernels.len();
    plan.kernels.push(PlanKernel {
        kernel: Cow::Owned(kernel(format!("k{k}"), &uses)),
        config: LaunchConfig::cover_1d(LEN, LEN as u32),
        args,
        access: None,
    });
    st.uses.push(uses);
    plan.steps.push(PlanStep::Launch { kernel: k });
    apply_writes(plan, st, k);
}

/// Launch an existing kernel-table entry again when its arguments are ready
/// (a shared entry, or an in-place kernel applied twice).
fn relaunch(rng: &mut TestRng, plan: &mut LaunchPlan<'static>, st: &mut State) {
    let k = below(rng, plan.kernels.len());
    let ready = plan.kernels[k].args.iter().zip(&st.uses[k]).all(|(&a, u)| match u {
        Use::WriteOnly => st.present[a],
        Use::Read | Use::InPlace => st.dev[a],
    });
    if ready {
        plan.steps.push(PlanStep::Launch { kernel: k });
        apply_writes(plan, st, k);
    }
}

fn apply_writes(plan: &LaunchPlan<'static>, st: &mut State, k: usize) {
    for a in plan.kernels[k].written_args() {
        (st.dev[a], st.present[a], st.host[a]) = (true, true, false);
    }
}

/// Declare the outputs (downloading one value if nothing computed is on the
/// host) and, sometimes, one carry into a non-invariant input.
fn finish(rng: &mut TestRng, plan: &mut LaunchPlan<'static>, st: &State) {
    let n = plan.arrays.len();
    let mut host: Vec<usize> = (0..n).filter(|&a| st.host[a]).collect();
    if host.iter().all(|a| plan.inputs.contains(a)) {
        if let Some(a) = pick(rng, &(0..n).filter(|&a| st.dev[a]).collect::<Vec<_>>()) {
            plan.steps.push(PlanStep::Download { array: a, chunks: 1 });
            host.push(a);
        }
    }
    let first = pick(rng, &host).expect("some array is on the host");
    plan.outputs.push(first);
    if let Some(second) = pick(rng, &host).filter(|&a| a != first) {
        plan.outputs.push(second);
    }
    let targets: Vec<usize> = plan.inputs.iter().copied().filter(|&a| !st.invariant[a]).collect();
    if below(rng, 3) == 0 {
        if let (Some(from), Some(to)) = (pick(rng, &host), pick(rng, &targets)) {
            plan.carries.push(Carry { from, to });
        }
    }
}

/// Frame `f`'s inputs; invariant inputs hold the same value in every frame.
fn frames(plan: &LaunchPlan<'_>, count: usize) -> Vec<Vec<NdArray<i64>>> {
    (0..count)
        .map(|f| {
            plan.inputs
                .iter()
                .map(|&a| {
                    let f = if plan.invariant.contains(&a) { 0 } else { f };
                    NdArray::from_fn(SHAPE.to_vec(), |ix| {
                        ((f * 31 + a % 64 * 7 + ix[0] * SHAPE[1] + ix[1]) % 100) as i64
                    })
                })
                .collect()
        })
        .collect()
}

type Outputs = Vec<Vec<NdArray<i64>>>;

/// Three executed frames and one timing-replayed frame on `streams` lanes.
fn run(plan: &LaunchPlan<'_>, streams: usize) -> Result<(Outputs, RunStats), ScheduleError> {
    let mut device = Device::gtx480();
    let opts = ExecOptions { streams, total_frames: 4, ..Default::default() };
    BatchScheduler::new(plan).run(&mut device, &frames(plan, 3), &opts)
}

fn bytes(stats: &RunStats) -> usize {
    stats.h2d_bytes + stats.d2h_bytes
}

#[test]
fn every_pass_subset_preserves_random_plans() {
    // Per transfer pass: cases where it rewrote a plan with a host op, and
    // cases where it rewrote a plan with a multi-writer kernel.
    let passes = ["residency", "dead-transfers", "reorder", "coalesce"];
    let mut rewrote = [[0usize; 2]; 4];
    for case in 0..CASES {
        let mut rng =
            TestRng::new(seed_from_name("every_pass_subset_preserves_random_plans") ^ case);
        let plan = random_plan(&mut rng);
        if let Err(e) = plan.validate() {
            panic!("case {case}: the generator emitted an invalid plan: {e}\n{plan:#?}");
        }
        let has_host_op = !plan.host_ops.is_empty();
        let multi_writer = plan.kernels.iter().any(|k| k.written_args().count() > 1);
        let [(want, off1), (outs2, off2)] = [1, 2].map(|streams| run(&plan, streams).unwrap());
        assert_eq!(outs2, want, "case {case}: OFF at 2 lanes");
        for bits in 0..64 {
            let level = level_from_bits(bits);
            let mut opt = plan.clone();
            let report = optimize(&mut opt, level)
                .unwrap_or_else(|e| panic!("case {case} bits {bits:02x}: {e}\n{plan:#?}"));
            opt.validate().unwrap();
            for (i, pass) in passes.iter().enumerate() {
                if report.notes.iter().any(|n| n.starts_with(&format!("planopt {pass}:"))) {
                    rewrote[i][0] += usize::from(has_host_op);
                    rewrote[i][1] += usize::from(multi_writer);
                }
            }
            for (streams, off) in [(1, &off1), (2, &off2)] {
                let (outs, stats) = run(&opt, streams).unwrap();
                assert_eq!(
                    outs, want,
                    "case {case} bits {bits:02x} streams {streams}\n{plan:#?}\n{opt:#?}"
                );
                assert!(
                    bytes(&stats) <= bytes(off),
                    "case {case} bits {bits:02x} streams {streams}: {} > {} bytes",
                    bytes(&stats),
                    bytes(off)
                );
            }
        }
    }
    // The generator must keep reaching what the route plans never do.
    for (pass, [host, multi]) in passes.iter().zip(rewrote) {
        assert!(host > 0 && multi > 0, "{pass}: {host} host-op and {multi} multi-writer rewrites");
    }
}

/// Break one field of `plan`; returns what was broken.
fn mutate(rng: &mut TestRng, plan: &mut LaunchPlan<'static>, kind: usize) -> String {
    let n = plan.arrays.len();
    let oob = |rng: &mut TestRng, len: usize| {
        if below(rng, 4) == 0 {
            usize::MAX
        } else {
            len + below(rng, 3)
        }
    };
    let any = |rng: &mut TestRng| below(rng, n + 1);
    let at = below(rng, plan.steps.len().max(1));
    let steps = plan.steps.len();
    match kind {
        0 => {
            let v = oob(rng, n);
            match plan.steps.get_mut(at) {
                Some(
                    PlanStep::Upload { array, .. }
                    | PlanStep::Alloc { array }
                    | PlanStep::Download { array, .. },
                ) => *array = v,
                _ => plan.steps.insert(at.min(steps), PlanStep::Alloc { array: v }),
            }
            format!("step {at} array -> {v}")
        }
        1 => {
            let kernel = oob(rng, plan.kernels.len());
            plan.steps.insert(at.min(steps), PlanStep::Launch { kernel });
            format!("launch of kernel {kernel} at {at}")
        }
        2 => {
            let op = oob(rng, plan.host_ops.len());
            plan.steps.insert(at.min(steps), PlanStep::Host { op });
            format!("host op {op} at {at}")
        }
        3 => {
            let batch = oob(rng, plan.batches.len());
            let step = if below(rng, 2) == 0 {
                PlanStep::UploadBatch { batch }
            } else {
                PlanStep::DownloadBatch { batch }
            };
            plan.steps.insert(at.min(steps), step);
            format!("{step:?} at {at}")
        }
        4 => {
            let v = oob(rng, n);
            let Some(k) = pick(rng, &(0..plan.kernels.len()).collect::<Vec<_>>()) else {
                return "no kernel to retarget".into();
            };
            let args = &mut plan.kernels[k].args;
            let i = below(rng, args.len());
            args[i] = if below(rng, 2) == 0 { v } else { any(rng) };
            format!("kernel {k} argument {i} -> {}", args[i])
        }
        5 => {
            let v = if below(rng, 2) == 0 { oob(rng, n) } else { any(rng) };
            let Some(h) = pick(rng, &(0..plan.host_ops.len()).collect::<Vec<_>>()) else {
                return "no host op to retarget".into();
            };
            let op = &mut plan.host_ops[h];
            if below(rng, 2) == 0 {
                op.target = v;
            } else {
                let i = below(rng, op.reads.len());
                op.reads[i] = v;
            }
            format!("host op {h} operand -> {v}")
        }
        6 if steps > 0 => format!("dropped step {at}: {:?}", plan.steps.remove(at)),
        7 if steps > 0 => {
            let step = plan.steps[at];
            plan.steps.insert(at + below(rng, 2), step);
            format!("duplicated step {at}: {step:?}")
        }
        8 if steps > 1 => {
            let i = below(rng, steps - 1);
            plan.steps.swap(i, i + 1);
            format!("swapped steps {i} and {}", i + 1)
        }
        9 => {
            match pick(rng, &(0..plan.batches.len()).collect::<Vec<_>>()) {
                Some(b) => plan.batches[b].clear(),
                None => plan.batches.push(Vec::new()),
            }
            "an empty batch".into()
        }
        10 => {
            let (from, to) = (any(rng), any(rng));
            match plan.carries.first_mut() {
                Some(c) if below(rng, 2) == 0 => c.from = from,
                Some(c) => c.to = to,
                None => plan.carries.push(Carry { from, to }),
            }
            format!("carries -> {:?}", plan.carries)
        }
        11 => {
            let a = any(rng);
            match plan.invariant.first_mut() {
                Some(i) => *i = a,
                None => plan.invariant.push(a),
            }
            format!("invariant -> {:?}", plan.invariant)
        }
        12 => {
            let step = if below(rng, 2) == 0 {
                PlanStep::Launch { kernel: 0 }
            } else {
                PlanStep::Host { op: 0 }
            };
            plan.prologue.push(step);
            format!("{step:?} in the prologue")
        }
        13 => {
            let c = [0, 3, LEN, usize::MAX][below(rng, 4)];
            for step in &mut plan.steps {
                if let PlanStep::Upload { chunks, .. } | PlanStep::Download { chunks, .. } = step {
                    *chunks = c;
                }
            }
            format!("every transfer in {c} chunks")
        }
        _ => {
            let v = if below(rng, 2) == 0 { oob(rng, n) } else { any(rng) };
            let list = if below(rng, 2) == 0 { &mut plan.inputs } else { &mut plan.outputs };
            match list.first_mut() {
                Some(a) => *a = v,
                None => list.push(v),
            }
            format!("inputs {:?} outputs {:?}", plan.inputs, plan.outputs)
        }
    }
}

/// `validate`, `optimize` at every level and `BatchScheduler::run` at 1 and
/// 2 lanes: each returns, `run` refuses what `validate` refuses with the same
/// error, and a plan `validate` accepts never fails as an inconsistent plan
/// once it runs.
fn check(plan: &LaunchPlan<'_>) {
    let valid = plan.validate();
    for bits in 0..64 {
        let mut p = plan.clone();
        let optimized = optimize(&mut p, level_from_bits(bits));
        if bits != 0 {
            assert_eq!(optimized.as_ref().err(), valid.as_ref().err(), "bits {bits:02x}");
        }
    }
    for streams in [1, 2] {
        match (&valid, run(plan, streams)) {
            (Err(e), ran) => assert_eq!(ran.err().as_ref(), Some(e), "streams {streams}"),
            (Ok(()), Err(e @ ScheduleError::Plan(_))) => panic!("validated, then {e}"),
            (Ok(()), _) => {}
        }
    }
}

#[test]
fn mutated_plans_fail_typed_never_panic() {
    const KINDS: usize = 15;
    let mut refused = 0usize;
    for case in 0..CASES {
        let mut rng = TestRng::new(seed_from_name("mutated_plans_fail_typed_never_panic") ^ case);
        let plan = random_plan(&mut rng);
        // The fully optimised plan adds a prologue and transfer batches to
        // break.
        let mut full = plan.clone();
        optimize(&mut full, PlanOptLevel::ALL).unwrap();
        for base in [&plan, &full] {
            for kind in 0..KINDS {
                let mut mutant = base.clone();
                let what = mutate(&mut rng, &mut mutant, kind);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    check(&mutant);
                }));
                assert!(outcome.is_ok(), "case {case}: {what}\n{mutant:#?}");
                refused += usize::from(mutant.validate().is_err());
            }
        }
    }
    // Most single-field breaks must be caught by validation.
    assert!(refused > (CASES as usize * 2 * KINDS) / 2, "only {refused} mutants refused");
}
