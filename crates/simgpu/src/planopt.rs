//! Plan-level transfer-elimination passes over [`LaunchPlan`].
//!
//! PRs 1–4 left the HD run transfer-bound: fusion cut kernel launches but
//! every frame still uploads all inputs and downloads all outputs, so the
//! 2-stream time plateaued at the H2D engine's busy time. This module
//! attacks that at the shared launch-plan IR, in the spirit of rewrite-rule
//! optimisers: a small pass manager with named, individually-toggleable
//! passes that rewrite a validated plan into a cheaper equivalent one.
//!
//! The passes, in the order [`optimize`] runs them:
//!
//! 1. **Kernel fusion** ([`PlanOptLevel::fusion`]) — the one pass that
//!    rewrites kernel code rather than transfers, which is why it runs
//!    first: the transfer passes then clean up around the smaller launch
//!    set. Launch steps that carry a tiled-access description
//!    ([`PlanKernel::access`](crate::schedule::PlanKernel::access), lowered by both route frontends) form
//!    producer→consumer candidates over intermediate arrays; the
//!    tiler-composition algebra ([`arrayol::compose`](mod@arrayol::compose), via
//!    [`arrayol::access::compose_access`]) decides legality — canonical
//!    tilers, aligned stepping or block grouping, wrap consistency, exact
//!    cover. A legal pair is replaced by one fused launch (generated by
//!    [`crate::tiled`]) at the consumer's position, and the intermediate's
//!    now-dead `Alloc`/`Upload`/`Download` steps are deleted. Anything
//!    else — multi-consumer intermediates, plan outputs, `Carry`-crossing
//!    temporal edges, host-op operands, non-composable tilings, oversized
//!    unrolls — **refuses**: the pair stays unfused and the reason lands in
//!    the pass note, mirroring the route-local `fuse_model` fallback
//!    semantics. Runs to fixpoint, so a three-stage chain fuses 3→1.
//! 2. **Device-residency propagation** ([`PlanOptLevel::residency`]) — a
//!    forward walk tracking which copies of each array hold its *current
//!    value*. A single transfer into an already-valid copy is redundant and
//!    dropped — this is what keeps producer→consumer intermediates
//!    device-resident across steps. An allocation defines no value here (a
//!    warm lane reuses buffers whose bytes are stale). For arrays the route
//!    declares content-independent across frames ([`LaunchPlan::invariant`]),
//!    the surviving upload is hoisted into the plan [`LaunchPlan::prologue`]:
//!    uploaded once per lane, reused by every frame.
//! 3. **Dead upload/download elimination**
//!    ([`PlanOptLevel::dead_transfers`]) — a backward liveness walk from the
//!    declared outputs and carry sources. A single transfer whose target
//!    copy nothing later needs is dropped. Compute frees what it writes,
//!    then needs what it reads; a launch reads every argument, so a transfer
//!    feeding any launch (a read-modify-write in place included) is never
//!    dropped.
//! 4. **Step reordering** ([`PlanOptLevel::reorder`]) — uploads bubble
//!    toward the front of the frame and downloads toward the back, past
//!    steps that do not name the moved array. This lengthens the H2D /
//!    compute / D2H overlap window under multi-stream pipelining, and it
//!    clusters transfers into adjacent runs the coalescing pass can batch.
//!    Transfers never reorder against same-direction transfers, so each
//!    engine's operation order is stable.
//! 5. **Transfer coalescing** ([`PlanOptLevel::coalesce`]) — two rewrites
//!    that both trade per-transfer latency for nothing: a chunked transfer
//!    (`chunks > 1`) becomes one whole-buffer transfer (same bytes, one
//!    latency), and an adjacent run of uploads (or downloads) becomes one
//!    [`PlanStep::UploadBatch`] / [`PlanStep::DownloadBatch`] charged as a
//!    single transfer of the summed bytes. Kernel launches are *not*
//!    coalesced here: merging launches changes kernel code, which is the
//!    compiler's fusion pass (SaC WITH-loop folding, the Gaspard tiler
//!    composition), not a plan-level rewrite.
//!
//! [`LaunchPlan::validate`], passes 2–4 and fusion's check that a producer's
//! input is not redefined between its stages all walk one step-effect table
//! (`LaunchPlan::effect` in [`crate::schedule`]): each step is an allocation,
//! a transfer from one side to the other, or compute on one side (see
//! [`PlanStep`]). Batched transfers are never dropped: only coalescing, which
//! runs last, makes them.
//!
//! Every pass re-validates the plan after rewriting, so an unsound rewrite
//! fails loudly instead of corrupting outputs. What each pass changed is
//! reported as [`PlanOptReport`] notes, which [`crate::schedule::run_plan`]
//! surfaces as profiler notes next to the timings.
//!
//! The knob rides in [`ExecOptions::optimize`](crate::schedule::ExecOptions)
//! and defaults to [`PlanOptLevel::OFF`] — a strict no-op, so every
//! paper-faithful number is untouched unless an experiment opts in.

use crate::schedule::{Effect, LaunchPlan, PlanStep, ScheduleError, Side};

/// Which planopt passes to run. Each pass is independently toggleable so
/// ablations can attribute savings; [`PlanOptLevel::OFF`] (the default) runs
/// nothing and leaves the plan byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOptLevel {
    /// Plan-level kernel fusion: compose producer→consumer launch pairs whose
    /// tiled-access descriptions the ArrayOL algebra can merge, deleting the
    /// intermediate array's steps. Opt-in even under [`PlanOptLevel::ALL`]
    /// (it changes kernel code, not just transfers); see
    /// [`PlanOptLevel::FUSION`] and [`PlanOptLevel::FULL`].
    pub fusion: bool,
    /// Generate fused kernels with the *faithful* tiled codegen
    /// ([`crate::tiled::generate_tiled_kernel`]) instead of the lean variant
    /// ([`crate::tiled::generate_tiled_kernel_lean`]). The faithful codegen
    /// emits exactly what the GASPARD2 model-level toolchain emits for a
    /// composed kernel, so a plan fused this way reproduces the historical
    /// route-local fusion (PR 3's `fuse_model`) bit-for-bit — kernels,
    /// launch configs and simulated timings. The lean default stays faster
    /// (wrap elision + strength reduction); this knob exists for the
    /// baselines that pin the faithful numbers. No effect unless
    /// [`PlanOptLevel::fusion`] is set.
    pub fusion_faithful: bool,
    /// Device-residency propagation: drop re-uploads of device-valid arrays
    /// and re-downloads of host-valid arrays; hoist invariant uploads into
    /// the per-lane prologue.
    pub residency: bool,
    /// Dead transfer elimination: drop uploads/downloads whose produced copy
    /// is never read.
    pub dead_transfers: bool,
    /// Hoist independent uploads ahead of kernel chains and sink downloads
    /// behind them.
    pub reorder: bool,
    /// Merge chunked transfers and batch adjacent same-direction transfers
    /// into single operations.
    pub coalesce: bool,
}

impl PlanOptLevel {
    /// No passes: [`optimize`] is a strict no-op.
    pub const OFF: PlanOptLevel = PlanOptLevel {
        fusion: false,
        fusion_faithful: false,
        residency: false,
        dead_transfers: false,
        reorder: false,
        coalesce: false,
    };
    /// Every *transfer* pass. Kernel fusion stays off: `ALL` predates it,
    /// existing ablations and goldens pin `ALL`'s behaviour, and fusion is a
    /// program rewrite rather than a transfer rewrite. Use
    /// [`PlanOptLevel::FULL`] for all five passes.
    pub const ALL: PlanOptLevel = PlanOptLevel {
        fusion: false,
        fusion_faithful: false,
        residency: true,
        dead_transfers: true,
        reorder: true,
        coalesce: true,
    };
    /// Every pass including kernel fusion.
    pub const FULL: PlanOptLevel = PlanOptLevel { fusion: true, ..Self::ALL };
    /// Only the kernel-fusion pass.
    pub const FUSION: PlanOptLevel = PlanOptLevel { fusion: true, ..Self::OFF };
    /// Only the kernel-fusion pass, generating through the faithful
    /// (model-level-equivalent) tiled codegen. This is the byte-exact
    /// replacement for the removed `gaspard::fusion::fuse_model` route:
    /// lowering an unfused GASPARD2 program and optimizing at this level
    /// yields the same plan, kernels and timings the deprecated
    /// `generate_opencl_fused` used to produce.
    pub const FUSION_FAITHFUL: PlanOptLevel =
        PlanOptLevel { fusion: true, fusion_faithful: true, ..Self::OFF };
    /// Only the residency-propagation pass.
    pub const RESIDENCY: PlanOptLevel = PlanOptLevel { residency: true, ..Self::OFF };
    /// Only dead-transfer elimination.
    pub const DEAD_TRANSFERS: PlanOptLevel = PlanOptLevel { dead_transfers: true, ..Self::OFF };
    /// Only step reordering.
    pub const REORDER: PlanOptLevel = PlanOptLevel { reorder: true, ..Self::OFF };
    /// Only transfer coalescing.
    pub const COALESCE: PlanOptLevel = PlanOptLevel { coalesce: true, ..Self::OFF };

    /// Whether no pass is enabled.
    pub fn is_off(&self) -> bool {
        *self == Self::OFF
    }
}

impl Default for PlanOptLevel {
    fn default() -> Self {
        Self::OFF
    }
}

/// What [`optimize`] changed: one human-readable note per pass that rewrote
/// something, in pass order. [`crate::schedule::run_plan`] pushes these
/// into the device profiler's notes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanOptReport {
    /// One note per pass that changed the plan.
    pub notes: Vec<String>,
}

/// Run the enabled passes over `plan`, in the fixed order fusion →
/// residency → dead-transfers → reorder → coalesce, re-validating after
/// each.
///
/// With [`PlanOptLevel::OFF`] this is a strict no-op: the plan is not
/// touched (not even validated) and the report is empty, so default-option
/// executions are bit-identical to pre-planopt builds.
pub fn optimize(
    plan: &mut LaunchPlan<'_>,
    level: PlanOptLevel,
) -> Result<PlanOptReport, ScheduleError> {
    let mut report = PlanOptReport::default();
    if level.is_off() {
        return Ok(report);
    }
    // Passes assume they start from a consistent plan.
    plan.validate()?;
    type Pass = fn(&mut LaunchPlan<'_>, PlanOptLevel) -> PassResult;
    let passes: [(bool, &str, Pass); 5] = [
        (level.fusion, "fusion", fusion_pass),
        (level.residency, "residency", residency_pass),
        (level.dead_transfers, "dead-transfers", dead_transfers_pass),
        (level.reorder, "reorder", reorder_pass),
        (level.coalesce, "coalesce", coalesce_pass),
    ];
    for (enabled, name, pass) in passes {
        if !enabled {
            continue;
        }
        if let Some(note) = pass(plan, level)? {
            plan.validate().map_err(|e| {
                ScheduleError::Plan(format!("planopt {name} produced an invalid plan: {e}"))
            })?;
            report.notes.push(format!("planopt {name}: {note}"));
        }
    }
    Ok(report)
}

/// A pass's note when it rewrote the plan. A pass errs only on a step the
/// effect table refuses, which [`optimize`]'s validation rules out.
type PassResult = Result<Option<String>, ScheduleError>;

/// Plan-level kernel fusion; see the module docs. Returns a note when any
/// pair fused — or when a candidate was refused, so the fallback is visible
/// in the profiler even if nothing changed.
fn fusion_pass(plan: &mut LaunchPlan<'_>, level: PlanOptLevel) -> PassResult {
    let mut fused: Vec<String> = Vec::new();
    let mut refused: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    while fuse_one_pair(plan, level.fusion_faithful, &mut fused, &mut refused)? {}
    if fused.is_empty() && refused.is_empty() {
        return Ok(None);
    }
    let mut parts: Vec<String> = Vec::new();
    if !fused.is_empty() {
        parts.push(format!("fused {} launch pair(s) into [{}]", fused.len(), fused.join(", ")));
    }
    parts.extend(refused.into_iter().map(|r| format!("refused {r}")));
    Ok(Some(parts.join("; ")))
}

/// One fixpoint iteration of the fusion pass: find the first legal
/// producer→consumer launch pair, rewrite it, and report `true`. Candidates
/// that cannot fuse are recorded in `refused` (deduplicated across
/// iterations) and left alone — refusal is the fallback, never an error.
fn fuse_one_pair(
    plan: &mut LaunchPlan<'_>,
    faithful: bool,
    fused: &mut Vec<String>,
    refused: &mut std::collections::BTreeSet<String>,
) -> Result<bool, ScheduleError> {
    use arrayol::access::{compose_access, ElementaryOp};
    let launch_steps: Vec<(usize, usize)> = plan
        .steps
        .iter()
        .enumerate()
        .filter_map(|(s, st)| match st {
            PlanStep::Launch { kernel } => Some((s, *kernel)),
            _ => None,
        })
        .collect();

    for &(si, ki) in &launch_steps {
        let p = &plan.kernels[ki];
        let Some(p_access) = p.access.clone() else { continue };
        // Access-described launches follow the [output, input] convention.
        if p.args.len() != 2 {
            continue;
        }
        let (mid, p_in) = (p.args[0], p.args[1]);
        let p_name = p.kernel.name.clone();
        let mid_name = plan.arrays[mid].name.clone();

        // Consumers: launch steps whose kernel reads `mid`.
        let consumers: Vec<(usize, usize)> = launch_steps
            .iter()
            .copied()
            .filter(|&(s, k)| s != si && plan.kernels[k].args.iter().skip(1).any(|&a| a == mid))
            .collect();
        if consumers.is_empty() {
            continue;
        }
        let mut refuse = |msg: String| {
            refused.insert(msg);
        };
        let writers = launch_steps
            .iter()
            .filter(|&&(_, k)| plan.kernels[k].args.first() == Some(&mid))
            .count();
        if writers > 1 {
            refuse(format!(
                "{p_name}→*: intermediate '{mid_name}' is written by {writers} launches"
            ));
            continue;
        }
        if plan.outputs.contains(&mid) {
            // Mirror the route-local wording: the intermediate is also a
            // result the host must see, so it cannot vanish into registers.
            refuse(format!("{p_name}→*: intermediate '{mid_name}' is also a plan output"));
            continue;
        }
        if plan.inputs.contains(&mid) {
            refuse(format!("{p_name}→*: intermediate '{mid_name}' is also a plan input"));
            continue;
        }
        if plan.carries.iter().any(|c| c.from == mid || c.to == mid) {
            refuse(format!(
                "{p_name}→*: intermediate '{mid_name}' crosses the temporal carry boundary"
            ));
            continue;
        }
        if let Some(h) = plan.host_ops.iter().find(|h| h.target == mid || h.reads.contains(&mid)) {
            refuse(format!(
                "{p_name}→*: intermediate '{mid_name}' is touched by host op '{}'",
                h.name
            ));
            continue;
        }
        if plan.batches.iter().any(|b| b.contains(&mid)) {
            refuse(format!("{p_name}→*: intermediate '{mid_name}' is part of a batched transfer"));
            continue;
        }
        if consumers.len() > 1 {
            refuse(format!(
                "{p_name}→*: intermediate '{mid_name}' feeds {} consumers",
                consumers.len()
            ));
            continue;
        }
        let (sj, kj) = consumers[0];
        let c = &plan.kernels[kj];
        let c_name = c.kernel.name.clone();
        let edge = format!("{p_name}→{c_name}");
        if sj < si {
            continue;
        }
        let Some(c_access) = c.access.clone() else {
            refuse(format!("{edge}: consumer launch has no tiled-access description"));
            continue;
        };
        if c.args.len() != 2 || c.args[1] != mid || c.args[0] == mid {
            refuse(format!(
                "{edge}: consumer launch is not a single-input kernel over '{mid_name}'"
            ));
            continue;
        }
        let out_arr = c.args[0];
        if p.kernel.flavor != c.kernel.flavor {
            refuse(format!("{edge}: mixed kernel flavours"));
            continue;
        }
        // Kernel-table entries must be private to their launch step, since
        // fusion rewrites one and deletes the other.
        let ki_refs = launch_steps.iter().filter(|&&(_, k)| k == ki).count();
        let kj_refs = launch_steps.iter().filter(|&&(_, k)| k == kj).count();
        if ki_refs != 1 || kj_refs != 1 {
            refuse(format!("{edge}: kernel entry is shared by multiple launch steps"));
            continue;
        }
        // The producer's input must hold the same device value at the
        // consumer's position as it did at the producer's: no step between
        // them may transfer it into the device or write it by compute on
        // either side.
        let mut input_redefined = false;
        for st in &plan.steps[si + 1..sj] {
            input_redefined |= match plan.effect(st)? {
                Effect::Transfer { to: Side::Device, arrays, .. } => arrays.contains(&p_in),
                Effect::Compute { writes, .. } => writes.iter().any(|a| a == p_in),
                _ => false,
            };
        }
        if input_redefined {
            refuse(format!(
                "{edge}: input '{}' is redefined between the stages",
                plan.arrays[p_in].name
            ));
            continue;
        }

        let in_shape = plan.arrays[p_in].shape.clone();
        let mid_shape = plan.arrays[mid].shape.clone();
        let out_shape = plan.arrays[out_arr].shape.clone();
        let fused_access =
            match compose_access(&p_access, &c_access, &in_shape, &mid_shape, &out_shape) {
                Ok(f) => f,
                Err(e) => {
                    refuse(format!("{edge}: {e}"));
                    continue;
                }
            };
        let gather_len: usize = fused_access.in_pattern.iter().product();
        let scatter_len: usize = fused_access.out_pattern.iter().product();
        if gather_len > crate::tiled::MAX_PATTERN_UNROLL
            || scatter_len > crate::tiled::MAX_PATTERN_UNROLL
        {
            refuse(format!(
                "{edge}: fused pattern too large to unroll ({gather_len} in, {scatter_len} out)"
            ));
            continue;
        }
        if let ElementaryOp::Composed { inner, inner_count, inner_in_len, outer_gathers, .. } =
            &fused_access.op
        {
            let inner_out = inner_count * inner.out_len(*inner_in_len);
            if outer_gathers.iter().flatten().any(|&k| k >= inner_out) {
                refuse(format!("{edge}: producer op output disagrees with its pattern"));
                continue;
            }
        }
        let name = format!("{p_name}_{c_name}");
        let flavor = p.kernel.flavor;
        let codegen = if faithful {
            crate::tiled::generate_tiled_kernel
        } else {
            crate::tiled::generate_tiled_kernel_lean
        };
        let tk = match codegen(&name, &fused_access, &in_shape, &out_shape, flavor) {
            Ok(tk) => tk,
            Err(e) => {
                refuse(format!("{edge}: {e}"));
                continue;
            }
        };

        // Rewrite: the fused launch takes the consumer's position (its
        // output Alloc already precedes it there); the producer's launch and
        // every step touching the dead intermediate disappear.
        plan.kernels[ki] = crate::schedule::PlanKernel {
            kernel: std::borrow::Cow::Owned(tk.kernel),
            config: tk.config,
            args: vec![out_arr, p_in],
            access: Some(fused_access),
        };
        plan.steps[sj] = PlanStep::Launch { kernel: ki };
        let dead = |st: &PlanStep| match *st {
            PlanStep::Upload { array, .. }
            | PlanStep::Alloc { array }
            | PlanStep::Download { array, .. } => array == mid,
            _ => false,
        };
        let mut idx = 0;
        plan.steps.retain(|st| {
            let keep = idx != si && !dead(st);
            idx += 1;
            keep
        });
        plan.kernels.remove(kj);
        for st in &mut plan.steps {
            if let PlanStep::Launch { kernel } = st {
                if *kernel > kj {
                    *kernel -= 1;
                }
            }
        }
        fused.push(name);
        return Ok(true);
    }
    Ok(false)
}

/// Forward residency propagation; see the module docs. Returns a note when
/// any transfer was dropped or hoisted.
fn residency_pass(plan: &mut LaunchPlan<'_>, _level: PlanOptLevel) -> PassResult {
    // Which arrays hold their current logical value on each side. Unlike
    // validation's residency, an allocation defines no value: on a warm
    // frame the reused buffer holds the previous frame's data.
    let mut valid = [vec![false; plan.arrays.len()], vec![false; plan.arrays.len()]];
    for &id in &plan.inputs {
        valid[Side::Host][id] = true;
    }
    // A pre-existing prologue already established device residency for its
    // uploads (they are invariant, so their value never goes stale).
    for step in &plan.prologue {
        if let Effect::Transfer { to, arrays, .. } = plan.effect(step)? {
            arrays.iter().for_each(|&a| valid[to][a] = true);
        }
    }

    let mut kept = Vec::with_capacity(plan.steps.len());
    let mut dropped = [0usize; 2];
    for step in &plan.steps {
        match plan.effect(step)? {
            Effect::Alloc(_) => {}
            Effect::Transfer { to, arrays, batched } => {
                // A single transfer into an already-valid copy is redundant.
                if !batched && valid[to][arrays[0]] {
                    dropped[to] += 1;
                    continue;
                }
                arrays.iter().for_each(|&a| valid[to][a] = true);
            }
            Effect::Compute { on, writes, .. } => {
                for a in writes.iter() {
                    valid[on][a] = true;
                    valid[on.other()][a] = false;
                }
            }
        }
        kept.push(*step);
    }
    plan.steps = kept;

    // Cross-frame half: an invariant array's upload can move to the
    // prologue — uploaded once per lane, device-resident for every frame.
    // (Validation already guarantees invariant arrays are inputs and are
    // never written on the device or re-produced by a host op.)
    let mut hoisted = 0usize;
    for &id in &plan.invariant {
        let upload = |s: &PlanStep| matches!(*s, PlanStep::Upload { array, .. } if array == id);
        if !plan.prologue.iter().any(upload) {
            if let Some(pos) = plan.steps.iter().position(upload) {
                plan.prologue.push(plan.steps.remove(pos));
                hoisted += 1;
            }
        }
    }

    let (dropped_up, dropped_down) = (dropped[Side::Device], dropped[Side::Host]);
    if dropped_up + dropped_down + hoisted == 0 {
        return Ok(None);
    }
    Ok(Some(format!(
        "dropped {dropped_up} redundant upload(s) and {dropped_down} redundant download(s), \
         hoisted {hoisted} invariant upload(s) to the per-lane prologue"
    )))
}

/// Backward liveness from the declared outputs; see the module docs.
fn dead_transfers_pass(plan: &mut LaunchPlan<'_>, _level: PlanOptLevel) -> PassResult {
    // Which copies a later step (or the frame's end) still reads. A carried
    // value is read off the host at frame end, exactly like an output.
    let mut needed = [vec![false; plan.arrays.len()], vec![false; plan.arrays.len()]];
    for &id in plan.outputs.iter().chain(plan.carries.iter().map(|c| &c.from)) {
        needed[Side::Host][id] = true;
    }
    let mut kept_rev = Vec::with_capacity(plan.steps.len());
    let mut dropped = [0usize; 2];
    for step in plan.steps.iter().rev() {
        match plan.effect(step)? {
            Effect::Alloc(_) => {}
            Effect::Transfer { to, arrays, batched } => {
                // A single transfer defines its target copy, so it is dead
                // when nothing needs that copy. Batched transfers only exist
                // after the coalescing pass, which runs last: they are kept.
                if !batched {
                    if !needed[to][arrays[0]] {
                        dropped[to] += 1;
                        continue;
                    }
                    needed[to][arrays[0]] = false;
                }
                arrays.iter().for_each(|&a| needed[to.other()][a] = true);
            }
            Effect::Compute { on, reads, writes, .. } => {
                // Writes free, then reads need: a launch reads every
                // argument, so a read-modify-write argument stays needed.
                writes.iter().for_each(|a| needed[on][a] = false);
                reads.iter().for_each(|&a| needed[on][a] = true);
            }
        }
        kept_rev.push(*step);
    }
    kept_rev.reverse();
    plan.steps = kept_rev;
    let (dropped_up, dropped_down) = (dropped[Side::Device], dropped[Side::Host]);
    if dropped_up + dropped_down == 0 {
        return Ok(None);
    }
    Ok(Some(format!("dropped {dropped_up} dead upload(s) and {dropped_down} dead download(s)")))
}

/// Whether a single transfer of array `a` toward side `to` must not move past
/// a neighbour with effect `next`: a transfer in the same direction (each
/// engine's order stays stable) or any step that names the array.
fn blocks(next: Effect<'_>, to: Side, a: usize) -> bool {
    match next {
        Effect::Alloc(b) => b == a,
        Effect::Transfer { to: dir, arrays, .. } => dir == to || arrays.contains(&a),
        Effect::Compute { reads, writes, .. } => {
            reads.contains(&a) || writes.iter().any(|w| w == a)
        }
    }
}

/// Bubble uploads left and downloads right past non-conflicting steps; see
/// the module docs.
fn reorder_pass(plan: &mut LaunchPlan<'_>, _level: PlanOptLevel) -> PassResult {
    let mut moves = 0usize;
    loop {
        let mut moved = false;
        // Uploads drift toward the frame start.
        for i in 1..plan.steps.len() {
            let PlanStep::Upload { array, .. } = plan.steps[i] else { continue };
            if blocks(plan.effect(&plan.steps[i - 1])?, Side::Device, array) {
                continue;
            }
            plan.steps.swap(i - 1, i);
            moves += 1;
            moved = true;
        }
        // Downloads drift toward the frame end.
        for i in (0..plan.steps.len().saturating_sub(1)).rev() {
            let PlanStep::Download { array, .. } = plan.steps[i] else { continue };
            if blocks(plan.effect(&plan.steps[i + 1])?, Side::Host, array) {
                continue;
            }
            plan.steps.swap(i, i + 1);
            moves += 1;
            moved = true;
        }
        if !moved {
            break;
        }
    }
    if moves == 0 {
        Ok(None)
    } else {
        Ok(Some(format!("moved transfers {moves} step(s) to lengthen the overlap window")))
    }
}

/// Merge chunked transfers into whole-buffer ones and batch adjacent
/// same-direction runs; see the module docs.
fn coalesce_pass(plan: &mut LaunchPlan<'_>, _level: PlanOptLevel) -> PassResult {
    let mut merged_chunks = 0usize;
    for step in &mut plan.steps {
        match step {
            PlanStep::Upload { chunks, .. } | PlanStep::Download { chunks, .. } if *chunks > 1 => {
                merged_chunks += *chunks - 1;
                *chunks = 1;
            }
            _ => {}
        }
    }

    let mut batched_runs = 0usize;
    let mut out = Vec::with_capacity(plan.steps.len());
    let mut i = 0;
    while i < plan.steps.len() {
        let run_upload = matches!(plan.steps[i], PlanStep::Upload { .. });
        let run_download = matches!(plan.steps[i], PlanStep::Download { .. });
        if !(run_upload || run_download) {
            out.push(plan.steps[i]);
            i += 1;
            continue;
        }
        let mut ids = Vec::new();
        let mut j = i;
        while j < plan.steps.len() {
            match plan.steps[j] {
                PlanStep::Upload { array, .. } if run_upload => ids.push(array),
                PlanStep::Download { array, .. } if run_download => ids.push(array),
                _ => break,
            }
            j += 1;
        }
        // A batch of one is just the transfer it replaces — leave it alone.
        if ids.len() >= 2 {
            plan.batches.push(ids);
            let batch = plan.batches.len() - 1;
            out.push(if run_upload {
                PlanStep::UploadBatch { batch }
            } else {
                PlanStep::DownloadBatch { batch }
            });
            batched_runs += 1;
        } else {
            out.push(plan.steps[i]);
        }
        i = j;
    }
    plan.steps = out;

    if merged_chunks + batched_runs == 0 {
        return Ok(None);
    }
    Ok(Some(format!(
        "merged {merged_chunks} chunk transfer(s) and batched {batched_runs} adjacent transfer run(s)"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::exec::LaunchConfig;
    use crate::kir::{BinOp, Kernel, KernelBuilder, KernelFlavor, Special};
    use crate::schedule::{ArrayDecl, BatchScheduler, ExecOptions, PlanKernel};
    use mdarray::NdArray;

    /// t = 2*src (writes t); o = t + t (writes o). Two kernels so the plan
    /// has a device-resident intermediate.
    fn dbl_kernel() -> Kernel {
        let mut b = KernelBuilder::new("dbl", KernelFlavor::Cuda);
        let src = b.buffer_param("src", false);
        let dst = b.buffer_param("dst", true);
        let gid = b.special(Special::GlobalIdX);
        let v = b.load(src, gid);
        let two = b.constant(2);
        let w = b.bin(BinOp::Mul, v, two);
        b.store(dst, gid, w);
        b.finish()
    }

    /// The paper-shaped naive placement: per kernel, upload the input,
    /// alloc + launch, download the output — the intermediate `t` makes a
    /// full host round trip between the two kernels.
    fn naive_plan(kernel: &Kernel, n: usize) -> LaunchPlan<'_> {
        let config = LaunchConfig::cover_1d(n, n.min(64) as u32);
        LaunchPlan {
            arrays: vec![
                ArrayDecl { name: "src".into(), shape: vec![n] },
                ArrayDecl { name: "t".into(), shape: vec![n] },
                ArrayDecl { name: "o".into(), shape: vec![n] },
            ],
            inputs: vec![0],
            outputs: vec![2],
            kernels: vec![
                PlanKernel::new(kernel, config, vec![0, 1]),
                PlanKernel::new(kernel, config, vec![1, 2]),
            ],
            host_ops: Vec::new(),
            steps: vec![
                PlanStep::Upload { array: 0, chunks: 1 },
                PlanStep::Alloc { array: 1 },
                PlanStep::Launch { kernel: 0 },
                PlanStep::Download { array: 1, chunks: 1 },
                PlanStep::Upload { array: 1, chunks: 1 },
                PlanStep::Alloc { array: 2 },
                PlanStep::Launch { kernel: 1 },
                PlanStep::Download { array: 2, chunks: 1 },
            ],
            prologue: Vec::new(),
            invariant: Vec::new(),
            batches: Vec::new(),
            carries: Vec::new(),
            lane_label: "stream lanes",
        }
    }

    /// Whether step `i` of `plan` is a transfer toward side `to`.
    fn transfers_to(plan: &LaunchPlan<'_>, i: usize, to: Side) -> bool {
        matches!(plan.effect(&plan.steps[i]), Ok(Effect::Transfer { to: t, .. }) if t == to)
    }

    fn run_plan(plan: &LaunchPlan<'_>, n: usize) -> (Vec<Vec<NdArray<i64>>>, crate::RunStats, f64) {
        let frames: Vec<Vec<NdArray<i64>>> =
            (0..3).map(|f| vec![NdArray::from_fn([n], |ix| (f * 50 + ix[0]) as i64)]).collect();
        let mut device = Device::gtx480();
        let (outs, stats) =
            BatchScheduler::new(plan).run(&mut device, &frames, &ExecOptions::default()).unwrap();
        (outs, stats, device.now_us())
    }

    #[test]
    fn off_is_a_strict_noop() {
        let kernel = dbl_kernel();
        let mut plan = naive_plan(&kernel, 16);
        let before = plan.steps.clone();
        let report = optimize(&mut plan, PlanOptLevel::OFF).unwrap();
        assert!(report.notes.is_empty());
        assert_eq!(plan.steps, before);
        assert!(plan.prologue.is_empty() && plan.batches.is_empty());
    }

    #[test]
    fn residency_drops_the_intermediate_reupload() {
        let kernel = dbl_kernel();
        let mut plan = naive_plan(&kernel, 16);
        let report = optimize(&mut plan, PlanOptLevel::RESIDENCY).unwrap();
        assert_eq!(report.notes.len(), 1, "{:?}", report.notes);
        assert!(report.notes[0].contains("dropped 1 redundant upload"), "{:?}", report.notes);
        // The re-upload of `t` is gone; its (now useless) download survives
        // until the dead-transfer pass runs.
        assert!(!plan.steps.iter().any(|s| matches!(*s, PlanStep::Upload { array: 1, .. })));
    }

    #[test]
    fn residency_plus_dead_recover_the_smart_placement() {
        let kernel = dbl_kernel();
        let mut plan = naive_plan(&kernel, 16);
        let level = PlanOptLevel { residency: true, dead_transfers: true, ..PlanOptLevel::OFF };
        optimize(&mut plan, level).unwrap();
        assert_eq!(
            plan.steps,
            vec![
                PlanStep::Upload { array: 0, chunks: 1 },
                PlanStep::Alloc { array: 1 },
                PlanStep::Launch { kernel: 0 },
                PlanStep::Alloc { array: 2 },
                PlanStep::Launch { kernel: 1 },
                PlanStep::Download { array: 2, chunks: 1 },
            ]
        );
    }

    #[test]
    fn every_pass_combination_preserves_outputs_and_moves_fewer_bytes() {
        let kernel = dbl_kernel();
        let n = 256;
        let (base_outs, base_stats, base_us) = run_plan(&naive_plan(&kernel, n), n);
        for bits in 1..64u32 {
            let level = PlanOptLevel {
                residency: bits & 1 != 0,
                dead_transfers: bits & 2 != 0,
                reorder: bits & 4 != 0,
                coalesce: bits & 8 != 0,
                // No launch here carries an access description, so fusion
                // must be a silent no-op in every combination.
                fusion: bits & 16 != 0,
                fusion_faithful: bits & 32 != 0,
            };
            let mut plan = naive_plan(&kernel, n);
            optimize(&mut plan, level).unwrap();
            let (outs, stats, us) = run_plan(&plan, n);
            assert_eq!(outs, base_outs, "{level:?}");
            assert!(
                stats.h2d_bytes <= base_stats.h2d_bytes && stats.d2h_bytes <= base_stats.d2h_bytes,
                "{level:?}"
            );
            assert!(us <= base_us + 1e-9, "{level:?}: {us} > {base_us}");
        }
        // All passes together strictly reduce both bytes and time here.
        let mut plan = naive_plan(&kernel, n);
        optimize(&mut plan, PlanOptLevel::ALL).unwrap();
        let (_, stats, us) = run_plan(&plan, n);
        assert!(stats.h2d_bytes < base_stats.h2d_bytes);
        assert!(stats.d2h_bytes < base_stats.d2h_bytes);
        assert!(us < base_us);
    }

    /// Two independent chains: src0 -> o0, src1 -> o1, interleaved so the
    /// second upload sits behind the first chain's kernel.
    fn two_chain_plan(kernel: &Kernel, n: usize) -> LaunchPlan<'_> {
        let config = LaunchConfig::cover_1d(n, n as u32);
        LaunchPlan {
            arrays: vec![
                ArrayDecl { name: "src0".into(), shape: vec![n] },
                ArrayDecl { name: "o0".into(), shape: vec![n] },
                ArrayDecl { name: "src1".into(), shape: vec![n] },
                ArrayDecl { name: "o1".into(), shape: vec![n] },
            ],
            inputs: vec![0, 2],
            outputs: vec![1, 3],
            kernels: vec![
                PlanKernel::new(kernel, config, vec![0, 1]),
                PlanKernel::new(kernel, config, vec![2, 3]),
            ],
            host_ops: Vec::new(),
            steps: vec![
                PlanStep::Upload { array: 0, chunks: 1 },
                PlanStep::Alloc { array: 1 },
                PlanStep::Launch { kernel: 0 },
                PlanStep::Download { array: 1, chunks: 1 },
                PlanStep::Upload { array: 2, chunks: 1 },
                PlanStep::Alloc { array: 3 },
                PlanStep::Launch { kernel: 1 },
                PlanStep::Download { array: 3, chunks: 1 },
            ],
            prologue: Vec::new(),
            invariant: Vec::new(),
            batches: Vec::new(),
            carries: Vec::new(),
            lane_label: "stream lanes",
        }
    }

    #[test]
    fn reorder_hoists_uploads_and_sinks_downloads() {
        let kernel = dbl_kernel();
        let n = 16;
        let mut plan = two_chain_plan(&kernel, n);
        optimize(&mut plan, PlanOptLevel::REORDER).unwrap();
        // Both uploads lead the frame; both downloads trail it.
        let to_dev = |i| transfers_to(&plan, i, Side::Device);
        assert!(to_dev(0) && to_dev(1), "{:?}", plan.steps);
        let len = plan.steps.len();
        let to_host = |i| transfers_to(&plan, i, Side::Host);
        assert!(to_host(len - 1) && to_host(len - 2), "{:?}", plan.steps);
        // Engine order stayed stable: src0 before src1, o0 before o1.
        assert!(matches!(plan.steps[0], PlanStep::Upload { array: 0, .. }));
        assert!(matches!(plan.steps[len - 2], PlanStep::Download { array: 1, .. }));
    }

    #[test]
    fn coalesce_merges_chunks_and_batches_adjacent_runs() {
        let kernel = dbl_kernel();
        let n = 16;
        let mut plan = two_chain_plan(&kernel, n);
        plan.steps[0] = PlanStep::Upload { array: 0, chunks: 4 };
        // Reorder first so the transfers cluster into adjacent runs.
        let level = PlanOptLevel { reorder: true, coalesce: true, ..PlanOptLevel::OFF };
        let report = optimize(&mut plan, level).unwrap();
        assert!(report.notes.iter().any(|m| m.contains("coalesce")), "{:?}", report.notes);
        assert!(!plan
            .steps
            .iter()
            .any(|s| matches!(*s, PlanStep::Upload { chunks, .. } if chunks > 1)));
        // The clustered runs became one batched transfer per direction.
        assert_eq!(plan.batches, vec![vec![0, 2], vec![1, 3]], "{:?}", plan.steps);
        assert!(matches!(plan.steps[0], PlanStep::UploadBatch { .. }), "{:?}", plan.steps);
        assert!(
            matches!(plan.steps.last(), Some(PlanStep::DownloadBatch { .. })),
            "{:?}",
            plan.steps
        );
    }

    #[test]
    fn invariant_uploads_hoist_to_the_prologue() {
        // c is declared frame-invariant: residency moves its upload into the
        // prologue, so a 3-frame run uploads it once instead of three times.
        let mut b = KernelBuilder::new("addc", KernelFlavor::Cuda);
        let c = b.buffer_param("c", false);
        let y = b.buffer_param("y", true);
        let gid = b.special(Special::GlobalIdX);
        let cv = b.load(c, gid);
        let yv = b.load(y, gid);
        let sum = b.bin(BinOp::Add, cv, yv);
        b.store(y, gid, sum);
        let kernel = b.finish();
        let n = 16;
        let config = LaunchConfig::cover_1d(n, n as u32);
        let mut plan = LaunchPlan {
            arrays: vec![
                ArrayDecl { name: "c".into(), shape: vec![n] },
                ArrayDecl { name: "a".into(), shape: vec![n] },
            ],
            inputs: vec![0, 1],
            outputs: vec![1],
            kernels: vec![PlanKernel::new(&kernel, config, vec![0, 1])],
            host_ops: Vec::new(),
            steps: vec![
                PlanStep::Upload { array: 0, chunks: 1 },
                PlanStep::Upload { array: 1, chunks: 1 },
                PlanStep::Launch { kernel: 0 },
                PlanStep::Download { array: 1, chunks: 1 },
            ],
            prologue: Vec::new(),
            invariant: vec![0],
            batches: Vec::new(),
            carries: Vec::new(),
            lane_label: "stream lanes",
        };
        let report = optimize(&mut plan, PlanOptLevel::RESIDENCY).unwrap();
        assert!(report.notes[0].contains("hoisted 1 invariant upload"), "{:?}", report.notes);
        assert_eq!(plan.prologue, vec![PlanStep::Upload { array: 0, chunks: 1 }]);

        let constants = NdArray::from_fn([n], |ix| (ix[0] * 3) as i64);
        let frames: Vec<Vec<NdArray<i64>>> = (0..3)
            .map(|f| vec![constants.clone(), NdArray::from_fn([n], |ix| (f + ix[0]) as i64)])
            .collect();
        let mut device = Device::gtx480();
        let (outs, stats) =
            BatchScheduler::new(&plan).run(&mut device, &frames, &ExecOptions::default()).unwrap();
        for (f, out) in outs.iter().enumerate() {
            assert_eq!(out[0], NdArray::from_fn([n], |ix| (f + ix[0] * 4) as i64));
        }
        // 1 prologue upload + 1 payload upload per frame, not 2 per frame.
        assert_eq!(stats.h2d, 4);
    }

    #[test]
    fn host_rewrites_block_residency_elision() {
        // Upload a, download it, rewrite it on the host, re-upload: the
        // second upload is NOT redundant (the host op invalidated the device
        // copy) and must survive every pass.
        let kernel = dbl_kernel();
        let n = 16;
        let config = LaunchConfig::cover_1d(n, n as u32);
        let host_op = crate::schedule::HostOp {
            name: "bump(host)".into(),
            target: 0,
            reads: vec![0],
            run: std::rc::Rc::new(|arrs| {
                let out = NdArray::from_fn([arrs[0].as_slice().len()], |ix| {
                    arrs[0].as_slice()[ix[0]] + 1
                });
                Ok((out, 10))
            }),
        };
        let mut plan = LaunchPlan {
            arrays: vec![
                ArrayDecl { name: "a".into(), shape: vec![n] },
                ArrayDecl { name: "o".into(), shape: vec![n] },
            ],
            inputs: vec![0],
            outputs: vec![1],
            kernels: vec![PlanKernel::new(&kernel, config, vec![0, 1])],
            host_ops: vec![host_op],
            steps: vec![
                PlanStep::Upload { array: 0, chunks: 1 },
                PlanStep::Host { op: 0 },
                PlanStep::Upload { array: 0, chunks: 1 },
                PlanStep::Alloc { array: 1 },
                PlanStep::Launch { kernel: 0 },
                PlanStep::Download { array: 1, chunks: 1 },
            ],
            prologue: Vec::new(),
            invariant: Vec::new(),
            batches: Vec::new(),
            carries: Vec::new(),
            lane_label: "stream lanes",
        };
        optimize(&mut plan, PlanOptLevel::ALL).unwrap();
        // The first upload is dead (its device copy is clobbered before any
        // launch reads it); the post-rewrite upload must remain.
        let uploads: Vec<_> =
            (0..plan.steps.len()).filter(|&i| transfers_to(&plan, i, Side::Device)).collect();
        assert_eq!(uploads.len(), 1, "{:?}", plan.steps);
        let host_pos = plan.steps.iter().position(|s| matches!(s, PlanStep::Host { .. })).unwrap();
        assert!(uploads[0] > host_pos, "{:?}", plan.steps);
    }
}

#[cfg(test)]
mod fusion_tests {
    use super::*;
    use crate::device::Device;
    use crate::schedule::{ArrayDecl, BatchScheduler, Carry, ExecOptions, PlanKernel};
    use crate::tiled::{generate_tiled_kernel, TiledKernel};
    use arrayol::access::{ElementaryOp, TiledAccess};
    use arrayol::{IMat, Tiler};
    use mdarray::NdArray;

    /// Rank-2 column stencil access: `[rows, cols] -> [rows, cols - k + 1]`.
    fn stencil(rows: usize, cols: usize, weights: Vec<i64>) -> TiledAccess {
        let k = weights.len();
        TiledAccess {
            repetition: vec![rows, cols - k + 1],
            in_pattern: vec![k],
            in_tiler: Tiler::new(vec![0, 0], IMat::from_rows(&[&[0], &[1]]), IMat::identity(2)),
            out_pattern: vec![1],
            out_tiler: Tiler::new(vec![0, 0], IMat::from_rows(&[&[0], &[0]]), IMat::identity(2)),
            op: ElementaryOp::WeightedSum { weights },
        }
    }

    fn gen(name: &str, acc: &TiledAccess, in_shape: &[usize], out_shape: &[usize]) -> TiledKernel {
        generate_tiled_kernel(name, acc, in_shape, out_shape, crate::kir::KernelFlavor::Cuda)
            .unwrap()
    }

    /// Naive two-stage stencil plan over accesses `a` then `b`, with the
    /// intermediate making a host round trip (the shape fusion must clean
    /// up). Kernels are generated from the accesses themselves.
    fn chain_plan<'a>(
        kernels: &'a [TiledKernel],
        accesses: &[TiledAccess],
        shapes: [Vec<usize>; 3],
    ) -> LaunchPlan<'a> {
        LaunchPlan {
            arrays: vec![
                ArrayDecl { name: "in".into(), shape: shapes[0].clone() },
                ArrayDecl { name: "mid".into(), shape: shapes[1].clone() },
                ArrayDecl { name: "out".into(), shape: shapes[2].clone() },
            ],
            inputs: vec![0],
            outputs: vec![2],
            kernels: vec![
                PlanKernel::new(&kernels[0].kernel, kernels[0].config, vec![1, 0])
                    .with_access(accesses[0].clone()),
                PlanKernel::new(&kernels[1].kernel, kernels[1].config, vec![2, 1])
                    .with_access(accesses[1].clone()),
            ],
            host_ops: Vec::new(),
            steps: vec![
                PlanStep::Upload { array: 0, chunks: 1 },
                PlanStep::Alloc { array: 1 },
                PlanStep::Launch { kernel: 0 },
                PlanStep::Download { array: 1, chunks: 1 },
                PlanStep::Upload { array: 1, chunks: 1 },
                PlanStep::Alloc { array: 2 },
                PlanStep::Launch { kernel: 1 },
                PlanStep::Download { array: 2, chunks: 1 },
            ],
            prologue: Vec::new(),
            invariant: Vec::new(),
            batches: Vec::new(),
            carries: Vec::new(),
            lane_label: "stream lanes",
        }
    }

    fn fixture() -> (Vec<TiledKernel>, Vec<TiledAccess>, [Vec<usize>; 3]) {
        let (rows, cols) = (4, 12);
        let a = stencil(rows, cols, vec![1, 2, 1]);
        let b = stencil(rows, cols - 2, vec![-1, 0, 1]);
        let shapes = [vec![rows, cols], vec![rows, cols - 2], vec![rows, cols - 4]];
        let kernels =
            vec![gen("blur", &a, &shapes[0], &shapes[1]), gen("grad", &b, &shapes[1], &shapes[2])];
        (kernels, vec![a, b], shapes)
    }

    fn run(
        plan: &LaunchPlan<'_>,
        rows: usize,
        cols: usize,
    ) -> (Vec<NdArray<i64>>, crate::RunStats) {
        let frames: Vec<Vec<NdArray<i64>>> = (0..2)
            .map(|f| {
                vec![NdArray::from_fn(vec![rows, cols], |ix| {
                    (f * 100 + ix[0] * cols + ix[1]) as i64 % 23
                })]
            })
            .collect();
        let mut device = Device::gtx480();
        let (outs, stats) =
            BatchScheduler::new(plan).run(&mut device, &frames, &ExecOptions::default()).unwrap();
        (outs.into_iter().map(|mut o| o.pop().unwrap()).collect(), stats)
    }

    #[test]
    fn fusion_collapses_the_chain_and_its_round_trip() {
        let (kernels, accesses, shapes) = fixture();
        let unfused = chain_plan(&kernels, &accesses, shapes.clone());
        let (base, base_stats) = run(&unfused, 4, 12);

        let mut plan = chain_plan(&kernels, &accesses, shapes);
        let report = optimize(&mut plan, PlanOptLevel::FUSION).unwrap();
        assert!(
            report.notes[0].contains("fused 1 launch pair(s) into [blur_grad]"),
            "{:?}",
            report.notes
        );
        assert!(!report.notes[0].contains("refused"), "{:?}", report.notes);
        // One launch left; every step touching the intermediate is gone.
        let launches = plan.steps.iter().filter(|s| matches!(s, PlanStep::Launch { .. })).count();
        assert_eq!(launches, 1, "{:?}", plan.steps);
        assert!(
            !plan.steps.iter().any(|s| matches!(
                *s,
                PlanStep::Upload { array: 1, .. }
                    | PlanStep::Alloc { array: 1 }
                    | PlanStep::Download { array: 1, .. }
            )),
            "{:?}",
            plan.steps
        );
        assert_eq!(plan.kernels.len(), 1);
        assert_eq!(plan.kernels[0].kernel.name, "blur_grad");
        assert_eq!(plan.kernels[0].args, vec![2, 0]);

        // Bit-identical outputs, fewer launches, fewer transferred bytes.
        let (outs, stats) = run(&plan, 4, 12);
        assert_eq!(outs, base);
        assert!(stats.launches < base_stats.launches);
        assert!(stats.h2d_bytes < base_stats.h2d_bytes);
        assert!(stats.d2h_bytes < base_stats.d2h_bytes);
    }

    #[test]
    fn fusion_composes_with_every_transfer_pass() {
        let (kernels, accesses, shapes) = fixture();
        let base = run(&chain_plan(&kernels, &accesses, shapes.clone()), 4, 12).0;
        let mut plan = chain_plan(&kernels, &accesses, shapes);
        optimize(&mut plan, PlanOptLevel::FULL).unwrap();
        assert_eq!(run(&plan, 4, 12).0, base);
    }

    /// The satellite regression: a `Carry` edge through the intermediate
    /// blocks fusion across the temporal boundary, with a refusal note.
    #[test]
    fn carry_edge_blocks_fusion_with_a_refusal_note() {
        let n = 8;
        let copyish = TiledAccess {
            repetition: vec![n],
            in_pattern: vec![1],
            in_tiler: Tiler::new(vec![0], IMat::zeros(1, 1), IMat::identity(1)),
            out_pattern: vec![1],
            out_tiler: Tiler::new(vec![0], IMat::zeros(1, 1), IMat::identity(1)),
            op: ElementaryOp::Copy,
        };
        let affine =
            TiledAccess { op: ElementaryOp::AffineMap { mul: 3, add: 1 }, ..copyish.clone() };
        let kernels = vec![gen("stage1", &copyish, &[n], &[n]), gen("stage2", &affine, &[n], &[n])];
        let accesses = vec![copyish, affine];
        let mut plan = chain_plan(&kernels, &accesses, [vec![n], vec![n], vec![n]]);
        // The intermediate's end-of-frame host value seeds the next frame's
        // input: fusing would erase the carried value.
        plan.carries = vec![Carry { from: 1, to: 0 }];
        plan.validate().unwrap();
        let report = optimize(&mut plan, PlanOptLevel::FUSION).unwrap();
        let launches = plan.steps.iter().filter(|s| matches!(s, PlanStep::Launch { .. })).count();
        assert_eq!(launches, 2, "fusion must refuse: {:?}", plan.steps);
        assert!(
            report.notes[0].contains("crosses the temporal carry boundary"),
            "{:?}",
            report.notes
        );
    }

    /// The producer's input must hold the same device value at the consumer:
    /// a transfer of it into the device, single or batched, or a compute
    /// write of it between the stages refuses; a download of it does not.
    #[test]
    fn redefining_the_producer_input_between_stages_refuses() {
        let (kernels, accesses, shapes) = fixture();
        let touch = crate::schedule::HostOp {
            name: "touch(host)".into(),
            target: 0,
            reads: vec![0],
            run: std::rc::Rc::new(|arrs| Ok((arrs[0].clone(), 1))),
        };
        for (between, refuses) in [
            (PlanStep::Upload { array: 0, chunks: 1 }, true),
            (PlanStep::UploadBatch { batch: 0 }, true),
            (PlanStep::Host { op: 0 }, true),
            (PlanStep::Download { array: 0, chunks: 1 }, false),
        ] {
            let mut plan = chain_plan(&kernels, &accesses, shapes.clone());
            plan.batches = vec![vec![0]];
            plan.host_ops = vec![touch.clone()];
            plan.steps.insert(3, between);
            plan.validate().unwrap();
            let report = optimize(&mut plan, PlanOptLevel::FUSION).unwrap();
            let launches =
                plan.steps.iter().filter(|s| matches!(s, PlanStep::Launch { .. })).count();
            assert_eq!(launches, if refuses { 2 } else { 1 }, "{between:?}: {:?}", report.notes);
            let refusal = "input 'in' is redefined between the stages";
            assert_eq!(
                report.notes[0].contains(refusal),
                refuses,
                "{between:?}: {:?}",
                report.notes
            );
        }
    }

    #[test]
    fn multi_consumer_intermediate_refuses() {
        let (mut kernels, mut accesses, shapes) = fixture();
        // A second consumer of the intermediate, writing a fourth array.
        kernels.push(gen("grad2", &accesses[1], &shapes[1], &shapes[2]));
        accesses.push(accesses[1].clone());
        let mut plan = chain_plan(&kernels, &accesses, shapes.clone());
        plan.arrays.push(ArrayDecl { name: "out2".into(), shape: shapes[2].clone() });
        plan.outputs.push(3);
        plan.kernels.push(
            PlanKernel::new(&kernels[2].kernel, kernels[2].config, vec![3, 1])
                .with_access(accesses[2].clone()),
        );
        plan.steps.extend([
            PlanStep::Alloc { array: 3 },
            PlanStep::Launch { kernel: 2 },
            PlanStep::Download { array: 3, chunks: 1 },
        ]);
        plan.validate().unwrap();
        let report = optimize(&mut plan, PlanOptLevel::FUSION).unwrap();
        assert_eq!(plan.kernels.len(), 3);
        assert!(report.notes[0].contains("feeds 2 consumers"), "{:?}", report.notes);
    }
}
