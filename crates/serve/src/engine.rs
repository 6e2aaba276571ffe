//! The discrete-event serving engine.
//!
//! One chronological event heap drives the run: job arrivals (from the
//! open-loop trace) and device completions. At an arrival the shard policy
//! pins the job to a device; the device either starts it immediately (if
//! idle), queues it (if the bounded queue has room), or sheds it at the
//! door. At a completion the device picks its next waiting job by weighted
//! tenant fairness. Jobs execute *at their start event* — functionally
//! through the shared `BatchScheduler`, or by replaying a captured
//! [`JobTemplate`] — so durations are measured exactly when the event loop
//! needs them and the whole run is deterministic: no wall clock, no
//! threads, no randomness.

use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::fmt;

use mdarray::NdArray;
use simgpu::{Fleet, LaunchPlan, RunStats, ScheduleError};

use crate::config::{ServeConfig, ShardPolicy};
use crate::report::{ServeReport, TenantStats};
use crate::template::JobTemplate;

/// Errors from the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// A configuration knob was rejected up front (zero queue capacity,
    /// zero tenant weight, unknown tenant id, malformed job, ...).
    Config(String),
    /// The execution layer failed underneath a job.
    Schedule(ScheduleError),
    /// A replay-only job arrived before any functional job of its shape
    /// had been measured (no [`JobTemplate`] for its frame count).
    Template(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(m) => write!(f, "serve config error: {m}"),
            ServeError::Schedule(e) => write!(f, "serve schedule error: {e}"),
            ServeError::Template(m) => write!(f, "serve template error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ScheduleError> for ServeError {
    fn from(e: ScheduleError) -> Self {
        ServeError::Schedule(e)
    }
}

/// One downscale job in an arrival trace.
#[derive(Debug, Clone)]
pub struct Job {
    /// Caller-chosen id, echoed in notes and outcomes.
    pub id: usize,
    /// Owning tenant; must index into [`ServeConfig::tenant_weights`].
    pub tenant: usize,
    /// Arrival time on the open-loop trace timeline, µs.
    pub submit_us: f64,
    /// Functional frame payloads. May be empty for a *replay-only* job,
    /// which charges exact time from a captured template instead of
    /// computing outputs.
    pub frames: Vec<Vec<NdArray<i64>>>,
    /// Frames the job charges in total (functional + timing-replayed);
    /// `0` means `frames.len()`. This is the job's shape key: replay-only
    /// jobs reuse the template captured for this frame count.
    pub total_frames: usize,
}

impl Job {
    /// A functional job carrying its frames.
    pub fn functional(
        id: usize,
        tenant: usize,
        submit_us: f64,
        frames: Vec<Vec<NdArray<i64>>>,
    ) -> Job {
        let total_frames = frames.len();
        Job { id, tenant, submit_us, frames, total_frames }
    }

    /// A replay-only job: charges the exact schedule of a captured
    /// `total_frames`-frame template, produces no outputs.
    pub fn replay(id: usize, tenant: usize, submit_us: f64, total_frames: usize) -> Job {
        Job { id, tenant, submit_us, frames: Vec::new(), total_frames }
    }

    fn charged_frames(&self) -> usize {
        if self.total_frames == 0 {
            self.frames.len()
        } else {
            self.total_frames
        }
    }
}

/// What happened to one job, indexed like the input trace.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// The job ran to completion on `device`.
    Completed {
        /// Device index that executed the job.
        device: usize,
        /// When the device began executing it (trace timeline, µs) —
        /// `start_us − submit_us` is the queueing delay.
        start_us: f64,
        /// Completion time (trace timeline, µs) — `end_us − submit_us` is
        /// the job latency.
        end_us: f64,
        /// Frame outputs, in frame order; empty for replay-only jobs.
        outputs: Vec<Vec<NdArray<i64>>>,
    },
    /// Admission control shed the job at arrival: its assigned `device`'s
    /// bounded queue was full. Shed jobs execute nothing — zero partial
    /// output, zero device time.
    Shed {
        /// Device whose full queue shed the job.
        device: usize,
        /// The arrival time at which it was shed, µs.
        at_us: f64,
    },
}

/// Heap event: completions sort before arrivals at equal times so a device
/// freed at time `t` can accept an arrival at `t`; `seq` makes the order
/// total and deterministic.
struct Event {
    at_us: f64,
    kind: EventKind,
    seq: usize,
}

#[derive(PartialEq, Eq)]
enum EventKind {
    Completion { device: usize },
    Arrival { job: usize },
}

impl Event {
    fn rank(&self) -> usize {
        match self.kind {
            EventKind::Completion { .. } => 0,
            EventKind::Arrival { .. } => 1,
        }
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest event pops first.
        self.at_us
            .total_cmp(&other.at_us)
            .then(self.rank().cmp(&other.rank()))
            .then(self.seq.cmp(&other.seq))
            .reverse()
    }
}

/// Per-device serving state (the fleet device itself lives in the `Fleet`).
struct DeviceState {
    /// Indices of jobs waiting on this device, in arrival order.
    waiting: VecDeque<usize>,
    /// Waiting + running job count, for the least-loaded policy.
    outstanding: usize,
    /// Whether a job is currently executing.
    busy: bool,
    /// Trace-timeline instant at which the device last became free.
    free_at_us: f64,
}

/// Serve `jobs` (an open-loop arrival trace) on `fleet`, executing every
/// admitted job against the shared `plan`. Convenience wrapper over
/// [`serve_with_templates`] with an empty template cache: templates are
/// captured on the fly from functional jobs, so a replay-only job must be
/// preceded (in trace order) by a functional job of the same frame count.
pub fn serve(
    fleet: &mut Fleet,
    plan: &LaunchPlan<'_>,
    jobs: &[Job],
    cfg: &ServeConfig,
) -> Result<ServeReport, ServeError> {
    let mut templates = BTreeMap::new();
    serve_with_templates(fleet, plan, jobs, cfg, &mut templates)
}

/// [`serve`], with an explicit template cache keyed by job frame count.
/// Pre-populating the cache (via [`JobTemplate::capture`] on a scratch
/// device) lets a trace be entirely replay-only; templates captured from
/// this run's functional jobs are added to the cache for reuse.
pub fn serve_with_templates(
    fleet: &mut Fleet,
    plan: &LaunchPlan<'_>,
    jobs: &[Job],
    cfg: &ServeConfig,
    templates: &mut BTreeMap<usize, JobTemplate>,
) -> Result<ServeReport, ServeError> {
    cfg.validate()?;
    for job in jobs {
        if job.tenant >= cfg.tenant_weights.len() {
            return Err(ServeError::Config(format!(
                "job {} names tenant {} but only {} tenant weights are configured",
                job.id,
                job.tenant,
                cfg.tenant_weights.len()
            )));
        }
        if job.charged_frames() == 0 {
            return Err(ServeError::Config(format!("job {} charges zero frames", job.id)));
        }
        if job.total_frames != 0 && job.total_frames < job.frames.len() {
            return Err(ServeError::Config(format!(
                "job {}: total_frames {} is less than its {} supplied frames",
                job.id,
                job.total_frames,
                job.frames.len()
            )));
        }
        if !job.submit_us.is_finite() || job.submit_us < 0.0 {
            return Err(ServeError::Config(format!(
                "job {} has a non-finite or negative submit time",
                job.id
            )));
        }
    }

    let n = fleet.len();
    let mut states: Vec<DeviceState> = (0..n)
        .map(|_| DeviceState {
            waiting: VecDeque::new(),
            outstanding: 0,
            busy: false,
            free_at_us: 0.0,
        })
        .collect();

    let mut heap = BinaryHeap::new();
    for (j, job) in jobs.iter().enumerate() {
        heap.push(Event { at_us: job.submit_us, kind: EventKind::Arrival { job: j }, seq: j });
    }
    let mut seq = jobs.len();

    let mut outcomes: Vec<Option<JobOutcome>> = (0..jobs.len()).map(|_| None).collect();
    let mut granted_frames: Vec<u64> = vec![0; cfg.tenant_weights.len()];
    let mut stats = RunStats::default();
    let mut arrivals_seen = 0usize;

    while let Some(ev) = heap.pop() {
        let now = ev.at_us;
        match ev.kind {
            EventKind::Arrival { job: j } => {
                let job = &jobs[j];
                let d = match cfg.policy {
                    ShardPolicy::RoundRobin => arrivals_seen % n,
                    ShardPolicy::StickyByTenant => job.tenant % n,
                    ShardPolicy::LeastLoaded => (0..n)
                        .min_by(|&a, &b| {
                            states[a]
                                .outstanding
                                .cmp(&states[b].outstanding)
                                .then(states[a].free_at_us.total_cmp(&states[b].free_at_us))
                                .then(a.cmp(&b))
                        })
                        .expect("fleet is never empty"),
                };
                arrivals_seen += 1;
                if !states[d].busy {
                    // Idle device: waiting queue is empty by invariant.
                    states[d].outstanding += 1;
                    let mut ev = start_job(
                        fleet,
                        plan,
                        jobs,
                        cfg,
                        templates,
                        &mut states,
                        &mut stats,
                        &mut granted_frames,
                        &mut outcomes,
                        j,
                        d,
                        now,
                    )?;
                    seq += 1;
                    ev.seq = seq;
                    heap.push(ev);
                } else if states[d].waiting.len() >= cfg.queue_capacity {
                    // Admission control: shed at the door, note it on the
                    // device that refused so the merged profiler tells the
                    // overload story.
                    fleet.device_mut(d).profiler.note(format!(
                        "shed: job {} (tenant {}) at device {d}, queue full at depth {}",
                        job.id, job.tenant, cfg.queue_capacity
                    ));
                    outcomes[j] = Some(JobOutcome::Shed { device: d, at_us: now });
                } else {
                    states[d].waiting.push_back(j);
                    states[d].outstanding += 1;
                }
            }
            EventKind::Completion { device: d } => {
                states[d].busy = false;
                states[d].outstanding -= 1;
                states[d].free_at_us = now;
                // Weighted fairness: among this device's waiting jobs, pick
                // the tenant with the smallest granted-frames/weight ratio
                // (ties: lower tenant id, then arrival order). Ratios only
                // grow with grants, so every waiting tenant's turn comes.
                let next = states[d]
                    .waiting
                    .iter()
                    .enumerate()
                    .min_by(|&(pa, &ja), &(pb, &jb)| {
                        let (ta, tb) = (jobs[ja].tenant, jobs[jb].tenant);
                        // a/wa < b/wb  <=>  a*wb < b*wa (all nonneg, w > 0).
                        let lhs = granted_frames[ta] as u128 * cfg.tenant_weights[tb] as u128;
                        let rhs = granted_frames[tb] as u128 * cfg.tenant_weights[ta] as u128;
                        lhs.cmp(&rhs).then(ta.cmp(&tb)).then(pa.cmp(&pb))
                    })
                    .map(|(pos, _)| pos);
                if let Some(pos) = next {
                    let j = states[d].waiting.remove(pos).expect("pos is in range");
                    let mut ev = start_job(
                        fleet,
                        plan,
                        jobs,
                        cfg,
                        templates,
                        &mut states,
                        &mut stats,
                        &mut granted_frames,
                        &mut outcomes,
                        j,
                        d,
                        now,
                    )?;
                    seq += 1;
                    ev.seq = seq;
                    heap.push(ev);
                }
            }
        }
    }

    let outcomes: Vec<JobOutcome> = outcomes
        .into_iter()
        .enumerate()
        .map(|(j, o)| {
            o.ok_or_else(|| {
                ServeError::Config(format!("job {j} was never dispatched or shed (engine bug)"))
            })
        })
        .collect::<Result<_, _>>()?;

    let mut tenants: Vec<TenantStats> = (0..cfg.tenant_weights.len())
        .map(|t| TenantStats { tenant: t, completed: 0, shed: 0, frames: 0 })
        .collect();
    let mut completed = 0usize;
    let mut shed = 0usize;
    let mut total_frames = 0usize;
    let mut makespan_us = 0.0f64;
    for (j, o) in outcomes.iter().enumerate() {
        let t = jobs[j].tenant;
        match o {
            JobOutcome::Completed { end_us, .. } => {
                completed += 1;
                tenants[t].completed += 1;
                tenants[t].frames += jobs[j].charged_frames();
                total_frames += jobs[j].charged_frames();
                makespan_us = makespan_us.max(*end_us);
            }
            JobOutcome::Shed { .. } => {
                shed += 1;
                tenants[t].shed += 1;
            }
        }
    }

    Ok(ServeReport { outcomes, stats, completed, shed, total_frames, makespan_us, tenants })
}

/// Start job `j` on idle, synchronized device `d` at trace time `start_us`:
/// execute it (functionally or by template replay), record its outcome, and
/// return the completion event for the heap (with `seq` left for the caller
/// to stamp).
#[allow(clippy::too_many_arguments)]
fn start_job(
    fleet: &mut Fleet,
    plan: &LaunchPlan<'_>,
    jobs: &[Job],
    cfg: &ServeConfig,
    templates: &mut BTreeMap<usize, JobTemplate>,
    states: &mut [DeviceState],
    stats: &mut RunStats,
    granted: &mut [u64],
    outcomes: &mut [Option<JobOutcome>],
    j: usize,
    d: usize,
    start_us: f64,
) -> Result<Event, ServeError> {
    let job = &jobs[j];
    granted[job.tenant] += job.charged_frames() as u64;
    let device = fleet.device_mut(d);
    let t0 = device.now_us();
    let (outputs, job_stats) = if job.frames.is_empty() {
        let tpl = templates.get(&job.total_frames).ok_or_else(|| {
            ServeError::Template(format!(
                "replay-only job {} needs a captured template for {} frames; \
                 run a functional job of that shape first or pre-capture one",
                job.id, job.total_frames
            ))
        })?;
        let st = tpl.replay(device)?;
        (Vec::new(), st)
    } else {
        let ((outs, st), template) =
            JobTemplate::run(plan, device, &cfg.exec, &job.frames, job.charged_frames())?;
        // The first functional job of a shape doubles as its template.
        templates.entry(job.charged_frames()).or_insert(template);
        (outs, st)
    };
    let dur = fleet.device(d).now_us() - t0;
    stats.accumulate(&job_stats);
    let end_us = start_us + dur;
    outcomes[j] = Some(JobOutcome::Completed { device: d, start_us, end_us, outputs });
    states[d].busy = true;
    Ok(Event { at_us: end_us, kind: EventKind::Completion { device: d }, seq: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgpu::kir::{BinOp, Kernel, KernelBuilder, KernelFlavor, Special};
    use simgpu::{
        ArrayDecl, BatchScheduler, Device, ExecOptions, Fleet, LaunchConfig, PlanKernel, PlanStep,
    };

    const N: usize = 32;

    /// x[i] = 3 * x[i].
    fn triple_kernel() -> (Kernel, LaunchConfig) {
        let mut b = KernelBuilder::new("triple", KernelFlavor::Cuda);
        let x = b.buffer_param("x", true);
        let gid = b.special(Special::GlobalIdX);
        let v = b.load(x, gid);
        let three = b.constant(3);
        let w = b.bin(BinOp::Mul, v, three);
        b.store(x, gid, w);
        (b.finish(), LaunchConfig::cover_1d(N, 32))
    }

    fn triple_plan(kernel: &Kernel, config: LaunchConfig) -> LaunchPlan<'_> {
        LaunchPlan {
            arrays: vec![ArrayDecl { name: "a".into(), shape: vec![N] }],
            inputs: vec![0],
            outputs: vec![0],
            kernels: vec![PlanKernel::new(kernel, config, vec![0])],
            host_ops: Vec::new(),
            steps: vec![
                PlanStep::Upload { array: 0, chunks: 1 },
                PlanStep::Launch { kernel: 0 },
                PlanStep::Download { array: 0, chunks: 1 },
            ],
            prologue: Vec::new(),
            invariant: Vec::new(),
            batches: Vec::new(),
            carries: Vec::new(),
            lane_label: "stream lanes",
        }
    }

    fn frame(tag: usize) -> Vec<NdArray<i64>> {
        vec![NdArray::from_fn([N], |ix| (tag * 1000 + ix[0]) as i64)]
    }

    fn expected(tag: usize) -> NdArray<i64> {
        NdArray::from_fn([N], |ix| 3 * (tag * 1000 + ix[0]) as i64)
    }

    fn burst(jobs: usize, frames_per_job: usize, gap_us: f64) -> Vec<Job> {
        (0..jobs)
            .map(|j| {
                Job::functional(
                    j,
                    0,
                    gap_us * j as f64,
                    (0..frames_per_job).map(|f| frame(j * 10 + f)).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn outputs_are_bit_identical_at_every_fleet_width() {
        let (kernel, config) = triple_kernel();
        let plan = triple_plan(&kernel, config);
        let jobs = burst(9, 2, 5.0);
        let mut cfg = ServeConfig::new(ShardPolicy::RoundRobin);
        cfg.queue_capacity = jobs.len();

        let mut baseline = None;
        for width in [1usize, 2, 3, 4, 8] {
            for policy in
                [ShardPolicy::RoundRobin, ShardPolicy::LeastLoaded, ShardPolicy::StickyByTenant]
            {
                let mut fleet = Fleet::gtx480(width).unwrap();
                let cfg = ServeConfig { policy, ..cfg.clone() };
                let report = serve(&mut fleet, &plan, &jobs, &cfg).unwrap();
                assert_eq!(report.completed, jobs.len());
                assert_eq!(report.shed, 0);
                let outs: Vec<Vec<Vec<NdArray<i64>>>> = report
                    .outcomes
                    .iter()
                    .map(|o| match o {
                        JobOutcome::Completed { outputs, .. } => outputs.clone(),
                        JobOutcome::Shed { .. } => panic!("unexpected shed"),
                    })
                    .collect();
                for (j, job_out) in outs.iter().enumerate() {
                    for (f, fo) in job_out.iter().enumerate() {
                        assert_eq!(fo[0], expected(j * 10 + f), "job {j} frame {f}");
                    }
                }
                match &baseline {
                    None => baseline = Some(outs),
                    Some(b) => assert_eq!(&outs, b, "width {width} policy {}", policy.name()),
                }
            }
        }
    }

    #[test]
    fn single_device_serve_matches_direct_scheduler_runs() {
        let (kernel, config) = triple_kernel();
        let plan = triple_plan(&kernel, config);
        // All jobs arrive at t=0: the device processes them back to back,
        // exactly like sequential direct BatchScheduler runs.
        let jobs = burst(4, 3, 0.0);
        let mut cfg = ServeConfig::new(ShardPolicy::LeastLoaded);
        cfg.queue_capacity = jobs.len();
        let mut fleet = Fleet::gtx480(1).unwrap();
        let report = serve(&mut fleet, &plan, &jobs, &cfg).unwrap();

        let mut direct = Device::gtx480();
        let mut direct_stats = RunStats::default();
        for job in &jobs {
            let (outs, st) =
                BatchScheduler::new(&plan).run(&mut direct, &job.frames, &cfg.exec).unwrap();
            direct_stats.accumulate(&st);
            let _ = outs;
        }
        assert_eq!(fleet.device(0).now_us(), direct.now_us());
        assert_eq!(report.stats, direct_stats);
        assert_eq!(report.makespan_us, direct.now_us());
    }

    #[test]
    fn replayed_jobs_charge_exactly_the_functional_schedule() {
        let (kernel, config) = triple_kernel();
        let plan = triple_plan(&kernel, config);
        // One functional job captures the 2-frame template; two replay jobs
        // then charge exactly the same duration each.
        let jobs = vec![
            Job::functional(0, 0, 0.0, vec![frame(1), frame(2)]),
            Job::replay(1, 0, 1.0, 2),
            Job::replay(2, 0, 2.0, 2),
        ];
        let mut cfg = ServeConfig::new(ShardPolicy::RoundRobin);
        cfg.queue_capacity = jobs.len();
        let mut fleet = Fleet::gtx480(1).unwrap();
        let report = serve(&mut fleet, &plan, &jobs, &cfg).unwrap();
        assert_eq!(report.completed, 3);
        let durs: Vec<f64> = report
            .outcomes
            .iter()
            .map(|o| match o {
                JobOutcome::Completed { start_us, end_us, .. } => end_us - start_us,
                JobOutcome::Shed { .. } => panic!("unexpected shed"),
            })
            .collect();
        // Replay reproduces the schedule op for op, but at a different
        // device-clock offset, so durations agree only up to f64
        // accumulation ulps ((T + a + b) − T is not exactly a + b). The
        // drift is itself deterministic — pure IEEE arithmetic, no libm —
        // so serving traces stay golden-able byte for byte.
        assert!((durs[0] - durs[1]).abs() <= durs[0] * 1e-12, "{durs:?}");
        assert!((durs[1] - durs[2]).abs() <= durs[0] * 1e-12, "{durs:?}");
        // Stats triple too: replay clones the template's counters.
        assert_eq!(report.stats.launches, 3 * 2);
    }

    #[test]
    fn functional_and_replay_jobs_share_one_stream_set() {
        let (kernel, config) = triple_kernel();
        let plan = triple_plan(&kernel, config);
        // 2-lane functional jobs interleaved with replays of their
        // template: lane k is stream k for both, so the device never grows
        // past its two lane streams.
        let jobs: Vec<Job> = (0..8)
            .map(|j| {
                if j % 2 == 0 {
                    Job::functional(j, 0, j as f64, vec![frame(j), frame(j + 1)])
                } else {
                    Job::replay(j, 0, j as f64, 2)
                }
            })
            .collect();
        let mut cfg = ServeConfig::new(ShardPolicy::RoundRobin);
        cfg.queue_capacity = jobs.len();
        cfg.exec.streams = 2;
        let mut fleet = Fleet::gtx480(1).unwrap();
        let report = serve(&mut fleet, &plan, &jobs, &cfg).unwrap();
        assert_eq!(report.completed, jobs.len());
        assert_eq!(fleet.device(0).stream_count(), 2);
    }

    #[test]
    fn thousands_of_replay_jobs_serve_cheaply() {
        let (kernel, config) = triple_kernel();
        let plan = triple_plan(&kernel, config);
        let mut templates = BTreeMap::new();
        let mut probe = Device::gtx480();
        let tpl = JobTemplate::capture(&plan, &mut probe, &ExecOptions::default(), &[frame(0)], 4)
            .unwrap();
        templates.insert(4, tpl);

        let jobs: Vec<Job> = (0..2000).map(|j| Job::replay(j, j % 3, 40.0 * j as f64, 4)).collect();
        let mut cfg = ServeConfig::new(ShardPolicy::LeastLoaded);
        cfg.tenant_weights = vec![1, 1, 1];
        cfg.queue_capacity = 64;
        let mut fleet = Fleet::gtx480(4).unwrap();
        let report = serve_with_templates(&mut fleet, &plan, &jobs, &cfg, &mut templates).unwrap();
        assert_eq!(report.completed + report.shed, 2000);
        assert!(report.completed > 0);
        assert_eq!(report.total_frames, report.completed * 4);
        // Every tenant got service.
        for t in &report.tenants {
            assert!(t.completed > 0, "tenant {} starved", t.tenant);
        }
    }

    #[test]
    fn replay_job_without_template_is_a_typed_error() {
        let (kernel, config) = triple_kernel();
        let plan = triple_plan(&kernel, config);
        let jobs = vec![Job::replay(0, 0, 0.0, 5)];
        let cfg = ServeConfig::new(ShardPolicy::RoundRobin);
        let mut fleet = Fleet::gtx480(2).unwrap();
        let err = serve(&mut fleet, &plan, &jobs, &cfg);
        assert!(matches!(&err, Err(ServeError::Template(m)) if m.contains("5 frames")), "{err:?}");
    }

    #[test]
    fn unknown_tenant_is_a_typed_error() {
        let (kernel, config) = triple_kernel();
        let plan = triple_plan(&kernel, config);
        let jobs = vec![Job::functional(0, 7, 0.0, vec![frame(0)])];
        let cfg = ServeConfig::new(ShardPolicy::RoundRobin);
        let mut fleet = Fleet::gtx480(1).unwrap();
        let err = serve(&mut fleet, &plan, &jobs, &cfg);
        assert!(matches!(&err, Err(ServeError::Config(m)) if m.contains("tenant 7")), "{err:?}");
    }

    #[test]
    fn full_queue_sheds_with_a_profiler_note_and_no_corruption() {
        let (kernel, config) = triple_kernel();
        let plan = triple_plan(&kernel, config);
        // 5 simultaneous jobs, 1 device, queue depth 1: one runs, one
        // waits, three shed.
        let jobs = burst(5, 1, 0.0);
        let mut cfg = ServeConfig::new(ShardPolicy::RoundRobin);
        cfg.queue_capacity = 1;
        let mut fleet = Fleet::gtx480(1).unwrap();
        let report = serve(&mut fleet, &plan, &jobs, &cfg).unwrap();
        assert_eq!(report.completed, 2);
        assert_eq!(report.shed, 3);
        let merged = fleet.merged_profiler();
        assert_eq!(merged.notes().filter(|n| n.starts_with("shed:")).count(), 3);
        // Completed jobs' outputs are intact; shed jobs did zero work.
        for o in &report.outcomes {
            if let JobOutcome::Completed { outputs, .. } = o {
                assert_eq!(outputs.len(), 1);
            }
        }
    }
}
