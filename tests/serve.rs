//! The fleet-serving layer, pinned down three ways: shard determinism
//! (any device count × any policy yields bit-identical outputs), a
//! differential check that 1-device serving is exactly the direct
//! `BatchScheduler` (outputs, clock, per-engine busy time), and a
//! saturation run showing weighted fairness keeps every tenant served
//! while admission control sheds the overflow cleanly.

use gpu_abstractions::{downscaler, serve, simgpu};

use downscaler::frames::FrameGenerator;
use downscaler::pipelines::{build_gaspard, fused_gaspard_plan, reference_downscale};
use downscaler::Scenario;
use proptest::prelude::*;
use serve::{Job, JobOutcome, ServeConfig, ServeError, ShardPolicy};
use simgpu::device::Device;
use simgpu::profiler::OpClass;
use simgpu::schedule::{BatchScheduler, ExecOptions};
use simgpu::Fleet;

const CLASSES: [OpClass; 4] = [OpClass::H2D, OpClass::Kernel, OpClass::D2H, OpClass::Host];
const POLICIES: [ShardPolicy; 3] =
    [ShardPolicy::RoundRobin, ShardPolicy::LeastLoaded, ShardPolicy::StickyByTenant];

/// The tiny scenario's fused Gaspard route, its launch plan, and a batch of
/// functional single-frame jobs with known golden-model outputs.
struct Fixture {
    s: Scenario,
    route: downscaler::pipelines::GaspardRoute,
}

impl Fixture {
    fn new() -> Fixture {
        let s = Scenario::tiny();
        let route = build_gaspard(&s).unwrap();
        Fixture { s, route }
    }

    fn plan(&self) -> simgpu::LaunchPlan<'_> {
        fused_gaspard_plan(&self.route).unwrap()
    }

    /// `count` single-frame functional jobs over `tenants` tenants,
    /// arriving `gap_us` apart.
    fn jobs(&self, count: usize, tenants: usize, gap_us: f64) -> Vec<Job> {
        let gen = FrameGenerator::new(self.s.channels, self.s.rows, self.s.cols, 0xD05C);
        (0..count)
            .map(|j| {
                Job::functional(j, j % tenants, gap_us * j as f64, vec![gen.frame_channels(j)])
            })
            .collect()
    }

    /// Golden-model planes for job `j` of [`Fixture::jobs`].
    fn expected(&self, j: usize) -> Vec<mdarray::NdArray<i64>> {
        let gen = FrameGenerator::new(self.s.channels, self.s.rows, self.s.cols, 0xD05C);
        FrameGenerator::unstack(&reference_downscale(&self.s, &gen.frame_rank3(j)))
    }
}

fn cfg(policy: ShardPolicy, tenants: usize) -> ServeConfig {
    ServeConfig {
        policy,
        queue_capacity: 64,
        tenant_weights: vec![1; tenants],
        exec: ExecOptions { streams: 2, pool: true, ..Default::default() },
    }
}

fn completed_outputs(outcomes: &[JobOutcome]) -> Vec<(usize, &Vec<Vec<mdarray::NdArray<i64>>>)> {
    outcomes
        .iter()
        .enumerate()
        .filter_map(|(j, o)| match o {
            JobOutcome::Completed { outputs, .. } => Some((j, outputs)),
            JobOutcome::Shed { .. } => None,
        })
        .collect()
}

/// 1-device serving of a back-to-back burst is *exactly* K sequential
/// direct `BatchScheduler` runs: same outputs, same simulated clock, same
/// per-engine busy time, same run counters.
#[test]
fn one_device_serve_is_the_scheduler_differentially() {
    let fx = Fixture::new();
    let plan = fx.plan();
    let jobs = fx.jobs(5, 2, 0.0);
    let cfg = cfg(ShardPolicy::RoundRobin, 2);

    let mut fleet = Fleet::gtx480(1).unwrap();
    let report = serve::serve(&mut fleet, &plan, &jobs, &cfg).unwrap();
    assert_eq!(report.completed, 5);

    let mut direct = Device::gtx480();
    let mut direct_stats = simgpu::RunStats::default();
    let mut direct_outs = Vec::new();
    for job in &jobs {
        let (outs, st) =
            BatchScheduler::new(&plan).run(&mut direct, &job.frames, &cfg.exec).unwrap();
        direct_stats.accumulate(&st);
        direct_outs.push(outs);
    }

    let served = fleet.device(0);
    assert_eq!(served.now_us(), direct.now_us(), "simulated clocks differ");
    for class in CLASSES {
        assert_eq!(
            served.profiler.engine_busy_us(class),
            direct.profiler.engine_busy_us(class),
            "{class:?} engine busy time differs"
        );
    }
    assert_eq!(report.stats, direct_stats);
    for (j, outputs) in completed_outputs(&report.outcomes) {
        assert_eq!(outputs, &direct_outs[j], "job {j} outputs differ");
    }
    assert_eq!(report.makespan_us, direct.now_us());
}

/// Saturation with weighted fairness and shedding active: a 25-job burst
/// hits a 1-device fleet with queue depth 8. One job runs, eight queue,
/// sixteen are shed at the door; the dequeue order then belongs entirely
/// to the 3:1 weighted-fairness rule. No admitted tenant starves, the
/// weighted tenant's jobs finish earlier on average, and every completed
/// job's outputs still match the golden model bit for bit.
#[test]
fn saturation_sheds_without_starving_any_tenant() {
    let fx = Fixture::new();
    let plan = fx.plan();
    // 1µs arrival gaps: the whole burst lands before the first job ends.
    let jobs = fx.jobs(25, 2, 1.0);
    let mut cfg = cfg(ShardPolicy::RoundRobin, 2);
    cfg.queue_capacity = 8;
    cfg.tenant_weights = vec![3, 1];
    let mut fleet = Fleet::gtx480(1).unwrap();
    let report = serve::serve(&mut fleet, &plan, &jobs, &cfg).unwrap();

    assert_eq!(report.completed, 9, "1 running + 8 queued");
    assert_eq!(report.shed, 16);
    // The fairness rule's ratios only grow with grants, so every admitted
    // job is eventually picked: no tenant starves.
    for t in &report.tenants {
        assert!(t.completed > 0, "tenant {} starved: {report:?}", t.tenant);
    }
    // Among the queued jobs (1..=8; job 0 started unqueued), the weight-3
    // tenant's jobs complete earlier on average than the weight-1 tenant's.
    let mut mean_end = [0.0f64; 2];
    let mut count = [0usize; 2];
    for (j, o) in report.outcomes.iter().enumerate().take(9).skip(1) {
        if let JobOutcome::Completed { end_us, .. } = o {
            mean_end[jobs[j].tenant] += *end_us;
            count[jobs[j].tenant] += 1;
        }
    }
    let mean = |t: usize| mean_end[t] / count[t] as f64;
    assert!(count[0] == 4 && count[1] == 4, "queued jobs split 4/4: {count:?}");
    assert!(
        mean(0) < mean(1),
        "weight-3 tenant should finish earlier on average: {} vs {}",
        mean(0),
        mean(1)
    );
    // Shed notes landed in the merged roll-up; completed outputs are intact.
    let merged = fleet.merged_profiler();
    assert_eq!(merged.notes().filter(|n| n.starts_with("shed:")).count(), report.shed);
    for (j, outputs) in completed_outputs(&report.outcomes) {
        assert_eq!(outputs.len(), 1);
        assert_eq!(outputs[0], fx.expected(j), "job {j} corrupted");
    }
}

/// The new knobs are validated with typed errors, not panics: zero devices
/// (at fleet construction), zero queue capacity, zero tenant weight.
#[test]
fn degenerate_serving_configs_are_typed_errors() {
    let fx = Fixture::new();
    let plan = fx.plan();
    let jobs = fx.jobs(2, 2, 0.0);

    let err = Fleet::gtx480(0);
    assert!(
        matches!(&err, Err(simgpu::ScheduleError::Config(m)) if m.contains("devices")),
        "{err:?}"
    );

    let mut zero_queue = cfg(ShardPolicy::RoundRobin, 2);
    zero_queue.queue_capacity = 0;
    let mut fleet = Fleet::gtx480(1).unwrap();
    let err = serve::serve(&mut fleet, &plan, &jobs, &zero_queue);
    assert!(matches!(&err, Err(ServeError::Config(m)) if m.contains("queue_capacity")), "{err:?}");

    let mut zero_weight = cfg(ShardPolicy::LeastLoaded, 2);
    zero_weight.tenant_weights = vec![1, 0];
    let err = serve::serve(&mut fleet, &plan, &jobs, &zero_weight);
    assert!(matches!(&err, Err(ServeError::Config(m)) if m.contains("weight 0")), "{err:?}");
}

/// Every registry workload's default mix serves end to end: functional
/// two-frame jobs on a 1-device fleet complete with outputs bit-identical
/// to the entry's CPU reference. The temporal carry entry also serves on
/// a *2-device* fleet — each job is its own batch, so sharding jobs never
/// splits a carry chain.
#[test]
fn registry_mixes_serve_with_reference_outputs() {
    use gpu_abstractions::scenarios::{registry_small, Route};

    for w in registry_small() {
        let built = w.build().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let plan = built.plan(Route::Gaspard).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let tenants = w.mix.tenants;
        let jobs: Vec<Job> = (0..4)
            .map(|j| {
                Job::functional(
                    j,
                    j % tenants,
                    w.mix.mean_gap_us * j as f64,
                    built.frames(Route::Gaspard, 2),
                )
            })
            .collect();
        let cfg = cfg(ShardPolicy::RoundRobin, tenants);

        let widths: &[usize] = if w.temporal() { &[1, 2] } else { &[1] };
        for &devices in widths {
            let mut fleet = Fleet::gtx480(devices).unwrap();
            let report = serve::serve(&mut fleet, &plan, &jobs, &cfg).unwrap();
            assert_eq!(report.completed, jobs.len(), "{} at {devices} devices", w.name);
            for (j, outputs) in completed_outputs(&report.outcomes) {
                assert_eq!(outputs.len(), 2, "{} job {j}", w.name);
                for (f, frame_outs) in outputs.iter().enumerate() {
                    assert_eq!(
                        built.canon(frame_outs.clone()),
                        built.reference(f),
                        "{} job {j} frame {f} at {devices} devices",
                        w.name
                    );
                }
            }
        }
    }
}

proptest! {
    /// Any fleet width x any sharding policy x any arrival spacing serves
    /// bit-identical job outputs: sharding and queueing decide *when and
    /// where* a frame is computed, never *what* it computes.
    #[test]
    fn any_width_and_policy_serve_bit_identical_outputs(
        devices in 1usize..=5,
        policy_ix in 0usize..3,
        jobs_n in 2usize..=8,
        gap_ix in 0usize..3,
    ) {
        let fx = Fixture::new();
        let plan = fx.plan();
        let gap_us = [0.0, 40.0, 4000.0][gap_ix];
        let jobs = fx.jobs(jobs_n, 2, gap_us);
        let cfg = cfg(POLICIES[policy_ix], 2);

        let mut fleet = Fleet::gtx480(devices).unwrap();
        let report = serve::serve(&mut fleet, &plan, &jobs, &cfg).unwrap();
        prop_assert_eq!(report.completed, jobs_n, "queue depth 64 must not shed");
        for (j, outputs) in completed_outputs(&report.outcomes) {
            prop_assert_eq!(outputs.len(), 1, "job {} frame count", j);
            prop_assert_eq!(&outputs[0], &fx.expected(j), "job {} diverged", j);
        }
    }
}
