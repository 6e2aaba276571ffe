//! Timing replay audited against functional execution, for every registry
//! entry on both routes.
//!
//! The reproduction times most frames by replaying a measured schedule
//! witness instead of executing them. That is exact only if (a) per-frame
//! cost does not depend on frame content and (b) the witness holds every
//! ordering the functional run had. Both are checked here rather than
//! assumed:
//! * scheduler: a batch whose later frames are replayed has the same span
//!   timeline (name, class, stream, start, duration) and clock, bit for
//!   bit, as the batch executed in full, and so does the batch executed on
//!   differently seeded frame content;
//! * serving: in a trace mixing functional and replay-only jobs, every
//!   replayed job charges its functional twin's duration.

use gpu_abstractions::{scenarios, serve, simgpu};

use scenarios::{registry_small, BuiltWorkload, Route};
use serve::{Job, JobOutcome, ServeConfig, ShardPolicy};
use simgpu::device::Device;
use simgpu::profiler::OpClass;
use simgpu::schedule::{BatchScheduler, ExecOptions};
use simgpu::Fleet;

/// Frames per audited batch.
const FRAMES: usize = 4;

/// One span as compared bit for bit: name, class, stream, start, duration.
type SpanKey = (String, OpClass, usize, u64, u64);

/// The span timeline and final clock of one `FRAMES`-frame batch of `built`
/// on `route` over `streams` lanes, run on a fresh device with the first
/// `functional` frames executed and the rest timing-replayed.
fn timeline(
    built: &BuiltWorkload,
    route: Route,
    streams: usize,
    functional: usize,
) -> (Vec<SpanKey>, u64) {
    let plan = built.plan(route).unwrap();
    let opts = ExecOptions { streams, total_frames: FRAMES, ..Default::default() };
    let mut device = Device::gtx480();
    BatchScheduler::new(&plan).run(&mut device, &built.frames(route, functional), &opts).unwrap();
    let spans = device
        .profiler
        .spans()
        .map(|s| (s.name.clone(), s.class, s.stream, s.start_us.to_bits(), s.dur_us.to_bits()))
        .collect();
    (spans, device.now_us().to_bits())
}

#[test]
fn replayed_and_reseeded_batches_match_functional_timelines() {
    for w in registry_small() {
        let mut built = w.build().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for route in Route::BOTH {
            let carries = !built.plan(route).unwrap().carries.is_empty();
            for streams in [1, 2] {
                let at = format!("{} ({}) at {streams} streams", w.name, route.name());
                // A carry plan runs on one lane whatever `streams` asks for.
                let lanes = if carries { 1 } else { streams };
                built.spec.seed = w.seed;
                let executed = timeline(&built, route, streams, FRAMES);
                assert!(!executed.0.is_empty(), "{at}: no spans");
                // One functional frame per lane (each lane's first frame is
                // cold), the rest replayed from the warm witness.
                assert_eq!(timeline(&built, route, streams, lanes), executed, "{at}: replay");
                // Different frame content, same timeline.
                built.spec.seed = w.seed ^ 0xC0FFEE;
                assert_eq!(timeline(&built, route, streams, FRAMES), executed, "{at}: content");
            }
        }
    }
}

#[test]
fn replayed_jobs_charge_their_functional_twin() {
    for w in registry_small() {
        let built = w.build().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for route in Route::BOTH {
            let at = format!("{} ({})", w.name, route.name());
            let plan = built.plan(route).unwrap();
            let frames_per_job = 3;
            // Every third job is functional (one executed frame, the rest
            // replayed inside the job); the others replay the template the
            // first functional job captured.
            let jobs: Vec<Job> = (0..9)
                .map(|j| {
                    let submit_us = 10.0 * j as f64;
                    if j % 3 == 0 {
                        Job {
                            total_frames: frames_per_job,
                            ..Job::functional(j, 0, submit_us, built.frames_from(route, j, 1))
                        }
                    } else {
                        Job::replay(j, 0, submit_us, frames_per_job)
                    }
                })
                .collect();
            let cfg = ServeConfig {
                policy: ShardPolicy::RoundRobin,
                queue_capacity: jobs.len(),
                tenant_weights: vec![1],
                exec: ExecOptions { streams: 2, pool: true, ..Default::default() },
            };
            let mut fleet = Fleet::gtx480(2).unwrap();
            let report = serve::serve(&mut fleet, &plan, &jobs, &cfg).unwrap();
            assert_eq!(report.completed, jobs.len(), "{at}");
            let durs: Vec<f64> = report
                .outcomes
                .iter()
                .map(|o| match o {
                    JobOutcome::Completed { start_us, end_us, .. } => end_us - start_us,
                    JobOutcome::Shed { .. } => panic!("{at}: unexpected shed"),
                })
                .collect();
            let twin = durs[0];
            for (j, d) in durs.iter().enumerate() {
                assert!(
                    (d - twin).abs() <= 1e-9 * twin,
                    "{at}: job {j} charged {d} µs, twin {twin}"
                );
            }
        }
    }
}
