//! The `serve` workload: open-loop serving on the simulated clock. Each
//! round serves four replay-only traces of 5-frame HD1080 downscale jobs
//! (fused GASPARD2 plan) at 0.5, 0.7, 0.9 and 1.1 × nominal capacity on a
//! 4-device fleet under `LeastLoaded` with bounded queues, plus a 4-frame
//! `delta` trace per route at 0.9 with a few functional jobs. An op is one
//! job. Arrivals are precomputed, so the generator is never late.

use std::collections::BTreeMap;
use std::time::Instant;

use bench::arrivals::arrival_trace;
use bench::calibration::HOST_NS_PER_OP;
use downscaler::{FrameGenerator, Scenario};
use mdarray::NdArray;
use scenarios::{BuiltWorkload, Kind, Route};
use serve::{Job, JobOutcome, JobTemplate, ServeConfig, ServeReport, ShardPolicy};
use simgpu::schedule::{ExecOptions, LaunchPlan};
use simgpu::Fleet;

use crate::compile::{self, Item};
use crate::harness::{self, metric, Args, Metric, Report, SetupClock, Step};
use crate::trace::{self, span};

const DEVICES: usize = 4;
const LOADS: [f64; 4] = [0.5, 0.7, 0.9, 1.1];
const HD_FRAMES_PER_JOB: usize = 5;
const HD_JOBS: usize = 2000;
const DELTA_FRAMES: usize = 4;
const DELTA_JOBS: usize = 500;
const DELTA_FUNCTIONAL_EVERY: usize = 125;
const QUEUE: usize = 8;
const TENANTS: usize = 4;

fn exec() -> ExecOptions {
    ExecOptions {
        streams: 2,
        executed: 1,
        pool: true,
        host_ns_per_op: HOST_NS_PER_OP,
        ..Default::default()
    }
}

fn fleet(devices: usize) -> Result<Fleet, String> {
    let mut f = Fleet::gtx480(devices).map_err(|e| e.to_string())?;
    for d in f.devices_mut() {
        d.set_host_workers(harness::host_workers());
    }
    Ok(f)
}

fn config(tenants: usize) -> ServeConfig {
    ServeConfig {
        policy: ShardPolicy::LeastLoaded,
        queue_capacity: QUEUE,
        tenant_weights: vec![1; tenants],
        exec: exec(),
    }
}

/// One arrival trace over one plan, with the expected outputs of its
/// functional jobs.
struct Trace {
    label: String,
    plan: usize,
    load: f64,
    jobs: Vec<Job>,
    cfg: ServeConfig,
    expected: BTreeMap<usize, Vec<Vec<NdArray<i64>>>>,
}

/// Serve one functional job on a one-device fleet so the engine captures the
/// job shape's template; checks the job's outputs.
fn capture(
    plan: &LaunchPlan<'_>,
    job: Job,
    expected: &[Vec<NdArray<i64>>],
) -> Result<JobTemplate, String> {
    let frames = job.total_frames;
    let mut templates = BTreeMap::new();
    let report = span("serve.capture", || {
        serve::serve_with_templates(&mut fleet(1)?, plan, &[job], &config(TENANTS), &mut templates)
            .map_err(|e| e.to_string())
    })?;
    match &report.outcomes[0] {
        JobOutcome::Completed { outputs, .. } if outputs == expected => {}
        _ => return Err("template capture job differs from the CPU reference".into()),
    }
    templates.remove(&frames).ok_or_else(|| "no template captured".into())
}

fn trace_jobs(
    seed: u64,
    jobs: usize,
    gap_us: f64,
    tenants: usize,
    mut make: impl FnMut(usize, usize, f64) -> Job,
) -> Vec<Job> {
    arrival_trace(seed, jobs, gap_us, tenants)
        .iter()
        .enumerate()
        .map(|(j, a)| make(j, a.tenant, a.submit_us))
        .collect()
}

/// Simulated results of one served trace.
struct Served {
    report: ServeReport,
    submits: Vec<f64>,
    replayed: usize,
    mismatched: usize,
    spans: usize,
    outputs_ok: bool,
}

impl Served {
    fn p_ms(&self, p: f64) -> f64 {
        self.report.latency_percentile_us(&self.submits, p) / 1e3
    }

    /// Bit pattern of every simulated figure, for the round-to-round check.
    fn signature(&self) -> Vec<u64> {
        let mut sig = vec![self.report.completed as u64, self.report.shed as u64];
        sig.extend(self.report.outcomes.iter().map(|o| match o {
            JobOutcome::Completed { end_us, .. } => end_us.to_bits(),
            JobOutcome::Shed { at_us, .. } => at_us.to_bits(),
        }));
        sig
    }

    fn queue_wait_ms_p50(&self) -> f64 {
        let waits: Vec<f64> = self
            .report
            .outcomes
            .iter()
            .zip(&self.submits)
            .filter_map(|(o, s)| match o {
                JobOutcome::Completed { start_us, .. } => Some((start_us - s) / 1e3),
                JobOutcome::Shed { .. } => None,
            })
            .collect();
        harness::percentile(&waits, 50.0)
    }
}

fn serve_trace(t: &Trace, plan: &LaunchPlan<'_>, template: &JobTemplate) -> Result<Served, String> {
    let mut fleet = fleet(DEVICES)?;
    let mut templates = BTreeMap::from([(template.total_frames, template.clone())]);
    let report = span("serve.serve", || {
        serve::serve_with_templates(&mut fleet, plan, &t.jobs, &t.cfg, &mut templates)
    })
    .map_err(|e| format!("{}: {e}", t.label))?;
    let (mut replayed, mut mismatched, mut outputs_ok) = (0, 0, true);
    for (j, (job, o)) in t.jobs.iter().zip(&report.outcomes).enumerate() {
        match o {
            JobOutcome::Completed { start_us, end_us, outputs, .. } => {
                if let Some(want) = t.expected.get(&j) {
                    outputs_ok &= outputs == want;
                } else if job.frames.is_empty() {
                    replayed += 1;
                    let dur = end_us - start_us;
                    if (dur - template.dur_us).abs() > 1e-9 * template.dur_us {
                        mismatched += 1;
                    }
                }
            }
            JobOutcome::Shed { .. } => outputs_ok &= !t.expected.contains_key(&j),
        }
    }
    let spans = fleet.devices().iter().map(|d| d.profiler.spans().count()).sum();
    let submits = t.jobs.iter().map(|j| j.submit_us).collect();
    Ok(Served { report, submits, replayed, mismatched, spans, outputs_ok })
}

/// Everything a round needs: plans, templates and traces.
struct Setup {
    hd_front: compile::Front,
    delta: BuiltWorkload,
    hd_frame: Vec<NdArray<i64>>,
    hd_expected: Vec<NdArray<i64>>,
}

fn hd_item() -> Item {
    Item::new(Kind::Downscale, "hd1080", 1080, 1920, Route::Gaspard)
}

fn setup(seed: u64) -> Result<Setup, String> {
    let hd_front = compile::front_end(&hd_item())?;
    let delta_item = Item::new(Kind::Delta, "small", 32, 48, Route::Sac);
    let delta = span("scenarios.build", || delta_item.workload(DELTA_FRAMES, seed).build())
        .map_err(|e| e.to_string())?;
    let s = Scenario::hd1080();
    let gen = FrameGenerator::new(s.channels, s.rows, s.cols, seed);
    let index = seed as usize % s.frames;
    let rank3 = span("scenarios.frames", || gen.frame_rank3(index));
    let reference =
        span("scenarios.reference", || downscaler::pipelines::reference_downscale(&s, &rank3));
    Ok(Setup {
        hd_front,
        delta,
        hd_frame: FrameGenerator::unstack(&rank3),
        hd_expected: FrameGenerator::unstack(&reference),
    })
}

/// Plans (HD first, then delta per route), one template per plan, and the
/// traces.
type Prepared<'s> = (Vec<LaunchPlan<'s>>, Vec<JobTemplate>, Vec<Trace>);

fn prepare(st: &Setup, seed: u64) -> Result<Prepared<'_>, String> {
    let (hd_plan, _) = compile::compile(&hd_item(), &st.hd_front)?;
    let mut plans = vec![hd_plan];
    for route in Route::BOTH {
        plans.push(st.delta.plan(route).map_err(|e| e.to_string())?);
    }
    let hd_job = Job {
        id: 0,
        tenant: 0,
        submit_us: 0.0,
        frames: vec![st.hd_frame.clone()],
        total_frames: HD_FRAMES_PER_JOB,
    };
    let mut templates = vec![capture(&plans[0], hd_job, std::slice::from_ref(&st.hd_expected))?];
    let delta_expected: Vec<NdArray<i64>> =
        (0..DELTA_FRAMES).map(|f| span("scenarios.reference", || st.delta.reference(f))).collect();
    let delta_frames = |route| st.delta.frames(route, DELTA_FRAMES);
    for (k, route) in Route::BOTH.into_iter().enumerate() {
        let job = Job::functional(0, 0, 0.0, delta_frames(route));
        let want: Vec<Vec<NdArray<i64>>> = delta_expected.iter().map(|r| vec![r.clone()]).collect();
        templates.push(capture(&plans[1 + k], job, &want)?);
    }

    let mut traces = Vec::new();
    for (k, &load) in LOADS.iter().enumerate() {
        let gap = templates[0].dur_us / (DEVICES as f64 * load);
        let jobs = trace_jobs(seed ^ (k as u64 + 1), HD_JOBS, gap, TENANTS, |j, t, at| {
            Job::replay(j, t, at, HD_FRAMES_PER_JOB)
        });
        traces.push(Trace {
            label: format!("hd1080 gaspard @{load}"),
            plan: 0,
            load,
            jobs,
            cfg: config(TENANTS),
            expected: BTreeMap::new(),
        });
    }
    for (k, route) in Route::BOTH.into_iter().enumerate() {
        let gap = templates[1 + k].dur_us / (DEVICES as f64 * 0.9);
        let mut expected = BTreeMap::new();
        let jobs = trace_jobs(seed ^ (0x10 + k as u64), DELTA_JOBS, gap, 2, |j, t, at| {
            if j % DELTA_FUNCTIONAL_EVERY == 0 {
                expected.insert(j, delta_expected.iter().map(|r| vec![r.clone()]).collect());
                Job::functional(j, t, at, delta_frames(route))
            } else {
                Job::replay(j, t, at, DELTA_FRAMES)
            }
        });
        traces.push(Trace {
            label: format!("delta {} @0.9", route.name()),
            plan: 1 + k,
            load: 0.9,
            jobs,
            cfg: config(2),
            expected,
        });
    }
    Ok((plans, templates, traces))
}

pub fn run(args: &Args, start: Instant) -> Result<Report, String> {
    let mut clock = SetupClock::new(start);
    // Each lap is a whole set-up. The plans borrow the lap's state, so the
    // kept lap serves from inside the loop.
    loop {
        let st = setup(args.seed)?;
        let prepared = prepare(&st, args.seed)?;
        if clock.lap() {
            return rounds(args, clock, &prepared);
        }
    }
}

/// The timed serving rounds, the checks and the figures, over the kept
/// set-up.
fn rounds(
    args: &Args,
    clock: SetupClock,
    (plans, templates, traces): &Prepared<'_>,
) -> Result<Report, String> {
    println!("open-loop arrivals are precomputed: generator lateness is 0 by construction");
    let mut report = Report { setup: clock, ..Default::default() };
    let mut first: Option<(Vec<Served>, Vec<Vec<u64>>)> = None;
    let mut notes = Vec::new();
    // Serving runs on one thread.
    let (untraced, traced) = harness::run_loop(args, 1, &mut report.problems, |round| {
        let t0 = Instant::now();
        let served = span("perfbench.op", || {
            traces
                .iter()
                .map(|t| serve_trace(t, &plans[t.plan], &templates[t.plan]))
                .collect::<Result<Vec<_>, _>>()
        })?;
        let jobs: usize = traces.iter().map(|t| t.jobs.len()).sum();
        let ms_per_job = t0.elapsed().as_secs_f64() * 1e3 / jobs as f64;
        let mut failed = 0;
        for (t, s) in traces.iter().zip(&served) {
            if !s.outputs_ok {
                failed += t.expected.len();
                notes.push(format!("round {round}: {} functional outputs differ", t.label));
            }
        }
        let sig: Vec<Vec<u64>> = served.iter().map(Served::signature).collect();
        let (_, expected) = first.get_or_insert_with(|| (served, sig.clone()));
        if *expected != sig {
            failed += 1;
            notes.push(format!("round {round}: simulated results differ from the first round's"));
        }
        Ok(Step { ops: jobs, samples: vec![ms_per_job], failed })
    });
    report.problems.extend(notes);
    let (served, _) = first.ok_or("no serving round completed")?;
    println!("simulated figures priced by cost model: paper-gtx480");
    report.extra = sim_metrics(traces, &served, templates);
    if args.trace {
        let mut layer = vec![
            metric("serve.us_per_job", harness::median(&untraced.samples) * 1e3, "us"),
            metric(
                "serve.spans_per_job",
                served.iter().map(|s| s.spans).sum::<usize>() as f64
                    / served.iter().map(|s| s.report.completed).sum::<usize>() as f64,
                "count",
            ),
        ];
        let mid = traces.iter().position(|t| t.plan == 0 && t.load == 0.9);
        let mid = &served[mid.expect("0.9 is on the ladder")];
        layer.push(metric("serve.sim_queue_wait_ms_p50", mid.queue_wait_ms_p50(), "ms"));
        let hd: Vec<&Served> =
            traces.iter().zip(&served).filter(|(t, _)| t.plan == 0).map(|(_, s)| s).collect();
        let shed: usize = hd.iter().map(|s| s.report.shed).sum();
        let jobs: usize = hd.iter().map(|s| s.report.outcomes.len()).sum();
        layer.push(metric("serve.shed_frac", shed as f64 / jobs as f64, "fraction"));
        let spans = trace::take();
        layer.extend(harness::span_metrics(&spans));
        harness::write_trace(&args.workload, &spans);
        report.layer = layer;
    }
    report.untraced = untraced;
    report.traced = traced;
    Ok(report)
}

/// Simulated end-to-end figures from the first round.
fn sim_metrics(traces: &[Trace], served: &[Served], templates: &[JobTemplate]) -> Vec<Metric> {
    let job_us = templates[0].dur_us;
    let capacity_jps = DEVICES as f64 / (job_us / 1e6);
    let mut p99_mid = 0.0;
    let mut best_load = 0.0f64;
    for (t, s) in traces.iter().zip(served).filter(|(t, _)| t.plan == 0) {
        let p99 = s.p_ms(99.0);
        println!(
            "  {:<22} completed {:>5} shed {:>5} p99 {:.3} ms",
            t.label, s.report.completed, s.report.shed, p99
        );
        if t.load == 0.9 {
            p99_mid = p99;
        }
        if s.report.shed == 0 && p99 * 1e3 <= 3.0 * job_us {
            best_load = best_load.max(t.load);
        }
    }
    for (t, s) in traces.iter().zip(served).filter(|(t, _)| t.plan != 0) {
        let replay_us = s.report.outcomes.iter().zip(&t.jobs).find_map(|(o, j)| match o {
            JobOutcome::Completed { start_us, end_us, .. } if j.frames.is_empty() => {
                Some(end_us - start_us)
            }
            _ => None,
        });
        println!(
            "  {:<22} template {:.3} us, replayed job {:.3} us",
            t.label,
            templates[t.plan].dur_us,
            replay_us.unwrap_or(0.0)
        );
    }
    let replayed: usize = served.iter().map(|s| s.replayed).sum();
    let mismatched: usize = served.iter().map(|s| s.mismatched).sum();
    vec![
        metric("replay_mismatch_frac", mismatched as f64 / replayed as f64, "fraction"),
        metric("sim_p99_ms", p99_mid, "ms"),
        metric("sim_capacity_jps", best_load * capacity_jps, "1/s"),
    ]
}
