//! The `tune` workload: each op is one `bench::tune::tune_ablation` verdict
//! over the CIF scenario (the headline batch plus the small registry).

use std::time::Instant;

use bench::calibration::HOST_NS_PER_OP;
use bench::tune::{TuneAblation, TuneConfig};
use downscaler::Scenario;
use gaspard::Placement;
use scenarios::{BuiltWorkload, JobMix, Kind, Route, Workload};
use simgpu::schedule::{BatchScheduler, ExecOptions};
use simgpu::PlanOptLevel;

use crate::harness::{self, metric, Args, Report, SetupClock, Step};
use crate::trace::{self, span};
use crate::walk::walk_frame;

/// The entries `tune_ablation(cif)` searches, in its order: the scenario's
/// full-length downscaler batch, then the small registry.
fn entries(s: &Scenario) -> Result<Vec<BuiltWorkload>, String> {
    let headline = Workload {
        name: "downscale-headline",
        summary: "the bench scenario's full-length downscaler batch",
        kind: Kind::Downscale,
        rows: s.rows,
        cols: s.cols,
        frames: s.frames,
        seed: 0x5CE4,
        mix: JobMix { jobs: 1, mean_gap_us: 0.0, tenants: 1, frames_per_job: 1 },
    };
    std::iter::once(headline)
        .chain(scenarios::registry_small())
        .map(|w| span("scenarios.build", || w.build()).map_err(|e| format!("{}: {e}", w.name)))
        .collect()
}

fn level(name: &str) -> Result<PlanOptLevel, String> {
    Ok(match name {
        "off" => PlanOptLevel::OFF,
        "fusion" => PlanOptLevel::FUSION,
        "transfers" => PlanOptLevel::ALL,
        "fusion+transfers" => PlanOptLevel { fusion: true, ..PlanOptLevel::ALL },
        other => return Err(format!("unknown planopt preset '{other}'")),
    })
}

/// One oracle evaluation replayed through the public calls the tuner makes:
/// `plan_placed`, `planopt::optimize`, `BatchScheduler::run`, then the
/// reference check. Returns the simulated makespan (s) and whether the
/// functional frames matched.
fn evaluate(built: &BuiltWorkload, cfg: &TuneConfig) -> Result<(f64, bool), String> {
    let route = if cfg.route == "sac" { Route::Sac } else { Route::Gaspard };
    let placement = if cfg.placement == "roundtrip" {
        Placement::PerKernelRoundTrip
    } else {
        Placement::Resident
    };
    let level = level(&cfg.optimize)?;
    let frames = built.spec.frames;
    let executed = if built.spec.temporal() { 3.min(frames) } else { 1 };
    let opts = ExecOptions {
        streams: cfg.streams,
        executed,
        channel_chunks: cfg.channel_chunks,
        host_ns_per_op: HOST_NS_PER_OP,
        pool: cfg.pool,
        optimize: level,
        total_frames: frames,
        ..Default::default()
    };
    let e = |e: &dyn std::fmt::Display| format!("{}: {e}", built.spec.name);
    let mut plan =
        span("tune.eval.lower", || built.plan_placed(route, cfg.channel_chunks, placement))
            .map_err(|x| e(&x))?;
    span("tune.eval.planopt", || simgpu::optimize(&mut plan, level)).map_err(|x| e(&x))?;
    let mut dev = harness::device();
    dev.set_pool_enabled(cfg.pool);
    let inputs = built.frames(route, executed);
    let (outs, _) =
        span("tune.eval.run", || BatchScheduler::new(&plan).run(&mut dev, &inputs, &opts))
            .map_err(|x| e(&x))?;
    let ok = span("tune.eval.check", || {
        outs.into_iter()
            .enumerate()
            .all(|(f, o)| built.canon(o) == span("scenarios.reference", || built.reference(f)))
    });
    Ok((dev.now_us() / 1e6, ok))
}

/// What must repeat exactly from one verdict to the next.
fn verdict_key(a: &TuneAblation) -> Vec<String> {
    a.rows
        .iter()
        .map(|r| {
            format!(
                "{} {} {:?} {:x} {:x} {}",
                r.scenario,
                r.evals,
                r.config,
                r.best_s.to_bits(),
                r.default_s.to_bits(),
                r.launches
            )
        })
        .collect()
}

pub fn run(args: &Args, start: Instant) -> Result<Report, String> {
    let s = Scenario::cif();
    let mut clock = SetupClock::new(start);
    let built = loop {
        let built = entries(&s)?;
        if clock.lap() {
            break built;
        }
    };

    let mut report = Report { setup: clock, ..Default::default() };
    let mut first: Option<(TuneAblation, Vec<String>)> = None;
    let mut notes = Vec::new();
    // The tuner's devices interpret kernels on 8 threads, over every core.
    let threads = harness::host_workers();
    let (untraced, traced) = harness::run_loop(args, threads, &mut report.problems, |op| {
        let t0 = Instant::now();
        let a = span("perfbench.op", || span("tune.ablation", || bench::tune::tune_ablation(&s)))
            .map_err(|e| format!("op {op}: {e}"))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut failed = 0;
        if a.model != "paper-gtx480" || a.rows.iter().any(|r| !r.outputs_ok) {
            failed = 1;
            notes.push(format!("op {op}: a tuned winner diverged from its CPU reference"));
        }
        let key = verdict_key(&a);
        let (_, expected) = first.get_or_insert_with(|| (a, key.clone()));
        if *expected != key {
            failed = 1;
            notes.push(format!("op {op}: verdict differs from the first op's"));
        }
        Ok(Step { ops: 1, samples: vec![ms], failed })
    });
    report.problems.extend(notes);
    let (verdict, _) = first.ok_or("no tune verdict completed")?;
    println!("simulated figures priced by cost model: {}", verdict.model);
    let geo =
        (verdict.rows.iter().map(|r| r.best_s.ln()).sum::<f64>() / verdict.rows.len() as f64).exp();
    report.extra = vec![metric("sim_tuned_s", geo, "s")];

    // Independent check of every verdict row: the winner and the hand-picked
    // default re-evaluated through the public calls must reproduce the
    // tuner's makespans bit for bit and match the CPU reference.
    let default = TuneConfig {
        route: "gaspard".into(),
        streams: 2,
        pool: true,
        optimize: "off".into(),
        placement: "resident".into(),
        channel_chunks: 0,
    };
    for (row, b) in verdict.rows.iter().zip(&built) {
        for (cfg, want) in [(&row.config, row.best_s), (&default, row.default_s)] {
            let (got, ok) = evaluate(b, cfg)?;
            if !ok || got.to_bits() != want.to_bits() {
                report.problems.push(format!(
                    "{}: re-evaluating {cfg:?} gave {got} s (outputs ok: {ok}), the tuner reported {want} s",
                    row.scenario
                ));
            }
        }
    }

    if args.trace {
        let evals: usize = verdict.rows.iter().map(|r| r.evals).sum();
        let op_s = harness::median(&untraced.samples) / 1e3;
        let mut layer = vec![
            metric("tune.evals", evals as f64, "count"),
            metric("tune.evals_per_s", evals as f64 / op_s, "1/s"),
        ];
        layer.extend(probes(&built[0], &mut report.problems)?);
        let spans = trace::take();
        layer.extend(harness::span_metrics(&spans));
        harness::write_trace(&args.workload, &spans);
        report.layer = layer;
    }
    report.untraced = untraced;
    report.traced = traced;
    Ok(report)
}

/// The CIF headline batch on each route (planopt FULL, 2 streams, pool):
/// every launch of one frame timed through `Device::launch`, and the batch
/// timed at 1 frame and at its full 2000 frames.
fn probes(b: &BuiltWorkload, problems: &mut Vec<String>) -> Result<Vec<harness::Metric>, String> {
    let (mut ns, mut instrs, mut functional_ms, mut replay_us) = (0u64, 0u64, 0.0, 0.0);
    let frames = b.spec.frames;
    for route in Route::BOTH {
        let mut plan = b.plan(route).map_err(|e| e.to_string())?;
        simgpu::optimize(&mut plan, PlanOptLevel::FULL).map_err(|e| e.to_string())?;
        let input = b.frames(route, 1);
        let (outs, st) = walk_frame(&plan, &mut harness::device(), &input[0])?;
        if b.canon(outs) != b.reference(0) {
            problems
                .push(format!("walked {} CIF frame differs from the CPU reference", route.name()));
        }
        ns += st.launch_ns;
        instrs += st.instrs;
        let timed = |total: usize| -> Result<f64, String> {
            let mut dev = harness::device();
            dev.set_pool_enabled(true);
            let opts = ExecOptions {
                streams: 2,
                pool: true,
                total_frames: total,
                host_ns_per_op: HOST_NS_PER_OP,
                ..Default::default()
            };
            let t0 = Instant::now();
            BatchScheduler::new(&plan).run(&mut dev, &input, &opts).map_err(|e| e.to_string())?;
            Ok(t0.elapsed().as_secs_f64())
        };
        // The replayed frames cost about a tenth of the functional one, so
        // each side is the fastest of several alternating runs.
        let (mut one, mut all) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            one = one.min(span("schedule.functional", || timed(1))?);
            all = all.min(timed(frames)?);
        }
        functional_ms += one * 1e3 / 2.0;
        replay_us += (all - one) * 1e6 / (frames - 1) as f64 / 2.0;
    }
    Ok(vec![
        metric("simgpu.ns_per_instr", ns as f64 / instrs as f64, "ns"),
        metric("schedule.functional_ms_per_frame", functional_ms, "ms"),
        metric("schedule.replay_us_per_frame", replay_us, "us"),
    ])
}
