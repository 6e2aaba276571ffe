//! The `hd-frames` workload: the paper's setting. Each op runs one 300-frame
//! HD1080 downscaler batch on each route (1 functional frame, 299
//! timing-replayed) at 2 streams with the pool on and `planopt::FULL`.

use std::time::Instant;

use bench::calibration::HOST_NS_PER_OP;
use downscaler::{FrameGenerator, Scenario};
use mdarray::NdArray;
use scenarios::{Kind, Route};
use simgpu::schedule::{BatchScheduler, ExecOptions, LaunchPlan};
use simgpu::{Device, OpClass};

use crate::compile::{self, Front, Item, PlanShape};
use crate::harness::{self, metric, Args, Report, SetupClock, Step};
use crate::trace::{self, span};
use crate::walk::walk_frame;

const FRAMES: usize = 300;

fn items() -> [Item; 2] {
    Route::BOTH.map(|r| Item::new(Kind::Downscale, "hd1080", 1080, 1920, r))
}

/// One functional frame: its payload in each route's layout and its CPU
/// reference (rank-3).
struct Content {
    rank3: Vec<Vec<NdArray<i64>>>,
    channels: Vec<Vec<NdArray<i64>>>,
    reference: NdArray<i64>,
}

impl Content {
    fn input(&self, route: Route) -> &[Vec<NdArray<i64>>] {
        match route {
            Route::Sac => &self.rank3,
            Route::Gaspard => &self.channels,
        }
    }
}

/// The second content seed: the content-independence check runs every op
/// on frames from two seeds and requires bit-identical simulated results.
fn alt_seed(seed: u64) -> u64 {
    seed.wrapping_add(0x9E37_79B9_7F4A_7C15)
}

fn contents(seed: u64) -> Vec<Content> {
    let s = Scenario::hd1080();
    [seed, alt_seed(seed)]
        .iter()
        .enumerate()
        .map(|(k, &content_seed)| {
            let index = (seed as usize).wrapping_add(k) % FRAMES;
            let rank3 = span("scenarios.frames", || {
                FrameGenerator::new(s.channels, s.rows, s.cols, content_seed).frame_rank3(index)
            });
            let channels = FrameGenerator::unstack(&rank3);
            let reference = span("scenarios.reference", || {
                downscaler::pipelines::reference_downscale(&s, &rank3)
            });
            Content { rank3: vec![vec![rank3]], channels: vec![channels], reference }
        })
        .collect()
}

fn opts(total_frames: usize) -> ExecOptions {
    ExecOptions {
        streams: 2,
        pool: true,
        total_frames,
        host_ns_per_op: HOST_NS_PER_OP,
        ..Default::default()
    }
}

fn canon(mut outs: Vec<NdArray<i64>>) -> NdArray<i64> {
    if outs.len() == 1 {
        outs.pop().expect("one output")
    } else {
        FrameGenerator::stack(&outs)
    }
}

/// Run one batch of `total` frames on a fresh device; returns the device
/// (clock and profiler) and whether the functional frame matched.
fn batch(
    plan: &LaunchPlan<'_>,
    c: &Content,
    route: Route,
    total: usize,
) -> Result<(Device, bool), String> {
    let mut dev = harness::device();
    dev.set_pool_enabled(true);
    let (outs, _) = span("schedule.run", || {
        BatchScheduler::new(plan).run(&mut dev, c.input(route), &opts(total))
    })
    .map_err(|e| format!("{}: {e}", route.name()))?;
    let ok = outs.into_iter().next().map(canon).as_ref() == Some(&c.reference);
    Ok((dev, ok))
}

pub fn run(args: &Args, start: Instant) -> Result<Report, String> {
    let items = items();
    let mut clock = SetupClock::new(start);
    // Each lap is a whole set-up. The plans borrow the lap's front ends, so
    // the kept lap measures from inside the loop.
    loop {
        let fronts: Vec<Front> = items.iter().map(compile::front_end).collect::<Result<_, _>>()?;
        let mut plans = Vec::new();
        let mut shapes = Vec::new();
        for (item, front) in items.iter().zip(&fronts) {
            let (plan, shape) = compile::compile(item, front)?;
            plans.push(plan);
            shapes.push(shape);
        }
        let contents = contents(args.seed);
        if clock.lap() {
            return measure(args, clock, &plans, &shapes, &contents);
        }
    }
}

/// The timed ops, the checks and, traced, the probes, over the kept set-up.
fn measure(
    args: &Args,
    clock: SetupClock,
    plans: &[LaunchPlan<'_>],
    shapes: &[PlanShape],
    contents: &[Content],
) -> Result<Report, String> {
    let mut report = Report { setup: clock, ..Default::default() };
    let mut sim: Option<[u64; 2]> = None;
    let mut first_profiles: Vec<Device> = Vec::new();
    let mut notes = Vec::new();
    // The op interprets kernels on `host_workers` threads.
    let threads = harness::host_workers();
    let (untraced, traced) = harness::run_loop(args, threads, &mut report.problems, |op| {
        let c = &contents[op % contents.len()];
        let t0 = Instant::now();
        let mut clocks = [0u64; 2];
        let mut failed = 0;
        span("perfbench.op", || -> Result<(), String> {
            for (ri, (plan, route)) in plans.iter().zip(Route::BOTH).enumerate() {
                let (dev, ok) = batch(plan, c, route, FRAMES)?;
                if !ok {
                    failed = 1;
                    notes.push(format!(
                        "op {op}: {} output differs from the CPU reference",
                        route.name()
                    ));
                }
                clocks[ri] = dev.now_us().to_bits();
                if first_profiles.len() < 2 {
                    first_profiles.push(dev);
                }
            }
            Ok(())
        })?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if *sim.get_or_insert(clocks) != clocks {
            failed = 1;
            notes.push(format!(
                "op {op}: simulated makespan depends on frame content (content-independence violated)"
            ));
        }
        Ok(Step { ops: 1, samples: vec![ms], failed })
    });
    report.problems.extend(notes);
    let [sac_s, gaspard_s] = sim.unwrap_or_default().map(|b| f64::from_bits(b) / 1e6);
    let model = first_profiles.first().map(|d| d.cost_model().describe()).unwrap_or_default();
    println!("simulated figures priced by cost model: {model}");
    report.extra = vec![metric("sim_s.sac", sac_s, "s"), metric("sim_s.gaspard", gaspard_s, "s")];

    if args.trace {
        let mut layer = probes(plans, contents, &mut report.problems)?;
        layer.extend(engine_metrics(&first_profiles));
        let total = |f: fn(&PlanShape) -> usize| shapes.iter().map(f).sum::<usize>() as f64;
        layer.push(metric("sac_lang.kernels", total(|s| s.sac_kernels), "count"));
        layer.push(metric("planopt.launches_removed", total(|s| s.launches_removed), "count"));
        let spans = trace::take();
        layer.extend(harness::span_metrics(&spans));
        harness::write_trace(&args.workload, &spans);
        report.layer = layer;
    }
    report.untraced = untraced;
    report.traced = traced;
    Ok(report)
}

/// Modelled engine occupancy and overlap of the first op's two batches.
fn engine_metrics(devs: &[Device]) -> Vec<harness::Metric> {
    let makespan: f64 = devs.iter().map(|d| d.profiler.makespan_us()).sum();
    let busy = |c: OpClass| devs.iter().map(|d| d.profiler.engine_busy_us(c)).sum::<f64>();
    let total: f64 =
        [OpClass::H2D, OpClass::Kernel, OpClass::D2H, OpClass::Host].into_iter().map(busy).sum();
    vec![
        metric("schedule.engine_busy_frac.h2d", busy(OpClass::H2D) / makespan, "fraction"),
        metric("schedule.engine_busy_frac.kernel", busy(OpClass::Kernel) / makespan, "fraction"),
        metric("schedule.engine_busy_frac.d2h", busy(OpClass::D2H) / makespan, "fraction"),
        metric("schedule.overlap_pct", 100.0 * (total - makespan) / total, "%"),
    ]
}

/// Layer probes that the batch op cannot split: every launch of one frame
/// per route and content timed through `Device::launch` (which also proves
/// the dynamic instruction count content-independent), and one scheduler
/// batch of a single functional frame.
fn probes(
    plans: &[LaunchPlan<'_>],
    contents: &[Content],
    problems: &mut Vec<String>,
) -> Result<Vec<harness::Metric>, String> {
    let mut per_content = Vec::new();
    let (mut ns, mut instrs, mut hits, mut distinct) = (0u64, 0u64, 0u64, 0u64);
    for c in contents {
        let mut frame_instrs = 0u64;
        for (plan, route) in plans.iter().zip(Route::BOTH) {
            let mut dev = harness::device();
            let inputs = &c.input(route)[0];
            let (outs, st) = walk_frame(plan, &mut dev, inputs)?;
            if canon(outs) != c.reference {
                problems
                    .push(format!("walked {} frame differs from the CPU reference", route.name()));
            }
            frame_instrs += st.instrs;
            ns += st.launch_ns;
            instrs += st.instrs;
            hits += st.l1_hits;
            distinct += st.distinct;
        }
        per_content.push(frame_instrs);
    }
    if per_content.windows(2).any(|w| w[0] != w[1]) {
        problems.push(format!("dynamic instructions depend on frame content: {per_content:?}"));
    }
    let mut functional_ms = 0.0;
    for (plan, route) in plans.iter().zip(Route::BOTH) {
        let t0 = Instant::now();
        let (_, ok) = span("schedule.functional", || batch(plan, &contents[0], route, 1))?;
        functional_ms += t0.elapsed().as_secs_f64() * 1e3 / 2.0;
        if !ok {
            problems
                .push(format!("one-frame {} batch differs from the CPU reference", route.name()));
        }
    }
    Ok(vec![
        metric("simgpu.ns_per_instr", ns as f64 / instrs as f64, "ns"),
        metric("simgpu.dyn_instrs_per_frame", per_content[0] as f64, "count"),
        metric("simgpu.l1_hit_frac", hits as f64 / (hits + distinct) as f64, "fraction"),
        metric("schedule.functional_ms_per_frame", functional_ms, "ms"),
    ])
}
