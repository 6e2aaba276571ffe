//! Shared plumbing: arguments, the timed op loop, set-up timing, devices,
//! statistics and the result line.

use std::time::Instant;

use simgpu::Device;

use crate::trace;

/// Set-up repeats at least this often per run; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
/// ...and, while the repeats have taken less than this many seconds, up to
/// `SETUP_MAX_REPS` times, so a cheap set-up still yields a steady median.
const SETUP_BUDGET_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 25;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(val),
                "--seed" => seed = val.parse().map_err(|e| bad(&e))?,
                "--seconds" => seconds = val.parse().map_err(|e| bad(&e))?,
                "--trace" => trace = val != "0",
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args { workload, seed, seconds, trace })
    }
}

/// `DeviceConfig::host_workers` for every device the benchmark builds: the
/// simulator's default of 8, capped at the machine's parallelism so one
/// benchmark process never oversubscribes the cores it measures on.
pub fn host_workers() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    simgpu::DeviceConfig::gtx480().host_workers.min(cores)
}

/// A paper-calibrated GTX480 with [`host_workers`] interpreter threads.
pub fn device() -> Device {
    let mut d = Device::gtx480();
    d.set_host_workers(host_workers());
    d
}

/// Times repeated set-ups: the first lap runs from process start. Each lap
/// is followed by one untimed single-threaded [`calibrate`] run, as set-up
/// runs on one thread.
pub struct SetupClock {
    from: Instant,
    pub samples: Vec<f64>,
    pub calib: Vec<f64>,
}

impl Default for SetupClock {
    fn default() -> SetupClock {
        SetupClock::new(Instant::now())
    }
}

impl SetupClock {
    pub fn new(process_start: Instant) -> SetupClock {
        SetupClock { from: process_start, samples: Vec::new(), calib: Vec::new() }
    }

    /// End a set-up lap. Returns whether enough laps have been taken; the
    /// caller then keeps this lap's set-up and starts measuring.
    pub fn lap(&mut self) -> bool {
        self.samples.push(self.from.elapsed().as_secs_f64());
        self.calib.push(calibrate(1));
        self.from = Instant::now();
        let n = self.samples.len();
        n >= SETUP_MAX_REPS
            || (n >= SETUP_MIN_REPS && self.samples.iter().sum::<f64>() >= SETUP_BUDGET_S)
    }
}

/// What one loop unit (an op, a pass of ops, or a serving round) did.
pub struct Step {
    /// Ops completed.
    pub ops: usize,
    /// Host ms per op, one sample per op (or per round for serving).
    pub samples: Vec<f64>,
    /// Ops whose output differed from the reference.
    pub failed: usize,
}

/// Accumulated loop statistics for one phase (untraced or traced).
#[derive(Default)]
pub struct Phase {
    pub ops: usize,
    pub failed: usize,
    pub samples: Vec<f64>,
    /// Seconds spent in units (calibration excluded).
    pub secs: f64,
    /// [`calibrate`] times (ms) taken around the units.
    pub calib: Vec<f64>,
}

/// Nominal duration of [`calibrate`] (ms): host times are reported scaled to
/// a host on which the loop takes exactly this long.
const CALIB_NOMINAL_MS: f64 = 0.5;
/// Calibration runs before each loop unit and after the last one.
const CALIB_PER_UNIT: usize = 3;
/// Iterations of the calibration loop: about `CALIB_NOMINAL_MS` on an idle
/// 2.1 GHz core.
const CALIB_ITERS: u64 = 400_000;

/// Time (ms) of a fixed loop of dependent integer multiplies and random
/// access into a 32 KB table on the stack, run at once on `threads` threads;
/// the slowest thread's time counts. The timed part allocates nothing, so
/// the program's heap state cannot change it.
///
/// The host's speed drifts by tens of percent over seconds to minutes (other
/// tenants' load), and that drift scales every op alike. Timing this loop
/// between units measures it, so reported host times can be divided by it.
/// `threads` is the number of cores the op keeps busy, so that a core other
/// tenants slow down slows the loop as it slows the op.
pub fn calibrate(threads: usize) -> f64 {
    fn spin() -> f64 {
        let mut table = [0u64; 4096];
        let t0 = Instant::now();
        let mut x = std::hint::black_box(1u64);
        for i in 0..CALIB_ITERS {
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
            let j = (x >> 40) as usize % table.len();
            table[j] = table[j].rotate_left(7) ^ x;
        }
        std::hint::black_box(&table);
        t0.elapsed().as_secs_f64() * 1e3
    }
    if threads <= 1 {
        return spin();
    }
    std::thread::scope(|s| {
        let spins: Vec<_> = (0..threads).map(|_| s.spawn(spin)).collect();
        spins.into_iter().map(|h| h.join().expect("calibration loop panicked")).fold(0.0, f64::max)
    })
}

/// Run `unit` until the deadline (at least once), timing [`calibrate`] on
/// `threads` threads around every unit. With tracing requested the first
/// half of the time runs untraced and the second half traced, so the tracing
/// overhead is measured against the same code in the same process. An
/// erroring unit counts as one failed op and the loop goes on.
pub fn run_loop(
    args: &Args,
    threads: usize,
    problems: &mut Vec<String>,
    mut unit: impl FnMut(usize) -> Result<Step, String>,
) -> (Phase, Phase) {
    let mut next_op = 0usize;
    let mut phase = |secs: f64, traced: bool, problems: &mut Vec<String>| {
        trace::set_enabled(traced);
        let t0 = Instant::now();
        let mut p = Phase::default();
        loop {
            p.calib.extend((0..CALIB_PER_UNIT).map(|_| calibrate(threads)));
            trace::set_op(Some(next_op));
            match unit(next_op) {
                Ok(step) => {
                    next_op += step.ops;
                    p.ops += step.ops;
                    p.failed += step.failed;
                    p.samples.extend(step.samples);
                }
                Err(e) => {
                    next_op += 1;
                    p.ops += 1;
                    p.failed += 1;
                    problems.push(e);
                }
            }
            if t0.elapsed().as_secs_f64() >= secs {
                break;
            }
        }
        trace::set_op(None);
        p.calib.extend((0..CALIB_PER_UNIT).map(|_| calibrate(threads)));
        p.secs = t0.elapsed().as_secs_f64() - p.calib.iter().sum::<f64>() / 1e3;
        p
    };
    if args.trace {
        let untraced = phase(args.seconds / 2.0, false, problems);
        let traced = phase(args.seconds / 2.0, true, problems);
        (untraced, traced)
    } else {
        let untraced = phase(args.seconds, false, problems);
        (untraced, Phase::default())
    }
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set size of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named, unit-tagged figure.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// The per-layer metrics a traced run reports, in output order. A workload
/// that never calls a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sac_lang.parse_ms", "ms"),
    ("sac_lang.opt_ms", "ms"),
    ("sac_lang.kernels", "count"),
    ("sac_cuda.codegen_ms", "ms"),
    ("gaspard.deploy_ms", "ms"),
    ("gaspard.schedule_ms", "ms"),
    ("gaspard.codegen_ms", "ms"),
    ("lower.sac_ms", "ms"),
    ("lower.gaspard_ms", "ms"),
    ("planopt.fusion_ms", "ms"),
    ("planopt.transfer_ms", "ms"),
    ("planopt.launches_removed", "count"),
    ("simgpu.launch_ms", "ms"),
    ("simgpu.ns_per_instr", "ns"),
    ("simgpu.dyn_instrs_per_frame", "count"),
    ("simgpu.l1_hit_frac", "fraction"),
    ("schedule.functional_ms_per_frame", "ms"),
    ("schedule.replay_us_per_frame", "us"),
    ("schedule.engine_busy_frac.h2d", "fraction"),
    ("schedule.engine_busy_frac.kernel", "fraction"),
    ("schedule.engine_busy_frac.d2h", "fraction"),
    ("schedule.overlap_pct", "%"),
    ("scenarios.reference_ms", "ms"),
    ("tune.evals", "count"),
    ("tune.evals_per_s", "1/s"),
    ("tune.eval.lower_ms", "ms"),
    ("tune.eval.planopt_ms", "ms"),
    ("tune.eval.run_ms", "ms"),
    ("tune.eval.check_ms", "ms"),
    ("serve.us_per_job", "us"),
    ("serve.spans_per_job", "count"),
    ("serve.capture_ms", "ms"),
    ("serve.sim_queue_wait_ms_p50", "ms"),
    ("serve.shed_frac", "fraction"),
    ("sac_lang.self_pct", "%"),
    ("sac_cuda.self_pct", "%"),
    ("gaspard.self_pct", "%"),
    ("lower.self_pct", "%"),
    ("planopt.self_pct", "%"),
    ("simgpu.self_pct", "%"),
    ("schedule.self_pct", "%"),
    ("scenarios.self_pct", "%"),
    ("serve.self_pct", "%"),
    ("tune.self_pct", "%"),
    ("perfbench.self_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Span names whose mean duration per call is a per-layer metric.
const MEAN_PER_CALL: &[(&str, &str)] = &[
    ("sac_lang.parse", "sac_lang.parse_ms"),
    ("sac_lang.opt", "sac_lang.opt_ms"),
    ("sac_cuda.codegen", "sac_cuda.codegen_ms"),
    ("gaspard.deploy", "gaspard.deploy_ms"),
    ("gaspard.schedule", "gaspard.schedule_ms"),
    ("gaspard.codegen", "gaspard.codegen_ms"),
    ("lower.sac", "lower.sac_ms"),
    ("lower.gaspard", "lower.gaspard_ms"),
    ("planopt.fusion", "planopt.fusion_ms"),
    ("simgpu.launch", "simgpu.launch_ms"),
    ("scenarios.reference", "scenarios.reference_ms"),
    ("serve.capture", "serve.capture_ms"),
    ("tune.eval.lower", "tune.eval.lower_ms"),
    ("tune.eval.planopt", "tune.eval.planopt_ms"),
    ("tune.eval.run", "tune.eval.run_ms"),
    ("tune.eval.check", "tune.eval.check_ms"),
];

/// The four single-pass transfer levels the traced compile path times.
pub const TRANSFER_PASSES: [&str; 4] =
    ["planopt.residency", "planopt.dead_transfers", "planopt.reorder", "planopt.coalesce"];

/// Per-layer metrics derivable from spans alone: mean ms per call of each
/// timed layer function, the transfer passes per optimised plan, each
/// layer's share of the traced ops' self time, and the span count.
pub fn span_metrics(spans: &[trace::Span]) -> Vec<Metric> {
    // Ops' calls where ops make them; set-up and probe calls otherwise.
    let in_ops: Vec<trace::Span> = spans.iter().filter(|s| s.op.is_some()).cloned().collect();
    let (op_totals, all_totals) = (trace::totals(&in_ops), trace::totals(spans));
    let total = |name: &str| op_totals.get(name).or_else(|| all_totals.get(name)).copied();
    let mut out = Vec::new();
    for &(span, name) in MEAN_PER_CALL {
        if let Some((n, ns)) = total(span) {
            out.push(metric(name, ns as f64 / 1e6 / n as f64, "ms"));
        }
    }
    let plans = total(TRANSFER_PASSES[0]).map_or(0, |t| t.0);
    if plans > 0 {
        let ns: u64 = TRANSFER_PASSES.iter().filter_map(|p| total(p)).map(|t| t.1).sum();
        out.push(metric("planopt.transfer_ms", ns as f64 / 1e6 / plans as f64, "ms"));
    }
    let self_ns = trace::self_time_by_layer(spans, |s| s.op.is_some());
    let all: u64 = self_ns.values().sum();
    if all > 0 {
        for (layer, ns) in &self_ns {
            out.push(Metric {
                name: format!("{layer}.self_pct"),
                value: 100.0 * *ns as f64 / all as f64,
                unit: "%",
            });
        }
    }
    out.push(metric("trace.spans", spans.len() as f64, "count"));
    out
}

/// Everything a workload run produced.
#[derive(Default)]
pub struct Report {
    pub setup: SetupClock,
    pub untraced: Phase,
    pub traced: Phase,
    /// Checks that failed outside any op (reported, and they fail the run).
    pub problems: Vec<String>,
    /// Workload-specific end-to-end figures (printed, not in the result line).
    pub extra: Vec<Metric>,
    /// Per-layer figures (traced runs).
    pub layer: Vec<Metric>,
    /// Ops per loop unit when each unit cycles through that many different
    /// programs (`compile`); 0 when every op does the same work.
    pub cycle: usize,
}

/// The typical host ms per op. For a cycle of different programs the plain
/// median would sit on the boundary between two programs and jump between
/// them from run to run, so each program's median is taken and the
/// programs are combined by geometric mean.
fn op_p50(samples: &[f64], cycle: usize) -> f64 {
    if cycle <= 1 {
        return median(samples);
    }
    let logs: f64 = (0..cycle)
        .map(|i| median(&samples.iter().skip(i).step_by(cycle).copied().collect::<Vec<_>>()).ln())
        .sum();
    (logs / cycle as f64).exp()
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

impl Report {
    /// Print the human-readable report and the result line; returns whether
    /// every op and check passed.
    pub fn print(mut self, args: &Args) -> bool {
        let p = &self.untraced;
        let attempted = p.ops + self.traced.ops;
        let failed = p.failed + self.traced.failed;
        let ops_per_s = p.ops as f64 / p.secs;
        let op_ms_p50 = op_p50(&p.samples, self.cycle);
        let setup_s = median(&self.setup.samples);
        // Host times in the result line are scaled to the nominal host
        // speed, each by the calibration runs of its own phase; the measured
        // wall-clock values are printed beside them.
        let calib_ms = median(&p.calib);
        let slowdown = calib_ms / CALIB_NOMINAL_MS;
        let setup_slowdown = median(&self.setup.calib) / CALIB_NOMINAL_MS;
        let mut e2e = vec![
            metric("setup_s", setup_s / setup_slowdown, "s"),
            metric("ops_per_s", ops_per_s * slowdown, "1/s"),
            metric("op_ms_p50", op_ms_p50 / slowdown, "ms"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        let declared = e2e.len();
        e2e.push(metric("failed_frac", failed as f64 / attempted.max(1) as f64, "fraction"));
        e2e.push(metric("calib_ms", calib_ms, "ms"));
        e2e.push(metric("wall.setup_s", setup_s, "s"));
        e2e.push(metric("wall.ops_per_s", ops_per_s, "1/s"));
        e2e.push(metric("wall.op_ms_p50", op_ms_p50, "ms"));
        e2e.append(&mut self.extra);
        println!("end-to-end ({} ops in {:.2} s, untraced):", p.ops, p.secs);
        for m in &e2e {
            println!("  {:<34} {:>18} {}", m.name, json_num(m.value), m.unit);
        }
        if args.trace {
            let traced_p50 = op_p50(&self.traced.samples, self.cycle);
            if op_ms_p50 > 0.0 && traced_p50 > 0.0 {
                self.layer.push(metric(
                    "trace.overhead_pct",
                    100.0 * (traced_p50 / op_ms_p50 - 1.0),
                    "%",
                ));
            }
            println!("per-layer (traced: {} ops in {:.2} s):", self.traced.ops, self.traced.secs);
            for m in &self.layer {
                println!("  {:<34} {:>18} {}", m.name, json_num(m.value), m.unit);
            }
        }
        for e in &self.problems {
            println!("FAILED: {e}");
        }
        let correct = failed == 0 && self.problems.is_empty();
        let fields: Vec<String> = if args.trace {
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let v = self.layer.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
                    format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(v))
                })
                .collect()
        } else {
            e2e[..declared]
                .iter()
                .map(|m| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        m.name,
                        json_num(m.value),
                        m.unit
                    )
                })
                .collect()
        };
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            attempted.max(1),
            fields.join(", ")
        );
        correct
    }
}

/// Write the recorded spans next to the benchmark sources.
pub fn write_trace(workload: &str, spans: &[trace::Span]) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{workload}.json");
    let written = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(&path, trace::to_chrome_json(spans)));
    match written {
        Ok(()) => println!("trace: {} spans written to {path}", spans.len()),
        Err(e) => eprintln!("trace: could not write {path}: {e}"),
    }
}
