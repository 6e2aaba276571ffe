//! Host wall-clock benchmark of the SaC → CUDA and GASPARD2 → OpenCL routes
//! over the simulated GPU.
//!
//! ```text
//! perfbench --workload <compile|hd-frames|tune|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload sets up (several times; `setup_s` is the median), then runs
//! ops in a loop for `--seconds` seconds and checks every functional output
//! against its CPU reference. With `--trace 0` the last stdout line carries
//! the end-to-end metrics; with `--trace 1` the first half of the run is
//! untraced, the second half records one span per layer call, probes time
//! the layers the ops cannot split, and the last line carries the per-layer
//! metrics. See `perfbench/README.md`.

mod compile;
mod harness;
mod hd;
mod serve_wl;
mod trace;
mod tune_wl;
mod walk;

use harness::{Args, Report};

fn main() {
    let start = std::time::Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workers = harness::host_workers();
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} host_workers {workers}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    trace::set_enabled(args.trace);
    let run = match args.workload.as_str() {
        "compile" => compile::run(&args, start),
        "hd-frames" => hd::run(&args, start),
        "tune" => tune_wl::run(&args, start),
        "serve" => serve_wl::run(&args, start),
        other => Err(format!("unknown workload '{other}' (compile, hd-frames, tune, serve)")),
    };
    let report: Report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let ok = report.print(&args);
    std::process::exit(if ok { 0 } else { 1 });
}
