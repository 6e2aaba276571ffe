//! `reproduce` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p bench --bin reproduce [-- <command>] [--scenario hd1080|cif|tiny]
//!
//! commands: fig8 fig9 fig11 fig12 table1 table2 cuda-src summary ablations streams memory all
//! ```
//!
//! Exits non-zero when any requested experiment fails, including a tuned
//! winner whose outputs diverge from the CPU reference.

use bench::experiments as exp;
use bench::report;
use downscaler::Scenario;
use simgpu::Calibration;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Failures reported so far; any makes the process exit non-zero.
static FAILURES: AtomicUsize = AtomicUsize::new(0);

/// Report a failed experiment.
fn fail(msg: impl std::fmt::Display) {
    eprintln!("{msg}");
    FAILURES.fetch_add(1, Ordering::Relaxed);
}

fn usage() -> ! {
    eprintln!(
        "usage: reproduce [fig3|fig8|fig9|fig11|fig12|table1|table2|cuda-src|summary|ablations|streams|memory|fusion|fusion-parity|planopt|serve|scenarios|tune|sweep|emit-artifacts|all] \
         [--scenario hd1080|cif|tiny] [--json <path>]"
    );
    std::process::exit(2);
}

fn main() {
    let mut command = "all".to_string();
    let mut scenario = Scenario::hd1080();
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scenario" => {
                let v = args.next().unwrap_or_else(|| usage());
                scenario = match v.as_str() {
                    "hd1080" => Scenario::hd1080(),
                    "cif" => Scenario::cif(),
                    "tiny" => Scenario::tiny(),
                    _ => usage(),
                };
            }
            "--json" => json_path = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            cmd if !cmd.starts_with('-') => {
                const KNOWN: [&str; 21] = [
                    "all",
                    "fig3",
                    "fig8",
                    "fig9",
                    "fig11",
                    "fig12",
                    "table1",
                    "table2",
                    "cuda-src",
                    "summary",
                    "ablations",
                    "streams",
                    "memory",
                    "fusion",
                    "fusion-parity",
                    "planopt",
                    "serve",
                    "scenarios",
                    "tune",
                    "sweep",
                    "emit-artifacts",
                ];
                if !KNOWN.contains(&cmd) {
                    eprintln!("unknown command '{cmd}'");
                    usage();
                }
                command = cmd.to_string();
            }
            _ => usage(),
        }
    }

    let run = |name: &str| command == "all" || command == name;
    let s = &scenario;
    println!(
        "== Reproduction of 'Harnessing the Power of GPUs without Losing Abstractions' ==\n\
         scenario: {} ({}x{}x{} pixels, {} frames)\n",
        s.name, s.channels, s.rows, s.cols, s.frames
    );

    if run("fig3") {
        match exp::figure3_dot(s) {
            Ok(t) => println!("--- Figure 3 (downscaler overview, Graphviz DOT) ---\n{t}"),
            Err(e) => fail(format!("fig3 failed: {e}")),
        }
    }
    if run("fig8") {
        match exp::figure8_text(s) {
            Ok(t) => println!("--- Figure 8 (folded WITH-loop) ---\n{t}"),
            Err(e) => fail(format!("fig8 failed: {e}")),
        }
    }
    if run("fig11") {
        match exp::figure11_text(s) {
            Ok(t) => println!("--- Figure 11 (generated OpenCL tiler kernel) ---\n{t}"),
            Err(e) => fail(format!("fig11 failed: {e}")),
        }
    }
    if run("cuda-src") {
        match exp::cuda_source_text(s) {
            Ok(t) => println!("--- Generated CUDA source (SaC route) ---\n{t}"),
            Err(e) => fail(format!("cuda-src failed: {e}")),
        }
    }
    if run("fig9") {
        match exp::figure9(s) {
            Ok(rows) => println!("{}", report::render_fig9(&rows)),
            Err(e) => fail(format!("fig9 failed: {e}")),
        }
    }
    if run("table1") {
        match exp::table1(s) {
            Ok(t) => println!(
                "{}",
                report::render_table(
                    "Table I: kernel execution and data transfer times (GASPARD2)",
                    &t
                )
            ),
            Err(e) => fail(format!("table1 failed: {e}")),
        }
    }
    if run("table2") {
        match exp::table2(s) {
            Ok(t) => println!(
                "{}",
                report::render_table(
                    "Table II: kernel execution and data transfer times (SAC)",
                    &t
                )
            ),
            Err(e) => fail(format!("table2 failed: {e}")),
        }
    }
    if run("fig12") {
        match exp::figure12(s) {
            Ok(f) => println!("{}", report::render_fig12(&f)),
            Err(e) => fail(format!("fig12 failed: {e}")),
        }
    }
    if run("summary") || command == "all" {
        summary(s);
    }
    if run("ablations") {
        ablations(s);
    }
    if run("streams") {
        match exp::streams_ablation(s, &[1, 2, 4]) {
            Ok(rows) => {
                println!("{}", report::render_streams(&rows));
                if command == "streams" {
                    if let Some(path) = &json_path {
                        write_json(path, &bench::json::streams_json(s, &rows));
                    }
                }
            }
            Err(e) => fail(format!("streams ablation failed: {e}")),
        }
    }
    if run("memory") {
        match (exp::memory_ablation(s), exp::oom_degradation_demo(s)) {
            (Ok(rows), Ok(d)) => {
                println!("{}", report::render_memory(&rows));
                println!("{}", report::render_degradation(&d));
                if command == "memory" {
                    if let Some(path) = &json_path {
                        write_json(path, &bench::json::memory_json(s, &rows, &d));
                    }
                }
            }
            (Err(e), _) => fail(format!("memory ablation failed: {e}")),
            (_, Err(e)) => fail(format!("degradation demo failed: {e}")),
        }
    }
    if run("fusion") {
        match exp::fusion_ablation(s) {
            Ok(a) => {
                println!("{}", report::render_fusion(&a));
                if command == "fusion" {
                    if let Some(path) = &json_path {
                        write_json(path, &bench::json::fusion_json(s, &a));
                    }
                }
            }
            Err(e) => fail(format!("fusion ablation failed: {e}")),
        }
    }
    if run("fusion-parity") {
        match exp::fusion_parity_ablation(s) {
            Ok(a) => {
                println!("{}", report::render_fusion_parity(&a));
                if command == "fusion-parity" {
                    if let Some(path) = &json_path {
                        write_json(path, &bench::json::fusion_parity_json(s, &a));
                    }
                }
            }
            Err(e) => fail(format!("fusion-parity ablation failed: {e}")),
        }
    }
    if run("planopt") {
        match exp::planopt_ablation(s) {
            Ok(a) => {
                println!("{}", report::render_planopt(&a));
                if command == "planopt" {
                    if let Some(path) = &json_path {
                        write_json(path, &bench::json::planopt_json(s, &a));
                    }
                }
            }
            Err(e) => fail(format!("planopt ablation failed: {e}")),
        }
    }
    if run("serve") {
        match exp::serve_ablation(s) {
            Ok(a) => {
                println!("{}", report::render_serve(&a));
                if command == "serve" {
                    if let Some(path) = &json_path {
                        write_json(path, &bench::json::serve_json(s, &a));
                    }
                }
            }
            Err(e) => fail(format!("serve ablation failed: {e}")),
        }
    }
    if run("scenarios") {
        match exp::scenarios_ablation(s) {
            Ok(a) => {
                println!("{}", report::render_scenarios(&a));
                if command == "scenarios" {
                    if let Some(path) = &json_path {
                        write_json(path, &bench::json::scenarios_json(s, &a));
                    }
                }
            }
            Err(e) => fail(format!("scenarios ablation failed: {e}")),
        }
    }
    if run("tune") {
        match bench::tune::tune_ablation(s) {
            Ok(a) => {
                println!("{}", report::render_tune(&a));
                for r in a.rows.iter().filter(|r| !r.outputs_ok) {
                    fail(format!(
                        "tune: {}: the tuned winner diverged from its reference",
                        r.scenario
                    ));
                }
                if command == "tune" {
                    if let Some(path) = &json_path {
                        write_json(path, &bench::json::tune_json(s, &a));
                    }
                }
            }
            Err(e) => fail(format!("tune ablation failed: {e}")),
        }
    }
    if run("sweep") {
        sweep();
    }
    if command == "emit-artifacts" {
        emit_artifacts(s);
    }
    let failures = FAILURES.load(Ordering::Relaxed);
    if failures > 0 {
        eprintln!("reproduce: {failures} failure(s)");
        std::process::exit(1);
    }
}

fn write_json(path: &str, record: &str) {
    match std::fs::write(path, record) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => fail(format!("writing {path} failed: {e}")),
    }
}

/// Write the generated source trees (what GASPARD2's "execute the OpenCL
/// chain" button produces: `.cpp`, `.cl`, makefile — and the SaC analogues)
/// under `generated/`.
fn emit_artifacts(s: &Scenario) {
    use downscaler::pipelines::{build_gaspard, build_sac};
    use downscaler::sac_src::{Part, Variant};
    let dir = std::path::Path::new("generated");
    let write = |rel: &str, content: &str| {
        let path = dir.join(rel);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("mkdir");
        }
        std::fs::write(&path, content).expect("write artefact");
        println!("wrote {}", path.display());
    };

    match build_sac(s, Variant::NonGeneric, Part::Full, &Default::default()) {
        Ok(route) => {
            write("sac/downscaler.sac", &route.src);
            write("sac/folded.sac", &route.flat.to_string());
            write("sac/kernels.cu", &route.cuda.emit_cuda_source());
            write("sac/main.cu", &sac_cuda::emit::emit_host_source(&route.cuda));
            write("sac/Makefile", &sac_cuda::emit::emit_makefile("downscaler"));
        }
        Err(e) => fail(format!("sac artefacts failed: {e}")),
    }
    match build_gaspard(s) {
        Ok(route) => {
            write("gaspard/kernels.cl", &route.opencl.emit_opencl_source());
            write("gaspard/main.cpp", &gaspard::emit::emit_host_source(&route.opencl));
            write("gaspard/Makefile", &gaspard::emit::emit_makefile("downscaler"));
            write("gaspard/openmp.c", &gaspard::openmp::emit_openmp_source(&route.scheduled));
            if let Ok(g) = gaspard::transform::to_arrayol(&route.scheduled) {
                write("gaspard/downscaler.dot", &arrayol::dot::to_dot(&g, "Downscaler"));
            }
        }
        Err(e) => fail(format!("gaspard artefacts failed: {e}")),
    }
}

fn sweep() {
    println!("--- Frame-size sweep: sequential vs GPU per frame (non-generic SaC) ---");
    println!("{:>11} {:>12} {:>14} {:>16}", "frame", "seq (us)", "GPU kern (us)", "GPU+xfers (us)");
    match exp::sweep(&[1, 2, 4, 8, 15, 30, 60, 120]) {
        Ok(rows) => {
            let mut crossed_kern = None;
            let mut crossed_total = None;
            for r in &rows {
                println!(
                    "{:>5}x{:<5} {:>12.0} {:>14.0} {:>16.0}",
                    r.rows, r.cols, r.seq_us, r.gpu_kernels_us, r.gpu_total_us
                );
                if crossed_kern.is_none() && r.gpu_kernels_us < r.seq_us {
                    crossed_kern = Some((r.rows, r.cols));
                }
                if crossed_total.is_none() && r.gpu_total_us < r.seq_us {
                    crossed_total = Some((r.rows, r.cols));
                }
            }
            match crossed_kern {
                Some((r, c)) => println!("\nGPU kernels overtake sequential at ~{r}x{c}"),
                None => println!("\nGPU kernels never overtake in this range"),
            }
            match crossed_total {
                Some((r, c)) => {
                    println!("GPU including transfers overtakes at ~{r}x{c}")
                }
                None => println!("GPU including transfers never overtakes in this range"),
            }
            println!();
        }
        Err(e) => fail(format!("sweep failed: {e}")),
    }
}

fn summary(s: &Scenario) {
    println!("--- Summary (paper §VIII / §IX claims vs this reproduction) ---");
    match exp::kernel_counts(s) {
        Ok(k) => {
            println!(
                "kernels per frame:    Gaspard2 {}+{} (paper: 3+3)   SaC {}+{} (paper: 5+7)",
                k.gaspard.0, k.gaspard.1, k.sac.0, k.sac.1
            );
        }
        Err(e) => fail(format!("kernel counts failed: {e}")),
    }
    let (t1, t2, fig9) = match (exp::table1(s), exp::table2(s), exp::figure9(s)) {
        (Ok(a), Ok(b), Ok(c)) => (a, b, c),
        _ => {
            fail("summary incomplete");
            return;
        }
    };
    let transfers1 = (t1.rows[2].percent + t1.rows[3].percent).round();
    let transfers2 = (t2.rows[2].percent + t2.rows[3].percent).round();
    println!(
        "transfer share:       Gaspard2 {transfers1}% (paper: 56%)   SaC {transfers2}% (paper: 48%)"
    );
    println!(
        "totals:               Gaspard2 {:.2}s (paper: 2.86s)   SaC {:.2}s (paper: 3.43s)   ratio {:.2} (paper: 0.83)",
        t1.total_s,
        t2.total_s,
        t1.total_s / t2.total_s
    );
    let by = |label: &str| fig9.iter().find(|r| r.config == label).unwrap();
    let seq = by("SAC-Seq Non-Generic");
    let cng = by("SAC-CUDA Non-Generic");
    let cg = by("SAC-CUDA Generic");
    println!(
        "generic/non-generic:  H {:.1}x (paper: 4.5x)   V {:.1}x (paper: 3x)",
        cg.horizontal_s / cng.horizontal_s,
        cg.vertical_s / cng.vertical_s
    );
    println!(
        "GPU vs sequential:    H {:.1}x   V {:.1}x (paper: up to 11x)",
        seq.horizontal_s / cng.horizontal_s,
        seq.vertical_s / cng.vertical_s
    );
    println!();
}

fn ablations(s: &Scenario) {
    println!("--- Ablation: cost-model sensitivity (SaC total vs Gaspard2 total, s) ---");
    let base = Calibration::gtx480();
    let variants: Vec<(&str, Calibration)> = vec![
        ("baseline", base.clone()),
        (
            "launch x4 (SaC pays 12 launches/frame)",
            Calibration { kernel_launch_us: base.kernel_launch_us * 4.0, ..base.clone() },
        ),
        ("launch = 0", Calibration { kernel_launch_us: 0.0, ..base.clone() }),
        (
            "free L1 (cross-kernel reuse irrelevant)",
            Calibration { l1_access_ns: 0.0, ..base.clone() },
        ),
        (
            "L1 = DRAM (no intra-kernel reuse)",
            Calibration { l1_access_ns: base.dram_access_ns, ..base.clone() },
        ),
        (
            "2x PCIe bandwidth",
            Calibration {
                h2d_bytes_per_us: base.h2d_bytes_per_us * 2.0,
                d2h_bytes_per_us: base.d2h_bytes_per_us * 2.0,
                ..base.clone()
            },
        ),
    ];
    println!("{:<42} {:>10} {:>12} {:>8}", "calibration", "SaC", "Gaspard2", "ratio");
    for (label, calib) in variants {
        match exp::totals_with_calibration(s, calib) {
            Ok((sac, gaspard)) => {
                println!("{label:<42} {sac:>9.2}s {gaspard:>11.2}s {:>8.3}", gaspard / sac)
            }
            Err(e) => fail(format!("{label}: {e}")),
        }
    }
    println!();
    println!("--- Ablation: WITH-loop folding off (kernel counts / launches per frame) ---");
    for (label, cfg) in [
        ("WLF on (paper)", sac_lang::opt::OptConfig::default()),
        ("WLF off", sac_lang::opt::OptConfig { with_loop_folding: false, resolve_modulo: true }),
    ] {
        match downscaler::pipelines::build_sac(
            s,
            downscaler::sac_src::Variant::NonGeneric,
            downscaler::sac_src::Part::Full,
            &cfg,
        ) {
            Ok(route) => println!(
                "{label:<18} kernels/frame: {:>3}   host steps: {}",
                route.cuda.launches_per_run(),
                route.cuda.host_steps_per_run()
            ),
            Err(e) => fail(format!("{label}: {e}")),
        }
    }
    println!();
}
