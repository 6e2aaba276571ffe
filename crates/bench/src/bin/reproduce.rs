//! `reproduce` — regenerate every table and figure of the paper, and every
//! extension ablation.
//!
//! ```text
//! cargo run --release -p bench --bin reproduce [-- <command>] [--scenario hd1080|cif|tiny] [--json <path>]
//! cargo run --release -p bench --bin reproduce -- --list
//! ```
//!
//! `<command>` is an experiment of the registry (`--list` prints them), `all`
//! (the default: every experiment in registry order) or `emit-artifacts`
//! (writes the generated source trees under `generated/`). `--json <path>`
//! writes the one experiment's record.
//!
//! Exits 1 when an experiment fails or any verdict in its record is false
//! (for example a tuned winner whose outputs diverge from the CPU
//! reference), and 2 on a usage error.

use bench::exp::{self, REGISTRY};
use downscaler::Scenario;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Failures reported so far; any makes the process exit non-zero.
static FAILURES: AtomicUsize = AtomicUsize::new(0);

/// Report a failed experiment.
fn fail(msg: impl std::fmt::Display) {
    eprintln!("{msg}");
    FAILURES.fetch_add(1, Ordering::Relaxed);
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("reproduce: {problem}");
    }
    eprintln!(
        "usage: reproduce [<experiment>|all|emit-artifacts] [--scenario hd1080|cif|tiny] \
         [--json <path>]\n       reproduce --list"
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
                scenario = match args.next().as_deref() {
                    Some("hd1080") => Scenario::hd1080(),
                    Some("cif") => Scenario::cif(),
                    Some("tiny") => Scenario::tiny(),
                    _ => usage("--scenario takes hd1080, cif or tiny"),
                };
            }
            "--json" => {
                json_path = Some(args.next().unwrap_or_else(|| usage("--json needs a path")))
            }
            "--list" => {
                for e in REGISTRY {
                    println!("{}\t{}", e.name, e.title);
                }
                return;
            }
            "--help" | "-h" => usage(""),
            cmd if cmd == "all" || cmd == "emit-artifacts" || exp::find(cmd).is_some() => {
                command = cmd.to_string();
            }
            other => usage(&format!("unknown command or option '{other}'")),
        }
    }
    let experiments: Vec<&exp::Experiment> = match command.as_str() {
        "all" => REGISTRY.iter().collect(),
        "emit-artifacts" => Vec::new(),
        name => exp::find(name).into_iter().collect(),
    };
    if json_path.is_some() && experiments.len() != 1 {
        usage(&format!("--json writes one experiment's record, not '{command}'"));
    }

    let s = &scenario;
    println!(
        "== Reproduction of 'Harnessing the Power of GPUs without Losing Abstractions' ==\n\
         scenario: {} ({}x{}x{} pixels, {} frames)\n",
        s.name, s.channels, s.rows, s.cols, s.frames
    );
    for e in experiments {
        println!("--- {} ---", e.title);
        let fields = match (e.run)(s) {
            Ok(fields) => fields,
            Err(err) => {
                fail(format!("{} failed: {err}", e.name));
                continue;
            }
        };
        println!("{}", fields.render_text());
        for path in fields.failures() {
            fail(format!("{}: verdict `{path}` is false", e.name));
        }
        if let Some(path) = &json_path {
            match std::fs::write(path, e.full_record(s, fields).render_json()) {
                Ok(()) => println!("wrote {path}"),
                Err(err) => fail(format!("writing {path} failed: {err}")),
            }
        }
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

/// Write the generated source trees (what GASPARD2's "execute the OpenCL
/// chain" button produces: `.cpp`, `.cl`, makefile — and the SaC analogues)
/// under `generated/`.
fn emit_artifacts(s: &Scenario) {
    use downscaler::pipelines::{build_gaspard, build_sac};
    use downscaler::sac_src::{Part, Variant};
    let write = |rel: &str, content: &str| {
        let path = std::path::Path::new("generated").join(rel);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, content));
        match written {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => fail(format!("writing {} failed: {e}", path.display())),
        }
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
            match gaspard::transform::to_arrayol(&route.scheduled) {
                Ok(g) => write("gaspard/downscaler.dot", &arrayol::dot::to_dot(&g, "Downscaler")),
                Err(e) => fail(format!("gaspard DOT graph failed: {e}")),
            }
        }
        Err(e) => fail(format!("gaspard artefacts failed: {e}")),
    }
}
