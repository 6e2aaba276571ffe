//! WITH-loop folding under a microscope.
//!
//! ```sh
//! cargo run --release --example wlf_explorer
//! ```
//!
//! Compiles the non-generic horizontal filter twice — once with WLF enabled,
//! once without — and prints the flat programs, kernel counts and simulated
//! timing difference, reproducing in miniature the optimisation the paper's
//! §VII builds its analysis on (and the Figure 8 artefact).

use gpu_abstractions::{downscaler, sac_cuda, sac_lang, simgpu};

use downscaler::pipelines::build_sac;
use downscaler::sac_src::{Part, Variant};
use downscaler::{FrameGenerator, Scenario};
use sac_cuda::exec::lower_plan;
use sac_lang::opt::OptConfig;
use simgpu::device::Device;
use simgpu::{run_plan, ExecOptions};

fn main() {
    let s = Scenario::cif();
    let frame = FrameGenerator::new(s.channels, s.rows, s.cols, 7).frame_rank3(0);

    let folded = build_sac(&s, Variant::NonGeneric, Part::Horizontal, &OptConfig::default())
        .expect("folded route");
    let unfolded = build_sac(
        &s,
        Variant::NonGeneric,
        Part::Horizontal,
        &OptConfig { with_loop_folding: false, resolve_modulo: true },
    )
    .expect("unfolded route");

    println!("=== WITH-loop folding: ON (the paper's compiler) ===");
    println!(
        "folds: {}, boundary splits: {}, kernels: {}\n",
        folded.report.fold.folds,
        folded.report.generators_after_split - folded.report.generators_before_split,
        folded.cuda.launches_per_run()
    );
    println!("{}", folded.flat);

    println!("=== WITH-loop folding: OFF ===");
    println!(
        "kernels: {} (three separate passes with intermediate arrays)\n",
        unfolded.cuda.launches_per_run()
    );
    for (i, step) in unfolded.flat.steps.iter().enumerate() {
        if let sac_lang::wir::Step::With { target, with } = step {
            println!(
                "  step {i}: {} = with-loop over {:?} ({} generators)",
                unfolded.flat.arrays[*target].name,
                with.shape,
                with.generators.len()
            );
        }
    }
    println!();

    // Execute both on fresh devices and compare simulated time + memory.
    let frames = [vec![frame]];
    let opts = ExecOptions::default();
    let mut d1 = Device::gtx480();
    let (out1, _) =
        run_plan(lower_plan(&folded.cuda, 0).unwrap(), &mut d1, &frames, &opts).unwrap();
    let mut d2 = Device::gtx480();
    let (out2, _) =
        run_plan(lower_plan(&unfolded.cuda, 0).unwrap(), &mut d2, &frames, &opts).unwrap();
    assert_eq!(out1, out2, "folding must not change results");

    println!("simulated GPU time per frame:");
    println!("  folded:   {:>9.1} us ({} launches)", d1.now_us(), folded.cuda.launches_per_run());
    println!("  unfolded: {:>9.1} us ({} launches)", d2.now_us(), unfolded.cuda.launches_per_run());
    println!("peak device memory:");
    println!("  folded:   {:>9.1} KiB", d1.peak_allocated_bytes() as f64 / 1024.0);
    println!(
        "  unfolded: {:>9.1} KiB (intermediate tile arrays materialised)",
        d2.peak_allocated_bytes() as f64 / 1024.0
    );
    println!(
        "\nWLF avoids materialising the intermediate tile arrays ({} fewer arrays on the device)\nand saves {:.1}% of simulated time — the paper's \"avoids expensive data copy and\nenables better data reuse\".",
        unfolded.flat.arrays.len() - folded.flat.arrays.len(),
        (1.0 - d1.now_us() / d2.now_us()) * 100.0
    );
}
