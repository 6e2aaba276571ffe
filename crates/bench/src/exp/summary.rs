//! The paper's §VIII/§IX claims next to this reproduction's numbers: the
//! kernel counts, Tables I/II, Figures 9 and 12, and the ratios the paper
//! quotes.

use super::fig12::fig12_record;
use super::fig9::{fig9_record, figure9, Fig9Row};
use super::table1::{table1, ProfileTable};
use super::table2::table2;
use super::{config_err, Experiment};
use crate::record;
use crate::record::Record;
use downscaler::pipelines::{build_gaspard, build_sac, PipelineError};
use downscaler::sac_src::{Part, Variant};
use downscaler::Scenario;

/// The `summary` command.
pub const EXPERIMENT: Experiment = Experiment {
    name: "summary",
    title: "Summary: paper §VIII/§IX claims vs this reproduction",
    run,
};

fn run(s: &Scenario) -> Result<Record, PipelineError> {
    // Kernels per filter: GASPARD2 emits one per task, the SaC backend one
    // per generator of the folded WITH-loop (paper: 3+3 and 5+7).
    let g = build_gaspard(s)?;
    let gaspard_kernels = |prefix: &str| {
        g.opencl.kernels.iter().filter(|k| k.kernel.name.starts_with(prefix)).count()
    };
    let sac_kernels = |part: Part| -> Result<usize, PipelineError> {
        Ok(build_sac(s, Variant::NonGeneric, part, &Default::default())?
            .report
            .generators_after_split)
    };
    let counts = [
        ("gaspard", gaspard_kernels("hf_"), gaspard_kernels("vf_"), 3usize, 3usize),
        ("sac", sac_kernels(Part::Horizontal)?, sac_kernels(Part::Vertical)?, 5, 7),
    ];
    let kernels: Record = counts
        .iter()
        .map(|&(route, h, v, paper_h, paper_v)| {
            record! {
                "route": route,
                "horizontal": h,
                "vertical": v,
                "paper_horizontal": paper_h,
                "paper_vertical": paper_v,
            }
        })
        .collect();
    let (t1, t2, fig9) = (table1(s)?, table2(s)?, figure9(s)?);
    Ok(record! {
        "kernels": kernels,
        "kernel_counts_match_paper": Record::Verdict(
            counts.iter().all(|&(_, h, v, paper_h, paper_v)| (h, v) == (paper_h, paper_v))
        ),
        "table1": t1.record(),
        "table2": t2.record(),
        "fig9": fig9_record(&fig9),
        "fig12": fig12_record(&t1, &t2),
        "ratios": ratios(&t1, &t2, &fig9)?,
    })
}

/// The ratios the paper quotes, each next to the paper's value.
fn ratios(t1: &ProfileTable, t2: &ProfileTable, fig9: &[Fig9Row]) -> Result<Record, PipelineError> {
    let by = |label: &str| {
        fig9.iter()
            .find(|r| r.config == label)
            .ok_or_else(|| config_err(format!("Figure 9 has no {label} row")))
    };
    let (seq, cng, cg) =
        (by("SAC-Seq Non-Generic")?, by("SAC-CUDA Non-Generic")?, by("SAC-CUDA Generic")?);
    let transfers = |t: &ProfileTable| t.rows[2].percent + t.rows[3].percent;
    Ok([
        ("Gaspard2 transfer share, %", transfers(t1), 56.0),
        ("SaC transfer share, %", transfers(t2), 48.0),
        ("Gaspard2 total, s", t1.total_s, 2.86),
        ("SaC total, s", t2.total_s, 3.43),
        ("Gaspard2 / SaC total", t1.total_s / t2.total_s, 0.83),
        ("CUDA generic / non-generic, H", cg.horizontal_s / cng.horizontal_s, 4.5),
        ("CUDA generic / non-generic, V", cg.vertical_s / cng.vertical_s, 3.0),
        (
            "sequential / CUDA non-generic, H (paper: up to)",
            seq.horizontal_s / cng.horizontal_s,
            11.0,
        ),
        ("sequential / CUDA non-generic, V (paper: up to)", seq.vertical_s / cng.vertical_s, 11.0),
    ]
    .into_iter()
    .map(|(claim, ours, paper)| record! { "claim": claim, "ours": ours, "paper": paper })
    .collect())
}
