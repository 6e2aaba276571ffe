//! The chain's OpenMP target.
//!
//! GASPARD2 "allows us to generate code for a few target languages and
//! platforms such as OpenMP, SystemC, VHDL, Pthread and OPENCL" (§V.C). This
//! module emits the shared-memory CPU target as C source: one
//! `#pragma omp parallel for` over each task's repetition space. The source
//! is written for inspection and never executed; the OpenCL target is the
//! one the simulator runs.

use crate::transform::{ScheduledKernel, ScheduledModel};
use arrayol::{ElementaryOp, IMat};
use std::fmt::Write as _;

/// Emit the OpenMP C source for the scheduled model.
pub fn emit_openmp_source(sm: &ScheduledModel) -> String {
    let mut out = String::new();
    out.push_str("// Generated by the GASPARD2 OpenMP chain (one parallel loop per task).\n");
    out.push_str("#include <omp.h>\n\n");
    for k in &sm.kernels {
        emit_task(sm, k, &mut out);
        out.push('\n');
    }
    out
}

fn emit_task(sm: &ScheduledModel, k: &ScheduledKernel, out: &mut String) {
    let in_name = sm.arrays[k.input].name.replace(['.', '-'], "_");
    let out_name = sm.arrays[k.output].name.replace(['.', '-'], "_");
    let a = &k.access;
    let rep: u64 = a.repetition.iter().map(|&r| r as u64).product();
    let _ = writeln!(out, "void {}(const int* {in_name}, int* {out_name}) {{", k.name);
    let _ = writeln!(out, "  #pragma omp parallel for schedule(static)");
    let _ = writeln!(out, "  for (long r = 0; r < {rep}L; r++) {{");
    // Repetition index components, dimension 0 fastest (as the OpenCL flavour).
    let mut div = String::from("r");
    for (d, &extent) in a.repetition.iter().enumerate() {
        if d + 1 < a.repetition.len() {
            let _ = writeln!(out, "    long tl{d} = {div} % {extent};");
            div = format!("(r / {extent})", extent = extent);
        } else {
            let _ = writeln!(out, "    long tl{d} = {div};");
        }
    }
    let pattern_len: usize = a.in_pattern.iter().product();
    let _ = writeln!(out, "    int pattern[{pattern_len}];");
    let _ = writeln!(
        out,
        "    gather_tile(pattern, {in_name} /* origin {:?}, paving {:?} */);",
        a.in_tiler.origin,
        rows(&a.in_tiler.paving)
    );
    match &a.op {
        ElementaryOp::InterpolateWindows { windows, divisor } => {
            for (i, w) in windows.iter().enumerate() {
                let terms: Vec<String> =
                    (w.offset..w.offset + w.len).map(|p| format!("pattern[{p}]")).collect();
                let _ = writeln!(out, "    int t{i} = {};", terms.join(" + "));
                let _ = writeln!(out, "    int o{i} = t{i} / {divisor} - t{i} % {divisor};");
            }
        }
        ElementaryOp::AffineMap { mul, add } => {
            let _ = writeln!(
                out,
                "    for (int p = 0; p < {pattern_len}; p++) {{ int o = pattern[p] * {mul} + {add}; (void)o; }}"
            );
        }
        ElementaryOp::SumReduce => {
            let _ = writeln!(out, "    int o0 = 0;");
            let _ = writeln!(out, "    for (int p = 0; p < {pattern_len}; p++) o0 += pattern[p];");
        }
        ElementaryOp::WeightedSum { weights } => {
            let terms: Vec<String> =
                weights
                    .iter()
                    .enumerate()
                    .filter(|(_, &w)| w != 0)
                    .map(|(p, &w)| {
                        if w == 1 {
                            format!("pattern[{p}]")
                        } else {
                            format!("{w} * pattern[{p}]")
                        }
                    })
                    .collect();
            let expr = if terms.is_empty() { "0".into() } else { terms.join(" + ") };
            let _ = writeln!(out, "    int o0 = {expr};");
        }
        ElementaryOp::Copy => {
            let _ = writeln!(out, "    /* copy pattern through */");
        }
        ElementaryOp::Composed { inner_count, inner_in_len, outer_gathers, .. } => {
            let _ = writeln!(
                out,
                "    /* fused stage: {inner_count} inner applications over \
                 {inner_in_len}-element chunks feed {} outer applications */",
                outer_gathers.len()
            );
        }
    }
    let _ = writeln!(
        out,
        "    scatter_tile({out_name} /* origin {:?}, paving {:?} */);",
        a.out_tiler.origin,
        rows(&a.out_tiler.paving)
    );
    out.push_str("  }\n}\n");
}

/// A matrix as its list of rows, so `{:?}` prints `[[1, 0], [0, 8]]`.
fn rows(m: &IMat) -> Vec<&[i64]> {
    (0..m.rows()).map(|r| m.row(r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::mini_two_stage_model;
    use crate::model::Platform;
    use crate::transform::{deploy, schedule};

    fn scheduled() -> ScheduledModel {
        let (model, alloc) = mini_two_stage_model();
        let dep = deploy(model, Platform::cpu_gpu(), alloc).unwrap();
        schedule(&dep).unwrap()
    }

    #[test]
    fn emitted_source_has_openmp_pragmas() {
        let src = emit_openmp_source(&scheduled());
        assert!(src.contains("#pragma omp parallel for"), "{src}");
        assert!(src.contains("void s1("), "{src}");
        assert!(src.contains("void s2("), "{src}");
        assert!(src.contains("t0 / 3 - t0 % 3"), "{src}");
        // The tiler comments print each matrix as its list of rows.
        let tile_lines: Vec<&str> = src.lines().filter(|l| l.contains("_tile(")).collect();
        assert_eq!(
            tile_lines,
            [
                "    gather_tile(pattern, src_frame /* origin [0, 0], paving [[1, 0], [0, 4]] */);",
                "    scatter_tile(s1_fout /* origin [0, 0], paving [[1, 0], [0, 2]] */);",
                "    gather_tile(pattern, s1_fout /* origin [0, 0], paving [[1, 0], [0, 4]] */);",
                "    scatter_tile(s2_fout /* origin [0, 0], paving [[1, 0], [0, 2]] */);",
            ]
        );
    }
}
