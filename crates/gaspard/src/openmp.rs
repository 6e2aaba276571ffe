//! The chain's OpenMP target.
//!
//! GASPARD2 "allows us to generate code for a few target languages and
//! platforms such as OpenMP, SystemC, VHDL, Pthread and OPENCL" (§V.C). This
//! module implements the shared-memory CPU target: the scheduled model is
//! executed with the ArrayOL executor's parallel repetition sweep (the moral
//! equivalent of `#pragma omp parallel for` over the repetition space), and
//! the corresponding C source is emitted for inspection.

use crate::model::ElementaryOp;
use crate::transform::{to_arrayol, ScheduledKernel, ScheduledModel};
use crate::GaspardError;
use arrayol::exec::{execute, ExecOptions};
use mdarray::NdArray;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Execute the scheduled model on the host with `workers` threads
/// (0 = available cores). Returns one array per sink, in model order.
pub fn run_openmp(
    sm: &ScheduledModel,
    inputs: &[NdArray<i64>],
    workers: usize,
) -> Result<Vec<NdArray<i64>>, GaspardError> {
    if inputs.len() != sm.inputs.len() {
        return Err(GaspardError::BadInput {
            msg: format!("expected {} inputs, got {}", sm.inputs.len(), inputs.len()),
        });
    }
    let g = to_arrayol(sm)?;
    let mut bound = HashMap::new();
    for (&id, arr) in g.external_inputs.iter().zip(inputs) {
        bound.insert(id, arr.clone());
    }
    let outs = execute(&g, &bound, &ExecOptions { parallel: true, workers })
        .map_err(|e| GaspardError::Invalid { element: "openmp run".into(), msg: e.to_string() })?;
    g.external_outputs
        .iter()
        .map(|id| {
            outs.get(id).cloned().ok_or_else(|| GaspardError::BadInput {
                msg: "sink array missing after execution".into(),
            })
        })
        .collect()
}

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
    let rep: u64 = k.repetition.iter().map(|&r| r as u64).product();
    let _ = writeln!(out, "void {}(const int* {in_name}, int* {out_name}) {{", k.name);
    let _ = writeln!(out, "  #pragma omp parallel for schedule(static)");
    let _ = writeln!(out, "  for (long r = 0; r < {rep}L; r++) {{");
    // Repetition index components, dimension 0 fastest (as the OpenCL flavour).
    let mut div = String::from("r");
    for (d, &extent) in k.repetition.iter().enumerate() {
        if d + 1 < k.repetition.len() {
            let _ = writeln!(out, "    long tl{d} = {div} % {extent};");
            div = format!("(r / {extent})", extent = extent);
        } else {
            let _ = writeln!(out, "    long tl{d} = {div};");
        }
    }
    let pattern_len: usize = k.in_pattern.iter().product();
    let _ = writeln!(out, "    int pattern[{pattern_len}];");
    let _ = writeln!(
        out,
        "    gather_tile(pattern, {in_name} /* origin {:?}, paving {:?} */);",
        k.in_tiler.origin, k.in_tiler.paving
    );
    match &k.op {
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
        k.out_tiler.origin, k.out_tiler.paving
    );
    out.push_str("  }\n}\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::generate_opencl;
    use crate::fixtures::mini_two_stage_model;
    use crate::model::Platform;
    use crate::transform::{deploy, schedule};
    use simgpu::device::Device;

    fn scheduled() -> ScheduledModel {
        let (model, alloc) = mini_two_stage_model();
        let dep = deploy(model, Platform::cpu_gpu(), alloc).unwrap();
        schedule(&dep).unwrap()
    }

    #[test]
    fn openmp_target_matches_opencl_target() {
        let sm = scheduled();
        let frame = NdArray::from_fn([4usize, 16], |ix| ((ix[0] * 7 + ix[1]) % 100) as i64);

        let omp = run_openmp(&sm, std::slice::from_ref(&frame), 3).unwrap();

        let opencl = generate_opencl(&sm).unwrap();
        let mut device = Device::gtx480();
        let plan = crate::exec::lower_plan(&opencl);
        let (mut ocl, _) =
            simgpu::run_plan(plan, &mut device, &[vec![frame]], &simgpu::ExecOptions::default())
                .unwrap();
        assert_eq!(omp, ocl.pop().unwrap(), "two targets, one model, one result");
    }

    #[test]
    fn worker_counts_agree() {
        let sm = scheduled();
        let frame = NdArray::from_fn([4usize, 16], |ix| (ix[0] * 16 + ix[1]) as i64);
        let one = run_openmp(&sm, std::slice::from_ref(&frame), 1).unwrap();
        let many = run_openmp(&sm, std::slice::from_ref(&frame), 8).unwrap();
        let auto = run_openmp(&sm, std::slice::from_ref(&frame), 0).unwrap();
        assert_eq!(one, many);
        assert_eq!(one, auto);
    }

    #[test]
    fn emitted_source_has_openmp_pragmas() {
        let src = emit_openmp_source(&scheduled());
        assert!(src.contains("#pragma omp parallel for"), "{src}");
        assert!(src.contains("void s1("), "{src}");
        assert!(src.contains("void s2("), "{src}");
        assert!(src.contains("t0 / 3 - t0 % 3"), "{src}");
    }

    #[test]
    fn input_arity_checked() {
        let sm = scheduled();
        assert!(matches!(run_openmp(&sm, &[], 1), Err(GaspardError::BadInput { .. })));
    }
}
