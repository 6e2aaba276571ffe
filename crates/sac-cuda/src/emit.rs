//! Host-side CUDA C emission.
//!
//! [`crate::codegen`] produces kernels (emitted by `Kernel::emit_source`) and
//! an execution plan; this module renders the plan as the host `main.cu` a
//! real backend would generate — `cudaMalloc`/`cudaMemcpy` per transfer-plan
//! operation, one `<<<grid, block>>>` launch per kernel, host-fallback stubs
//! for unlowerable steps — plus a makefile, completing the artefact set.

use crate::codegen::CudaProgram;
use sac_lang::wir::Step;
use simgpu::schedule::PlanStep;
use std::fmt::Write as _;

/// Render the host program (`main.cu`) for a compiled plan.
pub fn emit_host_source(prog: &CudaProgram) -> String {
    let flat = &prog.flat;
    let mut out = String::new();
    out.push_str("// Generated by the SaC -> CUDA backend: host driver.\n");
    out.push_str("#include <cuda_runtime.h>\n#include <stdio.h>\n#include <stdlib.h>\n\n");
    out.push_str("#include \"kernels.cu\"\n\n");

    // Host fallback prototypes (interpreted in the simulator; extern here).
    for step in &flat.steps {
        if let Step::Host { fun, .. } = step {
            let _ = writeln!(out, "extern void {}(/* host fallback */);", fun.name);
        }
    }
    out.push('\n');

    let params: Vec<String> =
        flat.inputs.iter().map(|&id| format!("const int* h_{}", name(prog, id))).collect();
    let _ = writeln!(out, "int process_frame({}) {{", params.join(", "));
    // Declarations for every array that appears in the plan.
    let mut declared = vec![false; flat.arrays.len()];
    for op in &prog.plan {
        let id = match op {
            PlanStep::Upload { array, .. }
            | PlanStep::Alloc { array }
            | PlanStep::Download { array, .. } => Some(*array),
            _ => None,
        };
        if let Some(id) = id {
            if !declared[id] {
                declared[id] = true;
                let len: usize = flat.arrays[id].shape.iter().product();
                let _ = writeln!(
                    out,
                    "    int* d_{}; cudaMalloc(&d_{}, {}u * sizeof(int));",
                    name(prog, id),
                    name(prog, id),
                    len
                );
            }
        }
    }
    out.push('\n');

    for op in &prog.plan {
        match op {
            PlanStep::Upload { array, .. } => {
                let len: usize = flat.arrays[*array].shape.iter().product();
                let n = name(prog, *array);
                let _ = writeln!(
                    out,
                    "    cudaMemcpyAsync(d_{n}, h_{n}, {len}u * sizeof(int), cudaMemcpyHostToDevice);"
                );
            }
            PlanStep::Alloc { .. } => {} // declared above
            PlanStep::Launch { kernel } => {
                let ck = &prog.kernels[*kernel];
                let args: Vec<String> =
                    ck.buffers.iter().map(|&a| format!("d_{}", name(prog, a))).collect();
                let _ = writeln!(
                    out,
                    "    {}<<<{}, {}>>>({});",
                    ck.kernel.name,
                    ck.config.grid.0,
                    ck.config.block.0,
                    args.join(", ")
                );
            }
            PlanStep::Download { array, .. } => {
                let len: usize = flat.arrays[*array].shape.iter().product();
                let n = name(prog, *array);
                let _ = writeln!(out, "    int* h_{n} = (int*)malloc({len}u * sizeof(int));");
                let _ = writeln!(
                    out,
                    "    cudaMemcpyAsync(h_{n}, d_{n}, {len}u * sizeof(int), cudaMemcpyDeviceToHost);"
                );
            }
            PlanStep::Host { op } => {
                if let Step::Host { fun, reason, .. } = &flat.steps[*op] {
                    let _ = writeln!(out, "    cudaDeviceSynchronize();");
                    let _ = writeln!(out, "    {}(/* {} */);", fun.name, reason);
                }
            }
            // Batched transfers are a planopt rewrite; codegen never emits them.
            PlanStep::UploadBatch { .. } | PlanStep::DownloadBatch { .. } => {}
        }
    }
    out.push_str("    cudaDeviceSynchronize();\n    return 0;\n}\n");
    out
}

fn name(prog: &CudaProgram, id: usize) -> String {
    prog.flat
        .arrays
        .get(id)
        .map(|a| a.name.replace(['.', '-'], "_"))
        .unwrap_or_else(|| format!("arr{id}"))
}

/// A makefile for the emitted sources (`nvcc`, `-O3` as in §VIII).
pub fn emit_makefile(program_name: &str) -> String {
    format!(
        "# Generated makefile (CUDA 3.1 toolchain per the paper's setup)\n\
         NVCC ?= nvcc\n\
         NVCCFLAGS ?= -O3 -arch=sm_20\n\n\
         {program_name}: main.cu kernels.cu\n\
         \t$(NVCC) $(NVCCFLAGS) -o $@ main.cu\n\n\
         clean:\n\
         \trm -f {program_name}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::compile_flat_program;
    use sac_lang::opt::{optimize, ArgDesc, OptConfig};

    fn host_src(sac: &str, shape: Vec<usize>) -> String {
        let prog = sac_lang::parse_program(sac).unwrap();
        let (flat, _) = optimize(
            &prog,
            "main",
            &[ArgDesc::Array { name: "a".into(), shape }],
            &OptConfig::default(),
        )
        .unwrap();
        emit_host_source(&compile_flat_program(&flat).unwrap())
    }

    #[test]
    fn emits_transfers_and_launches() {
        let src = host_src(
            r#"
int[*] main(int[8,8] a)
{
    out = with { (. <= iv <= .) : a[iv] * 2; } : genarray( [8,8], 0);
    return( out);
}
"#,
            vec![8, 8],
        );
        assert!(src.contains("cudaMalloc"), "{src}");
        assert!(src.contains("cudaMemcpyHostToDevice"), "{src}");
        assert!(src.contains("cudaMemcpyDeviceToHost"), "{src}");
        assert!(src.contains("out_k0<<<"), "{src}");
    }

    #[test]
    fn host_fallback_appears_with_sync() {
        let src = host_src(
            r#"
int[*] main(int[8] a)
{
    d = with { (. <= iv <= .) : a[iv] * 2; } : genarray( [8], 0);
    out = with { (. <= iv <= .) : 0; } : genarray( [8]);
    for( i=0; i< 8; i++) {
        out[[i]] = d[[i]];
    }
    return( out);
}
"#,
            vec![8],
        );
        assert!(src.contains("cudaDeviceSynchronize"), "{src}");
        assert!(src.contains("__host_step_"), "{src}");
        assert!(src.contains("stays on the host"), "{src}");
    }

    #[test]
    fn makefile_uses_nvcc_o3() {
        let mk = emit_makefile("downscaler");
        assert!(mk.contains("nvcc"));
        assert!(mk.contains("-O3"));
        assert!(mk.contains("downscaler: main.cu"));
    }
}
