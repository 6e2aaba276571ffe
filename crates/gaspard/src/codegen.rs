//! Model-to-text: OpenCL code generation.
//!
//! GASPARD2's final phase instantiates text templates over the scheduled
//! model. Per the paper there is **no optimisation here** — each scheduled
//! elementary task instance becomes exactly one OpenCL kernel whose body:
//!
//! 1. derives the repetition index `tlIter` from the work-item global id
//!    (`tlIter[0] = iGID % rep0; tlIter[1] = iGID / rep0` — Figure 11),
//! 2. computes the tile's reference point from the paving matrix,
//! 3. loads the input pattern element-by-element through the fitting matrix
//!    (the generated gather of Figure 11), keeping it in private registers,
//! 4. applies the elementary IP's arithmetic,
//! 5. scatters the output pattern through the output tiler.
//!
//! The kernel is emitted both as executable IR (for [`simgpu`]) and OpenCL C
//! text ([`OpenClProgram::emit_opencl_source`]).

use crate::transform::{ScheduledKernel, ScheduledModel};
use crate::GaspardError;
use simgpu::exec::LaunchConfig;
use simgpu::kir::{Kernel, KernelFlavor};

// The template instantiation itself now lives in [`simgpu::tiled`], shared
// with the plan-level fusion pass so both routes emit identical kernel IR
// for identical accesses; these re-exports keep the historical paths.
pub use simgpu::tiled::{MAX_PATTERN_UNROLL, WORK_GROUP_SIZE};

/// One generated kernel plus launch metadata.
#[derive(Debug, Clone)]
pub struct OpenClKernel {
    /// Executable kernel IR (OpenCL flavour).
    pub kernel: Kernel,
    /// Input array id (scheduled-model numbering).
    pub input: usize,
    /// Output array id.
    pub output: usize,
    /// Work items required (repetition-space size).
    pub work_items: u64,
    /// Launch configuration.
    pub config: LaunchConfig,
}

/// A generated OpenCL program: kernels in execution order plus array info.
#[derive(Debug, Clone)]
pub struct OpenClProgram {
    /// The scheduled model it was generated from.
    pub model: ScheduledModel,
    /// Kernels in execution order (one per scheduled task).
    pub kernels: Vec<OpenClKernel>,
}

impl OpenClProgram {
    /// Emit every kernel as OpenCL C source.
    pub fn emit_opencl_source(&self) -> String {
        let mut out = String::new();
        out.push_str("// Generated by the GASPARD2 OpenCL chain (one kernel per task).\n\n");
        for k in &self.kernels {
            out.push_str(&k.kernel.emit_source());
            out.push('\n');
        }
        out
    }
}

/// Generate OpenCL kernels for every scheduled task.
pub fn generate_opencl(sm: &ScheduledModel) -> Result<OpenClProgram, GaspardError> {
    let kernels =
        sm.kernels.iter().map(|k| generate_kernel(sm, k)).collect::<Result<Vec<_>, _>>()?;
    Ok(OpenClProgram { model: sm.clone(), kernels })
}

fn generate_kernel(sm: &ScheduledModel, k: &ScheduledKernel) -> Result<OpenClKernel, GaspardError> {
    let tk = simgpu::tiled::generate_tiled_kernel(
        &k.name,
        &k.access,
        &sm.arrays[k.input].shape,
        &sm.arrays[k.output].shape,
        KernelFlavor::OpenCl,
    )
    .map_err(|msg| GaspardError::Invalid { element: k.name.clone(), msg })?;
    Ok(OpenClKernel {
        kernel: tk.kernel,
        input: k.input,
        output: k.output,
        work_items: tk.work_items,
        config: tk.config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::mini_two_stage_model;
    use crate::model::Platform;
    use crate::transform::{deploy, schedule};

    fn program() -> OpenClProgram {
        let (model, alloc) = mini_two_stage_model();
        let dep = deploy(model, Platform::cpu_gpu(), alloc).unwrap();
        let sm = schedule(&dep).unwrap();
        generate_opencl(&sm).unwrap()
    }

    #[test]
    fn one_kernel_per_task() {
        let p = program();
        assert_eq!(p.kernels.len(), 2);
        assert_eq!(p.kernels[0].kernel.name, "s1");
        assert_eq!(p.kernels[1].kernel.name, "s2");
        assert_eq!(p.kernels[0].work_items, 16); // 4x4 repetitions
    }

    #[test]
    fn kernels_use_opencl_flavour() {
        let p = program();
        let src = p.emit_opencl_source();
        assert!(src.contains("__kernel void s1"), "{src}");
        assert!(src.contains("get_global_id(0)"), "{src}");
        assert!(src.contains("__global"), "{src}");
    }

    #[test]
    fn pattern_is_loaded_once_per_element() {
        // 5-element pattern -> exactly 5 loads in the kernel body.
        let p = program();
        fn count_loads(instrs: &[simgpu::kir::Instr]) -> usize {
            instrs
                .iter()
                .map(|i| match i {
                    simgpu::kir::Instr::Load { .. } => 1,
                    simgpu::kir::Instr::For { body, .. } => count_loads(body),
                    simgpu::kir::Instr::If { then, els, .. } => {
                        count_loads(then) + count_loads(els)
                    }
                    _ => 0,
                })
                .sum()
        }
        assert_eq!(count_loads(&p.kernels[0].kernel.body), 5);
    }

    #[test]
    fn oversized_patterns_are_rejected() {
        let (model, alloc) = mini_two_stage_model();
        let dep = deploy(model, Platform::cpu_gpu(), alloc).unwrap();
        let mut sm = schedule(&dep).unwrap();
        sm.kernels[0].access.in_pattern = vec![10_000];
        assert!(matches!(generate_opencl(&sm), Err(GaspardError::Invalid { .. })));
    }
}

#[cfg(test)]
mod rank2_pattern_tests {
    use super::*;
    use crate::transform::{ScheduledArray, ScheduledKernel, ScheduledModel};
    use arrayol::access::TiledAccess;
    use arrayol::{ElementaryOp, IMat, Tiler};
    use mdarray::NdArray;
    use simgpu::device::Device;
    use simgpu::kir::KernelArg;

    /// Rank-2 patterns unroll correctly: a 2x2 block Copy kernel built
    /// directly at the scheduled-model level (the MARTE validator restricts
    /// elementary IPs to rank-1 patterns, but the code generator itself is
    /// rank-polymorphic).
    #[test]
    fn rank2_block_copy_kernel() {
        let sm = ScheduledModel {
            arrays: vec![
                ScheduledArray { name: "in".into(), shape: vec![4, 4] },
                ScheduledArray { name: "out".into(), shape: vec![4, 4] },
            ],
            kernels: vec![ScheduledKernel {
                name: "blockcopy".into(),
                input: 0,
                output: 1,
                access: TiledAccess {
                    repetition: vec![2, 2],
                    in_pattern: vec![2, 2],
                    in_tiler: Tiler::new(
                        vec![0, 0],
                        IMat::identity(2),
                        IMat::from_rows(&[&[2, 0], &[0, 2]]),
                    ),
                    out_pattern: vec![2, 2],
                    out_tiler: Tiler::new(
                        vec![0, 0],
                        IMat::identity(2),
                        IMat::from_rows(&[&[2, 0], &[0, 2]]),
                    ),
                    op: ElementaryOp::Copy,
                },
            }],
            inputs: vec![0],
            outputs: vec![1],
        };
        let prog = generate_opencl(&sm).unwrap();
        assert_eq!(prog.kernels[0].work_items, 4);

        let input = NdArray::from_fn([4usize, 4], |ix| (ix[0] * 4 + ix[1]) as i64);
        let mut device = Device::gtx480();
        let inb = device.malloc(16).unwrap();
        let host: Vec<i32> = input.as_slice().iter().map(|&v| v as i32).collect();
        device.host2device(&host, inb).unwrap();
        let outb = device.malloc(16).unwrap();
        device
            .launch(
                &prog.kernels[0].kernel,
                prog.kernels[0].config,
                &[KernelArg::Buffer(outb.0), KernelArg::Buffer(inb.0)],
            )
            .unwrap();
        let got = device.peek(outb).unwrap();
        let expect: Vec<i32> = input.as_slice().iter().map(|&v| v as i32).collect();
        assert_eq!(got, expect.as_slice());
    }
}
