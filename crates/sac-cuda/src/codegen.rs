//! Kernel generation: one CUDA kernel per WITH-loop generator.
//!
//! "We outline each WITH-loop generator as a kernel function and replace it
//! by the corresponding invocation. Kernel configurations are derived from
//! the generator bounds. Code of each generator becomes the function body."
//! (§VII)
//!
//! A generator covering `P` lattice points becomes a 1-D launch of at least
//! `P` threads; each thread decomposes its flattened id into the generator's
//! index vector, evaluates the (scalar) body, and stores to the linearised
//! target cell. Euclidean `%` from the source language is emitted as the
//! `((a % n) + n) % n` wrap sequence, exactly as a C backend would.

use crate::CudaError;
use sac_lang::ast::BinKind;
use sac_lang::wir::{FlatGen, FlatProgram, Step, SymExpr};
use simgpu::exec::LaunchConfig;
use simgpu::kir::{BinOp, Kernel, KernelBuilder, KernelFlavor, Reg, Special};
use simgpu::schedule::PlanStep;

/// Default threads per block for generated kernels (a typical CUDA choice).
pub const BLOCK_SIZE: u32 = 256;

/// A generator compiled to a kernel plus its launch metadata.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The executable kernel IR.
    pub kernel: Kernel,
    /// Index of the producing step in the flat program.
    pub step_index: usize,
    /// Generator index within that step.
    pub gen_index: usize,
    /// Target array id.
    pub target: usize,
    /// Arrays bound to the kernel's buffer parameters, in parameter order.
    /// The *first* entry is always the (writable) target.
    pub buffers: Vec<usize>,
    /// Lattice points the kernel must cover.
    pub points: u64,
    /// Launch configuration derived from the generator bounds.
    pub config: LaunchConfig,
}

/// A fully compiled SaC→CUDA program: kernels + transfer/launch plan.
#[derive(Debug, Clone)]
pub struct CudaProgram {
    /// The flat program (kept for shapes and host steps).
    pub flat: FlatProgram,
    /// All generated kernels.
    pub kernels: Vec<CompiledKernel>,
    /// Execution plan with explicit transfers, as launch-plan steps. A
    /// modarray seed copy or default fill is an ordinary `Launch` of its
    /// generated kernel. Two fields are left for [`crate::exec::lower_plan`]
    /// to resolve: transfers are one chunk each (per-channel chunking depends
    /// on the run's options), and `Host { op }` names the host step's index
    /// in [`CudaProgram::flat`], not a host-op table entry.
    pub plan: Vec<PlanStep>,
}

impl CudaProgram {
    /// Number of kernel-launch operations in one execution.
    pub fn launches_per_run(&self) -> usize {
        self.plan.iter().filter(|op| matches!(op, PlanStep::Launch { .. })).count()
    }

    /// Number of host-step operations in one execution.
    pub fn host_steps_per_run(&self) -> usize {
        self.plan.iter().filter(|op| matches!(op, PlanStep::Host { .. })).count()
    }

    /// Emit all kernels as CUDA C source (the inspectable artefact).
    pub fn emit_cuda_source(&self) -> String {
        let mut out = String::new();
        out.push_str("// Generated by the SaC -> CUDA backend (one kernel per generator).\n\n");
        for k in &self.kernels {
            out.push_str(&k.kernel.emit_source());
            out.push('\n');
        }
        out
    }
}

/// Compile a flat program into kernels and an execution plan.
pub fn compile_flat_program(flat: &FlatProgram) -> Result<CudaProgram, CudaError> {
    let mut kernels: Vec<CompiledKernel> = Vec::new();
    let mut plan: Vec<PlanStep> = Vec::new();

    // Location tracking: true = current value lives on the device.
    let mut on_device = vec![false; flat.arrays.len()];
    let mut allocated = vec![false; flat.arrays.len()];

    for (si, step) in flat.steps.iter().enumerate() {
        match step {
            Step::With { target, with } => {
                // Transfers for everything this step reads.
                let mut reads: Vec<usize> = Vec::new();
                for g in &with.generators {
                    g.body.loads(&mut reads);
                }
                if let Some(src) = with.modarray_src {
                    reads.push(src);
                }
                reads.sort_unstable();
                reads.dedup();
                for r in reads {
                    if !on_device[r] {
                        plan.push(PlanStep::Upload { array: r, chunks: 1 });
                        on_device[r] = true;
                        allocated[r] = true;
                    }
                }
                if !allocated[*target] {
                    plan.push(PlanStep::Alloc { array: *target });
                    allocated[*target] = true;
                }
                // Seed copy for modarray.
                if let Some(src) = with.modarray_src {
                    let k = compile_copy_kernel(flat, si, src, *target)?;
                    kernels.push(k);
                    plan.push(PlanStep::Launch { kernel: kernels.len() - 1 });
                } else if with.default != 0 && !generators_cover(with) {
                    // A genarray with uncovered cells and a non-zero default
                    // needs an initialising fill (a real backend's cudaMemset
                    // cannot write arbitrary ints, so it is a tiny kernel).
                    let k = compile_fill_kernel(flat, si, *target, with.default)?;
                    kernels.push(k);
                    plan.push(PlanStep::Launch { kernel: kernels.len() - 1 });
                }
                for (gi, g) in with.generators.iter().enumerate() {
                    if g.is_empty() {
                        continue;
                    }
                    let k = compile_generator(flat, si, gi, *target, g)?;
                    kernels.push(k);
                    plan.push(PlanStep::Launch { kernel: kernels.len() - 1 });
                }
                on_device[*target] = true;
            }
            Step::Host { target, bindings, .. } => {
                // Host steps consume host copies: download device-resident
                // inputs first (the paper's forced intermediate transfer).
                for b in bindings {
                    if let sac_lang::wir::HostBinding::Array(a) = b {
                        if on_device[*a] {
                            plan.push(PlanStep::Download { array: *a, chunks: 1 });
                            on_device[*a] = false;
                        }
                    }
                }
                plan.push(PlanStep::Host { op: si });
                on_device[*target] = false;
            }
        }
    }
    if on_device[flat.result] {
        plan.push(PlanStep::Download { array: flat.result, chunks: 1 });
    }
    Ok(CudaProgram { flat: flat.clone(), kernels, plan })
}

/// Row-major strides of a shape.
fn strides(shape: &[usize]) -> Vec<i64> {
    let mut s = vec![1i64; shape.len()];
    for d in (0..shape.len().saturating_sub(1)).rev() {
        s[d] = s[d + 1] * shape[d + 1] as i64;
    }
    s
}

/// Compile one generator into a kernel.
fn compile_generator(
    flat: &FlatProgram,
    step_index: usize,
    gen_index: usize,
    target: usize,
    g: &FlatGen,
) -> Result<CompiledKernel, CudaError> {
    let name = format!("{}_k{}", flat.arrays[target].name, gen_index);
    let mut b = KernelBuilder::new(&name, KernelFlavor::Cuda);

    // Parameter 0: the writable target. Then one buffer per loaded array.
    let mut buffers: Vec<usize> = vec![target];
    let out_param = b.buffer_param(flat.arrays[target].name.clone(), true);
    let mut loads = Vec::new();
    g.body.loads(&mut loads);
    loads.sort_unstable();
    loads.dedup();
    let mut param_of = std::collections::HashMap::new();
    param_of.insert(target, out_param);
    for a in loads {
        if a == target {
            // Reading the array being written would be a data race under our
            // launch semantics; SaC's single-assignment form prevents it.
            continue;
        }
        let p = b.buffer_param(flat.arrays[a].name.clone(), false);
        param_of.insert(a, p);
        buffers.push(a);
    }

    // Lattice extents per dim.
    let rank = g.rank();
    let mut extents = Vec::with_capacity(rank);
    for d in 0..rank {
        let span = (g.upper[d] - g.lower[d]).max(0);
        let (s, w) = (g.step[d], g.width[d]);
        let full = span / s;
        let rem = (span % s).min(w);
        extents.push(full * w + rem);
    }
    let points: u64 = extents.iter().map(|&e| e as u64).product();

    // gid guard.
    let gid = b.special(Special::GlobalIdX);
    let total = b.constant(points as i64);
    let oob = b.bin(BinOp::Le, total, gid);
    b.begin_if(oob);
    b.ret();
    b.end_if();

    // Decompose gid into per-dim lattice positions, then index values.
    let mut iv_regs: Vec<Reg> = Vec::with_capacity(rank);
    let mut rem = gid;
    for d in 0..rank {
        let inner: i64 = extents[d + 1..].iter().product();
        let innr = b.constant(inner);
        let pd = b.bin(BinOp::Div, rem, innr);
        let new_rem = b.bin(BinOp::Rem, rem, innr);
        rem = new_rem;
        let iv = if g.width[d] == 1 {
            // iv = lower + p * step
            let stepc = b.constant(g.step[d]);
            let scaled = b.bin(BinOp::Mul, pd, stepc);
            let low = b.constant(g.lower[d]);
            b.bin(BinOp::Add, low, scaled)
        } else {
            // iv = lower + (p / width) * step + p % width
            let w = b.constant(g.width[d]);
            let block = b.bin(BinOp::Div, pd, w);
            let off = b.bin(BinOp::Rem, pd, w);
            let stepc = b.constant(g.step[d]);
            let scaled = b.bin(BinOp::Mul, block, stepc);
            let low = b.constant(g.lower[d]);
            let base = b.bin(BinOp::Add, low, scaled);
            b.bin(BinOp::Add, base, off)
        };
        iv_regs.push(iv);
    }

    // Body.
    let val = compile_sym(&g.body, &iv_regs, &param_of, flat, &mut b)?;

    // Output offset (row-major over the full result shape).
    let out_strides = strides(&flat.arrays[target].shape);
    let mut off = b.constant(0);
    for (d, iv) in iv_regs.iter().enumerate() {
        let sc = b.constant(out_strides[d]);
        let term = b.bin(BinOp::Mul, *iv, sc);
        off = b.bin(BinOp::Add, off, term);
    }
    b.store(out_param, off, val);

    let kernel = b.finish();
    let config = LaunchConfig::cover_1d(points as usize, BLOCK_SIZE);
    Ok(CompiledKernel { kernel, step_index, gen_index, target, buffers, points, config })
}

/// Do the generators provably write every cell? (Exact counting check for
/// shapes up to 16M cells; larger shapes conservatively report `false`.)
fn generators_cover(with: &sac_lang::wir::FlatWith) -> bool {
    let total: u64 = with.shape.iter().map(|&d| d as u64).product();
    if total == 0 {
        return true;
    }
    if total > 1 << 24 {
        return false;
    }
    let sum: u64 = with.generators.iter().map(|g| g.points()).sum();
    if sum < total {
        return false;
    }
    let strides: Vec<u64> = {
        let mut s = vec![1u64; with.shape.len()];
        for d in (0..with.shape.len().saturating_sub(1)).rev() {
            s[d] = s[d + 1] * with.shape[d + 1] as u64;
        }
        s
    };
    let mut seen = vec![false; total as usize];
    for g in &with.generators {
        g.for_each_point(|iv| {
            let off: u64 = iv.iter().zip(&strides).map(|(&x, &st)| x as u64 * st).sum();
            seen[off as usize] = true;
        });
    }
    seen.into_iter().all(|b| b)
}

/// Dense constant-fill kernel for genarray defaults.
fn compile_fill_kernel(
    flat: &FlatProgram,
    step_index: usize,
    dst: usize,
    value: i64,
) -> Result<CompiledKernel, CudaError> {
    let len: usize = flat.arrays[dst].shape.iter().product();
    if len == 0 {
        return Err(CudaError::EmptyArray { name: flat.arrays[dst].name.clone() });
    }
    let name = format!("{}_init", flat.arrays[dst].name);
    let mut b = KernelBuilder::new(&name, KernelFlavor::Cuda);
    let out = b.buffer_param(flat.arrays[dst].name.clone(), true);
    let gid = b.special(Special::GlobalIdX);
    let total = b.constant(len as i64);
    let oob = b.bin(BinOp::Le, total, gid);
    b.begin_if(oob);
    b.ret();
    b.end_if();
    let v = b.constant(value);
    b.store(out, gid, v);
    Ok(CompiledKernel {
        kernel: b.finish(),
        step_index,
        gen_index: usize::MAX,
        target: dst,
        buffers: vec![dst],
        points: len as u64,
        config: LaunchConfig::cover_1d(len, BLOCK_SIZE),
    })
}

/// Dense device-to-device copy kernel (used for `modarray` seeds).
fn compile_copy_kernel(
    flat: &FlatProgram,
    step_index: usize,
    src: usize,
    dst: usize,
) -> Result<CompiledKernel, CudaError> {
    let len: usize = flat.arrays[dst].shape.iter().product();
    if len == 0 {
        return Err(CudaError::EmptyArray { name: flat.arrays[dst].name.clone() });
    }
    let name = format!("{}_seed", flat.arrays[dst].name);
    let mut b = KernelBuilder::new(&name, KernelFlavor::Cuda);
    let out = b.buffer_param(flat.arrays[dst].name.clone(), true);
    let inp = b.buffer_param(flat.arrays[src].name.clone(), false);
    let gid = b.special(Special::GlobalIdX);
    let total = b.constant(len as i64);
    let oob = b.bin(BinOp::Le, total, gid);
    b.begin_if(oob);
    b.ret();
    b.end_if();
    let v = b.load(inp, gid);
    b.store(out, gid, v);
    Ok(CompiledKernel {
        kernel: b.finish(),
        step_index,
        gen_index: usize::MAX,
        target: dst,
        buffers: vec![dst, src],
        points: len as u64,
        config: LaunchConfig::cover_1d(len, BLOCK_SIZE),
    })
}

/// Compile a symbolic scalar expression to KIR.
fn compile_sym(
    e: &SymExpr,
    iv: &[Reg],
    param_of: &std::collections::HashMap<usize, usize>,
    flat: &FlatProgram,
    b: &mut KernelBuilder,
) -> Result<Reg, CudaError> {
    Ok(match e {
        SymExpr::Const(v) => b.constant(*v),
        SymExpr::Idx(d) => iv[*d],
        SymExpr::Bin(op, l, r) => {
            let lr = compile_sym(l, iv, param_of, flat, b)?;
            let rr = compile_sym(r, iv, param_of, flat, b)?;
            match op {
                BinKind::Add => b.bin(BinOp::Add, lr, rr),
                BinKind::Sub => b.bin(BinOp::Sub, lr, rr),
                BinKind::Mul => b.bin(BinOp::Mul, lr, rr),
                BinKind::Div => b.bin(BinOp::Div, lr, rr),
                // Source-level `%` is Euclidean; emit the wrap sequence.
                BinKind::Mod => b.wrap_mod(lr, rr),
                BinKind::Lt => b.bin(BinOp::Lt, lr, rr),
                BinKind::Le => b.bin(BinOp::Le, lr, rr),
                BinKind::Gt => b.bin(BinOp::Lt, rr, lr),
                BinKind::Ge => b.bin(BinOp::Le, rr, lr),
                BinKind::Eq => b.bin(BinOp::Eq, lr, rr),
                BinKind::Ne => b.bin(BinOp::Ne, lr, rr),
                BinKind::Concat => return Err(CudaError::Host("concat reached codegen".into())),
            }
        }
        SymExpr::Load { array, index } => {
            let param = *param_of
                .get(array)
                .ok_or_else(|| CudaError::Host(format!("unbound array {array}")))?;
            let st = strides(&flat.arrays[*array].shape);
            let mut off = b.constant(0);
            for (d, ixe) in index.iter().enumerate() {
                let r = compile_sym(ixe, iv, param_of, flat, b)?;
                let sc = b.constant(st[d]);
                let term = b.bin(BinOp::Mul, r, sc);
                off = b.bin(BinOp::Add, off, term);
            }
            b.load(param, off)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_lang::wir::{FlatGen, FlatWith, HostBinding};

    fn simple_program() -> FlatProgram {
        let mut p = FlatProgram::default();
        let a = p.declare("a", vec![4, 8]);
        let out = p.declare("out", vec![4, 8]);
        p.inputs.push(a);
        p.result = out;
        p.steps.push(Step::With {
            target: out,
            with: FlatWith {
                shape: vec![4, 8],
                default: 0,
                modarray_src: None,
                generators: vec![FlatGen::dense(
                    &[4, 8],
                    SymExpr::bin(
                        BinKind::Mul,
                        SymExpr::Load { array: a, index: vec![SymExpr::Idx(0), SymExpr::Idx(1)] },
                        SymExpr::Const(3),
                    ),
                )],
            },
        });
        p
    }

    #[test]
    fn plan_has_upload_launch_download() {
        let p = simple_program();
        let prog = compile_flat_program(&p).unwrap();
        assert_eq!(
            prog.plan,
            vec![
                PlanStep::Upload { array: 0, chunks: 1 },
                PlanStep::Alloc { array: 1 },
                PlanStep::Launch { kernel: 0 },
                PlanStep::Download { array: 1, chunks: 1 },
            ]
        );
        assert_eq!(prog.launches_per_run(), 1);
    }

    #[test]
    fn kernel_per_generator() {
        let mut p = simple_program();
        // Add a second generator to the step.
        if let Step::With { with, .. } = &mut p.steps[0] {
            with.generators.push(FlatGen {
                lower: vec![0, 0],
                upper: vec![4, 1],
                step: vec![1, 1],
                width: vec![1, 1],
                body: SymExpr::Const(9),
            });
        }
        let prog = compile_flat_program(&p).unwrap();
        assert_eq!(prog.kernels.len(), 2);
        assert_eq!(prog.kernels[0].kernel.name, "out_k0");
        assert_eq!(prog.kernels[1].kernel.name, "out_k1");
        assert_eq!(prog.kernels[1].points, 4);
    }

    #[test]
    fn host_step_forces_download() {
        let mut p = simple_program();
        let hostout = p.declare("hostout", vec![4, 8]);
        p.result = hostout;
        p.steps.push(Step::Host {
            target: hostout,
            fun: sac_lang::ast::FunDef {
                name: "h".into(),
                ret: sac_lang::ast::TypeAnn::ArrAnyRank,
                params: vec![],
                body: vec![sac_lang::ast::Stmt::Return(sac_lang::ast::Expr::Int(0))],
            },
            bindings: vec![HostBinding::Array(1)],
            reason: "test".into(),
        });
        let prog = compile_flat_program(&p).unwrap();
        // The device-resident intermediate must come back before the host step.
        assert!(prog.plan.windows(2).any(|w| w[0] == PlanStep::Download { array: 1, chunks: 1 }
            && w[1] == PlanStep::Host { op: 1 }));
        // The host-produced result is not downloaded again.
        assert_eq!(
            prog.plan.iter().filter(|op| matches!(op, PlanStep::Download { .. })).count(),
            1
        );
    }

    #[test]
    fn modarray_gets_seed_copy() {
        let mut p = FlatProgram::default();
        let seed = p.declare("seed", vec![8]);
        let out = p.declare("out", vec![8]);
        p.inputs.push(seed);
        p.result = out;
        p.steps.push(Step::With {
            target: out,
            with: FlatWith {
                shape: vec![8],
                default: 0,
                modarray_src: Some(seed),
                generators: vec![FlatGen {
                    lower: vec![0],
                    upper: vec![4],
                    step: vec![1],
                    width: vec![1],
                    body: SymExpr::Const(1),
                }],
            },
        });
        let prog = compile_flat_program(&p).unwrap();
        // The seed copy is the first launch, of a generated (non-generator)
        // kernel.
        let first = prog.plan.iter().find_map(|op| match op {
            PlanStep::Launch { kernel } => Some(*kernel),
            _ => None,
        });
        assert_eq!(first, Some(0));
        assert_eq!(prog.kernels[0].gen_index, usize::MAX);
        assert!(prog.kernels[0].kernel.name.ends_with("_seed"));
        assert_eq!(prog.launches_per_run(), 2); // seed copy + generator
    }

    #[test]
    fn emitted_source_contains_kernels() {
        let prog = compile_flat_program(&simple_program()).unwrap();
        let src = prog.emit_cuda_source();
        assert!(src.contains("__global__ void out_k0"), "{src}");
        assert!(src.contains("blockIdx.x"), "{src}");
    }

    #[test]
    fn stepped_generator_covers_lattice() {
        // points for [0,1]..[4,8) step [1,3]: dim0 4, dim1 {1,4,7} = 3 -> 12.
        let g = FlatGen {
            lower: vec![0, 1],
            upper: vec![4, 8],
            step: vec![1, 3],
            width: vec![1, 1],
            body: SymExpr::Const(0),
        };
        let mut p = FlatProgram::default();
        let out = p.declare("out", vec![4, 8]);
        p.result = out;
        let k = compile_generator(&p, 0, 0, out, &g).unwrap();
        assert_eq!(k.points, 12);
        assert!(k.config.total_threads() >= 12);
    }
}
