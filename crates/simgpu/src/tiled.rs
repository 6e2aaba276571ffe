//! Kernel generation from a tiled-access description.
//!
//! This is the route-agnostic successor of the GASPARD2 model-to-text
//! phase: given an [`arrayol::access::TiledAccess`] (repetition space,
//! patterns, tilers, elementary op) it instantiates the same text template
//! over any kernel flavour. Each generated kernel body:
//!
//! 1. derives the repetition index `tlIter` from the work-item global id
//!    (`tlIter[0] = iGID % rep0; tlIter[1] = iGID / rep0` — the paper's
//!    Figure 11 convention, dimension 0 varying fastest),
//! 2. computes the tile's reference point from the paving matrix,
//! 3. loads the input pattern element-by-element through the fitting matrix,
//!    keeping it in private registers,
//! 4. applies the elementary IP's arithmetic,
//! 5. scatters the output pattern through the output tiler.
//!
//! `gaspard::codegen` delegates here (OpenCL flavour), and the planopt
//! `fusion` pass uses it to materialise fused kernels for whichever route
//! lowered the plan — the generated IR is identical either way, which is
//! what makes plan-level fusion bit-compatible with the route-local path.

use crate::exec::LaunchConfig;
use crate::kir::{BinOp, Kernel, KernelBuilder, KernelFlavor, Reg, Special};
use arrayol::access::{lattice_points, ElementaryOp, TiledAccess};
use arrayol::Tiler;

/// Work-group size used by generated kernels.
pub const WORK_GROUP_SIZE: u32 = 256;

/// Upper bound on pattern elements we are willing to unroll per kernel.
/// Public so fusion passes can refuse compositions whose gathered pattern
/// would blow past it instead of failing at generation time.
pub const MAX_PATTERN_UNROLL: usize = 256;

/// One generated kernel plus launch metadata.
#[derive(Debug, Clone)]
pub struct TiledKernel {
    /// Executable kernel IR.
    pub kernel: Kernel,
    /// Work items required (repetition-space size).
    pub work_items: u64,
    /// Launch configuration covering the repetition space.
    pub config: LaunchConfig,
}

/// Row-major strides.
fn strides(shape: &[usize]) -> Vec<i64> {
    let mut s = vec![1i64; shape.len()];
    for d in (0..shape.len().saturating_sub(1)).rev() {
        s[d] = s[d + 1] * shape[d + 1] as i64;
    }
    s
}

/// Generate the kernel for one tiled access over the given input/output
/// array shapes. Errors (as plain strings, for the caller to wrap) when a
/// pattern exceeds the unroll budget.
///
/// This is the faithful template — every address goes through wrap-around
/// arithmetic and every tiler term is emitted, exactly as the GASPARD2
/// model-to-text phase specifies (its kernel structure is pinned by tests
/// and golden timings).
pub fn generate_tiled_kernel(
    name: &str,
    access: &TiledAccess,
    in_shape: &[usize],
    out_shape: &[usize],
    flavor: KernelFlavor,
) -> Result<TiledKernel, String> {
    generate(name, access, in_shape, out_shape, flavor, false)
}

/// [`generate_tiled_kernel`] with lean addressing: wrap-around arithmetic
/// is elided for dimensions the access provably never takes out of bounds,
/// and identity tiler terms (zero origins, unit coefficients, unit strides)
/// are strength-reduced at emission time.
///
/// Values are identical to the faithful template; only the instruction
/// stream is shorter. The planopt fusion pass uses this for the kernels it
/// materialises, so a fused plan is never slower than the hand-folded
/// (WITH-loop-folding) kernels it competes with.
pub fn generate_tiled_kernel_lean(
    name: &str,
    access: &TiledAccess,
    in_shape: &[usize],
    out_shape: &[usize],
    flavor: KernelFlavor,
) -> Result<TiledKernel, String> {
    generate(name, access, in_shape, out_shape, flavor, true)
}

fn generate(
    name: &str,
    access: &TiledAccess,
    in_shape: &[usize],
    out_shape: &[usize],
    flavor: KernelFlavor,
    lean: bool,
) -> Result<TiledKernel, String> {
    let pattern_len: usize = access.in_pattern.iter().product();
    let out_len: usize = access.out_pattern.iter().product();
    if pattern_len > MAX_PATTERN_UNROLL || out_len > MAX_PATTERN_UNROLL {
        return Err(format!("pattern too large to unroll ({pattern_len} elements)"));
    }

    let mut b = KernelBuilder::new(name, flavor);
    let out_param = b.buffer_param(format!("out_{name}"), true);
    let in_param = b.buffer_param(format!("in_{name}_{name}"), false);

    // Guard against over-provisioned work-items.
    let work_items: u64 = access.repetition.iter().map(|&r| r as u64).product();
    let gid = b.special(Special::GlobalIdX);
    let total = b.constant(work_items as i64);
    let oob = b.bin(BinOp::Le, total, gid);
    b.begin_if(oob);
    b.ret();
    b.end_if();

    // tlIter: Figure 11 convention — dimension 0 varies fastest.
    let mut tl: Vec<Reg> = Vec::with_capacity(access.repetition.len());
    let mut rem = gid;
    for (d, &r) in access.repetition.iter().enumerate() {
        let rc = b.constant(r as i64);
        if d + 1 < access.repetition.len() {
            let t = b.bin(BinOp::Rem, rem, rc);
            let q = b.bin(BinOp::Div, rem, rc);
            tl.push(t);
            rem = q;
        } else {
            tl.push(rem);
        }
    }

    // Reference points of the input and output tiles.
    let ref_in = tiler_reference(&mut b, &access.in_tiler, &tl, lean);
    let ref_out = tiler_reference(&mut b, &access.out_tiler, &tl, lean);

    // Per-dimension wrap requirements: under lean addressing, a dimension
    // the access provably keeps in bounds skips the wrap arithmetic.
    let in_wrap =
        wrap_mask(&access.in_tiler, &access.in_pattern, &access.repetition, in_shape, lean);
    let out_wrap =
        wrap_mask(&access.out_tiler, &access.out_pattern, &access.repetition, out_shape, lean);

    // Gather the pattern into private registers (the Figure 11 fill loop,
    // unrolled by the template).
    let in_strides = strides(in_shape);
    let pattern_ixs = lattice_points(&access.in_pattern);
    let mut pattern_regs: Vec<Reg> = Vec::with_capacity(pattern_len);
    for p in &pattern_ixs {
        let off = tiled_offset(
            &mut b,
            &access.in_tiler,
            &ref_in,
            p,
            in_shape,
            &in_strides,
            &in_wrap,
            lean,
        );
        pattern_regs.push(b.load(in_param, off));
    }

    // Apply the elementary IP.
    let out_regs = apply_op(&mut b, &access.op, &pattern_regs);
    debug_assert_eq!(out_regs.len(), out_len);

    // Scatter through the output tiler.
    let out_strides = strides(out_shape);
    for (p, val) in lattice_points(&access.out_pattern).iter().zip(out_regs) {
        let off = tiled_offset(
            &mut b,
            &access.out_tiler,
            &ref_out,
            p,
            out_shape,
            &out_strides,
            &out_wrap,
            lean,
        );
        b.store(out_param, off, val);
    }

    let kernel = b.finish();
    Ok(TiledKernel {
        kernel,
        work_items,
        config: LaunchConfig::cover_1d(work_items as usize, WORK_GROUP_SIZE),
    })
}

/// Interval analysis over one array dimension: does every reference point the
/// tiler can produce (over the whole repetition space and pattern) stay inside
/// `[0, extent)`?  When it does, lean addressing may drop the wrap arithmetic.
fn dim_stays_in_bounds(
    t: &Tiler,
    pattern: &[usize],
    repetition: &[usize],
    d: usize,
    extent: usize,
) -> bool {
    let mut lo = t.origin[d];
    let mut hi = t.origin[d];
    for (&coef, &r) in t.paving.row(d).iter().zip(repetition) {
        let span = coef * (r as i64 - 1);
        if span >= 0 {
            hi += span;
        } else {
            lo += span;
        }
    }
    for (&coef, &pl) in t.fitting.row(d).iter().zip(pattern) {
        let span = coef * (pl as i64 - 1);
        if span >= 0 {
            hi += span;
        } else {
            lo += span;
        }
    }
    lo >= 0 && hi < extent as i64
}

/// Per-dimension "needs wrap_mod" flags. The faithful template always wraps;
/// lean addressing wraps only dimensions the interval analysis cannot prove
/// in bounds.
fn wrap_mask(
    t: &Tiler,
    pattern: &[usize],
    repetition: &[usize],
    shape: &[usize],
    lean: bool,
) -> Vec<bool> {
    shape
        .iter()
        .enumerate()
        .map(|(d, &extent)| !lean || !dim_stays_in_bounds(t, pattern, repetition, d, extent))
        .collect()
}

/// `ref = origin + paving · tlIter` per array dimension.
fn tiler_reference(b: &mut KernelBuilder, t: &Tiler, tl: &[Reg], lean: bool) -> Vec<Reg> {
    t.origin
        .iter()
        .enumerate()
        .map(|(d, &o)| {
            let row = t.paving.row(d);
            if lean {
                // Strength-reduced emission: identity coefficients pass the
                // tile iterator through, zero origins vanish.
                let mut acc: Option<Reg> = if o != 0 { Some(b.constant(o)) } else { None };
                for (c, &coef) in row.iter().enumerate() {
                    if coef == 0 {
                        continue;
                    }
                    let term = if coef == 1 {
                        tl[c]
                    } else {
                        let k = b.constant(coef);
                        b.bin(BinOp::Mul, k, tl[c])
                    };
                    acc = Some(match acc {
                        Some(a) => b.bin(BinOp::Add, a, term),
                        None => term,
                    });
                }
                acc.unwrap_or_else(|| b.constant(0))
            } else {
                let mut acc = b.constant(o);
                for (c, &coef) in row.iter().enumerate() {
                    if coef == 0 {
                        continue;
                    }
                    let k = b.constant(coef);
                    let term = b.bin(BinOp::Mul, k, tl[c]);
                    acc = b.bin(BinOp::Add, acc, term);
                }
                acc
            }
        })
        .collect()
}

/// Linearised, wrap-around array offset of pattern point `p` relative to the
/// tile reference: `sum_d ((ref_d + (F·p)_d) mod shape_d) * stride_d`.
#[allow(clippy::too_many_arguments)]
fn tiled_offset(
    b: &mut KernelBuilder,
    t: &Tiler,
    refs: &[Reg],
    p: &[usize],
    shape: &[usize],
    strides: &[i64],
    wrap: &[bool],
    lean: bool,
) -> Reg {
    if lean {
        let mut off: Option<Reg> = None;
        for d in 0..shape.len() {
            let fit: i64 = t.fitting.row(d).iter().zip(p).map(|(&f, &x)| f * x as i64).sum();
            let mut idx = refs[d];
            if fit != 0 {
                let fit_reg = b.constant(fit);
                idx = b.bin(BinOp::Add, idx, fit_reg);
            }
            if wrap[d] {
                let extent = b.constant(shape[d] as i64);
                idx = b.wrap_mod(idx, extent);
            }
            let term = if strides[d] == 1 {
                idx
            } else {
                let sc = b.constant(strides[d]);
                b.bin(BinOp::Mul, idx, sc)
            };
            off = Some(match off {
                Some(a) => b.bin(BinOp::Add, a, term),
                None => term,
            });
        }
        off.unwrap_or_else(|| b.constant(0))
    } else {
        let mut off = b.constant(0);
        for d in 0..shape.len() {
            let fit: i64 = t.fitting.row(d).iter().zip(p).map(|(&f, &x)| f * x as i64).sum();
            let fit_reg = b.constant(fit);
            let raw = b.bin(BinOp::Add, refs[d], fit_reg);
            let extent = b.constant(shape[d] as i64);
            let wrapped = b.wrap_mod(raw, extent);
            let sc = b.constant(strides[d]);
            let term = b.bin(BinOp::Mul, wrapped, sc);
            off = b.bin(BinOp::Add, off, term);
        }
        off
    }
}

/// Generate the elementary op over gathered pattern registers.
fn apply_op(b: &mut KernelBuilder, op: &ElementaryOp, pattern: &[Reg]) -> Vec<Reg> {
    match op {
        ElementaryOp::InterpolateWindows { windows, divisor } => windows
            .iter()
            .map(|w| {
                let mut acc = pattern[w.offset];
                for &reg in &pattern[w.offset + 1..w.offset + w.len] {
                    acc = b.bin(BinOp::Add, acc, reg);
                }
                let d = b.constant(*divisor);
                let q = b.bin(BinOp::Div, acc, d);
                let r = b.bin(BinOp::Rem, acc, d);
                b.bin(BinOp::Sub, q, r)
            })
            .collect(),
        ElementaryOp::AffineMap { mul, add } => pattern
            .iter()
            .map(|&reg| {
                let m = b.constant(*mul);
                let a = b.constant(*add);
                let t = b.bin(BinOp::Mul, reg, m);
                b.bin(BinOp::Add, t, a)
            })
            .collect(),
        ElementaryOp::SumReduce => {
            let mut acc = pattern[0];
            for &r in &pattern[1..] {
                acc = b.bin(BinOp::Add, acc, r);
            }
            vec![acc]
        }
        ElementaryOp::WeightedSum { weights } => {
            debug_assert_eq!(pattern.len(), weights.len());
            // Σ wᵢ·pᵢ with zero weights skipped and unit weights unfolded:
            // exact integer arithmetic, so the kernel matches the host
            // reference (and the SaC route) bit for bit.
            let mut acc: Option<Reg> = None;
            for (&reg, &w) in pattern.iter().zip(weights) {
                if w == 0 {
                    continue;
                }
                let term = if w == 1 {
                    reg
                } else {
                    let c = b.constant(w);
                    b.bin(BinOp::Mul, reg, c)
                };
                acc = Some(match acc {
                    None => term,
                    Some(a) => b.bin(BinOp::Add, a, term),
                });
            }
            vec![acc.unwrap_or_else(|| b.constant(0))]
        }
        ElementaryOp::Copy => pattern.to_vec(),
        ElementaryOp::Composed { inner, inner_count, inner_in_len, outer, outer_gathers } => {
            // Fused kernel body: the recomputed producer outputs live entirely
            // in private registers — no trip through device memory.
            debug_assert_eq!(pattern.len(), inner_count * inner_in_len);
            let mut mid: Vec<Reg> = Vec::with_capacity(*inner_count);
            for chunk in pattern.chunks(*inner_in_len) {
                mid.extend(apply_op(b, inner, chunk));
            }
            let mut out = Vec::new();
            for row in outer_gathers {
                let gathered: Vec<Reg> = row.iter().map(|&k| mid[k]).collect();
                out.extend(apply_op(b, outer, &gathered));
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::kir::KernelArg;
    use arrayol::access::apply_access;
    use arrayol::IMat;
    use mdarray::NdArray;

    fn stencil_access(rows: usize, cols: usize, weights: Vec<i64>) -> TiledAccess {
        let k = weights.len();
        TiledAccess {
            repetition: vec![rows, cols - k + 1],
            in_pattern: vec![k],
            in_tiler: Tiler::new(vec![0, 0], IMat::from_rows(&[&[0], &[1]]), IMat::identity(2)),
            out_pattern: vec![1],
            out_tiler: Tiler::new(vec![0, 0], IMat::from_rows(&[&[0], &[0]]), IMat::identity(2)),
            op: ElementaryOp::WeightedSum { weights },
        }
    }

    #[test]
    fn generated_kernel_matches_cpu_reference() {
        let acc = stencil_access(4, 8, vec![1, 2, 1]);
        let tk = generate_tiled_kernel("blur", &acc, &[4, 8], &[4, 6], KernelFlavor::Cuda).unwrap();
        assert_eq!(tk.work_items, 24);
        let input = NdArray::from_fn([4usize, 8], |ix| (ix[0] * 8 + ix[1]) as i64 % 17);
        let mut device = Device::gtx480();
        let inb = device.malloc(32).unwrap();
        device.poke(inb, &input.as_slice().iter().map(|&v| v as i32).collect::<Vec<_>>()).unwrap();
        let outb = device.malloc(24).unwrap();
        device
            .launch(&tk.kernel, tk.config, &[KernelArg::Buffer(outb.0), KernelArg::Buffer(inb.0)])
            .unwrap();
        let got = device.peek(outb).unwrap();
        let expect: Vec<i32> =
            apply_access(&acc, &input, &[4, 6]).as_slice().iter().map(|&v| v as i32).collect();
        assert_eq!(got, expect.as_slice());
    }

    #[test]
    fn oversized_pattern_is_a_string_error() {
        let mut acc = stencil_access(4, 8, vec![1, 2, 1]);
        acc.in_pattern = vec![MAX_PATTERN_UNROLL + 1];
        let err =
            generate_tiled_kernel("big", &acc, &[4, 8], &[4, 6], KernelFlavor::OpenCl).unwrap_err();
        assert!(err.contains("too large to unroll"), "{err}");
    }
}
