//! Recovering tiled-access descriptions from compiled SaC kernels.
//!
//! The plan-level fusion pass (`simgpu::planopt`) composes *tiled-access
//! descriptions* — the repetition/pattern/tiler structure of the ArrayOL
//! model. The GASPARD2 route carries them for free (its scheduled model *is*
//! that structure); the SaC route has already lowered everything to flat
//! WITH-loops, so this module recovers the description after the fact by
//! pattern-matching the generator: a dense single-generator `genarray` whose
//! body is a linear combination of loads from one source array at affine
//! indices is exactly a tiler gather.
//!
//! Anything else — multi-generator loops, `modarray` seeds, non-affine
//! indexing, multi-source bodies, loads whose offsets vary along more than
//! one axis — is left undescribed. The fusion pass then refuses the edge and
//! the plan runs unfused, which is the safe fallback; WITH-loop folding
//! upstream remains the general mechanism for those shapes.

use arrayol::access::{ElementaryOp, TiledAccess};
use arrayol::{IMat, Tiler};
use sac_lang::ast::BinKind;
use sac_lang::wir::{FlatProgram, FlatWith, Step, SymExpr};

/// One gathered load: `weight · src[A·iv + offset]`.
struct LoadTerm {
    weight: i64,
    matrix: Vec<Vec<i64>>,
    offset: Vec<i64>,
}

/// Parse `e` as `Σ coeffs[d]·iv[d] + constant`.
fn affine(e: &SymExpr, rank: usize) -> Option<(Vec<i64>, i64)> {
    match e {
        SymExpr::Const(v) => Some((vec![0; rank], *v)),
        SymExpr::Idx(d) => {
            let mut c = vec![0; rank];
            *c.get_mut(*d)? = 1;
            Some((c, 0))
        }
        SymExpr::Bin(op, l, r) => match op {
            BinKind::Add | BinKind::Sub => {
                let (lc, lk) = affine(l, rank)?;
                let (rc, rk) = affine(r, rank)?;
                let sign = if *op == BinKind::Add { 1 } else { -1 };
                Some((lc.iter().zip(&rc).map(|(a, b)| a + sign * b).collect(), lk + sign * rk))
            }
            BinKind::Mul => {
                let (lc, lk) = affine(l, rank)?;
                let (rc, rk) = affine(r, rank)?;
                if lc.iter().all(|&x| x == 0) {
                    Some((rc.iter().map(|x| x * lk).collect(), rk * lk))
                } else if rc.iter().all(|&x| x == 0) {
                    Some((lc.iter().map(|x| x * rk).collect(), lk * rk))
                } else {
                    None
                }
            }
            _ => None,
        },
        SymExpr::Load { .. } => None,
    }
}

/// Parse `e` as `Σ weight·Load(src, affine-index) + constant` over a single
/// source array. Returns `(source, load terms, constant)`; the source is
/// `None` for a pure constant subtree.
fn linear_comb(e: &SymExpr, rank: usize) -> Option<(Option<usize>, Vec<LoadTerm>, i64)> {
    match e {
        SymExpr::Const(v) => Some((None, Vec::new(), *v)),
        // A bare index variable in the body is output-position arithmetic,
        // not a gather — no tiler describes it.
        SymExpr::Idx(_) => None,
        SymExpr::Load { array, index } => {
            let parsed: Option<Vec<(Vec<i64>, i64)>> =
                index.iter().map(|ix| affine(ix, rank)).collect();
            let parsed = parsed?;
            let matrix: Vec<Vec<i64>> = parsed.iter().map(|(c, _)| c.clone()).collect();
            let offset: Vec<i64> = parsed.iter().map(|(_, k)| *k).collect();
            Some((Some(*array), vec![LoadTerm { weight: 1, matrix, offset }], 0))
        }
        SymExpr::Bin(op, l, r) => match op {
            BinKind::Add | BinKind::Sub => {
                let (ls, mut lt, lk) = linear_comb(l, rank)?;
                let (rs, rt, rk) = linear_comb(r, rank)?;
                let src = match (ls, rs) {
                    (Some(a), Some(b)) if a != b => return None,
                    (Some(a), _) => Some(a),
                    (None, b) => b,
                };
                let sign = if *op == BinKind::Add { 1 } else { -1 };
                lt.extend(rt.into_iter().map(|t| LoadTerm { weight: sign * t.weight, ..t }));
                Some((src, lt, lk + sign * rk))
            }
            BinKind::Mul => {
                let (ls, lt, lk) = linear_comb(l, rank)?;
                let (rs, rt, rk) = linear_comb(r, rank)?;
                match (ls, rs) {
                    (None, src) => Some((
                        src,
                        rt.into_iter().map(|t| LoadTerm { weight: lk * t.weight, ..t }).collect(),
                        lk * rk,
                    )),
                    (src, None) => Some((
                        src,
                        lt.into_iter().map(|t| LoadTerm { weight: rk * t.weight, ..t }).collect(),
                        lk * rk,
                    )),
                    _ => None, // load × load is not linear
                }
            }
            _ => None,
        },
    }
}

/// Recover the tiled-access description of one compiled kernel's generator,
/// if it is a dense single-source affine gather. Returns the source array id
/// and the access (out-pattern `[1]`, identity output tiler).
pub fn recognize(
    flat: &FlatProgram,
    step_index: usize,
    gen_index: usize,
) -> Option<(usize, TiledAccess)> {
    let Step::With { with, .. } = flat.steps.get(step_index)? else {
        return None;
    };
    recognize_with(flat, with, gen_index)
}

fn recognize_with(
    flat: &FlatProgram,
    with: &FlatWith,
    gen_index: usize,
) -> Option<(usize, TiledAccess)> {
    // One dense generator covering the whole result: the kernel *is* the
    // repetition space. Seeded (`modarray`) or partial loops would need the
    // default/seed values modelled too, which a tiler pair cannot express.
    if with.modarray_src.is_some() || with.generators.len() != 1 || gen_index != 0 {
        return None;
    }
    let g = &with.generators[0];
    let rank = g.rank();
    if rank == 0
        || with.shape.len() != rank
        || g.lower.iter().any(|&l| l != 0)
        || g.step.iter().any(|&s| s != 1)
        || g.width.iter().any(|&w| w != 1)
        || g.upper.iter().zip(&with.shape).any(|(&u, &s)| u != s as i64)
    {
        return None;
    }

    let (src, terms, konst) = linear_comb(&g.body, rank)?;
    let src = src?;
    let in_rank = flat.arrays.get(src)?.shape.len();
    if in_rank == 0 || terms.iter().any(|t| t.matrix.len() != in_rank) {
        return None;
    }

    // All loads must share one coefficient matrix, with offsets varying
    // along at most a single input axis — a rank-1 pattern.
    let matrix = terms[0].matrix.clone();
    if terms.iter().any(|t| t.matrix != matrix) {
        return None;
    }
    let base = &terms[0].offset;
    let mut axis: Option<usize> = None;
    for t in &terms {
        for (d, &b) in base.iter().enumerate() {
            if t.offset[d] != b {
                match axis {
                    None => axis = Some(d),
                    Some(a) if a == d => {}
                    Some(_) => return None,
                }
            }
        }
    }

    let (origin, weights) = match axis {
        None => {
            // Every load hits the same cell: fold the weights together.
            (base.clone(), vec![terms.iter().map(|t| t.weight).sum::<i64>()])
        }
        Some(ax) => {
            let lo = terms.iter().map(|t| t.offset[ax]).min()?;
            let hi = terms.iter().map(|t| t.offset[ax]).max()?;
            let len = usize::try_from(hi - lo).ok()? + 1;
            if len > simgpu::tiled::MAX_PATTERN_UNROLL {
                return None;
            }
            let mut w = vec![0i64; len];
            for t in &terms {
                w[(t.offset[ax] - lo) as usize] += t.weight;
            }
            let mut origin = base.clone();
            origin[ax] = lo;
            (origin, w)
        }
    };

    let op = if weights.len() == 1 {
        if konst == 0 && weights[0] == 1 {
            ElementaryOp::Copy
        } else {
            ElementaryOp::AffineMap { mul: weights[0], add: konst }
        }
    } else if konst == 0 {
        ElementaryOp::WeightedSum { weights: weights.clone() }
    } else {
        // `Σ wᵢ·xᵢ + c` has no elementary-op encoding; leave undescribed.
        return None;
    };

    let mut fitting = IMat::zeros(in_rank, 1);
    if let Some(ax) = axis {
        *fitting.at_mut(ax, 0) = 1;
    }
    let access = TiledAccess {
        repetition: with.shape.clone(),
        in_pattern: vec![weights.len()],
        in_tiler: Tiler::new(origin, fitting, IMat::new(in_rank, rank, matrix.concat())),
        out_pattern: vec![1],
        out_tiler: Tiler::new(vec![0; rank], IMat::zeros(rank, 1), IMat::identity(rank)),
        op,
    };
    Some((src, access))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrayol::access::{apply_access, lattice_points};
    use mdarray::NdArray;
    use sac_lang::wir::FlatGen;

    fn load(array: usize, index: Vec<SymExpr>) -> SymExpr {
        SymExpr::Load { array, index }
    }

    fn prog_with_body(in_shape: Vec<usize>, out_shape: Vec<usize>, body: SymExpr) -> FlatProgram {
        let mut p = FlatProgram::default();
        let a = p.declare("frame", in_shape);
        let out = p.declare("out", out_shape.clone());
        p.inputs.push(a);
        p.result = out;
        p.steps.push(Step::With {
            target: out,
            with: FlatWith {
                shape: out_shape,
                default: 0,
                modarray_src: None,
                generators: vec![FlatGen::dense(&p.arrays[out].shape.clone(), body)],
            },
        });
        p
    }

    /// `b[i,j] = f[i,j] + 2f[i,j+1] + f[i,j+2]` — the imagepipe blur stage.
    fn blur_body() -> SymExpr {
        let ij = |k: i64| {
            vec![SymExpr::Idx(0), SymExpr::bin(BinKind::Add, SymExpr::Idx(1), SymExpr::Const(k))]
        };
        SymExpr::bin(
            BinKind::Add,
            SymExpr::bin(
                BinKind::Add,
                load(0, ij(0)),
                SymExpr::bin(BinKind::Mul, SymExpr::Const(2), load(0, ij(1))),
            ),
            load(0, ij(2)),
        )
    }

    #[test]
    fn recognizes_a_column_stencil() {
        let p = prog_with_body(vec![4, 8], vec![4, 6], blur_body());
        let (src, access) = recognize(&p, 0, 0).expect("stencil should be recognized");
        assert_eq!(src, 0);
        assert_eq!(access.repetition, vec![4, 6]);
        assert_eq!(access.in_pattern, vec![3]);
        assert_eq!(access.in_tiler.origin, vec![0, 0]);
        assert_eq!(access.in_tiler.fitting, IMat::from_rows(&[&[0], &[1]]));
        assert_eq!(access.in_tiler.paving, IMat::identity(2));
        assert_eq!(access.out_pattern, vec![1]);
        assert!(
            matches!(&access.op, ElementaryOp::WeightedSum { weights } if weights == &vec![1, 2, 1])
        );
    }

    #[test]
    fn recovered_access_replays_the_flat_program() {
        // The CPU reference applied to the recognized access must equal the
        // flat evaluator — the description really is the kernel's semantics.
        let p = prog_with_body(vec![4, 8], vec![4, 6], blur_body());
        let (_, access) = recognize(&p, 0, 0).unwrap();
        let frame = NdArray::from_fn([4usize, 8], |ix| (ix[0] * 13 + ix[1] * 7) as i64 % 31);
        let expect = p.run(std::slice::from_ref(&frame), &mut 0).unwrap();
        let got = apply_access(&access, &frame, &[4, 6]);
        assert_eq!(got, expect);
        // And the repetition lattice covers every output cell exactly once.
        assert_eq!(lattice_points(&access.repetition).len(), 24);
    }

    #[test]
    fn affine_single_load_becomes_affine_map() {
        // out[i] = 2 * f[i] + 10
        let body = SymExpr::bin(
            BinKind::Add,
            SymExpr::bin(BinKind::Mul, SymExpr::Const(2), load(0, vec![SymExpr::Idx(0)])),
            SymExpr::Const(10),
        );
        let p = prog_with_body(vec![8], vec![8], body);
        let (_, access) = recognize(&p, 0, 0).unwrap();
        assert!(matches!(access.op, ElementaryOp::AffineMap { mul: 2, add: 10 }));
        assert_eq!(access.in_pattern, vec![1]);
    }

    #[test]
    fn plain_copy_is_copy() {
        let body = load(0, vec![SymExpr::Idx(0)]);
        let p = prog_with_body(vec![8], vec![8], body);
        let (_, access) = recognize(&p, 0, 0).unwrap();
        assert!(matches!(access.op, ElementaryOp::Copy));
    }

    #[test]
    fn plane_difference_gathers_along_the_leading_axis() {
        // delta: out[i,j] = f[0,i,j] - f[1,i,j] over a stacked [2,R,C] input.
        let plane = |k: i64| vec![SymExpr::Const(k), SymExpr::Idx(0), SymExpr::Idx(1)];
        let body = SymExpr::bin(BinKind::Sub, load(0, plane(0)), load(0, plane(1)));
        let p = prog_with_body(vec![2, 3, 5], vec![3, 5], body);
        let (_, access) = recognize(&p, 0, 0).unwrap();
        assert_eq!(access.in_pattern, vec![2]);
        assert_eq!(access.in_tiler.fitting, IMat::from_rows(&[&[1], &[0], &[0]]));
        assert_eq!(access.in_tiler.paving, IMat::from_rows(&[&[0, 0], &[1, 0], &[0, 1]]));
        assert!(
            matches!(&access.op, ElementaryOp::WeightedSum { weights } if weights == &vec![1, -1])
        );
    }

    #[test]
    fn refuses_what_tilers_cannot_express() {
        // Two source arrays.
        let two_src = SymExpr::bin(
            BinKind::Add,
            load(0, vec![SymExpr::Idx(0)]),
            load(1, vec![SymExpr::Idx(0)]),
        );
        let mut p = prog_with_body(vec![8], vec![8], two_src);
        p.declare("other", vec![8]);
        assert!(recognize(&p, 0, 0).is_none());

        // Non-affine index (iv*iv).
        let sq = load(0, vec![SymExpr::bin(BinKind::Mul, SymExpr::Idx(0), SymExpr::Idx(0))]);
        let p = prog_with_body(vec![64], vec![8], sq);
        assert!(recognize(&p, 0, 0).is_none());

        // Offsets varying along two axes.
        let diag = SymExpr::bin(
            BinKind::Add,
            load(0, vec![SymExpr::Idx(0), SymExpr::Idx(1)]),
            load(
                0,
                vec![
                    SymExpr::bin(BinKind::Add, SymExpr::Idx(0), SymExpr::Const(1)),
                    SymExpr::bin(BinKind::Add, SymExpr::Idx(1), SymExpr::Const(1)),
                ],
            ),
        );
        let p = prog_with_body(vec![4, 8], vec![3, 7], diag);
        assert!(recognize(&p, 0, 0).is_none());

        // Weighted sum with an additive constant has no elementary op.
        let with_const = SymExpr::bin(BinKind::Add, blur_body(), SymExpr::Const(1));
        let p = prog_with_body(vec![4, 8], vec![4, 6], with_const);
        assert!(recognize(&p, 0, 0).is_none());

        // Seeded loops would need the seed modelled too.
        let mut p = prog_with_body(vec![8], vec![8], load(0, vec![SymExpr::Idx(0)]));
        if let Step::With { with, .. } = &mut p.steps[0] {
            with.modarray_src = Some(0);
        }
        assert!(recognize(&p, 0, 0).is_none());
    }
}
