//! Tiler composition: fusing a producer→consumer pair of repetitive tasks.
//!
//! Following Feautrier's elementary transformation analysis for Array-OL, a
//! producer that tiles its output array `M` and a consumer that tiles `M` back
//! in can — under legality conditions checked here — be composed into a single
//! repetitive task that never materialises `M`. The composed task gathers
//! directly from the producer's *input* array through a **composed gather
//! tiler**, recomputes the producer patterns it needs in registers, and
//! scatters through the consumer's output tiler.
//!
//! The algebra works dimension by dimension on `M` and only accepts tilers in
//! *canonical form* (each pattern/repetition axis drives at most one array
//! dimension with unit fitting steps and positive paving steps — true of every
//! tiler the GASPARD2 chain schedules). Everything else **refuses** rather
//! than risking an illegal fusion: the caller falls back to the unfused route.
//!
//! Writing `s_d` for the producer's block extent along dimension `d` (its
//! output pattern extent there), the producer must pave `M` contiguously
//! (`step == s_d`, `s_d · reps == |M_d|`, checked via
//! [`Tiler::check_exact_cover`]). A consumer stepping `c_d` with window `w_d`
//! then composes in one of two ways:
//!
//! * **aligned stepping** (`c_d ≡ 0 mod s_d`): each consumer instance reads
//!   `U_d = ⌈w_d / s_d⌉` whole producer blocks starting `β_d = c_d / s_d`
//!   blocks apart;
//! * **block grouping** (`s_d ≡ 0 mod c_d`): `B_d = s_d / c_d` consecutive
//!   consumer instances fall inside one producer block, so the fused task
//!   runs the consumer `B_d` times per gathered block.
//!
//! Boundary windows that step outside `M` are legal only when the producer's
//! own input addressing is wrap-consistent: advancing a producer repetition
//! axis by its full extent must be a no-op modulo the input array shape.
//!
//! The two exact-cover checks — the producer's output tiler over `M` before
//! composing and the composed scatter tiler over the output after — are
//! decided per dimension when the tiler is [separable](Tiler::is_separable),
//! without walking `M` or the output. The producer's tiler is canonical and
//! so always separable; the scatter is separable whenever the consumer's
//! output tiler is, as for every pipeline in the workload registry. Composing
//! such a pair costs the same at every frame size.

use crate::access::lattice_points;
use crate::linalg::{vadd, IMat};
use crate::tiler::Tiler;
use crate::validate::ArrayOlError;
use mdarray::Shape;

/// One side of a repetitive task, as seen by the composition algebra.
#[derive(Debug, Clone, Copy)]
pub struct StagePorts<'a> {
    /// Input tiler (over the stage's input array).
    pub in_tiler: &'a Tiler,
    /// Input pattern shape.
    pub in_pattern: &'a [usize],
    /// Output tiler (over the stage's output array).
    pub out_tiler: &'a Tiler,
    /// Output pattern shape.
    pub out_pattern: &'a [usize],
    /// Repetition space.
    pub repetition: &'a [usize],
}

/// Why a producer→consumer pair cannot be fused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComposeError {
    /// A tiler is not in the canonical form the algebra handles.
    NonCanonical(String),
    /// The consumer's tiling does not line up with the producer's blocks.
    Misaligned(String),
    /// Fusion would need toroidal wrap the producer's input addressing does
    /// not honour.
    WrapInconsistent(String),
    /// The composed scatter tiler failed the exact-cover legality check.
    NotExactCover(ArrayOlError),
}

impl std::fmt::Display for ComposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComposeError::NonCanonical(msg) => write!(f, "non-canonical tiler: {msg}"),
            ComposeError::Misaligned(msg) => write!(f, "misaligned tilings: {msg}"),
            ComposeError::WrapInconsistent(msg) => write!(f, "wrap-inconsistent: {msg}"),
            ComposeError::NotExactCover(e) => write!(f, "composed scatter not exact: {e:?}"),
        }
    }
}

/// The result of composing a producer→consumer tiler pair: everything needed
/// to build one fused repetitive task that bypasses the intermediate array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedTiling {
    /// Repetition space of the fused task (consumer instances, grouped by
    /// block along grouped axes).
    pub repetition: Vec<usize>,
    /// Input pattern shape of the fused task: one producer input pattern per
    /// gathered producer block (`U_0 × … × U_{m-1}` blocks).
    pub gather_pattern: Vec<usize>,
    /// Composed gather tiler over the producer's input array.
    pub gather: Tiler,
    /// Output pattern shape of the fused task: one consumer output pattern
    /// per grouped consumer instance (`B` instances).
    pub scatter_pattern: Vec<usize>,
    /// Scatter tiler over the consumer's output array.
    pub scatter: Tiler,
    /// Producer applications per fused instance (`Π U_d`).
    pub inner_count: usize,
    /// Flat producer input pattern length.
    pub inner_in_len: usize,
    /// Flat producer output pattern length.
    pub inner_out_len: usize,
    /// For each grouped consumer instance: the flat indices into the
    /// recomputed intermediate (`inner_count × inner_out_len` values) that
    /// form its input pattern.
    pub outer_gathers: Vec<Vec<usize>>,
}

/// Per-`M`-dimension view of a canonical tiler.
struct DimView {
    rep_axis: Option<usize>,
    step: i64,
    pat_axis: Option<usize>,
    extent: usize,
    origin: i64,
}

/// Per-`M`-dimension composition result.
struct DimComp {
    block_size: i64,
    blocks_read: usize,
    alpha: i64,
    beta: i64,
    group: i64,
}

fn non_canonical(what: &str, msg: impl std::fmt::Display) -> ComposeError {
    ComposeError::NonCanonical(format!("{what}: {msg}"))
}

/// Break a tiler over `M` into independent per-dimension views, refusing
/// anything outside canonical form.
fn decompose(
    t: &Tiler,
    pattern: &[usize],
    repetition: &[usize],
    m_rank: usize,
    what: &str,
) -> Result<Vec<DimView>, ComposeError> {
    if t.origin.len() != m_rank || t.fitting.rows() != m_rank || t.paving.rows() != m_rank {
        return Err(non_canonical(what, "tiler rank disagrees with the array"));
    }
    if t.fitting.cols() != pattern.len() || t.paving.cols() != repetition.len() {
        return Err(non_canonical(what, "matrix columns disagree with pattern/repetition"));
    }
    let mut views: Vec<DimView> = (0..m_rank)
        .map(|d| DimView {
            rep_axis: None,
            step: 0,
            pat_axis: None,
            extent: 1,
            origin: t.origin[d],
        })
        .collect();
    for (j, &extent) in pattern.iter().enumerate() {
        let nonzero: Vec<usize> = (0..m_rank).filter(|&d| t.fitting.at(d, j) != 0).collect();
        match nonzero.as_slice() {
            [] if extent == 1 => {}
            [] => return Err(non_canonical(what, format!("pattern axis {j} maps nowhere"))),
            [d] if t.fitting.at(*d, j) == 1 => {
                if views[*d].pat_axis.is_some() {
                    return Err(non_canonical(what, format!("dimension {d} has two pattern axes")));
                }
                views[*d].pat_axis = Some(j);
                views[*d].extent = extent;
            }
            [d] => {
                return Err(non_canonical(
                    what,
                    format!("fitting step {} on dimension {d} is not 1", t.fitting.at(*d, j)),
                ))
            }
            _ => return Err(non_canonical(what, format!("pattern axis {j} is not axis-aligned"))),
        }
    }
    for (a, &count) in repetition.iter().enumerate() {
        let nonzero: Vec<usize> = (0..m_rank).filter(|&d| t.paving.at(d, a) != 0).collect();
        match nonzero.as_slice() {
            [] if count == 1 => {}
            [] => return Err(non_canonical(what, format!("repetition axis {a} maps nowhere"))),
            [d] if t.paving.at(*d, a) > 0 => {
                if views[*d].rep_axis.is_some() {
                    return Err(non_canonical(
                        what,
                        format!("dimension {d} has two repetition axes"),
                    ));
                }
                views[*d].rep_axis = Some(a);
                views[*d].step = t.paving.at(*d, a);
            }
            [d] => {
                return Err(non_canonical(
                    what,
                    format!("paving step {} on dimension {d} is not positive", t.paving.at(*d, a)),
                ))
            }
            _ => {
                return Err(non_canonical(what, format!("repetition axis {a} is not axis-aligned")))
            }
        }
    }
    Ok(views)
}

/// Row-major flattening of `ix` under `shape`.
fn flatten(ix: &[usize], shape: &[usize]) -> usize {
    ix.iter().zip(shape).fold(0, |acc, (&i, &d)| acc * d + i)
}

/// Compose a producer stage writing `mid_shape` with a consumer stage reading
/// it, yielding the tiling of the fused stage over `in_shape` → `out_shape`.
pub fn compose(
    producer: &StagePorts<'_>,
    consumer: &StagePorts<'_>,
    in_shape: &Shape,
    mid_shape: &Shape,
    out_shape: &Shape,
) -> Result<FusedTiling, ComposeError> {
    let m_dims = mid_shape.dims();
    let m_rank = m_dims.len();
    let po = decompose(
        producer.out_tiler,
        producer.out_pattern,
        producer.repetition,
        m_rank,
        "producer output",
    )?;
    let ci = decompose(
        consumer.in_tiler,
        consumer.in_pattern,
        consumer.repetition,
        m_rank,
        "consumer input",
    )?;
    if producer.in_tiler.origin.len() != in_shape.dims().len() {
        return Err(non_canonical("producer input", "tiler rank disagrees with the array"));
    }

    // Legality precondition: the producer writes every element of `M` exactly
    // once — the same exact-cover check the validator runs on output tilers.
    producer
        .out_tiler
        .check_exact_cover(
            mid_shape,
            &Shape::new(producer.repetition.to_vec()),
            &Shape::new(producer.out_pattern.to_vec()),
        )
        .map_err(ComposeError::NotExactCover)?;

    let mut dims: Vec<DimComp> = Vec::with_capacity(m_rank);
    for d in 0..m_rank {
        let s = po[d].extent as i64;
        let prod_count = po[d].rep_axis.map_or(1, |a| producer.repetition[a]) as i64;
        if po[d].rep_axis.is_some() && po[d].step != s {
            return Err(ComposeError::Misaligned(format!(
                "producer blocks on dimension {d} are not contiguous (step {} vs extent {s})",
                po[d].step
            )));
        }
        if s * prod_count != m_dims[d] as i64 {
            return Err(ComposeError::Misaligned(format!(
                "producer blocks do not tile dimension {d} ({s}×{prod_count} vs {})",
                m_dims[d]
            )));
        }

        let align = ci[d].origin - po[d].origin;
        if align % s != 0 {
            return Err(ComposeError::Misaligned(format!(
                "consumer origin on dimension {d} is not block-aligned (offset {align}, block {s})"
            )));
        }
        let alpha = align / s;
        let w = ci[d].extent as i64;
        let c = if ci[d].rep_axis.is_some() { ci[d].step } else { 0 };
        let n = ci[d].rep_axis.map_or(1, |ax| consumer.repetition[ax]) as i64;
        let (group, blocks_read, beta) = if c % s == 0 {
            (1, ((w + s - 1) / s) as usize, c / s)
        } else if s % c == 0 {
            let b = s / c;
            if (b - 1) * c + w > s {
                return Err(ComposeError::Misaligned(format!(
                    "consumer windows on dimension {d} straddle producer blocks \
                     (footprint {} over block {s})",
                    (b - 1) * c + w
                )));
            }
            if n % b != 0 {
                return Err(ComposeError::Misaligned(format!(
                    "consumer repetition {n} on dimension {d} is not divisible by group {b}"
                )));
            }
            (b, 1, 1)
        } else {
            return Err(ComposeError::Misaligned(format!(
                "consumer step {c} on dimension {d} is incommensurate with block {s}"
            )));
        };

        // Virtual producer repetitions the fused gather addresses along this
        // dimension; out-of-range ones rely on toroidal wrap being consistent
        // between `M` and the producer's input addressing.
        let n_fused = n / group;
        let last = alpha + beta * (n_fused - 1);
        let (min_rp, max_rp) = (alpha.min(last), alpha.max(last) + blocks_read as i64 - 1);
        if min_rp < 0 || max_rp >= prod_count {
            let Some(a) = po[d].rep_axis else {
                return Err(ComposeError::WrapInconsistent(format!(
                    "dimension {d} needs virtual producer repetitions but the producer has none"
                )));
            };
            for (e, &ae) in in_shape.dims().iter().enumerate() {
                let t = producer.in_tiler.paving.at(e, a);
                if t != 0 && (t * prod_count) % ae as i64 != 0 {
                    return Err(ComposeError::WrapInconsistent(format!(
                        "wrapping producer repetition axis {a} (extent {prod_count}) moves the \
                         input window by {t}·{prod_count} ≢ 0 mod {ae}"
                    )));
                }
            }
        }
        dims.push(DimComp { block_size: s, blocks_read, alpha, beta, group });
    }

    let prod_rank = producer.repetition.len();
    let cons_rank = consumer.repetition.len();

    // Composed index maps, built with the tiler algebra: the fused gather is
    // the producer's input tiler pre-composed with the block-selection map.
    let mut alpha_vec = vec![0i64; prod_rank];
    let mut b_mat = IMat::zeros(prod_rank, cons_rank);
    let mut u_embed = IMat::zeros(prod_rank, m_rank);
    let mut groups = vec![1i64; cons_rank];
    for (d, dc) in dims.iter().enumerate() {
        if let Some(a) = po[d].rep_axis {
            alpha_vec[a] = dc.alpha;
            *u_embed.at_mut(a, d) = 1;
            if let Some(ax) = ci[d].rep_axis {
                *b_mat.at_mut(a, ax) = dc.beta;
            }
        }
        if let Some(ax) = ci[d].rep_axis {
            groups[ax] = dc.group;
        }
    }
    let p_in = &producer.in_tiler.paving;
    let gather = Tiler::new(
        vadd(&producer.in_tiler.origin, &p_in.mv(&alpha_vec)),
        p_in.matmul(&u_embed).hcat(&producer.in_tiler.fitting),
        p_in.matmul(&b_mat),
    );
    let blocks_read: Vec<usize> = dims.iter().map(|dc| dc.blocks_read).collect();
    let mut gather_pattern = blocks_read.clone();
    gather_pattern.extend_from_slice(producer.in_pattern);

    let repetition: Vec<usize> =
        (0..cons_rank).map(|ax| consumer.repetition[ax] / groups[ax] as usize).collect();

    let group_shape: Vec<usize> = groups.iter().map(|&g| g as usize).collect();
    let mut scatter_pattern = group_shape.clone();
    scatter_pattern.extend_from_slice(consumer.out_pattern);
    let mut group_diag = IMat::zeros(cons_rank, cons_rank);
    for (ax, &g) in groups.iter().enumerate() {
        *group_diag.at_mut(ax, ax) = g;
    }
    let p_out = &consumer.out_tiler.paving;
    let scatter = Tiler::new(
        consumer.out_tiler.origin.clone(),
        p_out.hcat(&consumer.out_tiler.fitting),
        p_out.matmul(&group_diag),
    );

    // Legality post-check, again via exact cover: the fused task must still
    // write every element of the output exactly once.
    scatter
        .check_exact_cover(
            out_shape,
            &Shape::new(repetition.clone()),
            &Shape::new(scatter_pattern.clone()),
        )
        .map_err(ComposeError::NotExactCover)?;

    // Static gather plan for the consumer stage: which recomputed producer
    // outputs each grouped consumer instance reads.
    let inner_out_len: usize = producer.out_pattern.iter().product();
    let mut outer_gathers = Vec::with_capacity(group_shape.iter().product());
    for b in lattice_points(&group_shape) {
        let mut row = Vec::with_capacity(consumer.in_pattern.iter().product());
        for i in lattice_points(consumer.in_pattern) {
            let mut u_ix = vec![0usize; m_rank];
            let mut j_ix = vec![0usize; producer.out_pattern.len()];
            for (d, dc) in dims.iter().enumerate() {
                let mut rel = 0i64;
                if let Some(ax) = ci[d].rep_axis {
                    rel += ci[d].step * b[ax] as i64;
                }
                if let Some(p) = ci[d].pat_axis {
                    rel += i[p] as i64;
                }
                debug_assert!(rel >= 0);
                u_ix[d] = (rel / dc.block_size) as usize;
                debug_assert!(u_ix[d] < dc.blocks_read);
                if let Some(q) = po[d].pat_axis {
                    j_ix[q] = (rel % dc.block_size) as usize;
                } else {
                    debug_assert_eq!(rel % dc.block_size, 0);
                }
            }
            let chunk = flatten(&u_ix, &blocks_read);
            row.push(chunk * inner_out_len + flatten(&j_ix, producer.out_pattern));
        }
        outer_gathers.push(row);
    }

    Ok(FusedTiling {
        repetition,
        gather_pattern,
        gather,
        scatter_pattern,
        scatter,
        inner_count: blocks_read.iter().product(),
        inner_in_len: producer.in_pattern.iter().product(),
        inner_out_len,
        outer_gathers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::IMat;
    use mdarray::Shape;

    /// CPU reference for a fused stage: evaluate it exactly as the generated
    /// kernel would, useful for testing the algebra without a code generator.
    ///
    /// `inner` and `outer` are the producer and consumer elementary functions on
    /// flat patterns; `input` is the producer's input array (flat, row-major).
    fn apply_fused(
        fused: &FusedTiling,
        inner: impl Fn(&[i64]) -> Vec<i64>,
        outer: impl Fn(&[i64]) -> Vec<i64>,
        input: &[i64],
        in_shape: &Shape,
        out_shape: &Shape,
    ) -> Vec<i64> {
        let mut out = vec![0i64; out_shape.len()];
        for rep in lattice_points(&fused.repetition) {
            let mut pattern = Vec::with_capacity(fused.gather_pattern.iter().product());
            for p in lattice_points(&fused.gather_pattern) {
                let ix = fused.gather.element_index(in_shape, &rep, &p);
                pattern.push(input[flatten(&ix, in_shape.dims())]);
            }
            let mut mid = Vec::with_capacity(fused.inner_count * fused.inner_out_len);
            for chunk in pattern.chunks(fused.inner_in_len) {
                mid.extend(inner(chunk));
            }
            let mut result = Vec::new();
            for row in &fused.outer_gathers {
                let gathered: Vec<i64> = row.iter().map(|&k| mid[k]).collect();
                result.extend(outer(&gathered));
            }
            for (p, v) in lattice_points(&fused.scatter_pattern).iter().zip(result) {
                let ix = fused.scatter.element_index(out_shape, &rep, p);
                out[flatten(&ix, out_shape.dims())] = v;
            }
        }
        out
    }

    /// Reference (unfused) evaluation of one repetitive stage.
    fn run_stage(
        ports: &StagePorts<'_>,
        op: &dyn Fn(&[i64]) -> Vec<i64>,
        input: &[i64],
        in_shape: &Shape,
        out_shape: &Shape,
    ) -> Vec<i64> {
        let mut out = vec![0i64; out_shape.len()];
        for rep in lattice_points(ports.repetition) {
            let mut pat = Vec::new();
            for p in lattice_points(ports.in_pattern) {
                let ix = ports.in_tiler.element_index(in_shape, &rep, &p);
                pat.push(input[flatten(&ix, in_shape.dims())]);
            }
            for (p, v) in lattice_points(ports.out_pattern).iter().zip(op(&pat)) {
                let ix = ports.out_tiler.element_index(out_shape, &rep, p);
                out[flatten(&ix, out_shape.dims())] = v;
            }
        }
        out
    }

    fn interp(windows: &[(usize, usize)], divisor: i64) -> impl Fn(&[i64]) -> Vec<i64> + '_ {
        move |pat: &[i64]| {
            windows
                .iter()
                .map(|&(off, len)| {
                    let t: i64 = pat[off..off + len].iter().sum();
                    t / divisor - t % divisor
                })
                .collect()
        }
    }

    /// The miniature two-stage chain from the gaspard fixtures: both stages
    /// interpolate 5→2 along columns. Composition takes the aligned-stepping
    /// branch on columns and needs a wrap-consistent virtual repetition.
    #[test]
    fn aligned_stepping_chain_matches_unfused() {
        let col = IMat::from_rows(&[&[0], &[1]]);
        let stage_in = |step: i64| {
            Tiler::new(vec![0, 0], col.clone(), IMat::from_rows(&[&[1, 0], &[0, step]]))
        };
        let producer = StagePorts {
            in_tiler: &stage_in(4),
            in_pattern: &[5],
            out_tiler: &stage_in(2),
            out_pattern: &[2],
            repetition: &[4, 4],
        };
        let consumer = StagePorts {
            in_tiler: &stage_in(4),
            in_pattern: &[5],
            out_tiler: &stage_in(2),
            out_pattern: &[2],
            repetition: &[4, 2],
        };
        let (a, m, o) = (Shape::new(vec![4, 16]), Shape::new(vec![4, 8]), Shape::new(vec![4, 4]));
        let fused = compose(&producer, &consumer, &a, &m, &o).unwrap();
        assert_eq!(fused.repetition, vec![4, 2]);
        assert_eq!(fused.gather_pattern, vec![1, 3, 5]);
        assert_eq!(fused.inner_count, 3);
        assert_eq!(fused.scatter_pattern, vec![1, 1, 2]);

        let op = interp(&[(0, 3), (2, 3)], 3);
        let input: Vec<i64> = (0..64).map(|v| v * 7 % 23).collect();
        let mid = run_stage(&producer, &op, &input, &a, &m);
        let expect = run_stage(&consumer, &op, &mid, &m, &o);
        let got = apply_fused(&fused, &op, &op, &input, &a, &o);
        assert_eq!(got, expect);
    }

    /// An H-then-V chain shaped like the downscaler: the vertical consumer
    /// steps 1 along columns inside the producer's 3-wide blocks, so fusion
    /// groups 3 consumer instances per gathered block (the grouping branch).
    #[test]
    fn block_grouping_chain_matches_unfused() {
        let col = IMat::from_rows(&[&[0], &[1]]);
        let row = IMat::from_rows(&[&[1], &[0]]);
        let h_in = Tiler::new(vec![0, 0], col.clone(), IMat::from_rows(&[&[1, 0], &[0, 8]]));
        let h_out = Tiler::new(vec![0, 0], col.clone(), IMat::from_rows(&[&[1, 0], &[0, 3]]));
        let v_in = Tiler::new(vec![0, 0], row.clone(), IMat::from_rows(&[&[2, 0], &[0, 1]]));
        let v_out = Tiler::new(vec![0, 0], row.clone(), IMat::from_rows(&[&[2, 0], &[0, 1]]));
        let producer = StagePorts {
            in_tiler: &h_in,
            in_pattern: &[8],
            out_tiler: &h_out,
            out_pattern: &[3],
            repetition: &[8, 2],
        };
        let consumer = StagePorts {
            in_tiler: &v_in,
            in_pattern: &[4],
            out_tiler: &v_out,
            out_pattern: &[2],
            repetition: &[4, 6],
        };
        let (a, m, o) = (Shape::new(vec![8, 16]), Shape::new(vec![8, 6]), Shape::new(vec![8, 6]));
        let fused = compose(&producer, &consumer, &a, &m, &o).unwrap();
        assert_eq!(fused.repetition, vec![4, 2], "columns grouped 3-to-1");
        assert_eq!(fused.gather_pattern, vec![4, 1, 8]);
        assert_eq!(fused.scatter_pattern, vec![1, 3, 2]);
        assert_eq!(fused.outer_gathers.len(), 3);

        let h_op = interp(&[(0, 4), (2, 4), (4, 4)], 4);
        let v_op = interp(&[(0, 3), (1, 3)], 3);
        let input: Vec<i64> = (0..128).map(|v| v * 13 % 31).collect();
        let mid = run_stage(&producer, &h_op, &input, &a, &m);
        let expect = run_stage(&consumer, &v_op, &mid, &m, &o);
        let got = apply_fused(&fused, &h_op, &v_op, &input, &a, &o);
        assert_eq!(got, expect);
    }

    #[test]
    fn incommensurate_step_refuses() {
        let col = IMat::from_rows(&[&[0], &[1]]);
        let h_in = Tiler::new(vec![0, 0], col.clone(), IMat::from_rows(&[&[1, 0], &[0, 8]]));
        let h_out = Tiler::new(vec![0, 0], col.clone(), IMat::from_rows(&[&[1, 0], &[0, 3]]));
        // Steps 2 columns over 3-wide producer blocks: neither branch applies.
        let bad_in = Tiler::new(vec![0, 0], col.clone(), IMat::from_rows(&[&[1, 0], &[0, 2]]));
        let producer = StagePorts {
            in_tiler: &h_in,
            in_pattern: &[8],
            out_tiler: &h_out,
            out_pattern: &[3],
            repetition: &[8, 2],
        };
        let consumer = StagePorts {
            in_tiler: &bad_in,
            in_pattern: &[2],
            out_tiler: &bad_in,
            out_pattern: &[2],
            repetition: &[8, 3],
        };
        let (a, m, o) = (Shape::new(vec![8, 16]), Shape::new(vec![8, 6]), Shape::new(vec![8, 6]));
        let err = compose(&producer, &consumer, &a, &m, &o).unwrap_err();
        assert!(matches!(err, ComposeError::Misaligned(_)), "{err}");
    }

    #[test]
    fn non_exact_producer_refuses() {
        let col = IMat::from_rows(&[&[0], &[1]]);
        let h_in = Tiler::new(vec![0, 0], col.clone(), IMat::from_rows(&[&[1, 0], &[0, 8]]));
        // 3-wide patterns paved 4 apart leave gaps in the intermediate.
        let gappy = Tiler::new(vec![0, 0], col.clone(), IMat::from_rows(&[&[1, 0], &[0, 4]]));
        let producer = StagePorts {
            in_tiler: &h_in,
            in_pattern: &[8],
            out_tiler: &gappy,
            out_pattern: &[3],
            repetition: &[8, 2],
        };
        let consumer = producer;
        let (a, m) = (Shape::new(vec![8, 16]), Shape::new(vec![8, 8]));
        let err = compose(&producer, &consumer, &a, &m, &m).unwrap_err();
        assert!(matches!(err, ComposeError::Misaligned(_) | ComposeError::NotExactCover(_)));
    }
}
