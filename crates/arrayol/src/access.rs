//! Plan-level tiled-access descriptions in the o/F/P vocabulary.
//!
//! A [`TiledAccess`] is the route-agnostic record of *how one kernel launch
//! touches its arrays*: a repetition space, an input pattern gathered by an
//! input tiler, an output pattern scattered by an output tiler, and the
//! elementary computation in between. Both route frontends lower to it —
//! the GASPARD2 chain mechanically (its scheduled kernels already carry
//! tilers), the SaC chain by recognising affine WITH-loop bodies — and the
//! plan-level fusion pass composes adjacent accesses with the PR 3
//! tiler-composition algebra ([`crate::compose`](mod@crate::compose)) without knowing which
//! frontend produced them.
//!
//! The tilers are plain [`Tiler`]s, and [`WindowSpec`] and [`ElementaryOp`]
//! live here rather than in `gaspard`, so that `simgpu` and `sac-cuda` speak
//! the model's vocabulary without depending on the GASPARD2 crate.

use crate::compose::{compose, ComposeError, StagePorts};
use crate::tiler::Tiler;
use mdarray::{NdArray, Shape};

/// One interpolation window of an elementary filter task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Offset of the window within the input pattern.
    pub offset: usize,
    /// Window length.
    pub len: usize,
}

/// The computation an elementary task performs on one pattern — the "IP"
/// (intellectual property block) the model links against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElementaryOp {
    /// The H.263 downscaler interpolation: output `k` is
    /// `t/divisor - t%divisor` where `t` sums window `k` of the pattern
    /// (the paper's Figure 5 arithmetic).
    InterpolateWindows {
        /// One window per output element.
        windows: Vec<WindowSpec>,
        /// The divisor (6 in the paper).
        divisor: i64,
    },
    /// `out[i] = in[i] * mul + add` (pattern-sized output).
    AffineMap {
        /// Multiplier.
        mul: i64,
        /// Addend.
        add: i64,
    },
    /// Single-element output: the sum of the pattern.
    SumReduce,
    /// Single-element output: the dot product of the pattern with a fixed
    /// integer weight vector — the elementary form of a 1-D convolution
    /// stencil (blur `[1,2,1]`, gradient `[-1,0,1]`, delta `[1,-1]`, …).
    /// `weights.len()` must equal the input pattern length.
    WeightedSum {
        /// One weight per pattern element.
        weights: Vec<i64>,
    },
    /// `out = in` (pattern copy).
    Copy,
    /// Two fused elementary stages (built by the fusion pass, never written
    /// in models): the pattern is split into `inner_count` chunks of
    /// `inner_in_len`, `inner` runs on each chunk, and every row of
    /// `outer_gathers` selects values from the concatenated inner outputs to
    /// feed one `outer` application. The fused output concatenates the outer
    /// results row by row.
    Composed {
        /// The producer stage's op.
        inner: Box<ElementaryOp>,
        /// How many producer applications one fused instance performs.
        inner_count: usize,
        /// Flat producer input pattern length.
        inner_in_len: usize,
        /// The consumer stage's op.
        outer: Box<ElementaryOp>,
        /// Per grouped consumer instance: flat indices into the inner
        /// outputs forming its input pattern.
        outer_gathers: Vec<Vec<usize>>,
    },
}

impl ElementaryOp {
    /// Output pattern length for a given input pattern length.
    pub fn out_len(&self, in_len: usize) -> usize {
        match self {
            ElementaryOp::InterpolateWindows { windows, .. } => windows.len(),
            ElementaryOp::AffineMap { .. } | ElementaryOp::Copy => in_len,
            ElementaryOp::SumReduce | ElementaryOp::WeightedSum { .. } => 1,
            ElementaryOp::Composed { outer, outer_gathers, .. } => {
                let per_row = outer_gathers.first().map_or(0, |row| outer.out_len(row.len()));
                outer_gathers.len() * per_row
            }
        }
    }

    /// Reference (host) semantics on one gathered pattern.
    pub fn apply(&self, pattern: &[i64]) -> Vec<i64> {
        match self {
            ElementaryOp::InterpolateWindows { windows, divisor } => windows
                .iter()
                .map(|w| {
                    let t: i64 = pattern[w.offset..w.offset + w.len].iter().sum();
                    t / divisor - t % divisor
                })
                .collect(),
            ElementaryOp::AffineMap { mul, add } => {
                pattern.iter().map(|&v| v * mul + add).collect()
            }
            ElementaryOp::SumReduce => vec![pattern.iter().sum()],
            ElementaryOp::WeightedSum { weights } => {
                debug_assert_eq!(pattern.len(), weights.len());
                vec![pattern.iter().zip(weights).map(|(&p, &w)| p * w).sum()]
            }
            ElementaryOp::Copy => pattern.to_vec(),
            ElementaryOp::Composed { inner, inner_count, inner_in_len, outer, outer_gathers } => {
                debug_assert_eq!(pattern.len(), inner_count * inner_in_len);
                let mut mid = Vec::with_capacity(inner_count * inner.out_len(*inner_in_len));
                for chunk in pattern.chunks(*inner_in_len) {
                    mid.extend(inner.apply(chunk));
                }
                let mut out = Vec::new();
                for row in outer_gathers {
                    let gathered: Vec<i64> = row.iter().map(|&k| mid[k]).collect();
                    out.extend(outer.apply(&gathered));
                }
                out
            }
        }
    }
}

/// How one kernel launch touches its single input and single output array:
/// the plan-level access description the fusion pass composes over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TiledAccess {
    /// Repetition space (one kernel instance per lattice point).
    pub repetition: Vec<usize>,
    /// Input pattern shape.
    pub in_pattern: Vec<usize>,
    /// Input tiler (gathers the pattern from the input array).
    pub in_tiler: Tiler,
    /// Output pattern shape.
    pub out_pattern: Vec<usize>,
    /// Output tiler (scatters the pattern into the output array).
    pub out_tiler: Tiler,
    /// The per-instance computation.
    pub op: ElementaryOp,
}

impl TiledAccess {
    /// The [`StagePorts`]-shaped view needed by the composition algebra.
    fn ports(&self) -> StagePorts<'_> {
        StagePorts {
            in_tiler: &self.in_tiler,
            in_pattern: &self.in_pattern,
            out_tiler: &self.out_tiler,
            out_pattern: &self.out_pattern,
            repetition: &self.repetition,
        }
    }
}

/// Compose a producer access with a consumer access over the given array
/// shapes (producer input, intermediate, consumer output), yielding the
/// access of the fused kernel. The fused op is
/// [`ElementaryOp::Composed`]`{ inner: producer.op, outer: consumer.op }`.
///
/// Legality (canonical tilers, aligned stepping or block grouping, wrap
/// consistency, exact cover) is delegated to [`crate::compose`](mod@crate::compose); its typed
/// errors surface through [`ComposeError`] so callers can refuse-and-report.
pub fn compose_access(
    producer: &TiledAccess,
    consumer: &TiledAccess,
    in_shape: &[usize],
    mid_shape: &[usize],
    out_shape: &[usize],
) -> Result<TiledAccess, ComposeError> {
    let fused = compose(
        &producer.ports(),
        &consumer.ports(),
        &Shape::new(in_shape.to_vec()),
        &Shape::new(mid_shape.to_vec()),
        &Shape::new(out_shape.to_vec()),
    )?;
    Ok(TiledAccess {
        repetition: fused.repetition,
        in_pattern: fused.gather_pattern,
        in_tiler: fused.gather,
        out_pattern: fused.scatter_pattern,
        out_tiler: fused.scatter,
        op: ElementaryOp::Composed {
            inner: Box::new(producer.op.clone()),
            inner_count: fused.inner_count,
            inner_in_len: fused.inner_in_len,
            outer: Box::new(consumer.op.clone()),
            outer_gathers: fused.outer_gathers,
        },
    })
}

/// Row-major lattice points of a pattern/repetition shape (the trailing
/// dimension varies fastest). The empty shape yields one empty point.
pub fn lattice_points(shape: &[usize]) -> Vec<Vec<usize>> {
    let mut points = vec![vec![]];
    for &extent in shape {
        let mut next = Vec::with_capacity(points.len() * extent);
        for p in &points {
            for v in 0..extent {
                let mut q = p.clone();
                q.push(v);
                next.push(q);
            }
        }
        points = next;
    }
    points
}

/// CPU reference semantics of one access: gather every pattern through the
/// input tiler, apply the op, scatter through the output tiler. Cells the
/// output tiler never writes stay zero.
pub fn apply_access(
    access: &TiledAccess,
    input: &NdArray<i64>,
    out_shape: &[usize],
) -> NdArray<i64> {
    let out_sh = Shape::new(out_shape.to_vec());
    let mut out = NdArray::filled(out_shape.to_vec(), 0i64);
    let in_points = lattice_points(&access.in_pattern);
    let out_points = lattice_points(&access.out_pattern);
    for rep in lattice_points(&access.repetition) {
        let pattern: Vec<i64> = in_points
            .iter()
            .map(|p| {
                let ix = access.in_tiler.element_index(input.shape(), &rep, p);
                *input.get(&ix).expect("gather index wraps in-bounds")
            })
            .collect();
        let result = access.op.apply(&pattern);
        debug_assert_eq!(result.len(), out_points.len());
        for (p, v) in out_points.iter().zip(result) {
            let ix = access.out_tiler.element_index(&out_sh, &rep, p);
            out.set(&ix, v).expect("scatter index wraps in-bounds");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IMat;

    fn sliding(rows: usize, in_cols: usize, k: usize, weights: Vec<i64>) -> TiledAccess {
        TiledAccess {
            repetition: vec![rows, in_cols - k + 1],
            in_pattern: vec![k],
            in_tiler: Tiler::new(vec![0, 0], IMat::from_rows(&[&[0], &[1]]), IMat::identity(2)),
            out_pattern: vec![1],
            out_tiler: Tiler::new(vec![0, 0], IMat::from_rows(&[&[0], &[0]]), IMat::identity(2)),
            op: ElementaryOp::WeightedSum { weights },
        }
    }

    #[test]
    fn apply_access_matches_hand_stencil() {
        let acc = sliding(2, 6, 3, vec![1, 2, 1]);
        let input = NdArray::from_fn([2usize, 6], |ix| (ix[0] * 6 + ix[1]) as i64);
        let out = apply_access(&acc, &input, &[2, 4]);
        for r in 0..2 {
            for c in 0..4 {
                let base = (r * 6 + c) as i64;
                assert_eq!(*out.get(&[r, c]).unwrap(), base + 2 * (base + 1) + (base + 2));
            }
        }
    }

    #[test]
    fn compose_access_chains_two_stencils() {
        let (rows, cols) = (3, 10);
        let a = sliding(rows, cols, 3, vec![1, 2, 1]);
        let b = sliding(rows, cols - 2, 3, vec![-1, 0, 1]);
        let fused = compose_access(&a, &b, &[rows, cols], &[rows, cols - 2], &[rows, cols - 4])
            .expect("exact-cover chain composes");
        assert_eq!(fused.repetition, vec![rows, cols - 4]);
        let input = NdArray::from_fn([rows, cols], |ix| (ix[0] * cols + ix[1]) as i64 % 13);
        let mid = apply_access(&a, &input, &[rows, cols - 2]);
        let two_step = apply_access(&b, &mid, &[rows, cols - 4]);
        let one_step = apply_access(&fused, &input, &[rows, cols - 4]);
        assert_eq!(one_step.as_slice(), two_step.as_slice());
    }

    #[test]
    fn compose_access_surfaces_legality_errors() {
        let a = sliding(2, 8, 3, vec![1, 2, 1]);
        // A non-canonical consumer fitting (one pattern axis touching two
        // array dims): the algebra must refuse rather than mis-compose.
        let mut b = sliding(2, 6, 3, vec![1, 0, 1]);
        b.in_tiler.fitting = IMat::from_rows(&[&[1], &[1]]);
        assert!(compose_access(&a, &b, &[2, 8], &[2, 6], &[2, 4]).is_err());
    }
}
