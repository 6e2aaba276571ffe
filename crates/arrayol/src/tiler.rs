//! Tilers: ArrayOL's mechanism for addressing sub-arrays (*patterns*).
//!
//! A tiler binds a task port to an array and is defined by three pieces of
//! data (Section IV of the paper):
//!
//! * **origin vector** `o` — where the reference tile starts in the array,
//! * **fitting matrix** `F` — how a pattern's elements map to array elements:
//!   `e_i = o_ref + F·i  (mod s_array)` for every pattern index `i`,
//! * **paving matrix** `P` — how tiles cover the array as the repetition index
//!   advances: `ref_r = o + P·r  (mod s_array)` for every repetition index `r`.
//!
//! All addressing is modulo the array shape, which makes every tiler total:
//! boundary tiles wrap around (toroidal addressing), exactly as in ArrayOL.
//!
//! A tiler is an integer affine map per array dimension (Feautrier's view in
//! *Elementary transformation analysis for Array-OL*). When each fitting and
//! paving column moves the tile along at most one dimension, the tiler is
//! *separable* and whole-array questions split by dimension: the exact-cover
//! check ([`Tiler::check_exact_cover`]) then costs the sum of the dimension
//! extents rather than their product.

use crate::linalg::{to_signed, vadd, IMat, IVec};
use crate::validate::ArrayOlError;
use mdarray::{IndexIter, NdArray, Shape};

/// A tiler: origin vector, fitting matrix and paving matrix.
///
/// ```
/// use arrayol::{IMat, Tiler};
/// use mdarray::{NdArray, Shape};
///
/// // The paper's horizontal-filter input tiler: 11-pixel patterns along the
/// // columns, one tile every 8 columns, one row of tiles per image row.
/// let tiler = Tiler::new(
///     vec![0, 0],
///     IMat::from_rows(&[&[0], &[1]]),          // fitting: pattern walks columns
///     IMat::from_rows(&[&[1, 0], &[0, 8]]),    // paving: rows x 8-column tiles
/// );
/// let frame = NdArray::from_fn([2usize, 16], |ix| (ix[0] * 16 + ix[1]) as i64);
/// let tiles = tiler
///     .gather(&frame, &Shape::new(vec![2, 2]), &Shape::new(vec![11]))
///     .unwrap();
/// assert_eq!(tiles.shape().dims(), &[2, 2, 11]);
/// assert_eq!(*tiles.get(&[1, 1, 0]).unwrap(), 16 + 8); // row 1, tile 1 starts at col 8
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tiler {
    /// Origin of the reference tile in array space (length = array rank).
    pub origin: IVec,
    /// Fitting matrix, `array_rank × pattern_rank`.
    pub fitting: IMat,
    /// Paving matrix, `array_rank × repetition_rank`.
    pub paving: IMat,
}

impl Tiler {
    /// Construct a tiler; matrices are validated lazily via [`Tiler::validate`].
    pub fn new(origin: IVec, fitting: IMat, paving: IMat) -> Self {
        Tiler { origin, fitting, paving }
    }

    /// Check this tiler against the shapes it is supposed to connect.
    pub fn validate(
        &self,
        array: &Shape,
        pattern: &Shape,
        repetition: &Shape,
    ) -> Result<(), ArrayOlError> {
        if self.origin.len() != array.rank() {
            return Err(ArrayOlError::TilerDimMismatch {
                what: "origin length vs array rank",
                expected: array.rank(),
                actual: self.origin.len(),
            });
        }
        if self.fitting.rows() != array.rank() {
            return Err(ArrayOlError::TilerDimMismatch {
                what: "fitting rows vs array rank",
                expected: array.rank(),
                actual: self.fitting.rows(),
            });
        }
        if self.fitting.cols() != pattern.rank() {
            return Err(ArrayOlError::TilerDimMismatch {
                what: "fitting cols vs pattern rank",
                expected: pattern.rank(),
                actual: self.fitting.cols(),
            });
        }
        if self.paving.rows() != array.rank() {
            return Err(ArrayOlError::TilerDimMismatch {
                what: "paving rows vs array rank",
                expected: array.rank(),
                actual: self.paving.rows(),
            });
        }
        if self.paving.cols() != repetition.rank() {
            return Err(ArrayOlError::TilerDimMismatch {
                what: "paving cols vs repetition rank",
                expected: repetition.rank(),
                actual: self.paving.cols(),
            });
        }
        Ok(())
    }

    /// The reference element of tile `rep`: `o + P·rep` (unwrapped, signed).
    pub fn reference(&self, rep: &[usize]) -> IVec {
        vadd(&self.origin, &self.paving.mv(&to_signed(rep)))
    }

    /// Array index of pattern element `pat` within tile `rep`, wrapped modulo
    /// the array shape: `(o + P·rep + F·pat) mod s_array`.
    pub fn element_index(&self, array: &Shape, rep: &[usize], pat: &[usize]) -> Vec<usize> {
        let unwrapped = vadd(&self.reference(rep), &self.fitting.mv(&to_signed(pat)));
        array.wrap(&unwrapped)
    }

    /// Gather every tile into an intermediate array of shape
    /// `repetition ++ pattern` (the paper's Step 1 for input tilers).
    pub fn gather(
        &self,
        array: &NdArray<i64>,
        repetition: &Shape,
        pattern: &Shape,
    ) -> Result<NdArray<i64>, ArrayOlError> {
        self.validate(array.shape(), pattern, repetition)?;
        let out_shape = repetition.concat(pattern);
        let mut data = Vec::with_capacity(out_shape.len());
        IndexIter::for_each_index(repetition, |rep| {
            IndexIter::for_each_index(pattern, |pat| {
                let ix = self.element_index(array.shape(), rep, pat);
                data.push(*array.get_unchecked(&ix));
            });
        });
        NdArray::from_vec(out_shape, data).map_err(|_| ArrayOlError::BadTaskOutput {
            task: "gather".into(),
            detail: "length".into(),
        })
    }

    /// Scatter a `repetition ++ pattern` intermediate into `out` (the paper's
    /// Step 3 for output tilers). Elements hit more than once are overwritten
    /// in repetition order; use [`Tiler::check_exact_cover`] to rule that out.
    pub fn scatter(
        &self,
        tiles: &NdArray<i64>,
        out: &mut NdArray<i64>,
        repetition: &Shape,
        pattern: &Shape,
    ) -> Result<(), ArrayOlError> {
        self.validate(out.shape(), pattern, repetition)?;
        let expected = repetition.concat(pattern);
        if tiles.shape() != &expected {
            return Err(ArrayOlError::BadTaskOutput {
                task: "scatter".into(),
                detail: format!("tiles shape {} != {}", tiles.shape(), expected),
            });
        }
        let src = tiles.as_slice();
        let mut pos = 0usize;
        let out_shape = out.shape().clone();
        IndexIter::for_each_index(repetition, |rep| {
            IndexIter::for_each_index(pattern, |pat| {
                let ix = self.element_index(&out_shape, rep, pat);
                out.set_unchecked(&ix, src[pos]);
                pos += 1;
            });
        });
        Ok(())
    }

    /// Verify that tiling writes every element of `array` exactly once —
    /// the condition for an output tiler to define a single-assignment array.
    ///
    /// On failure the error names the first element in row-major order whose
    /// write count is not 1, and that count.
    ///
    /// The answer is decided per array dimension whenever the tiler is
    /// [separable](Tiler::is_separable): every fitting or paving column whose
    /// extent is above 1 then moves the tile along at most one dimension, so
    /// the write count of element `x` factors as `mult · Π_d c_d(x_d)`.
    /// `mult` is the product of the extents of the columns that move nothing,
    /// and `c_d` counts the writes along dimension `d` alone, found by
    /// enumerating only the columns of `d`. The cost is the sum of those
    /// per-dimension enumerations, not the array size. A non-separable tiler
    /// counts every write into an array-sized buffer instead. An empty array
    /// has no element to miswrite and is always covered.
    pub fn check_exact_cover(
        &self,
        array: &Shape,
        repetition: &Shape,
        pattern: &Shape,
    ) -> Result<(), ArrayOlError> {
        self.validate(array, pattern, repetition)?;
        if array.is_empty() {
            return Ok(());
        }
        let Some((mult, axes)) = self.dim_axes(repetition, pattern) else {
            return self.enumerate_cover(array, repetition, pattern);
        };
        let counts: Vec<Vec<u64>> = axes
            .iter()
            .enumerate()
            .map(|(d, axes)| {
                let mut c = vec![0u64; array.dim(d)];
                count_dim(&mut c, self.origin[d], axes);
                c
            })
            .collect();
        // The first bad element in row-major order is the origin when any
        // factor is already wrong there. Otherwise it lies on the axis of the
        // last dimension with a bad coordinate, at the first such coordinate:
        // every element before it has good coordinates only.
        let mut element = vec![0usize; array.rank()];
        if mult == 1 && counts.iter().all(|c| c[0] == 1) {
            let Some(k) = counts.iter().rposition(|c| c.iter().any(|&n| n != 1)) else {
                return Ok(());
            };
            element[k] = counts[k].iter().position(|&n| n != 1).expect("bad coordinate");
        }
        let writes = counts.iter().zip(&element).fold(mult, |w, (c, &x)| w.saturating_mul(c[x]));
        Err(ArrayOlError::NotExactCover { element, writes: writes as usize })
    }

    /// Whether [`Tiler::check_exact_cover`] decides this tiler per array
    /// dimension: every fitting or paving column whose extent is above 1 has
    /// at most one non-zero row. The shapes must have the ranks the tiler's
    /// matrices expect (see [`Tiler::validate`]); otherwise this is `false`.
    pub fn is_separable(&self, repetition: &Shape, pattern: &Shape) -> bool {
        let rank = self.origin.len();
        self.paving.rows() == rank
            && self.fitting.rows() == rank
            && self.paving.cols() == repetition.rank()
            && self.fitting.cols() == pattern.rank()
            && self.dim_axes(repetition, pattern).is_some()
    }

    /// The per-dimension form of the tiler over the given index spaces: the
    /// product of the extents of the columns that move no dimension (0 when
    /// any extent is 0, since nothing is then written), and for each array
    /// dimension the `(coefficient, extent)` of the columns that move only
    /// it. `None` when a column with extent above 1 moves several dimensions.
    fn dim_axes(&self, repetition: &Shape, pattern: &Shape) -> Option<(u64, DimColumns)> {
        let rank = self.origin.len();
        let mut mult = 1u64;
        let mut axes = vec![Vec::new(); rank];
        let columns = (0..self.paving.cols())
            .map(|c| (&self.paving, c, repetition.dim(c)))
            .chain((0..self.fitting.cols()).map(|c| (&self.fitting, c, pattern.dim(c))));
        for (m, c, extent) in columns {
            if extent == 0 {
                mult = 0;
                continue;
            }
            if extent == 1 {
                continue;
            }
            let mut moved = (0..rank).filter(|&d| m.at(d, c) != 0);
            match (moved.next(), moved.next()) {
                (None, _) => mult = mult.saturating_mul(extent as u64),
                (Some(d), None) => axes[d].push((m.at(d, c), extent)),
                _ => return None,
            }
        }
        Some((mult, axes))
    }

    /// Exact cover by counting every write into an array-sized buffer: the
    /// decision procedure for non-separable tilers.
    fn enumerate_cover(
        &self,
        array: &Shape,
        repetition: &Shape,
        pattern: &Shape,
    ) -> Result<(), ArrayOlError> {
        let mut counts = vec![0u32; array.len()];
        IndexIter::for_each_index(repetition, |rep| {
            IndexIter::for_each_index(pattern, |pat| {
                let ix = self.element_index(array, rep, pat);
                counts[array.offset_unchecked(&ix)] += 1;
            });
        });
        for (off, &c) in counts.iter().enumerate() {
            if c != 1 {
                return Err(ArrayOlError::NotExactCover {
                    element: array.index_of(off),
                    writes: c as usize,
                });
            }
        }
        Ok(())
    }

    /// Convenience: a 1-D "sliding window" tiler along dimension `dim` of a
    /// rank-2 array — pattern of `width` consecutive elements, tiles stepped by
    /// `step` along `dim` and by 1 along the other dimension.
    ///
    /// This is exactly the shape of the downscaler's filters: the horizontal
    /// filter is `sliding_window(1, 11, 8)`, reading an 11-pixel pattern every
    /// 8 columns.
    pub fn sliding_window(dim: usize, step: i64) -> Tiler {
        assert!(dim < 2, "sliding_window is defined for rank-2 arrays");
        let fitting =
            if dim == 0 { IMat::from_rows(&[&[1], &[0]]) } else { IMat::from_rows(&[&[0], &[1]]) };
        let paving = if dim == 0 {
            IMat::from_rows(&[&[step, 0], &[0, 1]])
        } else {
            IMat::from_rows(&[&[1, 0], &[0, step]])
        };
        Tiler { origin: vec![0, 0], fitting, paving }
    }
}

/// Per array dimension, the `(coefficient, extent)` of the fitting and paving
/// columns that move the tile along that dimension only.
type DimColumns = Vec<Vec<(i64, usize)>>;

/// Add one write at `(at + Σ step·i) mod counts.len()` for every index `i`
/// of the given `(step, extent)` columns.
fn count_dim(counts: &mut [u64], at: i64, axes: &[(i64, usize)]) {
    match axes.split_first() {
        None => counts[at.rem_euclid(counts.len() as i64) as usize] += 1,
        Some((&(step, extent), rest)) => {
            for i in 0..extent as i64 {
                count_dim(counts, at + step * i, rest);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's horizontal-filter input tiler (Figure 10):
    /// array {1080,1920}, pattern {11}, origin {0,0},
    /// fitting {{0},{1}}, paving {{1,0},{0,8}}, repetition {1080,240}.
    fn hfilter_input_tiler() -> Tiler {
        Tiler::new(vec![0, 0], IMat::from_rows(&[&[0], &[1]]), IMat::from_rows(&[&[1, 0], &[0, 8]]))
    }

    /// The paper's horizontal-filter output tiler: array {1080,720},
    /// pattern {3}, fitting {{0},{1}}, paving {{1,0},{0,3}}.
    fn hfilter_output_tiler() -> Tiler {
        Tiler::new(vec![0, 0], IMat::from_rows(&[&[0], &[1]]), IMat::from_rows(&[&[1, 0], &[0, 3]]))
    }

    #[test]
    fn validate_catches_dimension_errors() {
        let t = hfilter_input_tiler();
        let arr = Shape::new(vec![1080, 1920]);
        let pat = Shape::new(vec![11]);
        let rep = Shape::new(vec![1080, 240]);
        assert!(t.validate(&arr, &pat, &rep).is_ok());
        // Wrong pattern rank.
        assert!(t.validate(&arr, &Shape::new(vec![11, 1]), &rep).is_err());
        // Wrong repetition rank.
        assert!(t.validate(&arr, &pat, &Shape::new(vec![1080])).is_err());
        // Wrong array rank.
        assert!(t.validate(&Shape::new(vec![1080]), &pat, &rep).is_err());
    }

    #[test]
    fn element_index_matches_paper_formulae() {
        let t = hfilter_input_tiler();
        let arr = Shape::new(vec![16, 32]);
        // ref_r = o + P.r: repetition (2, 3) -> row 2, col 24.
        assert_eq!(t.reference(&[2, 3]), vec![2, 24]);
        // e_i = ref + F.i: pattern index 5 -> col 29.
        assert_eq!(t.element_index(&arr, &[2, 3], &[5]), vec![2, 29]);
        // Wrapping: pattern overruns the right edge and wraps modulo 32.
        assert_eq!(t.element_index(&arr, &[0, 3], &[10]), vec![0, 2]);
    }

    #[test]
    fn gather_produces_rep_concat_pattern() {
        let t = hfilter_input_tiler();
        // Small frame: 2 rows x 16 cols, repetition 2 x 2, pattern 11.
        let frame = NdArray::from_fn([2usize, 16], |ix| (ix[0] * 16 + ix[1]) as i64);
        let rep = Shape::new(vec![2, 2]);
        let pat = Shape::new(vec![11]);
        let tiles = t.gather(&frame, &rep, &pat).unwrap();
        assert_eq!(tiles.shape().dims(), &[2, 2, 11]);
        // Tile (0,0) = columns 0..11 of row 0.
        assert_eq!(*tiles.get(&[0, 0, 4]).unwrap(), 4);
        // Tile (1,1) starts at column 8 of row 1.
        assert_eq!(*tiles.get(&[1, 1, 0]).unwrap(), 16 + 8);
        // Wrapping within tile (0,1): pattern index 10 is column 18 mod 16 = 2.
        assert_eq!(*tiles.get(&[0, 1, 10]).unwrap(), 2);
    }

    #[test]
    fn scatter_is_inverse_of_gather_for_exact_covers() {
        // Non-overlapping output tiler: pattern 3, step 3, 2x4 tiles on 2x12.
        let t = hfilter_output_tiler();
        let rep = Shape::new(vec![2, 4]);
        let pat = Shape::new(vec![3]);
        let out_shape = Shape::new(vec![2, 12]);
        t.check_exact_cover(&out_shape, &rep, &pat).unwrap();

        let original = NdArray::from_fn([2usize, 12], |ix| (ix[0] * 100 + ix[1]) as i64);
        let tiles = t.gather(&original, &rep, &pat).unwrap();
        let mut rebuilt = NdArray::filled([2usize, 12], -1i64);
        t.scatter(&tiles, &mut rebuilt, &rep, &pat).unwrap();
        assert_eq!(rebuilt, original);
    }

    #[test]
    fn exact_cover_detects_overlap_and_gaps() {
        // Overlapping: pattern 3 stepped by 2 over 12 columns writes some twice.
        let overlapping = Tiler::new(
            vec![0, 0],
            IMat::from_rows(&[&[0], &[1]]),
            IMat::from_rows(&[&[1, 0], &[0, 2]]),
        );
        let err = overlapping
            .check_exact_cover(
                &Shape::new(vec![2, 12]),
                &Shape::new(vec![2, 6]),
                &Shape::new(vec![3]),
            )
            .unwrap_err();
        assert!(matches!(err, ArrayOlError::NotExactCover { .. }));

        // Gapped: pattern 2 stepped by 3 leaves every third column unwritten.
        let gapped = Tiler::new(
            vec![0, 0],
            IMat::from_rows(&[&[0], &[1]]),
            IMat::from_rows(&[&[1, 0], &[0, 3]]),
        );
        let err = gapped
            .check_exact_cover(
                &Shape::new(vec![2, 12]),
                &Shape::new(vec![2, 4]),
                &Shape::new(vec![2]),
            )
            .unwrap_err();
        assert!(matches!(err, ArrayOlError::NotExactCover { writes: 0, .. }));
    }

    #[test]
    fn paper_hfilter_tilers_cover_output_exactly() {
        // Scaled-down frame keeping the 8 -> 3 column ratio: 4x48 -> 4x18.
        let out = Shape::new(vec![4, 18]);
        let rep = Shape::new(vec![4, 6]);
        let pat = Shape::new(vec![3]);
        hfilter_output_tiler().check_exact_cover(&out, &rep, &pat).unwrap();
    }

    #[test]
    fn sliding_window_constructor() {
        let t = Tiler::sliding_window(1, 8);
        assert_eq!(t, hfilter_input_tiler());
        let tv = Tiler::sliding_window(0, 9);
        assert_eq!(tv.paving.row(0), &[9, 0]);
        assert_eq!(tv.fitting.row(0), &[1]);
        assert_eq!(tv.fitting.row(1), &[0]);
    }

    #[test]
    fn origin_offsets_every_tile() {
        let mut t = hfilter_input_tiler();
        t.origin = vec![1, 2];
        let arr = Shape::new(vec![8, 32]);
        assert_eq!(t.element_index(&arr, &[0, 0], &[0]), vec![1, 2]);
        assert_eq!(t.element_index(&arr, &[1, 1], &[3]), vec![2, 13]);
    }

    /// A random tiler over a rank-1 or rank-2 array with rank-0 to rank-2
    /// patterns and repetitions. Half the tilers have their columns cut down
    /// to one non-zero row, so separable and non-separable ones both occur;
    /// coefficients may be negative, zero or larger than the array (wrap).
    fn random_tiler(rng: &mut proptest::TestRng) -> (Tiler, Shape, Shape, Shape) {
        fn below(rng: &mut proptest::TestRng, n: u64) -> i64 {
            rng.below(n) as i64
        }
        fn extents(rng: &mut proptest::TestRng) -> Vec<usize> {
            let n = below(rng, 3);
            (0..n)
                .map(|_| if below(rng, 16) == 0 { 0 } else { 1 + below(rng, 4) as usize })
                .collect()
        }
        fn matrix(rng: &mut proptest::TestRng, rank: usize, cols: usize, cut: bool) -> IMat {
            let mut m = IMat::zeros(rank, cols);
            for c in 0..cols {
                let keep = below(rng, rank as u64) as usize;
                for d in 0..rank {
                    if !cut || d == keep {
                        *m.at_mut(d, c) = below(rng, 15) - 7;
                    }
                }
            }
            m
        }
        let rank = 1 + below(rng, 2) as usize;
        let array: Vec<usize> = (0..rank).map(|_| 1 + below(rng, 7) as usize).collect();
        let pattern = extents(rng);
        let repetition = extents(rng);
        let cut = below(rng, 2) == 0;
        let fitting = matrix(rng, rank, pattern.len(), cut);
        let paving = matrix(rng, rank, repetition.len(), cut);
        let origin = (0..rank).map(|_| below(rng, 11) - 5).collect();
        let t = Tiler::new(origin, fitting, paving);
        (t, Shape::new(array), Shape::new(repetition), Shape::new(pattern))
    }

    proptest::proptest! {
        /// The per-dimension decision agrees with counting every write,
        /// witness element and write count included.
        #[test]
        fn exact_cover_matches_enumeration(seed in proptest::prelude::any::<u64>()) {
            let mut rng = proptest::TestRng::new(seed);
            let (mut separable, mut covers) = (0, 0);
            for _ in 0..64 {
                let (t, array, rep, pat) = random_tiler(&mut rng);
                let got = t.check_exact_cover(&array, &rep, &pat);
                let want = t.enumerate_cover(&array, &rep, &pat);
                proptest::prop_assert_eq!(&got, &want, "{:?} over {} rep {} pat {}", t, array, rep, pat);
                separable += usize::from(t.is_separable(&rep, &pat));
                covers += usize::from(got.is_ok());
            }
            proptest::prop_assert!(separable > 0 && separable < 64);
            proptest::prop_assert!(covers < 64);
        }
    }

    #[test]
    fn separability_follows_the_columns() {
        let rep = Shape::new(vec![4, 6]);
        let pat = Shape::new(vec![3]);
        assert!(hfilter_output_tiler().is_separable(&rep, &pat));
        // A diagonal fitting column moves both dimensions at once.
        let diagonal = Tiler::new(
            vec![0, 0],
            IMat::from_rows(&[&[1], &[1]]),
            IMat::from_rows(&[&[1, 0], &[0, 3]]),
        );
        assert!(!diagonal.is_separable(&rep, &pat));
        // ... unless the column has extent 1 and so never moves the tile.
        assert!(diagonal.is_separable(&rep, &Shape::new(vec![1])));
        // Shapes of the wrong rank are not separable, not a panic.
        assert!(!diagonal.is_separable(&Shape::new(vec![4]), &pat));
    }

    #[test]
    fn witness_is_first_bad_element_in_row_major_order() {
        // Rows covered once; columns 0..6 once and 6..8 never: the first bad
        // element is (0, 6), written 0 times.
        let t = Tiler::new(
            vec![0, 0],
            IMat::from_rows(&[&[0], &[1]]),
            IMat::from_rows(&[&[1, 0], &[0, 3]]),
        );
        let err = t
            .check_exact_cover(
                &Shape::new(vec![3, 8]),
                &Shape::new(vec![3, 2]),
                &Shape::new(vec![3]),
            )
            .unwrap_err();
        assert_eq!(err, ArrayOlError::NotExactCover { element: vec![0, 6], writes: 0 });
    }
}
