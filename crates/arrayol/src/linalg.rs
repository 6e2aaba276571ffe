//! Small integer vectors and matrices for tiler algebra.
//!
//! Tiler arithmetic operates on signed integers (offsets can step backwards and
//! are reduced modulo array shapes), with ranks rarely above 3, so these types
//! favour clarity over asymptotic cleverness.

/// A signed integer vector (e.g. a tiler origin or an index).
pub type IVec = Vec<i64>;

/// A dense, row-major signed integer matrix.
///
/// Fitting and paving matrices map pattern-space / repetition-space indices to
/// array-space offsets: an `IMat` with `rows = array_rank` and `cols` equal to
/// the index-space rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IMat {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl IMat {
    /// Create a matrix from row-major data; panics if `data.len() != rows*cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<i64>) -> Self {
        assert_eq!(data.len(), rows * cols, "IMat data length must equal rows*cols");
        IMat { rows, cols, data }
    }

    /// Create from nested rows; panics if rows are ragged.
    pub fn from_rows(rows: &[&[i64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in IMat::from_rows");
            data.extend_from_slice(row);
        }
        IMat { rows: r, cols: c, data }
    }

    /// The zero matrix of the given dimensions.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        IMat { rows, cols, data: vec![0; rows * cols] }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = IMat::zeros(n, n);
        for i in 0..n {
            *m.at_mut(i, i) = 1;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> i64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut i64 {
        &mut self.data[r * self.cols + c]
    }

    /// Matrix–vector product; panics if `v.len() != cols`.
    pub fn mv(&self, v: &[i64]) -> IVec {
        assert_eq!(v.len(), self.cols, "IMat::mv dimension mismatch");
        (0..self.rows).map(|r| (0..self.cols).map(|c| self.at(r, c) * v[c]).sum()).collect()
    }

    /// Horizontal concatenation `[self | other]`; panics if row counts differ.
    ///
    /// This is the `CAT(paving, fitting)` of the paper's generic tiler: the
    /// concatenated matrix maps a concatenated `rep ++ pat` index in one product.
    pub fn hcat(&self, other: &IMat) -> IMat {
        assert_eq!(self.rows, other.rows, "IMat::hcat row mismatch");
        let mut m = IMat::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                *m.at_mut(r, c) = self.at(r, c);
            }
            for c in 0..other.cols {
                *m.at_mut(r, self.cols + c) = other.at(r, c);
            }
        }
        m
    }

    /// Matrix–matrix product `self · other`; panics if `self.cols != other.rows`.
    ///
    /// Tiler composition chains index maps: if `other` maps a fused repetition
    /// index to a producer repetition index and `self` is the producer's paving,
    /// the product paves the array directly from the fused repetition space.
    pub fn matmul(&self, other: &IMat) -> IMat {
        assert_eq!(self.cols, other.rows, "IMat::matmul dimension mismatch");
        let mut m = IMat::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for c in 0..other.cols {
                *m.at_mut(r, c) = (0..self.cols).map(|k| self.at(r, k) * other.at(k, c)).sum();
            }
        }
        m
    }

    /// Rows of the matrix as slices.
    pub fn row(&self, r: usize) -> &[i64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
}

/// Componentwise vector addition; panics on length mismatch.
pub fn vadd(a: &[i64], b: &[i64]) -> IVec {
    assert_eq!(a.len(), b.len(), "vadd length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Convert an unsigned index to a signed vector.
pub fn to_signed(ix: &[usize]) -> IVec {
    ix.iter().map(|&x| x as i64).collect()
}

/// Concatenate two index vectors (`rep ++ pat`).
#[cfg(test)]
fn vcat(a: &[i64], b: &[i64]) -> IVec {
    [a, b].concat()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_mv_is_identity() {
        let m = IMat::identity(3);
        assert_eq!(m.mv(&[7, -2, 5]), vec![7, -2, 5]);
    }

    #[test]
    fn mv_computes_linear_combination() {
        // The horizontal-filter paving {{1,0},{0,8}} from the paper.
        let p = IMat::from_rows(&[&[1, 0], &[0, 8]]);
        assert_eq!(p.mv(&[3, 5]), vec![3, 40]);
    }

    #[test]
    fn hcat_concatenates_columns() {
        let p = IMat::from_rows(&[&[1, 0], &[0, 8]]);
        let f = IMat::from_rows(&[&[0], &[1]]);
        let cat = p.hcat(&f);
        assert_eq!(cat.cols(), 3);
        assert_eq!(cat.row(0), &[1, 0, 0]);
        assert_eq!(cat.row(1), &[0, 8, 1]);
        // CAT(P,F)·(rep ++ pat) == P·rep + F·pat
        let rep = [2i64, 5];
        let pat = [7i64];
        let lhs = cat.mv(&vcat(&rep, &pat));
        let rhs = vadd(&p.mv(&rep), &f.mv(&pat));
        assert_eq!(lhs, rhs);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mv_rejects_wrong_length() {
        IMat::identity(2).mv(&[1, 2, 3]);
    }

    #[test]
    fn matmul_composes_index_maps() {
        let p = IMat::from_rows(&[&[1, 0], &[0, 8]]);
        let b = IMat::from_rows(&[&[9, 0], &[0, 1]]);
        let composed = p.matmul(&b);
        assert_eq!(composed, IMat::from_rows(&[&[9, 0], &[0, 8]]));
        // (P·B)·v == P·(B·v) for any repetition index v.
        let v = [3i64, -2];
        assert_eq!(composed.mv(&v), p.mv(&b.mv(&v)));
        assert_eq!(p.matmul(&IMat::identity(2)), p);
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(vadd(&[1, 2], &[10, 20]), vec![11, 22]);
        assert_eq!(vcat(&[1], &[2, 3]), vec![1, 2, 3]);
        assert_eq!(to_signed(&[4, 0]), vec![4, 0]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The tiler identity the paper's generic code relies on:
        /// `MV(CAT(P, F), rep ++ pat) == MV(P, rep) + MV(F, pat)`.
        #[test]
        fn cat_mv_distributes(
            p in proptest::collection::vec(-9i64..9, 4),
            f in proptest::collection::vec(-9i64..9, 2),
            rep in proptest::collection::vec(-100i64..100, 2),
            pat in -100i64..100,
        ) {
            let paving = IMat::new(2, 2, p);
            let fitting = IMat::new(2, 1, f);
            let cat = paving.hcat(&fitting);
            let lhs = cat.mv(&vcat(&rep, &[pat]));
            let rhs = vadd(&paving.mv(&rep), &fitting.mv(&[pat]));
            prop_assert_eq!(lhs, rhs);
        }

        /// Identity matrices are neutral for MV at any size.
        #[test]
        fn identity_is_neutral(v in proptest::collection::vec(-1000i64..1000, 1..6)) {
            let m = IMat::identity(v.len());
            prop_assert_eq!(m.mv(&v), v);
        }
    }
}
