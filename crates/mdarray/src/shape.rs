//! Array extents and row-major stride arithmetic.

use crate::MdError;

/// The extents of a dense, row-major multidimensional array.
///
/// A `Shape` of rank `r` describes arrays indexed by `r`-element index vectors
/// `ix` with `0 <= ix[d] < dims[d]`. The linear offset of an index is
/// `sum(ix[d] * stride[d])` where strides are the usual row-major products of
/// trailing extents.
///
/// Rank-0 shapes are permitted and describe scalars (one element, empty index).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Create a shape from its extents.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// The scalar (rank-0) shape.
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Extent of dimension `d`. Panics if `d >= rank`.
    pub fn dim(&self, d: usize) -> usize {
        self.dims[d]
    }

    /// Total number of elements (product of extents; 1 for scalars).
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Total number of elements, or `None` when the product of extents
    /// overflows a `usize`.
    pub fn checked_len(&self) -> Option<usize> {
        self.dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d))
    }

    /// True when the shape contains no elements (some extent is zero).
    pub fn is_empty(&self) -> bool {
        self.dims.contains(&0)
    }

    /// Row-major strides for this shape.
    ///
    /// `strides()[d]` is the number of elements separating consecutive values
    /// of index component `d`.
    pub fn strides(&self) -> Vec<usize> {
        let mut s = vec![1usize; self.rank()];
        for d in (0..self.rank().saturating_sub(1)).rev() {
            s[d] = s[d + 1] * self.dims[d + 1];
        }
        s
    }

    /// Linear (row-major) offset of `index`, or an error if out of bounds.
    pub fn offset_of(&self, index: &[usize]) -> Result<usize, MdError> {
        if index.len() != self.rank() {
            return Err(MdError::RankMismatch { expected: self.rank(), actual: index.len() });
        }
        let mut off = 0usize;
        let mut stride = 1usize;
        for d in (0..self.rank()).rev() {
            if index[d] >= self.dims[d] {
                return Err(MdError::OutOfBounds {
                    index: index.to_vec(),
                    shape: self.dims.clone(),
                });
            }
            off += index[d] * stride;
            stride *= self.dims[d];
        }
        Ok(off)
    }

    /// Linear offset without bounds checks beyond debug assertions.
    ///
    /// Used on hot paths where the caller has already validated the index.
    #[inline]
    pub fn offset_unchecked(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.rank());
        let mut off = 0usize;
        let mut stride = 1usize;
        for d in (0..self.rank()).rev() {
            debug_assert!(index[d] < self.dims[d], "index {index:?} oob for {:?}", self.dims);
            off += index[d] * stride;
            stride *= self.dims[d];
        }
        off
    }

    /// Convert a linear offset back into a multidimensional index.
    pub fn index_of(&self, mut offset: usize) -> Vec<usize> {
        let mut ix = vec![0usize; self.rank()];
        for d in (0..self.rank()).rev() {
            let e = self.dims[d].max(1);
            ix[d] = offset % e;
            offset /= e;
        }
        ix
    }

    /// Concatenate two shapes: the result indexes a nesting of `self` over `other`.
    ///
    /// This is the operation the paper uses when an intermediate array's shape is
    /// "a concatenation of the repetition space shape and the pattern shape".
    pub fn concat(&self, other: &Shape) -> Shape {
        let mut dims = self.dims.clone();
        dims.extend_from_slice(&other.dims);
        Shape { dims }
    }

    /// Wrap a possibly-negative index componentwise into this shape (modulo extents).
    ///
    /// ArrayOL tilers address arrays modulo their shape; this implements the
    /// `mod s_array` of the tiler equations for signed offsets.
    pub fn wrap(&self, index: &[i64]) -> Vec<usize> {
        debug_assert_eq!(index.len(), self.rank());
        index
            .iter()
            .zip(&self.dims)
            .map(|(&i, &d)| {
                let d = d as i64;
                (((i % d) + d) % d) as usize
            })
            .collect()
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert_eq!(s.offset_of(&[]), Ok(0));
    }

    #[test]
    fn row_major_strides() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.len(), 24);
    }

    #[test]
    fn offset_roundtrip() {
        let s = Shape::new(vec![3, 5, 7]);
        for off in 0..s.len() {
            let ix = s.index_of(off);
            assert_eq!(s.offset_of(&ix).unwrap(), off);
            assert_eq!(s.offset_unchecked(&ix), off);
        }
    }

    #[test]
    fn offset_rejects_out_of_bounds() {
        let s = Shape::new(vec![2, 2]);
        assert!(matches!(s.offset_of(&[2, 0]), Err(MdError::OutOfBounds { .. })));
        assert!(matches!(s.offset_of(&[0]), Err(MdError::RankMismatch { .. })));
    }

    #[test]
    fn concat_appends_dims() {
        let a = Shape::new(vec![1080, 240]);
        let b = Shape::new(vec![11]);
        assert_eq!(a.concat(&b).dims(), &[1080, 240, 11]);
    }

    #[test]
    fn wrap_handles_negative_indices() {
        let s = Shape::new(vec![10, 4]);
        assert_eq!(s.wrap(&[-1, 5]), vec![9, 1]);
        assert_eq!(s.wrap(&[10, -4]), vec![0, 0]);
        assert_eq!(s.wrap(&[3, 3]), vec![3, 3]);
    }

    #[test]
    fn empty_shape_detection() {
        assert!(Shape::new(vec![3, 0, 2]).is_empty());
        assert!(!Shape::new(vec![3, 1, 2]).is_empty());
        assert_eq!(Shape::new(vec![3, 0, 2]).len(), 0);
    }

    #[test]
    fn display_formats_like_sac_shape() {
        assert_eq!(Shape::new(vec![1080, 1920]).to_string(), "[1080,1920]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }
}
