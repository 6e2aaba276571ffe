//! Dense row-major multidimensional arrays.

use crate::{IndexIter, MdError, Shape};

/// A dense, row-major, heap-backed multidimensional array.
///
/// Elements live in a single contiguous `Vec<T>`; indexing is by `&[usize]`
/// index vectors whose length equals the array's rank. Rank-0 arrays hold a
/// single scalar.
///
/// This is the value representation used by the SaC interpreter, the ArrayOL
/// executor, and the frame pipeline of the downscaler application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NdArray<T> {
    shape: Shape,
    data: Vec<T>,
}

impl<T: Clone> NdArray<T> {
    /// An array of the given shape with every element set to `fill`.
    pub fn filled(shape: impl Into<Shape>, fill: T) -> Self {
        let shape = shape.into();
        let len = shape.len();
        NdArray { shape, data: vec![fill; len] }
    }

    /// Build an array by evaluating `f` at every index (row-major order).
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(&[usize]) -> T) -> Self {
        let shape = shape.into();
        let mut data = Vec::with_capacity(shape.len());
        IndexIter::for_each_index(&shape, |ix| data.push(f(ix)));
        NdArray { shape, data }
    }

    /// Wrap an existing flat buffer. Errors if `data.len()` disagrees with the shape.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<T>) -> Result<Self, MdError> {
        let shape = shape.into();
        if shape.len() != data.len() {
            return Err(MdError::ShapeMismatch {
                left: shape.dims().to_vec(),
                right: vec![data.len()],
            });
        }
        Ok(NdArray { shape, data })
    }

    /// A rank-0 array holding one scalar.
    pub fn scalar(value: T) -> Self {
        NdArray { shape: Shape::scalar(), data: vec![value] }
    }

    /// The array's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The array's rank.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the flat element buffer (row-major).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the flat element buffer (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Checked element access.
    pub fn get(&self, index: &[usize]) -> Result<&T, MdError> {
        let off = self.shape.offset_of(index)?;
        Ok(&self.data[off])
    }

    /// Checked element assignment.
    pub fn set(&mut self, index: &[usize], value: T) -> Result<(), MdError> {
        let off = self.shape.offset_of(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Unchecked-in-release element read for hot paths.
    #[inline]
    pub fn get_unchecked(&self, index: &[usize]) -> &T {
        let off = self.shape.offset_unchecked(index);
        &self.data[off]
    }

    /// Unchecked-in-release element write for hot paths.
    #[inline]
    pub fn set_unchecked(&mut self, index: &[usize], value: T) {
        let off = self.shape.offset_unchecked(index);
        self.data[off] = value;
    }

    /// Apply `f` to every element, producing a new array of the same shape.
    pub fn map<U: Clone>(&self, f: impl FnMut(&T) -> U) -> NdArray<U> {
        NdArray { shape: self.shape.clone(), data: self.data.iter().map(f).collect() }
    }

    /// Combine two same-shaped arrays elementwise.
    pub fn zip_with<U: Clone, V: Clone>(
        &self,
        other: &NdArray<U>,
        mut f: impl FnMut(&T, &U) -> V,
    ) -> Result<NdArray<V>, MdError> {
        if self.shape != other.shape {
            return Err(MdError::ShapeMismatch {
                left: self.shape.dims().to_vec(),
                right: other.shape.dims().to_vec(),
            });
        }
        let data = self.data.iter().zip(&other.data).map(|(a, b)| f(a, b)).collect();
        Ok(NdArray { shape: self.shape.clone(), data })
    }

    /// Extract the rank-(r-k) sub-array at a length-k index prefix.
    ///
    /// For a `[1080,240,11]` intermediate this selects e.g. the 11-element
    /// tile at repetition index `[i, j]` — the `input[rep]` selection of the
    /// paper's task function.
    pub fn subarray(&self, prefix: &[usize]) -> Result<NdArray<T>, MdError> {
        if prefix.len() > self.rank() {
            return Err(MdError::RankMismatch { expected: self.rank(), actual: prefix.len() });
        }
        let rest: Shape = Shape::new(self.shape.dims()[prefix.len()..].to_vec());
        // Offset of the prefix with zeros appended.
        let mut full = prefix.to_vec();
        full.extend(std::iter::repeat_n(0, self.rank() - prefix.len()));
        let start = self.shape.offset_of(&full)?;
        let len = rest.len();
        Ok(NdArray { shape: rest, data: self.data[start..start + len].to_vec() })
    }
}

impl<T: Clone> std::ops::Index<&[usize]> for NdArray<T> {
    type Output = T;

    fn index(&self, index: &[usize]) -> &T {
        self.get(index).expect("NdArray index out of bounds")
    }
}

impl<T: Clone, const N: usize> std::ops::Index<&[usize; N]> for NdArray<T> {
    type Output = T;

    fn index(&self, index: &[usize; N]) -> &T {
        self.get(index.as_slice()).expect("NdArray index out of bounds")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_fills_row_major() {
        let a = NdArray::from_fn([2, 3], |ix| ix[0] * 3 + ix[1]);
        assert_eq!(a.as_slice(), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn filled_and_set_get() {
        let mut a = NdArray::filled([2, 2], 7i32);
        a.set(&[1, 0], -1).unwrap();
        assert_eq!(*a.get(&[1, 0]).unwrap(), -1);
        assert_eq!(*a.get(&[0, 0]).unwrap(), 7);
        assert!(a.set(&[2, 0], 0).is_err());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(NdArray::from_vec([2, 2], vec![1, 2, 3]).is_err());
        let a = NdArray::from_vec([2, 2], vec![1, 2, 3, 4]).unwrap();
        assert_eq!(a[&[1, 1]], 4);
    }

    #[test]
    fn scalar_arrays() {
        let s = NdArray::scalar(42);
        assert_eq!(s.rank(), 0);
        assert_eq!(*s.get(&[]).unwrap(), 42);
    }

    #[test]
    fn map_preserves_shape() {
        let a = NdArray::from_fn([3, 4], |ix| (ix[0] + ix[1]) as i64);
        let b = a.map(|v| v * v);
        assert_eq!(b.shape(), a.shape());
        assert_eq!(b[&[2, 3]], 25);
    }

    #[test]
    fn zip_with_rejects_mismatched_shapes() {
        let a = NdArray::filled([2, 2], 1);
        let b = NdArray::filled([2, 3], 1);
        assert!(a.zip_with(&b, |x, y| x + y).is_err());
        let c = NdArray::filled([2, 2], 2);
        let d = a.zip_with(&c, |x, y| x + y).unwrap();
        assert_eq!(d.as_slice(), &[3, 3, 3, 3]);
    }

    #[test]
    fn subarray_selects_tile() {
        // Shape [2, 3, 4]: subarray([1, 2]) is the last 4-element row.
        let a = NdArray::from_fn([2, 3, 4], |ix| ix[0] * 100 + ix[1] * 10 + ix[2]);
        let t = a.subarray(&[1, 2]).unwrap();
        assert_eq!(t.shape().dims(), &[4]);
        assert_eq!(t.as_slice(), &[120, 121, 122, 123]);
        // Full-rank prefix selects a scalar.
        let s = a.subarray(&[0, 1, 2]).unwrap();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.as_slice(), &[12]);
    }
}
