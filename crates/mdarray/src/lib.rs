#![warn(missing_docs)]

//! # mdarray — multidimensional array substrate
//!
//! A small, dependency-free multidimensional array library shared by every other
//! crate in this workspace. It provides:
//!
//! * [`Shape`] — a rank-polymorphic extent descriptor with row-major strides,
//! * [`NdArray`] — a dense, row-major, heap-backed array over any `Clone` element,
//! * [`IndexIter`] — lexicographic iteration over all indices of a shape,
//! * a positional checksum for comparing frames ([`ops::checksum`]).
//!
//! Both the ArrayOL executor and the SaC interpreter manipulate frames through this
//! crate, and the GPU simulator's buffers are flat `Vec<i32>` images of these arrays,
//! so round-tripping between the two is cheap and well-tested.
//!
//! ## Example
//!
//! ```
//! use mdarray::{NdArray, Shape};
//!
//! // A 2x3 array filled from a function of the index.
//! let a = NdArray::from_fn(Shape::new(vec![2, 3]), |ix| (ix[0] * 10 + ix[1]) as i32);
//! assert_eq!(a[&[1, 2]], 12);
//! assert_eq!(a.shape().len(), 6);
//!
//! let b = a.map(|v| v * 2);
//! assert_eq!(b[&[1, 2]], 24);
//! ```

pub mod array;
pub mod iter;
pub mod ops;
pub mod shape;

pub use array::NdArray;
pub use iter::IndexIter;
pub use shape::Shape;

/// Errors reported by shape-sensitive operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant payload fields are self-describing
pub enum MdError {
    /// Two shapes that were required to match did not.
    ShapeMismatch { left: Vec<usize>, right: Vec<usize> },
    /// An index was out of bounds for the given shape.
    OutOfBounds { index: Vec<usize>, shape: Vec<usize> },
    /// The rank (number of dimensions) was not the one required.
    RankMismatch { expected: usize, actual: usize },
    /// A shape's element count overflows a `usize`, or its buffer's byte
    /// count exceeds `isize::MAX`.
    TooLarge { shape: Vec<usize> },
}

impl std::fmt::Display for MdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MdError::ShapeMismatch { left, right } => {
                write!(f, "shape mismatch: {left:?} vs {right:?}")
            }
            MdError::OutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
            MdError::RankMismatch { expected, actual } => {
                write!(f, "rank mismatch: expected {expected}, got {actual}")
            }
            MdError::TooLarge { shape } => {
                write!(f, "shape {shape:?} has too many elements to allocate")
            }
        }
    }
}

impl std::error::Error for MdError {}
