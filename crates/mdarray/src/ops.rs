//! Whole-array operations over [`NdArray`]s of integers.

use crate::NdArray;

/// A simple positional checksum used by tests and the frame sink to compare
/// pipelines without storing full frames: `sum(v[i] * (i * 2 + 1))` in
/// wrapping arithmetic.
pub fn checksum(a: &NdArray<i64>) -> u64 {
    let mut acc = 0u64;
    for (i, &v) in a.as_slice().iter().enumerate() {
        acc = acc.wrapping_add((v as u64).wrapping_mul((i as u64) * 2 + 1));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a2x2(vals: [i64; 4]) -> NdArray<i64> {
        NdArray::from_vec([2, 2], vals.to_vec()).unwrap()
    }

    #[test]
    fn checksum_is_position_sensitive() {
        let a = a2x2([1, 2, 3, 4]);
        let b = a2x2([4, 3, 2, 1]);
        assert_ne!(checksum(&a), checksum(&b));
        assert_eq!(checksum(&a), checksum(&a.clone()));
    }
}
