//! Shape arithmetic: dimension bookkeeping and row-major index math.

use crate::TensorError;

/// Maximum tensor rank supported by the inline shape representation.
pub const MAX_RANK: usize = 4;

/// The dimensions of a tensor, stored outermost-first (row-major).
///
/// Dimensions live in a fixed inline array (rank ≤ `MAX_RANK`), so a
/// `Shape` never touches the heap — constructing, cloning and comparing
/// shapes is allocation-free, which matters because every tensor op on
/// the training hot path builds one. Unused slots are kept at zero so
/// the derived `PartialEq`/`Hash` agree with logical equality.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    /// Creates a shape from a dimension slice.
    ///
    /// # Errors
    /// Returns [`TensorError::EmptyShape`] if `dims` is empty, any
    /// dimension is zero, or the rank exceeds `MAX_RANK`.
    pub fn new(dims: &[usize]) -> Result<Self, TensorError> {
        if dims.is_empty() || dims.len() > MAX_RANK || dims.contains(&0) {
            return Err(TensorError::EmptyShape);
        }
        let mut inline = [0; MAX_RANK];
        inline[..dims.len()].copy_from_slice(dims);
        Ok(Self {
            dims: inline,
            rank: dims.len() as u8,
        })
    }

    /// Creates a shape without validation. Panics on invalid input.
    ///
    /// # Panics
    /// Panics if `dims` is empty, contains a zero dimension, or exceeds
    /// rank `MAX_RANK`.
    #[must_use]
    pub fn of(dims: &[usize]) -> Self {
        Self::new(dims).expect("invalid shape: empty, zero-sized or over-rank dimension list")
    }

    /// The dimensions as a slice, outermost-first.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }

    /// The number of axes.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// The total number of elements (product of dimensions).
    #[must_use]
    pub fn volume(&self) -> usize {
        self.dims().iter().product()
    }

    /// Size along `axis`.
    ///
    /// # Panics
    /// Panics if `axis >= rank`.
    #[must_use]
    pub fn dim(&self, axis: usize) -> usize {
        assert!(
            axis < self.rank(),
            "axis {axis} out of bounds for rank {}",
            self.rank()
        );
        self.dims[axis]
    }

    /// Converts a multi-dimensional index into a flat offset.
    ///
    /// # Panics
    /// Panics if the index rank differs from the shape rank or any
    /// coordinate is out of bounds.
    #[must_use]
    pub fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.rank(),
            "index rank {} does not match shape rank {}",
            index.len(),
            self.rank()
        );
        let mut flat = 0;
        let mut stride = 1;
        for axis in (0..self.rank()).rev() {
            let i = index[axis];
            assert!(
                i < self.dims[axis],
                "index {i} out of bounds for axis {axis} with size {}",
                self.dims[axis]
            );
            flat += i * stride;
            stride *= self.dims[axis];
        }
        flat
    }

    /// Returns the shape with `axis` removed (used by axis reductions).
    /// A rank-1 shape reduces to `[1]`.
    ///
    /// # Panics
    /// Panics if `axis >= rank`.
    #[must_use]
    pub fn without_axis(&self, axis: usize) -> Shape {
        assert!(axis < self.rank(), "axis {axis} out of bounds");
        if self.rank() == 1 {
            return Shape::of(&[1]);
        }
        let mut dims = [0; MAX_RANK];
        let mut out = 0;
        for (a, &d) in self.dims().iter().enumerate() {
            if a != axis {
                dims[out] = d;
                out += 1;
            }
        }
        Shape {
            dims,
            rank: out as u8,
        }
    }
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Shape({:?})", self.dims())
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::of(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::of(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_rank() {
        let s = Shape::of(&[2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.volume(), 24);
        assert_eq!(s.dims(), &[2, 3, 4]);
    }

    #[test]
    fn rejects_empty_zero_and_over_rank() {
        assert_eq!(Shape::new(&[]), Err(TensorError::EmptyShape));
        assert_eq!(Shape::new(&[3, 0]), Err(TensorError::EmptyShape));
        assert_eq!(Shape::new(&[1; MAX_RANK + 1]), Err(TensorError::EmptyShape));
        assert!(Shape::new(&[1; MAX_RANK]).is_ok());
    }

    #[test]
    fn flat_index_round_trips() {
        // Row-major order visits every flat offset once, in order.
        let s = Shape::of(&[3, 4, 5]);
        let mut flat = 0;
        for i in 0..3 {
            for j in 0..4 {
                for k in 0..5 {
                    assert_eq!(s.flat_index(&[i, j, k]), flat);
                    flat += 1;
                }
            }
        }
        assert_eq!(flat, s.volume());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn flat_index_checks_bounds() {
        let _ = Shape::of(&[2, 2]).flat_index(&[2, 0]);
    }

    #[test]
    fn without_axis_reduces_rank() {
        let s = Shape::of(&[2, 3, 4]);
        assert_eq!(s.without_axis(1).dims(), &[2, 4]);
        assert_eq!(Shape::of(&[7]).without_axis(0).dims(), &[1]);
    }

    #[test]
    fn from_array_works() {
        let s: Shape = [2, 2].into();
        assert_eq!(s.volume(), 4);
    }

    #[test]
    fn equality_ignores_unused_slots() {
        // Shapes of different ranks never compare equal, and identical
        // dims always do — the invariant the zeroed tail maintains.
        assert_eq!(Shape::of(&[2, 3]), Shape::of(&[2, 3]));
        assert_ne!(Shape::of(&[2, 3]), Shape::of(&[2, 3, 1]));
        assert_ne!(Shape::of(&[6]), Shape::of(&[6, 1]));
    }
}
