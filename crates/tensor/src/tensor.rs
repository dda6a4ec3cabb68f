//! The core [`Tensor`] type: construction, accessors and reshaping.

use crate::{pool, Shape, TensorError};

/// A dense, row-major tensor of `f64` values.
///
/// The workhorse value type of the workspace. Cloning copies the buffer;
/// at EMA scale (tens of KiB) this is deliberate and keeps ownership
/// simple for the autodiff tape built on top. Storage is drawn from the
/// per-thread [`pool`] and recycled on drop, so the clone-heavy training
/// loop reuses the same buffers epoch after epoch instead of touching
/// the allocator.
#[derive(Debug, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f64>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = pool::take_uninit(self.data.len());
        data.copy_from_slice(&self.data);
        Self {
            shape: self.shape,
            data,
        }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        pool::recycle(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Builds a tensor from a flat buffer and a shape.
    ///
    /// # Errors
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the shape volume, or [`TensorError::EmptyShape`] for invalid dims.
    pub fn from_vec(dims: &[usize], data: Vec<f64>) -> Result<Self, TensorError> {
        let shape = Shape::new(dims)?;
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Self { shape, data })
    }

    /// Builds a tensor directly from a pooled buffer whose length is
    /// already known to match the shape volume. Crate-internal fast
    /// path for kernels that fully wrote `data`.
    #[inline]
    pub(crate) fn from_shape_pooled(shape: Shape, data: Vec<f64>) -> Self {
        debug_assert_eq!(data.len(), shape.volume(), "pooled buffer length mismatch");
        Self { shape, data }
    }

    /// Clones `src` into a pooled tensor of the given shape.
    pub(crate) fn pooled_copy(shape: Shape, src: &[f64]) -> Self {
        let mut data = pool::take_uninit(src.len());
        data.copy_from_slice(src);
        Self::from_shape_pooled(shape, data)
    }

    /// Builds a rank-1 tensor from a vector.
    ///
    /// # Panics
    /// Panics if `data` is empty.
    #[must_use]
    pub fn from_vec1(data: Vec<f64>) -> Self {
        assert!(!data.is_empty(), "cannot build a tensor from an empty vec");
        let shape = Shape::of(&[data.len()]);
        Self { shape, data }
    }

    /// Builds a rank-2 tensor from nested row vectors.
    ///
    /// # Errors
    /// Returns [`TensorError::RaggedRows`] if rows have differing lengths
    /// and [`TensorError::EmptyShape`] if `rows` is empty.
    pub fn from_vec2(rows: Vec<Vec<f64>>) -> Result<Self, TensorError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(TensorError::EmptyShape);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(TensorError::RaggedRows {
                    first: cols,
                    row: i,
                    len: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        let shape = Shape::of(&[rows.len(), cols]);
        Ok(Self { shape, data })
    }

    /// A tensor of zeros with the given dimensions.
    ///
    /// # Panics
    /// Panics on an invalid shape.
    #[must_use]
    pub fn zeros(dims: &[usize]) -> Self {
        Self::filled(dims, 0.0)
    }

    /// A tensor of ones with the given dimensions.
    ///
    /// # Panics
    /// Panics on an invalid shape.
    #[must_use]
    pub fn ones(dims: &[usize]) -> Self {
        Self::filled(dims, 1.0)
    }

    /// A tensor where every element equals `value`.
    ///
    /// # Panics
    /// Panics on an invalid shape.
    #[must_use]
    pub fn filled(dims: &[usize], value: f64) -> Self {
        let shape = Shape::of(dims);
        let data = pool::take_filled(shape.volume(), value);
        Self { shape, data }
    }

    /// The `n × n` identity matrix.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimensions as a slice.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of axes.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always `false`: zero-sized tensors cannot be constructed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Immutable view of the flat buffer (row-major).
    #[must_use]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the flat buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    /// Panics on rank mismatch or out-of-bounds coordinates.
    #[must_use]
    pub fn at(&self, index: &[usize]) -> f64 {
        self.data[self.shape.flat_index(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    /// Panics on rank mismatch or out-of-bounds coordinates.
    pub fn set(&mut self, index: &[usize], value: f64) {
        let flat = self.shape.flat_index(index);
        self.data[flat] = value;
    }

    /// Convenience 2-D accessor: element at `(row, col)`.
    ///
    /// # Panics
    /// Panics unless the tensor is rank 2 and indices are in bounds.
    #[must_use]
    pub fn at2(&self, row: usize, col: usize) -> f64 {
        assert_eq!(self.rank(), 2, "at2 requires a rank-2 tensor");
        self.at(&[row, col])
    }

    /// Convenience 2-D setter.
    ///
    /// # Panics
    /// Panics unless the tensor is rank 2 and indices are in bounds.
    pub fn set2(&mut self, row: usize, col: usize, value: f64) {
        assert_eq!(self.rank(), 2, "set2 requires a rank-2 tensor");
        self.set(&[row, col], value);
    }

    // ------------------------------------------------------------------
    // Reshaping
    // ------------------------------------------------------------------

    /// Returns a tensor with the same data but a new shape.
    ///
    /// # Errors
    /// Returns [`TensorError::IncompatibleReshape`] if the volumes differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims)?;
        if shape.volume() != self.len() {
            return Err(TensorError::IncompatibleReshape {
                from: self.dims().to_vec(),
                to: dims.to_vec(),
            });
        }
        Ok(Self::pooled_copy(shape, &self.data))
    }

    /// Infallible reshape for shapes known to be compatible.
    ///
    /// # Panics
    /// Panics if the volumes differ.
    #[must_use]
    pub fn reshaped(&self, dims: &[usize]) -> Self {
        self.reshape(dims).expect("incompatible reshape")
    }

    /// Flattens to rank 1 without copying semantics changes.
    #[must_use]
    pub fn flatten(&self) -> Self {
        self.reshaped(&[self.len()])
    }

    /// True if all elements are finite (no NaN/inf).
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(&[2, 3], vec![0.0; 6]).is_ok());
        assert_eq!(
            Tensor::from_vec(&[2, 3], vec![0.0; 5]),
            Err(TensorError::LengthMismatch {
                expected: 6,
                actual: 5
            })
        );
    }

    #[test]
    fn from_vec2_rejects_ragged() {
        let err = Tensor::from_vec2(vec![vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, TensorError::RaggedRows { row: 1, .. }));
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let i = Tensor::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.at2(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set(&[1, 2, 3], 7.5);
        assert_eq!(t.at(&[1, 2, 3]), 7.5);
        assert_eq!(t.data()[23], 7.5);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec1(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let m = t.reshape(&[2, 3]).unwrap();
        assert_eq!(m.at2(1, 0), 3.0);
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut t = Tensor::ones(&[2, 2]);
        assert!(t.all_finite());
        t.set2(0, 1, f64::NAN);
        assert!(!t.all_finite());
    }
}
