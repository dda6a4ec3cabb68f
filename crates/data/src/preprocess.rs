//! Preprocessing: per-individual z-normalisation.

use ema_tensor::Tensor;

/// Z-normalises each column (variable) of a `[T, V]` matrix to zero mean
/// and unit variance. Constant columns map to all zeros.
///
/// # Panics
/// Panics unless `data` is rank 2.
#[must_use]
pub fn z_normalize(data: &Tensor) -> Tensor {
    assert_eq!(data.rank(), 2, "data must be [T, V]");
    let (t, v) = (data.dims()[0], data.dims()[1]);
    let mut out = data.clone();
    for j in 0..v {
        let col = data.col(j);
        let mean = col.mean();
        let std = col.std();
        for i in 0..t {
            let val = if std > 0.0 {
                (data.at2(i, j) - mean) / std
            } else {
                0.0
            };
            out.set2(i, j, val);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_normalize_standardises() {
        let data =
            Tensor::from_vec2(vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]]).unwrap();
        let z = z_normalize(&data);
        for j in 0..2 {
            assert!(z.col(j).mean().abs() < 1e-12);
            assert!((z.col(j).std() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn z_normalize_constant_column_is_zero() {
        let data = Tensor::from_vec2(vec![vec![5.0, 1.0], vec![5.0, 2.0]]).unwrap();
        let z = z_normalize(&data);
        assert_eq!(z.col(0).data(), &[0.0, 0.0]);
    }
}
