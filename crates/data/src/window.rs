//! Sequential splitting and sliding-window tensorisation.

use ema_tensor::Tensor;

/// Sliding windows over an individual's series for 1-lag forecasting:
/// input `t−s .. t−1` (shape `[s, V]`), target `t` (shape `[V]`).
#[derive(Debug, Clone)]
pub struct WindowedData {
    /// Input windows, each `[seq_len, V]`.
    pub inputs: Vec<Tensor>,
    /// Targets, each `[V]` — the variables at the next time point.
    pub targets: Vec<Tensor>,
    /// The window length used.
    pub seq_len: usize,
}

impl WindowedData {
    /// Number of (input, target) pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// True when no windows fit the series.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Stacks all targets into a `[len, V]` matrix (for evaluation).
    ///
    /// # Panics
    /// Panics when empty.
    #[must_use]
    pub fn targets_matrix(&self) -> Tensor {
        assert!(!self.is_empty(), "no windows to stack");
        Tensor::stack_rows(&self.targets)
    }
}

/// Splits a `[T, V]` series sequentially: the first
/// `round(T · train_fraction)` rows are training, the rest test
/// (paper: 70% / 30%).
///
/// # Panics
/// Panics unless `0 < train_fraction < 1` leaves at least one row on
/// each side.
#[must_use]
pub fn split_train_test(data: &Tensor, train_fraction: f64) -> (Tensor, Tensor) {
    assert_eq!(data.rank(), 2, "data must be [T, V]");
    assert!(
        train_fraction > 0.0 && train_fraction < 1.0,
        "train fraction must be in (0, 1), got {train_fraction}"
    );
    let t = data.dims()[0];
    let cut = ((t as f64) * train_fraction).round() as usize;
    assert!(
        cut >= 1 && cut < t,
        "split leaves an empty side: T = {t}, cut = {cut}"
    );
    (data.slice_rows(0, cut), data.slice_rows(cut, t))
}

/// Builds 1-lag forecasting windows from a `[T, V]` series: for each
/// `t in seq_len .. T`, input rows `t−seq_len .. t`, target row `t`.
///
/// # Panics
/// Panics if `seq_len == 0` or the series has `<= seq_len` rows.
#[must_use]
pub fn make_windows(data: &Tensor, seq_len: usize) -> WindowedData {
    assert_eq!(data.rank(), 2, "data must be [T, V]");
    assert!(seq_len > 0, "seq_len must be positive");
    let t = data.dims()[0];
    assert!(
        t > seq_len,
        "series of {t} rows cannot produce windows of length {seq_len}"
    );
    let mut inputs = Vec::with_capacity(t - seq_len);
    let mut targets = Vec::with_capacity(t - seq_len);
    for end in seq_len..t {
        inputs.push(data.slice_rows(end - seq_len, end));
        targets.push(data.row(end));
    }
    WindowedData {
        inputs,
        targets,
        seq_len,
    }
}

/// Windows for the *test* portion that may look back into the training
/// tail: the first test target still gets a full `seq_len` history by
/// borrowing the last training rows. Mirrors how sequential forecasting
/// is evaluated in the paper (every test time point is predicted).
///
/// # Panics
/// Panics if the combined history is too short.
#[must_use]
pub fn make_test_windows(train: &Tensor, test: &Tensor, seq_len: usize) -> WindowedData {
    assert_eq!(train.dims()[1], test.dims()[1], "variable count mismatch");
    let joined = train.vcat(test);
    let t_train = train.dims()[0];
    let t_total = joined.dims()[0];
    assert!(
        t_train >= seq_len,
        "training tail shorter than the window: {t_train} < {seq_len}"
    );
    let mut inputs = Vec::new();
    let mut targets = Vec::new();
    for end in t_train..t_total {
        inputs.push(joined.slice_rows(end - seq_len, end));
        targets.push(joined.row(end));
    }
    WindowedData {
        inputs,
        targets,
        seq_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(t: usize, v: usize) -> Tensor {
        Tensor::from_vec(&[t, v], (0..t * v).map(|x| x as f64).collect()).unwrap()
    }

    #[test]
    fn split_respects_fraction() {
        let s = series(10, 2);
        let (train, test) = split_train_test(&s, 0.7);
        assert_eq!(train.dims(), &[7, 2]);
        assert_eq!(test.dims(), &[3, 2]);
        // Sequential: first test row follows last train row.
        assert_eq!(test.at2(0, 0), 14.0);
    }

    #[test]
    #[should_panic(expected = "train fraction")]
    fn split_rejects_bad_fraction() {
        let _ = split_train_test(&series(10, 2), 1.5);
    }

    #[test]
    fn windows_count_and_alignment() {
        let s = series(6, 2);
        let w = make_windows(&s, 2);
        assert_eq!(w.len(), 4);
        // First window = rows 0..2; target = row 2.
        assert_eq!(w.inputs[0].dims(), &[2, 2]);
        assert_eq!(w.inputs[0].at2(0, 0), 0.0);
        assert_eq!(w.targets[0].data(), s.row(2).data());
        // Last target is the final row.
        assert_eq!(w.targets[3].data(), s.row(5).data());
    }

    #[test]
    fn seq1_windows_are_single_rows() {
        let s = series(5, 3);
        let w = make_windows(&s, 1);
        assert_eq!(w.len(), 4);
        assert_eq!(w.inputs[0].dims(), &[1, 3]);
    }

    #[test]
    fn test_windows_cover_every_test_point() {
        let s = series(20, 2);
        let (train, test) = split_train_test(&s, 0.7);
        let w = make_test_windows(&train, &test, 5);
        assert_eq!(w.len(), test.dims()[0]);
        // First test window borrows training rows.
        assert_eq!(w.inputs[0].at2(0, 0), train.at2(train.dims()[0] - 5, 0));
        assert_eq!(w.targets[0].data(), test.row(0).data());
    }

    #[test]
    fn targets_matrix_stacks() {
        let s = series(6, 2);
        let w = make_windows(&s, 3);
        let m = w.targets_matrix();
        assert_eq!(m.dims(), &[3, 2]);
        assert_eq!(m.row(0).data(), s.row(3).data());
    }

    #[test]
    #[should_panic(expected = "cannot produce windows")]
    fn windows_reject_short_series() {
        let _ = make_windows(&series(3, 2), 3);
    }
}
