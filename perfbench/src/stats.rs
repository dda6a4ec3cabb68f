//! Order statistics over a run's samples.

/// Sorts a copy of `values` ascending (`total_cmp`, so NaN sorts last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count), or
/// `None` for no samples.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// `exclusive` method): rank `i·(m+1)/4` interpolated between its
/// neighbours, with the lower neighbour's index clamped to the sample
/// (so two samples extrapolate, as Python does). `None` for fewer than
/// two samples.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    const N: usize = 4;
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..N) {
        let j = (i * m / N).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * N) as f64;
        *slot = (v[j - 1] * (N as f64 - delta) + v[j] * delta) / N as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark's bounds are compared against. `None` for fewer than two
/// samples or a zero median.
#[must_use]
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The `p`-quantile (`p` in `[0, 1]`) by linear interpolation between
/// closest ranks, or `None` for no samples.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let last = v.len().checked_sub(1)?;
    let rank = p.clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// `num / den`, or 0 when the denominator is zero (a layer a workload
/// never enters has no ratio to report).
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
