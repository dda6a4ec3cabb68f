//! Named counters, gauges and fixed-bucket histograms with a JSON
//! snapshot export.
//!
//! The registry is plain data behind the recorder's lock (see
//! [`crate::trace`]); everything here is deterministic given the same
//! sequence of observations, so snapshots of value-derived metrics
//! (losses, gradient norms, epoch counts) are reproducible across
//! same-seed runs. Timing-derived metrics must only ever land in obs
//! output, never in results JSON.

use crate::json::Json;
use std::collections::BTreeMap;

/// Histogram bucket bounds for training-loss observations
/// (z-normalised data: 1.0 ≈ predicting the mean).
pub const LOSS_BUCKETS: [f64; 9] = [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 2.0, 5.0];

/// Histogram bucket bounds for gradient-norm observations (the
/// default global clip is 5.0, so the tail marks clipped epochs).
pub const GRAD_NORM_BUCKETS: [f64; 8] = [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0];

/// Histogram bucket bounds for epochs-run observations (paper
/// schedule: 300 epochs, early stopping may truncate).
pub const EPOCH_BUCKETS: [f64; 7] = [10.0, 25.0, 50.0, 100.0, 200.0, 300.0, 1000.0];

/// Histogram bucket bounds for wall-clock durations in nanoseconds
/// (1µs … 100s).
pub const TIME_NS_BUCKETS: [f64; 9] = [1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11];

/// A fixed-bucket histogram: `bounds` are the inclusive upper edges of
/// the first `bounds.len()` buckets; one overflow bucket catches
/// everything above the last bound, so `counts.len() == bounds.len() + 1`
/// and every observation lands in exactly one bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    nonfinite: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates an empty histogram over the given bucket bounds.
    ///
    /// # Panics
    /// Panics when `bounds` is empty, non-finite, or not strictly
    /// increasing.
    #[must_use]
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "a histogram needs at least one bound");
        for pair in bounds.windows(2) {
            assert!(
                pair[0] < pair[1],
                "histogram bounds must be strictly increasing: {} !< {}",
                pair[0],
                pair[1]
            );
        }
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            nonfinite: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation. Non-finite values count towards the
    /// overflow bucket (they are a signal worth surfacing, not a panic:
    /// obs must never take down a training run).
    pub fn observe(&mut self, v: f64) {
        let idx = if v.is_finite() {
            self.bounds
                .iter()
                .position(|&b| v <= b)
                .unwrap_or(self.bounds.len())
        } else {
            self.bounds.len()
        };
        self.counts[idx] += 1;
        self.total += 1;
        if v.is_finite() {
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        } else {
            self.nonfinite += 1;
        }
    }

    /// Bucket upper bounds.
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` entries; last = overflow).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of the finite observations, or `None` before the first.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        let finite = self.total - self.nonfinite;
        (finite > 0).then(|| self.sum / finite as f64)
    }

    /// Estimates the `p`-quantile (`p` clamped to `[0, 1]`) by linear
    /// interpolation inside the bucket holding the target rank —
    /// the standard fixed-bucket estimate, exact only at bucket edges.
    /// The first bucket interpolates up from the observed minimum and
    /// the overflow bucket up to the observed maximum, so estimates are
    /// always bracketed by the enclosing bucket's edges (and the
    /// estimate is monotone in `p` — both property-tested). Non-finite
    /// observations sit in the overflow bucket and can drag high
    /// quantiles toward the recorded finite maximum. `None` before the
    /// first observation.
    #[must_use]
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = p.clamp(0.0, 1.0) * self.total as f64;
        let last_bound = *self.bounds.last().expect("bounds are never empty");
        let mut cum = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (cum + count) as f64 >= target {
                let lo = if i == 0 {
                    if self.min.is_finite() {
                        self.min
                    } else {
                        self.bounds[0]
                    }
                } else {
                    self.bounds[i - 1]
                };
                let hi = if i < self.bounds.len() {
                    self.bounds[i]
                } else if self.max.is_finite() {
                    self.max.max(last_bound)
                } else {
                    last_bound
                };
                let frac = ((target - cum as f64) / count as f64).clamp(0.0, 1.0);
                // Clamp away interpolation rounding so the estimate
                // never escapes its bucket.
                return Some((lo + (hi - lo) * frac).clamp(lo, hi));
            }
            cum += count;
        }
        // Unreachable for a consistent histogram (cum reaches total),
        // but obs never panics: fall back to the largest known value.
        Some(if self.max.is_finite() {
            self.max.max(last_bound)
        } else {
            last_bound
        })
    }

    fn to_json(&self) -> Json {
        let finite = self.total - self.nonfinite;
        let mut pairs = vec![
            (
                "bounds",
                Json::Arr(self.bounds.iter().map(|&b| Json::Num(b)).collect()),
            ),
            (
                "counts",
                Json::Arr(self.counts.iter().map(|&c| Json::from(c)).collect()),
            ),
            ("total", Json::from(self.total)),
        ];
        if self.nonfinite > 0 {
            pairs.push(("nonfinite", Json::from(self.nonfinite)));
        }
        if finite > 0 {
            pairs.push(("sum", Json::Num(self.sum)));
            pairs.push(("min", Json::Num(self.min)));
            pairs.push(("max", Json::Num(self.max)));
        }
        Json::obj(pairs)
    }

    /// Parses the snapshot form written by
    /// [`MetricsRegistry::snapshot`] back into a histogram (`None` on
    /// any shape mismatch) — how `obs_report` re-derives quantiles from
    /// a run summary.
    #[must_use]
    pub fn from_json(j: &Json) -> Option<Histogram> {
        let bounds: Vec<f64> = j
            .get("bounds")?
            .as_arr()?
            .iter()
            .map(Json::as_f64)
            .collect::<Option<_>>()?;
        let counts: Vec<u64> = j
            .get("counts")?
            .as_arr()?
            .iter()
            .map(|c| c.as_usize().map(|v| v as u64))
            .collect::<Option<_>>()?;
        if bounds.is_empty() || counts.len() != bounds.len() + 1 {
            return None;
        }
        for pair in bounds.windows(2) {
            if pair[0].partial_cmp(&pair[1]) != Some(std::cmp::Ordering::Less) {
                return None;
            }
        }
        let total = j.get("total")?.as_usize()? as u64;
        let nonfinite = j.get("nonfinite").and_then(Json::as_usize).unwrap_or(0) as u64;
        Some(Histogram {
            bounds,
            counts,
            total,
            nonfinite,
            sum: j.get("sum").and_then(Json::as_f64).unwrap_or(0.0),
            min: j.get("min").and_then(Json::as_f64).unwrap_or(f64::INFINITY),
            max: j
                .get("max")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NEG_INFINITY),
        })
    }
}

/// The registry itself: three metric families, keyed by name. Keys are
/// stored sorted so snapshots serialise in a stable order.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the named counter (created at zero on first use).
    pub fn inc_counter(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Sets the named gauge to its latest value.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records an observation into the named histogram, creating it
    /// with `bounds` on first use (later calls keep the original
    /// bounds).
    pub fn observe(&mut self, name: &str, bounds: &[f64], value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Current value of a counter (zero when never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, when set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, when any observation created it.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Drops every recorded metric (run boundaries call this so each
    /// run manifest summarises only its own metrics).
    pub fn reset(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
    }

    /// Exports the whole registry as one JSON object with `counters`,
    /// `gauges` and `histograms` members, keys sorted.
    #[must_use]
    pub fn snapshot(&self) -> Json {
        Json::obj(vec![
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::from(v)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::Num(v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        for v in [0.5, 1.0, 1.5, 2.0, 99.0, f64::NAN] {
            h.observe(v);
        }
        assert_eq!(h.counts(), &[2, 2, 2]);
        assert_eq!(h.total(), 6);
        assert_eq!(h.mean(), Some((0.5 + 1.0 + 1.5 + 2.0 + 99.0) / 5.0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn registry_families_are_independent() {
        let mut m = MetricsRegistry::new();
        m.inc_counter("early_stops", 2);
        m.inc_counter("early_stops", 1);
        m.set_gauge("final_loss", 0.5);
        m.set_gauge("final_loss", 0.25);
        m.observe("loss", &LOSS_BUCKETS, 0.3);
        assert_eq!(m.counter("early_stops"), 3);
        assert_eq!(m.gauge("final_loss"), Some(0.25));
        assert_eq!(m.histogram("loss").unwrap().total(), 1);
        m.reset();
        assert!(m.is_empty());
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let mut h = Histogram::new(&[10.0, 20.0]);
        assert_eq!(h.quantile(0.5), None);
        // Four observations in (10, 20]: ranks interpolate linearly
        // across that bucket.
        for v in [12.0, 14.0, 16.0, 18.0] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.0), Some(10.0));
        assert_eq!(h.quantile(0.5), Some(15.0));
        assert_eq!(h.quantile(1.0), Some(20.0));
        // p is clamped.
        assert_eq!(h.quantile(-1.0), Some(10.0));
        assert_eq!(h.quantile(2.0), Some(20.0));
    }

    #[test]
    fn quantile_uses_min_and_max_for_the_edge_buckets() {
        let mut h = Histogram::new(&[10.0]);
        h.observe(4.0); // first bucket: lo = observed min
        h.observe(30.0); // overflow: hi = observed max
        assert_eq!(h.quantile(0.0), Some(4.0));
        assert_eq!(h.quantile(0.5), Some(10.0));
        assert_eq!(h.quantile(1.0), Some(30.0));
    }

    #[test]
    fn quantile_survives_nonfinite_observations() {
        let mut h = Histogram::new(&[10.0]);
        h.observe(f64::NAN);
        // Only the overflow bucket is populated and no finite max was
        // seen: the estimate falls back to the last bound.
        assert_eq!(h.quantile(1.0), Some(10.0));
    }

    #[test]
    fn histogram_json_round_trip_preserves_quantiles() {
        let mut h = Histogram::new(&TIME_NS_BUCKETS);
        for v in [5e3, 2e4, 3.5e5, 1e7, 2e12, f64::INFINITY] {
            h.observe(v);
        }
        let back = Histogram::from_json(&h.to_json()).expect("parses");
        assert_eq!(back, h);
        assert_eq!(back.quantile(0.5), h.quantile(0.5));
        assert_eq!(back.quantile(0.99), h.quantile(0.99));
        // Shape mismatches are rejected, not mis-parsed.
        assert!(Histogram::from_json(&Json::Null).is_none());
        assert!(Histogram::from_json(&Json::obj(vec![("bounds", Json::Arr(vec![]))])).is_none());
    }

    #[test]
    fn snapshot_round_trips_and_sorts_keys() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("zeta", 1.0);
        m.set_gauge("alpha", 2.0);
        m.observe("loss", &[1.0], 0.5);
        let snap = m.snapshot();
        let parsed = Json::parse(&snap.pretty()).unwrap();
        assert_eq!(parsed, snap);
        let gauges = parsed.require("gauges").unwrap();
        match gauges {
            Json::Obj(pairs) => {
                assert_eq!(pairs[0].0, "alpha");
                assert_eq!(pairs[1].0, "zeta");
            }
            other => panic!("expected object, got {other:?}"),
        }
        let h = parsed
            .require("histograms")
            .unwrap()
            .require("loss")
            .unwrap();
        assert_eq!(h.require("total").unwrap().to_usize().unwrap(), 1);
    }
}
