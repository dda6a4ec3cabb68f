//! Deterministic random tensor initialisation.
//!
//! A fully in-house seeded PRNG (xoshiro256++ with splitmix64 seeding)
//! plus Box–Muller normal sampling, so the workspace needs no external
//! randomness crate at all. Every experiment in the paper reproduction
//! is seeded, which makes tables exactly reproducible.
//!
//! # Seeding scheme
//!
//! The cohort execution engine runs individuals concurrently, so
//! per-individual randomness must never depend on *draw order* — the
//! stream an individual sees has to be a pure function of
//! `(run seed, stream id)`, not of how many draws other individuals
//! made first. The workspace therefore derives streams in two ways:
//!
//! * [`derive_stream_seed`]`(seed, stream)` — a SplitMix64 chain over
//!   the `(seed, stream)` pair, producing a well-mixed 64-bit child
//!   seed. This is the scheme for "individual `i` of run `s`":
//!   `derive_stream_seed(run_seed, individual_id)`. Adjacent stream ids
//!   give uncorrelated children, and the map is injective enough in
//!   practice that streams never collide (property-tested for pairwise
//!   non-overlap in `crates/tensor/tests/properties.rs`).
//! * [`Rng64::split`]`(stream)` — the same derivation anchored at a
//!   generator's *construction-time* seed material (its root), so
//!   splitting is independent of both draw order and split order:
//!   `rng.split(7)` yields the same stream whether called before or
//!   after any number of draws or other splits.
//!
//! Anything seeded per individual or condition uses one of the two, so
//! results are identical at every thread count.

use crate::Tensor;

/// Expands a 64-bit seed into well-mixed state words (splitmix64).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the seed of child stream `stream` from `seed` — a pure
/// function of the pair, independent of any generator state. Two
/// SplitMix64 rounds fold the stream id into the seed so that adjacent
/// `(seed, stream)` pairs land far apart in seed space.
#[must_use]
pub fn derive_stream_seed(seed: u64, stream: u64) -> u64 {
    let mut sm = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let a = splitmix64(&mut sm);
    // A second round keyed on the raw stream id breaks the (unlikely)
    // case where two (seed, stream) pairs collide after one round.
    let mut sm2 = a.wrapping_add(stream);
    splitmix64(&mut sm2)
}

/// A seeded random source for tensor initialisation and data generation.
///
/// The core generator is xoshiro256++ — 256 bits of state, period
/// 2^256 − 1, no external dependencies — seeded through splitmix64 so
/// that even adjacent integer seeds give uncorrelated streams. Normal
/// sampling uses the Box–Muller transform.
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: [u64; 4],
    /// The seed this generator was constructed from; anchor for
    /// [`Rng64::split`] so stream derivation ignores draw order.
    root: u64,
    /// Cached second normal sample from the last Box–Muller pair.
    spare: Option<f64>,
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            root: seed,
            spare: None,
        }
    }

    /// Next raw 64-bit output (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[0, 1)` with full 53-bit mantissa resolution.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform_in bounds inverted: {lo} >= {hi}");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample an index from an empty range");
        // Lemire's widening-multiply trick with a rejection loop to
        // remove the (already tiny) modulo bias entirely.
        let n = n as u64;
        let threshold = n.wrapping_neg() % n;
        loop {
            let wide = u128::from(self.next_u64()) * u128::from(n);
            if (wide as u64) >= threshold {
                return (wide >> 64) as usize;
            }
        }
    }

    /// Standard normal sample via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    /// Panics if `std < 0`.
    pub fn normal_with(&mut self, mean: f64, std: f64) -> f64 {
        assert!(std >= 0.0, "negative standard deviation {std}");
        mean + std * self.normal()
    }

    /// Bernoulli sample with success probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 <= p <= 1`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "invalid probability {p}");
        self.uniform() < p
    }

    /// A random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.index(i + 1);
            p.swap(i, j);
        }
        p
    }

    /// Derives the independent child stream `stream` of this generator.
    ///
    /// The child is a pure function of `(construction seed, stream)`:
    /// splitting is unaffected by draws on `self`, by other splits, and
    /// by the order splits happen in. This is what makes per-individual
    /// seeding safe under the parallel cohort executor — individual `i`
    /// sees the same stream at any thread count and schedule.
    #[must_use]
    pub fn split(&self, stream: u64) -> Rng64 {
        Rng64::seed_from(derive_stream_seed(self.root, stream))
    }
}

impl Tensor {
    /// Tensor with i.i.d. uniform entries in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics on an invalid shape or inverted bounds.
    #[must_use]
    pub fn rand_uniform(dims: &[usize], lo: f64, hi: f64, rng: &mut Rng64) -> Tensor {
        let mut t = Tensor::zeros(dims);
        for v in t.data_mut() {
            *v = rng.uniform_in(lo, hi);
        }
        t
    }

    /// Tensor with i.i.d. normal entries.
    ///
    /// # Panics
    /// Panics on an invalid shape or negative std.
    #[must_use]
    pub fn rand_normal(dims: &[usize], mean: f64, std: f64, rng: &mut Rng64) -> Tensor {
        let mut t = Tensor::zeros(dims);
        for v in t.data_mut() {
            *v = rng.normal_with(mean, std);
        }
        t
    }

    /// Xavier/Glorot uniform initialisation for a `[fan_out, fan_in]`
    /// weight matrix: uniform in `±sqrt(6 / (fan_in + fan_out))`.
    ///
    /// # Panics
    /// Panics unless `dims` has rank 2.
    #[must_use]
    pub fn xavier_uniform(dims: &[usize], rng: &mut Rng64) -> Tensor {
        assert_eq!(dims.len(), 2, "xavier init expects a weight matrix");
        let bound = (6.0 / (dims[0] + dims[1]) as f64).sqrt();
        Tensor::rand_uniform(dims, -bound, bound, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_stream_is_pinned() {
        // Golden values: the exact xoshiro256++ stream for seed 42. If
        // this test fails, every seeded experiment in the workspace has
        // silently changed — treat as a breaking change.
        let mut rng = Rng64::seed_from(42);
        let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                0xd076_4d4f_4476_689f,
                0x519e_4174_576f_3791,
                0xfbe0_7cfb_0c24_ed8c,
                0xb37d_9f60_0cd8_35b8,
            ]
        );
    }

    #[test]
    fn seeding_is_deterministic() {
        let mut a = Rng64::seed_from(42);
        let mut b = Rng64::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
            assert_eq!(a.normal(), b.normal());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::seed_from(1);
        let mut b = Rng64::seed_from(2);
        let same = (0..16).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 16);
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = Rng64::seed_from(7);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.05, "variance {var} too far from 1");
    }

    #[test]
    fn bernoulli_rate_is_sane() {
        let mut rng = Rng64::seed_from(3);
        let hits = (0..10_000).filter(|_| rng.bernoulli(0.3)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut rng = Rng64::seed_from(9);
        let mut p = rng.permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn xavier_respects_bound() {
        let mut rng = Rng64::seed_from(11);
        let w = Tensor::xavier_uniform(&[32, 64], &mut rng);
        let bound = (6.0 / 96.0f64).sqrt();
        assert!(w.data().iter().all(|v| v.abs() <= bound));
        // Should not be degenerate.
        assert!(w.std() > bound / 4.0);
    }

    #[test]
    fn split_ignores_draw_and_split_order() {
        let mut a = Rng64::seed_from(5);
        let b = Rng64::seed_from(5);
        // Disturb `a` with draws and unrelated splits.
        for _ in 0..100 {
            let _ = a.next_u64();
        }
        let _ = a.split(3);
        let got: Vec<u64> = {
            let mut s = a.split(7);
            (0..8).map(|_| s.next_u64()).collect()
        };
        let want: Vec<u64> = {
            let mut s = b.split(7);
            (0..8).map(|_| s.next_u64()).collect()
        };
        assert_eq!(got, want);
    }

    #[test]
    fn split_streams_differ_from_parent_and_each_other() {
        let parent = Rng64::seed_from(5);
        let mut p = parent.clone();
        let mut c1 = parent.split(0);
        let mut c2 = parent.split(1);
        let a: Vec<u64> = (0..8).map(|_| p.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| c1.next_u64()).collect();
        let c: Vec<u64> = (0..8).map(|_| c2.next_u64()).collect();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn derive_stream_seed_is_stable_and_spreads() {
        assert_eq!(derive_stream_seed(42, 0), derive_stream_seed(42, 0));
        // Adjacent ids must not collide or come out sequential.
        let s0 = derive_stream_seed(42, 0);
        let s1 = derive_stream_seed(42, 1);
        assert_ne!(s0, s1);
        assert!(s0.abs_diff(s1) > 1 << 20, "adjacent streams too close");
    }
}
