//! Synthetic EMA data generation.
//!
//! Each individual is simulated as a nonlinear VAR(1) system over an
//! idiosyncratic sparse interaction graph:
//!
//! ```text
//! z_t = tanh(W z_{t−1}) + a·sin(2π·beep_t / 8 + φ_v) + ε_t
//! ```
//!
//! where `W` has diagonal autoregressive terms and sparse off-diagonal
//! couplings (the *ground-truth graph*), `a` is a circadian amplitude
//! with per-variable phase `φ_v`, and `ε` is Gaussian noise. Latent
//! trajectories are quantised to a 7-point Likert scale, rows are
//! dropped at the non-compliance rate (missed beeps shorten `T_i`, as
//! in the real study) and responses are z-normalised per individual.

use crate::dataset::{EmaDataset, Individual};
use crate::preprocess::z_normalize;
use crate::variables::variable_names;
use ema_graph::AdjacencyMatrix;
use ema_tensor::{Rng64, Tensor};

/// Beeps per day in the NSMD protocol.
pub const BEEPS_PER_DAY: usize = 8;

/// Configuration of the synthetic EMA study.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Number of participants `N` (paper: 100).
    pub num_individuals: usize,
    /// Number of variables `V` (paper: 26).
    pub num_variables: usize,
    /// Mean usable time points per participant (paper: ≈140).
    pub mean_time_points: usize,
    /// Standard deviation of usable time points across participants.
    pub time_points_std: f64,
    /// Probability of each off-diagonal ground-truth edge (~sparse).
    pub graph_density: f64,
    /// Magnitude of cross-variable couplings.
    pub coupling_strength: f64,
    /// Diagonal (self-persistence) coefficient.
    pub ar_coefficient: f64,
    /// Innovation noise standard deviation.
    pub noise_std: f64,
    /// Circadian sine amplitude.
    pub circadian_amplitude: f64,
    /// Probability a beep is missed (dropping that row).
    pub missing_rate: f64,
    /// Likert scale levels (paper: 7).
    pub likert_levels: u8,
    /// Master seed; every individual forks an independent stream.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    /// Paper-scale defaults (N=100, V=26, T≈140).
    fn default() -> Self {
        Self {
            num_individuals: 100,
            num_variables: 26,
            mean_time_points: 140,
            time_points_std: 15.0,
            graph_density: 0.12,
            coupling_strength: 0.35,
            ar_coefficient: 0.45,
            noise_std: 0.35,
            circadian_amplitude: 0.25,
            missing_rate: 0.10,
            likert_levels: 7,
            seed: 20240101,
        }
    }
}

impl GeneratorConfig {
    /// A reduced preset for fast tests and quick experiment runs.
    #[must_use]
    pub fn quick(num_individuals: usize, num_variables: usize, seed: u64) -> Self {
        Self {
            num_individuals,
            num_variables,
            mean_time_points: 80,
            time_points_std: 8.0,
            seed,
            ..Self::default()
        }
    }
}

/// Generates synthetic EMA studies from a [`GeneratorConfig`].
#[derive(Debug, Clone)]
pub struct EmaGenerator {
    config: GeneratorConfig,
}

impl EmaGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    /// Panics on nonsensical configs (zero sizes, rates outside `[0, 1]`).
    #[must_use]
    pub fn new(config: GeneratorConfig) -> Self {
        assert!(config.num_individuals > 0, "need at least one individual");
        assert!(config.num_variables >= 2, "need at least two variables");
        assert!(config.mean_time_points >= 10, "series too short");
        assert!(
            (0.0..=1.0).contains(&config.graph_density),
            "invalid graph density"
        );
        assert!(
            (0.0..1.0).contains(&config.missing_rate),
            "invalid missing rate"
        );
        assert!(config.likert_levels >= 2, "need at least a binary scale");
        Self { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generates the full study.
    #[must_use]
    pub fn generate(&self) -> EmaDataset {
        // Each individual's stream is split off from (seed, id) — not
        // forked in draw order — so generation could itself be fanned
        // out per individual without changing a byte of the study.
        let master = Rng64::seed_from(self.config.seed);
        let individuals = (0..self.config.num_individuals)
            .map(|id| {
                let mut rng = master.split(id as u64);
                self.generate_individual(id, &mut rng)
            })
            .collect();
        EmaDataset {
            individuals,
            variable_names: variable_names(self.config.num_variables),
        }
    }

    /// Generates individuals `start..end` of the study — byte-identical
    /// to the same ids out of [`EmaGenerator::generate`], because every
    /// individual's stream is split from `(seed, id)` rather than drawn
    /// sequentially. Shard boundaries therefore never change numbers,
    /// which is what lets sharded cohort runs stream generation instead
    /// of materializing the whole study.
    ///
    /// # Panics
    /// Panics when the range is inverted or exceeds the configured
    /// study size.
    #[must_use]
    pub fn generate_range(&self, start: usize, end: usize) -> Vec<Individual> {
        assert!(start <= end, "inverted range {start}..{end}");
        assert!(
            end <= self.config.num_individuals,
            "range {start}..{end} exceeds study size {}",
            self.config.num_individuals
        );
        let master = Rng64::seed_from(self.config.seed);
        (start..end)
            .map(|id| {
                let mut rng = master.split(id as u64);
                self.generate_individual(id, &mut rng)
            })
            .collect()
    }

    /// Generates a single participant with an independent RNG stream.
    #[must_use]
    pub fn generate_individual(&self, id: usize, rng: &mut Rng64) -> Individual {
        let v = self.config.num_variables;
        let (w, ground_truth) = self.sample_system(rng);
        let phases: Vec<f64> = (0..v)
            .map(|_| rng.uniform_in(0.0, 2.0 * std::f64::consts::PI))
            .collect();

        // Target usable length; generate enough beeps that the expected
        // number of answered ones reaches the target.
        let t_target = (self.config.mean_time_points as f64
            + self.config.time_points_std * rng.normal())
        .round()
        .clamp(30.0, 10_000.0) as usize;
        let burn_in = 20usize;

        let mut z = Tensor::rand_normal(&[v], 0.0, 0.5, rng);
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(t_target);
        let mut beep = 0usize;
        while rows.len() < t_target {
            // Advance the latent system.
            let coupled = w.matvec(&z).tanh();
            let mut next = vec![0.0; v];
            for (j, nj) in next.iter_mut().enumerate() {
                let circadian = self.config.circadian_amplitude
                    * ((2.0 * std::f64::consts::PI * beep as f64 / BEEPS_PER_DAY as f64)
                        + phases[j])
                        .sin();
                *nj = coupled.data()[j] + circadian + self.config.noise_std * rng.normal();
            }
            z = Tensor::from_vec1(next);
            beep += 1;
            if beep <= burn_in {
                continue;
            }
            // Missed beep → row dropped (shorter T_i, like the study).
            if rng.bernoulli(self.config.missing_rate) {
                continue;
            }
            rows.push(self.quantize(&z));
        }

        let responses = Tensor::from_vec2(rows).expect("generated rows are rectangular");
        Individual {
            id,
            data: z_normalize(&responses),
            ground_truth,
        }
    }

    /// Samples the VAR coefficient matrix and its ground-truth graph.
    fn sample_system(&self, rng: &mut Rng64) -> (Tensor, AdjacencyMatrix) {
        let v = self.config.num_variables;
        let mut w = Tensor::zeros(&[v, v]);
        for i in 0..v {
            for j in 0..v {
                if i == j {
                    w.set2(i, j, self.config.ar_coefficient);
                } else if rng.bernoulli(self.config.graph_density) {
                    let sign = if rng.bernoulli(0.7) { 1.0 } else { -1.0 };
                    let mag = self.config.coupling_strength * rng.uniform_in(0.5, 1.0);
                    w.set2(i, j, sign * mag);
                }
            }
        }
        // The tanh nonlinearity already bounds trajectories, but keep
        // the linearisation comfortably stable too.
        let radius = ema_graph::normalize::spectral_radius(&w, 100);
        if radius > 0.95 {
            w = w.scale(0.95 / radius);
        }
        // Ground truth edge strength = |coupling| (direction i→j means
        // variable j influences variable i in z_t = W z_{t-1}; store as
        // influence graph j→i for interpretability).
        let gt = AdjacencyMatrix::new(w.abs().transpose());
        (w, gt)
    }

    /// Maps a latent value to the Likert scale `1 ..= levels`.
    fn quantize(&self, z: &Tensor) -> Vec<f64> {
        let levels = f64::from(self.config.likert_levels);
        let mid = (levels + 1.0) / 2.0;
        let spread = (levels - 1.0) / 4.0; // ±2 latent SDs cover the scale
        z.data()
            .iter()
            .map(|&x| (mid + spread * x).round().clamp(1.0, levels))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_gen(seed: u64) -> EmaGenerator {
        EmaGenerator::new(GeneratorConfig::quick(4, 8, seed))
    }

    #[test]
    fn generates_requested_shape() {
        let ds = quick_gen(1).generate();
        assert_eq!(ds.num_individuals(), 4);
        assert_eq!(ds.num_variables(), 8);
        assert_eq!(ds.variable_names.len(), 8);
        ds.validate(30);
    }

    #[test]
    fn responses_are_likert() {
        let gen = quick_gen(2);
        let levels = gen.config().likert_levels;
        // Every latent value, extremes included, maps to an integer
        // response on the scale.
        let mut rng = Rng64::seed_from(2);
        let extremes = Tensor::from_vec1(vec![-1e6, -3.0, -0.5, 0.0, 0.5, 3.0, 1e6]);
        for z in [extremes, Tensor::rand_normal(&[500], 0.0, 2.0, &mut rng)] {
            for v in gen.quantize(&z) {
                assert!(
                    (1.0..=f64::from(levels)).contains(&v),
                    "response {v} outside scale"
                );
                assert_eq!(v.fract(), 0.0, "response {v} not integral");
            }
        }
        // z-normalisation maps each column affinely, so a column keeps
        // at most one distinct value per Likert level.
        for ind in &gen.generate().individuals {
            for j in 0..ind.num_variables() {
                let mut values: Vec<u64> =
                    ind.data.col(j).data().iter().map(|v| v.to_bits()).collect();
                values.sort_unstable();
                values.dedup();
                assert!(
                    values.len() <= usize::from(levels),
                    "individual {} variable {j} takes {} values",
                    ind.id,
                    values.len()
                );
            }
        }
    }

    #[test]
    fn normalized_data_is_standardised() {
        let ds = quick_gen(3).generate();
        for ind in &ds.individuals {
            for j in 0..ind.num_variables() {
                let col = ind.data.col(j);
                assert!(col.mean().abs() < 1e-9, "column mean {}", col.mean());
                let s = col.std();
                assert!(
                    (s - 1.0).abs() < 1e-9 || s == 0.0,
                    "column std {s} not standardised"
                );
            }
        }
    }

    #[test]
    fn individuals_have_distinct_graphs_and_lengths() {
        let ds = quick_gen(4).generate();
        let g0 = &ds.individuals[0].ground_truth;
        let g1 = &ds.individuals[1].ground_truth;
        assert_ne!(g0.weights().data(), g1.weights().data());
        let lengths: Vec<usize> = ds
            .individuals
            .iter()
            .map(Individual::num_time_points)
            .collect();
        assert!(lengths.iter().any(|&t| t != lengths[0]));
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let a = quick_gen(5).generate();
        let b = quick_gen(5).generate();
        for (x, y) in a.individuals.iter().zip(b.individuals.iter()) {
            assert_eq!(x.data.data(), y.data.data());
        }
        let c = quick_gen(6).generate();
        assert_ne!(a.individuals[0].data.data(), c.individuals[0].data.data());
    }

    #[test]
    fn sharded_generation_matches_full_study_at_any_shard_size() {
        let gen = quick_gen(9);
        let full = gen.generate();
        let n = full.individuals.len();
        for shard_size in [1, 3, 4, 7] {
            // The slices a sharded cohort run's jobs generate.
            let streamed: Vec<_> = (0..n)
                .step_by(shard_size)
                .flat_map(|start| gen.generate_range(start, (start + shard_size).min(n)))
                .collect();
            assert_eq!(streamed.len(), n, "shard size {shard_size}");
            for (a, b) in streamed.iter().zip(&full.individuals) {
                assert_eq!(a.id, b.id);
                assert_eq!(
                    a.data.data(),
                    b.data.data(),
                    "shard size {shard_size} id {}",
                    b.id
                );
                assert_eq!(
                    a.ground_truth.weights().data(),
                    b.ground_truth.weights().data()
                );
            }
        }
        // An explicit sub-range also matches the full study's slice.
        let mid = gen.generate_range(1, 3);
        assert_eq!(mid.len(), 2);
        assert_eq!(mid[0].data.data(), full.individuals[1].data.data());
        assert_eq!(mid[1].data.data(), full.individuals[2].data.data());
    }

    #[test]
    fn ground_truth_is_sparse() {
        let ds = quick_gen(7).generate();
        for ind in &ds.individuals {
            let gt = &ind.ground_truth;
            // Density 0.12 nominal; allow generous slack for small V.
            assert!(
                gt.density() < 0.45,
                "ground truth too dense: {}",
                gt.density()
            );
        }
    }

    #[test]
    fn trajectories_are_stationary() {
        // Mean of first and second half should be similar after z-norm;
        // the latent process must not explode.
        let ds = quick_gen(8).generate();
        for ind in &ds.individuals {
            let t = ind.num_time_points();
            let first = ind.data.slice_rows(0, t / 2);
            let second = ind.data.slice_rows(t / 2, t);
            assert!((first.mean() - second.mean()).abs() < 0.6);
            assert!(ind.data.all_finite());
        }
    }

    #[test]
    fn coupled_variables_correlate() {
        // With strong couplings, connected pairs should correlate more
        // than unconnected ones on average.
        let cfg = GeneratorConfig {
            num_individuals: 1,
            num_variables: 10,
            mean_time_points: 800,
            coupling_strength: 0.6,
            noise_std: 0.25,
            circadian_amplitude: 0.0, // avoid shared-phase confounds
            missing_rate: 0.0,        // keep lag structure intact
            seed: 99,
            ..GeneratorConfig::default()
        };
        let ds = EmaGenerator::new(cfg).generate();
        let ind = &ds.individuals[0];
        let gt = &ind.ground_truth;
        // VAR(1) couplings surface most strongly at lag 1, so compare
        // the max of lag-0 and lag-±1 correlation magnitudes.
        let corr = ema_lagged_corr(&ind.data);
        let mut linked = Vec::new();
        let mut unlinked = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                if i == j {
                    continue;
                }
                let c = corr[i * 10 + j];
                if gt.weight(i, j) > 0.0 || gt.weight(j, i) > 0.0 {
                    linked.push(c);
                } else {
                    unlinked.push(c);
                }
            }
        }
        if linked.is_empty() || unlinked.is_empty() {
            return; // degenerate draw; nothing to compare
        }
        let ml = linked.iter().sum::<f64>() / linked.len() as f64;
        let mu = unlinked.iter().sum::<f64>() / unlinked.len() as f64;
        assert!(
            ml > mu,
            "linked pairs correlate {ml:.3} <= unlinked {mu:.3}"
        );
    }

    /// Max of lag-0/±1 correlation magnitudes per pair. Local helper to
    /// avoid a dev-dependency cycle with ema-similarity.
    fn ema_lagged_corr(data: &Tensor) -> Vec<f64> {
        use ema_graph::stats::pearson;
        let v = data.dims()[1];
        let t = data.dims()[0];
        let mut out = vec![0.0; v * v];
        for i in 0..v {
            for j in 0..v {
                let x = data.col(i);
                let y = data.col(j);
                let r0 = pearson(x.data(), y.data()).abs();
                let r1 = pearson(&x.data()[..t - 1], &y.data()[1..]).abs();
                let r2 = pearson(&x.data()[1..], &y.data()[..t - 1]).abs();
                out[i * v + j] = r0.max(r1).max(r2);
            }
        }
        out
    }
}
