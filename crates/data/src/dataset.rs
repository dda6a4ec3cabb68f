//! Dataset containers: one individual's MTS and the study-level set.

use ema_graph::AdjacencyMatrix;
use ema_tensor::Tensor;

/// One participant's EMA recording.
#[derive(Debug, Clone)]
pub struct Individual {
    /// Participant identifier: the individual's index in the study.
    pub id: usize,
    /// Normalised data, `[T, V]` (per-variable z-scores of the Likert
    /// responses).
    pub data: Tensor,
    /// The generator's ground-truth interaction graph.
    pub ground_truth: AdjacencyMatrix,
}

impl Individual {
    /// Number of usable time points `T_i`.
    #[must_use]
    pub fn num_time_points(&self) -> usize {
        self.data.dims()[0]
    }

    /// Number of variables `V`.
    #[must_use]
    pub fn num_variables(&self) -> usize {
        self.data.dims()[1]
    }
}

/// A study: every participant plus shared variable names.
#[derive(Debug, Clone, Default)]
pub struct EmaDataset {
    /// All participants, in id order.
    pub individuals: Vec<Individual>,
    /// Names of the `V` variables, shared by every participant.
    pub variable_names: Vec<String>,
}

impl EmaDataset {
    /// Number of participants `N`.
    #[must_use]
    pub fn num_individuals(&self) -> usize {
        self.individuals.len()
    }

    /// Number of variables `V` (0 for an empty study).
    #[must_use]
    pub fn num_variables(&self) -> usize {
        self.individuals
            .first()
            .map_or(0, Individual::num_variables)
    }

    /// Mean number of time points across participants.
    #[must_use]
    pub fn mean_time_points(&self) -> f64 {
        if self.individuals.is_empty() {
            return 0.0;
        }
        let total: usize = self
            .individuals
            .iter()
            .map(Individual::num_time_points)
            .sum();
        total as f64 / self.individuals.len() as f64
    }

    /// Checks the structural invariants the pipeline relies on: every
    /// individual shares `V`, data is finite, and `T_i >= min_t`.
    ///
    /// # Panics
    /// Panics with a description of the first violation.
    pub fn validate(&self, min_t: usize) {
        let v = self.num_variables();
        assert_eq!(
            self.variable_names.len(),
            v,
            "variable name count {} != V {v}",
            self.variable_names.len()
        );
        for ind in &self.individuals {
            assert_eq!(
                ind.num_variables(),
                v,
                "individual {} has {} variables, expected {v}",
                ind.id,
                ind.num_variables()
            );
            assert!(
                ind.num_time_points() >= min_t,
                "individual {} has only {} time points (min {min_t})",
                ind.id,
                ind.num_time_points()
            );
            assert!(
                ind.data.all_finite(),
                "individual {} contains non-finite values",
                ind.id
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> EmaDataset {
        EmaDataset {
            individuals: vec![
                Individual {
                    id: 0,
                    data: Tensor::zeros(&[10, 3]),
                    ground_truth: AdjacencyMatrix::empty(3),
                },
                Individual {
                    id: 1,
                    data: Tensor::zeros(&[20, 3]),
                    ground_truth: AdjacencyMatrix::empty(3),
                },
            ],
            variable_names: vec!["a".into(), "b".into(), "c".into()],
        }
    }

    #[test]
    fn counts_and_means() {
        let d = tiny();
        assert_eq!(d.num_individuals(), 2);
        assert_eq!(d.num_variables(), 3);
        assert_eq!(d.mean_time_points(), 15.0);
    }

    #[test]
    fn validate_passes_consistent_data() {
        tiny().validate(10);
    }

    #[test]
    #[should_panic(expected = "only 10 time points")]
    fn validate_catches_short_series() {
        tiny().validate(15);
    }
}
