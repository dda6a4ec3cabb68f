//! Preprocessing: normalisation and the paper's filtering steps.

use crate::dataset::EmaDataset;
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

/// Per-column means of a `[T, V]` matrix.
#[must_use]
pub fn column_means(data: &Tensor) -> Tensor {
    data.mean_axis(0)
}

/// Per-column population standard deviations of a `[T, V]` matrix.
#[must_use]
pub fn column_stds(data: &Tensor) -> Tensor {
    let (t, v) = (data.dims()[0], data.dims()[1]);
    let means = column_means(data);
    let mut out = vec![0.0; v];
    for (j, slot) in out.iter_mut().enumerate() {
        let m = means.data()[j];
        let var: f64 = (0..t)
            .map(|i| {
                let d = data.at2(i, j) - m;
                d * d
            })
            .sum::<f64>()
            / t as f64;
        *slot = var.sqrt();
    }
    Tensor::from_vec1(out)
}

/// Removes participants with fewer than `min_time_points` usable rows —
/// the paper's low-compliance filter.
#[must_use]
pub fn filter_low_compliance(dataset: EmaDataset, min_time_points: usize) -> EmaDataset {
    let individuals = dataset
        .individuals
        .into_iter()
        .filter(|ind| ind.num_time_points() >= min_time_points)
        .collect();
    EmaDataset {
        individuals,
        variable_names: dataset.variable_names,
    }
}

/// Indices of variables whose *raw* standard deviation is at least
/// `min_std` for **every** participant — the paper's low-variance
/// variable filter (variables must survive across the whole panel so
/// every individual keeps the same V).
#[must_use]
pub fn high_variance_variables(dataset: &EmaDataset, min_std: f64) -> Vec<usize> {
    let v = dataset.num_variables();
    (0..v)
        .filter(|&j| {
            dataset
                .individuals
                .iter()
                .all(|ind| column_stds(&ind.raw).data()[j] >= min_std)
        })
        .collect()
}

/// Projects the dataset onto a subset of variable indices (raw and
/// normalised data, plus names and ground-truth graphs).
///
/// # Panics
/// Panics if `keep` is empty or contains out-of-range indices.
#[must_use]
pub fn select_variables(dataset: &EmaDataset, keep: &[usize]) -> EmaDataset {
    assert!(!keep.is_empty(), "cannot keep zero variables");
    let v = dataset.num_variables();
    assert!(keep.iter().all(|&j| j < v), "variable index out of range");

    let project = |m: &Tensor| -> Tensor {
        let t = m.dims()[0];
        let mut rows = Vec::with_capacity(t);
        for i in 0..t {
            rows.push(keep.iter().map(|&j| m.at2(i, j)).collect());
        }
        Tensor::from_vec2(rows).expect("projection is rectangular")
    };

    let individuals = dataset
        .individuals
        .iter()
        .map(|ind| crate::Individual {
            id: ind.id,
            data: project(&ind.data),
            raw: project(&ind.raw),
            ground_truth: ind.ground_truth.as_ref().map(|g| {
                let mut out = ema_graph::AdjacencyMatrix::empty(keep.len());
                for (a, &i) in keep.iter().enumerate() {
                    for (b, &j) in keep.iter().enumerate() {
                        if a != b {
                            out.set_weight(a, b, g.weight(i, j));
                        }
                    }
                }
                out
            }),
        })
        .collect();

    EmaDataset {
        individuals,
        variable_names: keep
            .iter()
            .map(|&j| dataset.variable_names[j].clone())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EmaGenerator, GeneratorConfig, Individual};

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

    #[test]
    fn column_stats() {
        let data = Tensor::from_vec2(vec![vec![1.0, 0.0], vec![3.0, 0.0]]).unwrap();
        assert_eq!(column_means(&data).data(), &[2.0, 0.0]);
        assert_eq!(column_stds(&data).data(), &[1.0, 0.0]);
    }

    fn study() -> EmaDataset {
        EmaGenerator::new(GeneratorConfig::quick(5, 6, 77)).generate()
    }

    #[test]
    fn compliance_filter_drops_short_series() {
        let mut ds = study();
        // Truncate one participant to 5 rows.
        let short = Individual {
            id: 999,
            data: ds.individuals[0].data.slice_rows(0, 5),
            raw: ds.individuals[0].raw.slice_rows(0, 5),
            ground_truth: None,
        };
        ds.individuals.push(short);
        let filtered = filter_low_compliance(ds, 30);
        assert_eq!(filtered.num_individuals(), 5);
        assert!(filtered.individuals.iter().all(|i| i.id != 999));
    }

    #[test]
    fn variance_filter_flags_constant_variable() {
        let mut ds = study();
        // Make variable 2 constant for participant 0.
        let t = ds.individuals[0].raw.dims()[0];
        for i in 0..t {
            ds.individuals[0].raw.set2(i, 2, 4.0);
        }
        let keep = high_variance_variables(&ds, 0.1);
        assert!(!keep.contains(&2));
        assert!(keep.len() >= 4, "kept only {:?}", keep);
    }

    #[test]
    fn select_variables_projects_everything() {
        let ds = study();
        let sub = select_variables(&ds, &[0, 2, 4]);
        assert_eq!(sub.num_variables(), 3);
        assert_eq!(sub.variable_names.len(), 3);
        assert_eq!(
            sub.individuals[0]
                .ground_truth
                .as_ref()
                .unwrap()
                .num_nodes(),
            3
        );
        // Projected values match originals.
        assert_eq!(
            sub.individuals[0].data.at2(0, 1),
            ds.individuals[0].data.at2(0, 2)
        );
    }

    #[test]
    #[should_panic(expected = "zero variables")]
    fn select_rejects_empty() {
        let _ = select_variables(&study(), &[]);
    }
}
