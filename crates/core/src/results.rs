//! Result aggregation: mean(std) cells, rendered tables and boxplot
//! statistics for the figure reproduction.

use crate::Json;
use std::fmt;

/// A table cell in the paper's `mean(std)` notation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStat {
    /// Mean across individuals.
    pub mean: f64,
    /// Standard deviation across individuals.
    pub std: f64,
}

impl CellStat {
    /// Aggregates a sample of per-individual scores.
    ///
    /// # Panics
    /// Panics on an empty sample.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples to aggregate");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        Self {
            mean,
            std: var.sqrt(),
        }
    }
}

impl fmt::Display for CellStat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}({:.3})", self.mean, self.std)
    }
}

impl CellStat {
    /// JSON encoding: `{"mean": m, "std": s}`.
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("mean", Json::Num(self.mean)),
            ("std", Json::Num(self.std)),
        ])
    }
}

/// A rendered results table with row labels and named columns,
/// serialisable so experiment runs can be recorded alongside
/// EXPERIMENTS.md.
#[derive(Debug, Clone)]
pub struct ResultTable {
    /// Table caption.
    pub title: String,
    /// Column headers (excluding the leading model column).
    pub columns: Vec<String>,
    /// Rows: label plus one cell per column.
    pub rows: Vec<(String, Vec<CellStat>)>,
}

impl ResultTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        Self {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the cell count differs from the column count.
    pub fn push_row(&mut self, label: impl Into<String>, cells: Vec<CellStat>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row has {} cells for {} columns",
            cells.len(),
            self.columns.len()
        );
        self.rows.push((label.into(), cells));
    }

    /// The cell at (row label, column name), if present.
    #[must_use]
    pub fn cell(&self, row: &str, column: &str) -> Option<CellStat> {
        let col = self.columns.iter().position(|c| c == column)?;
        let (_, cells) = self.rows.iter().find(|(label, _)| label == row)?;
        cells.get(col).copied()
    }

    /// Renders the table as aligned plain text (the bench binaries print
    /// this next to the paper's numbers).
    #[must_use]
    pub fn render(&self) -> String {
        let label_width = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once("Model".len()))
            .max()
            .unwrap_or(8)
            + 2;
        let cell_width = 15usize;
        let mut out = String::new();
        out.push_str(&format!("{}\n", self.title));
        out.push_str(&format!("{:label_width$}", "Model"));
        for c in &self.columns {
            out.push_str(&format!("{c:>cell_width$}"));
        }
        out.push('\n');
        out.push_str(&"-".repeat(label_width + cell_width * self.columns.len()));
        out.push('\n');
        for (label, cells) in &self.rows {
            out.push_str(&format!("{label:label_width$}"));
            for cell in cells {
                out.push_str(&format!("{:>cell_width$}", cell.to_string()));
            }
            out.push('\n');
        }
        out
    }

    /// JSON encoding: `{"title": ..., "columns": [...], "rows":
    /// [[label, [cells...]], ...]}` (rows as two-element arrays, the
    /// same layout the previous serde tuple encoding produced).
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("title", Json::Str(self.title.clone())),
            (
                "columns",
                Json::Arr(self.columns.iter().map(|c| Json::Str(c.clone())).collect()),
            ),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|(label, cells)| {
                            Json::Arr(vec![
                                Json::Str(label.clone()),
                                Json::Arr(cells.iter().map(CellStat::to_json_value).collect()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Serialises the table to pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_json_value().pretty()
    }
}

/// Five-number summary plus mean, for reproducing Fig. 3's boxplots as
/// text/CSV series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxplotStats {
    /// Minimum value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum value.
    pub max: f64,
    /// Mean (printed in black in the paper's figure).
    pub mean: f64,
}

impl BoxplotStats {
    /// Computes the summary of a sample.
    ///
    /// # Panics
    /// Panics on an empty sample.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let q = |p: f64| -> f64 {
            // Linear interpolation between closest ranks.
            let idx = p * (sorted.len() - 1) as f64;
            let lo = idx.floor() as usize;
            let hi = idx.ceil() as usize;
            let frac = idx - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        };
        Self {
            min: sorted[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: sorted[sorted.len() - 1],
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
        }
    }
}

impl BoxplotStats {
    /// JSON encoding with one member per summary statistic.
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("min", Json::Num(self.min)),
            ("q1", Json::Num(self.q1)),
            ("median", Json::Num(self.median)),
            ("q3", Json::Num(self.q3)),
            ("max", Json::Num(self.max)),
            ("mean", Json::Num(self.mean)),
        ])
    }
}

impl fmt::Display for BoxplotStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "min {:.3} | q1 {:.3} | med {:.3} | q3 {:.3} | max {:.3} | mean {:.3}",
            self.min, self.q1, self.median, self.q3, self.max, self.mean
        )
    }
}

/// Mean relative percentage change between paired samples:
/// `100 · mean((b_i − a_i) / a_i)` — the red annotations of Fig. 3
/// (negative = improvement when `b` is the learned-graph condition).
///
/// # Panics
/// Panics on length mismatch or empty input.
#[must_use]
pub fn mean_relative_change_percent(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "paired samples must match");
    assert!(!a.is_empty(), "no samples");
    let total: f64 = a
        .iter()
        .zip(b.iter())
        .map(|(&x, &y)| if x != 0.0 { (y - x) / x } else { 0.0 })
        .sum();
    100.0 * total / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_stat_formats_like_paper() {
        let c = CellStat {
            mean: 0.8512,
            std: 0.4304,
        };
        assert_eq!(c.to_string(), "0.851(0.430)");
    }

    #[test]
    fn cell_stat_from_samples() {
        let c = CellStat::from_samples(&[1.0, 2.0, 3.0]);
        assert!((c.mean - 2.0).abs() < 1e-12);
        assert!((c.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn table_round_trip_and_lookup() {
        let mut t = ResultTable::new("Test", vec!["Seq1".into(), "Seq2".into()]);
        t.push_row(
            "LSTM",
            vec![
                CellStat {
                    mean: 1.0,
                    std: 0.5,
                },
                CellStat {
                    mean: 0.9,
                    std: 0.4,
                },
            ],
        );
        assert_eq!(t.cell("LSTM", "Seq2").unwrap().mean, 0.9);
        assert!(t.cell("LSTM", "Seq9").is_none());
        assert!(t.render().contains("0.900(0.400)"));
    }

    #[test]
    fn table_serialization_is_stable_and_f64_exact() {
        // Edge-case cell values must read back from the written text
        // bit-exactly, and serialising twice must give identical bytes
        // (the determinism guard relies on this).
        let mut t = ResultTable::new("Edges", vec!["C".into()]);
        for (label, mean, std) in [
            ("neg-zero", -0.0, 0.0),
            ("tiny", 5e-324, 1e-308),
            ("huge", 1.797_693_134_862_315_7e308, -1e308),
            ("ugly", 0.1 + 0.2, 1.0 / 3.0),
        ] {
            t.push_row(label, vec![CellStat { mean, std }]);
        }
        let json = t.to_json();
        assert_eq!(json, t.to_json(), "serialization is not deterministic");
        // `to_bits` tells -0.0 from 0.0, so the sign of zero is checked.
        let parsed = Json::parse(&json).unwrap();
        let rows = parsed.require("rows").unwrap().to_arr().unwrap();
        assert_eq!(rows.len(), t.rows.len());
        for ((label, orig), row) in t.rows.iter().zip(rows) {
            let row = row.to_arr().unwrap();
            assert_eq!(row[0].to_str().unwrap(), label);
            let back = &row[1].to_arr().unwrap()[0];
            let bits = |key: &str| back.require(key).unwrap().to_f64().unwrap().to_bits();
            assert_eq!(orig[0].mean.to_bits(), bits("mean"), "{label} mean");
            assert_eq!(orig[0].std.to_bits(), bits("std"), "{label} std");
        }
    }

    #[test]
    #[should_panic(expected = "cells for")]
    fn table_rejects_ragged_rows() {
        let mut t = ResultTable::new("Test", vec!["A".into()]);
        t.push_row("x", vec![]);
    }

    #[test]
    fn boxplot_of_known_sample() {
        let s = BoxplotStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
    }

    #[test]
    fn relative_change_sign() {
        // b improves on a by 10% → −10.
        let a = [1.0, 2.0];
        let b = [0.9, 1.8];
        assert!((mean_relative_change_percent(&a, &b) + 10.0).abs() < 1e-9);
    }
}
