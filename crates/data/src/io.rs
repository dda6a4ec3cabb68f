//! CSV interchange for individual EMA recordings.
//!
//! The format is one row per beep, one column per variable, with a
//! header of variable names — the layout real EMA exports (e.g. from
//! m-Path or Ethica) reduce to after widening.

use ema_tensor::Tensor;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Serialises a `[T, V]` matrix to CSV with the given header names.
///
/// # Panics
/// Panics if `names.len()` differs from `V`.
#[must_use]
pub fn to_csv(data: &Tensor, names: &[String]) -> String {
    assert_eq!(data.rank(), 2, "data must be [T, V]");
    let (t, v) = (data.dims()[0], data.dims()[1]);
    assert_eq!(names.len(), v, "header length mismatch");
    let mut out = String::with_capacity(t * v * 8);
    out.push_str(&names.join(","));
    out.push('\n');
    for i in 0..t {
        for j in 0..v {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", data.at2(i, j));
        }
        out.push('\n');
    }
    out
}

/// Parses a CSV produced by [`to_csv`] (or any numeric CSV with a
/// header) back into `(names, data)`.
///
/// # Errors
/// Returns `io::Error` with `InvalidData` on ragged rows, non-numeric
/// cells or an empty body.
pub fn from_csv(text: &str) -> io::Result<(Vec<String>, Tensor)> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty CSV"))?;
    let names: Vec<String> = header.split(',').map(|s| s.trim().to_string()).collect();
    let v = names.len();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for (lineno, line) in lines.enumerate() {
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != v {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("row {} has {} cells, expected {v}", lineno + 2, cells.len()),
            ));
        }
        let mut row = Vec::with_capacity(v);
        for cell in cells {
            let value: f64 = cell.trim().parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("row {}: bad number {cell:?}: {e}", lineno + 2),
                )
            })?;
            row.push(value);
        }
        rows.push(row);
    }
    if rows.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "CSV has a header but no data rows",
        ));
    }
    let data = Tensor::from_vec2(rows)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok((names, data))
}

/// Writes an individual's matrix to a CSV file.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_csv(path: &Path, data: &Tensor, names: &[String]) -> io::Result<()> {
    std::fs::write(path, to_csv(data, names))
}

/// Reads an individual's matrix from a CSV file.
///
/// # Errors
/// Propagates filesystem and parse errors.
pub fn read_csv(path: &Path) -> io::Result<(Vec<String>, Tensor)> {
    from_csv(&std::fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: usize) -> Vec<String> {
        (0..v).map(|i| format!("v{i}")).collect()
    }

    #[test]
    fn round_trip() {
        let data = Tensor::from_vec2(vec![vec![1.0, 2.5], vec![-3.0, 4.0]]).unwrap();
        let csv = to_csv(&data, &names(2));
        let (parsed_names, parsed) = from_csv(&csv).unwrap();
        assert_eq!(parsed_names, names(2));
        ema_tensor::assert_tensors_close(&parsed, &data, 0.0);
    }

    #[test]
    fn rejects_ragged_rows() {
        let err = from_csv("a,b\n1,2\n3\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("row 3"));
    }

    #[test]
    fn rejects_non_numeric() {
        let err = from_csv("a,b\n1,oops\n").unwrap_err();
        assert!(err.to_string().contains("oops"));
    }

    #[test]
    fn rejects_empty_body() {
        assert!(from_csv("a,b\n").is_err());
        assert!(from_csv("").is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("ema_data_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ind0.csv");
        let data = Tensor::from_vec2(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        write_csv(&path, &data, &names(2)).unwrap();
        let (_, parsed) = read_csv(&path).unwrap();
        ema_tensor::assert_tensors_close(&parsed, &data, 0.0);
        let _ = std::fs::remove_file(path);
    }
}
