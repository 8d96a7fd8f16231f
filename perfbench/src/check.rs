//! Output checks: every timed execution is compared against the query's
//! reference result, and must leave no spill file behind.

use rpt_common::ScalarValue;
use std::cmp::Ordering;
use std::path::Path;

/// Relative tolerance for `Float64` cells: sums taken in a different order
/// differ in the last bits.
const FLOAT_REL_TOL: f64 = 1e-9;

fn rank(v: &ScalarValue) -> u8 {
    match v {
        ScalarValue::Null => 0,
        ScalarValue::Bool(_) => 1,
        ScalarValue::Int64(_) => 2,
        ScalarValue::Float64(_) => 3,
        ScalarValue::Utf8(_) => 4,
    }
}

fn cmp_cell(a: &ScalarValue, b: &ScalarValue) -> Ordering {
    match (a, b) {
        (ScalarValue::Bool(x), ScalarValue::Bool(y)) => x.cmp(y),
        (ScalarValue::Int64(x), ScalarValue::Int64(y)) => x.cmp(y),
        (ScalarValue::Float64(x), ScalarValue::Float64(y)) => x.total_cmp(y),
        (ScalarValue::Utf8(x), ScalarValue::Utf8(y)) => x.cmp(y),
        _ => rank(a).cmp(&rank(b)),
    }
}

/// A total order over result rows, used to sort unordered results.
pub fn cmp_rows(a: &[ScalarValue], b: &[ScalarValue]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| cmp_cell(x, y))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| a.len().cmp(&b.len()))
}

fn cells_equal(a: &ScalarValue, b: &ScalarValue) -> bool {
    match (a, b) {
        (ScalarValue::Float64(x), ScalarValue::Float64(y)) => {
            x == y || (x - y).abs() <= FLOAT_REL_TOL * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

/// Compare canonical rows; the error names the first difference.
pub fn compare(got: &[Vec<ScalarValue>], want: &[Vec<ScalarValue>]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} rows, reference has {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.len() != w.len() || !g.iter().zip(w).all(|(x, y)| cells_equal(x, y)) {
            return Err(format!("row {i} is {g:?}, reference has {w:?}"));
        }
    }
    Ok(())
}

/// Names of spill files present in `dir`.
pub fn spill_files(dir: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("rpt_spill_"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ScalarValue::*;

    #[test]
    fn floats_compare_within_tolerance() {
        let a = vec![vec![Int64(1), Float64(1.0e6)]];
        let b = vec![vec![Int64(1), Float64(1.0e6 + 1e-5)]];
        let c = vec![vec![Int64(1), Float64(1.0e6 + 1.0)]];
        assert!(compare(&a, &b).is_ok());
        assert!(compare(&a, &c).is_err());
        assert!(compare(&a, &[]).is_err());
    }

    #[test]
    fn rows_sort_totally() {
        let mut rows = [
            vec![Utf8("b".into()), Int64(2)],
            vec![Null, Int64(1)],
            vec![Utf8("a".into()), Int64(3)],
        ];
        rows.sort_by(|a, b| cmp_rows(a, b));
        assert_eq!(rows[0][0], Null);
        assert_eq!(rows[1][0], Utf8("a".into()));
    }
}
