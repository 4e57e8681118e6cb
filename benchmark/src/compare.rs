//! `run.sh --compare a.jsonl b.jsonl`: the regression gate between two
//! sets of runs (`a` = parent, `b` = change), each written with `--out`.
//!
//! Per workload and end-to-end metric, with the bound from
//! `BENCHMARK.json`:
//!
//! * `unresolved` — the quartile spread of either side exceeds the bound
//!   (or a side has fewer than two runs), unless every run of `b` reads
//!   better than every run of `a`;
//! * `BREACH` — `b`'s median is worse than `a`'s by more than the bound,
//!   or a run of `b` reported a wrong verdict;
//! * `ok` otherwise.
//!
//! Per-layer metrics are informational: `count` units are compared
//! exactly (`same` / `changed`), everything else is shown as a delta.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::harness::{median, Json};

/// An end-to-end metric's gate, from `BENCHMARK.json`.
#[derive(Clone, Debug)]
struct Gate {
    lower_is_better: bool,
    bound: f64,
}

/// Runs of one file: `(workload, metric) -> values`, plus the workloads
/// that reported a wrong verdict.
#[derive(Default)]
struct Runs {
    values: BTreeMap<(String, String), Vec<f64>>,
    units: BTreeMap<String, String>,
    incorrect: Vec<String>,
}

fn read_runs(path: &Path) -> Result<Runs, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut runs = Runs::default();
    for (no, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = || format!("{} line {}", path.display(), no + 1);
        let v = Json::parse(line).map_err(|e| format!("{}: {e}", at()))?;
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", at()))?;
        let result = v
            .get("result")
            .ok_or_else(|| format!("{}: no result", at()))?;
        if result.get("correct") != Some(&Json::Bool(true)) {
            runs.incorrect.push(workload.to_string());
        }
        let metrics = result.get("metrics").map(Json::as_obj).unwrap_or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: {name} has no value", at()))?;
            runs.values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
            if let Some(unit) = m.get("unit").and_then(Json::as_str) {
                runs.units.insert(name.clone(), unit.to_string());
            }
        }
    }
    Ok(runs)
}

fn read_gates(path: &Path) -> Result<BTreeMap<String, Gate>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let v = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut gates = BTreeMap::new();
    for m in v.get("end_to_end").map(Json::as_arr).unwrap_or_default() {
        let name = m.get("name").and_then(Json::as_str);
        let bound = m.get("bound").and_then(Json::as_f64);
        let better = m.get("better").and_then(Json::as_str);
        let (Some(name), Some(bound), Some(better)) = (name, bound, better) else {
            return Err(format!("{}: malformed end_to_end entry", path.display()));
        };
        gates.insert(
            name.to_string(),
            Gate {
                lower_is_better: better == "lower",
                bound,
            },
        );
    }
    Ok(gates)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// (the exclusive method) gives them; `None` below two values.
fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median.
fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    Some((q3 - q1) / median(xs).abs())
}

/// Compare the runs in `a` and `b` under the bounds in `benchmark_json`.
/// Returns the report and whether any metric breached its bound.
///
/// # Errors
///
/// A file that cannot be read or parsed.
pub fn compare(a: &Path, b: &Path, benchmark_json: &Path) -> Result<(String, bool), String> {
    let gates = read_gates(benchmark_json)?;
    let (ra, rb) = (read_runs(a)?, read_runs(b)?);
    let mut out = String::new();
    let mut breach = false;
    let _ = writeln!(
        out,
        "{:11} {:34} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "delta", "spread"
    );
    for workload in &rb.incorrect {
        breach = true;
        let _ = writeln!(
            out,
            "{workload:11} wrong_verdicts: a run of b is not correct  BREACH"
        );
    }
    for ((workload, metric), va) in &ra.values {
        let Some(vb) = rb.values.get(&(workload.clone(), metric.clone())) else {
            let _ = writeln!(out, "{workload:11} {metric:34} missing from b");
            continue;
        };
        let (ma, mb) = (median(va), median(vb));
        let delta = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
        let wide = spread(va).zip(spread(vb)).map(|(x, y)| x.max(y));
        let verdict = match gates.get(metric) {
            Some(gate) => {
                let worse = if gate.lower_is_better { delta } else { -delta };
                let b_wins_every_run = va.iter().all(|&x| {
                    vb.iter()
                        .all(|&y| if gate.lower_is_better { y < x } else { y > x })
                });
                if wide.is_none_or(|w| w > gate.bound) && !b_wins_every_run {
                    format!("unresolved (bound {:.0}%)", gate.bound * 100.0)
                } else if worse > gate.bound {
                    breach = true;
                    format!("BREACH (bound {:.0}%)", gate.bound * 100.0)
                } else {
                    format!("ok (bound {:.0}%)", gate.bound * 100.0)
                }
            }
            None if ra.units.get(metric).is_some_and(|u| u == "count") => {
                if ma == mb { "same" } else { "changed" }.to_string()
            }
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "{workload:11} {metric:34} {ma:14.4} {mb:14.4} {:+7.1}% {:>7}  {verdict}",
            delta * 100.0,
            wide.map_or("n<2".to_string(), |w| format!("{:.1}%", w * 100.0)),
        );
    }
    Ok((out, breach))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
