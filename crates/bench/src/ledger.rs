//! `ledger`: the committed perf ledgers as one trajectory.
//!
//! A perf PR commits two fixbench ledgers (`fixbench run --repeat 10
//! --out …`) from the run set its runs file reports: its own tree's as
//! `BENCH_pr-N.json` at the repo root, and its parent's as
//! `docs/runs/pr-N.parent.json`. This module reads every one it finds,
//! in PR order (a PR's parent just before the PR), and prints each
//! workload × end-to-end metric of `BENCHMARK.json` as a row of medians
//! across those points. Each move between consecutive points is judged
//! by `fixbench compare`'s rule against the bound the ledger itself
//! carries for that pair; a move beyond it, and a move too noisy to
//! judge, is flagged. The last move is printed as a ratio beside the
//! previous point's IQR, the spread a claim must beat.
//! `bench.residual_ratio` — how far the per-layer rows fall short of
//! summing to the end-to-end row — follows per workload.
//!
//! Wall-clock numbers from another box are only comparable within that
//! box, so each point's machine is printed too. Not part of `figures
//! all`; run `figures ledger`.

use fix_obs::{parse_json, JsonValue};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One ledger document: a point of the trajectory.
struct Point {
    /// `pr-N` for a change side, `pr-N^` for its parent.
    label: String,
    /// The file it was read from, relative to the root.
    file: String,
    doc: JsonValue,
}

fn text<'a>(value: &'a JsonValue, key: &str) -> Option<&'a str> {
    match value.get(key)? {
        JsonValue::String(s) => Some(s),
        _ => None,
    }
}

fn num(value: &JsonValue) -> Option<f64> {
    match value {
        JsonValue::Number(n) => Some(*n),
        _ => None,
    }
}

fn number(value: &JsonValue, key: &str) -> Option<f64> {
    value.get(key).and_then(num)
}

fn array<'a>(value: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    match value.get(key) {
        Some(JsonValue::Array(items)) => items,
        _ => &[],
    }
}

fn read(path: &Path) -> Result<JsonValue, String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_json(&raw).map_err(|e| format!("{}: {e}", path.display()))
}

/// The workloads and end-to-end metric names `BENCHMARK.json` declares.
fn manifest(root: &Path) -> Result<(Vec<String>, Vec<String>), String> {
    let doc = read(&root.join("BENCHMARK.json"))?;
    let names = |key| {
        array(&doc, key)
            .iter()
            .filter_map(|w| text(w, "name").map(str::to_string))
            .collect()
    };
    Ok((names("workloads"), names("end_to_end")))
}

/// Every committed ledger under `root`, in PR order, each PR's parent
/// just before it.
fn points(root: &Path) -> Result<Vec<Point>, String> {
    let pr_of = |name: &str, prefix: &str, suffix: &str| -> Option<u32> {
        name.strip_prefix(prefix)?
            .strip_suffix(suffix)?
            .parse()
            .ok()
    };
    let list = |dir: &Path, prefix: &str, suffix: &str| -> Vec<(u32, PathBuf)> {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        entries
            .filter_map(|e| {
                let path = e.ok()?.path();
                let pr = pr_of(path.file_name()?.to_str()?, prefix, suffix)?;
                Some((pr, path))
            })
            .collect()
    };
    let mut files: Vec<(u32, bool, PathBuf)> = list(root, "BENCH_pr-", ".json")
        .into_iter()
        .map(|(pr, path)| (pr, true, path))
        .chain(
            list(&root.join("docs/runs"), "pr-", ".parent.json")
                .into_iter()
                .map(|(pr, path)| (pr, false, path)),
        )
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|(pr, change, path)| {
            let doc = read(&path)?;
            if text(&doc, "schema") != Some("fixbench/1") {
                return Err(format!("{}: not a fixbench/1 ledger", path.display()));
            }
            Ok(Point {
                label: format!("pr-{pr}{}", if change { "" } else { "^" }),
                file: path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .display()
                    .to_string(),
                doc,
            })
        })
        .collect()
}

/// The series of `metric` on `workload` in one ledger.
fn series<'a>(point: &'a Point, workload: &str, metric: &str) -> Option<&'a JsonValue> {
    point
        .doc
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)
}

/// The distance between the quartiles of `values`, as a share of their
/// median: fixbench's `spread`. The quartiles are Python's
/// `statistics.quantiles(values, n=4)` (its default, exclusive method).
fn spread(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let median = median(&v)?;
    Some(if median == 0.0 {
        0.0
    } else {
        (q(3) - q(1)) / median.abs()
    })
}

/// How a later point reads against an earlier one on one gated pair.
#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Improved,
    Unresolved,
    Regression,
}

/// `fixbench compare`'s rule: worse than the bound is a regression; where
/// either side's spread exceeds the bound the medians decide nothing, and
/// the move is unresolved unless every run of `b` beats every run of `a`
/// or every run of `b` is worse than every run of `a` by more than the
/// bound. A steady move better than the bound is flagged as improved.
fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Option<Verdict> {
    let (ma, mb) = (median(a)?, median(b)?);
    if ma == 0.0 {
        return None;
    }
    let worse = if higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let lo_hi = |v: &[f64]| {
        v.iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            })
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (lo_hi(a), lo_hi(b));
    let (all_better, all_worse) = if higher_is_better {
        (b_lo > a_hi, b_hi < a_lo - bound * a_lo.abs())
    } else {
        (b_hi < a_lo, b_lo > a_hi + bound * a_hi.abs())
    };
    let noisy = [a, b].iter().any(|v| spread(v).is_some_and(|s| s > bound));
    Some(if noisy {
        match (all_better, all_worse) {
            (true, _) => Verdict::Improved,
            (_, true) => Verdict::Regression,
            _ => Verdict::Unresolved,
        }
    } else if worse > bound {
        Verdict::Regression
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    })
}

fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

fn cell(value: Option<f64>) -> String {
    match value {
        Some(v) if v != 0.0 && (v.abs() >= 1e5 || v.abs() < 1e-2) => format!("{v:.4e}"),
        Some(v) => format!("{v:.4}"),
        None => "-".into(),
    }
}

/// The trajectory of every ledger under `root` as text.
pub fn report(root: &Path) -> Result<String, String> {
    let (workloads, metrics) = manifest(root)?;
    let points = points(root)?;
    let mut out = String::new();
    let _ = writeln!(out, "perf ledger: {} point(s)", points.len());
    for p in &points {
        let machine = p.doc.get("machine");
        let fact = |key| machine.and_then(|m| text(m, key)).unwrap_or("?");
        let _ = writeln!(
            out,
            "  {:<8} {}  rev {}, {} × {}, repeats {}",
            p.label,
            p.file,
            fact("git_rev"),
            machine.and_then(|m| number(m, "nproc")).unwrap_or(0.0),
            fact("cpu"),
            number(&p.doc, "repeats").unwrap_or(0.0),
        );
    }
    if points.is_empty() {
        return Ok(out);
    }

    let labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
    let _ = writeln!(
        out,
        "\nmedians; `last` is the last point ÷ the one before, `IQR` the \
         one before's quartile spread; each move is judged as `fixbench \
         compare` judges it, against the pair's bound in the ledger"
    );
    let _ = write!(out, "{:<17} {:<15} {:>5}", "workload", "metric", "bound");
    for label in &labels {
        let _ = write!(out, " {label:>11}");
    }
    let _ = writeln!(out, " {:>7} {:>6}  flags", "last", "IQR");
    for workload in &workloads {
        for metric in &metrics {
            let runs: Vec<Option<&JsonValue>> =
                points.iter().map(|p| series(p, workload, metric)).collect();
            let values =
                |s: &JsonValue| -> Vec<f64> { array(s, "values").iter().filter_map(num).collect() };
            let medians: Vec<Option<f64>> = runs
                .iter()
                .map(|s| s.and_then(|s| number(s, "median")))
                .collect();
            let bound = runs.iter().rev().flatten().find_map(|s| number(s, "bound"));
            let bound_cell = bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0));
            let _ = write!(out, "{workload:<17} {metric:<15} {bound_cell:>5}");
            for m in &medians {
                let _ = write!(out, " {:>11}", cell(*m));
            }
            let n = points.len();
            let (last, iqr) = match (n >= 2).then(|| (medians[n - 2], medians[n - 1])) {
                Some((Some(a), Some(b))) if a != 0.0 => (
                    format!("×{:.3}", b / a),
                    runs[n - 2].and_then(|s| spread(&values(s))),
                ),
                _ => ("-".into(), None),
            };
            let iqr = iqr.map_or("-".into(), |s| format!("{:.1}%", s * 100.0));
            let _ = write!(out, " {last:>7} {iqr:>6} ");
            for (i, pair) in runs.windows(2).enumerate() {
                let (Some(a), Some(b)) = (pair[0], pair[1]) else {
                    continue;
                };
                let Some(bound) = number(b, "bound").or_else(|| number(a, "bound")) else {
                    continue;
                };
                let higher_is_better = text(b, "better") == Some("higher");
                let flag = match judge(&values(a), &values(b), higher_is_better, bound) {
                    Some(Verdict::Improved) => "improved",
                    Some(Verdict::Unresolved) => "unresolved",
                    Some(Verdict::Regression) => "REGRESSION",
                    Some(Verdict::Ok) | None => continue,
                };
                let _ = write!(out, " {}→{} {flag}", labels[i], labels[i + 1]);
            }
            let _ = writeln!(out);
        }
    }

    let _ = writeln!(out, "\nbench.residual_ratio (traced pass, median)");
    for workload in &workloads {
        let _ = write!(out, "{workload:<17}");
        for p in &points {
            let value =
                series(p, workload, "bench.residual_ratio").and_then(|s| number(s, "median"));
            let _ = write!(out, " {:>11}", cell(value));
        }
        let _ = writeln!(out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(rev: &str, req_per_s: &[f64], setup_s: &[f64]) -> String {
        let series = |values: &[f64], better: &str| {
            let listed: Vec<String> = values.iter().map(f64::to_string).collect();
            format!(
                r#"{{"better": "{better}", "bound": 0.25, "median": {}, "values": [{}]}}"#,
                median(values).unwrap(),
                listed.join(", ")
            )
        };
        format!(
            r#"{{"schema": "fixbench/1",
               "machine": {{"nproc": 2, "cpu": "test", "git_rev": "{rev}"}},
               "repeats": {n}, "workloads": {{"durable_reopen": {{"metrics": {{
                 "req_per_s": {req},
                 "setup_s": {setup},
                 "bench.residual_ratio": {{"median": 0.05, "values": [0.05]}}}}}}}}}}"#,
            n = req_per_s.len(),
            req = series(req_per_s, "higher"),
            setup = series(setup_s, "lower"),
        )
    }

    #[test]
    fn two_points_print_their_medians_and_flag_by_the_ledgers_bound() {
        let root = tempfile::tempdir().unwrap();
        std::fs::write(
            root.path().join("BENCHMARK.json"),
            r#"{"workloads": [{"name": "durable_reopen"}],
                "end_to_end": [{"name": "req_per_s"}, {"name": "setup_s"},
                               {"name": "lat_p50_us"}]}"#,
        )
        .unwrap();
        std::fs::create_dir_all(root.path().join("docs/runs")).unwrap();
        std::fs::write(
            root.path().join("docs/runs/pr-7.parent.json"),
            ledger("aaa", &[99.0, 100.0, 101.0], &[1.0, 2.0, 3.0]),
        )
        .unwrap();
        std::fs::write(
            root.path().join("BENCH_pr-7.json"),
            ledger("bbb", &[139.0, 140.0, 141.0], &[1.5, 2.0, 2.5]),
        )
        .unwrap();

        let text = report(root.path()).unwrap();
        let labels: Vec<String> = points(root.path())
            .unwrap()
            .into_iter()
            .map(|p| p.label)
            .collect();
        assert_eq!(labels, ["pr-7^", "pr-7"]);
        let row = |metric: &str| {
            text.lines()
                .find(|l| l.contains(metric) && l.starts_with("durable_reopen"))
                .unwrap_or_else(|| panic!("a {metric} row in {text}"))
                .to_string()
        };
        let req = row("req_per_s");
        assert!(req.contains("×1.400"), "{req}");
        // Exclusive quartiles of 99, 100, 101: 99 and 101.
        assert!(req.contains("2.0%"), "{req}");
        assert!(req.contains("25%"), "{req}");
        assert!(req.contains("pr-7^→pr-7 improved"), "{req}");
        // The parent's set-up spread (100%) is past its bound and the
        // runs overlap: the medians decide nothing.
        let setup = row("setup_s");
        assert!(setup.contains("pr-7^→pr-7 unresolved"), "{setup}");
        // A metric neither ledger measured prints dashes and no flag.
        let lat = row("lat_p50_us");
        assert!(!lat.contains("→"), "{lat}");
        assert!(text.contains("rev bbb"), "{text}");
        assert!(text.contains("bench.residual_ratio"), "{text}");
    }

    #[test]
    fn judge_follows_compare() {
        let steady = [99.0, 100.0, 101.0];
        assert_eq!(
            judge(&steady, &[98.0, 99.0, 100.0], true, 0.1),
            Some(Verdict::Ok)
        );
        assert_eq!(
            judge(&steady, &[60.0, 61.0, 62.0], true, 0.1),
            Some(Verdict::Regression)
        );
        assert_eq!(
            judge(&steady, &[60.0, 61.0, 62.0], false, 0.1),
            Some(Verdict::Improved)
        );
        let noisy = [70.0, 100.0, 130.0];
        assert_eq!(
            judge(&noisy, &[99.0, 100.0, 101.0], true, 0.1),
            Some(Verdict::Unresolved)
        );
        assert_eq!(
            judge(&noisy, &[131.0, 132.0, 133.0], true, 0.1),
            Some(Verdict::Improved)
        );
        assert_eq!(
            judge(&noisy, &[10.0, 11.0, 12.0], true, 0.1),
            Some(Verdict::Regression)
        );
        assert_eq!(judge(&[], &steady, true, 0.1), None);
    }
}
