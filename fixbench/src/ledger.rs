//! The subcommands around the single-workload form: `run` (every
//! workload in fresh child processes, one ledger document), `compare`
//! (the gate between two documents) and `check` (the quick self-test).

use crate::json::{self, num, obj, text, JsonValue};
use crate::metrics::{self, Better, Def, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, min_max, spread};
use crate::Args;
use std::process::Command;

const SCHEMA: &str = "fixbench/1";
/// `run_seconds` of BENCHMARK.json, the default length of a pass.
pub const RUN_SECONDS: f64 = 5.0;
/// Workloads whose budget-table residual must stay within
/// [`MAX_RESIDUAL`] (the other two overlap spans across threads).
const RESIDUAL_CHECKED: [&str; 5] = [
    "native_cold",
    "memo_warm",
    "vm_guest",
    "durable_log",
    "durable_reopen",
];
const MAX_RESIDUAL: f64 = 0.2;
/// `compare`'s exit code when nothing regressed but some pair's spread
/// hid the answer (1 is a regression, 2 a usage error).
const UNRESOLVED_EXIT: i32 = 3;
/// `check` runs every pass at 1/100 size; the timed pass for long
/// enough that the 10 ms CPU clock ticks inside its windows.
const CHECK_SCALE: f64 = 0.01;
const CHECK_SECONDS: [f64; 2] = [0.25, 0.05];

/// One child invocation's result line, parsed.
struct Child {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(name, value, unit)` in the order printed.
    metrics: Vec<(String, f64, String)>,
}

/// Runs one pass of one workload in a fresh process of this executable,
/// so peak RSS and allocator state are that workload's alone.
fn invoke(
    workload: &str,
    seed: u64,
    seconds: f64,
    scale: f64,
    trace: bool,
    show_stderr: bool,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--scale", &scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if show_stderr || !out.status.success() {
        eprint!("{stderr}");
    }
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            trace as u8, out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: no result line"))?;
    let doc = json::parse_json(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    let bad = |what: &str| format!("{workload}: result line lacks {what}");
    let metrics = json::get_fields(&doc, "metrics")
        .ok_or(bad("metrics"))?
        .iter()
        .map(|(name, m)| {
            let value = json::get_num(m, "value").ok_or(bad("a value"))?;
            let unit = json::get_str(m, "unit").ok_or(bad("a unit"))?;
            Ok((name.clone(), value, unit.to_string()))
        })
        .collect::<Result<_, String>>()?;
    Ok(Child {
        correct: doc.get("correct") == Some(&JsonValue::Bool(true)),
        attempted: json::get_num(&doc, "attempted").ok_or(bad("attempted"))?,
        failed: json::get_num(&doc, "failed").ok_or(bad("failed"))?,
        metrics,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where the numbers were taken: they are only comparable within one.
fn machine_facts() -> JsonValue {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    obj([
        (
            "nproc",
            num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu", text(cpu)),
        ("rustc", text(command_line("rustc", &["--version"]))),
        (
            "git_rev",
            text(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("profile", text("release")),
    ])
}

/// Values of one metric on one workload across the repeats.
struct Series {
    def: &'static Def,
    kind: &'static str,
    /// `compare`'s bound for this pair, when it is gated.
    bound: Option<f64>,
    values: Vec<f64>,
}

fn series_json(s: &Series) -> JsonValue {
    let (lo, hi) = min_max(&s.values);
    let mut fields = vec![
        ("kind", text(s.kind)),
        ("unit", text(s.def.unit)),
        ("better", text(s.def.better.label())),
    ];
    if let Some(bound) = s.bound {
        fields.push(("bound", num(bound)));
    }
    if s.def.exact {
        fields.push(("exact", JsonValue::Bool(true)));
    }
    fields.extend([
        ("median", num(median(&s.values))),
        ("min", num(lo)),
        ("max", num(hi)),
        (
            "values",
            JsonValue::Array(s.values.iter().map(|&v| num(v)).collect()),
        ),
    ]);
    obj(fields)
}

/// `run`: every workload, timed and traced pass, `--repeat` times on
/// seeds `seed, seed+1, …`; prints every metric and writes `--out` —
/// unless a gated pair spread wider than its bound over the repeats:
/// such a document would read `Unresolved` against itself.
pub fn run(args: &Args) -> Result<(), String> {
    let seed: u64 = args.parsed("seed", 1)?;
    let seconds: f64 = args.parsed("seconds", RUN_SECONDS)?;
    let scale: f64 = args.parsed("scale", 1.0)?;
    let repeats: u64 = args.parsed("repeat", 1)?;
    if repeats == 0 {
        return Err("--repeat must be at least 1".into());
    }

    let mut workloads = Vec::new();
    let mut unsteady = Vec::new();
    for (name, _) in WORKLOADS {
        let mut attempted = Vec::new();
        let mut failed = Vec::new();
        let mut series: Vec<Series> = END_TO_END
            .iter()
            .map(|def| (def, "end_to_end"))
            .chain(PER_LAYER.iter().map(|def| (def, "per_layer")))
            .map(|(def, kind)| Series {
                def,
                kind,
                bound: metrics::gate(def.name, name),
                values: Vec::new(),
            })
            .collect();
        for r in 0..repeats {
            eprintln!("== {name}, seed {}, repeat {}/{repeats}", seed + r, r + 1);
            for trace in [false, true] {
                let child = invoke(name, seed + r, seconds, scale, trace, true)?;
                if !trace {
                    attempted.push(num(child.attempted));
                    failed.push(num(child.failed));
                }
                for (metric, value, _) in &child.metrics {
                    series
                        .iter_mut()
                        .find(|s| s.def.name == metric)
                        .ok_or(format!("{name} printed uncatalogued metric {metric}"))?
                        .values
                        .push(*value);
                }
            }
        }
        print_workload(name, &series);
        for s in &series {
            if let Some(bound) = s.bound.filter(|&b| repeats >= 2 && spread(&s.values) > b) {
                unsteady.push(format!(
                    "{name} {}: spread {:.1}% over its {:.0}% bound",
                    s.def.name,
                    spread(&s.values) * 100.0,
                    bound * 100.0
                ));
            }
        }
        workloads.push((
            *name,
            obj([
                ("attempted", JsonValue::Array(attempted)),
                ("failed", JsonValue::Array(failed)),
                (
                    "metrics",
                    obj(series.iter().map(|s| (s.def.name, series_json(s)))),
                ),
            ]),
        ));
    }
    if !unsteady.is_empty() {
        return Err(format!(
            "the box was not steady, nothing written; run again when it is calm:\n  {}",
            unsteady.join("\n  ")
        ));
    }
    let doc = obj([
        ("schema", text(SCHEMA)),
        ("machine", machine_facts()),
        ("seed", num(seed as f64)),
        ("seconds", num(seconds)),
        ("scale", num(scale)),
        ("repeats", num(repeats as f64)),
        ("workloads", obj(workloads)),
    ]);
    if let Some(path) = args.get("out") {
        std::fs::write(path, json::to_pretty(&doc))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("ledger written to {path}");
    }
    Ok(())
}

fn print_workload(name: &str, series: &[Series]) {
    println!("{name}");
    println!(
        "  {:<36} {:>8} {:>7} {:>6} {:>16} {:>16} {:>16} {:>8}",
        "metric", "unit", "better", "bound", "median", "min", "max", "spread"
    );
    for s in series {
        let (lo, hi) = min_max(&s.values);
        let bound = s.bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0));
        let spread = if s.values.len() >= 2 {
            format!("{:.1}%", spread(&s.values) * 100.0)
        } else {
            "-".into()
        };
        println!(
            "  {:<36} {:>8} {:>7} {:>6} {:>16.4} {:>16.4} {:>16.4} {:>8}",
            s.def.name,
            s.def.unit,
            s.def.better.label(),
            bound,
            median(&s.values),
            lo,
            hi,
            spread
        );
    }
}

fn load(path: &str) -> Result<JsonValue, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse_json(&raw).map_err(|e| format!("{path}: {e}"))?;
    if json::get_str(&doc, "schema") != Some(SCHEMA) {
        return Err(format!("{path}: not a {SCHEMA} document"));
    }
    Ok(doc)
}

/// How `b` reads against `a` on one gated (metric, workload) pair.
#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Improved,
    Unresolved,
    Regression,
}

/// The gate's rule (choosing-metrics §6.5): worse than the bound is a
/// regression. Where either side's run-to-run spread exceeds the bound
/// the medians decide nothing: the pair is unresolved — not unchanged —
/// unless every run of `b` beats every run of `a`, or every run of `b`
/// is worse than every run of `a` by more than the bound. `worse` is
/// the share of `a`'s median by which `b` is worse (negative when it is
/// better).
fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse = match better {
        Better::Higher => (ma - mb) / ma.abs(),
        Better::Lower => (mb - ma) / ma.abs(),
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (min_max(a), min_max(b));
    let (all_better, all_worse) = match better {
        Better::Higher => (b_lo > a_hi, b_hi < a_lo - bound * a_lo.abs()),
        Better::Lower => (b_hi < a_lo, b_lo > a_hi + bound * a_hi.abs()),
    };
    let noisy = [a, b].iter().any(|v| v.len() >= 2 && spread(v) > bound);
    let verdict = if noisy {
        match (all_better, all_worse) {
            (true, _) => Verdict::Improved,
            (_, true) => Verdict::Regression,
            _ => Verdict::Unresolved,
        }
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// `compare <a> <b>`: per gated (metric, workload) pair, `b` against `a`
/// and the pair's bound. Fails on a regression, a gated metric `b` does
/// not have, or a higher failure ratio; and, with its own exit code, on
/// pairs too noisy to judge, which are not a pass.
pub fn compare(args: &Args) -> Result<(), String> {
    let [_, a_path, b_path] = args.words.as_slice() else {
        return Err("usage: fixbench compare <a.json> <b.json>".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let same_seed = json::get_num(&a, "seed") == json::get_num(&b, "seed");
    let (mut regressions, mut unresolved) = (0, 0);
    println!(
        "{:<18} {:<28} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "worse", "bound"
    );
    for (workload, wa) in json::get_fields(&a, "workloads").ok_or("a: no workloads")? {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload:<18} missing from b: REGRESSION");
            regressions += 1;
            continue;
        };
        let ratio = |w: &JsonValue| -> Option<f64> {
            let failed: f64 = json::get_nums(w, "failed")?.iter().sum();
            let attempted: f64 = json::get_nums(w, "attempted")?.iter().sum();
            Some(failed / attempted)
        };
        let (fa, fb) = (
            ratio(wa).ok_or("a: no failure counts")?,
            ratio(wb).ok_or("b: no failure counts")?,
        );
        if fb > fa {
            println!("{workload:<18} fail_ratio rose from {fa} to {fb}: REGRESSION");
            regressions += 1;
        }
        for (metric, ma) in json::get_fields(wa, "metrics").ok_or("a: no metrics")? {
            let Some(def) = metrics::find(metric) else {
                continue;
            };
            let gate = metrics::gate(metric, workload);
            let Some(vb) = wb
                .get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| json::get_nums(m, "values"))
            else {
                if gate.is_some() {
                    println!("{workload:<18} {metric:<28} missing from b: REGRESSION");
                    regressions += 1;
                }
                continue;
            };
            let va = json::get_nums(ma, "values").ok_or("a: metric without values")?;
            if let Some(bound) = gate {
                let (worse, verdict) = judge(&va, &vb, def.better, bound);
                regressions += usize::from(verdict == Verdict::Regression);
                unresolved += usize::from(verdict == Verdict::Unresolved);
                println!(
                    "{workload:<18} {metric:<28} {:>14.4} {:>14.4} {:>7.1}% {:>5.0}%  {verdict:?}",
                    median(&va),
                    median(&vb),
                    worse * 100.0,
                    bound * 100.0,
                );
            } else if def.exact && same_seed && va.first() != vb.first() {
                // One seed, one program: an exact count that moved is a
                // behaviour change worth a line, not a timing verdict.
                println!(
                    "{workload:<18} {metric:<28} {:>14} {:>14}  exact count changed",
                    va[0], vb[0]
                );
            }
        }
    }
    println!("{regressions} regression(s), {unresolved} unresolved");
    if regressions > 0 {
        return Err(format!("{regressions} regression(s)"));
    }
    if unresolved > 0 {
        eprintln!("fixbench: {unresolved} pair(s) too noisy to judge: run both sides again");
        std::process::exit(UNRESOLVED_EXIT);
    }
    Ok(())
}

/// BENCHMARK.json as the catalogue in `metrics` defines it: the driver's
/// contract, generated so the two cannot drift.
fn manifest_json() -> JsonValue {
    let strings = |items: &[&str]| JsonValue::Array(items.iter().map(|s| text(*s)).collect());
    let defs = |defs: &[Def], bounded: bool| {
        JsonValue::Array(
            defs.iter()
                .map(|d| {
                    let mut fields = vec![
                        ("name", text(d.name)),
                        ("unit", text(d.unit)),
                        ("better", text(d.better.label())),
                    ];
                    if bounded {
                        fields.push(("bound", num(d.bound)));
                    }
                    obj(fields)
                })
                .collect(),
        )
    };
    obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "fixbench/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["fixbench"])),
        ("run_seconds", num(RUN_SECONDS)),
        (
            "workloads",
            JsonValue::Array(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| obj([("name", text(*name)), ("why", text(*why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", defs(END_TO_END, true)),
        ("per_layer", defs(PER_LAYER, false)),
    ])
}

/// `manifest`: BENCHMARK.json's text.
pub fn manifest() -> String {
    json::to_pretty(&manifest_json())
}

fn check_manifest(path: &str) -> Result<(), String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse_json(&raw).map_err(|e| format!("{path}: {e}"))?;
    if doc != manifest_json() {
        return Err(format!(
            "{path} differs from the catalogue; regenerate it with `fixbench manifest`"
        ));
    }
    Ok(())
}

/// `check`: the manifest matches the catalogue, and every workload at
/// 1/100 scale prints every catalogued metric with its unit, fails
/// nothing, and keeps its budget-table residual within bounds.
pub fn check(args: &Args) -> Result<(), String> {
    let manifest = args
        .get("manifest")
        .map(str::to_string)
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json").into());
    check_manifest(&manifest)?;
    println!("manifest {manifest} matches the catalogue");
    for (name, _) in WORKLOADS {
        for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let child = invoke(
                name,
                1,
                CHECK_SECONDS[trace as usize],
                CHECK_SCALE,
                trace,
                false,
            )?;
            if !child.correct || child.failed != 0.0 || child.attempted < 1.0 {
                return Err(format!(
                    "{name}: {} of {} outputs wrong",
                    child.failed, child.attempted
                ));
            }
            let printed: Vec<(&str, &str)> = child
                .metrics
                .iter()
                .map(|(n, _, u)| (n.as_str(), u.as_str()))
                .collect();
            let wanted: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
            if printed != wanted {
                return Err(format!(
                    "{name} (trace {}): metrics differ from the catalogue",
                    trace as u8
                ));
            }
            let value = |metric: &str| {
                child
                    .metrics
                    .iter()
                    .find(|(n, _, _)| n == metric)
                    .map(|m| m.1)
            };
            if trace {
                let residual = value("bench.residual_ratio").expect("catalogued");
                let overhead = value("bench.span_overhead_ratio").expect("catalogued");
                if RESIDUAL_CHECKED.contains(name) && residual > MAX_RESIDUAL {
                    return Err(format!(
                        "{name}: residual {residual:.3} exceeds {MAX_RESIDUAL}"
                    ));
                }
                if overhead <= 0.0 {
                    return Err(format!("{name}: span overhead not measured"));
                }
                println!("{name:<18} ok  residual {residual:.3}  span overhead x{overhead:.2}");
            } else if child.metrics.iter().any(|(_, v, _)| *v <= 0.0) {
                return Err(format!("{name}: an end-to-end metric read 0"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    #[test]
    fn judge_follows_the_gate_rule() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let verdict = |b: &[f64], better| judge(&steady, b, better, 0.10).1;
        // Within the bound, worse or better.
        let (worse, v) = judge(&steady, &[97.0, 98.0, 96.5, 97.5, 97.2], Higher, 0.10);
        assert!(worse > 0.0 && worse < 0.10);
        assert_eq!(v, Verdict::Ok);
        let faster = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert!(judge(&steady, &faster, Higher, 0.10).0 < -0.19);
        assert_eq!(verdict(&faster, Higher), Verdict::Ok);
        // Worse than the bound, in the direction that matters.
        assert_eq!(
            verdict(&[80.0, 81.0, 79.0, 80.5, 79.5], Higher),
            Verdict::Regression
        );
        assert_eq!(verdict(&faster, Lower), Verdict::Regression);
        // Spread wider than the bound: unresolved, not unchanged…
        assert_eq!(
            verdict(&[60.0, 140.0, 100.0, 80.0, 120.0], Higher),
            Verdict::Unresolved
        );
        // …unless every run beats every run of the parent…
        assert_eq!(
            verdict(&[150.0, 260.0, 180.0, 200.0, 230.0], Higher),
            Verdict::Improved
        );
        // …or every run is worse than every run of it by more than the
        // bound (worst parent run 99: below 89.1 on all five).
        let slow = [30.0, 89.0, 50.0, 40.0, 70.0];
        assert_eq!(verdict(&slow, Higher), Verdict::Regression);
        assert_eq!(
            verdict(&[30.0, 95.0, 50.0, 40.0, 70.0], Higher),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&[300.0, 112.0, 500.0, 400.0, 700.0], Lower),
            Verdict::Regression
        );
        // Single runs have no spread and are judged on the medians.
        assert_eq!(judge(&[100.0], &[95.0], Higher, 0.10).1, Verdict::Ok);
        assert_eq!(
            judge(&[100.0], &[85.0], Higher, 0.10).1,
            Verdict::Regression
        );
    }
}
