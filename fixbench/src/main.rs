//! fixbench: the wall-clock ledger for the Fix reproduction.
//!
//! ```text
//! fixbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <f>]
//! fixbench run     [--seed <n>] [--seconds <s>] [--repeat <k>] [--out <file>]
//! fixbench check   [--manifest <BENCHMARK.json>]
//! fixbench compare <a.json> <b.json>
//! fixbench manifest                      (prints BENCHMARK.json from the catalogue)
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload,
//! one pass, one JSON result line last on stdout (tables go to stderr).
//! `run` drives every workload through that form in fresh child
//! processes and writes one ledger document; `compare` gates one
//! document against another; `check` is the quick self-test. See
//! README.md.

mod alloc;
mod harness;
mod isolated;
mod json;
mod ledger;
mod metrics;
mod spans;
mod stats;
mod workloads;

use harness::{RunArgs, RunResult, Workload};
use json::{num, obj, text, JsonValue};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

fn pass<W: Workload>(args: RunArgs, trace: bool) -> RunResult {
    if !trace {
        return harness::timed::<W>(args);
    }
    let mut result = harness::traced::<W>(args);
    let budget = args.seconds * (1.0 - harness::TRACED_SHARE);
    result
        .values
        .extend(isolated::run(budget, args.seed, args.scale));
    result
}

fn run_workload(name: &str, args: RunArgs, trace: bool) -> Option<RunResult> {
    use workloads::{durable, native, pooled, serve, vm};
    Some(match name {
        "native_cold" => pass::<native::NativeCold>(args, trace),
        "memo_warm" => pass::<native::MemoWarm>(args, trace),
        "vm_guest" => pass::<vm::VmGuest>(args, trace),
        "pooled_mapreduce" => pass::<pooled::PooledMapReduce>(args, trace),
        "durable_log" => pass::<durable::DurableLog>(args, trace),
        "durable_reopen" => pass::<durable::DurableReopen>(args, trace),
        "serve_tiers" => pass::<serve::ServeTiers>(args, trace),
        _ => return None,
    })
}

/// The result line: every catalogued metric of the pass, by name.
fn result_line(result: &RunResult, trace: bool) -> String {
    let defs = if trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let fields = defs.iter().map(|d| {
        let value = *result
            .values
            .get(d.name)
            .unwrap_or_else(|| panic!("pass did not measure {}", d.name));
        (d.name, obj([("value", num(value)), ("unit", text(d.unit))]))
    });
    json::to_string(&obj([
        ("correct", JsonValue::Bool(result.failed == 0)),
        ("attempted", num(result.attempted as f64)),
        ("failed", num(result.failed as f64)),
        ("metrics", obj(fields)),
    ]))
}

/// `--key value` pairs and bare words, in order.
pub struct Args {
    flags: Vec<(String, String)>,
    pub words: Vec<String>,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some(key) => {
                    let value = raw.next().ok_or(format!("--{key} needs a value"))?;
                    args.flags.push((key.into(), value));
                }
                None => args.words.push(a),
            }
        }
        Ok(args)
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read '{v}'")),
        }
    }
}

fn workload_mode(args: &Args) -> Result<(), String> {
    let name = args.get("workload").ok_or("--workload is required")?;
    let run = RunArgs {
        seed: args.parsed("seed", 1u64)?,
        seconds: args.parsed("seconds", ledger::RUN_SECONDS)?,
        scale: args.parsed("scale", 1.0f64)?,
    };
    if !(run.seconds > 0.0 && run.seconds <= 600.0 && run.scale > 0.0 && run.scale <= 16.0) {
        return Err("--seconds must be in (0, 600] and --scale in (0, 16]".into());
    }
    let trace = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    let result = run_workload(name, run, trace).ok_or(format!("unknown workload '{name}'"))?;
    println!("{}", result_line(&result, trace));
    Ok(())
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("fixbench: refusing to measure a debug build; use --release");
        std::process::exit(2);
    }
    // Everything the benchmark writes goes beside its own executable
    // (the build directory): log directories are `TempDir`s under this
    // root, removed on drop — so also when a panic unwinds.
    let tmp = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join("fixbench-tmp")))
        .expect("the executable has a directory");
    std::fs::create_dir_all(&tmp).expect("temp root is creatable");
    std::env::set_var("TMPDIR", &tmp);

    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fixbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.words.first().map(String::as_str) {
        None => workload_mode(&args),
        Some("run") => ledger::run(&args),
        Some("check") => ledger::check(&args),
        Some("compare") => ledger::compare(&args),
        Some("manifest") => {
            print!("{}", ledger::manifest());
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand '{other}'")),
    };
    if let Err(e) = outcome {
        eprintln!("fixbench: {e}");
        std::process::exit(1);
    }
}
