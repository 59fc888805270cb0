//! Architecture guards: structure the design has given up, checked by
//! reading the source tree, so a name that comes back fails a test.
//!
//! A guard names the trees it reads and the patterns it forbids. A tree
//! is a directory, read recursively and in full (every file, not only
//! `*.rs`), or one file; paths are relative to the repository root.
//! This file spells every forbidden name, so no guard reads it. A
//! pattern is matched within one line: it is a literal, with an
//! optional `\b` at either end that asks for a word boundary there, as
//! in grep (`\bPriority\b` is a whole word; `fn knows\b` is not the head
//! of a longer name such as `fn knows_all`; a bare `set_stage` matches
//! anywhere). Three guards also ask the converse, that something is
//! found: `every_pub_fn_has_a_caller` (a call of each public function),
//! `every_example_teaches_what_no_figure_prints` (each listed example)
//! and `one_bench_harness` (each bench's `harness = false`).

use std::fs;
use std::path::Path;

/// The file that spells every forbidden name.
const GUARDS: &str = "tests/architecture.rs";

/// One line of a file the guards read.
struct Line {
    path: String,
    no: usize,
    text: String,
}

impl std::fmt::Debug for Line {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.path, self.no, self.text.trim())
    }
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The names in directory `rel`, sorted.
fn entries(rel: &str) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(root().join(rel))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// Pushes `rel` if it is a file, or every file under it, in name order.
fn walk(rel: String, out: &mut Vec<String>) {
    if !root().join(&rel).is_dir() {
        out.push(rel);
        return;
    }
    for name in entries(&rel) {
        walk(format!("{rel}/{name}"), out);
    }
}

/// The lines under `trees` that `bad` picks out.
fn found(trees: &[impl AsRef<str>], bad: impl Fn(&Line) -> bool) -> Vec<Line> {
    let mut files = Vec::new();
    for tree in trees {
        walk(tree.as_ref().to_string(), &mut files);
    }
    let mut hits = Vec::new();
    for path in files.into_iter().filter(|path| path != GUARDS) {
        let bytes = fs::read(root().join(&path)).unwrap();
        for (i, text) in String::from_utf8_lossy(&bytes).lines().enumerate() {
            let line = Line {
                path: path.clone(),
                no: i + 1,
                text: text.to_string(),
            };
            if bad(&line) {
                hits.push(line);
            }
        }
    }
    hits
}

/// Whether `text` holds `pattern` (spelled as the module docs say).
fn holds(text: &str, pattern: &str) -> bool {
    let lead = pattern.starts_with(r"\b");
    let trail = pattern.ends_with(r"\b");
    let name = &pattern[if lead { 2 } else { 0 }..pattern.len() - if trail { 2 } else { 0 }];
    // A word boundary: the line's end, or a character outside a name.
    let edge = |c: Option<char>| !c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    text.match_indices(name).any(|(at, _)| {
        (!lead || edge(text[..at].chars().next_back()))
            && (!trail || edge(text[at + name.len()..].chars().next()))
    })
}

/// Fails on every line under `trees` that holds one of `patterns`.
fn forbid(trees: &[impl AsRef<str>], patterns: &[impl AsRef<str>]) {
    let hits = found(trees, |line| {
        patterns.iter().any(|p| holds(&line.text, p.as_ref()))
    });
    assert!(hits.is_empty(), "a deleted name is back: {hits:#?}");
}

/// The trees the repository's code, tests and examples live in.
const ALL: &[&str] = &["crates", "src", "tests", "examples"];

/// One surface: `Runtime` is called through its `fix_core::api` impls.
/// An inherent method restating a trait method would shadow it for
/// every caller without failing anything else, so forbid the names.
#[test]
fn one_surface() {
    let names = [
        "put",
        "put_blob",
        "put_tree",
        "get_blob",
        "get_tree",
        "get_u64",
        "register_native",
        "apply",
        "strict_apply",
        "select",
        "select_range",
        "eval",
        "eval_strict",
        "eval_many",
        "submit",
        "submit_many",
        "submit_with",
        "procedures_run",
        "footprint",
        "footprint_many",
    ];
    let patterns: Vec<String> = names.iter().map(|n| format!(r"pub fn {n}\b")).collect();
    forbid(&["crates/runtime/src/runtime.rs"], &patterns);
}

/// Name once: the durable store is handed every handle it needs (by
/// `Store::put` through the `Tier` hook, by `frame::decode_node` on a
/// fault, or as a payload key, itself the canonical handle) and never
/// derives a name from bytes itself — a stray `.handle()` there is a
/// second hash of the same object.
#[test]
fn name_once() {
    forbid(&["crates/durable/src/store.rs"], &[".handle()"]);
}

/// Handles are hashes: a map or set keyed on handle bytes (a payload
/// key, a module digest, a `Job`, a relation's input, a `Handle`) folds
/// the key's words under `fix_core::handle::HandleBuildHasher` —
/// spelled `HandleMap` / `HandleSet` — instead of running SipHash over
/// a BLAKE3 digest. The default hasher creeping back in fails nothing
/// else, so forbid the spellings (a line naming `HandleBuildHasher`
/// is one of them built right).
#[test]
fn handles_are_hashes() {
    let mut patterns = Vec::new();
    for map in ["HashMap", "HashSet"] {
        for key in [
            "[u8; 32]",
            "[u8; 24]",
            r"Job\b",
            "(Relation, Handle)",
            r"Handle\b",
        ] {
            patterns.push(format!("{map}<{key}"));
        }
    }
    let trees = [
        "crates/core/src",
        "crates/storage/src",
        "crates/runtime/src",
        "crates/durable/src",
        "crates/serve/src",
        "crates/cluster/src",
    ];
    let hits = found(&trees, |line| {
        patterns.iter().any(|p| holds(&line.text, p)) && !line.text.contains("HandleBuildHasher")
    });
    assert!(hits.is_empty(), "a default-hashed handle key: {hits:#?}");
}

/// One memo: the memoized relations in the node's table are the only
/// record of a finished evaluation. The job map holds work in flight,
/// so a finished-job state, or the calls that kept a second memo in
/// step with the table, coming back fails nothing else — forbid the
/// names.
#[test]
fn one_memo() {
    forbid(
        &["crates/runtime/src"],
        &[
            "JobState::Done",
            "JobState::Failed",
            "forget_finished",
            "compact_scheduler",
            "clear_memoization",
        ],
    );
}

/// One recipe book: the table's memoized relations are computational
/// GC's provenance — an application's recipe is its `Eval` (its one
/// relation; `Apply` is kept only for a tail call, in the same shard),
/// and range-selection `Eval`s are the other recipes, read afresh per
/// plan. A second ledger, the opt-in that fed it, or a remembered
/// eviction depth (which goes stale when an object's own support is
/// evicted later) coming back fails nothing else — forbid the names.
#[test]
fn one_recipe_book() {
    forbid(
        ALL,
        &[
            "ProvenanceLedger",
            "with_provenance",
            "recipe_for",
            "mark_resident",
            "evicted_depth",
        ],
    );
}

/// One table: a node's objects and memoized relations share one
/// sharded `fix_storage::Store` (one lock per payload key), and one
/// `Tier` hook, installed by `Store::attach`, connects it to a backing
/// tier. `RelationCache` is the relation side's face and owns no map,
/// lock or shard of its own. The three hook traits and their installs,
/// or a second sharded map behind the face, coming back fail nothing
/// else — forbid them.
#[test]
fn one_table() {
    forbid(
        ALL,
        &[
            "trait FaultSource",
            "trait StoreSink",
            "trait RelationSink",
            "set_fault_source",
            "fn set_sink",
        ],
    );
    forbid(
        &["crates/storage/src/relations.rs"],
        &["RwLock", "HandleMap", "shards"],
    );
}

/// Every knob has a caller, and a node has one eviction planner:
/// `plan_eviction` frees what the durable log holds at depth 0, so a
/// second, recipe-blind eviction policy (the spill watermark, its
/// counter and event) is not needed. That policy, or an option no
/// workload sets (sampled tracing, diurnal arrivals, admission
/// headroom, a per-client task cost), coming back fails nothing else —
/// forbid the names.
#[test]
fn every_knob_has_a_caller() {
    forbid(
        ALL,
        &[
            "spill_watermark",
            "SAMPLE_EVERY",
            "TracingMode::Sampled",
            "sampled_out",
            "Diurnal",
            "headroom_us",
            "fn task_compute_us",
            "durable.spills",
            "DurEvict",
        ],
    );
}

/// One way to fail: the durable writer halts only on an I/O error,
/// which the crate's tests inject at every file call. A crash is a log
/// prefix, made offline by `tear_log`; an in-process kill point, or the
/// second halt state it fed, coming back fails nothing else — forbid
/// the names.
#[test]
fn one_way_to_fail() {
    forbid(ALL, &["KillPoint", "KillMode", "fn crashed", ".crashed()"]);
}

/// Scheduler state is per runtime: pool worker `i` owns deque slot
/// `i`, every other thread shares the runtime's one external slot, and
/// the slot is passed down from the entry point. A thread-local or a
/// static atomic under the scheduler would let a slot outlive its
/// runtime or leak into another, failing nothing else — forbid them,
/// and the names of the process-wide slot table they replaced.
#[test]
fn scheduler_state_is_per_runtime() {
    let names = [
        "thread_local!",
        r"\bSLOTS\b",
        r"\bHOME_SLOT\b",
        r"\bNEXT_EXTERNAL_SLOT\b",
        r"\bpin_slot\b",
        r"\bcurrent_slot\b",
    ];
    let hits = found(&["crates/runtime/src/scheduler"], |line| {
        let text = &line.text;
        let static_atomic = text
            .find("static ")
            .is_some_and(|at| text[at + "static ".len()..].contains("Atomic"));
        static_atomic || names.iter().any(|p| holds(text, p))
    });
    assert!(hits.is_empty(), "process-wide scheduler state: {hits:#?}");
}

/// A ticket is waited on or dropped: the serving kernel expires a
/// request on its own virtual clock before submitting it, so the
/// scheduler keeps no second deadline clock, and dropping a ticket is
/// its cancellation. A submission deadline, the clock behind it, or the
/// polling, multiplexing and explicit-cancel surface that only tests
/// called coming back fails nothing else — forbid them.
#[test]
fn a_ticket_is_waited_on_or_dropped() {
    forbid(
        ALL,
        &[
            "with_deadline",
            "virtual_now",
            "advance_virtual_clock",
            "advance_clock",
            "DeadlineExceeded",
            "SchedExpire",
            "wait_any",
            r"take_result\b",
            r"take_results\b",
            "try_take",
            "advance_batch",
            "WAIT_ANY_TICK",
        ],
    );
    forbid(
        &["crates/core/src/ticket.rs"],
        &[r"pub fn poll\b", r"pub fn cancel\b"],
    );
}

/// One tiered queue: request priority is decided once, by the serving
/// kernel's `TenantQueues` on its virtual clock, and lives in
/// `fix-serve` beside `SloClass`. The node scheduler's run queue has
/// one deque per slot and a job has at most one token in it. A
/// submission priority or scheduler tiers coming back fails nothing
/// else — forbid the names where they lived.
#[test]
fn one_tiered_queue() {
    forbid(
        &["crates/core/src", "crates/runtime/src"],
        &[r"\bPriority\b", "with_priority", "TokenVerdict"],
    );
}

/// A dropped ticket lets go: cancelling is one claim per slot, and
/// whether queued work runs is decided once, when its token is popped.
/// A cancel error nobody can read, a revocation that chases a slot's
/// moving stage, or the job map's second count of its watchers and its
/// withdrawn state coming back fails nothing else — forbid the names.
#[test]
fn a_dropped_ticket_lets_go() {
    forbid(
        ALL,
        &[
            r"\bCancelled\b",
            "fn revoke_slot",
            "set_stage",
            "fn unclaimed",
        ],
    );
    let scheduler = "crates/runtime/src/scheduler";
    let modules: Vec<String> = entries(scheduler)
        .into_iter()
        .filter(|name| name.ends_with(".rs"))
        .map(|name| format!("{scheduler}/{name}"))
        .collect();
    forbid(
        &modules,
        &[r"\binterest\b", "queued: bool", "Option<JobState>"],
    );
}

/// One payload key: a handle's kind byte is stripped in one place,
/// `fix_core::handle::payload_key`, which owns the byte layout. A
/// private copy coming back fails nothing else — forbid it.
#[test]
fn one_payload_key() {
    let hits = found(&["crates"], |line| {
        line.path.ends_with(".rs")
            && line.path != "crates/core/src/handle.rs"
            && line.text.contains("key[30]")
    });
    assert!(hits.is_empty(), "a private payload key: {hits:#?}");
}

/// Unsafe is a CPU dispatch: the two integrity kernels (the log's
/// folded CRC-32, BLAKE3's row compression) are safe code under
/// `#[target_feature]`, and calling one after runtime detection is the
/// only `unsafe` in library code — one `allow` in each of the two
/// crates, whose roots `deny` it; every other library crate `forbid`s
/// it. An `unsafe` anywhere else fails nothing else, so count the sites
/// and the roots.
#[test]
fn unsafe_is_a_cpu_dispatch() {
    let mut srcs: Vec<String> = entries("crates")
        .into_iter()
        .map(|name| format!("crates/{name}/src"))
        .filter(|src| root().join(src).is_dir())
        .collect();
    srcs.push("src".into());

    let mut allows: Vec<String> = found(&srcs, |line| line.text.contains("allow(unsafe_code)"))
        .into_iter()
        .map(|line| line.path)
        .collect();
    allows.sort();
    assert_eq!(
        allows,
        ["crates/durable/src/frame.rs", "crates/hash/src/compress.rs"],
        "an `allow(unsafe_code)` moved, or a third appeared"
    );

    for src in &srcs {
        let Ok(text) = fs::read_to_string(root().join(src).join("lib.rs")) else {
            continue;
        };
        let lint = match src.as_str() {
            "crates/hash/src" | "crates/durable/src" => "#![deny(unsafe_code)]",
            _ => "#![forbid(unsafe_code)]",
        };
        assert!(
            text.lines().any(|line| line.starts_with(lint)),
            "{src}/lib.rs: unsafe_code lint changed (want {lint})"
        );
    }
}

/// One fuzz kit: the hostile-bytes suites share
/// `tests/support/hostile.rs` — its counting allocator, generator,
/// byte mutators and panic-catching runner — and keep only their seeds,
/// oracles and format-aware mutations. A suite growing a private copy
/// back fails nothing else, so count the definitions. (fixbench's own
/// counting allocator is outside these trees and frozen with the
/// benchmark.)
#[test]
fn one_fuzz_kit() {
    for name in ["GlobalAlloc for", "struct Rng"] {
        let sites: Vec<String> = found(&["crates", "tests"], |line| {
            line.path.ends_with(".rs") && line.text.contains(name)
        })
        .into_iter()
        .map(|line| line.path)
        .collect();
        assert_eq!(
            sites,
            ["tests/support/hostile.rs"],
            "`{name}` must be defined once, in the fuzz kit"
        );
    }
}

/// A logged object has one name and one entry: its payload key in the
/// node's table, `fix_storage::Store`, which keeps the object's location
/// in the log beside its bytes. The durable tier keeps no index of its
/// own, no slot copying the handle, and no key-keyed map in its store;
/// the backing-tier hook has no `knows`.
#[test]
fn one_name_per_object() {
    forbid(
        &["crates/durable/src", "crates/storage/src"],
        &[
            r"struct Index\b",
            r"struct Slot\b",
            r"fn knows\b",
            r"fn indexed\b",
        ],
    );
    forbid(&["crates/durable/src/store.rs"], &["HandleMap<[u8; 32]"]);
}

/// One footprint rule: `fix_storage::footprint` reads the node's table
/// directly, and the cluster client's tasks read their inputs and
/// dependencies off it — the rule the runtime and every `Evaluator`
/// share. A definition-tree walk of the derivation's own (the frame's
/// entry list and its selection-only flag), a trait the rule reaches
/// the table through (a data source, an encode resolver, their test
/// fakes) or a batch form of the rule coming back fails nothing else —
/// forbid them all.
#[test]
fn one_footprint_rule() {
    forbid(
        &["crates/cluster/src"],
        &["thunks_are_deps", "entries: Vec<Handle>"],
    );
    forbid(
        ALL,
        &[
            r"trait DataSource\b",
            r"trait EncodeResolver\b",
            r"\bMapSource\b",
            r"\bNoResolution\b",
            r"fn footprint_many\b",
        ],
    );
}

/// One launch pass: the engine walks an application's tree once per
/// step, splicing each resolved Encode and listing the jobs of the
/// unresolved ones, and an Encode's value has one rule,
/// `fix_storage::resolution`. A separate list of the encodes to wait on,
/// a second walk that rewrites the tree, or the engine's own copy of the
/// rule coming back fails nothing else (the step pins count steps, not
/// walks) — forbid all three.
#[test]
fn one_launch_pass() {
    forbid(
        &["crates", "src", "tests", "examples"],
        &[
            r"\bcollect_encodes\b",
            "fn substitute",
            r"\bresolved_or_dep\b",
        ],
    );
}

/// One serving crate: `serve`, `adaptive_serve` and `dispatch` live
/// beside their kernel in `fix-serve`. `fix-adapt` and `fix-dispatch`
/// stay only as one-file shells of re-exports, for dependents that
/// still name them (through the umbrella's `adapt` and `dispatch`). A
/// caller naming a shell, or code growing back in one, fails nothing
/// else — forbid both.
#[test]
fn one_serving_crate() {
    let shells = ["crates/adapt", "crates/dispatch"];
    let names = [
        "fix_adapt",
        "fix_dispatch",
        "fix-adapt",
        "fix-dispatch",
        "fix::adapt",
        "fix::dispatch",
    ];
    let hits = found(ALL, |line| {
        let exempt = shells.iter().any(|s| line.path.starts_with(s))
            || line.path == "src/lib.rs"
            || line.path.ends_with("Cargo.toml");
        !exempt && names.iter().any(|name| line.text.contains(name))
    });
    assert!(hits.is_empty(), "a caller names a shell crate: {hits:#?}");
    for shell in shells {
        assert_eq!(entries(&format!("{shell}/src")), ["lib.rs"], "{shell}");
    }
    let srcs: Vec<String> = shells.iter().map(|s| format!("{s}/src")).collect();
    forbid(
        &srcs,
        &[
            r"\bfn\b",
            r"\bstruct\b",
            r"\benum\b",
            r"\bimpl\b",
            "#[test]",
        ],
    );
}

/// Every example teaches what no figure prints: an experiment that a
/// `figures` table or a test already runs has one program, the pinned
/// one, and no unpinned copy in `examples/` kept in step by hand. Each
/// walkthrough is listed with what only it shows; a file the list does
/// not name, or a listed one gone, fails.
#[test]
fn every_example_teaches_what_no_figure_prints() {
    /// (file, what it teaches), in name order.
    const WALKTHROUGHS: &[(&str, &str)] = &[
        (
            "compile_farm.rs",
            "§5.5's real compile and link; the only caller of `build_project_fix`",
        ),
        (
            "lazy_filesystem.rs",
            "Fig. 4: `get-file` descends a directory, one inode blob per step",
        ),
        (
            "linked_list.rs",
            "Listings 2–3; the only caller of `fixpoint::cps`'s stepper API",
        ),
        (
            "quickstart.rs",
            "the programming model, one program on the runtime and the cluster",
        ),
        (
            "sebs_port.rs",
            "§5.6: SeBS functions ported through Flatware's argv and files",
        ),
    ];
    let listed: Vec<&str> = WALKTHROUGHS.iter().map(|&(file, _)| file).collect();
    assert_eq!(
        entries("examples"),
        listed,
        "examples/ must hold exactly the listed walkthroughs"
    );
}

/// One bench harness: a bench is a `fn main` that prints its medians
/// (`harness = false`), and a row that a `figures` table or a fixbench
/// metric already times is not timed again. The deleted criterion shim
/// coming back, a file naming it, or a bench left to the default
/// harness (a `[[bench]]` without `harness = false`, or a
/// `benches/*.rs` no `[[bench]]` names) fails nothing else.
#[test]
fn one_bench_harness() {
    forbid(&[ALL, &["Cargo.toml"]].concat(), &["criterion"]);
    assert!(
        !root().join("shims/criterion").exists(),
        "the criterion shim is back"
    );
    let manifest = fs::read_to_string(root().join("crates/bench/Cargo.toml")).unwrap();
    let mut declared = Vec::new();
    for bench in manifest
        .split("\n[")
        .filter_map(|s| s.strip_prefix("[bench]]"))
    {
        let name = bench
            .lines()
            .find_map(|line| line.strip_prefix("name = "))
            .expect("a [[bench]] has a name")
            .trim_matches('"');
        assert!(
            bench.lines().any(|line| line == "harness = false"),
            "bench `{name}` runs on the default harness"
        );
        declared.push(format!("{name}.rs"));
    }
    declared.sort();
    let files: Vec<String> = entries("crates/bench/benches")
        .into_iter()
        .filter(|name| name.ends_with(".rs"))
        .collect();
    assert_eq!(files, declared, "every bench file is a [[bench]]");
}

/// Every public function has a caller: each `pub fn NAME` in a `*.rs`
/// file under `crates/*/src` is called in some `*.rs` file under the
/// code, tests and examples, or fixbench's sources, that defines no
/// `pub fn NAME` itself (a test, bench, example or doctest elsewhere
/// counts). A file calls `NAME` where it writes `NAME(` or `NAME::<`
/// (a call, not a definition `fn NAME(`) or `::NAME` (a path), outside
/// a `use` statement and a plain `//` comment (a doc comment's doctest
/// counts): a re-export, a field or local of the same name, or a
/// commented-out call is no caller. A function only its own file calls is private,
/// and one that nothing calls is deleted, unless `EXEMPT` gives the
/// reason it stays. Each file is read once, into the set of names it
/// calls.
#[test]
fn every_pub_fn_has_a_caller() {
    /// (file, function, why it stays public with no caller elsewhere).
    const EXEMPT: &[(&str, &str, &str)] = &[(
        "crates/netsim/src/lib.rs",
        "node_stats",
        "documented API: the crate doctest reads a node's counters with it",
    )];
    let mut files = Vec::new();
    for tree in ALL.iter().chain(&["fixbench/src"]) {
        walk(tree.to_string(), &mut files);
    }
    let texts: Vec<(String, String)> = files
        .into_iter()
        .filter(|path| path.ends_with(".rs") && path != GUARDS)
        .map(|path| (fs::read_to_string(root().join(&path)).unwrap(), path))
        .collect();
    // Names are ASCII: any other byte ends a word.
    let not_name = |b: &u8| !(b.is_ascii_alphanumeric() || *b == b'_');
    let calls: Vec<std::collections::HashSet<&[u8]>> = texts
        .iter()
        .map(|(text, _)| {
            let mut called = std::collections::HashSet::new();
            let mut in_use = false;
            for line in text.lines() {
                let code = line.trim_start();
                let doc = code.starts_with("///") || code.starts_with("//!");
                if code.starts_with("//") && !doc {
                    continue;
                }
                in_use |= ["use ", "pub use ", "pub(crate) use "]
                    .iter()
                    .any(|head| code.starts_with(head));
                if in_use {
                    in_use = !line.contains(';');
                    continue;
                }
                let line = line.as_bytes();
                let mut at = 0;
                for word in line.split(not_name) {
                    let (head, tail) = (&line[..at], &line[at + word.len()..]);
                    at += word.len() + 1;
                    let call = (tail.starts_with(b"(") && !head.ends_with(b"fn "))
                        || tail.starts_with(b"::<")
                        || head.ends_with(b"::");
                    if !word.is_empty() && call {
                        called.insert(word);
                    }
                }
            }
            called
        })
        .collect();
    // The files that define a `pub fn` of each name.
    let mut defining = std::collections::BTreeMap::<&str, Vec<&str>>::new();
    for (text, path) in &texts {
        if !(path.starts_with("crates/") && path.contains("/src/")) {
            continue;
        }
        for (at, head) in text.match_indices("pub fn ") {
            let rest = &text[at + head.len()..];
            let len = rest
                .bytes()
                .position(|b| not_name(&b))
                .unwrap_or(rest.len());
            let paths = defining.entry(&rest[..len]).or_default();
            if !paths.contains(&path.as_str()) {
                paths.push(path);
            }
        }
    }
    // A caller is a file that calls the function and defines none of
    // that name: two functions of one name do not vouch for each other.
    let uncalled: Vec<(&str, &str)> = defining
        .iter()
        .filter(|(name, paths)| {
            !texts.iter().zip(&calls).any(|((_, path), called)| {
                !paths.contains(&path.as_str()) && called.contains(name.as_bytes())
            })
        })
        .flat_map(|(name, paths)| paths.iter().map(move |path| (*path, *name)))
        .collect();
    let exempt: Vec<(&str, &str)> = EXEMPT.iter().map(|&(path, name, _)| (path, name)).collect();
    let missing: Vec<_> = uncalled.iter().filter(|f| !exempt.contains(f)).collect();
    assert!(
        missing.is_empty(),
        "a pub fn nothing else calls: {missing:#?}"
    );
    let stale: Vec<_> = exempt.iter().filter(|f| !uncalled.contains(f)).collect();
    assert!(stale.is_empty(), "exempt, but called elsewhere: {stale:#?}");
}
