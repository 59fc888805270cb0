//! A key-value store as an on-Fix B+ tree (paper §5.4, Fig. 9, Table 2).
//!
//! Each node is a Fix Tree `[keys-blob, entry_1, ..., entry_k]`: leaves
//! hold value Refs, internal nodes hold child Refs, and the keys blob
//! carries a node-type flag plus the (length-prefixed) keys — for
//! internal nodes, the *maximum key* of each child's subtree.
//!
//! Because children and values are Refs selected by *pinpoint*
//! Selection thunks, a lookup's data footprint per level is just one
//! keys blob (`O(a · key size)`), not the whole node — the property
//! Table 2 credits for Fix's advantage at fine granularity.

use fix_core::api::{Evaluator, InvocationApi, ObjectApi};
use fix_core::data::{Blob, Tree};
use fix_core::error::{Error, Result};
use fix_core::handle::{EncodeStyle, Handle};
use fix_core::invocation::{Invocation, Selection};
use fix_core::limits::ResourceLimits;
use fix_storage::Store;
use std::sync::Arc;

/// The parsed keys blob of one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeKeys {
    /// True for leaves (entries are values), false for internal nodes
    /// (entries are children and keys are subtree maxima).
    pub is_leaf: bool,
    /// The keys, in order.
    pub keys: Vec<String>,
}

impl NodeKeys {
    /// Serializes to the canonical keys-blob format.
    pub fn to_blob(&self) -> Blob {
        let mut out = Vec::new();
        out.push(if self.is_leaf { 0 } else { 1 });
        out.extend_from_slice(&(self.keys.len() as u32).to_le_bytes());
        for k in &self.keys {
            out.extend_from_slice(&(k.len() as u16).to_le_bytes());
            out.extend_from_slice(k.as_bytes());
        }
        Blob::from_vec(out)
    }

    /// Parses a keys blob.
    pub fn from_blob(blob: &Blob) -> Result<NodeKeys> {
        let data = blob.as_slice();
        let fail = |r: &str| Error::Trap(format!("malformed b+tree keys blob: {r}"));
        if data.len() < 5 {
            return Err(fail("too short"));
        }
        let is_leaf = match data[0] {
            0 => true,
            1 => false,
            _ => return Err(fail("bad node flag")),
        };
        let count = u32::from_le_bytes([data[1], data[2], data[3], data[4]]) as usize;
        let mut pos = 5;
        let mut keys = Vec::with_capacity(count);
        for _ in 0..count {
            if pos + 2 > data.len() {
                return Err(fail("truncated key length"));
            }
            let len = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
            pos += 2;
            if pos + len > data.len() {
                return Err(fail("truncated key"));
            }
            keys.push(
                String::from_utf8(data[pos..pos + len].to_vec())
                    .map_err(|_| fail("key not UTF-8"))?,
            );
            pos += len;
        }
        Ok(NodeKeys { is_leaf, keys })
    }
}

/// A built B+ tree: the root handle plus shape metadata.
#[derive(Debug, Clone)]
pub struct BPlusTree {
    /// Root node tree (accessible handle).
    pub root: Handle,
    /// Maximum children per node.
    pub arity: usize,
    /// Number of levels (1 = root is a leaf).
    pub depth: usize,
    /// Number of keys.
    pub len: usize,
}

/// Bulk-loads a B+ tree from sorted `(key, value)` pairs.
///
/// # Panics
///
/// Panics if `arity < 2` or the keys are not strictly sorted (builder
/// misuse is a programming error).
pub fn build(store: &Store, pairs: &[(String, Vec<u8>)], arity: usize) -> BPlusTree {
    assert!(arity >= 2, "arity must be at least 2");
    assert!(
        pairs.windows(2).all(|w| w[0].0 < w[1].0),
        "keys must be strictly sorted"
    );
    assert!(!pairs.is_empty(), "tree must not be empty");

    // Build the leaf layer: (max_key, node_handle).
    let mut layer: Vec<(String, Handle)> = pairs
        .chunks(arity)
        .map(|chunk| {
            let keys = NodeKeys {
                is_leaf: true,
                keys: chunk.iter().map(|(k, _)| k.clone()).collect(),
            };
            let mut slots = vec![store.put_blob(keys.to_blob())];
            for (_, v) in chunk {
                slots.push(store.put_blob(Blob::from_slice(v)).as_ref_handle());
            }
            let node = store.put_tree(Tree::from_handles(slots));
            // invariant: `chunks` yields no empty chunk.
            (chunk.last().expect("nonempty chunk").0.clone(), node)
        })
        .collect();

    let mut depth = 1;
    while layer.len() > 1 {
        depth += 1;
        layer = layer
            .chunks(arity)
            .map(|chunk| {
                let keys = NodeKeys {
                    is_leaf: false,
                    keys: chunk.iter().map(|(k, _)| k.clone()).collect(),
                };
                let mut slots = vec![store.put_blob(keys.to_blob())];
                for (_, child) in chunk {
                    slots.push(child.as_ref_handle());
                }
                let node = store.put_tree(Tree::from_handles(slots));
                // invariant: `chunks` yields no empty chunk.
                (chunk.last().expect("nonempty chunk").0.clone(), node)
            })
            .collect();
    }
    BPlusTree {
        root: layer[0].1,
        arity,
        depth,
        len: pairs.len(),
    }
}

/// Statistics from a trusted lookup (the "data accessed" column).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookupStats {
    /// Nodes visited (= levels traversed).
    pub nodes_visited: u64,
    /// Bytes of keys blobs read.
    pub key_bytes_read: u64,
}

/// Slot `i` of the tree `t` stored under `handle`: a B+-tree node's keys
/// blob (slot 0) and its values or children, or a lookup call's inputs.
/// A tree too short to hold it is malformed, not a reason to panic.
fn slot(handle: Handle, t: &Tree, i: usize, what: &str) -> Result<Handle> {
    t.get(i).ok_or_else(|| Error::MalformedTree {
        handle,
        reason: format!("no {what} at slot {i}"),
    })
}

/// Trusted (runtime-side) lookup, for oracles and stats.
pub fn lookup_trusted(
    store: &Store,
    tree: &BPlusTree,
    key: &str,
) -> Result<(Option<Vec<u8>>, LookupStats)> {
    let mut stats = LookupStats::default();
    let mut node = tree.root;
    loop {
        let t = store.get_tree(node)?;
        let keys_blob = store.get_blob(slot(node, &t, 0, "keys blob")?)?;
        stats.nodes_visited += 1;
        stats.key_bytes_read += keys_blob.len() as u64;
        let keys = NodeKeys::from_blob(&keys_blob)?;
        if keys.is_leaf {
            return Ok(match keys.keys.iter().position(|k| k == key) {
                Some(i) => {
                    let v = store.get_blob(slot(node, &t, i + 1, "value")?)?;
                    (Some(v.as_slice().to_vec()), stats)
                }
                None => (None, stats),
            });
        }
        // First child whose subtree maximum is >= key.
        let idx = match keys.keys.iter().position(|max| key <= max.as_str()) {
            Some(i) => i,
            None => return Ok((None, stats)), // Beyond the largest key.
        };
        node = slot(node, &t, idx + 1, "child")?.as_object_handle();
    }
}

/// Registers the Fix-level lookup codelet (continuation-passing, one
/// node per invocation — the paper's fine-grained decomposition).
///
/// Input: `[rlimits, proc, key, keys-blob, node]` where `keys-blob` is
/// accessible and `node` is (typically) a TreeRef.
pub fn register_lookup<R: InvocationApi>(rt: &R) -> Handle {
    rt.register_native(
        "bptree/lookup",
        Arc::new(|ctx| {
            let input = ctx.input_tree()?;
            let rlimit = slot(ctx.input, &input, 0, "limits")?;
            let self_proc = slot(ctx.input, &input, 1, "procedure")?;
            let key_blob = ctx.arg_blob(0)?;
            let keys_blob = ctx.arg_blob(1)?;
            let node = ctx.arg(2)?;
            let key = String::from_utf8(key_blob.as_slice().to_vec())
                .map_err(|_| Error::Trap("key not UTF-8".into()))?;
            let keys = NodeKeys::from_blob(&keys_blob)?;

            if keys.is_leaf {
                let i = keys
                    .keys
                    .iter()
                    .position(|k| *k == key)
                    .ok_or_else(|| Error::Trap(format!("key '{key}' not found")))?;
                // The value, as a pinpoint selection — never fetched here.
                let sel = Selection::index(node, i as u64 + 1).to_tree();
                let sel_h = ctx.host.create_tree(sel.entries().to_vec())?;
                return sel_h.selection();
            }

            let i = keys
                .keys
                .iter()
                .position(|max| key <= *max)
                .ok_or_else(|| Error::Trap(format!("key '{key}' not found")))?;
            let child_sel = Selection::index(node, i as u64 + 1).to_tree();
            let child = ctx
                .host
                .create_tree(child_sel.entries().to_vec())?
                .selection()?;
            // The child's keys blob is needed next (strict); the child
            // node itself stays a Ref (shallow).
            let keys_sel = Selection::index(child, 0).to_tree();
            let x0 = ctx
                .host
                .create_tree(keys_sel.entries().to_vec())?
                .selection()?
                .encode(EncodeStyle::Strict)?;
            let x1 = child.encode(EncodeStyle::Shallow)?;
            let key_h = slot(ctx.input, &input, 2, "key")?;
            let next = ctx
                .host
                .create_tree(vec![rlimit, self_proc, key_h, x0, x1])?;
            next.application()
        }),
    )
}

/// Looks up `key` through the Fix-level codelet; returns the value blob
/// handle.
pub fn lookup_fix<R: ObjectApi + Evaluator>(
    rt: &R,
    proc_h: Handle,
    tree: &BPlusTree,
    key: &str,
) -> Result<Handle> {
    let root_tree = rt.get_tree(tree.root)?;
    let keys_blob = slot(tree.root, &root_tree, 0, "keys blob")?;
    let inv = Invocation {
        limits: ResourceLimits::default_limits(),
        procedure: proc_h,
        args: vec![
            rt.put_blob(Blob::from_slice(key.as_bytes())),
            keys_blob,
            tree.root.as_ref_handle(),
        ],
    };
    let t = rt.put_tree(inv.to_tree());
    rt.eval(t.application()?)
}

// ----------------------------------------------------------------------
// Table 2 analytics and the Fig. 9 cost model.
// ----------------------------------------------------------------------

/// One row of the paper's Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// System name.
    pub system: &'static str,
    /// Function invocations per lookup.
    pub invocations: u64,
    /// Bytes accessed per lookup.
    pub data_accessed: u64,
    /// Maximum memory footprint in bytes.
    pub memory_footprint: u64,
}

/// The tree depth for `n` keys at `arity` (≥ 1).
pub fn depth_for(arity: usize, n: usize) -> u32 {
    let mut depth = 1u32;
    let mut capacity = arity as u128;
    while capacity < n as u128 {
        capacity *= arity as u128;
        depth += 1;
    }
    depth
}

/// Computes Table 2 for the given shape (sizes in bytes).
///
/// Formulas from the paper: per level, Fixpoint accesses only the keys
/// array (`a · key`); Ray accesses the keys array *and* the entry array
/// (`a · (key + entry)`); blocking Ray additionally accumulates every
/// level in memory.
pub fn table2(arity: u64, depth: u64, key_size: u64, entry_size: u64) -> Vec<Table2Row> {
    vec![
        Table2Row {
            system: "Fixpoint",
            invocations: depth,
            data_accessed: arity * depth * key_size,
            memory_footprint: arity * key_size,
        },
        Table2Row {
            system: "Ray (Continuation Passing)",
            invocations: 2 * depth,
            data_accessed: arity * depth * (key_size + entry_size),
            memory_footprint: arity * (key_size + entry_size),
        },
        Table2Row {
            system: "Ray (Blocking)",
            invocations: 1,
            data_accessed: arity * depth * (key_size + entry_size),
            memory_footprint: arity * depth * (key_size + entry_size),
        },
    ]
}

/// Closed-form Fig. 9 time model for one lookup, in µs.
///
/// Single-node execution: time = invocations × per-invocation overhead +
/// data accessed / load bandwidth (deserialization/scan). The overheads
/// come from the calibrated `fix-baselines`-style cost model; the
/// bandwidth default (100 MB/s) approximates Python-side
/// deserialization, documented in EXPERIMENTS.md.
pub fn fig9_time_us(
    invocations: u64,
    data_accessed: u64,
    per_invocation_us: u64,
    load_bandwidth_bytes_per_s: u64,
) -> u64 {
    invocations * per_invocation_us
        + (data_accessed as u128 * 1_000_000 / load_bandwidth_bytes_per_s.max(1) as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::titles::generate_sorted_titles;
    use fixpoint::Runtime;

    fn sample_tree(n: usize, arity: usize) -> (Runtime, BPlusTree, Vec<String>) {
        let rt = Runtime::builder().build();
        let titles = generate_sorted_titles(11, n);
        let pairs: Vec<(String, Vec<u8>)> = titles
            .iter()
            .map(|t| (t.clone(), format!("value-of-{t}").into_bytes()))
            .collect();
        let tree = build(rt.store(), &pairs, arity);
        (rt, tree, titles)
    }

    #[test]
    fn keys_blob_round_trip() {
        let keys = NodeKeys {
            is_leaf: false,
            keys: vec!["alpha".into(), "beta".into()],
        };
        assert_eq!(NodeKeys::from_blob(&keys.to_blob()).unwrap(), keys);
    }

    #[test]
    fn depth_matches_formula() {
        let (_, tree, _) = sample_tree(1000, 10);
        assert_eq!(tree.depth as u32, depth_for(10, 1000));
        assert_eq!(depth_for(10, 1000), 3);
        assert_eq!(depth_for(1 << 24, 1000), 1);
        assert_eq!(depth_for(2, 1024), 10);
    }

    #[test]
    fn trusted_lookup_agrees_with_oracle() {
        let (rt, tree, titles) = sample_tree(500, 8);
        for key in titles.iter().step_by(37) {
            let (v, _) = lookup_trusted(rt.store(), &tree, key).unwrap();
            assert_eq!(v.unwrap(), format!("value-of-{key}").into_bytes());
        }
        let (missing, _) = lookup_trusted(rt.store(), &tree, "ZZZZ_no_such_key").unwrap();
        assert!(missing.is_none());
    }

    #[test]
    fn fix_level_lookup_returns_values() {
        let (rt, tree, titles) = sample_tree(300, 4);
        let proc_h = register_lookup(&rt);
        for key in titles.iter().step_by(61) {
            let h = lookup_fix(&rt, proc_h, &tree, key).unwrap();
            let v = rt.get_blob(h).unwrap();
            assert_eq!(v.as_slice(), format!("value-of-{key}").as_bytes());
        }
    }

    /// A node tree short of the slots its keys blob promises is a
    /// malformed tree: both lookups return `Err`, neither panics.
    #[test]
    fn lookups_in_a_malformed_tree_are_errors() {
        let rt = Runtime::builder().build();
        let store = rt.store();
        let tree = |root| BPlusTree {
            root,
            arity: 2,
            depth: 1,
            len: 2,
        };
        let no_keys = tree(store.put_tree(Tree::from_handles(vec![])));
        assert!(lookup_trusted(store, &no_keys, "a").is_err());
        let proc_h = register_lookup(&rt);
        assert!(lookup_fix(&rt, proc_h, &no_keys, "a").is_err());

        // Two keys, one value; two maxima, one child.
        for is_leaf in [true, false] {
            let keys = NodeKeys {
                is_leaf,
                keys: vec!["a".into(), "b".into()],
            };
            let one = store.put_blob(Blob::from_slice(b"only one"));
            let short = store.put_tree(Tree::from_handles(vec![
                store.put_blob(keys.to_blob()),
                one.as_ref_handle(),
            ]));
            let err = lookup_trusted(store, &tree(short), "b").unwrap_err();
            assert!(matches!(err, Error::MalformedTree { .. }), "{err}");
        }
    }

    #[test]
    fn fix_level_lookup_missing_key_errors() {
        let (rt, tree, _) = sample_tree(100, 4);
        let proc_h = register_lookup(&rt);
        let err = lookup_fix(&rt, proc_h, &tree, "AAAA_before_everything").unwrap_err();
        assert!(err.to_string().contains("not found"), "{err}");
    }

    #[test]
    fn invocations_scale_with_depth() {
        let (rt, tree, titles) = sample_tree(256, 4);
        assert_eq!(tree.depth, 4); // 4^4 = 256.
        let proc_h = register_lookup(&rt);
        let before = rt.procedures_run();
        lookup_fix(&rt, proc_h, &tree, &titles[123]).unwrap();
        let after = rt.procedures_run();
        // One invocation per level (the paper's `d`).
        assert_eq!(after - before, tree.depth as u64);
    }

    #[test]
    fn data_accessed_shrinks_with_arity() {
        // The heart of Fig. 9: smaller arity => smaller keys blobs read.
        let (rt_hi, hi, titles) = sample_tree(4096, 4096); // Flat.
        let (rt_lo, lo, _) = sample_tree(4096, 8);
        let key = &titles[2048];
        let (_, s_hi) = lookup_trusted(rt_hi.store(), &hi, key).unwrap();
        let (_, s_lo) = lookup_trusted(rt_lo.store(), &lo, key).unwrap();
        assert!(s_hi.key_bytes_read > 8 * s_lo.key_bytes_read);
        assert!(s_lo.nodes_visited > s_hi.nodes_visited);
    }

    #[test]
    fn table2_shape() {
        let rows = table2(256, 3, 22, 32);
        assert_eq!(rows[0].invocations, 3);
        assert_eq!(rows[1].invocations, 6);
        assert_eq!(rows[2].invocations, 1);
        // Fix accesses less data than either Ray style.
        assert!(rows[0].data_accessed < rows[1].data_accessed);
        assert_eq!(rows[1].data_accessed, rows[2].data_accessed);
        // Blocking Ray's footprint accumulates across levels.
        assert!(rows[2].memory_footprint > rows[1].memory_footprint);
    }

    #[test]
    fn fig9_model_reproduces_crossover() {
        // As arity decreases, Ray CPS worsens (invocations × 1.29 ms
        // dominates) while Fix improves (less data): the paper's Fig. 9.
        let n = 6_000_000u64;
        let (key, entry, bw) = (22u64, 32u64, 100_000_000u64);
        let mut last_fix = u64::MAX;
        for log_a in [24u32, 12, 10, 8] {
            let a = 1u64 << log_a;
            let d = depth_for(a as usize, n as usize) as u64;
            let fix = fig9_time_us(d, a * d * key, 2, bw);
            let cps = fig9_time_us(2 * d, a * d * (key + entry), 1290, bw);
            assert!(fix < cps, "fix {fix} vs cps {cps} at arity 2^{log_a}");
            assert!(fix <= last_fix, "fix should improve as arity shrinks");
            last_fix = fix;
        }
        // At tiny arity, CPS is dominated by invocation count and loses
        // even to blocking Ray — the paper's observation.
        let a = 64u64;
        let d = depth_for(64, n as usize) as u64;
        let cps = fig9_time_us(2 * d, a * d * (key + entry), 1290, bw);
        let blocking = fig9_time_us(1, a * d * (key + entry), 1290, bw);
        assert!(blocking < cps);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::gen::{check, LOWER};
    use fixpoint::Runtime;
    use std::collections::BTreeMap;

    /// The on-Fix B+ tree agrees with a `BTreeMap` oracle for any
    /// key set, arity, and probe pattern — both the trusted walk
    /// and the Fix-level continuation-passing codelet.
    #[test]
    fn lookups_match_btreemap_oracle() {
        check("lookups_match_btreemap_oracle", 16, |rng| {
            let keys = rng.set(2..80, |rng| rng.string(LOWER, 1..13));
            let arity = rng.range(2usize..16);
            let probes = rng.vec(1..8, |rng| rng.next() as u16);
            let rt = Runtime::builder().build();
            let keys: Vec<String> = keys.into_iter().collect();
            let pairs: Vec<(String, Vec<u8>)> = keys
                .iter()
                .map(|k| (k.clone(), format!("V:{k}").into_bytes()))
                .collect();
            let oracle: BTreeMap<&str, &[u8]> = pairs
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_slice()))
                .collect();
            let tree = build(rt.store(), &pairs, arity);
            assert_eq!(tree.depth as u32, depth_for(arity, keys.len()));

            for p in &probes {
                let k = &keys[*p as usize % keys.len()];
                let (v, stats) = lookup_trusted(rt.store(), &tree, k).unwrap();
                assert_eq!(v.as_deref(), oracle.get(k.as_str()).copied());
                assert_eq!(stats.nodes_visited, tree.depth as u64);
            }
            // Keys outside the set are absent ('0' sorts before 'a').
            let (missing, _) = lookup_trusted(rt.store(), &tree, "0absent").unwrap();
            assert!(missing.is_none());
            let (beyond, _) = lookup_trusted(rt.store(), &tree, "zzzzzzzzzzzzz").unwrap();
            assert!(beyond.is_none());

            // The Fix-level codelet returns the same bytes.
            let proc_h = register_lookup(&rt);
            let k = &keys[probes[0] as usize % keys.len()];
            let h = lookup_fix(&rt, proc_h, &tree, k).unwrap();
            let got = rt.get_blob(h).unwrap();
            let expect = format!("V:{k}");
            assert_eq!(got.as_slice(), expect.as_bytes());
        });
    }

    /// Table-2 formulas hold structurally for any shape: Fix always
    /// accesses no more than either Ray style, and invocation counts
    /// follow `d` / `2d` / `1`.
    #[test]
    fn table2_orderings() {
        check("table2_orderings", 16, |rng| {
            let (arity, depth) = (rng.range(2u64..1_000_000), rng.range(1u64..12));
            let (key_size, entry_size) = (rng.range(1u64..100), rng.range(1u64..1_000));
            let rows = table2(arity, depth, key_size, entry_size);
            assert_eq!(rows[0].invocations, depth);
            assert_eq!(rows[1].invocations, 2 * depth);
            assert_eq!(rows[2].invocations, 1);
            assert!(rows[0].data_accessed <= rows[1].data_accessed);
            assert!(rows[0].memory_footprint <= rows[2].memory_footprint);
            assert_eq!(rows[1].data_accessed, rows[2].data_accessed);
        });
    }
}
