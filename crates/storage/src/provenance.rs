//! Computational garbage collection (paper §6), with recipes read from
//! the table's memoized relations: the node's one eviction planner.
//!
//! A node may drop any bytes it can bring back. There are two ways back:
//! a *fault*, for an object the backing tier (a durable log) holds
//! ([`Store::backed`]), and a *recipe*. Because Fix computations are
//! deterministic products of known dependencies, a provider that knows
//! the Thunk whose evaluation produced an object may delete its bytes
//! and recompute them on demand. The paper calls this "computational
//! 'garbage' collection" under "delayed-availability" storage: users
//! opt in, and the provider answers later reads within an SLA window by
//! re-running the recipe.
//!
//! The table's relations already name every recipe, so nothing else
//! records them:
//!
//! * [`recipes`] — the `object → recipe` map, derived afresh from the
//!   table's application and range-selection `Eval`s each time GC is
//!   asked for;
//! * [`plan_eviction`] — decides *which* resident objects can be
//!   soundly deleted: a backed object always (depth 0), any other only
//!   if everything its recipe needs stays resident, is a literal, is
//!   backed, or is recomputable (evicted, or a victim) at a strictly
//!   smaller depth — guaranteeing an acyclic recompute order.
//!
//! The recompute itself needs an evaluator, so it lives in the runtime
//! crate (`fixpoint::Runtime::materialize`).

use crate::relations::{resolved, Relation};
use crate::store::Store;
use fix_core::error::{Error, Result};
use fix_core::handle::{payload_key, Handle, HandleMap, HandleSet, Kind, ThunkKind};
use fix_core::invocation::Selection;

/// Every object `table` knows how to recompute, keyed by payload: the
/// object (canonical Object handle) and its recipe.
///
/// Two relations name a recipe:
///
/// * `Eval(h) → out` where `h` is an application — the recipe is `h`,
///   the procedure run that created the bytes. An application whose
///   `Apply(tree)` is a thunk made a tail call: its value came from the
///   callee, so its `Eval` is no recipe. The `Apply` is in the `Eval`'s
///   shard (a thunk and its tree share a payload key), so this is a
///   lookup beside it;
/// * `Eval(h) → out` where `h` is a *range* selection — the recipe is
///   `h`, the extraction that created the slice.
///
/// A log written when every application recorded `Apply(tree) → out`
/// beside its `Eval` still plans: an `Apply` with a data `out` names the
/// same recipe, `tree.application()`.
///
/// A single-index selection returns an entry of its own target (never
/// fresh bytes), so it is no recipe. Where several relations produce one
/// object, the recipe with the lowest handle bytes wins: the choice
/// never depends on map order.
pub fn recipes(table: &Store) -> HandleMap<[u8; 32], (Handle, Handle)> {
    let mut out: HandleMap<[u8; 32], (Handle, Handle)> = HandleMap::default();
    // A selection's tree is read after its shard's lock is released.
    let mut selections = Vec::new();
    table.scan_memos(|memos| {
        for (&(relation, input), &output) in memos {
            let recipe = match relation {
                Relation::Eval if input.kind() == Kind::Thunk(ThunkKind::Application) => {
                    let tail_call = |tree| {
                        memos
                            .get(&(Relation::Apply, tree))
                            .is_some_and(|raw| raw.is_thunk())
                    };
                    input
                        .thunk_definition()
                        .is_ok_and(|tree| !tail_call(tree))
                        .then_some(input)
                }
                Relation::Eval if input.kind() == Kind::Thunk(ThunkKind::Selection) => {
                    selections.push((input, output));
                    None
                }
                Relation::Apply => input.application().ok(),
                _ => None,
            };
            if let Some(recipe) = recipe {
                add_recipe(&mut out, recipe, output);
            }
        }
    });
    for (input, output) in selections {
        if is_range_selection(table, input) {
            add_recipe(&mut out, input, output);
        }
    }
    out
}

/// Files `recipe` as the way back to `output`, if `output` is stored
/// data other than the recipe itself and no lower recipe makes it.
fn add_recipe(out: &mut HandleMap<[u8; 32], (Handle, Handle)>, recipe: Handle, output: Handle) {
    if output.is_literal() || !matches!(output.kind(), Kind::Object(_) | Kind::Ref(_)) {
        return;
    }
    let key = payload_key(output);
    if key == payload_key(recipe) {
        return; // The recipe *is* the object.
    }
    let entry = out
        .entry(key)
        .or_insert((output.as_object_handle(), recipe));
    if recipe.raw() < entry.1.raw() {
        entry.1 = recipe;
    }
}

fn is_range_selection(table: &Store, h: Handle) -> bool {
    h.thunk_definition()
        .and_then(|def| table.get_tree(def))
        .and_then(|tree| Selection::from_tree(&tree))
        .is_ok_and(|sel| sel.end.is_some())
}

/// Every non-literal datum a re-run of `recipe` may need resident,
/// discovered conservatively: the definition's tree entries
/// (recursively) and whatever its thunks and Encodes stand for — the
/// whole reachable closure, whether or not the lazy branches end up
/// taken.
///
/// A re-run sees a thunk (the target it selects from, say) or an Encode
/// through the table's relations, so the walk does too: it descends into
/// the memoized value when there is one (the thunk's `Eval`, an Encode's
/// [`resolved`](fix_core::semantics::EncodeResolver::resolved) value)
/// and into the definition otherwise.
///
/// Handles whose data is absent from `table` are still returned (the
/// caller decides whether absence is acceptable); the walk simply can't
/// descend through them.
pub fn support_closure(table: &Store, recipe: Handle) -> Vec<Handle> {
    let mut out = Vec::new();
    let mut seen: HandleSet<[u8; 32]> = HandleSet::default();
    // The recipe's own memoized value is the object: start below it.
    let mut stack: Vec<Handle> = recipe.thunk_definition().into_iter().collect();
    while let Some(h) = stack.pop() {
        match h.kind() {
            Kind::Object(_) | Kind::Ref(_) => {
                if h.is_literal() || !seen.insert(payload_key(h)) {
                    continue;
                }
                out.push(h.as_object_handle());
                if let Ok(tree) = table.get_tree(h) {
                    stack.extend(tree.entries().iter().copied());
                }
            }
            Kind::Thunk(_) => match table.memo(Relation::Eval, h) {
                Some(value) => stack.push(value),
                None => stack.extend(h.thunk_definition().ok()),
            },
            Kind::Encode(..) => match resolved(table, h) {
                Some(value) => stack.push(value),
                None => stack.extend(h.encoded_thunk().ok()),
            },
        }
    }
    out
}

/// One object the plan will delete.
#[derive(Debug, Clone, Copy)]
pub struct Victim {
    /// The object (canonical Object handle).
    pub handle: Handle,
    /// Worst-case cascaded recompute depth for a cold read: 0 for a
    /// backed object, which comes back by one fault and no recompute.
    pub depth: u32,
    /// Payload bytes reclaimed.
    pub bytes: u64,
}

/// A sound eviction plan over one store.
#[derive(Debug, Clone, Default)]
pub struct EvictionPlan {
    /// Objects to delete, in nondecreasing depth order.
    pub victims: Vec<Victim>,
}

impl EvictionPlan {
    /// Total bytes the plan reclaims.
    pub fn bytes_reclaimed(&self) -> u64 {
        self.victims.iter().map(|v| v.bytes).sum()
    }

    /// The largest recompute cascade any cold read will pay.
    pub fn max_depth(&self) -> u32 {
        self.victims.iter().map(|v| v.depth).max().unwrap_or(0)
    }
}

/// Plans a sound computational GC over `table`, with recipes read from
/// its relations ([`recipes`]).
///
/// `pins` name data that must stay resident (live roots: everything
/// reachable from them through tree entries is protected). Among the
/// rest, an object the backing tier holds ([`Store::backed`]) is a
/// victim at depth 0, recipe or not: it comes back by a fault. Any other
/// is evictable if it has a recipe and the recipe's [`support_closure`]
/// contains only: literals, resident non-victims, backed objects, or
/// recomputable objects — victims and already-evicted objects (a recipe
/// names them, the store lacks them) — at a strictly smaller depth. The
/// depth is `1 + max(depth of recomputed support)`, the recompute
/// cascade bound, worked out afresh in every plan for evicted objects
/// too: an object evicted earlier costs more once its own support goes.
///
/// Objects whose recipe support includes themselves (possible when a
/// Selection extracts from a tree that contains its own output) are
/// never evicted.
pub fn plan_eviction(table: &Store, pins: &[Handle]) -> EvictionPlan {
    // Everything reachable from a pin stays.
    let pinned = table.reachable(pins);

    // Depth 0: what the backing tier holds comes back by one fault.
    let mut victims: Vec<Victim> = table
        .inventory()
        .into_iter()
        .filter(|&h| !pinned.contains(&payload_key(h)) && table.backed(h))
        .filter_map(|handle| {
            let bytes = table.get(handle).ok()?.transfer_size();
            Some(Victim {
                handle,
                depth: 0,
                bytes,
            })
        })
        .collect();

    // Nodes: every recomputable object the backing tier lacks that is
    // either a candidate (in memory and unpinned: `bytes` is what
    // evicting it frees) or already evicted (`None`). Backed objects are
    // neither; like pinned ones, they are free support.
    struct Node {
        handle: Handle,
        bytes: Option<u64>,
        support: Vec<Handle>,
    }
    let mut nodes: Vec<Node> = Vec::new();
    for (key, (handle, recipe)) in recipes(table) {
        let bytes = if table.resident(handle) {
            if pinned.contains(&key) || table.backed(handle) {
                continue;
            }
            match table.get(handle) {
                Ok(node) => Some(node.transfer_size()),
                Err(_) => continue,
            }
        } else if table.contains(handle) {
            continue;
        } else {
            None
        };
        nodes.push(Node {
            handle,
            bytes,
            support: support_closure(table, recipe),
        });
    }

    // Assign depths to a fixpoint. A node is admitted once every support
    // member is covered: a resident non-node (stays put) or an admitted
    // node — never an unadmitted one, since that one may itself be
    // unrecomputable. Nodes stuck in support cycles, or
    // on support nothing can restore, are never admitted, so candidates
    // among them stay resident.
    let node_keys: HandleSet<[u8; 32]> = nodes.iter().map(|n| payload_key(n.handle)).collect();
    let mut assigned: HandleMap<[u8; 32], u32> = HandleMap::default();
    loop {
        let mut admitted_this_round = false;
        for n in &nodes {
            let key = payload_key(n.handle);
            if assigned.contains_key(&key) {
                continue;
            }
            let mut depth = 1u32;
            let mut ok = true;
            for s in &n.support {
                let skey = payload_key(*s);
                if skey == key {
                    ok = false; // Self-support: never evictable.
                    break;
                }
                if let Some(d) = assigned.get(&skey) {
                    depth = depth.max(d + 1);
                } else if node_keys.contains(&skey) {
                    ok = false; // Unadmitted node: wait (or cycle).
                    break;
                } else if !table.contains(*s) {
                    ok = false; // Absent and not recomputable.
                    break;
                }
                // Resident non-node: free.
            }
            if ok {
                assigned.insert(key, depth);
                admitted_this_round = true;
            }
        }
        if !admitted_this_round {
            break;
        }
    }

    victims.extend(nodes.iter().filter_map(|n| {
        Some(Victim {
            handle: n.handle,
            depth: *assigned.get(&payload_key(n.handle))?,
            bytes: n.bytes?,
        })
    }));
    victims.sort_by_key(|v| (v.depth, *v.handle.raw()));
    EvictionPlan { victims }
}

/// Executes a plan: deletes each victim's bytes. Returns the bytes
/// actually reclaimed.
///
/// Fails (before deleting anything) if a victim has lost both ways back
/// since planning — the backing tier does not hold it and no relation in
/// `table` produces it: that eviction would be data loss.
pub fn apply_eviction(table: &Store, plan: &EvictionPlan) -> Result<u64> {
    let recipes = recipes(table);
    for v in &plan.victims {
        if !table.backed(v.handle) && !recipes.contains_key(&payload_key(v.handle)) {
            return Err(Error::Trap(format!(
                "refusing to evict {}: no fault or relation brings it back",
                v.handle
            )));
        }
    }
    Ok(plan
        .victims
        .iter()
        .filter_map(|v| table.evict(v.handle))
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::Tier;
    use crate::relations::RelationCache;
    use crate::store::Loc;
    use fix_core::data::{Blob, Node, Tree};
    use fix_core::invocation::build;
    use std::sync::Arc;

    fn blob(n: u8) -> Blob {
        Blob::from_vec(vec![n; 64])
    }

    /// Records `output` as the result of running a procedure on a tree
    /// of `inputs` the way the engine does — the application's `Eval`,
    /// or `Apply(tree)` for a tail call — and returns the recipe (the
    /// tree's application).
    fn produce(store: &Arc<Store>, inputs: Vec<Handle>, output: Handle) -> Handle {
        let def = store.put_tree(Tree::from_handles(inputs));
        let thunk = def.application().unwrap();
        let cache = RelationCache::of(Arc::clone(store));
        if output.is_thunk() {
            cache.put(Relation::Apply, def, output);
        } else {
            cache.put(Relation::Eval, thunk, output);
        }
        thunk
    }

    /// A fresh table and its relations.
    fn table() -> (Arc<Store>, RelationCache) {
        let store = Arc::new(Store::new());
        (Arc::clone(&store), RelationCache::of(store))
    }

    /// A table with `input -> (thunk) -> output` recorded in it.
    fn one_step() -> (Arc<Store>, RelationCache, Handle, Handle, Handle) {
        let (store, cache) = table();
        let input = store.put_blob(blob(1));
        let output = store.put_blob(blob(2));
        let thunk = produce(&store, vec![input], output);
        (store, cache, input, thunk, output)
    }

    fn depth_of(plan: &EvictionPlan, h: Handle) -> Option<u32> {
        plan.victims
            .iter()
            .find(|v| v.handle == h.as_object_handle())
            .map(|v| v.depth)
    }

    #[test]
    fn recipes_come_from_applications_and_range_selections() {
        let (store, cache, _, thunk, output) = one_step();
        let big = store.put_blob(Blob::from_vec((0..=255u8).collect()));
        let (range_tree, range) = build::selection_range(big, 10, 80).unwrap();
        store.put_tree(range_tree);
        let slice = store.put_blob(Blob::from_vec((10..80u8).collect()));
        cache.put(Relation::Eval, range, slice);
        // A single-index selection over a tree returns one of its entries.
        let holder = store.put_tree(Tree::from_handles(vec![output]));
        let (index_tree, index) = build::selection(holder, 0).unwrap();
        store.put_tree(index_tree);
        cache.put(Relation::Eval, index, output);
        // Literal and thunk outputs name no recipe.
        produce(&store, vec![big], Blob::from_u64(3).handle());
        produce(&store, vec![slice], thunk);

        let recipes = recipes(&store);
        assert_eq!(recipes.len(), 2);
        assert_eq!(recipes[&payload_key(output)], (output, thunk));
        assert_eq!(recipes[&payload_key(slice.as_ref_handle())], (slice, range));
    }

    #[test]
    fn the_lowest_recipe_wins_whatever_the_map_order() {
        let (store, _, input, thunk, output) = one_step();
        let other = produce(&store, vec![input, input], output);
        let lowest = if thunk.raw() < other.raw() {
            thunk
        } else {
            other
        };
        assert_eq!(recipes(&store)[&payload_key(output)].1, lowest);
    }

    #[test]
    fn a_tail_calls_value_is_its_callees_product() {
        // `caller` returned the thunk `callee`; `callee` made the bytes.
        let (store, cache, input, callee, output) = one_step();
        let caller = produce(&store, vec![input, input], callee);
        cache.put(Relation::Eval, caller, output);
        let recipes = recipes(&store);
        assert_eq!(recipes.len(), 1);
        assert_eq!(recipes[&payload_key(output)], (output, callee));
    }

    #[test]
    fn a_log_with_both_relations_per_application_still_plans() {
        // The older shape: `Apply(tree) → out` beside the `Eval`, or
        // alone. Both name the same recipe.
        let (store, cache, _, thunk, output) = one_step();
        cache.put(Relation::Apply, thunk.thunk_definition().unwrap(), output);
        let out2 = store.put_blob(blob(3));
        let def2 = store.put_tree(Tree::from_handles(vec![output]));
        cache.put(Relation::Apply, def2, out2);
        let recipes = recipes(&store);
        assert_eq!(recipes.len(), 2);
        assert_eq!(recipes[&payload_key(output)], (output, thunk));
        assert_eq!(
            recipes[&payload_key(out2)],
            (out2, def2.application().unwrap())
        );
    }

    #[test]
    fn support_closure_walks_trees_thunks_and_encodes() {
        let (store, cache) = table();
        let leaf = store.put_blob(blob(3));
        let sub = store.put_tree(Tree::from_handles(vec![leaf]));
        let def = store.put_tree(Tree::from_handles(vec![sub.as_ref_handle()]));
        let thunk = def.application().unwrap();
        let enc = thunk.strict().unwrap();
        let outer_def = store.put_tree(Tree::from_handles(vec![enc]));
        let outer = outer_def.application().unwrap();
        // outer_def, def, sub, leaf — through the encode and the Ref.
        assert_eq!(support_closure(&store, outer).len(), 4);

        // Resolved, the encode is its value: what a re-run splices in.
        let value = store.put_blob(blob(4));
        cache.put(Relation::Eval, thunk, value);
        cache.put(Relation::Force, value, value);
        let support = support_closure(&store, outer);
        assert_eq!(support, vec![outer_def, value]);
    }

    #[test]
    fn plan_evicts_output_keeps_inputs() {
        let (store, _, input, _, output) = one_step();
        let plan = plan_eviction(&store, &[]);
        assert_eq!(plan.victims.len(), 1);
        assert_eq!(plan.victims[0].handle, output.as_object_handle());
        assert_eq!(plan.victims[0].depth, 1);
        assert_eq!(plan.bytes_reclaimed(), 64);
        let reclaimed = apply_eviction(&store, &plan).unwrap();
        assert_eq!(reclaimed, 64);
        assert!(!store.contains(output));
        assert!(store.contains(input));
        // Evicted, the object is still named by its relation: nothing
        // more to plan.
        assert!(plan_eviction(&store, &[]).victims.is_empty());
    }

    #[test]
    fn pins_protect_reachable_graph() {
        let (store, _, _input, _, output) = one_step();
        let root = store.put_tree(Tree::from_handles(vec![output]));
        let plan = plan_eviction(&store, &[root]);
        assert!(plan.victims.is_empty());
    }

    #[test]
    fn cascades_assign_increasing_depths() {
        // input -> t1 -> mid -> t2 -> out; both mid and out recomputable.
        let store = Arc::new(Store::new());
        let input = store.put_blob(blob(1));
        let mid = store.put_blob(blob(2));
        produce(&store, vec![input], mid);
        let out = store.put_blob(blob(3));
        produce(&store, vec![mid], out);

        let plan = plan_eviction(&store, &[]);
        assert_eq!(depth_of(&plan, mid), Some(1));
        // out's recipe needs mid, which is itself a victim at depth 1.
        assert_eq!(depth_of(&plan, out), Some(2));
        assert_eq!(plan.max_depth(), 2);
        // Depth order: mid before out.
        assert!(plan.victims[0].handle == mid.as_object_handle());
    }

    #[test]
    fn missing_support_blocks_eviction() {
        let (store, _, input, _, _) = one_step();
        // The recipe's input vanishes and nothing produces it: the
        // output can no longer be recomputed, so it must not be evicted.
        store.evict(input);
        let plan = plan_eviction(&store, &[]);
        assert!(plan.victims.is_empty());
    }

    #[test]
    fn self_supporting_objects_never_evicted() {
        // A procedure that returns one of its own inputs.
        let store = Arc::new(Store::new());
        let out = store.put_blob(blob(9));
        produce(&store, vec![out], out);
        let plan = plan_eviction(&store, &[]);
        assert!(plan.victims.is_empty());
    }

    #[test]
    fn a_recipe_over_an_evicted_object_costs_one_more() {
        let (store, _, _input, _, output) = one_step();
        let plan = plan_eviction(&store, &[]);
        apply_eviction(&store, &plan).unwrap();

        // A later object whose recipe reads the (now evicted) output.
        let out2 = store.put_blob(blob(7));
        produce(&store, vec![output], out2);
        let plan2 = plan_eviction(&store, &[]);
        assert_eq!(plan2.victims.len(), 1);
        assert_eq!(depth_of(&plan2, out2), Some(2));
    }

    #[test]
    fn an_evicted_object_is_priced_afresh_once_its_pin_lifts() {
        // x -> y -> e -> z. Pass 1 pins y and z, so only e goes, at
        // depth 1. Pass 2 evicts y too, so e costs 2 and z costs 3.
        let store = Arc::new(Store::new());
        let x = store.put_blob(blob(1));
        let [y, e, z] = [2, 3, 4].map(|n| store.put_blob(blob(n)));
        produce(&store, vec![x], y);
        produce(&store, vec![y], e);
        produce(&store, vec![e], z);

        let pass1 = plan_eviction(&store, &[y, z]);
        assert_eq!(pass1.victims.len(), 1);
        assert_eq!(depth_of(&pass1, e), Some(1));
        apply_eviction(&store, &pass1).unwrap();

        let pass2 = plan_eviction(&store, &[]);
        assert_eq!(depth_of(&pass2, y), Some(1));
        assert_eq!(depth_of(&pass2, z), Some(3));
        assert_eq!(pass2.victims.len(), 2);
    }

    /// A backing tier holding copies of the nodes it was given.
    struct Holds(HandleMap<[u8; 32], Node>);

    impl Tier for Holds {
        fn fault(&self, handle: Handle, _: Loc) -> Option<Node> {
            self.0.get(&payload_key(handle)).cloned()
        }

        fn inserted(&self, _: Handle, _: &Node) {}

        fn recorded(&self, _: Relation, _: Handle, _: Handle) {}
    }

    #[test]
    fn backed_objects_are_depth_zero_victims_recipe_or_not() {
        let store = Arc::new(Store::new());
        let blobs: Vec<Blob> = (1..=5).map(blob).collect();
        let handles: Vec<Handle> = blobs.iter().map(|b| store.put_blob(b.clone())).collect();
        let held: HandleMap<[u8; 32], Node> = blobs[..3]
            .iter()
            .map(|b| (payload_key(b.handle()), Node::Blob(b.clone())))
            .collect();
        for (i, key) in held.keys().enumerate() {
            let loc = Loc {
                offset: 64 * i as u64,
                len: 64,
                generation: 0,
            };
            store.locate(*key, Some(loc));
        }
        store.attach(Arc::new(Holds(held))).unwrap();
        let planned = |plan: &EvictionPlan| {
            let mut got: Vec<(Handle, u32)> =
                plan.victims.iter().map(|v| (v.handle, v.depth)).collect();
            got.sort_by_key(|(h, _)| *h.raw());
            got
        };
        let at_depth_zero = |of: &[Handle]| {
            let mut want: Vec<(Handle, u32)> = of.iter().map(|h| (*h, 0)).collect();
            want.sort_by_key(|(h, _)| *h.raw());
            want
        };

        let plan = plan_eviction(&store, &[]);
        assert_eq!(planned(&plan), at_depth_zero(&handles[..3]));
        let pinned = handles[1];
        let plan = plan_eviction(&store, &[pinned]);
        assert_eq!(planned(&plan), at_depth_zero(&[handles[0], handles[2]]));
        assert_eq!(apply_eviction(&store, &plan).unwrap(), 2 * 64);
        assert_eq!(store.total_bytes(), 3 * 64);
        assert!(store.resident(pinned));
        assert!(handles[3..].iter().all(|h| store.resident(*h)));
        // The way back is one fault each.
        for (b, h) in blobs.iter().zip(&handles).take(3) {
            assert_eq!(&store.get_blob(*h).unwrap(), b);
        }
        assert_eq!(store.total_bytes(), 5 * 64);
    }

    #[test]
    fn apply_refuses_recipeless_victims() {
        let (store, cache, _, thunk, output) = one_step();
        let fake = EvictionPlan {
            victims: vec![Victim {
                handle: store.put_blob(blob(42)),
                depth: 1,
                bytes: 64,
            }],
        };
        assert!(apply_eviction(&store, &fake).is_err());
        assert!(store.contains(output));

        // A relation dropped between planning and eviction: same refusal.
        let plan = plan_eviction(&store, &[]);
        cache.remove(Relation::Eval, thunk);
        assert!(apply_eviction(&store, &plan).is_err());
        assert!(store.contains(output));
    }
}
