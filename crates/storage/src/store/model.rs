//! The table against a reference of three plain maps — objects,
//! relations, locations — over seeded sequences of every call that
//! changes an entry, compared after each call: counts, bytes, residency,
//! every relation, each application's one-probe read, the relation
//! listing and the recipes read from it.
//! Each case ends by taking everything out, and then no entry is left.

use super::*;
use crate::gen::{check, Rng};
use crate::provenance::recipes;
use crate::relations::RelationCache;
use fix_core::handle::{Kind, ThunkKind};
use std::collections::{BTreeMap, BTreeSet};

/// The relation kinds; the reference names each by its place here, so
/// its maps are ordered.
const RELATIONS: [Relation; 3] = [Relation::Eval, Relation::Apply, Relation::Force];
const EVAL: usize = 0;
const APPLY: usize = 1;
const FORCE: usize = 2;

/// What the table should hold.
#[derive(Default)]
struct Reference {
    objects: BTreeMap<[u8; 32], Node>,
    relations: BTreeMap<(usize, Handle), Handle>,
    locs: BTreeMap<[u8; 32], Loc>,
}

impl Reference {
    fn size(&self, key: &[u8; 32]) -> Option<u64> {
        self.objects.get(key).map(Node::transfer_size)
    }

    /// `recipes` restated over the reference's relations (there are no
    /// selection thunks among the inputs).
    fn recipes(&self) -> BTreeMap<[u8; 32], (Handle, Handle)> {
        let mut out: BTreeMap<[u8; 32], (Handle, Handle)> = BTreeMap::new();
        for (&(relation, input), &output) in &self.relations {
            let recipe = match relation {
                EVAL if input.kind() == Kind::Thunk(ThunkKind::Application) => {
                    let tree = input.thunk_definition().unwrap();
                    let tail = self.relations.get(&(APPLY, tree));
                    (!tail.is_some_and(Handle::is_thunk)).then_some(input)
                }
                APPLY => input.application().ok(),
                _ => None,
            };
            let Some(recipe) = recipe else { continue };
            if output.is_literal() || !matches!(output.kind(), Kind::Object(_) | Kind::Ref(_)) {
                continue;
            }
            let key = payload_key(output);
            if key == payload_key(recipe) {
                continue;
            }
            let entry = out
                .entry(key)
                .or_insert((output.as_object_handle(), recipe));
            if recipe.raw() < entry.1.raw() {
                entry.1 = recipe;
            }
        }
        out
    }
}

/// One case's names: stored objects, the inputs relations are recorded
/// on, and the one output each relation of each input has.
struct Universe {
    objects: Vec<Node>,
    inputs: Vec<Handle>,
    literals: Vec<Handle>,
    outputs: BTreeMap<(usize, Handle), Handle>,
}

impl Universe {
    fn draw(rng: &mut Rng) -> Universe {
        let blobs: Vec<Blob> = (0..4)
            .map(|_| Blob::from_vec(rng.vec(31..80, Rng::byte)))
            .collect();
        let tree0 = Tree::from_handles(vec![blobs[0].handle(), blobs[1].handle()]);
        let tree1 = Tree::from_handles(vec![blobs[2].handle(), tree0.handle()]);
        let tree2 = Tree::from_handles(vec![blobs[3].handle().as_ref_handle()]);
        let trees = [tree0, tree1, tree2];
        let literals = vec![
            Blob::from_u64(rng.next() % 300).handle(),
            Handle::literal(b"").unwrap(),
        ];
        let mut inputs = literals.clone();
        for blob in &blobs {
            let h = blob.handle();
            inputs.extend([h, h.as_ref_handle(), h.identification().unwrap()]);
        }
        for tree in &trees {
            let h = tree.handle();
            let thunk = h.application().unwrap();
            inputs.extend([h, h.as_ref_handle(), thunk, thunk.strict().unwrap()]);
        }
        // Outputs: data, and application thunks, so some `Apply`s are
        // tail calls.
        let mut candidates = literals.clone();
        candidates.extend(blobs.iter().map(Blob::handle));
        candidates.extend(trees.iter().map(Tree::handle));
        candidates.extend(trees.iter().map(|t| t.handle().application().unwrap()));
        let mut outputs = BTreeMap::new();
        for relation in 0..RELATIONS.len() {
            for &input in &inputs {
                outputs.insert((relation, input), candidates[rng.below(candidates.len())]);
            }
        }
        let mut objects: Vec<Node> = blobs.into_iter().map(Node::Blob).collect();
        objects.extend(trees.into_iter().map(Node::Tree));
        Universe {
            objects,
            inputs,
            literals,
            outputs,
        }
    }

    fn handle(&self, i: usize) -> Handle {
        self.objects[i].handle()
    }

    /// The tree at object `i`'s place among the trees (the first three
    /// objects after the four blobs).
    fn tree(&self, i: usize) -> Handle {
        self.handle(4 + i)
    }
}

/// One call on the table and the same on the reference.
enum Step {
    Put(usize),
    Get(usize),
    Memoize(usize, Handle),
    Unmemoize(usize, Handle),
    Evict(usize),
    Remove(usize),
    Locate(usize, Option<Loc>),
    Gc(Vec<Handle>),
    Purge(Vec<usize>),
    Clear,
}

impl Step {
    fn draw(rng: &mut Rng, u: &Universe) -> Step {
        let object = |rng: &mut Rng| rng.below(u.objects.len());
        let input = |rng: &mut Rng| u.inputs[rng.below(u.inputs.len())];
        let relation = |rng: &mut Rng| rng.below(RELATIONS.len());
        match rng.below(20) {
            0..=3 => Step::Put(object(rng)),
            4 | 5 => Step::Get(object(rng)),
            6..=10 => Step::Memoize(relation(rng), input(rng)),
            11 | 12 => Step::Unmemoize(relation(rng), input(rng)),
            13 => Step::Evict(object(rng)),
            14 => Step::Remove(object(rng)),
            15 | 16 => {
                let at = rng
                    .bool()
                    .then(|| Loc::new(rng.next() % 4096, 64, rng.range(0..3)));
                Step::Locate(object(rng), at)
            }
            17 => Step::Gc(rng.vec(0..3, input)),
            18 => Step::Purge(rng.vec(0..5, object)),
            _ => Step::Clear,
        }
    }
}

/// Runs `step` on the table and the reference, comparing what each call
/// returns.
fn run(step: &Step, table: &Store, cache: &RelationCache, u: &Universe, r: &mut Reference) {
    match *step {
        Step::Put(i) => {
            table.put(u.objects[i].clone());
            let key = payload_key(u.handle(i));
            r.objects.entry(key).or_insert_with(|| u.objects[i].clone());
        }
        Step::Get(i) => {
            let got = table.get(u.handle(i)).ok();
            assert_eq!(got.as_ref(), r.objects.get(&payload_key(u.handle(i))));
        }
        Step::Memoize(relation, input) => {
            let output = u.outputs[&(relation, input)];
            cache.put(RELATIONS[relation], input, output);
            r.relations.insert((relation, input), output);
        }
        Step::Unmemoize(relation, input) => {
            let removed = cache.remove(RELATIONS[relation], input);
            assert_eq!(removed, r.relations.remove(&(relation, input)));
        }
        Step::Evict(i) => {
            let key = payload_key(u.handle(i));
            assert_eq!(table.evict(u.handle(i)), r.size(&key));
            r.objects.remove(&key);
        }
        Step::Remove(i) => {
            let key = payload_key(u.handle(i));
            let mut dropped = None;
            let freed = table.remove(u.handle(i), |k, loc| dropped = Some((k, loc)));
            assert_eq!(freed, r.size(&key));
            assert_eq!(dropped, r.locs.remove(&key).map(|loc| (key, loc)));
            r.objects.remove(&key);
        }
        Step::Locate(i, at) => {
            let key = payload_key(u.handle(i));
            let before = match at {
                Some(loc) => r.locs.insert(key, loc),
                None => r.locs.remove(&key),
            };
            assert_eq!(table.locate(key, at), before);
        }
        Step::Gc(ref roots) => {
            let mut reachable = BTreeSet::new();
            let mut stack = roots.clone();
            while let Some(h) = stack.pop() {
                let key = payload_key(h);
                if h.is_literal() || !reachable.insert(key) {
                    continue;
                }
                if let Some(Node::Tree(t)) = r.objects.get(&key) {
                    stack.extend(t.entries().iter().copied());
                }
            }
            let before = r.objects.len();
            r.objects.retain(|key, _| reachable.contains(key));
            assert_eq!(table.gc(roots), before - r.objects.len());
        }
        Step::Purge(ref kept) => {
            let kept: Vec<[u8; 32]> = kept.iter().map(|&i| payload_key(u.handle(i))).collect();
            let keep = |key: &[u8; 32]| kept.contains(key);
            let mut held: Vec<[u8; 32]> = r.objects.keys().chain(r.locs.keys()).copied().collect();
            held.sort();
            held.dedup();
            let objects = held.iter().filter(|key| !keep(key)).count();
            let expected: Vec<([u8; 32], Loc)> = r
                .locs
                .iter()
                .filter(|(key, _)| !keep(key))
                .map(|(k, l)| (*k, *l))
                .collect();
            let mut removed = Vec::new();
            assert_eq!(table.purge(keep, |locs| removed = locs), objects);
            removed.sort_by_key(|(key, _)| *key);
            assert_eq!(removed, expected);
            r.objects.retain(|key, _| keep(key));
            r.locs.retain(|key, _| keep(key));
        }
        Step::Clear => {
            cache.clear();
            r.relations.clear();
        }
    }
}

/// Everything the table answers agrees with the reference.
fn agree(table: &Store, cache: &RelationCache, u: &Universe, r: &Reference) {
    assert_eq!(table.object_count(), r.objects.len(), "object_count");
    let bytes: u64 = r.objects.values().map(Node::transfer_size).sum();
    assert_eq!(table.total_bytes(), bytes, "total_bytes");
    for node in &u.objects {
        let (h, key) = (node.handle(), payload_key(node.handle()));
        let resident = r.objects.contains_key(&key);
        assert_eq!(table.resident(h), resident, "resident {h}");
        assert_eq!(
            table.contains(h),
            resident || r.locs.contains_key(&key),
            "contains {h}"
        );
        assert_eq!(table.location(h), r.locs.get(&key).copied(), "location {h}");
    }
    for &h in &u.literals {
        assert!(table.contains(h) && table.resident(h));
    }
    for (relation, &kind) in RELATIONS.iter().enumerate() {
        for &input in &u.inputs {
            let expected = r.relations.get(&(relation, input)).copied();
            assert_eq!(cache.get(kind, input), expected, "{relation} {input}");
        }
    }
    for tree in (0..3).map(|i| u.tree(i)) {
        let thunk = tree.application().unwrap();
        let resident = r.objects.get(&payload_key(tree));
        let expected = match (
            r.relations.get(&(EVAL, thunk)),
            r.relations.get(&(APPLY, tree)),
        ) {
            (Some(&value), _) => Applied::Evaluated(value),
            (None, Some(&raw)) => Applied::TailCalled(raw),
            (None, None) => Applied::Pending(resident.map(|node| node.as_tree().unwrap().clone())),
        };
        assert_eq!(table.applied(thunk).unwrap(), expected, "applied {thunk}");
    }
    let index = |relation| RELATIONS.iter().position(|r| *r == relation).unwrap();
    let mut entries: Vec<_> = cache
        .entries()
        .into_iter()
        .map(|(rel, i, o)| (index(rel), i, o))
        .collect();
    entries.sort();
    let expected: Vec<_> = r
        .relations
        .iter()
        .map(|(&(rel, i), &o)| (rel, i, o))
        .collect();
    assert_eq!(entries, expected, "entries");
    assert_eq!(cache.len(), r.relations.len(), "len");
    let recipes: BTreeMap<_, _> = recipes(table).into_iter().collect();
    assert_eq!(recipes, r.recipes(), "recipes");
}

/// No shard keeps an entry, a spilled relation or an object count.
fn nothing_left(table: &Store) {
    for shard in &table.shards {
        let shard = shard.read();
        assert!(
            shard.entries.is_empty(),
            "{} entries left",
            shard.entries.len()
        );
        assert!(shard.spilled.is_empty() && shard.objects == 0);
    }
}

#[test]
fn the_table_matches_three_plain_maps() {
    check("the_table_matches_three_plain_maps", 64, |rng| {
        let u = Universe::draw(rng);
        let table = Arc::new(Store::new());
        let cache = RelationCache::of(Arc::clone(&table));
        let mut r = Reference::default();
        // Every case starts where the entry is busiest: a tail call's
        // `Apply` before its `Eval`, a second `Eval` and a `Force` under
        // the same key, and a `Force` of a literal.
        let (tree, thunk) = (u.tree(0), u.tree(0).application().unwrap());
        let mut steps = vec![
            Step::Put(4),
            Step::Memoize(APPLY, tree),
            Step::Memoize(EVAL, thunk),
            Step::Memoize(EVAL, tree),
            Step::Memoize(FORCE, tree),
            Step::Memoize(FORCE, u.literals[0]),
        ];
        steps.extend((0..rng.range(20..80)).map(|_| Step::draw(rng, &u)));
        for step in &steps {
            run(step, &table, &cache, &u, &mut r);
            agree(&table, &cache, &u, &r);
        }
        // Take everything out, one call at a time or all at once.
        let last: Vec<Step> = if rng.bool() {
            let relations = r.relations.keys().map(|&(rel, i)| Step::Unmemoize(rel, i));
            let objects = (0..u.objects.len()).map(Step::Remove);
            relations.chain(objects).collect()
        } else {
            vec![Step::Clear, Step::Purge(Vec::new())]
        };
        for step in &last {
            run(step, &table, &cache, &u, &mut r);
        }
        agree(&table, &cache, &u, &r);
        nothing_left(&table);
    });
}
