//! Layer 1 of the scheduler: the sharded job map.
//!
//! Every job in flight has (at most) one [`JobEntry`], and the entry
//! owns *all* of the job's bookkeeping: its state, its dependency
//! waiters, and the watched-batch watchers registered on it. A
//! finished job has no entry — its result is its relation in the
//! node's table, the only memo — so the map holds work
//! queued, running or parked. An entry a watch or a dependency creates
//! comes with the job's one queue token, so a `Queued` entry's token is
//! in a deque; a job nothing wants any more keeps its entry until that
//! token is popped. The entry the scheduler's door creates has no token:
//! it is `Running` from the start, and stays so while its job waits on
//! that thread's stack, until it completes (or is published: then it
//! parks `Waiting` like a popped job's).
//! The map is sharded by the keyed word fold of the job identity
//! (`fix_core::handle::HandleBuildHasher`, the same fold each shard's
//! map buckets by, and the one the node's table shards by), so
//! submissions, claims, and completions of unrelated
//! jobs never contend on a lock.
//!
//! The entry is only ever read or mutated under its shard lock. Cross-
//! shard coordination never holds two shard locks at once: dependency
//! completion goes through [`DepWait`] (an atomic waitgroup shared by
//! the waiter and each of its pending dependencies), and watched-batch
//! slots are filled through the lock-free `BatchState` (layer 3).

use super::batch::Watcher;
use crate::engine::Job;
use fix_core::handle::{HandleBuildHasher, HandleMap};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::Arc;

/// Lock shards: the job map sees one insert/claim/complete round-trip
/// per executed step.
const SHARDS: usize = 32;

/// Where a job in flight stands. There is no finished state: a finished
/// job has no entry.
#[derive(Debug, Default)]
pub(super) enum JobState {
    /// Its one token is in a deque: the entry was just created, or the
    /// parked job was requeued.
    #[default]
    Queued,
    /// The job is being stepped: its token was popped, or the door
    /// claimed it (and keeps it `Running` on its stack while the job
    /// waits there for a tail call or dependencies).
    Running,
    /// Parked until the pending dependencies of its [`DepWait`] complete.
    Waiting,
}

/// The atomic waitgroup a stepped job parks on when the engine reports
/// unfinished dependencies. One `DepWait` is created per parking step;
/// each pending dependency holds a clone and decrements `pending` when
/// it completes. `pending` starts at one *extra* guard unit held by the
/// registering thread, so the waiter cannot be requeued until
/// registration has finished and the entry's state has been moved to
/// `Waiting` — dependency completions on other shards can fire at any
/// point in between.
///
/// `fired` makes the continuation exactly-once: whichever thread swaps
/// it first owns the requeue (all dependencies done), the tail
/// completion, or the failure propagation (a dependency failed);
/// everyone else backs off. A failure does not wait for the guard, so
/// the registering thread reads `fired` under the job's own shard lock
/// before it writes `Waiting`: a job already failed is left to whoever
/// fired it.
pub(super) struct DepWait {
    pub(super) job: Job,
    pub(super) pending: AtomicUsize,
    pub(super) fired: AtomicBool,
    /// The job parked on a tail call (`Step::Tail`): its one
    /// dependency's value *is* its own, so the dependency's completion
    /// completes it instead of requeueing it for a step that would only
    /// copy that value.
    pub(super) tail: bool,
}

#[derive(Default)]
pub(super) struct JobEntry {
    pub(super) state: JobState,
    /// Dependency waitgroups this job must decrement when it completes.
    /// The same waiter appears once per dependency edge (a job that
    /// reported the same dependency twice is counted twice, matching
    /// the `pending` count).
    pub(super) waiters: Vec<Arc<DepWait>>,
    /// Watched-batch slots waiting for this job, live or dead (see
    /// `Watcher::live`), kept beside the state so registration and
    /// draining ride the same shard lock as the state transition.
    pub(super) watchers: Vec<Watcher>,
}

impl JobEntry {
    /// Does a live watcher or a dependency waiter still want this job
    /// executed?
    pub(super) fn wanted(&self) -> bool {
        !self.waiters.is_empty() || self.watchers.iter().any(Watcher::live)
    }
}

/// One lock shard of the map.
pub(super) type Shard = HandleMap<Job, JobEntry>;

/// The sharded map itself.
pub(super) struct JobMap {
    shards: Vec<Mutex<Shard>>,
    hasher: HandleBuildHasher,
}

impl JobMap {
    pub(super) fn new() -> JobMap {
        JobMap {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
            hasher: HandleBuildHasher::default(),
        }
    }

    fn shard_of(&self, job: &Job) -> usize {
        self.hasher.shard_of(job, SHARDS)
    }

    /// Locks and returns the shard owning `job`.
    pub(super) fn shard(&self, job: &Job) -> MutexGuard<'_, Shard> {
        self.shards[self.shard_of(job)].lock()
    }

    /// Runs `f` over every shard in turn (each under its own lock).
    /// Per-shard consistent, not an atomic snapshot of the whole map —
    /// fine for diagnostics.
    pub(super) fn for_each_shard(&self, mut f: impl FnMut(&mut Shard)) {
        for shard in &self.shards {
            f(&mut shard.lock());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_core::data::Blob;
    use fix_core::handle::Handle;

    #[test]
    fn jobs_spread_over_shards() {
        // Not a distribution-quality claim — just a guard that the hash
        // actually routes different jobs (and the same handle's Eval vs
        // Force) to different locks.
        use std::hash::BuildHasher;
        let map = JobMap::new();
        let handles: Vec<Handle> = (0..64u64).map(|i| Blob::from_u64(i).handle()).collect();
        let shards: std::collections::HashSet<usize> = handles
            .iter()
            .map(|h| map.shard_of(&Job::Eval(*h)))
            .collect();
        assert!(shards.len() > SHARDS / 2, "{} shards used", shards.len());
        // One pair of shard indices can agree by chance (1 in 32); the
        // hashes they are cut from cannot.
        assert!(
            handles.iter().all(|h| {
                map.hasher.hash_one(Job::Eval(*h)) != map.hasher.hash_one(Job::Force(*h))
            }),
            "variant tag must perturb the hash"
        );
    }
}
