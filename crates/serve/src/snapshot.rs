//! Immutable, versioned result snapshots, the swap cell that publishes
//! them, and the [`SnapshotDelta`]s computed at publish time for
//! push-subscribed watchers.

use crate::sync::recover_poisoned;
use rms_geom::{Point, PointId};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// Aggregate service instrumentation carried on every snapshot: a copy
/// of the service's registry counters taken when the snapshot was
/// published (so it is epoch-consistent with the snapshot and `STATS`
/// agrees with `METRICS` at quiescence), plus the three per-batch
/// values no instrument holds (`last_batch_ops`, `max_coalesced`,
/// `last_apply_ms`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceStats {
    /// Operations applied to the engine (accepted by validation):
    /// `rms_applier_ops_applied_total`.
    pub ops_applied: u64,
    /// Operations rejected by validation (duplicate insert, unknown
    /// delete/update, dimension mismatch):
    /// `rms_applier_ops_rejected_total`.
    pub ops_rejected: u64,
    /// Coalesced batches the applier issued. A batch salvaged by the
    /// per-op replay after an atomic rejection still counts as **one**
    /// logical batch here (see `replayed_batches`), so this always
    /// agrees with the coalescing counters: the `_count` of
    /// `rms_applier_apply_seconds`.
    pub batches: u64,
    /// Coalesced batches that were atomically rejected by the engine and
    /// salvaged by the per-op replay:
    /// `rms_applier_replayed_batches_total`.
    pub replayed_batches: u64,
    /// Operations recovered from the write-ahead log before the service
    /// went live (0 without a WAL or after a clean shutdown's
    /// checkpoint compaction): `rms_wal_recovered_ops_total`.
    pub wal_recovered_ops: u64,
    /// Operation count of the most recent coalesced batch.
    pub last_batch_ops: usize,
    /// Largest batch the applier ever coalesced from the queue.
    pub max_coalesced: usize,
    /// Wall-clock of the most recent apply, milliseconds.
    pub last_apply_ms: f64,
    /// Total wall-clock spent inside `apply_batch`, milliseconds: the
    /// `_sum` of `rms_applier_apply_seconds`.
    pub total_apply_ms: f64,
}

impl ServiceStats {
    /// Mean `apply_batch` wall-clock, milliseconds (0 before any batch).
    pub fn avg_apply_ms(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.total_apply_ms / self.batches as f64
        }
    }
}

/// One published state of the service: everything a reader needs, frozen
/// at a batch boundary. Snapshots are immutable and shared by `Arc`, so
/// holding one never blocks the applier or other readers.
#[derive(Debug, Clone)]
pub struct ResultSnapshot {
    /// Publication version: 0 is the initial build, +1 per applied batch.
    /// Strictly monotone across the snapshots any single reader observes.
    pub epoch: u64,
    /// The maintained k-RMS solution `Q`, sorted by id.
    pub result: Vec<Point>,
    /// Live tuples `n` at publication.
    pub len: usize,
    /// Set-cover universe size `m` at publication.
    pub m: usize,
    /// Latest Monte-Carlo estimate of the max k-regret ratio of `result`
    /// (refreshed every `mrr_every` epochs when the service was
    /// configured with `mrr_directions > 0`; `None` otherwise).
    pub mrr: Option<f64>,
    /// Aggregate service instrumentation at publication.
    pub stats: ServiceStats,
}

impl ResultSnapshot {
    /// Ids of the published solution, sorted ascending.
    pub fn result_ids(&self) -> Vec<PointId> {
        self.result.iter().map(Point::id).collect()
    }

    /// The delta from `prev` to this snapshot, computed at publish time
    /// by the applier so watchers receive it pushed instead of polling.
    pub fn delta_from(&self, prev: &ResultSnapshot) -> SnapshotDelta {
        let (added, removed) = diff_results(&prev.result, &self.result);
        SnapshotDelta {
            from_version: prev.epoch,
            version: self.epoch,
            added,
            removed,
            len: self.len,
        }
    }
}

/// The difference between two published solutions, computed at publish
/// time and pushed to every watcher ([`RmsHandle::watch`](crate::RmsHandle::watch),
/// wire verb `SUBSCRIBE`). Applying every delta in order to the starting
/// snapshot reproduces the server's published solution at each delivered
/// version — the contract pinned by `tests/delta.rs`.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotDelta {
    /// The epoch this delta applies on top of.
    pub from_version: u64,
    /// The epoch after applying: strictly greater than `from_version`.
    pub version: u64,
    /// Solution entries that appeared — or changed coordinates — since
    /// `from_version`, sorted by id. Applied as *upserts*.
    pub added: Vec<Point>,
    /// Ids no longer in the solution at `version`, sorted. Disjoint from
    /// the ids of `added`. A coalesced delta ([`SnapshotDelta::merge`])
    /// may list an id that was already absent at `from_version`; applying
    /// such a removal is a no-op, never an error.
    pub removed: Vec<PointId>,
    /// Live tuples `n` at `version`.
    pub len: usize,
}

impl SnapshotDelta {
    /// Applies the delta to a solution map: removals first, then upserts.
    pub fn apply_to(&self, solution: &mut BTreeMap<PointId, Point>) {
        for id in &self.removed {
            solution.remove(id);
        }
        for p in &self.added {
            solution.insert(p.id(), p.clone());
        }
    }

    /// Composes a later delta onto this one, so `self` then covers the
    /// range `self.from_version..next.version`. This is how `SUBSCRIBE
    /// every=K` coalesces K epochs into one pushed line.
    pub fn merge(&mut self, next: &SnapshotDelta) {
        self.version = next.version;
        self.len = next.len;
        for id in &next.removed {
            // Drop any pending upsert of the id — but still record the
            // removal: the upsert may have been a coordinate change of an
            // entry that existed *before* this delta's range (an `added`
            // entry does not imply the id was absent at `from_version`),
            // so only the explicit removal makes a subscriber drop it.
            // For a genuinely fresh add-then-remove the extra removal
            // applies as a no-op.
            if let Ok(i) = self.added.binary_search_by_key(id, Point::id) {
                self.added.remove(i);
            }
            if let Err(i) = self.removed.binary_search(id) {
                self.removed.insert(i, *id);
            }
        }
        for p in &next.added {
            // A re-add cancels a pending removal; otherwise upsert.
            if let Ok(i) = self.removed.binary_search(&p.id()) {
                self.removed.remove(i);
            }
            match self.added.binary_search_by_key(&p.id(), Point::id) {
                Ok(i) => self.added[i] = p.clone(),
                Err(i) => self.added.insert(i, p.clone()),
            }
        }
    }
}

/// Diffs two solutions sorted by id: entries only in `next` (or in both
/// with different coordinates) are upserts, ids only in `prev` are
/// removals.
fn diff_results(prev: &[Point], next: &[Point]) -> (Vec<Point>, Vec<PointId>) {
    let mut added = Vec::new();
    let mut removed = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < prev.len() && j < next.len() {
        match prev[i].id().cmp(&next[j].id()) {
            std::cmp::Ordering::Less => {
                removed.push(prev[i].id());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(next[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if prev[i].coords() != next[j].coords() {
                    added.push(next[j].clone());
                }
                i += 1;
                j += 1;
            }
        }
    }
    removed.extend(prev[i..].iter().map(Point::id));
    added.extend(next[j..].iter().cloned());
    (added, removed)
}

/// The single-writer publication cell: the applier swaps a fresh
/// `Arc<ResultSnapshot>` in after every batch; readers clone the `Arc`
/// out. The lock is held only for the pointer clone/swap — never while a
/// snapshot is built or a batch is applied — so readers are decoupled
/// from maintenance (`std` offers no safe lock-free `Arc` swap and the
/// workspace forbids `unsafe`; the nanosecond-scale critical section is
/// the closest safe equivalent).
#[derive(Debug)]
pub(crate) struct SnapshotCell {
    slot: RwLock<Arc<ResultSnapshot>>,
}

impl SnapshotCell {
    pub(crate) fn new(initial: ResultSnapshot) -> Self {
        Self {
            slot: RwLock::new(Arc::new(initial)),
        }
    }

    /// The most recently published snapshot.
    pub(crate) fn load(&self) -> Arc<ResultSnapshot> {
        recover_poisoned(self.slot.read()).clone()
    }

    /// Publishes a new snapshot and hands back the one it replaced (the
    /// base of the publish-time delta), so the caller also releases it
    /// after the lock.
    pub(crate) fn store(&self, snapshot: Arc<ResultSnapshot>) -> Arc<ResultSnapshot> {
        std::mem::replace(&mut *recover_poisoned(self.slot.write()), snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(from: u64, to: u64, added: Vec<Point>, removed: Vec<PointId>) -> SnapshotDelta {
        SnapshotDelta {
            from_version: from,
            version: to,
            added,
            removed,
            len: 0,
        }
    }

    fn apply_all(base: &[Point], deltas: &[SnapshotDelta]) -> Vec<PointId> {
        let mut solution: BTreeMap<PointId, Point> =
            base.iter().map(|p| (p.id(), p.clone())).collect();
        for d in deltas {
            d.apply_to(&mut solution);
        }
        solution.into_keys().collect()
    }

    /// The regression the `SUBSCRIBE every=K` coalescing path hit: an
    /// `added` entry can be a coordinate-change *upsert* of an id that
    /// existed before the delta's range, so a later removal of that id
    /// must survive the merge — dropping the pair as an "add-then-remove
    /// no-op" leaves the subscriber holding a stale id forever.
    #[test]
    fn merge_keeps_removal_of_an_upserted_id() {
        let base = vec![
            Point::new_unchecked(5, vec![0.1, 0.2]),
            Point::new_unchecked(9, vec![0.3, 0.4]),
        ];
        // Epoch 1: id 5 changes coordinates (upsert); epoch 2: it leaves.
        let d1 = delta(0, 1, vec![Point::new_unchecked(5, vec![0.6, 0.7])], vec![]);
        let d2 = delta(1, 2, vec![], vec![5]);
        let mut coalesced = d1.clone();
        coalesced.merge(&d2);
        // The coalesced delta must reach the same state as the sequence.
        assert_eq!(
            apply_all(&base, std::slice::from_ref(&coalesced)),
            apply_all(&base, &[d1, d2]),
        );
        assert!(coalesced.added.is_empty());
        assert_eq!(coalesced.removed, vec![5]);
        assert_eq!((coalesced.from_version, coalesced.version), (0, 2));
    }

    /// The rest of the composition algebra: fresh-add-then-remove nets
    /// out (modulo a harmless no-op removal), remove-then-readd nets to
    /// an upsert, and later upserts win.
    #[test]
    fn merge_composes_like_the_sequence() {
        let base = vec![
            Point::new_unchecked(1, vec![0.1, 0.1]),
            Point::new_unchecked(2, vec![0.2, 0.2]),
        ];
        let d1 = delta(
            0,
            1,
            vec![Point::new_unchecked(7, vec![0.5, 0.5])], // fresh add
            vec![1],                                       // remove 1
        );
        let d2 = delta(
            1,
            2,
            vec![
                Point::new_unchecked(1, vec![0.9, 0.9]), // re-add 1
                Point::new_unchecked(7, vec![0.6, 0.6]), // upsert 7 again
            ],
            vec![2], // remove 2
        );
        let d3 = delta(2, 3, vec![], vec![7]); // fresh-added 7 leaves
        let mut coalesced = d1.clone();
        coalesced.merge(&d2);
        coalesced.merge(&d3);
        assert_eq!(
            apply_all(&base, std::slice::from_ref(&coalesced)),
            apply_all(&base, &[d1, d2, d3]),
        );
        // 1 was re-added with new coordinates: an upsert, not a removal.
        assert_eq!(
            coalesced.added.iter().map(Point::id).collect::<Vec<_>>(),
            vec![1]
        );
        assert_eq!(coalesced.added[0].coords(), &[0.9, 0.9]);
        // added and removed stay disjoint.
        assert!(coalesced
            .removed
            .iter()
            .all(|id| coalesced.added.binary_search_by_key(id, Point::id).is_err()));
    }
}
