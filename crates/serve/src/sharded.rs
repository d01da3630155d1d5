//! An id-partitioned shard group over [`RmsService`]: `S` independent
//! engines behind one router with the same submit/snapshot/shutdown
//! surface.
//!
//! Partitioning is by tuple id — shard `id % S` owns the tuple for its
//! whole lifetime, so every operation on one id flows through one
//! shard's queue and per-id ordering is exactly the single-service
//! guarantee. Reads merge the per-shard solutions into one
//! [`AggregateSnapshot`]: per-shard epochs (each strictly monotone),
//! summed [`ServiceStats`], and the union of the shard solutions
//! re-trimmed to the configured `r` by the existing sampled-greedy step
//! ([`GreedyStar`](rms_baselines::GreedyStar)).
//!
//! With a [write-ahead log](crate::wal) base path, shard `i` logs to
//! `<base>.<i>` — `S` independent logs, recovered independently on the
//! next start.

use crate::backend::{BackendView, DeltaReceiver};
use crate::service::{RmsService, ServeConfig, ServeError, SubmitError};
use crate::snapshot::{diff_results, ResultSnapshot, ServiceStats, SnapshotDelta};
use crate::sync::recover_poisoned;
use fdrms::{FdRms, FdRmsBuilder, Op};
use rms_baselines::{GreedyStar, StaticRms};
use rms_geom::Point;
use rms_metrics::{Counter, Registry};
use std::path::{Path, PathBuf};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};

/// Utility-vector samples for the aggregate re-trim. The union being
/// trimmed holds at most `S·r` tuples, so the sampled greedy is cheap;
/// the merge cache amortises it to one run per published shard state.
const TRIM_SAMPLES: usize = 512;
const TRIM_SEED: u64 = 0x5AD3;

/// One merged view over every shard, frozen at a vector of per-shard
/// epochs. For any single reader, each component of `epochs` is
/// non-decreasing across successive snapshots (merges are serialized, so
/// the published vectors are pointwise monotone).
#[derive(Debug, Clone)]
pub struct AggregateSnapshot {
    /// Per-shard publication epochs, indexed by shard.
    pub epochs: Vec<u64>,
    /// The merged solution: the union of the per-shard solutions,
    /// re-trimmed to the configured `r` when the union exceeds it,
    /// sorted by id.
    pub result: Vec<Point>,
    /// Live tuples across all shards.
    pub len: usize,
    /// Summed set-cover universe sizes.
    pub m: usize,
    /// Worst per-shard Monte-Carlo regret estimate, when estimation is
    /// enabled. Each shard estimates against *its own partition*, so
    /// this is a health indicator, not a bound on the merged result's
    /// global regret.
    pub mrr: Option<f64>,
    /// Per-shard stats folded with [`ServiceStats::absorb`].
    pub stats: ServiceStats,
}

impl AggregateSnapshot {
    /// Ids of the merged solution, sorted ascending.
    pub fn result_ids(&self) -> Vec<rms_geom::PointId> {
        self.result.iter().map(Point::id).collect()
    }

    /// The delta from `prev` to this merged snapshot. Versions are
    /// epoch-vector sums: pointwise-monotone vectors make the sum
    /// strictly increase across distinct merged states.
    pub fn delta_from(&self, prev: &AggregateSnapshot) -> SnapshotDelta {
        let (added, removed) = diff_results(&prev.result, &self.result);
        SnapshotDelta {
            from_version: prev.epochs.iter().sum(),
            version: self.epochs.iter().sum(),
            epochs: self.epochs.clone(),
            added,
            removed,
            len: self.len,
        }
    }
}

/// The `<base>.meta` sidecar that marks `base` as a shard group's WAL
/// base path.
pub(crate) fn wal_meta_path(base: &Path) -> PathBuf {
    let mut p = base.as_os_str().to_os_string();
    p.push(".meta");
    PathBuf::from(p)
}

/// Validates the shard count a WAL base path was written with:
/// `<base>.meta` holds `shards=N`. A mismatch is fatal — the router's
/// modulus must equal the one the logs were partitioned by. A bare
/// `<base>` file is also refused: that is a *single-service* log
/// (`RmsService::start_with_wal` uses the path directly), not a
/// group's. Read-only: the sidecar is recorded by
/// [`record_wal_shard_meta`] only after every shard has started, so a
/// failed startup never pins a shard count no log data was written
/// under.
fn check_wal_shard_meta(base: &Path, shards: usize) -> std::io::Result<()> {
    use std::io::{Error, ErrorKind};
    if base.is_file() {
        return Err(Error::new(
            ErrorKind::InvalidData,
            format!(
                "{} is a single-service write-ahead log; a shard group logs to {}.<i> \
                 (restart without --shards, or move the old log aside)",
                base.display(),
                base.display()
            ),
        ));
    }
    let meta_path = wal_meta_path(base);
    match std::fs::read_to_string(&meta_path) {
        Ok(raw) => {
            let recorded: Option<usize> = raw
                .trim()
                .strip_prefix("shards=")
                .and_then(|v| v.parse().ok());
            match recorded {
                Some(n) if n == shards => Ok(()),
                Some(n) => Err(Error::new(
                    ErrorKind::InvalidData,
                    format!(
                        "write-ahead logs at {} were written by a {n}-shard group; \
                         refusing to start with {shards} shards (acknowledged ops would be \
                         lost or mis-partitioned)",
                        base.display()
                    ),
                )),
                None => Err(Error::new(
                    ErrorKind::InvalidData,
                    format!("unreadable shard metadata in {}", meta_path.display()),
                )),
            }
        }
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// Records the group's shard count next to its logs (idempotent).
fn record_wal_shard_meta(base: &Path, shards: usize) -> std::io::Result<()> {
    let meta_path = wal_meta_path(base);
    if let Some(parent) = meta_path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&meta_path, format!("shards={shards}\n"))
}

/// The merge state shared by every [`ShardedHandle`]: gathering the
/// per-shard snapshots and merging them happens under one lock, which
/// both serializes merges (making published epoch vectors pointwise
/// monotone) and caches the result — readers at the same shard state pay
/// an `Arc` clone, not a re-merge.
#[derive(Debug)]
struct Merger {
    k: usize,
    r: usize,
    cache: Mutex<Option<Arc<AggregateSnapshot>>>,
    /// Reads served by the cached merge (an `Arc` clone). Lives in the
    /// group's metrics registry as `rms_shard_merge_hits_total`, and is
    /// exposed as `merge_hits=` in `STATS` so the epoch-vector cache's
    /// effectiveness is observable from outside.
    hits: Counter,
    /// Reads that had to re-merge because some shard published a new
    /// epoch (`rms_shard_merge_misses_total` / `merge_misses=`).
    misses: Counter,
}

impl Merger {
    fn snapshot(&self, shards: &[crate::RmsHandle]) -> Arc<AggregateSnapshot> {
        let mut guard = recover_poisoned(self.cache.lock());
        let snaps: Vec<Arc<ResultSnapshot>> = shards.iter().map(|h| h.snapshot()).collect();
        if let Some(cached) = guard.as_ref() {
            if snaps.iter().zip(&cached.epochs).all(|(s, &e)| s.epoch == e) {
                self.hits.inc();
                return Arc::clone(cached);
            }
        }
        self.misses.inc();
        let merged = Arc::new(self.merge(&snaps));
        *guard = Some(Arc::clone(&merged));
        merged
    }

    fn merge(&self, snaps: &[Arc<ResultSnapshot>]) -> AggregateSnapshot {
        let mut stats = ServiceStats::default();
        let mut union: Vec<Point> = Vec::new();
        let mut len = 0;
        let mut m = 0;
        let mut mrr: Option<f64> = None;
        for snap in snaps {
            stats.absorb(&snap.stats);
            union.extend(snap.result.iter().cloned());
            len += snap.len;
            m += snap.m;
            if let Some(v) = snap.mrr {
                mrr = Some(mrr.map_or(v, |w: f64| w.max(v)));
            }
        }
        // Shards own disjoint id partitions, so the union is dup-free;
        // it only needs trimming when it exceeds the budget.
        let mut result = if union.len() > self.r {
            GreedyStar {
                samples: TRIM_SAMPLES,
                seed: TRIM_SEED,
            }
            .compute(&[], &union, self.k, self.r)
        } else {
            union
        };
        result.sort_unstable_by_key(Point::id);
        AggregateSnapshot {
            epochs: snaps.iter().map(|s| s.epoch).collect(),
            result,
            len,
            m,
            mrr,
            stats,
        }
    }
}

/// A cheap, cloneable client of a running [`ShardedRmsService`]:
/// mutations route to their id's shard, reads return the merged
/// [`AggregateSnapshot`]. Mirrors [`RmsHandle`](crate::RmsHandle).
#[derive(Debug, Clone)]
pub struct ShardedHandle {
    shards: Vec<crate::RmsHandle>,
    merger: Arc<Merger>,
}

impl ShardedHandle {
    fn shard_of(&self, op: &Op) -> usize {
        (op.id() % self.shards.len() as u64) as usize
    }

    /// Routes one operation to its id's shard, blocking on that shard's
    /// backpressure. Per-id ordering is preserved: one id always maps to
    /// one shard queue.
    pub fn submit(&self, op: Op) -> Result<(), SubmitError> {
        self.shards[self.shard_of(&op)].submit(op)
    }

    /// Non-blocking [`ShardedHandle::submit`].
    pub fn try_submit(&self, op: Op) -> Result<(), SubmitError> {
        self.shards[self.shard_of(&op)].try_submit(op)
    }

    /// The merged view of every shard's most recent snapshot. Merges are
    /// cached by epoch vector, so steady-state reads cost the gather (one
    /// `Arc` clone per shard) plus a lock; a fresh merge runs only after
    /// some shard published a new epoch.
    pub fn snapshot(&self) -> Arc<AggregateSnapshot> {
        self.merger.snapshot(&self.shards)
    }

    /// Total operations queued across all shards.
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|h| h.queue_depth()).sum()
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Aggregate-merge cache counters `(hits, misses)` since start.
    pub fn merge_cache_stats(&self) -> (u64, u64) {
        (self.merger.hits.value(), self.merger.misses.value())
    }

    /// Subscribes to the group's merged delta stream.
    ///
    /// Every shard applier funnels its publish signal into one channel; a
    /// router thread then re-merges through the (serialized, cached)
    /// merge path and pushes the diff between consecutive merged states.
    /// Bursts coalesce — a subscriber sees a gap-free chain of
    /// [`SnapshotDelta`]s over merged states, not one delta per shard
    /// epoch. The stream closes when every shard has shut down (after a
    /// final catch-up merge) or the receiver is dropped.
    pub fn watch(&self) -> DeltaReceiver {
        let (signal_tx, signal_rx) = channel();
        for shard in &self.shards {
            // Signal-only registration: the router diffs merged
            // snapshots itself, so the shard appliers never compute a
            // per-shard delta on its behalf (and can never double-apply).
            let _ = shard.watch_signal(signal_tx.clone());
        }
        drop(signal_tx);
        // The base merge runs *after* registration: anything published
        // before it is already in the base, anything after wakes the
        // router and shows up as a delta.
        let handle = self.clone();
        let base = self.merger.snapshot(&self.shards);
        let (tx, rx) = channel();
        let mut prev = Arc::clone(&base);
        let router = move || {
            loop {
                let closed = signal_rx.recv().is_err();
                // Coalesce the burst: one merge covers every signal
                // drained here.
                while signal_rx.try_recv().is_ok() {}
                let cur = handle.merger.snapshot(&handle.shards);
                if cur.epochs != prev.epochs {
                    if tx.send(cur.delta_from(&prev)).is_err() {
                        return; // subscriber hung up
                    }
                    prev = cur;
                }
                if closed {
                    return; // every shard shut down; final merge done
                }
            }
        };
        if std::thread::Builder::new()
            .name("rms-delta-router".into())
            .spawn(router)
            .is_err()
        {
            // Spawn failure: fall back to an already-closed stream (the
            // sender side was moved into the failed closure and dropped).
        }
        DeltaReceiver::new(rx, BackendView::Merged(base))
    }
}

/// `S` independent [`RmsService`]s behind an id-partitioning router.
///
/// Each shard owns the tuples with `id % S == shard_index`: its own
/// engine, applier thread, ingestion queue, and (when WAL-backed) its
/// own log. Ingestion scales with shards because the per-op maintenance
/// cost lands on `S` applier threads instead of one; reads stay
/// non-blocking through the merged snapshot cache.
///
/// The caller is responsible for routing *initial* data and operations
/// consistently — both happen automatically through
/// [`ShardedRmsService::start`] (which partitions the initial dataset)
/// and [`ShardedHandle::submit`] (which routes by id).
#[derive(Debug)]
pub struct ShardedRmsService {
    services: Vec<RmsService>,
    handle: ShardedHandle,
    registry: Arc<Registry>,
}

impl ShardedRmsService {
    /// Starts `shards` services over an id-partition of `initial`, each
    /// configured from the same `builder` and `cfg`.
    pub fn start(
        builder: FdRmsBuilder,
        initial: Vec<Point>,
        cfg: ServeConfig,
        shards: usize,
    ) -> Result<Self, ServeError> {
        Self::start_inner(builder, initial, cfg, shards, None)
    }

    /// [`ShardedRmsService::start`] with crash durability: shard `i`
    /// opens (and replays) a write-ahead log at `<wal_base>.<i>`. See
    /// [`RmsService::start_with_wal`] for the per-shard contract.
    ///
    /// The partition key is baked into the log file names, so the group
    /// records its shard count in a `<wal_base>.meta` sidecar and
    /// refuses to start against logs written with a different count —
    /// silently opening 2 of 3 logs (or re-partitioning recovered
    /// tuples under a different modulus) would lose or duplicate
    /// acknowledged data.
    pub fn start_with_wal(
        builder: FdRmsBuilder,
        initial: Vec<Point>,
        cfg: ServeConfig,
        shards: usize,
        wal_base: &Path,
    ) -> Result<Self, ServeError> {
        Self::start_inner(builder, initial, cfg, shards, Some(wal_base))
    }

    fn start_inner(
        builder: FdRmsBuilder,
        initial: Vec<Point>,
        cfg: ServeConfig,
        shards: usize,
        wal_base: Option<&Path>,
    ) -> Result<Self, ServeError> {
        if shards == 0 {
            return Err(ServeError::Engine(fdrms::FdRmsError::InvalidParameter(
                "shard count must be positive".into(),
            )));
        }
        if let Some(base) = wal_base {
            check_wal_shard_meta(base, shards).map_err(ServeError::Wal)?;
        }
        let mut partitions: Vec<Vec<Point>> = (0..shards).map(|_| Vec::new()).collect();
        for p in initial {
            partitions[(p.id() % shards as u64) as usize].push(p);
        }
        // One registry for the whole group: every shard's families carry
        // a `shard="N"` label, so one exposition covers the group.
        let registry = Arc::new(Registry::new());
        let mut services = Vec::with_capacity(shards);
        for (i, part) in partitions.into_iter().enumerate() {
            let service = match wal_base {
                None => RmsService::start_labeled(builder, part, cfg, &registry, Some(i))?,
                Some(base) => {
                    let mut path = base.as_os_str().to_os_string();
                    path.push(format!(".{i}"));
                    RmsService::start_with_wal_labeled(
                        builder,
                        part,
                        cfg,
                        &PathBuf::from(path),
                        &registry,
                        Some(i),
                    )?
                }
            };
            services.push(service);
        }
        if let Some(base) = wal_base {
            // Recorded only now, with every shard's log open: a failed
            // startup must not pin a shard count nothing was written
            // under.
            record_wal_shard_meta(base, shards).map_err(ServeError::Wal)?;
        }
        let merger = Arc::new(Merger {
            k: services[0].k(),
            r: services[0].r(),
            cache: Mutex::new(None),
            hits: registry.register_counter(
                "rms_shard_merge_hits_total",
                "Merged-snapshot reads served from the epoch-vector cache.",
                &[],
            ),
            misses: registry.register_counter(
                "rms_shard_merge_misses_total",
                "Merged-snapshot reads that re-merged after a shard published.",
                &[],
            ),
        });
        let handle = ShardedHandle {
            shards: services.iter().map(RmsService::handle).collect(),
            merger,
        };
        Ok(Self {
            services,
            handle,
            registry,
        })
    }

    /// A new cloneable client handle.
    pub fn handle(&self) -> ShardedHandle {
        self.handle.clone()
    }

    /// The group-wide metrics registry: per-shard applier/WAL families
    /// (labeled `shard="N"`) plus the merge-cache counters.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// See [`ShardedHandle::snapshot`].
    pub fn snapshot(&self) -> Arc<AggregateSnapshot> {
        self.handle.snapshot()
    }

    /// See [`ShardedHandle::submit`].
    pub fn submit(&self, op: Op) -> Result<(), SubmitError> {
        self.handle.submit(op)
    }

    /// The configured tuple dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.services[0].dim()
    }

    /// The configured rank depth `k`.
    pub fn k(&self) -> usize {
        self.services[0].k()
    }

    /// The configured result size budget `r` (per shard and for the
    /// merged aggregate).
    pub fn r(&self) -> usize {
        self.services[0].r()
    }

    /// See [`ShardedHandle::watch`].
    pub fn watch(&self) -> DeltaReceiver {
        self.handle.watch()
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.services.len()
    }

    /// Gracefully shuts every shard down in turn (each drains its
    /// acknowledged ops and compacts its log) and returns the per-shard
    /// engines, indexed by shard.
    pub fn shutdown(self) -> Vec<FdRms> {
        self.services
            .into_iter()
            .map(RmsService::shutdown)
            .collect()
    }

    /// Durability-testing hook: stop every shard as an unclean kill
    /// would — no drain, no WAL compaction. See [`RmsService::crash`].
    pub fn crash(self) {
        for service in self.services {
            service.crash();
        }
    }
}
