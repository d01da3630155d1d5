//! The ingestion service: a dedicated applier thread over a bounded op
//! queue, publishing immutable snapshots after every coalesced batch,
//! with an optional write-ahead log for crash durability.

use crate::snapshot::{ResultSnapshot, ServiceStats, SnapshotCell, SnapshotDelta};
use crate::sync::recover_poisoned;
use crate::wal::{Wal, WalSyncHandle};
use fdrms::{FdRms, FdRmsBuilder, FdRmsError, Op};
use rms_eval::RegretEstimator;
use rms_geom::Point;
use rms_metrics::{Counter, Gauge, Histogram, Registry};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, RecvError, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The watcher registry shared by handles (which register) and the
/// applier (which broadcasts per publish and prunes dead watchers).
/// Registration reads the snapshot cell *under this lock*, and the
/// applier swaps the cell and broadcasts under it too, so a watcher's
/// base snapshot and its first delta always line up gap-free.
type WatcherRegistry = Arc<Mutex<Vec<Sender<SnapshotDelta>>>>;

/// The receiving end of a delta subscription ([`RmsHandle::watch`]): the
/// starting [`ResultSnapshot`] plus a stream of [`SnapshotDelta`]s that
/// apply on top of it, pushed by the applier at publish time (no
/// polling). The stream is *gap-free*: the first delta's `from_version`
/// equals the base snapshot's epoch and each subsequent delta continues
/// where the previous ended. It closes when the applier exits (the
/// service shuts down, or the applier panics) or the receiver is
/// dropped.
///
/// Delivery is unbounded-buffered: a subscriber that stops receiving
/// accumulates pending deltas (each at most `2r` entries) until it is
/// dropped — it can never stall the applier.
#[derive(Debug)]
pub struct DeltaReceiver {
    rx: Receiver<SnapshotDelta>,
    base: Arc<ResultSnapshot>,
}

impl DeltaReceiver {
    /// The published snapshot the delta stream starts from.
    pub fn base(&self) -> &Arc<ResultSnapshot> {
        &self.base
    }

    /// Blocks for the next delta; `Err` means the stream closed (the
    /// service shut down).
    pub fn recv(&self) -> Result<SnapshotDelta, RecvError> {
        self.rx.recv()
    }

    /// Non-blocking [`DeltaReceiver::recv`].
    pub fn try_recv(&self) -> Result<SnapshotDelta, TryRecvError> {
        self.rx.try_recv()
    }

    /// [`DeltaReceiver::recv`] with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<SnapshotDelta, RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }

    /// Iterates deltas until the stream closes.
    pub fn iter(&self) -> impl Iterator<Item = SnapshotDelta> + '_ {
        self.rx.iter()
    }
}

/// Instrument handles for one service instance, registered once at
/// start against the service's [`Registry`]: the applier owns the
/// batch/publish instruments, client handles carry the WAL append
/// counters. They are the one store of the service's counters; the
/// published [`ServiceStats`] is read back from them.
#[derive(Debug, Clone)]
pub(crate) struct ServiceMetrics {
    /// `rms_applier_queue_depth` — refreshed at every publish.
    queue_depth: Gauge,
    /// `rms_applier_batch_ops` — coalesced ops per `apply_batch` call.
    batch_ops: Histogram,
    /// `rms_applier_apply_seconds` — wall clock per coalesced batch; its
    /// `_count` is `STATS`' `batches`.
    apply_seconds: Histogram,
    /// `rms_applier_publish_seconds` — snapshot build + delta fan-out.
    publish_seconds: Histogram,
    /// `rms_applier_snapshot_publishes_total`.
    publishes: Counter,
    /// `rms_applier_ops_applied_total`.
    ops_applied: Counter,
    /// `rms_applier_ops_rejected_total`.
    ops_rejected: Counter,
    /// `rms_applier_replayed_batches_total` — coalesced batches the
    /// engine rejected atomically and the per-op replay salvaged.
    replayed_batches: Counter,
    /// `rms_wal_appends_total` — frames appended by submitters, one
    /// `write` each.
    wal_appends: Counter,
    /// `rms_wal_errors_total{op="append"}` — frames the log refused.
    wal_append_errors: Counter,
    /// `rms_wal_errors_total{op="fsync"}` — failed group commits.
    wal_fsync_errors: Counter,
    /// `rms_wal_errors_total{op="checkpoint"}` — failed compactions.
    wal_checkpoint_errors: Counter,
    /// `rms_wal_fsync_seconds` — its `_count` is the fsync count.
    wal_fsync_seconds: Histogram,
    /// `rms_wal_recovered_ops_total` — ops accepted during replay.
    wal_recovered_ops: Counter,
    /// `rms_wal_truncated_tail_bytes_total` — torn bytes dropped at open.
    wal_truncated_bytes: Counter,
}

impl ServiceMetrics {
    /// Registers the applier/WAL families (unlabeled, but for
    /// `rms_wal_errors_total`'s `op`).
    pub(crate) fn register(registry: &Registry) -> Self {
        let l = &[];
        let wal_errors = |op: &str| {
            registry.register_counter(
                "rms_wal_errors_total",
                "Write-ahead log failures, by operation: `append` counts refused frames, \
                 `fsync` failed group commits, `checkpoint` failed compactions.",
                &[("op", op)],
            )
        };
        ServiceMetrics {
            queue_depth: registry.register_gauge(
                "rms_applier_queue_depth",
                "Operations queued behind the applier (sampled at publish).",
                l,
            ),
            batch_ops: registry.register_histogram_values(
                "rms_applier_batch_ops",
                "Operations coalesced into one apply_batch call.",
                l,
            ),
            apply_seconds: registry.register_histogram(
                "rms_applier_apply_seconds",
                "Wall-clock latency of one coalesced batch apply.",
                l,
            ),
            publish_seconds: registry.register_histogram(
                "rms_applier_publish_seconds",
                "Wall-clock latency of one snapshot publish (build plus delta fan-out).",
                l,
            ),
            publishes: registry.register_counter(
                "rms_applier_snapshot_publishes_total",
                "Snapshots published by the applier.",
                l,
            ),
            ops_applied: registry.register_counter(
                "rms_applier_ops_applied_total",
                "Operations the engine accepted.",
                l,
            ),
            ops_rejected: registry.register_counter(
                "rms_applier_ops_rejected_total",
                "Operations validation rejected.",
                l,
            ),
            replayed_batches: registry.register_counter(
                "rms_applier_replayed_batches_total",
                "Coalesced batches rejected atomically and salvaged by the per-op replay.",
                l,
            ),
            wal_appends: registry.register_counter(
                "rms_wal_appends_total",
                "Write-ahead log writes: one per request or BATCH frame.",
                l,
            ),
            wal_append_errors: wal_errors("append"),
            wal_fsync_errors: wal_errors("fsync"),
            wal_checkpoint_errors: wal_errors("checkpoint"),
            wal_fsync_seconds: registry.register_histogram(
                "rms_wal_fsync_seconds",
                "Write-ahead log group-commit fsync latency.",
                l,
            ),
            wal_recovered_ops: registry.register_counter(
                "rms_wal_recovered_ops_total",
                "Logged operations accepted during crash replay.",
                l,
            ),
            wal_truncated_bytes: registry.register_counter(
                "rms_wal_truncated_tail_bytes_total",
                "Torn-tail bytes truncated from the write-ahead log at open.",
                l,
            ),
        }
    }

    /// The counters [`ServiceStats`] copies from the registry. The three
    /// values no instrument holds stay zero here; the applier fills them
    /// in ([`Applier::stats`]).
    fn stats(&self) -> ServiceStats {
        ServiceStats {
            ops_applied: self.ops_applied.value(),
            ops_rejected: self.ops_rejected.value(),
            batches: self.apply_seconds.count(),
            replayed_batches: self.replayed_batches.value(),
            wal_recovered_ops: self.wal_recovered_ops.value(),
            total_apply_ms: self.apply_seconds.sum_ns() as f64 / 1e6,
            ..ServiceStats::default()
        }
    }
}

/// Tuning knobs for [`RmsService`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Capacity of the bounded ingestion queue. A full queue blocks
    /// [`RmsHandle::submit`] (backpressure) until the applier drains.
    pub queue_capacity: usize,
    /// Upper bound on the ops coalesced into one `apply_batch` call. The
    /// actual batch size adapts to load: whatever is queued when the
    /// applier comes around, up to this cap.
    pub max_batch: usize,
    /// Monte-Carlo test directions for the published max-regret-ratio
    /// estimate; `0` (the default) disables estimation — it costs
    /// `O(directions × n)` per refresh.
    pub mrr_directions: usize,
    /// Refresh the regret estimate every this many epochs (when
    /// `mrr_directions > 0`).
    pub mrr_every: u64,
    /// Seed for the regret estimator's test directions.
    pub mrr_seed: u64,
    /// When serving with a write-ahead log
    /// ([`RmsService::start_with_wal`]): `fsync` the log once per
    /// coalesced batch (group commit), after the batch applies and
    /// before its snapshot publishes. Off, the log still survives a
    /// process kill (records reach the OS before acknowledgement) but
    /// not a power failure; on, every op a published snapshot holds is
    /// on stable storage, since an op is queued only after its record
    /// is appended, at the cost of one `fdatasync` per batch. The
    /// acknowledgement itself does not wait for that commit.
    pub wal_fsync: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            max_batch: 512,
            mrr_directions: 0,
            mrr_every: 16,
            mrr_seed: 0xE7A1,
            wal_fsync: false,
        }
    }
}

/// Why starting a WAL-backed service failed.
#[derive(Debug)]
pub enum ServeError {
    /// Engine construction or replay-base validation failed.
    Engine(FdRmsError),
    /// The write-ahead log could not be opened, scanned, or created.
    Wal(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "engine: {e}"),
            ServeError::Wal(e) => write!(f, "write-ahead log: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<FdRmsError> for ServeError {
    fn from(e: FdRmsError) -> Self {
        ServeError::Engine(e)
    }
}

/// Why a submission failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The service has shut down; the operation (returned) was not
    /// enqueued.
    Disconnected(Op),
    /// [`RmsHandle::try_submit`] only: the queue is at capacity; the
    /// operation (returned) was not enqueued.
    Full(Op),
    /// The write-ahead log refused the operation's record (the `String`
    /// says why); the operation (returned) was neither logged nor
    /// enqueued.
    LogFailed(Op, String),
    /// The applier thread panicked (an engine invariant failure), so the
    /// service takes no more writes; the operation (returned) was not
    /// enqueued.
    ApplierFailed(Op),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let why = match self {
            SubmitError::Disconnected(_) => Refusal::Disconnected,
            SubmitError::Full(_) => Refusal::Full,
            SubmitError::LogFailed(_, why) => Refusal::LogFailed(why.clone()),
            SubmitError::ApplierFailed(_) => Refusal::ApplierFailed,
        };
        why.fmt(f)
    }
}

impl std::error::Error for SubmitError {}

/// Why the queue refused a frame ([`RmsHandle::enqueue`]), which comes
/// back whole with it. Its text is the wire `ERR` reason, and a one-op
/// frame's refusal is the matching [`SubmitError`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Refusal {
    Disconnected,
    Full,
    LogFailed(String),
    ApplierFailed,
}

impl Refusal {
    /// The refusal of a one-op frame, handing its op back.
    fn with_op(self, op: Op) -> SubmitError {
        match self {
            Refusal::Disconnected => SubmitError::Disconnected(op),
            Refusal::Full => SubmitError::Full(op),
            Refusal::LogFailed(why) => SubmitError::LogFailed(op, why),
            Refusal::ApplierFailed => SubmitError::ApplierFailed(op),
        }
    }
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Refusal::Disconnected => write!(f, "service has shut down"),
            Refusal::Full => write!(f, "ingestion queue is full"),
            Refusal::LogFailed(why) => write!(f, "write-ahead log append failed: {why}"),
            Refusal::ApplierFailed => {
                write!(
                    f,
                    "applier thread panicked; the service takes no more writes"
                )
            }
        }
    }
}

/// What the ingestion lock guards.
#[derive(Debug)]
struct Queue {
    /// Acknowledged ops the applier has not taken yet, in log order.
    ops: VecDeque<Op>,
    /// Set when shutdown begins, on [`RmsService::crash`] and when the
    /// applier exits: every later submission is refused.
    closed: bool,
    /// Set by [`RmsService::crash`]: the applier stops at once, with no
    /// drain, no final snapshot and no compaction, as an unclean kill
    /// would.
    crashed: bool,
    /// Set when the applier exits by a panic: later submissions are
    /// refused with [`SubmitError::ApplierFailed`], which names it.
    failed: bool,
    /// The write-ahead log, on a WAL-backed service. Compaction takes it
    /// out once the queue is closed.
    wal: Option<Wal>,
}

/// The ingestion queue shared by handles, which enqueue, and the
/// applier, which takes. One mutex orders enqueue, log append and take
/// (see [`RmsHandle::enqueue`] and [`Applier::next_batch`]); the applier
/// waits on `ready` while the queue is empty and open.
#[derive(Debug)]
struct Ingest {
    queue: Mutex<Queue>,
    ready: Condvar,
    capacity: usize,
    /// Whether submissions carry a log record, so handles frame it
    /// before they take the lock.
    logged: bool,
}

/// How intake ends ([`Ingest::close`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Close {
    /// Shutdown: the applier drains what is queued.
    Drain,
    /// [`RmsService::crash`]: the applier stops without draining.
    Crash,
    /// The applier is unwinding from a panic.
    Fail,
}

impl Ingest {
    /// Ends intake: every later submission is refused, and the applier
    /// wakes to drain what is queued or, on a crash, to stop without
    /// draining.
    fn close(&self, how: Close) {
        let mut queue = recover_poisoned(self.queue.lock());
        queue.closed = true;
        queue.crashed |= how == Close::Crash;
        queue.failed |= how == Close::Fail;
        drop(queue);
        self.ready.notify_one();
    }

    /// Ops queued and not yet taken by the applier.
    fn depth(&self) -> usize {
        recover_poisoned(self.queue.lock()).ops.len()
    }
}

/// The applier's wake for one admitted frame, deferred until this guard
/// drops. It holds the ingest state only when the frame went into an
/// empty queue, the one state the applier waits in. The TCP front end
/// drops it once the frame's ack is on the connection, so the woken
/// applier does not run ahead of the reply. A late wake loses nothing:
/// [`Applier::next_batch`] checks the queue under the lock before it
/// waits.
#[derive(Debug)]
#[must_use = "dropping the guard wakes the applier"]
pub(crate) struct Wake(Option<Arc<Ingest>>);

impl Drop for Wake {
    fn drop(&mut self) {
        if let Some(ingest) = &self.0 {
            ingest.ready.notify_one();
        }
    }
}

/// A cheap, cloneable client of a running [`RmsService`]: submit
/// operations (blocking or not) and read published snapshots. Handles
/// outlive the service gracefully — submissions after shutdown return
/// [`SubmitError::Disconnected`] (or [`SubmitError::ApplierFailed`] once
/// the applier has panicked), snapshot reads keep returning the last
/// published state.
#[derive(Debug, Clone)]
pub struct RmsHandle {
    ingest: Arc<Ingest>,
    cell: Arc<SnapshotCell>,
    watchers: WatcherRegistry,
    wal_appends: Counter,
    wal_append_errors: Counter,
}

impl RmsHandle {
    /// [`RmsHandle::try_submit`] retried while the queue is full: blocks
    /// out backpressure, backing off 100 µs between attempts, and
    /// returns `Ok` or any other refusal (with the op).
    ///
    /// A submitter waiting out backpressure holds no place in the queue:
    /// once shutdown begins, its next attempt is refused rather than
    /// applied.
    pub fn submit(&self, op: Op) -> Result<(), SubmitError> {
        // Framed once, outside the lock; the back-off runs outside it too.
        let records = self.records(std::slice::from_ref(&op));
        let mut frame = [op];
        loop {
            match self.enqueue(frame, &records) {
                // The wake drops here, before the return.
                Ok(_) => return Ok(()),
                Err((back, Refusal::Full)) => {
                    frame = back;
                    // Backpressure: the queue drains at applier-batch
                    // cadence (milliseconds), so a sub-millisecond poll
                    // wastes neither latency nor CPU.
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(([op], why)) => return Err(why.with_op(op)),
            }
        }
    }

    /// Enqueues one operation, as a one-op frame, without waiting:
    /// [`SubmitError::Full`] returns the op when the queue is at
    /// capacity, [`SubmitError::Disconnected`] once shutdown has begun,
    /// [`SubmitError::ApplierFailed`] once the applier has panicked, and
    /// [`SubmitError::LogFailed`] when a WAL-backed service cannot append
    /// its record. `Ok` means the operation *will* be applied — a
    /// graceful shutdown drains every acknowledged op — and, on a
    /// WAL-backed service, that it is on the log, in the order the
    /// applier applies it, before this returns. A refused op is never
    /// logged: recovery must not replay ops the caller knows were
    /// rejected.
    ///
    /// The application itself is asynchronous; a later
    /// [`RmsHandle::snapshot`] whose stats show it absorbed reflects it.
    pub fn try_submit(&self, op: Op) -> Result<(), SubmitError> {
        let records = self.records(std::slice::from_ref(&op));
        self.enqueue([op], &records)
            .map(drop)
            .map_err(|([op], why)| why.with_op(op))
    }

    /// A frame's log records for [`RmsHandle::enqueue`], encoded before
    /// the lock: the ops' records back to back on a WAL-backed service,
    /// nothing without a log.
    pub(crate) fn records(&self, ops: &[Op]) -> Vec<u8> {
        if self.ingest.logged {
            Wal::frame_ops(ops)
        } else {
            Vec::new()
        }
    }

    /// The one ingestion critical section, over one frame: a `BATCH`'s
    /// ops, or the one op of a one-line verb or a `try_submit`. Under
    /// the queue lock it checks once that intake is open and that the
    /// queue holds fewer than `queue_capacity` ops, appends the frame's
    /// `records` to the log in one write, and only then queues every op.
    /// The applier takes ops under the same lock
    /// ([`Applier::next_batch`]), so log order equals queue order equals
    /// apply order, even when threads race conflicting ops on the same
    /// id, and recovery replays exactly the serialization the live
    /// service applied. No op reaches the applier before its record is
    /// on the log, so the group commit after a batch applies covers every
    /// op in it. A refused frame comes back whole with its [`Refusal`],
    /// neither logged nor queued: a failed append truncates the log back
    /// to its last intact record.
    ///
    /// Any frame is admitted below capacity, so the queue overruns its
    /// bound by at most one frame and a frame larger than the bound is
    /// never starved. The applier is not woken here: the returned
    /// [`Wake`] wakes it when dropped, if the queue was empty before.
    pub(crate) fn enqueue<F>(&self, ops: F, records: &[u8]) -> Result<Wake, (F, Refusal)>
    where
        F: IntoIterator<Item = Op>,
    {
        let mut queue = recover_poisoned(self.ingest.queue.lock());
        if queue.closed {
            let why = if queue.failed {
                Refusal::ApplierFailed
            } else {
                Refusal::Disconnected
            };
            return Err((ops, why));
        }
        if queue.ops.len() >= self.ingest.capacity {
            return Err((ops, Refusal::Full));
        }
        if let Some(wal) = queue.wal.as_mut() {
            if let Err(e) = wal.append_frame(records) {
                self.wal_append_errors.inc();
                return Err((ops, Refusal::LogFailed(e.to_string())));
            }
            self.wal_appends.inc();
        }
        let was_empty = queue.ops.is_empty();
        queue.ops.extend(ops);
        // The applier waits only on an empty queue.
        let wake = was_empty && !queue.ops.is_empty();
        Ok(Wake(wake.then(|| Arc::clone(&self.ingest))))
    }

    /// Subscribes to the service's delta stream: the returned receiver
    /// carries the current snapshot as its base plus every subsequent
    /// [`SnapshotDelta`], computed and pushed by the applier at publish
    /// time. The stream closes when the applier exits, on shutdown or on
    /// a panic; registration after that yields an already-closed stream.
    pub fn watch(&self) -> DeltaReceiver {
        let (tx, rx) = channel();
        // Registration reads the base under the registry lock, so the
        // base snapshot and the first delta line up gap-free.
        let mut watchers = recover_poisoned(self.watchers.lock());
        let base = self.cell.load();
        // An exited applier has dropped every watcher (`CloseOnExit`);
        // registering would leak a never-closing stream. Dropping the
        // sender instead closes the subscriber's receiver immediately.
        if !recover_poisoned(self.ingest.queue.lock()).closed {
            watchers.push(tx);
        }
        DeltaReceiver { rx, base }
    }

    /// The most recently published snapshot. Never blocks on the applier:
    /// the call clones an `Arc` out of the publication cell, whose lock
    /// is held only across pointer swaps.
    pub fn snapshot(&self) -> Arc<ResultSnapshot> {
        self.cell.load()
    }

    /// Operations queued and not yet taken up by the applier.
    pub fn queue_depth(&self) -> usize {
        self.ingest.depth()
    }
}

/// A running FD-RMS instance behind an ingestion queue.
///
/// The engine lives on a dedicated applier thread fed by a bounded op
/// queue. The applier drains whatever is queued (up to
/// [`ServeConfig::max_batch`]) into one [`FdRms::apply_batch`] call — so
/// batch sizes adapt to load, amortising maintenance exactly where the
/// batch engine makes it cheap — and after every batch publishes an
/// immutable [`ResultSnapshot`] behind a swapped `Arc`. Any number of
/// readers call [`RmsService::snapshot`] concurrently without ever
/// blocking ingestion (and vice versa).
///
/// A batch containing an invalid operation is rejected atomically by the
/// engine; the applier then replays that batch one op at a time, so one
/// bad op costs only itself — its batch-mates still apply ([`ServiceStats`]
/// counts `ops_rejected`, and the whole salvage counts as **one** logical
/// batch, tallied in `replayed_batches`).
///
/// Started via [`RmsService::start_with_wal`], every acknowledged op is
/// also framed into a [write-ahead log](crate::wal) before the
/// acknowledgement, replayed by the next start after an unclean death.
#[derive(Debug)]
pub struct RmsService {
    handle: RmsHandle,
    applier: Option<JoinHandle<FdRms>>,
    registry: Arc<Registry>,
    dim: usize,
    k: usize,
    r: usize,
}

impl RmsService {
    /// Builds the engine from `builder` + `initial` (synchronously, so
    /// configuration errors surface here), publishes the epoch-0
    /// snapshot, and starts the applier thread. Instruments register
    /// into a fresh [`Registry`]; read it back via
    /// [`RmsService::registry`].
    pub fn start(
        builder: FdRmsBuilder,
        initial: Vec<Point>,
        cfg: ServeConfig,
    ) -> Result<Self, FdRmsError> {
        let fd = builder.build(initial)?;
        let registry = Registry::new();
        let metrics = ServiceMetrics::register(&registry);
        Ok(Self::spawn(fd, cfg, None, None, registry, metrics))
    }

    /// [`RmsService::start`] with crash durability: opens (or creates)
    /// the write-ahead log at `wal_path`, replays whatever a previous
    /// unclean death left there — the log's last checkpoint, if any,
    /// supersedes `initial` as the replay base; ops after it are applied
    /// one batch at a time with the per-op salvage fallback, and the
    /// accepted count is published as `wal_recovered_ops` — and only then
    /// goes live. From then on every acknowledged op is appended to the
    /// log before its acknowledgement, and a graceful [`RmsService::
    /// shutdown`] compacts the log to a checkpoint of the final state.
    ///
    /// Replay is idempotent over checkpoints: a logged op whose effect is
    /// already in the checkpoint re-applies as a rejection or attribute
    /// no-op, never as corruption.
    ///
    /// Log order equals apply order (see [`RmsHandle::try_submit`]), so
    /// recovery replays exactly the serialization the live service
    /// applied, pinned by `tests/wal.rs::
    /// contended_id_recovery_matches_live_outcome`.
    ///
    /// A `<wal_path>.meta` sidecar is refused: the shard groups of
    /// earlier builds wrote one next to their per-shard logs
    /// `<wal_path>.<i>`. Those logs hold acknowledged ops that a fresh
    /// log at `wal_path` would silently ignore.
    pub fn start_with_wal(
        builder: FdRmsBuilder,
        initial: Vec<Point>,
        cfg: ServeConfig,
        wal_path: &Path,
    ) -> Result<Self, ServeError> {
        let mut meta = wal_path.as_os_str().to_os_string();
        meta.push(".meta");
        let meta = PathBuf::from(meta);
        if meta.exists() {
            return Err(ServeError::Wal(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "{} belongs to a sharded group (see {}): its acknowledged ops sit in \
                     per-shard logs {}.<i> that a single service cannot replay; move the old \
                     logs aside",
                    wal_path.display(),
                    meta.display(),
                    wal_path.display()
                ),
            )));
        }
        let (wal, replay) = Wal::open(wal_path).map_err(ServeError::Wal)?;
        // The group commit syncs a duplicated descriptor, so it never
        // waits on the queue lock the submitters append under.
        let wal_sync = if cfg.wal_fsync {
            Some(wal.sync_handle().map_err(ServeError::Wal)?)
        } else {
            None
        };
        let mut fd = builder.build(replay.checkpoint.unwrap_or(initial))?;
        let registry = Registry::new();
        let metrics = ServiceMetrics::register(&registry);
        for chunk in replay.ops.chunks(cfg.max_batch.max(1)) {
            // Same salvage as live ingestion: one logged-but-bad op (or
            // one made redundant by a checkpoint) costs only itself.
            let (accepted, _) = apply_salvaging(&mut fd, chunk);
            metrics.wal_recovered_ops.add(accepted as u64);
        }
        metrics.wal_truncated_bytes.add(replay.torn_bytes);
        Ok(Self::spawn(fd, cfg, Some(wal), wal_sync, registry, metrics))
    }

    fn spawn(
        fd: FdRms,
        cfg: ServeConfig,
        wal: Option<Wal>,
        wal_sync: Option<WalSyncHandle>,
        registry: Registry,
        metrics: ServiceMetrics,
    ) -> Self {
        let (dim, k, r) = (fd.dim(), fd.k(), fd.r());
        let (applier, handle) = Applier::new(fd, cfg, wal, wal_sync, metrics);
        let applier = std::thread::Builder::new()
            .name("rms-applier".into())
            .spawn(move || applier.run())
            // rms-analyze: allow(unwrap-nontest, "thread-spawn failure at service construction is unrecoverable; fail fast")
            .expect("spawn applier thread");
        Self {
            handle,
            applier: Some(applier),
            registry: Arc::new(registry),
            dim,
            k,
            r,
        }
    }

    /// The metrics registry every instrument of this service reports
    /// into (fresh per service). Front ends add their own families to it
    /// (the TCP server registers its connection and request families)
    /// and encode it for the `METRICS` verb and the `/metrics` endpoint.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// A new cloneable client handle.
    pub fn handle(&self) -> RmsHandle {
        self.handle.clone()
    }

    /// See [`RmsHandle::snapshot`].
    pub fn snapshot(&self) -> Arc<ResultSnapshot> {
        self.handle.snapshot()
    }

    /// See [`RmsHandle::watch`].
    pub fn watch(&self) -> DeltaReceiver {
        self.handle.watch()
    }

    /// See [`RmsHandle::submit`].
    pub fn submit(&self, op: Op) -> Result<(), SubmitError> {
        self.handle.submit(op)
    }

    /// The configured tuple dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The configured rank depth `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The configured result size budget `r`.
    pub fn r(&self) -> usize {
        self.r
    }

    /// Graceful shutdown: the applier drains and applies every
    /// *acknowledged* operation (every submission that returned `Ok`),
    /// publishes a final snapshot, compacts the write-ahead log (when
    /// configured) to a checkpoint of the final state, and hands the
    /// engine back (e.g. for invariant checks or persistence).
    /// Submissions racing the start of shutdown, including a `submit`
    /// still waiting out backpressure, either fail with
    /// [`SubmitError::Disconnected`] or are applied — never acknowledged
    /// and dropped.
    ///
    /// Panics if the applier thread panicked (an engine invariant
    /// failure), propagating that error.
    pub fn shutdown(mut self) -> FdRms {
        self.shutdown_inner()
            // rms-analyze: allow(unwrap-nontest, "shutdown consumes self, so the applier handle is still present")
            .expect("applier taken only by shutdown")
            // rms-analyze: allow(unwrap-nontest, "documented: shutdown() propagates an applier panic (engine invariant failure)")
            .expect("applier thread panicked")
    }

    /// Durability-testing hook: stop the service as an unclean kill
    /// would. The applier exits without draining, without publishing a
    /// final snapshot, and — crucially — **without compacting the
    /// write-ahead log**; the in-memory engine state is discarded. A
    /// subsequent [`RmsService::start_with_wal`] on the same log must
    /// recover every acknowledged op. (A real kill −9 needs no
    /// cooperation; this exists so tests can exercise the recovery path
    /// in-process.)
    pub fn crash(mut self) {
        if let Some(applier) = self.applier.take() {
            self.handle.ingest.close(Close::Crash);
            let _ = applier.join();
        }
    }

    fn shutdown_inner(&mut self) -> Option<std::thread::Result<FdRms>> {
        let applier = self.applier.take()?;
        // From here on every submission is refused, and the applier takes
        // every op already queued.
        self.handle.ingest.close(Close::Drain);
        Some(applier.join())
    }
}

impl Drop for RmsService {
    fn drop(&mut self) {
        // Unlike `shutdown`, a panicked applier is swallowed here: drops
        // run during unwinding, and a second panic would abort the
        // process and mask the original error.
        let _ = self.shutdown_inner();
    }
}

fn make_snapshot(fd: &FdRms, epoch: u64, stats: ServiceStats, mrr: Option<f64>) -> ResultSnapshot {
    ResultSnapshot {
        epoch,
        result: fd.result(),
        len: fd.len(),
        m: fd.m(),
        mrr,
        stats,
    }
}

/// Applies `batch`, and when the engine rejects it atomically (on its
/// first invalid op) replays it one op at a time, so one bad op costs
/// only itself. The ops stay borrowed — `apply_batch_slice` clones
/// nothing on the success path and the replay reads the original.
/// Returns the accepted op count and whether the per-op replay ran (a
/// rejected one-op batch is final, not replayed).
fn apply_salvaging(fd: &mut FdRms, batch: &[Op]) -> (usize, bool) {
    if fd.apply_batch_slice(batch).is_ok() {
        return (batch.len(), false);
    }
    if batch.len() == 1 {
        return (0, false);
    }
    let mut accepted = 0;
    for op in batch {
        if fd.apply_batch_slice(std::slice::from_ref(op)).is_ok() {
            accepted += 1;
        }
    }
    (accepted, true)
}

/// How the applier's wait in [`Applier::next_batch`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Intake {
    /// Ops were taken; the queue is still open.
    Open,
    /// Shutdown began: every queued op was taken, and no more can come.
    Closed,
    /// [`RmsService::crash`]: stop now, without draining.
    Crashed,
}

/// The applier thread: it owns the engine and everything a batch passes
/// through on its way to readers — the queue's taking end, the
/// publication cell, the watcher registry, the log's sync handle and the
/// instruments.
struct Applier {
    fd: FdRms,
    ingest: Arc<Ingest>,
    cell: Arc<SnapshotCell>,
    watchers: WatcherRegistry,
    /// A duplicated log descriptor for group commits, present when
    /// `wal_fsync` is on, so a commit never waits on the queue lock.
    wal_sync: Option<WalSyncHandle>,
    metrics: ServiceMetrics,
    cfg: ServeConfig,
    estimator: Option<RegretEstimator>,
    epoch: u64,
    mrr: Option<f64>,
    /// The three published values no instrument holds.
    last_batch_ops: usize,
    max_coalesced: usize,
    last_apply_ms: f64,
}

impl Applier {
    /// The applier over `fd`, with the epoch-0 snapshot published, and
    /// the handle that feeds it.
    fn new(
        fd: FdRms,
        cfg: ServeConfig,
        wal: Option<Wal>,
        wal_sync: Option<WalSyncHandle>,
        metrics: ServiceMetrics,
    ) -> (Self, RmsHandle) {
        let ingest = Arc::new(Ingest {
            logged: wal.is_some(),
            queue: Mutex::new(Queue {
                ops: VecDeque::new(),
                closed: false,
                crashed: false,
                failed: false,
                wal,
            }),
            ready: Condvar::new(),
            capacity: cfg.queue_capacity.max(1),
        });
        let first = make_snapshot(&fd, 0, metrics.stats(), None);
        let cell = Arc::new(SnapshotCell::new(first));
        let watchers = WatcherRegistry::default();
        let estimator = (cfg.mrr_directions > 0).then(|| {
            RegretEstimator::new(fd.dim(), cfg.mrr_directions.max(fd.dim()), cfg.mrr_seed)
        });
        let handle = RmsHandle {
            ingest: Arc::clone(&ingest),
            cell: Arc::clone(&cell),
            watchers: Arc::clone(&watchers),
            wal_appends: metrics.wal_appends.clone(),
            wal_append_errors: metrics.wal_append_errors.clone(),
        };
        let applier = Applier {
            fd,
            ingest,
            cell,
            watchers,
            wal_sync,
            metrics,
            cfg,
            estimator,
            epoch: 0,
            mrr: None,
            last_batch_ops: 0,
            max_coalesced: 0,
            last_apply_ms: 0.0,
        };
        (applier, handle)
    }

    /// Runs until shutdown or a simulated crash, and hands the engine
    /// back. Every exit closes the service through [`CloseOnExit`], a
    /// panic unwinding out of `serve` included.
    fn run(mut self) -> FdRms {
        let _close = CloseOnExit {
            ingest: Arc::clone(&self.ingest),
            watchers: Arc::clone(&self.watchers),
        };
        if self.serve() {
            self.compact();
        }
        self.fd
    }

    /// The take–apply–publish loop. Returns `false` on a simulated
    /// crash: no drain, no final snapshot, no compaction.
    fn serve(&mut self) -> bool {
        let max_batch = self.cfg.max_batch.max(1);
        let mut ops = Vec::new();
        loop {
            ops.clear();
            let intake = self.next_batch(&mut ops);
            if intake == Intake::Crashed {
                return false;
            }
            for chunk in ops.chunks(max_batch) {
                self.apply(chunk);
                self.group_commit();
            }
            let closed = intake == Intake::Closed;
            if !ops.is_empty() || closed {
                self.publish(closed);
            }
            if closed {
                return true;
            }
        }
    }

    /// The applier's wait-and-take step: waits while the queue is empty
    /// and open, then moves what is queued into `ops` — the adaptive
    /// batch, one op under light load and up to `max_batch` under
    /// sustained pressure, or every queued op once the queue is closed.
    /// It takes under the lock every enqueue appends under, so no op
    /// reaches the applier before its record is on the log.
    fn next_batch(&self, ops: &mut Vec<Op>) -> Intake {
        let Ingest { queue, ready, .. } = &*self.ingest;
        let queue = recover_poisoned(queue.lock());
        // rms-analyze: allow(guard-across-blocking, "the wait releases the queue lock while it is parked")
        let waited = ready.wait_while(queue, |q| q.ops.is_empty() && !q.closed);
        let mut queue = recover_poisoned(waited);
        if queue.crashed {
            return Intake::Crashed;
        }
        if queue.closed {
            ops.extend(queue.ops.drain(..));
            return Intake::Closed;
        }
        let n = queue.ops.len().min(self.cfg.max_batch.max(1));
        ops.extend(queue.ops.drain(..n));
        Intake::Open
    }

    /// Applies one coalesced batch through [`apply_salvaging`] and
    /// records it. Whether the batch applies wholesale or is salvaged
    /// per-op, it is **one** logical batch: one `apply_seconds`
    /// observation, so `batches` always equals the number of coalesced
    /// batches the applier issued and `avg_apply_ms` stays the mean
    /// wall-clock per coalesced batch, and a salvage additionally bumps
    /// `replayed_batches`.
    fn apply(&mut self, batch: &[Op]) {
        #[cfg(test)]
        assert!(
            !tests::PANIC_ON_APPLY.with(std::cell::Cell::get),
            "injected applier panic"
        );
        let n = batch.len();
        let m = &self.metrics;
        m.batch_ops.record_value(n as u64);
        let t = Instant::now();
        let (accepted, replayed) = apply_salvaging(&mut self.fd, batch);
        let elapsed = t.elapsed();
        m.apply_seconds.record(elapsed);
        m.ops_applied.add(accepted as u64);
        m.ops_rejected.add((n - accepted) as u64);
        m.replayed_batches.add(u64::from(replayed));
        self.last_batch_ops = n;
        self.max_coalesced = self.max_coalesced.max(n);
        self.last_apply_ms = elapsed.as_secs_f64() * 1e3;
    }

    /// The published counters: the registry's, plus the three values no
    /// instrument holds.
    fn stats(&self) -> ServiceStats {
        ServiceStats {
            last_batch_ops: self.last_batch_ops,
            max_coalesced: self.max_coalesced,
            last_apply_ms: self.last_apply_ms,
            ..self.metrics.stats()
        }
    }

    /// Publishes the next epoch: refreshes the regret estimate on its
    /// beat (and on the final publish), samples the queue-depth gauge,
    /// and swaps in a snapshot whose stats are read back from the
    /// registry — so `STATS` and `METRICS` read the same cells, and
    /// `STATS` stays a copy taken at publish time.
    fn publish(&mut self, last: bool) {
        self.epoch += 1;
        if let Some(est) = &self.estimator {
            if self.epoch % self.cfg.mrr_every.max(1) == 0 || last {
                let live = self.fd.live_points();
                self.mrr = Some(est.mrr(&live, &self.fd.result(), self.fd.k()));
            }
        }
        self.metrics.queue_depth.set(self.ingest.depth() as i64);
        let publish_start = Instant::now();
        let snap = Arc::new(make_snapshot(&self.fd, self.epoch, self.stats(), self.mrr));
        // The cell swap and the delta broadcast happen under the
        // registry lock, atomically with any concurrent watcher
        // registration — so every subscriber's base snapshot meets
        // its first delta gap-free.
        let mut registry = recover_poisoned(self.watchers.lock());
        let prev = self.cell.store(Arc::clone(&snap));
        if !registry.is_empty() {
            // The O(r) diff runs only when someone consumes deltas.
            let delta = snap.delta_from(&prev);
            // Watcher channels are unbounded, so these sends under
            // the registry lock never block — and the ascription
            // lets rms-analyze's channel classification know it, so
            // no pragma is needed here.
            registry.retain(|watcher: &Sender<SnapshotDelta>| watcher.send(delta.clone()).is_ok());
        }
        drop(registry);
        self.metrics.publish_seconds.record(publish_start.elapsed());
        self.metrics.publishes.inc();
    }

    /// Group commit, when `wal_fsync` is on: one `fdatasync` per
    /// coalesced batch, after it applies and before it publishes. Every
    /// op in the batch was appended before it was queued, so the commit
    /// covers every op the next snapshot holds. A failure counts into
    /// `rms_wal_errors_total{op="fsync"}`.
    fn group_commit(&self) {
        let Some(sync) = &self.wal_sync else {
            return;
        };
        let t = Instant::now();
        let result = sync.sync();
        self.metrics.wal_fsync_seconds.record(t.elapsed());
        if result.is_err() {
            self.metrics.wal_fsync_errors.inc();
        }
    }

    /// Graceful exit: compact the log to a checkpoint of the final
    /// state, bounding its size and making the next start replay-free.
    /// The queue is closed, so no submission needs the log any more: it
    /// is taken out of the queue and checkpointed without the lock.
    /// (IO failure, counted into `rms_wal_errors_total{op="checkpoint"}`,
    /// leaves the op log intact — recovery still works, the log is
    /// merely uncompacted.)
    fn compact(&self) {
        let wal = recover_poisoned(self.ingest.queue.lock()).wal.take();
        if let Some(mut wal) = wal {
            if wal.checkpoint(&self.fd.live_points()).is_err() {
                self.metrics.wal_checkpoint_errors.inc();
            }
        }
    }
}

/// Closes the service when the applier exits, whichever way it exits:
/// its `Drop` runs on a normal return and on a panic's unwind alike.
/// Without it a panicked applier would leave every delta stream open —
/// the registry's senders outlive the applier in every [`RmsHandle`] —
/// and a later [`RmsHandle::watch`] would register a stream nothing
/// ever closes.
struct CloseOnExit {
    ingest: Arc<Ingest>,
    watchers: WatcherRegistry,
}

impl Drop for CloseOnExit {
    fn drop(&mut self) {
        // The queue closes first: a `watch()` that takes the registry
        // lock after the clear below sees it closed and registers
        // nothing, and every later submission is refused, with
        // `ApplierFailed` when a panic is unwinding and `Disconnected`
        // otherwise.
        let how = if std::thread::panicking() {
            Close::Fail
        } else {
            Close::Drain
        };
        self.ingest.close(how);
        recover_poisoned(self.watchers.lock()).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Set on an applier's thread, makes its next `apply` panic, as
        /// an engine invariant failure would.
        pub(super) static PANIC_ON_APPLY: Cell<bool> = const { Cell::new(false) };
    }

    fn small_engine() -> FdRms {
        let initial: Vec<Point> = (0..20)
            .map(|i| Point::new_unchecked(i, vec![(i as f64) / 20.0, 1.0 - (i as f64) / 20.0]))
            .collect();
        FdRms::builder(2)
            .r(3)
            .max_utilities(64)
            .build(initial)
            .unwrap()
    }

    /// A WAL-backed applier and its handle over a fresh log at a
    /// per-test path, which is returned for the caller to inspect.
    fn logged_applier(name: &str) -> (Applier, RmsHandle, PathBuf) {
        logged_applier_with(name, ServeConfig::default())
    }

    /// [`logged_applier`] with a configuration of the caller's.
    fn logged_applier_with(name: &str, cfg: ServeConfig) -> (Applier, RmsHandle, PathBuf) {
        let dir = std::env::temp_dir().join("krms-service-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (wal, _) = Wal::open(&path).unwrap();
        let metrics = ServiceMetrics::register(&Registry::new());
        let (applier, handle) = Applier::new(small_engine(), cfg, Some(wal), None, metrics);
        (applier, handle, path)
    }

    fn inserts(ids: std::ops::Range<u64>) -> Vec<Op> {
        ids.map(|id| Op::Insert(Point::new_unchecked(id, vec![0.5, 0.5])))
            .collect()
    }

    fn log_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    /// No op reaches the applier before its record is on the log: a
    /// writer thread races 20 000 inserts into a logged queue while this
    /// thread takes them as the applier does, and after every take the
    /// log holds a record for each op taken so far.
    #[test]
    fn no_op_is_taken_before_its_record_is_logged() {
        const OPS: u64 = 20_000;
        let (applier, handle, path) = logged_applier("take-after-log");
        let insert = |i: u64| Op::Insert(Point::new_unchecked(1_000 + i, vec![0.5, 0.5]));
        let record = Wal::frame_op(&insert(0)).len() as u64;
        let header = log_len(&path);
        let writer = std::thread::spawn(move || {
            // Closing the queue on any exit, a panic included, ends the
            // taker's wait instead of hanging the test.
            let _close = CloseOnExit {
                ingest: Arc::clone(&handle.ingest),
                watchers: Arc::clone(&handle.watchers),
            };
            for i in 0..OPS {
                let mut op = insert(i);
                loop {
                    match handle.try_submit(op) {
                        Ok(()) => break,
                        Err(SubmitError::Full(back)) => {
                            op = back;
                            std::thread::yield_now();
                        }
                        Err(e) => panic!("submit {i}: {e}"),
                    }
                }
            }
        });
        let (mut taken, mut ops) = (0, Vec::new());
        while taken < OPS {
            ops.clear();
            let intake = applier.next_batch(&mut ops);
            taken += ops.len() as u64;
            let logged = (log_len(&path) - header) / record;
            assert!(
                logged >= taken,
                "{taken} ops taken with only {logged} records on the log"
            );
            assert!(
                intake == Intake::Open || taken == OPS,
                "the writer stopped after {taken} ops"
            );
        }
        writer.join().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    /// A failed append refuses the op: it comes back unlogged and
    /// unqueued, the log does not grow, and each refusal counts once into
    /// `rms_wal_errors_total{op="append"}`.
    #[test]
    fn failed_append_refuses_the_op() {
        let (applier, handle, path) = logged_applier("refused-append");
        let before = log_len(&path);
        let mut queue = recover_poisoned(handle.ingest.queue.lock());
        queue.wal.as_mut().unwrap().poison();
        drop(queue);
        let op = Op::Insert(Point::new_unchecked(100, vec![0.9, 0.8]));
        for refused in [handle.try_submit(op.clone()), handle.submit(op.clone())] {
            let Err(e @ SubmitError::LogFailed(back, _)) = &refused else {
                panic!("a failed append must refuse the op: {refused:?}");
            };
            assert_eq!(*back, op);
            // The text after `ERR ` on the wire.
            assert!(e.to_string().starts_with("write-ahead log append failed: "));
        }
        assert_eq!(handle.queue_depth(), 0);
        assert_eq!(log_len(&path), before);
        assert_eq!(applier.metrics.wal_append_errors.value(), 2);
        assert_eq!(applier.metrics.wal_appends.value(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// A frame is one append of its ops' records back to back: the log
    /// grows by exactly the five records, the append counter reads 1, the
    /// frame into an empty queue carries the applier's wake, the applier
    /// takes the five in order, and reopening the log replays them.
    #[test]
    fn a_frame_is_one_append_of_its_records() {
        let (applier, handle, path) = logged_applier("one-append");
        let before = log_len(&path);
        let ops = vec![
            Op::Insert(Point::new_unchecked(100, vec![0.9, 0.8])),
            Op::Delete(1),
            Op::Update(Point::new_unchecked(2, vec![0.5, 0.6])),
            Op::Insert(Point::new_unchecked(101, vec![0.7, 0.7])),
            Op::Delete(100),
        ];
        let records: u64 = ops.iter().map(|op| Wal::frame_op(op).len() as u64).sum();
        let wake = handle.enqueue(ops.clone(), &handle.records(&ops)).unwrap();
        assert!(wake.0.is_some(), "the queue was empty: the frame wakes");
        drop(wake);
        assert_eq!(log_len(&path) - before, records);
        assert_eq!(applier.metrics.wal_appends.value(), 1);
        let mut taken = Vec::new();
        assert_eq!(applier.next_batch(&mut taken), Intake::Open);
        assert_eq!(taken, ops);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.ops, ops);
        assert_eq!(replay.torn_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// A frame refused at a closed queue or at a poisoned log leaves the
    /// queue depth and the log length as they were and hands every op
    /// back.
    #[test]
    fn a_refused_frame_is_neither_logged_nor_queued() {
        for poisoned in [false, true] {
            let (_applier, handle, path) = logged_applier(if poisoned {
                "refused-frame-poisoned"
            } else {
                "refused-frame-closed"
            });
            let first = inserts(100..102);
            drop(
                handle
                    .enqueue(first.clone(), &handle.records(&first))
                    .unwrap(),
            );
            let (depth, len) = (handle.queue_depth(), log_len(&path));
            if poisoned {
                let mut queue = recover_poisoned(handle.ingest.queue.lock());
                queue.wal.as_mut().unwrap().poison();
            } else {
                handle.ingest.close(Close::Drain);
            }
            let ops = inserts(200..205);
            let (back, why) = handle
                .enqueue(ops.clone(), &handle.records(&ops))
                .unwrap_err();
            assert_eq!(back, ops);
            assert_eq!(matches!(why, Refusal::LogFailed(_)), poisoned, "{why}");
            assert_eq!(why == Refusal::Disconnected, !poisoned, "{why}");
            assert_eq!(handle.queue_depth(), depth);
            assert_eq!(log_len(&path), len);
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// A frame is admitted while the queue holds fewer than
    /// `queue_capacity` ops, whatever its size: with a bound of 4, a
    /// 10-op frame joins 3 queued ops (and, into a queue that was not
    /// empty, carries no wake), and a one-op submit after it is `Full`
    /// until the applier takes.
    #[test]
    fn a_frame_is_admitted_below_capacity_whatever_its_size() {
        let cfg = ServeConfig {
            queue_capacity: 4,
            ..ServeConfig::default()
        };
        let (applier, handle, path) = logged_applier_with("capacity", cfg);
        for op in inserts(100..103) {
            handle.try_submit(op).unwrap();
        }
        let frame = inserts(200..210);
        let wake = handle
            .enqueue(frame.clone(), &handle.records(&frame))
            .unwrap();
        assert!(wake.0.is_none(), "the queue was not empty: no wake");
        drop(wake);
        assert_eq!(handle.queue_depth(), 13);
        let late = Op::Delete(300);
        assert_eq!(
            handle.try_submit(late.clone()),
            Err(SubmitError::Full(late.clone()))
        );
        let mut taken = Vec::new();
        assert_eq!(applier.next_batch(&mut taken), Intake::Open);
        assert_eq!(taken.len(), 13);
        assert_eq!(taken[3..], frame[..]);
        handle.try_submit(late).unwrap();
        assert_eq!(applier.metrics.wal_appends.value(), 5);
        std::fs::remove_file(&path).unwrap();
    }

    /// A panicking applier closes the service on its way out: the open
    /// delta stream ends, a later `watch()` is closed from the start, and
    /// submissions are refused with an error that names the panic. None
    /// of them waits on a dead applier.
    #[test]
    fn panicked_applier_closes_every_stream() {
        let metrics = ServiceMetrics::register(&Registry::new());
        let (applier, handle) =
            Applier::new(small_engine(), ServeConfig::default(), None, None, metrics);
        let open = handle.watch();
        let thread = std::thread::spawn(move || {
            PANIC_ON_APPLY.with(|p| p.set(true));
            applier.run()
        });
        handle
            .try_submit(Op::Insert(Point::new_unchecked(100, vec![0.9, 0.8])))
            .unwrap();
        assert!(
            matches!(
                open.recv_timeout(Duration::from_secs(2)),
                Err(RecvTimeoutError::Disconnected)
            ),
            "an open stream must close when the applier panics"
        );
        assert!(
            thread.join().is_err(),
            "the injected panic unwound the applier"
        );
        let late = handle.watch();
        assert!(matches!(late.try_recv(), Err(TryRecvError::Disconnected)));
        assert_eq!(late.base().epoch, 0);
        let refused = handle.try_submit(Op::Delete(1));
        let Err(e @ SubmitError::ApplierFailed(Op::Delete(1))) = &refused else {
            panic!("a write after the panic must name it: {refused:?}");
        };
        // The text after `ERR ` on the wire.
        assert!(e.to_string().starts_with("applier thread panicked"), "{e}");
    }

    /// An atomically-rejected N-op batch used to bump `batches` N+1 times
    /// (the failed attempt plus one per replayed op), deflating
    /// `avg_apply_ms` and disagreeing with the coalescing counters. The
    /// whole salvage is one logical batch, tallied in `replayed_batches`.
    /// The stats are read from the published snapshot, so they also pin
    /// the copy `STATS` serves against the registry's cells.
    #[test]
    fn rejected_batch_counts_as_one_logical_batch() {
        let metrics = ServiceMetrics::register(&Registry::new());
        let (mut applier, handle) =
            Applier::new(small_engine(), ServeConfig::default(), None, None, metrics);

        // 4 ops, one invalid (duplicate insert): atomic rejection, per-op
        // replay salvages 3.
        let batch = vec![
            Op::Insert(Point::new_unchecked(100, vec![0.9, 0.8])),
            Op::Insert(Point::new_unchecked(0, vec![0.1, 0.2])), // id 0 is live
            Op::Delete(1),
            Op::Update(Point::new_unchecked(2, vec![0.5, 0.6])),
        ];
        applier.apply(&batch);
        applier.publish(false);
        let stats = handle.snapshot().stats;
        assert_eq!(stats.batches, 1, "salvage is one logical batch");
        assert_eq!(stats.replayed_batches, 1);
        assert_eq!(stats.ops_applied, 3);
        assert_eq!(stats.ops_rejected, 1);
        assert_eq!(stats.last_batch_ops, 4);

        // A clean batch keeps agreeing with the coalescing counters.
        applier.apply(&[Op::Insert(Point::new_unchecked(101, vec![0.7, 0.7]))]);
        applier.publish(false);
        let stats = handle.snapshot().stats;
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.replayed_batches, 1);
        assert_eq!(stats.ops_applied, 4);
        assert!(stats.avg_apply_ms() > 0.0);
        // The registry counters agree with the published stats, including
        // through the per-op salvage path, and the batch-size histogram
        // saw both coalesced sizes.
        let metrics = &applier.metrics;
        assert_eq!(metrics.ops_applied.value(), 4);
        assert_eq!(metrics.ops_rejected.value(), 1);
        assert_eq!(metrics.replayed_batches.value(), 1);
        assert_eq!(metrics.batch_ops.count(), 2);
        assert_eq!(metrics.batch_ops.sum_ns(), 5);
        assert_eq!(metrics.apply_seconds.count(), 2);
        applier.fd.check_invariants().unwrap();
    }
}
