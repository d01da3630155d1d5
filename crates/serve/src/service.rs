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
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvError, RecvTimeoutError, Sender, SyncSender, TryRecvError,
    TrySendError,
};
use std::sync::{Arc, Mutex};
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
/// where the previous ended. It closes when the service shuts down or
/// the receiver is dropped.
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
/// start against the service's [`Registry`] and cloned wherever the hot
/// paths run: the applier thread owns the batch/publish instruments,
/// client handles carry the WAL append counter.
#[derive(Debug, Clone)]
pub(crate) struct ServiceMetrics {
    /// `rms_applier_queue_depth` — refreshed at every publish.
    queue_depth: Gauge,
    /// `rms_applier_batch_ops` — coalesced ops per `apply_batch` call.
    batch_ops: Histogram,
    /// `rms_applier_apply_seconds` — wall clock per coalesced batch.
    apply_seconds: Histogram,
    /// `rms_applier_publish_seconds` — snapshot build + delta fan-out.
    publish_seconds: Histogram,
    /// `rms_applier_snapshot_publishes_total`.
    publishes: Counter,
    /// `rms_applier_ops_applied_total`.
    ops_applied: Counter,
    /// `rms_applier_ops_rejected_total`.
    ops_rejected: Counter,
    /// `rms_wal_appends_total` — op frames appended by submitters.
    wal_appends: Counter,
    /// `rms_wal_fsync_seconds` — its `_count` is the fsync count.
    wal_fsync_seconds: Histogram,
    /// `rms_wal_recovered_ops_total` — ops accepted during replay.
    wal_recovered_ops: Counter,
    /// `rms_wal_truncated_tail_bytes_total` — torn bytes dropped at open.
    wal_truncated_bytes: Counter,
}

impl ServiceMetrics {
    /// Registers the applier/WAL families (unlabeled).
    pub(crate) fn register(registry: &Registry) -> Self {
        let l = &[];
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
            wal_appends: registry.register_counter(
                "rms_wal_appends_total",
                "Op frames appended to the write-ahead log.",
                l,
            ),
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
    /// coalesced batch (group commit). Off, the log still survives a
    /// process kill (records reach the OS before acknowledgement) but
    /// not a power failure; on, every *acknowledged* op is on stable
    /// storage no later than the batch commit after its acknowledgement
    /// (the record lands between the enqueue and the ack, so the commit
    /// covering its own batch can race it), at the cost of one
    /// `fdatasync` per batch.
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
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Disconnected(_) => write!(f, "service has shut down"),
            SubmitError::Full(_) => write!(f, "ingestion queue is full"),
        }
    }
}

impl std::error::Error for SubmitError {}

enum Msg {
    Op(Op),
    Shutdown,
    /// Durability-testing hook: stop the applier *immediately* — no
    /// drain, no final snapshot, no WAL compaction — as an unclean kill
    /// would. See [`RmsService::crash`].
    Crash,
}

/// High bit of the ingestion state word: set when shutdown begins. The
/// low bits count acknowledged-but-undrained submissions, so checking
/// "still accepting" and registering a submission is one atomic RMW —
/// a submission either observes the closed bit (and is rejected before
/// acknowledgement) or its count is visible to the shutdown drain, which
/// runs until the count reaches zero. No interleaving can acknowledge an
/// op and then drop it.
const CLOSED_BIT: usize = 1 << (usize::BITS - 1);
const COUNT_MASK: usize = CLOSED_BIT - 1;

// The state word carries the accept/drain handshake above, so its RMWs
// and the loads that pair with them are SeqCst; the two monitoring-only
// reads (queue-depth gauges) are Relaxed on purpose.
// rms-analyze: atomic-policy(state: SeqCst|Relaxed)

/// A cheap, cloneable client of a running [`RmsService`]: submit
/// operations (blocking or not) and read published snapshots. Handles
/// outlive the service gracefully — submissions after shutdown return
/// [`SubmitError::Disconnected`], snapshot reads keep returning the last
/// published state.
#[derive(Debug, Clone)]
pub struct RmsHandle {
    tx: SyncSender<Msg>,
    state: Arc<AtomicUsize>,
    cell: Arc<SnapshotCell>,
    wal: Option<Arc<Mutex<Wal>>>,
    watchers: WatcherRegistry,
    metrics: ServiceMetrics,
}

impl RmsHandle {
    /// Registers one pending submission unless shutdown has begun.
    fn register(&self) -> bool {
        let prev = self.state.fetch_add(1, Ordering::SeqCst);
        if prev & CLOSED_BIT != 0 {
            self.state.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        true
    }

    /// Enqueues one operation, blocking while the queue is full
    /// (backpressure). `Ok` means the operation *will* be applied — a
    /// graceful shutdown drains every acknowledged op — and on a
    /// WAL-backed service that the op is on the log before this returns.
    ///
    /// **WAL ordering**: the enqueue and the log append happen atomically
    /// under the log mutex (a try-send loop, so the mutex is never held
    /// across a blocking wait), which makes log order equal queue order —
    /// the order the applier applies ops in — even when different threads
    /// race conflicting ops on the same id. Recovery therefore replays
    /// exactly the serialization the live service applied. The applier's
    /// group-commit fsync runs on a duplicated descriptor and never takes
    /// this mutex, so submitters cannot deadlock against it; the append
    /// lands after the enqueue, so an op's own batch commit can race its
    /// record — an acknowledged op is fsync-durable no later than the
    /// batch commit *after* its acknowledgement.
    ///
    /// The application itself is asynchronous; a later
    /// [`RmsHandle::snapshot`] whose stats show it absorbed reflects it.
    pub fn submit(&self, op: Op) -> Result<(), SubmitError> {
        if !self.register() {
            return Err(SubmitError::Disconnected(op));
        }
        let Some(wal) = &self.wal else {
            return match self.tx.send(Msg::Op(op)) {
                Ok(()) => Ok(()),
                Err(e) => {
                    self.state.fetch_sub(1, Ordering::SeqCst);
                    let Msg::Op(op) = e.0 else {
                        // rms-analyze: allow(unwrap-nontest, "send() above only ever sends Msg::Op; the error returns that value")
                        unreachable!("handles only send ops")
                    };
                    Err(SubmitError::Disconnected(op))
                }
            };
        };
        // The op is framed once, outside the lock; the loop backs off
        // outside the lock too, so the critical section is only the
        // non-blocking try-send plus the append.
        let frame = Wal::frame_op(&op);
        let mut msg = Msg::Op(op);
        loop {
            let mut guard = recover_poisoned(wal.lock());
            match self.tx.try_send(msg) {
                Ok(()) => {
                    append_logged(&mut guard, &frame);
                    self.metrics.wal_appends.inc();
                    return Ok(());
                }
                Err(TrySendError::Disconnected(m)) => {
                    drop(guard);
                    self.state.fetch_sub(1, Ordering::SeqCst);
                    let Msg::Op(op) = m else {
                        // rms-analyze: allow(unwrap-nontest, "try_send() above only ever sends Msg::Op; the error returns that value")
                        unreachable!("handles only send ops")
                    };
                    return Err(SubmitError::Disconnected(op));
                }
                Err(TrySendError::Full(m)) => {
                    drop(guard);
                    msg = m;
                    // Backpressure: the queue drains at applier-batch
                    // cadence (milliseconds), so a sub-millisecond poll
                    // wastes neither latency nor CPU.
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
    }

    /// Non-blocking [`RmsHandle::submit`]: fails fast with
    /// [`SubmitError::Full`] instead of waiting out backpressure.
    ///
    /// Shares the blocking path's enqueue+append critical section, so
    /// log order equals apply order across both entry points; a `Full`
    /// bounce is never logged (recovery must not replay ops the caller
    /// knows were rejected).
    pub fn try_submit(&self, op: Op) -> Result<(), SubmitError> {
        if !self.register() {
            return Err(SubmitError::Disconnected(op));
        }
        let frame = self.wal.as_ref().map(|_| Wal::frame_op(&op));
        let mut guard = self.wal.as_ref().map(|wal| recover_poisoned(wal.lock()));
        match self.tx.try_send(Msg::Op(op)) {
            Ok(()) => {
                if let (Some(guard), Some(frame)) = (guard.as_mut(), frame) {
                    append_logged(guard, &frame);
                    self.metrics.wal_appends.inc();
                }
                Ok(())
            }
            Err(e) => {
                drop(guard);
                self.state.fetch_sub(1, Ordering::SeqCst);
                match e {
                    TrySendError::Full(Msg::Op(op)) => Err(SubmitError::Full(op)),
                    TrySendError::Disconnected(Msg::Op(op)) => Err(SubmitError::Disconnected(op)),
                    // rms-analyze: allow(unwrap-nontest, "try_send() above only ever sends Msg::Op; the error returns that value")
                    _ => unreachable!("handles only send ops"),
                }
            }
        }
    }

    /// Subscribes to the service's delta stream: the returned receiver
    /// carries the current snapshot as its base plus every subsequent
    /// [`SnapshotDelta`], computed and pushed by the applier at publish
    /// time. The stream closes on shutdown; registration after shutdown
    /// yields an already-closed stream.
    pub fn watch(&self) -> DeltaReceiver {
        let (tx, rx) = channel();
        // Registration reads the base under the registry lock, so the
        // base snapshot and the first delta line up gap-free.
        let mut watchers = recover_poisoned(self.watchers.lock());
        let base = self.cell.load();
        // After shutdown the applier has already dropped every watcher;
        // registering would leak a never-closing stream. Dropping the
        // sender instead closes the subscriber's receiver immediately.
        if self.state.load(Ordering::SeqCst) & CLOSED_BIT == 0 {
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

    /// Operations currently queued (including submitters blocked on
    /// backpressure). Approximate under concurrency.
    pub fn queue_depth(&self) -> usize {
        self.state.load(Ordering::Relaxed) & COUNT_MASK
    }
}

/// A running FD-RMS instance behind an ingestion queue.
///
/// The engine lives on a dedicated applier thread fed by a bounded MPSC
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
        Ok(Self::spawn(fd, cfg, None, ServiceStats::default()))
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
    /// already in the checkpoint (the tail race of a graceful shutdown)
    /// re-applies as a rejection or attribute no-op, never as corruption.
    ///
    /// **Ordering**: enqueue and append are serialized under the log
    /// mutex (see [`RmsHandle::submit`]), so log order equals apply order
    /// even when different threads race conflicting ops on the same id —
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
        let base = replay.checkpoint.unwrap_or(initial);
        let mut fd = builder.build(base)?;
        let mut stats = ServiceStats::default();
        for chunk in replay.ops.chunks(cfg.max_batch.max(1)) {
            // Same salvage as live ingestion: one logged-but-bad op (or
            // one made redundant by a checkpoint) costs only itself.
            stats.wal_recovered_ops += apply_salvaging(&mut fd, chunk).0 as u64;
        }
        let service = Self::spawn(fd, cfg, Some(Arc::new(Mutex::new(wal))), stats);
        let metrics = &service.handle.metrics;
        metrics.wal_recovered_ops.add(stats.wal_recovered_ops);
        metrics.wal_truncated_bytes.add(replay.torn_bytes);
        Ok(service)
    }

    fn spawn(
        fd: FdRms,
        cfg: ServeConfig,
        wal: Option<Arc<Mutex<Wal>>>,
        stats: ServiceStats,
    ) -> Self {
        let registry = Arc::new(Registry::new());
        let metrics = ServiceMetrics::register(&registry);
        let dim = fd.dim();
        let k = fd.k();
        let r = fd.r();
        let (tx, rx) = sync_channel(cfg.queue_capacity.max(1));
        let state = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(SnapshotCell::new(make_snapshot(&fd, 0, stats, None)));
        let watchers: WatcherRegistry = Arc::new(Mutex::new(Vec::new()));
        // Group commits run on a duplicated descriptor so the applier
        // never contends with the submitters' enqueue+append mutex; if
        // duplication fails, syncs fall back to taking that mutex (safe —
        // submitters never hold it across a blocking wait — just slower).
        let wal_sync = wal
            .as_ref()
            .and_then(|w| recover_poisoned(w.lock()).sync_handle().ok());
        let applier = {
            let cell = Arc::clone(&cell);
            let state = Arc::clone(&state);
            let wal = wal.clone();
            let watchers = Arc::clone(&watchers);
            let metrics = metrics.clone();
            std::thread::Builder::new()
                .name("rms-applier".into())
                .spawn(move || {
                    applier_loop(
                        fd,
                        &rx,
                        &cell,
                        &state,
                        &cfg,
                        wal.as_ref(),
                        wal_sync.as_ref(),
                        &watchers,
                        stats,
                        &metrics,
                    )
                })
                // rms-analyze: allow(unwrap-nontest, "thread-spawn failure at service construction is unrecoverable; fail fast")
                .expect("spawn applier thread")
        };
        Self {
            handle: RmsHandle {
                tx,
                state,
                cell,
                wal,
                watchers,
                metrics,
            },
            applier: Some(applier),
            registry,
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
    /// *acknowledged* operation (every `submit` that returned `Ok`, even
    /// from senders still blocked on a full queue), publishes a final
    /// snapshot, compacts the write-ahead log (when configured) to a
    /// checkpoint of the final state, and hands the engine back (e.g.
    /// for invariant checks or persistence). Submissions racing the
    /// start of shutdown either fail with [`SubmitError::Disconnected`]
    /// or are applied — never acknowledged and dropped.
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
            self.handle.state.fetch_or(CLOSED_BIT, Ordering::SeqCst);
            let _ = self.handle.tx.send(Msg::Crash);
            let _ = applier.join();
        }
    }

    fn shutdown_inner(&mut self) -> Option<std::thread::Result<FdRms>> {
        let applier = self.applier.take()?;
        // Close the ingestion state word first: any submission that was
        // not already counted is rejected from here on, so the drain's
        // count target can only shrink once the marker is seen.
        self.handle.state.fetch_or(CLOSED_BIT, Ordering::SeqCst);
        let _ = self.handle.tx.send(Msg::Shutdown);
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

/// Applies one coalesced batch through [`apply_salvaging`]. Whether the
/// batch applies wholesale or is salvaged per-op, it counts as **one**
/// logical batch in the stats (salvaged batches additionally bump
/// `replayed_batches`), so `batches` always equals the number of
/// coalesced batches the applier issued and `avg_apply_ms` stays the
/// mean wall-clock per coalesced batch.
fn apply_batch(fd: &mut FdRms, batch: &[Op], stats: &mut ServiceStats, m: &ServiceMetrics) {
    let n = batch.len();
    if n == 0 {
        return;
    }
    stats.last_batch_ops = n;
    stats.max_coalesced = stats.max_coalesced.max(n);
    m.batch_ops.record_value(n as u64);
    let t = Instant::now();
    let (accepted, replayed) = apply_salvaging(fd, batch);
    let (applied, rejected) = (accepted as u64, (n - accepted) as u64);
    stats.ops_applied += applied;
    stats.ops_rejected += rejected;
    m.ops_applied.add(applied);
    m.ops_rejected.add(rejected);
    stats.replayed_batches += u64::from(replayed);
    record_apply(stats, &m.apply_seconds, t);
}

fn record_apply(stats: &mut ServiceStats, apply_seconds: &Histogram, since: Instant) {
    let elapsed = since.elapsed();
    apply_seconds.record(elapsed);
    let ms = elapsed.as_secs_f64() * 1e3;
    stats.last_apply_ms = ms;
    stats.total_apply_ms += ms;
    stats.batches += 1;
}

/// Appends one pre-framed record, reporting (not propagating) IO
/// failures: the op is already enqueued, so the submission proceeds; it
/// merely loses durability.
fn append_logged(wal: &mut Wal, frame: &[u8]) {
    if let Err(e) = wal.append_frame(frame) {
        eprintln!("rms-serve: WAL append failed ({e}); op applied without durability");
    }
}

/// Group commit: one `fdatasync` per coalesced batch, preferring the
/// duplicated descriptor (no mutex) and falling back to locking the log.
fn group_commit(
    wal: Option<&Arc<Mutex<Wal>>>,
    sync: Option<&WalSyncHandle>,
    fsync_seconds: &Histogram,
) {
    let t = Instant::now();
    let result = match (sync, wal) {
        (Some(sync), _) => sync.sync(),
        (None, Some(wal)) => recover_poisoned(wal.lock()).sync(),
        (None, None) => return,
    };
    fsync_seconds.record(t.elapsed());
    if let Err(e) = result {
        eprintln!("rms-serve: WAL fsync failed: {e}");
    }
}

#[allow(clippy::too_many_arguments)]
fn applier_loop(
    fd: FdRms,
    rx: &Receiver<Msg>,
    cell: &SnapshotCell,
    state: &AtomicUsize,
    cfg: &ServeConfig,
    wal: Option<&Arc<Mutex<Wal>>>,
    wal_sync: Option<&WalSyncHandle>,
    watchers: &WatcherRegistry,
    stats: ServiceStats,
    metrics: &ServiceMetrics,
) -> FdRms {
    let fd = applier_inner(
        fd, rx, cell, state, cfg, wal, wal_sync, watchers, stats, metrics,
    );
    // Dropping the senders closes every subscriber's delta stream; the
    // closed ingestion bit (set before any exit path reaches here, or
    // implied by every handle being gone) keeps late registrations
    // from registering into the cleared registry.
    recover_poisoned(watchers.lock()).clear();
    fd
}

#[allow(clippy::too_many_arguments)]
fn applier_inner(
    mut fd: FdRms,
    rx: &Receiver<Msg>,
    cell: &SnapshotCell,
    state: &AtomicUsize,
    cfg: &ServeConfig,
    wal: Option<&Arc<Mutex<Wal>>>,
    wal_sync: Option<&WalSyncHandle>,
    watchers: &WatcherRegistry,
    mut stats: ServiceStats,
    metrics: &ServiceMetrics,
) -> FdRms {
    let max_batch = cfg.max_batch.max(1);
    let estimator = (cfg.mrr_directions > 0)
        .then(|| RegretEstimator::new(fd.dim(), cfg.mrr_directions.max(fd.dim()), cfg.mrr_seed));
    let mrr_every = cfg.mrr_every.max(1);
    let mut epoch = 0u64;
    let mut last_mrr = None;
    // The previously published snapshot, kept for publish-time delta
    // computation (watchers receive the diff, not the whole solution).
    let mut prev = cell.load();
    loop {
        // Block for the first message, then coalesce whatever else is
        // already queued — the adaptive batch: size 1 under light load
        // (a one-op batch), up to `max_batch` under sustained pressure.
        let mut shutting_down = false;
        let mut ops: Vec<Op> = Vec::new();
        match rx.recv() {
            Ok(Msg::Op(op)) => {
                state.fetch_sub(1, Ordering::SeqCst);
                ops.push(op);
            }
            Ok(Msg::Shutdown) => shutting_down = true,
            // The simulated unclean kill: no drain, no final snapshot,
            // no WAL compaction.
            Ok(Msg::Crash) => return fd,
            // Every sender (service + all handles) dropped.
            Err(_) => break,
        }
        while ops.len() < max_batch && !shutting_down {
            match rx.try_recv() {
                Ok(Msg::Op(op)) => {
                    state.fetch_sub(1, Ordering::SeqCst);
                    ops.push(op);
                }
                Ok(Msg::Shutdown) => shutting_down = true,
                Ok(Msg::Crash) => return fd,
                Err(_) => break,
            }
        }
        if shutting_down {
            // Drain until the submission count reaches zero, not just
            // until the channel reads empty: every acknowledged op was
            // counted *atomically with* observing the state word open
            // (see `CLOSED_BIT`), and the closed bit was set before the
            // shutdown marker was sent — so any count this loop still
            // sees is an op that will arrive (possibly from a sender
            // blocked on a full queue), and no new counts can appear.
            loop {
                match rx.try_recv() {
                    Ok(Msg::Op(op)) => {
                        state.fetch_sub(1, Ordering::SeqCst);
                        ops.push(op);
                    }
                    Ok(Msg::Shutdown) => {}
                    Ok(Msg::Crash) => return fd,
                    Err(_) => {
                        if state.load(Ordering::SeqCst) & COUNT_MASK == 0 {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            }
        }
        for chunk in ops.chunks(max_batch) {
            apply_batch(&mut fd, chunk, &mut stats, metrics);
            // Group commit: the submitters' appends for this batch (and
            // possibly later ones — strictly more durability) reach
            // stable storage with one fdatasync per coalesced batch.
            if cfg.wal_fsync {
                group_commit(wal, wal_sync, &metrics.wal_fsync_seconds);
            }
        }
        if !ops.is_empty() || shutting_down {
            epoch += 1;
            if let Some(est) = &estimator {
                if epoch % mrr_every == 0 || shutting_down {
                    let live = fd.live_points();
                    last_mrr = Some(est.mrr(&live, &fd.result(), fd.k()));
                }
            }
            stats.queue_depth = state.load(Ordering::Relaxed) & COUNT_MASK;
            metrics.queue_depth.set(stats.queue_depth as i64);
            let publish_start = Instant::now();
            let snap = Arc::new(make_snapshot(&fd, epoch, stats, last_mrr));
            // The cell swap and the delta broadcast happen under the
            // registry lock, atomically with any concurrent watcher
            // registration — so every subscriber's base snapshot meets
            // its first delta gap-free.
            let mut registry = recover_poisoned(watchers.lock());
            cell.store(Arc::clone(&snap));
            if !registry.is_empty() {
                // The O(r) diff runs only when someone consumes deltas.
                let delta = snap.delta_from(&prev);
                // Watcher channels are unbounded, so these sends under
                // the registry lock never block — and the ascription
                // lets rms-analyze's channel classification know it, so
                // no pragma is needed here.
                registry
                    .retain(|watcher: &Sender<SnapshotDelta>| watcher.send(delta.clone()).is_ok());
            }
            drop(registry);
            metrics.publish_seconds.record(publish_start.elapsed());
            metrics.publishes.inc();
            prev = snap;
        }
        if shutting_down {
            break;
        }
    }
    // Graceful exit: compact the log to a checkpoint of the final state,
    // bounding its size and making the next start replay-free. (IO
    // failure leaves the op log intact — recovery still works, the log
    // is merely uncompacted.)
    if let Some(wal) = wal {
        let mut wal = recover_poisoned(wal.lock());
        if let Err(e) = wal.checkpoint(&fd.live_points()) {
            eprintln!("rms-serve: WAL compaction failed: {e}");
        }
    }
    fd
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An atomically-rejected N-op batch used to bump `batches` N+1 times
    /// (the failed attempt plus one per replayed op), deflating
    /// `avg_apply_ms` and disagreeing with the coalescing counters. The
    /// whole salvage is one logical batch, tallied in `replayed_batches`.
    #[test]
    fn rejected_batch_counts_as_one_logical_batch() {
        let initial: Vec<Point> = (0..20)
            .map(|i| Point::new_unchecked(i, vec![(i as f64) / 20.0, 1.0 - (i as f64) / 20.0]))
            .collect();
        let mut fd = FdRms::builder(2)
            .r(3)
            .max_utilities(64)
            .build(initial)
            .unwrap();
        let mut stats = ServiceStats::default();
        let metrics = ServiceMetrics::register(&Registry::new());

        // 4 ops, one invalid (duplicate insert): atomic rejection, per-op
        // replay salvages 3.
        let batch = vec![
            Op::Insert(Point::new_unchecked(100, vec![0.9, 0.8])),
            Op::Insert(Point::new_unchecked(0, vec![0.1, 0.2])), // id 0 is live
            Op::Delete(1),
            Op::Update(Point::new_unchecked(2, vec![0.5, 0.6])),
        ];
        apply_batch(&mut fd, &batch, &mut stats, &metrics);
        assert_eq!(stats.batches, 1, "salvage is one logical batch");
        assert_eq!(stats.replayed_batches, 1);
        assert_eq!(stats.ops_applied, 3);
        assert_eq!(stats.ops_rejected, 1);
        assert_eq!(stats.last_batch_ops, 4);

        // A clean batch keeps agreeing with the coalescing counters.
        apply_batch(
            &mut fd,
            &[Op::Insert(Point::new_unchecked(101, vec![0.7, 0.7]))],
            &mut stats,
            &metrics,
        );
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.replayed_batches, 1);
        assert_eq!(stats.ops_applied, 4);
        assert!(stats.avg_apply_ms() > 0.0);
        // The registry counters mirror the stats, including through the
        // per-op salvage path, and the batch-size histogram saw both
        // coalesced sizes.
        assert_eq!(metrics.ops_applied.value(), 4);
        assert_eq!(metrics.ops_rejected.value(), 1);
        assert_eq!(metrics.batch_ops.count(), 2);
        assert_eq!(metrics.batch_ops.sum_ns(), 5);
        assert_eq!(metrics.apply_seconds.count(), 2);
        fd.check_invariants().unwrap();
    }
}
