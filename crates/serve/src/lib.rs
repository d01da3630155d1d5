//! # rms-serve — concurrent ingestion + snapshot serving for FD-RMS
//!
//! The batch update engine (`fdrms::engine`) made maintenance cheap to
//! amortise; this crate turns the engine into a *service*. An
//! [`RmsService`] moves the [`FdRms`](fdrms::FdRms) instance onto a
//! dedicated applier thread fed by a bounded op queue:
//!
//! ```text
//!  writers ──submit(Op)──▶ [bounded queue] ──▶ applier thread
//!                           (backpressure)      │ take ≤ max_batch
//!                                               │ FdRms::apply_batch
//!                                               ▼
//!  readers ◀──snapshot()── [Arc<ResultSnapshot> swap cell]
//! ```
//!
//! * **Ingestion** blocks only on queue capacity (backpressure), never on
//!   maintenance: [`RmsHandle::submit`] is [`RmsHandle::try_submit`]
//!   retried while the queue is full, so every op takes one enqueue path.
//!   The applier drains whatever is queued into one adaptive
//!   batch — size 1 under light load (a one-op batch through the same
//!   engine path), up to [`ServeConfig::max_batch`] under pressure,
//!   exactly where `apply_batch` amortises best.
//! * **Serving** never blocks ingestion: after every batch the applier
//!   publishes an immutable, versioned [`ResultSnapshot`] (epoch, the
//!   current solution, regret stats, service counters) behind a swapped
//!   `Arc`; readers clone the `Arc` out and keep it as long as they like.
//! * A `std::net`-only [TCP front end](crate::tcp) speaks a small
//!   [line protocol](crate::protocol) (`INSERT`/`DELETE`/`UPDATE`/
//!   `QUERY`/`STATS`/`SHUTDOWN`/`HELLO`/`BATCH`/`SUBSCRIBE`/`METRICS`,
//!   one verb set on every connection) over the same handles, wired
//!   into the `krms serve` CLI subcommand. The in-tree `rms-client`
//!   crate is a typed, std-only client for it.
//! * Every subsystem reports into an `rms-metrics`
//!   [`Registry`](rms_metrics::Registry) — applier latencies, WAL
//!   activity, TCP request families — reachable through
//!   [`RmsService::registry`], the `METRICS` verb, and `krms serve
//!   --metrics-addr`'s `GET /metrics` endpoint. Each snapshot's
//!   [`ServiceStats`] (the `STATS` verb) copies the same counters at
//!   publish time.
//! * [`RmsHandle::watch`] subscribes to the push stream of
//!   [`SnapshotDelta`]s computed at publish time — applying every delta
//!   to the starting snapshot reproduces the published solution at each
//!   delivered version.
//! * An optional [write-ahead log](crate::wal) makes acknowledgements
//!   durable: every acknowledged op is framed into an append-only log
//!   *before* its acknowledgement ([`RmsService::start_with_wal`]). One
//!   mutex guards the queue and the log: a submission appends, then
//!   queues, and the applier takes under the same lock, so log order
//!   equals apply order and no op is applied before its record is
//!   logged. A failed append refuses the op
//!   ([`SubmitError::LogFailed`]). The log is replayed on the next
//!   start after an unclean death, and graceful shutdown compacts it to
//!   a checkpoint.
//!
//! ## Example
//!
//! ```
//! use fdrms::{FdRms, Op};
//! use rms_geom::Point;
//! use rms_serve::{RmsService, ServeConfig};
//!
//! let points: Vec<Point> = (0..100)
//!     .map(|i| Point::new(i, vec![(i as f64) / 100.0, 1.0 - (i as f64) / 100.0]).unwrap())
//!     .collect();
//! let service = RmsService::start(
//!     FdRms::builder(2).r(4).max_utilities(128),
//!     points,
//!     ServeConfig::default(),
//! )
//! .unwrap();
//!
//! // Writers submit asynchronously; readers never block on them.
//! let handle = service.handle();
//! handle.submit(Op::Insert(Point::new(1_000, vec![0.9, 0.9]).unwrap())).unwrap();
//! assert!(service.snapshot().result.len() <= 4);
//!
//! // Graceful shutdown drains the queue and returns the engine.
//! let fd = service.shutdown();
//! assert!(fd.contains(1_000));
//! fd.check_invariants().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod net;
pub mod protocol;
mod service;
mod snapshot;
pub mod sync;
pub mod tcp;
pub mod wal;

pub use service::{DeltaReceiver, RmsHandle, RmsService, ServeConfig, ServeError, SubmitError};
pub use snapshot::{ResultSnapshot, ServiceStats, SnapshotDelta};
pub use tcp::RmsServer;
