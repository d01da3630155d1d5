//! `rms-net` — a readiness-driven reactor for the FD-RMS serving
//! stack, dependency-free beyond `std` and `rms-metrics`.
//!
//! # Model
//!
//! One [`Reactor`] per thread multiplexes an accepting listener, every
//! adopted connection, and a self-pipe [`Waker`] through a single
//! epoll poller (the crate builds for Linux only). Protocol logic is a [`Handler`] called back on accepted
//! sockets, complete inbound lines, injected commands, and timer
//! ticks; it stages output into bounded per-connection write queues of
//! shared [`std::sync::Arc`]`<[u8]>` segments and never blocks.
//!
//! Connection concurrency therefore costs O(active sockets) per
//! wakeup, not a thread per connection, and a buffer encoded once can
//! be fanned out to any number of write queues by reference.
//!
//! # Backpressure and eviction
//!
//! Each connection's unwritten bytes are capped
//! ([`ReactorConfig::write_queue_cap`]); a peer that cannot keep up
//! past the cap is *evicted*: queued bytes are dropped, a final `ERR`
//! line is queued in their place, reads stop, and the socket closes
//! once the notice flushes or the linger deadline passes. Reactor
//! health is observable via the `rms_net_poll_wakeups_total`,
//! `rms_net_write_queue_bytes`, and `rms_net_evicted_subscribers_total`
//! metric families ([`NetMetrics`]).
//!
//! # Safety boundary
//!
//! All `unsafe` lives in the [`sys`] module — thin FFI declarations
//! for the handful of kernel entry points (`epoll_*`, `pipe`,
//! `fcntl`, `setsockopt`, `getrlimit`/`setrlimit`) that `std` links
//! but does not expose. The rest of the crate compiles under
//! `deny(unsafe_code)`.

mod conn;
mod poller;
mod reactor;
pub mod sys;

pub use conn::{Conn, ConnPhase, LineStep, WriteQueue, MAX_LINE_BYTES};
pub use poller::{Event, Interest, Poller, Token, Waker};
pub use reactor::{Ctx, Handler, Injector, NetMetrics, Reactor, ReactorConfig};
pub use sys::{raise_nofile_limit, set_recv_buffer, set_send_buffer};
