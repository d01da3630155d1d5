//! A `std::net`-only TCP front end over any [`RmsBackend`] — the single
//! [`RmsService`](crate::RmsService) and the sharded
//! [`ShardedRmsService`](crate::ShardedRmsService) behind one generic
//! code path — speaking the [line protocol](crate::protocol), v1 and v2.
//!
//! Connections are served by a small group of [`rms_net`] reactor
//! threads (default one; see [`RmsServer::with_net_threads`]) instead
//! of a thread per connection: reactor 0 owns the listener and deals
//! accepted sockets round-robin across the group through each
//! reactor's command injector. Protocol logic lives in the crate's
//! `net` module; this module is the *orchestration* layer — the
//! pieces that legitimately block (the delta pump's channel receive,
//! backend shutdown, thread joins) and therefore stay off the reactor
//! threads.
//!
//! The pump thread is where the encode-once fan-out contract is
//! enforced: each [`SnapshotDelta`](crate::SnapshotDelta) from the
//! backend's watch stream is rendered to its wire line exactly once,
//! wrapped in an `Arc<[u8]>`, and injected into every reactor, which
//! fan it out to unfiltered subscribers by reference.

use crate::backend::{RmsBackend, RmsBackendHandle};
use crate::net::{
    encode_delta_line, Mirror, NetCmd, NetHandler, ServeNetMetrics, ServerInfo, TcpMetrics,
};
use fdrms::FdRms;
use rms_net::{Injector, Reactor, ReactorConfig};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// A TCP server wrapping a running backend: a group of reactor threads
/// multiplexing every connection, all feeding the ingestion queue(s)
/// and reading the shared snapshot state through the backend's
/// cloneable handle.
#[derive(Debug)]
pub struct RmsServer<B: RmsBackend> {
    listener: TcpListener,
    backend: B,
    net_threads: usize,
    write_queue_cap: usize,
    evict_linger: Duration,
    send_buffer: Option<usize>,
}

impl<B: RmsBackend> RmsServer<B> {
    /// Binds `addr` (e.g. `"127.0.0.1:7878"`, or port 0 for an ephemeral
    /// port — see [`RmsServer::local_addr`]) around a started backend:
    /// a single service or a shard group, behind the same protocol
    /// surface (a sharded backend reports `epochs=e0,e1,…` instead of
    /// `epoch=E` in `QUERY`/`STATS` and in pushed `DELTA` lines).
    pub fn bind(addr: impl ToSocketAddrs, backend: B) -> io::Result<Self> {
        let defaults = ReactorConfig::default();
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            backend,
            net_threads: 1,
            write_queue_cap: defaults.write_queue_cap,
            evict_linger: defaults.evict_linger,
            send_buffer: None,
        })
    }

    /// Number of reactor threads serving connections (min 1). Reactor 0
    /// owns the listener and hands accepted sockets round-robin to the
    /// group.
    #[must_use]
    pub fn with_net_threads(mut self, n: usize) -> Self {
        self.net_threads = n.max(1);
        self
    }

    /// Per-connection cap on queued unwritten bytes; a subscriber that
    /// falls further behind is evicted with a final `ERR` line.
    #[must_use]
    pub fn with_write_queue_cap(mut self, bytes: usize) -> Self {
        self.write_queue_cap = bytes.max(1);
        self
    }

    /// How long an evicted or closing connection may linger while its
    /// final bytes flush.
    #[must_use]
    pub fn with_evict_linger(mut self, linger: Duration) -> Self {
        self.evict_linger = linger;
        self
    }

    /// `SO_SNDBUF` applied to every accepted socket (tests shrink it to
    /// exercise backpressure without megabytes of traffic).
    #[must_use]
    pub fn with_send_buffer(mut self, bytes: usize) -> Self {
        self.send_buffer = Some(bytes);
        self
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections until a client issues `SHUTDOWN`, then drains
    /// the ingestion queue(s) gracefully and returns the final engine
    /// state, indexed by shard (one engine for a single-service
    /// backend). Connections still open at shutdown see their pending
    /// replies flushed, open `SUBSCRIBE` streams end after a final
    /// coalesced flush, and the reactors exit once every socket drains.
    pub fn run(self) -> io::Result<Vec<FdRms>> {
        let RmsServer {
            listener,
            backend,
            net_threads,
            write_queue_cap,
            evict_linger,
            send_buffer,
        } = self;

        let info = ServerInfo {
            dim: backend.dim(),
            k: backend.k(),
            r: backend.r(),
            shards: backend.shards(),
        };
        let registry = Arc::clone(backend.registry());
        let metrics = TcpMetrics::register(&registry);
        let net_metrics = ServeNetMetrics::register(&registry);
        let handle = backend.handle();
        let rx = handle.watch();
        let sharded = rx.base().is_merged();
        let mirror = Mirror::from_view(rx.base());

        let cfg = ReactorConfig {
            write_queue_cap,
            evict_linger,
            send_buffer,
            ..ReactorConfig::default()
        };
        let mut reactors: Vec<Reactor<NetCmd>> = Vec::with_capacity(net_threads);
        for _ in 0..net_threads {
            reactors.push(Reactor::new(cfg.clone(), &registry)?);
        }
        reactors[0].set_listener(listener)?;
        let injectors: Vec<Injector<NetCmd>> = reactors.iter().map(Reactor::injector).collect();

        // The SHUTDOWN handshake: every reactor handler holds a sender;
        // recv() returns Ok on the first SHUTDOWN verb, or Err if every
        // reactor thread dies without one (so a crashed loop still
        // unblocks the orchestrator instead of hanging it).
        let (shutdown_tx, shutdown_rx) = mpsc::channel::<()>();

        let mut threads = Vec::with_capacity(net_threads);
        for (i, reactor) in reactors.into_iter().enumerate() {
            let handler = NetHandler::new(
                handle.clone(),
                info,
                metrics.clone(),
                net_metrics.clone(),
                mirror.clone(),
                injectors.clone(),
                i,
                shutdown_tx.clone(),
            );
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rms-net-{i}"))
                    .spawn(move || reactor.run(handler))?,
            );
        }
        drop(shutdown_tx);

        // The delta pump: the one consumer of the backend's watch
        // stream. Encodes each published delta exactly once and fans
        // the shared buffer out to every reactor; reactors slice it
        // per-filter from the parsed form riding alongside.
        let pump_injectors = injectors;
        let pump_metrics = net_metrics;
        let pump = std::thread::Builder::new()
            .name("rms-net-pump".to_owned())
            .spawn(move || loop {
                match rx.recv() {
                    Ok(delta) => {
                        pump_metrics.encodes_unfiltered.inc();
                        let line = encode_delta_line(&delta, sharded, None);
                        let delta = Arc::new(delta);
                        for injector in &pump_injectors {
                            injector.inject(NetCmd::Publish {
                                delta: Arc::clone(&delta),
                                line: Arc::clone(&line),
                            });
                        }
                    }
                    Err(_) => {
                        // Publisher gone: the backend shut down. Tell the
                        // reactors to flush pending subscriptions and drain.
                        for injector in &pump_injectors {
                            injector.inject(NetCmd::StreamEnd);
                        }
                        return;
                    }
                }
            })?;

        // Park until a SHUTDOWN verb arrives (Ok) or every reactor died
        // (Err — all senders dropped).
        let _ = shutdown_rx.recv();

        // Stop the backend first: its watch senders drop, the pump sees
        // the closed channel and broadcasts StreamEnd, and the reactors
        // drain and exit.
        let engines = backend.shutdown();
        // rms-analyze: allow(unwrap-nontest, "a Err from join means the worker panicked and already tore the serving invariants; re-raising that panic at shutdown is the only honest report")
        pump.join().expect("delta pump panicked");
        let mut first_err = None;
        for t in threads {
            // rms-analyze: allow(unwrap-nontest, "a Err from join means the worker panicked and already tore the serving invariants; re-raising that panic at shutdown is the only honest report")
            match t.join().expect("reactor thread panicked") {
                Ok(()) => {}
                Err(e) if first_err.is_none() => first_err = Some(e),
                Err(_) => {}
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(engines),
        }
    }
}
