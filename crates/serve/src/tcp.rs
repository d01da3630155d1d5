//! A `std::net`-only TCP front end over an [`RmsService`] speaking the
//! [line protocol](crate::protocol).
//!
//! Connections are served by a small group of [`rms_net`] reactor
//! threads (default one; see [`RmsServer::with_net_threads`]) instead
//! of a thread per connection: reactor 0 owns the listener and deals
//! accepted sockets round-robin across the group through each
//! reactor's command injector. Protocol logic lives in the crate's
//! `net` module; this module is the *orchestration* layer — the
//! pieces that legitimately block (the delta pump's channel receive,
//! service shutdown, thread joins) and therefore stay off the reactor
//! threads.
//!
//! The pump thread is where the encode-once fan-out contract is
//! enforced: each [`SnapshotDelta`](crate::SnapshotDelta) from the
//! service's watch stream is rendered to its wire line exactly once,
//! wrapped in an `Arc<[u8]>`, and injected into every reactor, which
//! fan it out to unfiltered subscribers by reference.

use crate::net::{encode_delta_line, Front, Mirror, NetCmd, NetHandler, ServerInfo, TcpMetrics};
use crate::service::RmsService;
use fdrms::FdRms;
use rms_net::{Injector, Reactor, ReactorConfig};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::mpsc;
use std::sync::Arc;

/// A TCP server wrapping a running service: a group of reactor threads
/// multiplexing every connection, all feeding the ingestion queue and
/// reading the shared snapshot state through the service's cloneable
/// handle.
#[derive(Debug)]
pub struct RmsServer {
    listener: TcpListener,
    service: RmsService,
    net_threads: usize,
    write_queue_cap: usize,
    send_buffer: Option<usize>,
}

impl RmsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:7878"`, or port 0 for an ephemeral
    /// port — see [`RmsServer::local_addr`]) around a started service.
    pub fn bind(addr: impl ToSocketAddrs, service: RmsService) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            service,
            net_threads: 1,
            write_queue_cap: ReactorConfig::default().write_queue_cap,
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
    /// the ingestion queue gracefully and returns the final engine state.
    /// The `Vec` always holds exactly one engine. Connections still open
    /// at shutdown see their pending replies flushed, open `SUBSCRIBE`
    /// streams end after a final coalesced flush, and the reactors exit
    /// once every socket drains.
    pub fn run(self) -> io::Result<Vec<FdRms>> {
        let RmsServer {
            listener,
            service,
            net_threads,
            write_queue_cap,
            send_buffer,
        } = self;

        let info = ServerInfo {
            dim: service.dim(),
            k: service.k(),
            r: service.r(),
        };
        let registry = Arc::clone(service.registry());
        let metrics = TcpMetrics::register(&registry);
        let rx = service.watch();

        let cfg = ReactorConfig {
            write_queue_cap,
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
        let front = Front {
            handle: service.handle(),
            info,
            metrics: metrics.clone(),
            mirror: Mirror::from_snapshot(rx.base()),
            injectors: injectors.clone(),
            my_index: 0,
            shutdown_tx,
        };

        let mut threads = Vec::with_capacity(net_threads);
        for (i, reactor) in reactors.into_iter().enumerate() {
            let handler = NetHandler::new(Front {
                my_index: i,
                ..front.clone()
            });
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rms-net-{i}"))
                    .spawn(move || reactor.run(handler))?,
            );
        }
        // Only the handlers may keep a shutdown sender (see above).
        drop(front);

        // The delta pump: the one consumer of the service's watch
        // stream. Encodes each published delta exactly once and fans
        // the shared buffer out to every reactor; reactors slice it
        // per-filter from the parsed form riding alongside.
        let pump = std::thread::Builder::new()
            .name("rms-net-pump".to_owned())
            .spawn(move || loop {
                match rx.recv() {
                    Ok(delta) => {
                        metrics.encodes_unfiltered.inc();
                        let line = encode_delta_line(&delta, None);
                        let delta = Arc::new(delta);
                        for injector in &injectors {
                            injector.inject(NetCmd::Publish {
                                delta: Arc::clone(&delta),
                                line: Arc::clone(&line),
                            });
                        }
                    }
                    Err(_) => {
                        // Publisher gone: the service shut down. Tell the
                        // reactors to flush pending subscriptions and drain.
                        for injector in &injectors {
                            injector.inject(NetCmd::StreamEnd);
                        }
                        return;
                    }
                }
            })?;

        // Park until a SHUTDOWN verb arrives (Ok) or every reactor died
        // (Err — all senders dropped).
        let _ = shutdown_rx.recv();

        // Stop the service first: its watch senders drop, the pump sees
        // the closed channel and broadcasts StreamEnd, and the reactors
        // drain and exit.
        let engine = service.shutdown();
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
            None => Ok(vec![engine]),
        }
    }
}
