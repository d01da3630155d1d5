//! The event loop: one thread multiplexing a listener, a waker pipe,
//! and every adopted connection through a single [`Poller`].
//!
//! The reactor owns all sockets and all I/O; protocol logic lives in a
//! [`Handler`] implementation that is called back on accepted sockets,
//! complete inbound lines, injected commands, and timer ticks. The
//! handler never performs I/O itself — it stages outbound bytes via
//! [`Ctx::push`] and the reactor flushes them as the kernel permits.
//! Keeping every handler callback non-blocking is what bounds tail
//! latency: one stalled subscriber can delay nothing but itself.

use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rms_metrics::{Counter, Gauge, Registry};

use crate::conn::{Conn, ConnPhase, LineStep};
use crate::poller::{Event, Interest, Poller, Token, Waker};
use crate::sys;

/// Token reserved for the waker pipe.
const WAKER_TOKEN: Token = Token(0);
/// Token reserved for the listener, when one is attached.
const LISTENER_TOKEN: Token = Token(1);
/// First token handed to a connection.
const FIRST_CONN_TOKEN: usize = 2;
/// Final line queued to an evicted connection.
const EVICT_NOTICE: &[u8] = b"ERR subscriber too slow; closing connection\n";

/// Tuning knobs for a reactor.
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Per-connection cap on queued unwritten bytes. Exceeding it
    /// triggers the slow-subscriber eviction policy.
    pub write_queue_cap: usize,
    /// How long an evicted or draining connection may linger while the
    /// peer drains its final bytes before the socket is dropped.
    pub evict_linger: Duration,
    /// Optional `SO_SNDBUF` applied to adopted sockets (tests shrink
    /// this to force queue growth without megabytes of traffic).
    pub send_buffer: Option<usize>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            write_queue_cap: 256 * 1024,
            evict_linger: Duration::from_secs(2),
            send_buffer: None,
        }
    }
}

/// Reactor-level metric families. Registered get-or-create, so every
/// reactor thread shares one set of cells per registry.
#[derive(Clone)]
pub struct NetMetrics {
    /// `rms_net_poll_wakeups_total`
    pub poll_wakeups: Counter,
    /// `rms_net_write_queue_bytes`
    pub write_queue_bytes: Gauge,
    /// `rms_net_evicted_subscribers_total`
    pub evicted_subscribers: Counter,
}

impl NetMetrics {
    fn new(registry: &Registry) -> NetMetrics {
        NetMetrics {
            poll_wakeups: registry.register_counter(
                "rms_net_poll_wakeups_total",
                "Reactor poller wakeups (events, timers, and waker signals)",
                &[],
            ),
            write_queue_bytes: registry.register_gauge(
                "rms_net_write_queue_bytes",
                "Unwritten bytes queued across all reactor connections",
                &[],
            ),
            evicted_subscribers: registry.register_counter(
                "rms_net_evicted_subscribers_total",
                "Connections evicted for overflowing their write queue",
                &[],
            ),
        }
    }
}

/// Thread-safe handle for pushing commands into a running reactor.
/// Commands are delivered to [`Handler::on_cmd`] in injection order.
pub struct Injector<C> {
    inbox: Arc<Mutex<Vec<C>>>,
    waker: Waker,
}

impl<C> Clone for Injector<C> {
    fn clone(&self) -> Self {
        Injector {
            inbox: Arc::clone(&self.inbox),
            waker: self.waker.clone(),
        }
    }
}

impl<C> Injector<C> {
    /// Queues a command and wakes the reactor. Never blocks: the inbox
    /// is an unbounded vector swapped out wholesale by the loop, so the
    /// lock is held for a push (here) or a `mem::take` (there).
    pub fn inject(&self, cmd: C) {
        // rms-analyze: allow(lock-poison-policy, "rms-net sits below rms-serve and cannot call its recover_poisoned; the inbox is a plain Vec that a panicking holder cannot tear, so propagating the panic is this crate's audited poison stance")
        self.inbox.lock().expect("reactor inbox poisoned").push(cmd);
        self.waker.wake();
    }
}

/// Protocol logic driven by the reactor. Every callback MUST return
/// promptly — no blocking syscalls, no lock-held channel sends; stage
/// output with [`Ctx::push`] / [`Ctx::push_line`] instead. A handler
/// learns about every connection teardown — eviction, graceful close,
/// peer disconnect, or I/O error — through exactly one
/// [`Handler::on_close`] call.
pub trait Handler {
    /// Command type delivered through [`Injector::inject`].
    type Cmd: Send + 'static;

    /// A fresh socket from the attached listener. The handler either
    /// adopts it here ([`Ctx::adopt`]) or hands it to a peer reactor's
    /// injector.
    fn on_accept(&mut self, stream: TcpStream, ctx: &mut Ctx<'_>);

    /// A complete inbound line from an adopted connection.
    fn on_line(&mut self, token: Token, line: &str, ctx: &mut Ctx<'_>);

    /// An injected command.
    fn on_cmd(&mut self, cmd: Self::Cmd, ctx: &mut Ctx<'_>);

    /// At least one timer registered via [`Ctx::set_timer`] came due.
    /// Fired once per loop iteration regardless of how many expired.
    fn on_tick(&mut self, now: Instant, ctx: &mut Ctx<'_>);

    /// The peer half-closed (EOF) with every buffered line already
    /// delivered. Fires at most once per connection, before the
    /// reactor's own flush-and-close takes over — the last chance to
    /// queue a final diagnostic line (e.g. a truncated-framing error).
    fn on_eof(&mut self, _token: Token, _ctx: &mut Ctx<'_>) {}

    /// A connection was torn down. The token is dead; drop any state
    /// keyed on it.
    fn on_close(&mut self, token: Token);
}

/// Mutable loop state exposed to handler callbacks.
pub struct Ctx<'a> {
    conns: &'a mut HashMap<usize, Conn>,
    poller: &'a mut Poller,
    next_token: &'a mut usize,
    timers: &'a mut BinaryHeap<std::cmp::Reverse<Instant>>,
    repump: &'a mut Vec<Token>,
    metrics: &'a NetMetrics,
    cfg: &'a ReactorConfig,
    draining: &'a mut bool,
}

impl Ctx<'_> {
    /// Adopts a socket into this reactor: switches it nonblocking,
    /// applies the configured `SO_SNDBUF`, registers read interest,
    /// and returns its token.
    pub fn adopt(&mut self, stream: TcpStream) -> io::Result<Token> {
        stream.set_nonblocking(true)?;
        if let Some(bytes) = self.cfg.send_buffer {
            sys::set_send_buffer(stream.as_raw_fd(), bytes)?;
        }
        let token = Token(*self.next_token);
        *self.next_token += 1;
        self.poller
            .register(stream.as_raw_fd(), token, Interest::READ)?;
        self.conns.insert(token.0, Conn::new(stream, token));
        Ok(token)
    }

    /// Tokens of every live connection (snapshot).
    #[must_use]
    pub fn tokens(&self) -> Vec<Token> {
        self.conns.values().map(|c| c.token).collect()
    }

    /// Queues a shared segment for `token`, flushing opportunistically.
    /// Overflowing [`ReactorConfig::write_queue_cap`] triggers the
    /// eviction policy; pushes to evicted/closing/unknown connections
    /// are silently dropped. Returns `false` when the push was dropped
    /// or tripped eviction (the handler hears about the eventual
    /// teardown via [`Handler::on_close`]).
    pub fn push(&mut self, token: Token, segment: &Arc<[u8]>) -> bool {
        let Some(conn) = self.conns.get_mut(&token.0) else {
            return false;
        };
        if conn.phase != ConnPhase::Open {
            return false;
        }
        conn.queue.enqueue(segment);
        self.metrics.write_queue_bytes.add(segment.len() as i64);
        match conn.queue.flush_into(&mut conn.stream) {
            Ok(flushed) => {
                if flushed > 0 {
                    self.metrics.write_queue_bytes.add(-(flushed as i64));
                }
            }
            Err(_) => {
                let dropped = conn.queue.clear();
                self.metrics.write_queue_bytes.add(-(dropped as i64));
                conn.phase = ConnPhase::Closing;
                return false;
            }
        }
        if conn.queue.bytes() > self.cfg.write_queue_cap {
            self.evict(token);
            return false;
        }
        true
    }

    /// Queues a text line (newline appended) for `token`.
    pub fn push_line(&mut self, token: Token, line: &str) -> bool {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        let segment: Arc<[u8]> = Arc::from(bytes);
        self.push(token, &segment)
    }

    /// The eviction policy: queued bytes are dropped, `EVICT_NOTICE`
    /// is queued past the cap, reads stop, and the connection closes once
    /// the notice flushes or the linger deadline passes.
    fn evict(&mut self, token: Token) {
        let Some(conn) = self.conns.get_mut(&token.0) else {
            return;
        };
        if conn.phase == ConnPhase::Evicted {
            return;
        }
        let dropped = conn.queue.clear();
        self.metrics.write_queue_bytes.add(-(dropped as i64));
        let segment: Arc<[u8]> = Arc::from(EVICT_NOTICE);
        conn.queue.enqueue(&segment);
        self.metrics.write_queue_bytes.add(segment.len() as i64);
        if let Ok(flushed) = conn.queue.flush_into(&mut conn.stream) {
            self.metrics.write_queue_bytes.add(-(flushed as i64));
        }
        conn.phase = ConnPhase::Evicted;
        let deadline = Instant::now() + self.cfg.evict_linger;
        conn.linger_deadline = Some(deadline);
        self.timers.push(std::cmp::Reverse(deadline));
        self.metrics.evicted_subscribers.inc();
    }

    /// Requests a graceful close: pending bytes flush first, then the
    /// socket is torn down (bounded by the linger deadline).
    pub fn close(&mut self, token: Token) {
        if let Some(conn) = self.conns.get_mut(&token.0) {
            if conn.phase == ConnPhase::Open {
                conn.phase = ConnPhase::Closing;
                let deadline = Instant::now() + self.cfg.evict_linger;
                conn.linger_deadline = Some(deadline);
                self.timers.push(std::cmp::Reverse(deadline));
            }
        }
    }

    /// Stops delivering inbound lines for `token` until
    /// [`Ctx::resume_read`]. Already-buffered bytes stay buffered.
    pub fn pause_read(&mut self, token: Token) {
        if let Some(conn) = self.conns.get_mut(&token.0) {
            conn.paused = true;
        }
    }

    /// Resumes line delivery; lines already buffered are pumped on the
    /// current loop iteration without waiting for fresh readiness.
    pub fn resume_read(&mut self, token: Token) {
        if let Some(conn) = self.conns.get_mut(&token.0) {
            conn.paused = false;
            if conn.has_buffered_input() {
                self.repump.push(token);
            }
        }
    }

    /// Registers a wall-clock wakeup; [`Handler::on_tick`] fires on the
    /// first loop iteration at or after `at`.
    pub fn set_timer(&mut self, at: Instant) {
        self.timers.push(std::cmp::Reverse(at));
    }

    /// Begins draining: the listener (if any) stops accepting, open
    /// connections switch to flush-then-close, and the reactor exits
    /// once every connection is gone.
    pub fn begin_drain(&mut self) {
        *self.draining = true;
        let deadline = Instant::now() + self.cfg.evict_linger;
        for conn in self.conns.values_mut() {
            if conn.phase == ConnPhase::Open {
                conn.phase = ConnPhase::Closing;
                conn.linger_deadline = Some(deadline);
            }
        }
        self.timers.push(std::cmp::Reverse(deadline));
    }
}

/// A single-threaded readiness-driven event loop. Construct, attach an
/// optional listener, grab [`Injector`]s for other threads, then
/// consume it with [`Reactor::run`] on its dedicated thread.
pub struct Reactor<C> {
    poller: Poller,
    waker: Waker,
    inbox: Arc<Mutex<Vec<C>>>,
    listener: Option<TcpListener>,
    cfg: ReactorConfig,
    metrics: NetMetrics,
}

impl<C: Send + 'static> Reactor<C> {
    /// Creates a reactor; metric families are registered (get-or-create)
    /// on `registry`.
    pub fn new(cfg: ReactorConfig, registry: &Registry) -> io::Result<Reactor<C>> {
        let mut poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.register(waker.poll_fd(), WAKER_TOKEN, Interest::READ)?;
        Ok(Reactor {
            poller,
            waker,
            inbox: Arc::new(Mutex::new(Vec::new())),
            listener: None,
            cfg,
            metrics: NetMetrics::new(registry),
        })
    }

    /// Attaches the accepting listener (switched to nonblocking here).
    /// At most one reactor in a group should hold the listener; the
    /// others receive sockets via injected commands.
    pub fn set_listener(&mut self, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        self.poller
            .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        self.listener = Some(listener);
        Ok(())
    }

    /// A cloneable handle for injecting commands from other threads.
    #[must_use]
    pub fn injector(&self) -> Injector<C> {
        Injector {
            inbox: Arc::clone(&self.inbox),
            waker: self.waker.clone(),
        }
    }

    /// Runs the loop until [`Ctx::begin_drain`] was called and the last
    /// connection closed.
    pub fn run<H: Handler<Cmd = C>>(self, mut handler: H) -> io::Result<()> {
        let Reactor {
            mut poller,
            waker,
            inbox,
            mut listener,
            cfg,
            metrics,
        } = self;
        let mut conns: HashMap<usize, Conn> = HashMap::new();
        let mut next_token = FIRST_CONN_TOKEN;
        let mut timers: BinaryHeap<std::cmp::Reverse<Instant>> = BinaryHeap::new();
        let mut repump: Vec<Token> = Vec::new();
        let mut draining = false;
        let mut listener_paused = false;
        let mut events: Vec<Event> = Vec::new();
        let mut dead: Vec<Token> = Vec::new();
        let mut eof_tokens: Vec<Token> = Vec::new();

        // Reborrows every loop-owned piece into a fresh short-lived Ctx
        // for one handler callback.
        macro_rules! ctx {
            () => {
                &mut Ctx {
                    conns: &mut conns,
                    poller: &mut poller,
                    next_token: &mut next_token,
                    timers: &mut timers,
                    repump: &mut repump,
                    metrics: &metrics,
                    cfg: &cfg,
                    draining: &mut draining,
                }
            };
        }

        loop {
            // ---- wait -------------------------------------------------
            let timeout = timers
                .peek()
                .map(|&std::cmp::Reverse(at)| at.saturating_duration_since(Instant::now()));
            // rms-analyze: allow(reactor-no-block, "the event loop's single sanctioned blocking point: parking for readiness with the nearest timer deadline as the timeout")
            poller.wait(&mut events, timeout)?;
            metrics.poll_wakeups.inc();
            let now = Instant::now();

            let mut saw_waker = false;
            let mut saw_listener = false;
            for ev in &events {
                if ev.token == WAKER_TOKEN {
                    saw_waker = true;
                } else if ev.token == LISTENER_TOKEN {
                    saw_listener = true;
                }
            }
            if saw_waker {
                waker.drain();
            }

            // ---- injected commands ------------------------------------
            // Drained on every wakeup, not just waker wakeups: a command
            // injected between `wait` returning and this point is picked
            // up a whole cycle earlier.
            // rms-analyze: allow(lock-poison-policy, "rms-net sits below rms-serve and cannot call its recover_poisoned; the inbox is a plain Vec that a panicking holder cannot tear, so propagating the panic is this crate's audited poison stance")
            let mut inbox_guard = inbox.lock().expect("reactor inbox poisoned");
            let queued = std::mem::take(&mut *inbox_guard);
            drop(inbox_guard);
            for cmd in queued {
                handler.on_cmd(cmd, ctx!());
            }

            // ---- accepts ----------------------------------------------
            if saw_listener && !draining && !listener_paused {
                while let Some(l) = listener.as_ref() {
                    // rms-analyze: allow(reactor-no-block, "the listener is nonblocking (set_listener); accept returns WouldBlock instead of parking the loop")
                    match l.accept() {
                        Ok((stream, _)) => handler.on_accept(stream, ctx!()),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            // Resource errors (EMFILE and friends) are
                            // level-triggered: the backlog stays ready, so
                            // retrying immediately would spin the loop hot.
                            // Park the listener briefly instead.
                            let _ = poller.deregister(l.as_raw_fd());
                            listener_paused = true;
                            timers.push(std::cmp::Reverse(
                                Instant::now() + Duration::from_millis(20),
                            ));
                            break;
                        }
                    }
                }
            }

            // ---- connection readiness ---------------------------------
            for &ev in &events {
                if ev.token == WAKER_TOKEN || ev.token == LISTENER_TOKEN {
                    continue;
                }
                if !conns.contains_key(&ev.token.0) {
                    continue;
                }
                if ev.failed {
                    dead.push(ev.token);
                    continue;
                }
                if ev.readable {
                    let hard_error = match conns.get_mut(&ev.token.0) {
                        Some(conn) => conn.fill(),
                        None => continue,
                    };
                    if hard_error {
                        dead.push(ev.token);
                        continue;
                    }
                    Self::pump_lines(ev.token, &mut handler, ctx!());
                }
                if ev.writable {
                    if let Some(conn) = conns.get_mut(&ev.token.0) {
                        match conn.queue.flush_into(&mut conn.stream) {
                            Ok(flushed) => {
                                metrics.write_queue_bytes.add(-(flushed as i64));
                            }
                            Err(_) => dead.push(ev.token),
                        }
                    }
                }
            }

            // ---- reads resumed mid-iteration --------------------------
            while let Some(token) = repump.pop() {
                Self::pump_lines(token, &mut handler, ctx!());
            }

            // Draining stops accepting: drop the listener now, or its
            // pending backlog would level-trigger a wakeup every wait.
            if draining {
                if let Some(l) = listener.take() {
                    let _ = poller.deregister(l.as_raw_fd());
                }
            }

            // ---- timers -----------------------------------------------
            let mut ticked = false;
            while let Some(&std::cmp::Reverse(at)) = timers.peek() {
                if at > now {
                    break;
                }
                timers.pop();
                ticked = true;
            }
            if ticked {
                handler.on_tick(now, ctx!());
                // Linger sweep piggybacks on ticks: every deadline was
                // registered as a timer, so expiry always produces one.
                for conn in conns.values() {
                    if matches!(conn.linger_deadline, Some(d) if d <= now) {
                        dead.push(conn.token);
                    }
                }
                if listener_paused && !draining {
                    if let Some(l) = listener.as_ref() {
                        if poller
                            .register(l.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
                            .is_ok()
                        {
                            listener_paused = false;
                        } else {
                            timers.push(std::cmp::Reverse(now + Duration::from_millis(20)));
                        }
                    }
                }
            }

            // ---- EOF notifications ------------------------------------
            eof_tokens.clear();
            for conn in conns.values_mut() {
                if conn.phase == ConnPhase::Open
                    && conn.eof
                    && !conn.eof_handled
                    && !conn.has_buffered_input()
                {
                    conn.eof_handled = true;
                    eof_tokens.push(conn.token);
                }
            }
            for &token in &eof_tokens {
                handler.on_eof(token, ctx!());
            }

            // ---- finalize: interest reconcile + teardown --------------
            for conn in conns.values_mut() {
                if conn.phase == ConnPhase::Open && conn.eof && !conn.has_buffered_input() {
                    // Peer finished sending; flush what we owe and close.
                    conn.phase = ConnPhase::Closing;
                }
                if conn.phase != ConnPhase::Open && conn.queue.is_empty() {
                    dead.push(conn.token);
                    continue;
                }
                let desired = (conn.wants_read(), !conn.queue.is_empty());
                if desired != conn.registered {
                    let interest = Interest {
                        read: desired.0,
                        write: desired.1,
                    };
                    if poller
                        .modify(conn.stream.as_raw_fd(), conn.token, interest)
                        .is_err()
                    {
                        dead.push(conn.token);
                        continue;
                    }
                    conn.registered = desired;
                }
            }
            dead.sort_unstable();
            dead.dedup();
            for token in dead.drain(..) {
                if let Some(conn) = conns.remove(&token.0) {
                    let dropped = conn.queue.bytes();
                    if dropped > 0 {
                        metrics.write_queue_bytes.add(-(dropped as i64));
                    }
                    let _ = poller.deregister(conn.stream.as_raw_fd());
                    drop(conn);
                    handler.on_close(token);
                }
            }

            if draining && conns.is_empty() {
                if let Some(l) = listener.take() {
                    let _ = poller.deregister(l.as_raw_fd());
                }
                return Ok(());
            }
        }
    }

    /// Delivers every complete buffered line for `token` to the
    /// handler, stopping early if the handler pauses or closes it.
    fn pump_lines<H: Handler<Cmd = C>>(token: Token, handler: &mut H, ctx: &mut Ctx<'_>) {
        loop {
            let step = {
                let Some(conn) = ctx.conns.get_mut(&token.0) else {
                    return;
                };
                if conn.paused || conn.phase != ConnPhase::Open {
                    return;
                }
                conn.take_line()
            };
            match step {
                LineStep::Line(line) => handler.on_line(token, &line, ctx),
                LineStep::Incomplete => return,
                LineStep::Malformed => {
                    if let Some(conn) = ctx.conns.get_mut(&token.0) {
                        conn.phase = ConnPhase::Closing;
                        let dropped = conn.queue.clear();
                        ctx.metrics.write_queue_bytes.add(-(dropped as i64));
                    }
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream as StdStream;

    /// Line-echo handler used by the loop tests.
    struct Echo;

    impl Handler for Echo {
        type Cmd = Arc<[u8]>;

        fn on_accept(&mut self, stream: TcpStream, ctx: &mut Ctx<'_>) {
            ctx.adopt(stream).expect("adopt");
        }

        fn on_line(&mut self, token: Token, line: &str, ctx: &mut Ctx<'_>) {
            if line == "QUIT" {
                ctx.push_line(token, "BYE");
                ctx.close(token);
            } else if line == "STOPLOOP" {
                ctx.begin_drain();
            } else {
                ctx.push_line(token, &format!("ECHO {line}"));
            }
        }

        fn on_cmd(&mut self, cmd: Arc<[u8]>, ctx: &mut Ctx<'_>) {
            for token in ctx.tokens() {
                ctx.push(token, &cmd);
            }
        }

        fn on_tick(&mut self, _now: Instant, _ctx: &mut Ctx<'_>) {}

        fn on_close(&mut self, _token: Token) {}
    }

    type EchoServer = (
        std::net::SocketAddr,
        Injector<Arc<[u8]>>,
        std::thread::JoinHandle<io::Result<()>>,
    );

    fn spawn_echo() -> EchoServer {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let registry = Registry::new();
        let mut reactor: Reactor<Arc<[u8]>> =
            Reactor::new(ReactorConfig::default(), &registry).unwrap();
        reactor.set_listener(listener).unwrap();
        let injector = reactor.injector();
        let handle = std::thread::spawn(move || reactor.run(Echo));
        (addr, injector, handle)
    }

    #[test]
    fn echo_round_trip_and_graceful_close() {
        let (addr, _injector, handle) = spawn_echo();
        let mut a = StdStream::connect(addr).unwrap();
        a.write_all(b"hello\nworld\nQUIT\n").unwrap();
        let mut lines = BufReader::new(a.try_clone().unwrap()).lines();
        assert_eq!(lines.next().unwrap().unwrap(), "ECHO hello");
        assert_eq!(lines.next().unwrap().unwrap(), "ECHO world");
        assert_eq!(lines.next().unwrap().unwrap(), "BYE");
        assert!(lines.next().is_none(), "server closed after QUIT");

        let mut b = StdStream::connect(addr).unwrap();
        b.write_all(b"STOPLOOP\n").unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn injected_broadcast_reaches_connections() {
        let (addr, injector, handle) = spawn_echo();
        let mut a = StdStream::connect(addr).unwrap();
        a.write_all(b"ping\n").unwrap();
        let mut lines = BufReader::new(a.try_clone().unwrap()).lines();
        assert_eq!(lines.next().unwrap().unwrap(), "ECHO ping");
        let payload: Arc<[u8]> = Arc::from(&b"BROADCAST 1\n"[..]);
        injector.inject(payload);
        assert_eq!(lines.next().unwrap().unwrap(), "BROADCAST 1");
        a.write_all(b"STOPLOOP\n").unwrap();
        drop(a);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn write_queue_overflow_evicts_with_final_err_line() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let registry = Registry::new();
        let cfg = ReactorConfig {
            write_queue_cap: 512,
            send_buffer: Some(1),
            evict_linger: Duration::from_millis(400),
        };
        let mut reactor: Reactor<Arc<[u8]>> = Reactor::new(cfg, &registry).unwrap();
        reactor.set_listener(listener).unwrap();
        let injector = reactor.injector();
        let evicted = registry.register_counter(
            "rms_net_evicted_subscribers_total",
            "Connections evicted for overflowing their write queue",
            &[],
        );
        let handle = std::thread::spawn(move || reactor.run(Echo));

        let client = StdStream::connect(addr).unwrap();
        // Tiny client receive window + never reading => the kernel
        // path clogs and the reactor-side queue absorbs the pushes.
        crate::sys::set_recv_buffer(std::os::unix::io::AsRawFd::as_raw_fd(&client), 1).unwrap();
        let payload: Arc<[u8]> = Arc::from(vec![b'x'; 1024].into_boxed_slice());
        for _ in 0..1000 {
            injector.inject(Arc::clone(&payload));
            if evicted.value() > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(evicted.value() >= 1, "overflow must evict the connection");

        // A fresh connection still gets service after the eviction.
        let mut b = StdStream::connect(addr).unwrap();
        b.write_all(b"still-alive\n").unwrap();
        let mut lines = BufReader::new(b.try_clone().unwrap()).lines();
        assert_eq!(lines.next().unwrap().unwrap(), "ECHO still-alive");
        b.write_all(b"STOPLOOP\n").unwrap();
        drop(b);
        drop(client);
        handle.join().unwrap().unwrap();
    }
}
