//! The reactor-side half of the TCP front end: per-connection protocol
//! state machines driven by an [`rms_net::Reactor`], with encode-once
//! delta fan-out and server-side filtered subscriptions.
//!
//! This module is the *event-loop dispatch path*: every function here
//! runs on a reactor thread inside a handler callback and must never
//! block (enforced by `rms-analyze`'s `reactor-no-block` rule).
//! Orchestration that legitimately blocks — thread joins, the applier
//! pump's channel receive, service shutdown — lives in
//! [`tcp`](crate::tcp).
//!
//! # Fan-out shape
//!
//! The pump thread encodes each published [`SnapshotDelta`] **once**
//! into a shared `Arc<[u8]>` line and injects it into every reactor.
//! Unfiltered `every=1` subscribers receive that buffer by reference —
//! per-subscriber cost is an `Arc` clone plus a write-queue append,
//! independent of the delta's size. Filtered subscribers share one
//! encode per *distinct filter* per publish (cached per reactor);
//! coalescing subscribers (`every=K`) are the only truly per-subscriber
//! encode path, and only on their flush beat.

use crate::protocol::{parse_request, Request, MAX_BATCH_LINES, PROTOCOL_VERSION};
use crate::service::{RmsHandle, SubmitError};
use crate::snapshot::{ResultSnapshot, SnapshotDelta};
use fdrms::Op;
use rms_geom::{Point, PointId};
use rms_metrics::{Counter, Gauge, Histogram, Registry};
use rms_net::{Ctx, Handler, Injector, Token};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::net::TcpStream;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long an idle `SUBSCRIBE` stream waits before flushing a pending
/// coalesced delta that has not yet spanned `every` epochs. One timer
/// on the reactor's wheel covers every subscriber (the pre-reactor
/// implementation woke a thread per subscriber on this period).
pub(crate) const SUBSCRIBE_IDLE_FLUSH: Duration = Duration::from_millis(200);

/// Retry beat for submits parked on ingestion backpressure.
const PARK_RETRY: Duration = Duration::from_millis(5);

/// A coalescing subscriber's accumulator, ready to encode: connection,
/// merged delta, optional id-range filter.
type PendingFlush = (Token, SnapshotDelta, Option<(PointId, PointId)>);

/// Label values for the per-verb request families. The last entry,
/// `invalid`, buckets lines whose leading token is no verb at all;
/// recognizable-but-malformed requests count under their verb.
const VERBS: [&str; 11] = [
    "insert",
    "delete",
    "update",
    "query",
    "stats",
    "shutdown",
    "hello",
    "batch",
    "subscribe",
    "metrics",
    "invalid",
];

/// Maps a raw request line to its [`VERBS`] slot.
fn verb_index(line: &str) -> usize {
    line.split_whitespace()
        .next()
        .and_then(|verb| VERBS.iter().position(|v| verb.eq_ignore_ascii_case(v)))
        .unwrap_or(VERBS.len() - 1)
}

/// Front-end instruments, registered once at [`RmsServer::run`]
/// (crate::RmsServer::run) into the service's registry and cloned into
/// every reactor handler and the delta pump.
#[derive(Debug, Clone)]
pub(crate) struct TcpMetrics {
    /// The service registry, kept for the `METRICS` verb's exposition.
    pub(crate) registry: Arc<Registry>,
    /// `rms_tcp_connections_total`.
    pub(crate) connections: Counter,
    /// `rms_tcp_subscribers` — connections currently in push mode.
    pub(crate) subscribers: Gauge,
    /// `rms_tcp_delta_bytes_total` — pushed `DELTA` line bytes.
    pub(crate) delta_bytes: Counter,
    /// Per-verb `rms_tcp_requests_total` / `rms_tcp_request_seconds`,
    /// indexed like [`VERBS`].
    requests: Vec<(Counter, Histogram)>,
    /// `rms_net_fanout_seconds` — per-publish fan-out latency within
    /// one reactor (mirror apply through last write-queue append).
    pub(crate) fanout_seconds: Histogram,
    /// `rms_net_delta_encodes_total{kind="unfiltered"}`: exactly one per
    /// publish (the shared buffer).
    pub(crate) encodes_unfiltered: Counter,
    /// `…{kind="filtered"}`: one per distinct id-range filter per
    /// publish per reactor.
    pub(crate) encodes_filtered: Counter,
    /// `…{kind="coalesced"}`: one per `every>1` subscriber flush.
    pub(crate) encodes_coalesced: Counter,
}

impl TcpMetrics {
    pub(crate) fn register(registry: &Arc<Registry>) -> Self {
        let requests = VERBS
            .iter()
            .map(|verb| {
                (
                    registry.register_counter(
                        "rms_tcp_requests_total",
                        "Requests handled, by verb (`invalid` buckets unrecognized lines).",
                        &[("verb", verb)],
                    ),
                    registry.register_histogram(
                        "rms_tcp_request_seconds",
                        "Request handling latency, by verb: parse through reply-ready \
                         (includes submit backpressure and BATCH body reads).",
                        &[("verb", verb)],
                    ),
                )
            })
            .collect();
        let encode = |kind: &str| {
            registry.register_counter(
                "rms_net_delta_encodes_total",
                "DELTA wire encodes, by kind: `unfiltered` is once per publish \
                 (the shared fan-out buffer), `filtered` once per distinct id \
                 filter per publish per reactor, `coalesced` once per every>1 \
                 subscriber flush.",
                &[("kind", kind)],
            )
        };
        TcpMetrics {
            registry: Arc::clone(registry),
            connections: registry.register_counter(
                "rms_tcp_connections_total",
                "Connections accepted by the TCP front end.",
                &[],
            ),
            subscribers: registry.register_gauge(
                "rms_tcp_subscribers",
                "Connections currently streaming deltas in push mode.",
                &[],
            ),
            delta_bytes: registry.register_counter(
                "rms_tcp_delta_bytes_total",
                "Bytes of DELTA lines pushed to subscribers.",
                &[],
            ),
            requests,
            fanout_seconds: registry.register_histogram(
                "rms_net_fanout_seconds",
                "Per-publish fan-out latency within one reactor: mirror apply \
                 through the last subscriber write-queue append.",
                &[],
            ),
            encodes_unfiltered: encode("unfiltered"),
            encodes_filtered: encode("filtered"),
            encodes_coalesced: encode("coalesced"),
        }
    }
}

/// Static service parameters every connection needs (for `HELLO`
/// replies and op parsing), captured once at bind time.
#[derive(Clone, Copy)]
pub(crate) struct ServerInfo {
    pub(crate) dim: usize,
    pub(crate) k: usize,
    pub(crate) r: usize,
}

/// Commands injected into a reactor by its peers: socket handoffs from
/// the accepting reactor, encoded publishes from the pump thread, and
/// the end-of-stream marker that begins the drain.
pub(crate) enum NetCmd {
    /// Adopt a freshly accepted socket (handoff ring).
    Adopt(TcpStream),
    /// One published delta: the parsed form (for mirrors, filters, and
    /// coalescing) plus the shared encode-once wire line (with
    /// newline).
    Publish {
        delta: Arc<SnapshotDelta>,
        line: Arc<[u8]>,
    },
    /// The service shut down; flush pending subscriptions and drain.
    StreamEnd,
}

/// The handler's replica of the published solution, advanced by every
/// [`NetCmd::Publish`]. `SUBSCRIBE` acks read from this mirror — not
/// from a fresh service snapshot — so the ack and the deltas that
/// follow it are gap-free by construction: the ack reflects exactly
/// the publishes this reactor has already fanned out.
#[derive(Debug, Clone)]
pub(crate) struct Mirror {
    version: u64,
    len: usize,
    ids: BTreeSet<PointId>,
}

impl Mirror {
    pub(crate) fn from_snapshot(snap: &ResultSnapshot) -> Self {
        Mirror {
            version: snap.epoch,
            len: snap.len,
            ids: snap.result.iter().map(Point::id).collect(),
        }
    }

    fn apply(&mut self, delta: &SnapshotDelta) {
        for id in &delta.removed {
            self.ids.remove(id);
        }
        for p in &delta.added {
            self.ids.insert(p.id());
        }
        self.version = delta.version;
        self.len = delta.len;
    }
}

/// In-flight `BATCH` framing: the header has been accepted and the
/// next `expected` lines are op lines.
struct BatchState {
    expected: usize,
    received: usize,
    ops: Vec<Op>,
    bad: Option<(usize, String)>,
    started: Instant,
}

/// Push-mode subscription state.
struct SubState {
    every: u64,
    filter: Option<(PointId, PointId)>,
    /// Coalescing accumulator for `every > 1`.
    pending: Option<SnapshotDelta>,
}

/// Ops accepted from the wire but not yet in the ingestion queue:
/// `try_submit` reported backpressure, reads are paused, and the
/// reactor retries on the [`PARK_RETRY`] beat. The reply (and the
/// request metrics) are deferred until the last op lands, so latency
/// histograms still include backpressure time, exactly like the old
/// blocking `submit` did.
struct Parked {
    ops: VecDeque<Op>,
    submitted: usize,
    total: usize,
    batch: bool,
    started: Instant,
    verb_idx: usize,
}

/// Per-connection protocol state.
#[derive(Default)]
struct ConnState {
    batch: Option<BatchState>,
    sub: Option<SubState>,
    parked: Option<Parked>,
}

/// What each reactor's handler is built from: the front end's shared
/// pieces, the starting [`Mirror`], and the reactor's index in the
/// group. One value is cloned per reactor.
#[derive(Clone)]
pub(crate) struct Front {
    pub(crate) handle: RmsHandle,
    pub(crate) info: ServerInfo,
    pub(crate) metrics: TcpMetrics,
    pub(crate) mirror: Mirror,
    /// Every reactor's injector, for the accept handoff ring.
    pub(crate) injectors: Vec<Injector<NetCmd>>,
    pub(crate) my_index: usize,
    pub(crate) shutdown_tx: Sender<()>,
}

/// The per-reactor protocol handler: its [`Front`] (whose mirror it
/// advances) plus the connection states and timer flags it owns.
pub(crate) struct NetHandler {
    front: Front,
    conns: HashMap<usize, ConnState>,
    rr: usize,
    flush_armed: bool,
    park_armed: bool,
}

impl NetHandler {
    pub(crate) fn new(front: Front) -> Self {
        NetHandler {
            front,
            conns: HashMap::new(),
            rr: 0,
            flush_armed: false,
            park_armed: false,
        }
    }

    fn adopt_local(&mut self, stream: TcpStream, ctx: &mut Ctx<'_>) {
        let _ = stream.set_nodelay(true);
        if let Ok(token) = ctx.adopt(stream) {
            self.front.metrics.connections.inc();
            self.conns.insert(token.0, ConnState::default());
        }
    }

    /// Counts a completed request and pushes its reply line.
    fn reply(
        &mut self,
        token: Token,
        verb_idx: usize,
        started: Instant,
        text: &str,
        ctx: &mut Ctx<'_>,
    ) {
        let (requests_total, request_seconds) = &self.front.metrics.requests[verb_idx];
        requests_total.inc();
        request_seconds.record(started.elapsed());
        ctx.push_line(token, text);
    }

    /// Counts a request whose reply closes the connection (protocol
    /// violations that cannot preserve framing).
    fn fatal(
        &mut self,
        token: Token,
        verb_idx: usize,
        started: Instant,
        text: &str,
        ctx: &mut Ctx<'_>,
    ) {
        self.reply(token, verb_idx, started, text, ctx);
        ctx.close(token);
    }

    fn arm_park_retry(&mut self, ctx: &mut Ctx<'_>) {
        if !self.park_armed {
            ctx.set_timer(Instant::now() + PARK_RETRY);
            self.park_armed = true;
        }
    }

    /// Submits `ops` via the non-blocking path; on backpressure parks
    /// the remainder (pausing reads) instead of stalling the reactor. A
    /// refusal (shutdown, or a failed log append) answers `ERR` and drops
    /// the rest; a `BATCH` says how many of its ops were queued.
    fn submit_parked(&mut self, token: Token, mut parked: Parked, ctx: &mut Ctx<'_>) {
        loop {
            let Some(op) = parked.ops.pop_front() else {
                let text = if parked.batch {
                    format!("OK queued n={}", parked.total)
                } else {
                    "OK queued".to_string()
                };
                let (verb_idx, started) = (parked.verb_idx, parked.started);
                self.reply(token, verb_idx, started, &text, ctx);
                ctx.resume_read(token);
                return;
            };
            match self.front.handle.try_submit(op) {
                Ok(()) => parked.submitted += 1,
                Err(SubmitError::Full(op)) => {
                    parked.ops.push_front(op);
                    ctx.pause_read(token);
                    if let Some(state) = self.conns.get_mut(&token.0) {
                        state.parked = Some(parked);
                    }
                    self.arm_park_retry(ctx);
                    return;
                }
                Err(e) => {
                    let text = if parked.batch {
                        format!("ERR {e} ({} of {} queued)", parked.submitted, parked.total)
                    } else {
                        format!("ERR {e}")
                    };
                    let (verb_idx, started) = (parked.verb_idx, parked.started);
                    self.reply(token, verb_idx, started, &text, ctx);
                    ctx.resume_read(token);
                    return;
                }
            }
        }
    }

    /// Consumes one op line of an in-flight `BATCH` body; submits and
    /// acknowledges once the announced count has arrived.
    fn on_batch_line(&mut self, token: Token, line: &str, ctx: &mut Ctx<'_>) {
        let Some(state) = self.conns.get_mut(&token.0) else {
            return;
        };
        let Some(batch) = state.batch.as_mut() else {
            return;
        };
        batch.received += 1;
        if batch.bad.is_none() {
            match parse_request(line, self.front.info.dim) {
                Ok(Request::Submit(op)) => batch.ops.push(op),
                Ok(_) => {
                    batch.bad = Some((
                        batch.received,
                        "only INSERT/DELETE/UPDATE allowed in a batch".into(),
                    ));
                }
                Err(msg) => batch.bad = Some((batch.received, msg)),
            }
        }
        if batch.received < batch.expected {
            return;
        }
        let Some(batch) = state.batch.take() else {
            return;
        };
        let verb_idx = verb_index("BATCH");
        if let Some((i, msg)) = batch.bad {
            self.reply(
                token,
                verb_idx,
                batch.started,
                &format!("ERR line {i}: {msg} (batch dropped)"),
                ctx,
            );
            return;
        }
        let parked = Parked {
            total: batch.ops.len(),
            ops: batch.ops.into(),
            submitted: 0,
            batch: true,
            started: batch.started,
            verb_idx,
        };
        self.submit_parked(token, parked, ctx);
    }

    /// `SUBSCRIBE`: acknowledge from the mirror and switch the
    /// connection to push mode. Reads are paused — a push-mode
    /// connection serves no further verbs (same contract as the old
    /// thread-per-connection server, where the subscription loop never
    /// read again).
    fn do_subscribe(
        &mut self,
        token: Token,
        verb_idx: usize,
        started: Instant,
        every: u64,
        filter: Option<(PointId, PointId)>,
        ctx: &mut Ctx<'_>,
    ) {
        let ids = match filter {
            None => join_iter(self.front.mirror.ids.iter()),
            Some((lo, hi)) => join_iter(self.front.mirror.ids.range(lo..=hi)),
        };
        let filter_field = match filter {
            None => String::new(),
            Some((lo, hi)) => format!(" filter={lo}..{hi}"),
        };
        let ack = format!(
            "OK subscribed every={every}{filter_field} epoch={} n={} ids={ids}",
            self.front.mirror.version, self.front.mirror.len,
        );
        if let Some(state) = self.conns.get_mut(&token.0) {
            state.sub = Some(SubState {
                every,
                filter,
                pending: None,
            });
        }
        self.front.metrics.subscribers.inc();
        ctx.pause_read(token);
        self.reply(token, verb_idx, started, &ack, ctx);
    }

    /// Fans one publish out to this reactor's subscribers.
    fn handle_publish(&mut self, delta: &Arc<SnapshotDelta>, line: &Arc<[u8]>, ctx: &mut Ctx<'_>) {
        if delta.version <= self.front.mirror.version {
            // Published before this reactor's mirror was captured; every
            // subscriber's ack already covers it.
            return;
        }
        let started = Instant::now();
        self.front.mirror.apply(delta);

        // Pass 1 (handler state only): route each subscriber — direct
        // push, coalesce-and-hold, or coalesce-and-flush.
        let mut direct: Vec<(Token, Option<(PointId, PointId)>)> = Vec::new();
        let mut flush: Vec<PendingFlush> = Vec::new();
        let mut held_pending = false;
        for (&token, state) in &mut self.conns {
            let Some(sub) = state.sub.as_mut() else {
                continue;
            };
            if sub.every <= 1 {
                direct.push((Token(token), sub.filter));
                continue;
            }
            let merged = match sub.pending.take() {
                None => (**delta).clone(),
                Some(mut acc) => {
                    acc.merge(delta);
                    acc
                }
            };
            if merged.version - merged.from_version >= sub.every {
                flush.push((Token(token), merged, sub.filter));
            } else {
                sub.pending = Some(merged);
                held_pending = true;
            }
        }

        // Pass 2 (reactor pushes): the shared buffer for unfiltered
        // subscribers, one cached encode per distinct filter.
        let mut filtered_cache: HashMap<(PointId, PointId), Arc<[u8]>> = HashMap::new();
        for (token, filter) in direct {
            let segment = match filter {
                None => Arc::clone(line),
                Some(f) => Arc::clone(filtered_cache.entry(f).or_insert_with(|| {
                    self.front.metrics.encodes_filtered.inc();
                    encode_delta_line(delta, Some(f))
                })),
            };
            if ctx.push(token, &segment) {
                self.front.metrics.delta_bytes.add(segment.len() as u64);
            }
        }
        for (token, merged, filter) in flush {
            self.front.metrics.encodes_coalesced.inc();
            let segment = encode_delta_line(&merged, filter);
            if ctx.push(token, &segment) {
                self.front.metrics.delta_bytes.add(segment.len() as u64);
            }
        }

        if held_pending && !self.flush_armed {
            ctx.set_timer(started + SUBSCRIBE_IDLE_FLUSH);
            self.flush_armed = true;
        }
        self.front.metrics.fanout_seconds.record(started.elapsed());
    }

    /// Flushes every held coalescing accumulator (idle beat or stream
    /// end).
    fn flush_pending_subs(&mut self, ctx: &mut Ctx<'_>) {
        let mut flush: Vec<PendingFlush> = Vec::new();
        for (&token, state) in &mut self.conns {
            if let Some(sub) = state.sub.as_mut() {
                if let Some(pending) = sub.pending.take() {
                    flush.push((Token(token), pending, sub.filter));
                }
            }
        }
        for (token, pending, filter) in flush {
            self.front.metrics.encodes_coalesced.inc();
            let segment = encode_delta_line(&pending, filter);
            if ctx.push(token, &segment) {
                self.front.metrics.delta_bytes.add(segment.len() as u64);
            }
        }
    }

    /// Retries every parked submit; re-arms the beat if any remain.
    fn retry_parked(&mut self, ctx: &mut Ctx<'_>) {
        self.park_armed = false;
        let tokens: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, s)| s.parked.is_some())
            .map(|(&t, _)| t)
            .collect();
        for token in tokens {
            let Some(parked) = self.conns.get_mut(&token).and_then(|s| s.parked.take()) else {
                continue;
            };
            self.submit_parked(Token(token), parked, ctx);
        }
    }
}

impl Handler for NetHandler {
    type Cmd = NetCmd;

    fn on_accept(&mut self, stream: TcpStream, ctx: &mut Ctx<'_>) {
        let n = self.front.injectors.len();
        if n <= 1 {
            self.adopt_local(stream, ctx);
            return;
        }
        let target = self.rr % n;
        self.rr = self.rr.wrapping_add(1);
        if target == self.front.my_index {
            self.adopt_local(stream, ctx);
        } else {
            self.front.injectors[target].inject(NetCmd::Adopt(stream));
        }
    }

    fn on_line(&mut self, token: Token, line: &str, ctx: &mut Ctx<'_>) {
        let Some(state) = self.conns.get_mut(&token.0) else {
            return;
        };
        if state.batch.is_some() {
            self.on_batch_line(token, line, ctx);
            return;
        }
        if line.trim().is_empty() {
            return;
        }
        let started = Instant::now();
        let verb_idx = verb_index(line);
        match parse_request(line, self.front.info.dim) {
            // A BATCH header is *framing*: if it cannot be parsed (e.g. a
            // count that overflows), the announced op lines cannot be
            // consumed, and replying ERR while keeping the connection
            // would reinterpret them as requests. Closing is the only
            // framing-safe refusal.
            Err(msg) if VERBS[verb_idx] == "batch" => {
                self.fatal(
                    token,
                    verb_idx,
                    started,
                    &format!("ERR {msg}; closing connection (unusable BATCH framing)"),
                    ctx,
                );
            }
            Err(msg) => self.reply(token, verb_idx, started, &format!("ERR {msg}"), ctx),
            // Every connection speaks the whole verb set, so the requested
            // version selects nothing: HELLO only advertises.
            Ok(Request::Hello(_)) => {
                let text = format!(
                    "OK v{PROTOCOL_VERSION} dim={} k={} r={}",
                    self.front.info.dim, self.front.info.k, self.front.info.r
                );
                self.reply(token, verb_idx, started, &text, ctx);
            }
            Ok(Request::Shutdown) => {
                self.reply(token, verb_idx, started, "OK shutting down", ctx);
                // The shutdown channel is an unbounded mpsc sender:
                // send enqueues and returns, it can never park the
                // reactor thread.
                let _ = self.front.shutdown_tx.send(());
                ctx.close(token);
            }
            Ok(Request::Submit(op)) => {
                let parked = Parked {
                    ops: VecDeque::from([op]),
                    submitted: 0,
                    total: 1,
                    batch: false,
                    started,
                    verb_idx,
                };
                self.submit_parked(token, parked, ctx);
            }
            Ok(Request::Query) => {
                let text = format_query(&self.front.handle.snapshot());
                self.reply(token, verb_idx, started, &text, ctx);
            }
            Ok(Request::Stats) => {
                let text = format_stats(&self.front.handle);
                self.reply(token, verb_idx, started, &text, ctx);
            }
            Ok(Request::Batch(n)) if n > MAX_BATCH_LINES => {
                // Refusing without consuming would reinterpret the
                // announced op lines as requests; closing is the only
                // framing-safe refusal.
                self.fatal(
                    token,
                    verb_idx,
                    started,
                    &format!("ERR BATCH size {n} exceeds {MAX_BATCH_LINES}; closing connection"),
                    ctx,
                );
            }
            Ok(Request::Batch(0)) => {
                self.reply(token, verb_idx, started, "OK queued n=0", ctx);
            }
            Ok(Request::Batch(n)) => {
                if let Some(state) = self.conns.get_mut(&token.0) {
                    state.batch = Some(BatchState {
                        expected: n,
                        received: 0,
                        ops: Vec::with_capacity(n),
                        bad: None,
                        started,
                    });
                }
            }
            Ok(Request::Subscribe { every, filter }) => {
                self.do_subscribe(token, verb_idx, started, every, filter, ctx);
            }
            Ok(Request::Metrics) => {
                let text = format_metrics(&self.front.metrics.registry);
                self.reply(token, verb_idx, started, &text, ctx);
            }
        }
    }

    fn on_cmd(&mut self, cmd: NetCmd, ctx: &mut Ctx<'_>) {
        match cmd {
            NetCmd::Adopt(stream) => self.adopt_local(stream, ctx),
            NetCmd::Publish { delta, line } => self.handle_publish(&delta, &line, ctx),
            NetCmd::StreamEnd => {
                self.flush_pending_subs(ctx);
                ctx.begin_drain();
            }
        }
    }

    fn on_tick(&mut self, _now: Instant, ctx: &mut Ctx<'_>) {
        if self.flush_armed {
            self.flush_armed = false;
            self.flush_pending_subs(ctx);
        }
        self.retry_parked(ctx);
    }

    fn on_eof(&mut self, token: Token, ctx: &mut Ctx<'_>) {
        // A peer that hangs up mid-BATCH body broke its own framing;
        // report it the way the old server did before the close.
        let Some(state) = self.conns.get_mut(&token.0) else {
            return;
        };
        if let Some(batch) = state.batch.take() {
            ctx.push_line(
                token,
                &format!(
                    "ERR BATCH truncated: got {} of {} operation lines",
                    batch.received, batch.expected
                ),
            );
            ctx.close(token);
        }
    }

    fn on_close(&mut self, token: Token) {
        if let Some(state) = self.conns.remove(&token.0) {
            if state.sub.is_some() {
                self.front.metrics.subscribers.dec();
            }
        }
    }
}

/// Encodes one `DELTA` wire line (with trailing newline), optionally
/// sliced to an id-range filter.
pub(crate) fn encode_delta_line(
    delta: &SnapshotDelta,
    filter: Option<(PointId, PointId)>,
) -> Arc<[u8]> {
    let mut line = format_delta(delta, filter);
    line.push('\n');
    Arc::from(line.into_bytes().into_boxed_slice())
}

/// Formats a `DELTA` line: `DELTA epoch=E from=F n=N [+ids] [-ids]`.
/// With a filter, the `+`/`-` id lists are sliced to the range; the
/// header always goes out (even when both slices are empty), so
/// filtered subscribers still observe every version.
pub(crate) fn format_delta(delta: &SnapshotDelta, filter: Option<(PointId, PointId)>) -> String {
    let in_range = |id: PointId| filter.is_none_or(|(lo, hi)| id >= lo && id <= hi);
    let mut out = format!(
        "DELTA epoch={} from={} n={}",
        delta.version, delta.from_version, delta.len,
    );
    let added = join_iter(delta.added.iter().map(Point::id).filter(|&id| in_range(id)));
    if !added.is_empty() {
        out.push_str(" +");
        out.push_str(&added);
    }
    let removed = join_iter(delta.removed.iter().copied().filter(|&id| in_range(id)));
    if !removed.is_empty() {
        out.push_str(" -");
        out.push_str(&removed);
    }
    out
}

pub(crate) fn format_query(snap: &ResultSnapshot) -> String {
    format!(
        "OK epoch={} n={} r={} ids={}",
        snap.epoch,
        snap.len,
        snap.result.len(),
        join_ids(&snap.result),
    )
}

pub(crate) fn format_stats(handle: &RmsHandle) -> String {
    let snap = handle.snapshot();
    let s = &snap.stats;
    let mut out = format!(
        "OK epoch={} n={} m={} r={} queue_depth={} batches={} replayed_batches={} \
         ops_applied={} ops_rejected={} wal_recovered={} last_batch={} max_coalesced={} \
         avg_apply_ms={:.4} last_apply_ms={:.4}",
        snap.epoch,
        snap.len,
        snap.m,
        snap.result.len(),
        handle.queue_depth(),
        s.batches,
        s.replayed_batches,
        s.ops_applied,
        s.ops_rejected,
        s.wal_recovered_ops,
        s.last_batch_ops,
        s.max_coalesced,
        s.avg_apply_ms(),
        s.last_apply_ms,
    );
    if let Some(mrr) = snap.mrr {
        out.push_str(&format!(" mrr={mrr:.5}"));
    }
    out
}

/// The `METRICS` reply: a counted header so line-oriented clients know
/// how many raw exposition lines follow, then the Prometheus text
/// exposition itself (which is multi-line by nature).
pub(crate) fn format_metrics(registry: &Registry) -> String {
    let encoded = registry.encode();
    let body = encoded.trim_end_matches('\n');
    if body.is_empty() {
        return "OK metrics lines=0".to_string();
    }
    format!("OK metrics lines={}\n{body}", body.lines().count())
}

fn join_ids(points: &[Point]) -> String {
    join_iter(points.iter().map(Point::id))
}

fn join_iter<I>(values: I) -> String
where
    I: IntoIterator,
    I::Item: std::borrow::Borrow<u64>,
{
    use std::borrow::Borrow;
    let mut out = String::new();
    for v in values {
        if !out.is_empty() {
            out.push(',');
        }
        out.push_str(&v.borrow().to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{RmsService, ServeConfig};
    use crate::snapshot::ServiceStats;

    fn point(id: PointId) -> Point {
        Point::new_unchecked(id, vec![0.5, 0.5])
    }

    #[test]
    fn query_reply_keeps_its_wire_form() {
        let mut snap = ResultSnapshot {
            epoch: 7,
            result: vec![point(3), point(11)],
            len: 60,
            m: 64,
            mrr: None,
            stats: ServiceStats::default(),
        };
        assert_eq!(format_query(&snap), "OK epoch=7 n=60 r=2 ids=3,11");
        // An empty solution still names the field.
        snap.result.clear();
        assert_eq!(format_query(&snap), "OK epoch=7 n=60 r=0 ids=");
    }

    #[test]
    fn stats_reply_keeps_its_wire_form() {
        let points = (0..20)
            .map(|i| Point::new_unchecked(i, vec![i as f64 / 20.0, 1.0 - i as f64 / 20.0]))
            .collect();
        let service = RmsService::start(
            fdrms::FdRms::builder(2).r(3).max_utilities(16).seed(1),
            points,
            ServeConfig::default(),
        )
        .unwrap();
        let snap = service.snapshot();
        assert_eq!(
            format_stats(&service.handle()),
            format!(
                "OK epoch=0 n=20 m={} r={} queue_depth=0 batches=0 replayed_batches=0 \
                 ops_applied=0 ops_rejected=0 wal_recovered=0 last_batch=0 max_coalesced=0 \
                 avg_apply_ms=0.0000 last_apply_ms=0.0000",
                snap.m,
                snap.result.len()
            )
        );
    }

    #[test]
    fn delta_line_slices_ids_to_the_filter_but_keeps_its_header() {
        let delta = SnapshotDelta {
            from_version: 4,
            version: 6,
            added: vec![point(2), point(9)],
            removed: vec![5, 12],
            len: 61,
        };
        assert_eq!(
            format_delta(&delta, None),
            "DELTA epoch=6 from=4 n=61 +2,9 -5,12"
        );
        assert_eq!(
            format_delta(&delta, Some((0, 5))),
            "DELTA epoch=6 from=4 n=61 +2 -5"
        );
        assert_eq!(
            format_delta(&delta, Some((20, 30))),
            "DELTA epoch=6 from=4 n=61"
        );
        assert_eq!(
            &*encode_delta_line(&delta, Some((9, 12))),
            b"DELTA epoch=6 from=4 n=61 +9 -12\n"
        );
    }

    #[test]
    fn metrics_reply_counts_the_lines_that_follow() {
        let registry = Registry::new();
        assert_eq!(format_metrics(&registry), "OK metrics lines=0");
        registry
            .register_counter("rms_test_events_total", "Test events.", &[])
            .add(3);
        let reply = format_metrics(&registry);
        let (header, body) = reply.split_once('\n').unwrap();
        assert_eq!(header, format!("OK metrics lines={}", body.lines().count()));
        assert!(body.ends_with("rms_test_events_total 3"), "{body}");
    }
}
