//! # rms-client — a typed, std-only client for the krms serving protocol
//!
//! Speaks the line protocol of `rms-serve`'s TCP front end (the
//! mutation verbs, `QUERY`/`STATS`/`SHUTDOWN`, and
//! `HELLO`/`BATCH`/`SUBSCRIBE`/`METRICS`) over a plain
//! `std::net::TcpStream`. The encoding and reply parsing are
//! implemented here from the protocol specification, *not* shared with
//! the server crate, so the wire format has two independent in-tree
//! implementations testing each other.
//!
//! Every request — a one-line verb or a whole `BATCH` frame — is encoded
//! into a buffer the client keeps and handed to the socket in one write,
//! so it costs one syscall and, on the client's `TCP_NODELAY` socket, one
//! segment.
//!
//! ```no_run
//! use rms_client::{ClientOp, RmsClient};
//!
//! let mut client = RmsClient::connect("127.0.0.1:7878").unwrap();
//! client.insert(42, &[0.9, 0.8]).unwrap();
//! client.submit_batch(&[
//!     ClientOp::insert(43, vec![0.5, 0.5]),
//!     ClientOp::delete(7),
//! ]).unwrap();
//! let q = client.query().unwrap();
//! println!("epoch {}: solution {:?}", q.epochs[0], q.ids);
//!
//! // Push mode: the connection becomes a delta stream.
//! let mut sub = client.subscribe(1).unwrap();
//! while let Some(delta) = sub.next_delta().unwrap() {
//!     println!("v{} +{:?} -{:?} (ids now {:?})",
//!              delta.version, delta.added, delta.removed, sub.ids());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// The protocol version this client names in its `HELLO`.
pub const PROTOCOL_VERSION: u32 = 2;

/// The server's cap on op lines per `BATCH` frame (a larger header makes
/// the server close the connection). [`RmsClient::submit_batch`] chunks
/// transparently, so callers never need to check it themselves.
pub const MAX_BATCH_LINES: usize = 1 << 16;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or was closed mid-reply.
    Io(std::io::Error),
    /// The server replied `ERR <reason>`; the connection is still usable.
    Server(String),
    /// The reply did not have the documented shape.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One mutation, as the client encodes it (ids and raw coordinates — no
/// dependency on the engine's types).
#[derive(Debug, Clone, PartialEq)]
pub enum ClientOp {
    /// Insert a fresh tuple.
    Insert {
        /// Tuple id (must not be live).
        id: u64,
        /// Attribute values, one per dimension.
        coords: Vec<f64>,
    },
    /// Delete a live tuple.
    Delete {
        /// Tuple id (must be live).
        id: u64,
    },
    /// Replace a live tuple's attributes.
    Update {
        /// Tuple id (must be live).
        id: u64,
        /// Replacement attribute values.
        coords: Vec<f64>,
    },
}

impl ClientOp {
    /// Shorthand for [`ClientOp::Insert`].
    pub fn insert(id: u64, coords: Vec<f64>) -> Self {
        ClientOp::Insert { id, coords }
    }

    /// Shorthand for [`ClientOp::Delete`].
    pub fn delete(id: u64) -> Self {
        ClientOp::Delete { id }
    }

    /// Shorthand for [`ClientOp::Update`].
    pub fn update(id: u64, coords: Vec<f64>) -> Self {
        ClientOp::Update { id, coords }
    }

    /// Appends the op's request line, its newline included.
    fn encode(&self, out: &mut Vec<u8>) -> io::Result<()> {
        let (verb, id, coords) = match self {
            ClientOp::Insert { id, coords } => ("INSERT", id, coords),
            ClientOp::Update { id, coords } => ("UPDATE", id, coords),
            ClientOp::Delete { id } => return writeln!(out, "DELETE {id}"),
        };
        write!(out, "{verb} {id} ")?;
        let mut sep = "";
        for c in coords {
            write!(out, "{sep}{c}")?;
            sep = " ";
        }
        writeln!(out)
    }
}

/// One request, as the client frames it.
#[derive(Debug, Clone, Copy)]
enum Request<'a> {
    Hello,
    Op(&'a ClientOp),
    Batch(&'a [ClientOp]),
    Query,
    Stats,
    Metrics,
    Shutdown,
    Subscribe { every: u64, ids: Option<(u64, u64)> },
}

impl Request<'_> {
    /// Appends the request's complete wire bytes: one line, or a `BATCH`
    /// header and its op lines.
    fn encode(self, out: &mut Vec<u8>) -> io::Result<()> {
        match self {
            Request::Hello => writeln!(out, "HELLO v{PROTOCOL_VERSION}"),
            Request::Op(op) => op.encode(out),
            Request::Batch(ops) => {
                writeln!(out, "BATCH {}", ops.len())?;
                ops.iter().try_for_each(|op| op.encode(out))
            }
            Request::Query => writeln!(out, "QUERY"),
            Request::Stats => writeln!(out, "STATS"),
            Request::Metrics => writeln!(out, "METRICS"),
            Request::Shutdown => writeln!(out, "SHUTDOWN"),
            Request::Subscribe { every, ids: None } => writeln!(out, "SUBSCRIBE every={every}"),
            Request::Subscribe {
                every,
                ids: Some((lo, hi)),
            } => writeln!(out, "SUBSCRIBE every={every} ids={lo}..{hi}"),
        }
    }
}

/// Frames every request the client sends: encodes `req` into `buf`
/// (cleared first; its capacity is kept from request to request) and
/// hands the complete request to `w` in one `write_all`.
fn send_request(w: &mut impl Write, buf: &mut Vec<u8>, req: Request<'_>) -> io::Result<()> {
    buf.clear();
    req.encode(buf)?;
    w.write_all(buf)
}

/// What the server advertised in its `HELLO` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerHello {
    /// The protocol version the server advertises.
    pub version: u32,
    /// Tuple dimensionality `d`.
    pub dim: usize,
    /// Rank depth `k`.
    pub k: usize,
    /// Result size budget `r`.
    pub r: usize,
}

/// A parsed `QUERY` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// The publication epoch, as the only element: the server publishes
    /// one epoch per snapshot.
    pub epochs: Vec<u64>,
    /// Live tuples `n`.
    pub n: usize,
    /// Ids of the published solution, ascending.
    pub ids: Vec<u64>,
}

/// A parsed `STATS` reply: every `key=value` field, with typed access to
/// the common ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    fields: BTreeMap<String, String>,
}

impl ServerStats {
    /// The raw value of `key`, if the server reported it.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields.get(key).map(String::as_str)
    }

    /// `key` parsed as an integer.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.parse().ok()
    }

    /// Operations the engine accepted so far.
    pub fn ops_applied(&self) -> Option<u64> {
        self.get_u64("ops_applied")
    }

    /// Operations validation rejected so far.
    pub fn ops_rejected(&self) -> Option<u64> {
        self.get_u64("ops_rejected")
    }
}

/// One pushed `DELTA` line, already parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// The epoch after the delta.
    pub version: u64,
    /// The epoch the delta applies on top of.
    pub from: u64,
    /// Live tuples after the delta.
    pub n: usize,
    /// Ids that entered (or changed within) the solution.
    pub added: Vec<u64>,
    /// Ids that left the solution.
    pub removed: Vec<u64>,
}

/// A typed client connection. Every call sends its whole request in one
/// write and reads one reply line; [`RmsClient::subscribe`] consumes the
/// client and turns the connection into a push-mode [`Subscription`].
#[derive(Debug)]
pub struct RmsClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The encode buffer [`send_request`] reuses for every request.
    request: Vec<u8>,
    hello: ServerHello,
}

impl RmsClient {
    /// Connects and sends `HELLO`, whose reply carries the server's
    /// parameters; [`RmsClient::hello`] reports what it advertised.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut client = Self {
            reader,
            writer: stream,
            request: Vec::new(),
            hello: ServerHello {
                version: 1,
                dim: 0,
                k: 0,
                r: 0,
            },
        };
        let reply = client.roundtrip(Request::Hello)?;
        client.hello = parse_hello(&reply)?;
        Ok(client)
    }

    /// What the server advertised at connect time.
    pub fn hello(&self) -> ServerHello {
        self.hello
    }

    /// Sets (or clears, with `None`) the socket read timeout for replies
    /// and pushed deltas.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.writer.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sends `req` in one write and reads its reply line.
    fn roundtrip(&mut self, req: Request<'_>) -> Result<String, ClientError> {
        send_request(&mut self.writer, &mut self.request, req)?;
        read_ok_line(&mut self.reader)
    }

    /// Submits one mutation; `Ok` means the server acknowledged the
    /// enqueue (`OK queued`).
    pub fn submit(&mut self, op: &ClientOp) -> Result<(), ClientError> {
        self.roundtrip(Request::Op(op)).map(|_| ())
    }

    /// Enqueues an insertion.
    pub fn insert(&mut self, id: u64, coords: &[f64]) -> Result<(), ClientError> {
        self.submit(&ClientOp::insert(id, coords.to_vec()))
    }

    /// Enqueues a deletion.
    pub fn delete(&mut self, id: u64) -> Result<(), ClientError> {
        self.submit(&ClientOp::delete(id))
    }

    /// Enqueues an attribute update.
    pub fn update(&mut self, id: u64, coords: &[f64]) -> Result<(), ClientError> {
        self.submit(&ClientOp::update(id, coords.to_vec()))
    }

    /// Submits `ops` as one pipelined `BATCH`: all op lines go out in a
    /// single write and the server acknowledges once for all of them —
    /// the ingest hot path amortization.
    ///
    /// Each frame is all-or-nothing: the server queues and logs its ops
    /// whole, or refuses it whole — malformed, shutting down, a failed
    /// log append — with `ERR … (batch dropped)` and none of its ops
    /// queued, so retrying a refused frame re-applies nothing. Batches
    /// above the server's per-frame cap ([`MAX_BATCH_LINES`]) are split
    /// into multiple frames transparently (one ack each; the returned
    /// count sums them), and an error on a later frame leaves the
    /// earlier ones queued.
    pub fn submit_batch(&mut self, ops: &[ClientOp]) -> Result<usize, ClientError> {
        let mut total = 0;
        for chunk in ops.chunks(MAX_BATCH_LINES.max(1)) {
            let reply = self.roundtrip(Request::Batch(chunk))?;
            total += field(&reply, "n")
                .and_then(|v| v.parse::<usize>().ok())
                .ok_or_else(|| ClientError::Protocol(format!("no n= in batch ack `{reply}`")))?;
        }
        Ok(total)
    }

    /// Reads the published solution.
    pub fn query(&mut self) -> Result<QueryResult, ClientError> {
        let reply = self.roundtrip(Request::Query)?;
        let fields = parse_fields(&reply);
        let epoch = parse_epoch(&fields)
            .ok_or_else(|| ClientError::Protocol(format!("no epoch= in query reply `{reply}`")))?;
        let n = fields
            .get("n")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("no n= in query reply `{reply}`")))?;
        let ids = fields
            .get("ids")
            .map(|v| parse_id_list(v))
            .transpose()?
            .ok_or_else(|| ClientError::Protocol(format!("no ids= in query reply `{reply}`")))?;
        Ok(QueryResult {
            epochs: vec![epoch],
            n,
            ids,
        })
    }

    /// Reads service metrics.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        let reply = self.roundtrip(Request::Stats)?;
        Ok(ServerStats {
            fields: parse_fields(&reply),
        })
    }

    /// Reads the server's Prometheus text exposition (`METRICS`): the
    /// `OK metrics lines=N` header is followed by `N` raw exposition
    /// lines, returned joined with `\n` (trailing newline included, as
    /// a scrape endpoint would serve it; empty string when the server
    /// exposes no metric families).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let reply = self.roundtrip(Request::Metrics)?;
        let lines: usize = field(&reply, "lines")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("no lines= in metrics ack `{reply}`")))?;
        let mut body = String::new();
        let mut line = String::new();
        for i in 0..lines {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(ClientError::Protocol(format!(
                    "metrics body truncated: got {i} of {lines} lines"
                )));
            }
            body.push_str(line.trim_end_matches(['\r', '\n']));
            body.push('\n');
        }
        Ok(body)
    }

    /// Asks the server to drain and stop (`SHUTDOWN`).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.roundtrip(Request::Shutdown).map(|_| ())
    }

    /// Switches the connection to push mode: the server acknowledges
    /// with the starting solution and then streams one `DELTA` line per
    /// `every` published epochs. The returned [`Subscription`] applies
    /// each delta to its mirror of the solution as it yields it.
    pub fn subscribe(self, every: u64) -> Result<Subscription, ClientError> {
        self.subscribe_with(Request::Subscribe { every, ids: None })
    }

    /// Like [`RmsClient::subscribe`], but with a server-side id-range
    /// filter (`SUBSCRIBE every=K ids=LO..HI`, bounds inclusive): the
    /// ack's starting ids and every streamed delta's `+`/`-` lists are
    /// sliced to the range before they cross the wire, so the
    /// subscription mirrors only the `[lo, hi]` slice of the solution.
    /// Header-only `DELTA` lines still arrive for versions whose slice
    /// is empty, so [`Subscription::epochs`] tracks every version.
    pub fn subscribe_filtered(
        self,
        every: u64,
        lo: u64,
        hi: u64,
    ) -> Result<Subscription, ClientError> {
        self.subscribe_with(Request::Subscribe {
            every,
            ids: Some((lo, hi)),
        })
    }

    fn subscribe_with(mut self, req: Request<'_>) -> Result<Subscription, ClientError> {
        let reply = self.roundtrip(req)?;
        let fields = parse_fields(&reply);
        let epoch = parse_epoch(&fields).ok_or_else(|| {
            ClientError::Protocol(format!("no epoch= in subscribe ack `{reply}`"))
        })?;
        let ids = fields
            .get("ids")
            .map(|v| parse_id_list(v))
            .transpose()?
            .ok_or_else(|| ClientError::Protocol(format!("no ids= in subscribe ack `{reply}`")))?;
        Ok(Subscription {
            reader: self.reader,
            solution: ids.into_iter().collect(),
            epoch,
        })
    }
}

/// A push-mode connection produced by [`RmsClient::subscribe`]: yields
/// parsed [`Delta`]s and maintains the solution they reconstruct.
#[derive(Debug)]
pub struct Subscription {
    reader: BufReader<TcpStream>,
    solution: BTreeSet<u64>,
    epoch: u64,
}

impl Subscription {
    /// The reconstructed solution ids (base state plus every delta
    /// yielded so far), ascending.
    pub fn ids(&self) -> Vec<u64> {
        self.solution.iter().copied().collect()
    }

    /// The epoch of the last yielded delta (the base state's before any
    /// delta arrives), as the only element.
    pub fn epochs(&self) -> &[u64] {
        std::slice::from_ref(&self.epoch)
    }

    /// Blocks for the next delta, applies it to the mirrored solution,
    /// and returns it; `Ok(None)` means the stream ended (server
    /// shutdown).
    pub fn next_delta(&mut self) -> Result<Option<Delta>, ClientError> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                continue;
            }
            let delta = parse_delta(trimmed)?;
            for id in &delta.removed {
                self.solution.remove(id);
            }
            for id in &delta.added {
                self.solution.insert(*id);
            }
            self.epoch = delta.version;
            return Ok(Some(delta));
        }
    }
}

impl Iterator for Subscription {
    type Item = Result<Delta, ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_delta().transpose()
    }
}

/// Reads one reply line, mapping `ERR …` to [`ClientError::Server`] and
/// EOF to an unexpected-close error.
fn read_ok_line(reader: &mut BufReader<TcpStream>) -> Result<String, ClientError> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        )));
    }
    let line = line.trim_end();
    if let Some(msg) = line.strip_prefix("ERR ") {
        return Err(ClientError::Server(msg.to_string()));
    }
    if line == "ERR" {
        return Err(ClientError::Server(String::new()));
    }
    if !line.starts_with("OK") {
        return Err(ClientError::Protocol(format!(
            "reply is neither OK nor ERR: `{line}`"
        )));
    }
    Ok(line.to_string())
}

/// Splits a reply into its `key=value` fields (tokens without `=` are
/// ignored).
fn parse_fields(line: &str) -> BTreeMap<String, String> {
    line.split_whitespace()
        .filter_map(|tok| {
            tok.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
        })
        .collect()
}

/// One token's `key=value` value, straight off a reply line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace().find_map(|tok| {
        tok.split_once('=')
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
    })
}

/// The `epoch=E` field of a reply.
fn parse_epoch(fields: &BTreeMap<String, String>) -> Option<u64> {
    fields.get("epoch")?.parse().ok()
}

/// Parses a comma-separated id list (empty string → empty list).
fn parse_id_list(raw: &str) -> Result<Vec<u64>, ClientError> {
    if raw.is_empty() {
        return Ok(Vec::new());
    }
    raw.split(',')
        .map(|tok| {
            tok.parse()
                .map_err(|_| ClientError::Protocol(format!("invalid id `{tok}`")))
        })
        .collect()
}

fn parse_hello(reply: &str) -> Result<ServerHello, ClientError> {
    let version = reply
        .split_whitespace()
        .nth(1)
        .and_then(|tok| tok.strip_prefix('v'))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ClientError::Protocol(format!("no version in hello reply `{reply}`")))?;
    let get = |key: &str| field(reply, key).and_then(|v| v.parse().ok());
    Ok(ServerHello {
        version,
        dim: get("dim").unwrap_or(0),
        k: get("k").unwrap_or(0),
        r: get("r").unwrap_or(0),
    })
}

/// Parses one pushed `DELTA` line.
fn parse_delta(line: &str) -> Result<Delta, ClientError> {
    let rest = line
        .strip_prefix("DELTA")
        .ok_or_else(|| ClientError::Protocol(format!("expected a DELTA line, got `{line}`")))?;
    let mut version = None;
    let mut from = None;
    let mut n = None;
    let mut added = Vec::new();
    let mut removed = Vec::new();
    for tok in rest.split_whitespace() {
        if let Some(v) = tok.strip_prefix("epoch=") {
            version = Some(
                v.parse()
                    .map_err(|_| ClientError::Protocol(format!("invalid epoch `{v}`")))?,
            );
        } else if let Some(v) = tok.strip_prefix("from=") {
            from = Some(
                v.parse()
                    .map_err(|_| ClientError::Protocol(format!("invalid from `{v}`")))?,
            );
        } else if let Some(v) = tok.strip_prefix("n=") {
            n = Some(
                v.parse()
                    .map_err(|_| ClientError::Protocol(format!("invalid n `{v}`")))?,
            );
        } else if let Some(v) = tok.strip_prefix('+') {
            added = parse_id_list(v)?;
        } else if let Some(v) = tok.strip_prefix('-') {
            removed = parse_id_list(v)?;
        }
    }
    match (version, from, n) {
        (Some(version), Some(from), Some(n)) => Ok(Delta {
            version,
            from,
            n,
            added,
            removed,
        }),
        _ => Err(ClientError::Protocol(format!(
            "incomplete DELTA line `{line}`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` that records the bytes of every `write` call.
    #[derive(Default)]
    struct Recorder {
        writes: Vec<Vec<u8>>,
    }

    impl Write for Recorder {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.writes.push(bytes.to_vec());
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Each verb's request reaches the socket as one `write` carrying the
    /// whole request — a `BATCH` header together with its op lines — in
    /// the bytes the protocol specifies, coordinates in `f64`'s shortest
    /// round-trip form. One buffer serves every request, so a shorter
    /// request after a longer one carries nothing stale.
    #[test]
    fn every_request_is_one_write() {
        let insert = ClientOp::insert(7, vec![0.5, 0.25]);
        let delete = ClientOp::delete(9);
        let update = ClientOp::update(3, vec![1.0, 0.0]);
        let batch = [insert.clone(), delete.clone()];
        let cases: [(Request<'_>, &str); 11] = [
            (Request::Hello, "HELLO v2\n"),
            (Request::Op(&insert), "INSERT 7 0.5 0.25\n"),
            (Request::Op(&delete), "DELETE 9\n"),
            (Request::Op(&update), "UPDATE 3 1 0\n"),
            (
                Request::Batch(&batch),
                "BATCH 2\nINSERT 7 0.5 0.25\nDELETE 9\n",
            ),
            (Request::Query, "QUERY\n"),
            (Request::Stats, "STATS\n"),
            (Request::Metrics, "METRICS\n"),
            (Request::Shutdown, "SHUTDOWN\n"),
            (
                Request::Subscribe {
                    every: 1,
                    ids: None,
                },
                "SUBSCRIBE every=1\n",
            ),
            (
                Request::Subscribe {
                    every: 4,
                    ids: Some((10, 20)),
                },
                "SUBSCRIBE every=4 ids=10..20\n",
            ),
        ];
        let mut buf = Vec::new();
        for (req, want) in cases {
            let mut socket = Recorder::default();
            send_request(&mut socket, &mut buf, req).unwrap();
            assert_eq!(socket.writes, [want.as_bytes()], "{req:?}");
        }
    }

    #[test]
    fn parses_single_service_delta() {
        let d = parse_delta("DELTA epoch=7 from=5 n=120 +10,11 -3").unwrap();
        assert_eq!(d.version, 7);
        assert_eq!(d.from, 5);
        assert_eq!(d.n, 120);
        assert_eq!(d.added, vec![10, 11]);
        assert_eq!(d.removed, vec![3]);
    }

    #[test]
    fn parses_delta_with_empty_sets() {
        let d = parse_delta("DELTA epoch=3 from=1 n=60").unwrap();
        assert_eq!(d.version, 3);
        assert_eq!(d.from, 1);
        assert!(d.added.is_empty() && d.removed.is_empty());
    }

    #[test]
    fn rejects_malformed_deltas() {
        assert!(parse_delta("NOPE epoch=1 from=0 n=1").is_err());
        assert!(parse_delta("DELTA from=0 n=1").is_err(), "no epoch");
        assert!(parse_delta("DELTA epoch=1 n=1").is_err(), "no from");
        assert!(parse_delta("DELTA epoch=x from=0 n=1").is_err());
    }

    #[test]
    fn parses_hello() {
        let h = parse_hello("OK v2 dim=4 k=2 r=16").unwrap();
        assert_eq!(
            h,
            ServerHello {
                version: 2,
                dim: 4,
                k: 2,
                r: 16,
            }
        );
        assert!(parse_hello("OK queued").is_err());
    }

    #[test]
    fn parses_hello_with_fields_it_does_not_know() {
        // Servers of earlier builds appended ` shards=1`; unknown fields
        // are skipped, so this client still reads their parameters.
        let h = parse_hello("OK v2 dim=4 k=2 r=16 shards=1").unwrap();
        assert_eq!(
            h,
            ServerHello {
                version: 2,
                dim: 4,
                k: 2,
                r: 16,
            }
        );
    }
}
