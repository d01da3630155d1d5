//! The line protocol spoken by the TCP front end.
//!
//! One request per `\n`-terminated line, one reply line per request
//! (replies start with `OK` or `ERR`) — except the framing of `BATCH`,
//! `SUBSCRIBE` and `METRICS` below. Every connection speaks the whole
//! verb set from its first line:
//!
//! ```text
//! INSERT <id> <v1> … <vd>     enqueue an insertion            → OK queued
//! DELETE <id>                 enqueue a deletion              → OK queued
//! UPDATE <id> <v1> … <vd>     enqueue an attribute update     → OK queued
//! QUERY                       read the published solution     → OK epoch=E n=N r=K ids=…
//! STATS                       read service metrics            → OK epoch=E … (key=value)
//! SHUTDOWN                    drain, stop serving             → OK shutting down
//! HELLO v<N>                  read the server's parameters    → OK v2 dim=D k=K r=R
//! BATCH <n>                   the next n lines are mutation verbs,
//!                             submitted with ONE ack for all  → OK queued n=<n>
//! SUBSCRIBE [every=K] [ids=LO..HI]
//!                             switch the connection to push   → OK subscribed every=K [filter=LO..HI] epoch=E n=N ids=…
//!                             mode, then one line per delta:    DELTA epoch=E from=F n=N +<ids> -<ids>
//! METRICS                     read the Prometheus exposition  → OK metrics lines=N
//!                                                               then N raw exposition lines
//! ```
//!
//! `HELLO` is optional: it keeps no session state, and whatever version
//! it names, the reply advertises [`PROTOCOL_VERSION`] and the server's
//! parameters.
//! `BATCH` is all-or-nothing: the server reads all `n` lines first and
//! submits none of them if any line is malformed, and the ingestion
//! queue takes the frame whole or refuses it whole
//! (`ERR <reason> (batch dropped)`).
//! `SUBSCRIBE every=K` coalesces deltas so at most one `DELTA` line is
//! pushed per K published epochs while the stream is active (an idle
//! stream flushes the remainder after a short beat). `SUBSCRIBE
//! ids=LO..HI` filters server-side: the ack's `ids=` and every pushed
//! `+`/`-` list are sliced to the inclusive id range (the `DELTA`
//! header still arrives for versions whose slice is empty, so a
//! filtered stream observes every version); the ack echoes the range
//! as `filter=LO..HI` and its `n=` stays the *full* solution size.
//! `+`/`-` id lists are omitted when empty.
//!
//! Mutations are acknowledged at *enqueue* time and applied
//! asynchronously; `STATS` exposes `ops_applied`/`ops_rejected` so a
//! client can await visibility (plus `replayed_batches` and
//! `wal_recovered`). On a WAL-backed server the acknowledgement
//! additionally means the op is on the log; an op the log cannot take
//! is refused with `ERR write-ahead log append failed: …`. Malformed
//! input never kills the connection — the reply is `ERR <reason>` and
//! the next line is parsed fresh — with one class of exceptions: a
//! `BATCH` header the server cannot honor (count above
//! [`MAX_BATCH_LINES`], or unparseable at all) closes the connection,
//! because the announced op lines can neither be consumed nor safely
//! reinterpreted as requests.

use fdrms::Op;
use rms_geom::{Point, PointId};

/// The protocol version every `HELLO` reply advertises.
pub const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on the op lines one `BATCH` header may announce. A
/// header above the cap is refused *and closes the connection* — the
/// framing contract says those lines are ops, so they cannot safely be
/// reinterpreted as requests.
pub const MAX_BATCH_LINES: usize = 1 << 16;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue one engine operation (`INSERT` / `DELETE` / `UPDATE`).
    Submit(Op),
    /// Read the current result snapshot.
    Query,
    /// Read service metrics.
    Stats,
    /// Drain the queue and stop the server.
    Shutdown,
    /// Ask for the server's parameters (`HELLO v<N>`; the version the
    /// client names is parsed but selects nothing).
    Hello(u32),
    /// Header of a pipelined mutation batch: the next `n` lines are
    /// mutation verbs, acknowledged with one reply.
    Batch(usize),
    /// Switch the connection to push mode, streaming snapshot deltas
    /// every `every` epochs.
    Subscribe {
        /// Coalescing factor: at most one `DELTA` line per this many
        /// published epochs (≥ 1).
        every: u64,
        /// Optional server-side id-range filter (inclusive): the ack's
        /// `ids=` and every pushed `+`/`-` list are sliced to the range.
        filter: Option<(PointId, PointId)>,
    },
    /// Read the service's Prometheus text exposition: the reply
    /// header `OK metrics lines=N` is followed by `N` raw exposition
    /// lines.
    Metrics,
}

/// Encodes a request into its canonical wire line (no trailing newline).
/// [`parse_request`] inverts it: `parse_request(&encode_request(r), d)`
/// returns `r` for any request valid at dimensionality `d` — the
/// round-trip property pinned by `tests/protocol_props.rs`.
pub fn encode_request(req: &Request) -> String {
    fn point_args(p: &Point) -> String {
        // `{}` on f64 prints the shortest representation that parses
        // back exactly, so coordinates survive the round-trip.
        let coords: Vec<String> = p.coords().iter().map(f64::to_string).collect();
        format!("{} {}", p.id(), coords.join(" "))
    }
    match req {
        Request::Submit(Op::Insert(p)) => format!("INSERT {}", point_args(p)),
        Request::Submit(Op::Update(p)) => format!("UPDATE {}", point_args(p)),
        Request::Submit(Op::Delete(id)) => format!("DELETE {id}"),
        Request::Query => "QUERY".into(),
        Request::Stats => "STATS".into(),
        Request::Shutdown => "SHUTDOWN".into(),
        Request::Hello(v) => format!("HELLO v{v}"),
        Request::Batch(n) => format!("BATCH {n}"),
        Request::Subscribe { every, filter } => match filter {
            None => format!("SUBSCRIBE every={every}"),
            Some((lo, hi)) => format!("SUBSCRIBE every={every} ids={lo}..{hi}"),
        },
        Request::Metrics => "METRICS".into(),
    }
}

/// Parses one request line against dimensionality `d`.
pub fn parse_request(line: &str, d: usize) -> Result<Request, String> {
    let mut tokens = line.split_whitespace();
    let verb = tokens.next().ok_or("empty request")?.to_ascii_uppercase();
    let rest: Vec<&str> = tokens.collect();
    let no_args = |req: Request| {
        if rest.is_empty() {
            Ok(req)
        } else {
            Err(format!("{verb} takes no arguments"))
        }
    };
    match verb.as_str() {
        "INSERT" => Ok(Request::Submit(Op::Insert(parse_point(&rest, d)?))),
        "UPDATE" => Ok(Request::Submit(Op::Update(parse_point(&rest, d)?))),
        "DELETE" => {
            let [id] = rest.as_slice() else {
                return Err("usage: DELETE <id>".into());
            };
            Ok(Request::Submit(Op::Delete(parse_id(id)?)))
        }
        "QUERY" => no_args(Request::Query),
        "STATS" => no_args(Request::Stats),
        "SHUTDOWN" => no_args(Request::Shutdown),
        "METRICS" => no_args(Request::Metrics),
        "HELLO" => {
            let [version] = rest.as_slice() else {
                return Err("usage: HELLO v<version>".into());
            };
            let digits = version
                .strip_prefix(['v', 'V'])
                .ok_or_else(|| format!("invalid version `{version}` (expected e.g. `v2`)"))?;
            let version: u32 = digits
                .parse()
                .map_err(|_| format!("invalid version number `{digits}`"))?;
            if version == 0 {
                return Err("protocol versions start at v1".into());
            }
            Ok(Request::Hello(version))
        }
        "BATCH" => {
            let [count] = rest.as_slice() else {
                return Err("usage: BATCH <n>".into());
            };
            let count: usize = count
                .parse()
                .map_err(|_| format!("invalid batch size `{count}`"))?;
            Ok(Request::Batch(count))
        }
        "SUBSCRIBE" => {
            const USAGE: &str = "usage: SUBSCRIBE [every=K] [ids=LO..HI]";
            let mut every: Option<u64> = None;
            let mut filter: Option<(PointId, PointId)> = None;
            for arg in &rest {
                if let Some(value) = arg.strip_prefix("every=") {
                    if every.is_some() {
                        return Err("duplicate every= argument".into());
                    }
                    let k: u64 = value
                        .parse()
                        .map_err(|_| format!("invalid every value `{value}`"))?;
                    if k == 0 {
                        return Err("every must be at least 1".into());
                    }
                    every = Some(k);
                } else if let Some(value) = arg.strip_prefix("ids=") {
                    if filter.is_some() {
                        return Err("duplicate ids= argument".into());
                    }
                    let Some((lo, hi)) = value.split_once("..") else {
                        return Err(format!("invalid ids range `{value}` (expected LO..HI)"));
                    };
                    let lo = parse_id(lo)?;
                    let hi = parse_id(hi)?;
                    if lo > hi {
                        return Err(format!("empty ids range `{value}` (LO must be ≤ HI)"));
                    }
                    filter = Some((lo, hi));
                } else {
                    return Err(USAGE.into());
                }
            }
            Ok(Request::Subscribe {
                every: every.unwrap_or(1),
                filter,
            })
        }
        other => Err(format!(
            "unknown command `{other}` (expected INSERT/DELETE/UPDATE/QUERY/STATS/SHUTDOWN/\
             HELLO/BATCH/SUBSCRIBE/METRICS)"
        )),
    }
}

fn parse_id(token: &str) -> Result<PointId, String> {
    token
        .parse::<PointId>()
        .map_err(|_| format!("invalid id `{token}`"))
}

fn parse_point(tokens: &[&str], d: usize) -> Result<Point, String> {
    let Some((id, coords)) = tokens.split_first() else {
        return Err(format!("usage: INSERT|UPDATE <id> <v1> … <v{d}>"));
    };
    let id = parse_id(id)?;
    if coords.len() != d {
        return Err(format!("expected {d} coordinates, got {}", coords.len()));
    }
    let coords: Vec<f64> = coords
        .iter()
        .map(|t| {
            t.parse::<f64>()
                .map_err(|_| format!("invalid coordinate `{t}`"))
        })
        .collect::<Result<_, _>>()?;
    Point::new(id, coords).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mutations() {
        assert_eq!(
            parse_request("INSERT 7 0.5 0.25", 2),
            Ok(Request::Submit(Op::Insert(Point::new_unchecked(
                7,
                vec![0.5, 0.25]
            ))))
        );
        assert_eq!(
            parse_request("update 3 1 0", 2),
            Ok(Request::Submit(Op::Update(Point::new_unchecked(
                3,
                vec![1.0, 0.0]
            ))))
        );
        assert_eq!(
            parse_request("DELETE 9", 4),
            Ok(Request::Submit(Op::Delete(9)))
        );
    }

    #[test]
    fn parses_reads_and_control() {
        assert_eq!(parse_request("QUERY", 2), Ok(Request::Query));
        assert_eq!(parse_request("stats", 2), Ok(Request::Stats));
        assert_eq!(parse_request("Shutdown", 2), Ok(Request::Shutdown));
    }

    #[test]
    fn parses_v2_verbs() {
        assert_eq!(parse_request("HELLO v2", 2), Ok(Request::Hello(2)));
        assert_eq!(parse_request("hello V17", 2), Ok(Request::Hello(17)));
        assert_eq!(parse_request("BATCH 64", 2), Ok(Request::Batch(64)));
        assert_eq!(parse_request("BATCH 0", 2), Ok(Request::Batch(0)));
        assert_eq!(
            parse_request("SUBSCRIBE", 2),
            Ok(Request::Subscribe {
                every: 1,
                filter: None
            })
        );
        assert_eq!(
            parse_request("SUBSCRIBE every=8", 2),
            Ok(Request::Subscribe {
                every: 8,
                filter: None
            })
        );
        assert_eq!(
            parse_request("SUBSCRIBE ids=10..20", 2),
            Ok(Request::Subscribe {
                every: 1,
                filter: Some((10, 20))
            })
        );
        assert_eq!(
            parse_request("SUBSCRIBE ids=5..5 every=3", 2),
            Ok(Request::Subscribe {
                every: 3,
                filter: Some((5, 5))
            }),
            "arguments compose in either order"
        );
        assert_eq!(parse_request("metrics", 2), Ok(Request::Metrics));
        assert!(parse_request("METRICS now", 2).is_err());
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_request("", 2).is_err());
        assert!(parse_request("FROB 1", 2).is_err());
        assert!(parse_request("INSERT", 2).is_err());
        assert!(parse_request("INSERT x 0.1 0.2", 2).is_err());
        assert!(parse_request("INSERT 1 0.1", 2).is_err(), "wrong arity");
        assert!(parse_request("INSERT 1 0.1 nope", 2).is_err());
        assert!(parse_request("INSERT 1 -0.1 0.2", 2).is_err(), "negative");
        assert!(parse_request("INSERT 1 NaN 0.2", 2).is_err(), "non-finite");
        assert!(parse_request("DELETE", 2).is_err());
        assert!(parse_request("DELETE 1 2", 2).is_err());
        assert!(parse_request("QUERY now", 2).is_err());
    }

    #[test]
    fn rejects_malformed_v2() {
        assert!(parse_request("HELLO", 2).is_err());
        assert!(parse_request("HELLO 2", 2).is_err(), "missing v prefix");
        assert!(parse_request("HELLO v0", 2).is_err());
        assert!(parse_request("HELLO vx", 2).is_err());
        assert!(parse_request("HELLO v2 now", 2).is_err());
        assert!(parse_request("BATCH", 2).is_err());
        assert!(parse_request("BATCH -3", 2).is_err());
        assert!(parse_request("BATCH many", 2).is_err());
        assert!(parse_request("BATCH 1 2", 2).is_err());
        assert!(parse_request("SUBSCRIBE every=0", 2).is_err());
        assert!(parse_request("SUBSCRIBE every=x", 2).is_err());
        assert!(parse_request("SUBSCRIBE now", 2).is_err());
        assert!(parse_request("SUBSCRIBE every=1 x", 2).is_err());
        assert!(parse_request("SUBSCRIBE every=1 every=2", 2).is_err());
        assert!(parse_request("SUBSCRIBE ids=1..2 ids=3..4", 2).is_err());
        assert!(parse_request("SUBSCRIBE ids=9..3", 2).is_err(), "inverted");
        assert!(parse_request("SUBSCRIBE ids=7", 2).is_err(), "no range");
        assert!(parse_request("SUBSCRIBE ids=a..b", 2).is_err());
    }

    #[test]
    fn encode_round_trips() {
        let reqs = [
            Request::Submit(Op::Insert(Point::new_unchecked(7, vec![0.5, 0.25]))),
            Request::Submit(Op::Update(Point::new_unchecked(3, vec![1.0, 0.0]))),
            Request::Submit(Op::Delete(9)),
            Request::Query,
            Request::Stats,
            Request::Shutdown,
            Request::Hello(2),
            Request::Batch(128),
            Request::Subscribe {
                every: 4,
                filter: None,
            },
            Request::Subscribe {
                every: 1,
                filter: Some((100, 250)),
            },
            Request::Metrics,
        ];
        for req in reqs {
            let line = encode_request(&req);
            assert_eq!(parse_request(&line, 2), Ok(req), "{line}");
        }
    }
}
