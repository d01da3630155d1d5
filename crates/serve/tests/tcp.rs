//! Loopback round-trip of the TCP line protocol, including
//! malformed-input error replies and graceful shutdown.
//!
//! The first two tests speak raw byte sequences of the original verbs
//! (`INSERT`/`DELETE`/`UPDATE`/`QUERY`/`STATS`/`SHUTDOWN`, no `HELLO`) —
//! they pin those replies byte-identical. The later tests cover
//! `HELLO`/`BATCH`/`SUBSCRIBE`/`METRICS`, which every connection speaks
//! from its first line, both raw and through the typed `rms-client`,
//! and a server with two reactor threads. One test sends every request
//! the typed client has and checks that the server counted each verb.

use fdrms::FdRms;
use rms_client::{ClientOp, RmsClient};
use rms_geom::Point;
use rms_serve::{RmsServer, RmsService, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("loopback connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Self {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn roundtrip(&mut self, request: &str) -> String {
        writeln!(self.writer, "{request}").expect("write request");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        line.trim_end().to_string()
    }
}

/// Extracts `key=value` fields from an `OK key=… key=…` reply.
fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
}

/// Reads a full `METRICS` reply — the `OK metrics lines=N` header plus
/// exactly N raw exposition lines — and returns the exposition body.
fn fetch_metrics(client: &mut Client) -> String {
    let header = client.roundtrip("METRICS");
    assert!(header.starts_with("OK metrics lines="), "{header}");
    let n: usize = field(&header, "lines").unwrap().parse().unwrap();
    let mut body = String::new();
    for _ in 0..n {
        let mut line = String::new();
        assert!(client.reader.read_line(&mut line).unwrap() > 0, "body EOF");
        body.push_str(&line);
    }
    body
}

/// Distinct metric family names, read off the `# TYPE` comment lines.
fn families(body: &str) -> std::collections::BTreeSet<String> {
    body.lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

/// Sums every sample of `name` across all label sets. Histogram series
/// (`_bucket`/`_sum`/`_count`) are distinct names to this helper.
fn family_total(body: &str, name: &str) -> f64 {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let base = series.split('{').next().unwrap();
            (base == name).then(|| value.parse::<f64>().unwrap())
        })
        .sum()
}

#[test]
fn loopback_protocol_round_trip() {
    let d = 2;
    let initial: Vec<Point> = (0..50)
        .map(|i| Point::new_unchecked(i, vec![(i as f64) / 50.0, 1.0 - (i as f64) / 50.0]))
        .collect();
    let service = RmsService::start(
        FdRms::builder(d).r(4).max_utilities(64).seed(3),
        initial,
        ServeConfig::default(),
    )
    .unwrap();
    let server = RmsServer::bind("127.0.0.1:0", service).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let server = std::thread::spawn(move || server.run().expect("server run"));

    let mut client = Client::connect(addr);

    // Reads work immediately off the epoch-0 snapshot.
    let reply = client.roundtrip("QUERY");
    assert!(reply.starts_with("OK epoch="), "{reply}");
    assert_eq!(field(&reply, "n"), Some("50"));

    // Mutations are acknowledged at enqueue time…
    assert_eq!(client.roundtrip("INSERT 5000 0.9 0.9"), "OK queued");
    assert_eq!(client.roundtrip("DELETE 0"), "OK queued");
    assert_eq!(client.roundtrip("UPDATE 1 0.5 0.6"), "OK queued");
    // …and an invalid op (unknown id) is accepted here but rejected by
    // engine validation, visible in STATS.
    assert_eq!(client.roundtrip("DELETE 99999"), "OK queued");

    // Await visibility: ops_applied=3, ops_rejected=1.
    let deadline = Instant::now() + Duration::from_secs(30);
    let stats = loop {
        let reply = client.roundtrip("STATS");
        assert!(reply.starts_with("OK "), "{reply}");
        if field(&reply, "ops_applied") == Some("3") && field(&reply, "ops_rejected") == Some("1") {
            break reply;
        }
        assert!(
            Instant::now() < deadline,
            "ops never became visible: {reply}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(field(&stats, "n"), Some("50")); // 50 + 1 − 1
    let epoch: u64 = field(&stats, "epoch").unwrap().parse().unwrap();
    assert!(epoch >= 1);

    // Malformed input never kills the connection: each bad line gets an
    // ERR reply and the next request still works.
    for bad in [
        "FROB",
        "INSERT",
        "INSERT 1 0.5",
        "INSERT x 0.5 0.5",
        "INSERT 2 0.5 nope",
        "INSERT 2 -1 0.5",
        "DELETE",
        "DELETE 1 2",
        "QUERY now",
    ] {
        let reply = client.roundtrip(bad);
        assert!(reply.starts_with("ERR "), "`{bad}` → {reply}");
    }
    let reply = client.roundtrip("QUERY");
    assert!(reply.starts_with("OK epoch="), "{reply}");

    // A second concurrent connection shares the same service.
    let mut other = Client::connect(addr);
    assert!(other.roundtrip("STATS").starts_with("OK "));

    // Graceful shutdown: the queue drains and the engine comes back.
    assert_eq!(client.roundtrip("SHUTDOWN"), "OK shutting down");
    let fds = server.join().expect("server thread");
    let [fd] = fds.as_slice() else {
        panic!("single backend returns one engine");
    };
    assert!(fd.contains(5000));
    assert!(!fd.contains(0));
    fd.check_invariants().unwrap();
}

fn spawn_single(n: u64) -> (std::net::SocketAddr, std::thread::JoinHandle<Vec<FdRms>>) {
    let initial: Vec<Point> = (0..n)
        .map(|i| Point::new_unchecked(i, vec![(i as f64) / n as f64, 1.0 - (i as f64) / n as f64]))
        .collect();
    let service = RmsService::start(
        FdRms::builder(2).r(4).max_utilities(64).seed(3),
        initial,
        ServeConfig::default(),
    )
    .unwrap();
    let server = RmsServer::bind("127.0.0.1:0", service).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    (
        addr,
        std::thread::spawn(move || server.run().expect("server run")),
    )
}

/// Raw lines: BATCH from the first line, HELLO as a pure parameter
/// advertisement, BATCH framing (single ack, all-or-nothing on parse
/// errors), and the error paths that must preserve framing.
#[test]
fn v2_hello_and_batch_raw() {
    let (addr, server) = spawn_single(50);
    let mut client = Client::connect(addr);

    // No HELLO needed: a batch is framed and acknowledged from the
    // connection's first line.
    writeln!(
        client.writer,
        "BATCH 2\nINSERT 898 0.9 0.8\nINSERT 899 0.8 0.9"
    )
    .unwrap();
    let mut line = String::new();
    client.reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "OK queued n=2");

    // HELLO advertises the server's parameters, whatever version it names.
    let reply = client.roundtrip("HELLO v7");
    assert_eq!(reply, "OK v2 dim=2 k=1 r=4");
    assert_eq!(client.roundtrip("HELLO v1"), "OK v2 dim=2 k=1 r=4");

    // A pipelined batch right after `HELLO v1`: n lines, one ack.
    line.clear();
    writeln!(
        client.writer,
        "BATCH 3\nINSERT 900 0.9 0.9\nDELETE 0\nUPDATE 1 0.5 0.6"
    )
    .unwrap();
    client.reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "OK queued n=3");

    // A malformed line drops the whole batch after consuming it — the
    // next request parses from a clean framing boundary.
    writeln!(
        client.writer,
        "BATCH 3\nINSERT 901 0.9 0.9\nFROB x\nDELETE 2"
    )
    .unwrap();
    line.clear();
    client.reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR line 2:"), "{line}");
    assert!(line.contains("batch dropped"), "{line}");

    // Nothing from the dropped batch was submitted: 901 never appears,
    // id 2 stays live.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let reply = client.roundtrip("STATS");
        if field(&reply, "ops_applied") == Some("5") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "batch ops never applied: {reply}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(client.roundtrip("STATS").contains("ops_rejected=0"));

    // Non-mutation verbs are refused inside a batch (also all-or-nothing).
    writeln!(client.writer, "BATCH 2\nQUERY\nINSERT 902 0.9 0.9").unwrap();
    line.clear();
    client.reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("ERR line 1: only INSERT/DELETE/UPDATE"),
        "{line}"
    );

    // An oversized header closes the connection (framing cannot be
    // preserved) — with an explanatory error first.
    writeln!(client.writer, "BATCH 1000000").unwrap();
    line.clear();
    client.reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR BATCH size"), "{line}");
    line.clear();
    assert_eq!(client.reader.read_line(&mut line).unwrap(), 0, "closed");

    let mut other = Client::connect(addr);
    assert_eq!(other.roundtrip("SHUTDOWN"), "OK shutting down");
    let fds = server.join().expect("server thread");
    let fd = &fds[0];
    assert!(fd.contains(898) && fd.contains(899));
    assert!(fd.contains(900));
    assert!(!fd.contains(0));
    assert!(!fd.contains(901), "dropped batch must submit nothing");
    assert!(fd.contains(2), "dropped batch must submit nothing");
    fd.check_invariants().unwrap();
}

/// A BATCH header the server cannot honor — unparseable (an
/// overflowing count) or above the line cap — closes the connection
/// whether or not the client sent HELLO: the announced op lines can
/// neither be consumed nor reinterpreted as requests.
#[test]
fn unusable_batch_header_closes_the_connection() {
    let (addr, server) = spawn_single(30);

    for header in ["BATCH 18446744073709551616", "BATCH 1000000"] {
        for hello in [false, true] {
            let mut client = Client::connect(addr);
            if hello {
                assert!(client.roundtrip("HELLO v2").starts_with("OK v2"));
            }
            let reply = client.roundtrip(header);
            assert!(reply.starts_with("ERR "), "{header}: {reply}");
            assert!(reply.contains("closing connection"), "{header}: {reply}");
            let mut line = String::new();
            assert_eq!(client.reader.read_line(&mut line).unwrap(), 0, "closed");
        }
    }

    // The server itself keeps serving.
    let mut other = Client::connect(addr);
    assert!(other.roundtrip("QUERY").starts_with("OK epoch="));
    assert_eq!(other.roundtrip("SHUTDOWN"), "OK shutting down");
    server.join().expect("server thread");
}

/// SUBSCRIBE over raw lines: the ack carries the starting solution, the
/// pushed DELTA lines reconstruct the final QUERY exactly, and the
/// stream closes at server shutdown.
#[test]
fn v2_subscribe_raw_stream_reconstructs_query() {
    let (addr, server) = spawn_single(40);

    let mut sub = Client::connect(addr);
    let ack = sub.roundtrip("SUBSCRIBE every=1");
    assert!(ack.starts_with("OK subscribed every=1 epoch="), "{ack}");
    let mut ids: std::collections::BTreeSet<u64> = match field(&ack, "ids") {
        Some("") | None => Default::default(),
        Some(raw) => raw.split(',').map(|t| t.parse().unwrap()).collect(),
    };

    let mut writer = Client::connect(addr);
    for i in 0..20 {
        assert_eq!(
            writer.roundtrip(&format!("INSERT {} 0.9{} 0.9", 500 + i, i)),
            "OK queued"
        );
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    let final_ids = loop {
        let stats = writer.roundtrip("STATS");
        if field(&stats, "ops_applied") == Some("20") {
            let query = writer.roundtrip("QUERY");
            break field(&query, "ids").unwrap().to_string();
        }
        assert!(Instant::now() < deadline, "ops never applied: {stats}");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(writer.roundtrip("SHUTDOWN"), "OK shutting down");
    server.join().expect("server thread");

    // Drain the push stream to EOF, applying every delta.
    let mut line = String::new();
    loop {
        line.clear();
        if sub.reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        let line = line.trim_end();
        assert!(line.starts_with("DELTA epoch="), "{line}");
        for tok in line.split_whitespace() {
            if let Some(added) = tok.strip_prefix('+') {
                for id in added.split(',') {
                    ids.insert(id.parse().unwrap());
                }
            } else if let Some(removed) = tok.strip_prefix('-') {
                for id in removed.split(',') {
                    ids.remove(&id.parse::<u64>().unwrap());
                }
            }
        }
    }
    let reconstructed: Vec<String> = ids.iter().map(u64::to_string).collect();
    assert_eq!(reconstructed.join(","), final_ids);
}

/// The typed client end to end: negotiation, batch ingest, query/stats,
/// a reader whose `QUERY` epoch never goes backwards during ingest, and a
/// subscription whose replay matches the final QUERY — the protocol's
/// second, independent implementation driving the first.
#[test]
fn rms_client_end_to_end() {
    let d = 2;
    let (addr, server) = spawn_single(60);

    let sub_client = RmsClient::connect(addr).expect("subscriber connect");
    // every=3 exercises the server-side coalescing (SnapshotDelta::merge
    // + idle flush) rather than the one-line-per-epoch path the raw test
    // covers; replay must still reconstruct exactly.
    let subscriber = std::thread::spawn(move || {
        let mut sub = sub_client.subscribe(3).expect("subscribe");
        while let Some(delta) = sub.next_delta().expect("delta stream") {
            assert!(delta.version > delta.from, "versions advance");
        }
        sub.ids()
    });

    // A reader polls QUERY until the ingest below is visible: the epoch
    // may never go backwards over the wire.
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let stop = Arc::clone(&stop);
        let mut reader = RmsClient::connect(addr).expect("reader connect");
        std::thread::spawn(move || {
            let mut last = reader.query().expect("reader query").epochs[0];
            while !stop.load(Ordering::Relaxed) {
                let epoch = reader.query().expect("reader query").epochs[0];
                assert!(
                    epoch >= last,
                    "epoch went backwards over the wire: {last} -> {epoch}"
                );
                last = epoch;
            }
        })
    };

    let mut client = RmsClient::connect(addr).expect("client connect");
    let hello = client.hello();
    assert_eq!((hello.version, hello.dim, hello.k, hello.r), (2, d, 1, 4));

    // Mixed single + batched ingest through the typed surface.
    client.insert(700, &[0.95, 0.9]).expect("insert");
    let ops: Vec<ClientOp> = (701..721)
        .map(|id| ClientOp::insert(id, vec![0.8, 0.8]))
        .chain([ClientOp::delete(700), ClientOp::update(1, vec![0.4, 0.6])])
        .collect();
    assert_eq!(client.submit_batch(&ops).expect("batch"), 22);

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats().expect("stats");
        if stats.ops_applied() == Some(23) {
            assert_eq!(stats.ops_rejected(), Some(0));
            break;
        }
        assert!(Instant::now() < deadline, "ops never became visible");
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    reader.join().expect("reader thread");
    let q = client.query().expect("query");
    assert_eq!(q.n, 60 + 21 - 1);
    assert_eq!(q.epochs.len(), 1);
    assert!(q.ids.len() <= 4, "budget respected: {:?}", q.ids);

    client.shutdown().expect("shutdown");
    let fds = server.join().expect("server thread");
    assert_eq!(fds.len(), 1);
    let replayed = subscriber.join().expect("subscriber thread");
    assert_eq!(replayed, q.ids, "subscription replay == final QUERY");
    fds[0].check_invariants().unwrap();
}

/// Every request `rms-client` can make, against a live server: each is
/// acknowledged and its reply parsed, and afterwards every verb the
/// server counts has been served at least once. So a verb that either
/// side drops, renames or adds alone fails here.
#[test]
fn every_client_request_round_trips() {
    let initial: Vec<Point> = (0..40)
        .map(|i| Point::new_unchecked(i, vec![(i as f64) / 40.0, 1.0 - (i as f64) / 40.0]))
        .collect();
    let service = RmsService::start(
        FdRms::builder(2).r(4).max_utilities(64).seed(3),
        initial,
        ServeConfig::default(),
    )
    .unwrap();
    let registry = Arc::clone(service.registry());
    let server = RmsServer::bind("127.0.0.1:0", service).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let server = std::thread::spawn(move || server.run().expect("server run"));

    // Both subscriptions are acknowledged before the first op, so each
    // is pushed the first publish.
    let connect = || {
        let client = RmsClient::connect(addr).expect("connect (HELLO)");
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        client
    };
    let mut subs = [
        connect().subscribe(1).expect("SUBSCRIBE"),
        connect()
            .subscribe_filtered(1, 0, 1_000)
            .expect("SUBSCRIBE ids="),
    ];

    let mut client = connect();
    client.insert(900, &[0.9, 0.9]).expect("INSERT");
    client.update(900, &[0.95, 0.9]).expect("UPDATE");
    client.delete(0).expect("DELETE");
    let batch = [ClientOp::insert(901, vec![0.8, 0.8]), ClientOp::delete(1)];
    assert_eq!(client.submit_batch(&batch).expect("BATCH"), 2);
    assert_eq!(client.query().expect("QUERY").epochs.len(), 1);
    assert!(client.stats().expect("STATS").get("epoch").is_some());
    let body = client.metrics().expect("METRICS");
    assert!(
        body.contains("# TYPE rms_tcp_requests_total counter"),
        "{body}"
    );
    for sub in &mut subs {
        let delta = sub.next_delta().expect("DELTA").expect("stream ended");
        assert!(delta.version > delta.from, "{delta:?}");
    }
    client.shutdown().expect("SHUTDOWN");
    server.join().expect("server thread");

    let body = registry.encode();
    let served: std::collections::BTreeMap<&str, u64> = body
        .lines()
        .filter_map(|l| l.strip_prefix("rms_tcp_requests_total{verb=\""))
        .map(|rest| {
            let (verb, count) = rest.split_once("\"} ").expect("verb series");
            (verb, count.parse().expect("counter value"))
        })
        .collect();
    assert_eq!(
        served.keys().copied().collect::<Vec<_>>(),
        [
            "batch",
            "delete",
            "hello",
            "insert",
            "invalid",
            "metrics",
            "query",
            "shutdown",
            "stats",
            "subscribe",
            "update"
        ],
        "{body}"
    );
    for (verb, count) in served {
        assert!(
            verb == "invalid" || count >= 1,
            "`{verb}` never served:\n{body}"
        );
    }
}

/// METRICS over raw lines: answered from the connection's first line,
/// framed as `OK metrics lines=N` + N exposition lines, and the exported
/// counters agree with the STATS reply taken in the same quiesced state.
#[test]
fn v2_metrics_exposition_agrees_with_stats() {
    let (addr, server) = spawn_single(50);
    let mut client = Client::connect(addr);

    // The first line is a scrape, before any op was submitted.
    let body = fetch_metrics(&mut client);
    assert_eq!(family_total(&body, "rms_applier_ops_applied_total"), 0.0);

    // 3 ops the engine accepts plus 1 it rejects (unknown id), then
    // quiesce on STATS so the applier-side counters have settled.
    assert_eq!(client.roundtrip("INSERT 900 0.9 0.9"), "OK queued");
    assert_eq!(client.roundtrip("DELETE 0"), "OK queued");
    assert_eq!(client.roundtrip("UPDATE 1 0.5 0.6"), "OK queued");
    assert_eq!(client.roundtrip("DELETE 77777"), "OK queued");
    let deadline = Instant::now() + Duration::from_secs(30);
    let stats = loop {
        let reply = client.roundtrip("STATS");
        if field(&reply, "ops_applied") == Some("3") && field(&reply, "ops_rejected") == Some("1") {
            break reply;
        }
        assert!(
            Instant::now() < deadline,
            "ops never became visible: {reply}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };

    let body = fetch_metrics(&mut client);
    let fams = families(&body);
    assert!(
        fams.len() >= 12,
        "expected ≥12 metric families, got {}: {fams:?}",
        fams.len()
    );
    for name in [
        "rms_applier_queue_depth",
        "rms_applier_batch_ops",
        "rms_applier_apply_seconds",
        "rms_applier_publish_seconds",
        "rms_applier_snapshot_publishes_total",
        "rms_applier_ops_applied_total",
        "rms_applier_ops_rejected_total",
        "rms_applier_replayed_batches_total",
        "rms_wal_appends_total",
        "rms_wal_errors_total",
        "rms_wal_fsync_seconds",
        "rms_wal_recovered_ops_total",
        "rms_wal_truncated_tail_bytes_total",
        "rms_tcp_connections_total",
        "rms_tcp_requests_total",
        "rms_tcp_request_seconds",
        "rms_tcp_subscribers",
        "rms_tcp_delta_bytes_total",
    ] {
        assert!(fams.contains(name), "family {name} missing: {fams:?}");
    }

    // Counter agreement with the STATS fields above.
    assert_eq!(family_total(&body, "rms_applier_ops_applied_total"), 3.0);
    assert_eq!(family_total(&body, "rms_applier_ops_rejected_total"), 1.0);
    // At quiescence every STATS counter key equals its family: STATS is
    // the registry's cells copied at the last publish.
    for (key, family) in [
        ("ops_applied", "rms_applier_ops_applied_total"),
        ("ops_rejected", "rms_applier_ops_rejected_total"),
        ("batches", "rms_applier_apply_seconds_count"),
        ("replayed_batches", "rms_applier_replayed_batches_total"),
        ("wal_recovered", "rms_wal_recovered_ops_total"),
    ] {
        let stat: f64 = field(&stats, key).unwrap().parse().unwrap();
        assert_eq!(stat, family_total(&body, family), "STATS {key} vs {family}");
    }
    assert!(family_total(&body, "rms_applier_snapshot_publishes_total") >= 1.0);
    // This connection alone issued ≥ 6 requests before the scrape.
    assert!(family_total(&body, "rms_tcp_requests_total") >= 6.0);
    assert!(family_total(&body, "rms_tcp_connections_total") >= 1.0);
    // No WAL configured: the families exist, the counters stay zero.
    assert_eq!(family_total(&body, "rms_wal_appends_total"), 0.0);
    assert_eq!(family_total(&body, "rms_wal_recovered_ops_total"), 0.0);
    // Histogram shape: cumulative buckets terminate at +Inf and the
    // apply histogram observed at least one batch.
    assert!(body.contains("rms_applier_apply_seconds_bucket{le=\"+Inf\"}"));
    assert!(family_total(&body, "rms_applier_apply_seconds_count") >= 1.0);

    // The verb counter for METRICS ticks after the reply is framed, so
    // a second scrape sees the first one.
    let body2 = fetch_metrics(&mut client);
    let metrics_verb = body2
        .lines()
        .find_map(|l| l.strip_prefix("rms_tcp_requests_total{verb=\"metrics\"} "))
        .expect("metrics verb series");
    assert!(metrics_verb.trim().parse::<u64>().unwrap() >= 1);

    let mut other = Client::connect(addr);
    assert_eq!(other.roundtrip("SHUTDOWN"), "OK shutting down");
    server.join().expect("server thread");
}

/// Two reactor threads: reactor 0 accepts and deals sockets round-robin,
/// so connections 0 and 2 (subscribers) and 4 and 6 (writers) stay on
/// it while 1 and 3 (subscribers) and 5 (a writer) are handed to
/// reactor 1, and every publish fans out into both. Each subscriber's
/// replay must equal the final QUERY and the engine must hold every
/// insert.
#[test]
fn two_reactors_share_subscribers_and_writers() {
    const WRITERS: u64 = 3;
    const PER_WRITER: u64 = 40;
    let initial: Vec<Point> = (0..60)
        .map(|i| Point::new_unchecked(i, vec![(i as f64) / 60.0, 1.0 - (i as f64) / 60.0]))
        .collect();
    let service = RmsService::start(
        FdRms::builder(2).r(4).max_utilities(64).seed(3),
        initial,
        ServeConfig::default(),
    )
    .unwrap();
    let server = RmsServer::bind("127.0.0.1:0", service)
        .expect("bind ephemeral port")
        .with_net_threads(2);
    let addr = server.local_addr().unwrap();
    let server = std::thread::spawn(move || server.run().expect("server run"));

    // Each connect completes its HELLO round trip before the next one
    // starts, so the accept order (and with it the reactor) is fixed.
    let subscribers: Vec<_> = (0..4)
        .map(|_| {
            let client = RmsClient::connect(addr).expect("subscriber connect");
            let mut sub = client.subscribe(1).expect("subscribe");
            std::thread::spawn(move || {
                while sub.next_delta().expect("delta stream").is_some() {}
                sub.ids()
            })
        })
        .collect();
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let mut client = RmsClient::connect(addr).expect("writer connect");
            std::thread::spawn(move || {
                let ops: Vec<ClientOp> = (0..PER_WRITER)
                    .map(|i| {
                        let x = 0.5 + 0.01 * i as f64;
                        ClientOp::insert(1_000 + w * PER_WRITER + i, vec![x, 1.4 - x])
                    })
                    .collect();
                let queued = client.submit_batch(&ops).expect("batch");
                assert_eq!(queued as u64, PER_WRITER);
            })
        })
        .collect();
    for writer in writers {
        writer.join().expect("writer thread");
    }

    let total = WRITERS * PER_WRITER;
    let mut client = RmsClient::connect(addr).expect("client connect");
    let deadline = Instant::now() + Duration::from_secs(30);
    while client.stats().expect("stats").ops_applied() != Some(total) {
        assert!(Instant::now() < deadline, "ops never became visible");
        std::thread::sleep(Duration::from_millis(5));
    }
    let q = client.query().expect("query");
    assert_eq!(q.n, 60 + total as usize);
    client.shutdown().expect("shutdown");

    let fds = server.join().expect("server thread");
    for subscriber in subscribers {
        let replayed = subscriber.join().expect("subscriber thread");
        assert_eq!(replayed, q.ids, "subscription replay == final QUERY");
    }
    let fd = &fds[0];
    for id in 1_000..1_000 + total {
        assert!(fd.contains(id), "insert {id} lost");
    }
    fd.check_invariants().unwrap();
}
