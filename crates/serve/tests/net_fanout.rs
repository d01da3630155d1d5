//! Loopback coverage of the evented fan-out path: the slow-subscriber
//! eviction policy, server-side filtered subscriptions against the
//! unfiltered stream, and the encode-once contract under a thousand
//! concurrent subscribers, half of them filtered — each pinned through
//! the server's own metrics rather than timing.

use fdrms::FdRms;
use rms_client::RmsClient;
use rms_geom::Point;
use rms_serve::{RmsServer, RmsService, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

fn initial_points(n: u64) -> Vec<Point> {
    (0..n)
        .map(|i| Point::new_unchecked(i, vec![(i as f64) / n as f64, 1.0 - (i as f64) / n as f64]))
        .collect()
}

/// Sums every sample of the counter `name` across label sets (the net
/// counters are unlabeled or, for the encode counter, labeled by
/// `kind`, so callers pass the full series prefix they mean).
fn counter_total(body: &str, series_prefix: &str) -> u64 {
    body.lines()
        .filter(|l| !l.starts_with('#') && l.starts_with(series_prefix))
        .filter_map(|l| l.rsplit_once(' '))
        .filter_map(|(_, v)| v.parse::<f64>().ok())
        .sum::<f64>() as u64
}

/// A raw-line subscriber: HELLO v2 + SUBSCRIBE, leaving the socket in
/// push mode. Returns the buffered reader owning the stream.
fn raw_subscribe(addr: SocketAddr, request: &str) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("subscriber connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.get_mut().write_all(b"HELLO v2\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("OK v2"), "{line}");
    line.clear();
    reader
        .get_mut()
        .write_all(format!("{request}\n").as_bytes())
        .unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("OK subscribed"), "{line}");
    reader
}

/// A subscriber that stops reading must not stall the publish path: the
/// reactor caps its write queue, evicts it with a final `ERR` notice,
/// and every other connection keeps working. The eviction is observed
/// through `rms_net_evicted_subscribers_total`, not timing.
#[test]
fn slow_subscriber_is_evicted_with_final_err() {
    let service = RmsService::start(
        FdRms::builder(2).r(4).max_utilities(64).seed(3),
        initial_points(50),
        ServeConfig::default(),
    )
    .unwrap();
    // Tiny buffers so a non-reading subscriber trips the queue cap
    // after a few hundred deltas instead of megabytes of traffic.
    let server = RmsServer::bind("127.0.0.1:0", service)
        .expect("bind ephemeral port")
        .with_send_buffer(4096)
        .with_write_queue_cap(1024);
    let addr = server.local_addr().unwrap();
    let server = std::thread::spawn(move || server.run().expect("server run"));

    let mut sub = raw_subscribe(addr, "SUBSCRIBE every=1");
    // Shrink the client-side receive buffer too: the kernel's in-flight
    // capacity is SNDBUF + RCVBUF, and both ends must be small for the
    // server's queue to back up.
    rms_net::set_recv_buffer(sub.get_ref().as_raw_fd(), 4096).expect("shrink recv buffer");
    // ...and never read from `sub` again until the server evicts it.

    let mut writer = RmsClient::connect(addr).expect("writer connect");
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut next_id = 100_000u64;
    loop {
        // Weak points: they publish an epoch (a DELTA line to the
        // subscriber) without ever entering the solution.
        for _ in 0..64 {
            writer.insert(next_id, &[0.001, 0.001]).expect("insert");
            next_id += 1;
        }
        let body = writer.metrics().expect("metrics");
        if counter_total(&body, "rms_net_evicted_subscribers_total") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "subscriber never evicted after {} publishes",
            next_id - 100_000
        );
    }

    // The evicted stream: some buffered DELTA lines, then the final
    // notice, then EOF — and nothing after the notice.
    let mut saw_notice = false;
    let mut line = String::new();
    loop {
        line.clear();
        if sub.read_line(&mut line).expect("read evicted stream") == 0 {
            break;
        }
        let line = line.trim_end();
        if saw_notice {
            panic!("line after eviction notice: {line}");
        }
        if line.starts_with("ERR subscriber too slow") {
            saw_notice = true;
        } else {
            assert!(line.starts_with("DELTA "), "{line}");
        }
    }
    assert!(saw_notice, "evicted stream ended without the ERR notice");

    // The server is still healthy for everyone else.
    let q = writer.query().expect("query after eviction");
    assert!(q.n > 50);
    writer.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

/// A filtered subscription is exactly the id-range slice of the
/// unfiltered stream: same version sequence, `+`/`-` lists restricted
/// to `[lo, hi]`, and the reconstructed solution equal to the
/// unfiltered one intersected with the range.
#[test]
fn filtered_subscription_is_range_slice_of_unfiltered() {
    const LO: u64 = 0;
    const HI: u64 = 999;
    let service = RmsService::start(
        FdRms::builder(2).r(4).max_utilities(64).seed(3),
        initial_points(60),
        ServeConfig::default(),
    )
    .unwrap();
    let server = RmsServer::bind("127.0.0.1:0", service).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let server = std::thread::spawn(move || server.run().expect("server run"));

    let mut plain = RmsClient::connect(addr)
        .expect("connect")
        .subscribe(1)
        .expect("subscribe");
    let mut sliced = RmsClient::connect(addr)
        .expect("connect")
        .subscribe_filtered(1, LO, HI)
        .expect("subscribe filtered");

    // In-range and out-of-range inserts strong enough to enter the
    // solution, plus deletes of initial (in-range) ids.
    let mut writer = RmsClient::connect(addr).expect("writer connect");
    for i in 0..10u64 {
        writer.insert(500 + i, &[0.95, 0.95]).expect("insert");
        writer.insert(5000 + i, &[0.9, 0.96]).expect("insert");
    }
    for id in 0..5u64 {
        writer.delete(id).expect("delete");
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if writer.stats().expect("stats").ops_applied() == Some(25) {
            break;
        }
        assert!(Instant::now() < deadline, "ops never became visible");
        std::thread::sleep(Duration::from_millis(5));
    }
    writer.shutdown().expect("shutdown");
    server.join().expect("server thread");

    // Both streams are fully buffered in the sockets now; drain them and
    // compare version by version.
    let mut plain_deltas = Vec::new();
    while let Some(d) = plain.next_delta().expect("plain stream") {
        plain_deltas.push(d);
    }
    let mut sliced_deltas = Vec::new();
    while let Some(d) = sliced.next_delta().expect("sliced stream") {
        sliced_deltas.push(d);
    }
    assert!(!plain_deltas.is_empty(), "writes must publish deltas");
    assert_eq!(
        plain_deltas.len(),
        sliced_deltas.len(),
        "every version reaches both subscribers (filtered ones as header-only lines)"
    );
    let in_range = |id: &u64| (LO..=HI).contains(id);
    for (p, s) in plain_deltas.iter().zip(&sliced_deltas) {
        assert_eq!(p.version, s.version, "same publish sequence");
        let added: Vec<u64> = p.added.iter().copied().filter(|id| in_range(id)).collect();
        let removed: Vec<u64> = p
            .removed
            .iter()
            .copied()
            .filter(|id| in_range(id))
            .collect();
        assert_eq!(s.added, added, "version {}", p.version);
        assert_eq!(s.removed, removed, "version {}", p.version);
    }
    let expected: Vec<u64> = plain.ids().into_iter().filter(|id| in_range(id)).collect();
    assert_eq!(sliced.ids(), expected, "final slice mirrors the range");
}

/// One thousand concurrent subscribers, and the server still encodes
/// each published delta once per distinct filter — read off
/// `rms_net_delta_encodes_total`, the counter the fan-out path
/// increments per publish, not per subscriber. Half the swarm shares one
/// `ids=` filter that covers the initial ids but not the inserted ones,
/// so those subscribers get real slices (header-only lines for the
/// inserts). With one reactor, the server encodes one unfiltered line
/// and one filtered line per publish. Every subscriber, filtered or not,
/// then reads exactly one `DELTA` line per publish to EOF.
#[test]
fn thousand_subscribers_one_encode_per_filter_per_publish() {
    const SUBS: usize = 1_000;
    const PUBLISHES: u64 = 5;
    // The initial ids are 0..50; the inserts below use 900.. .
    const FILTER_HI: u64 = 899;
    rms_net::raise_nofile_limit(1 << 20).expect("raise fd limit");

    let service = RmsService::start(
        FdRms::builder(2).r(4).max_utilities(64).seed(3),
        initial_points(50),
        ServeConfig::default(),
    )
    .unwrap();
    let server = RmsServer::bind("127.0.0.1:0", service).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let server = std::thread::spawn(move || server.run().expect("server run"));

    let filtered_request = format!("SUBSCRIBE every=1 ids=0..{FILTER_HI}");
    let mut swarm: Vec<BufReader<TcpStream>> = (0..SUBS)
        .map(|i| {
            let request = if i < SUBS / 2 {
                filtered_request.as_str()
            } else {
                "SUBSCRIBE every=1"
            };
            raw_subscribe(addr, request)
        })
        .collect();
    // The probe paces the publishes so each insert lands as its own
    // epoch, and later counts the shutdown drain's trailing deltas.
    let mut probe = RmsClient::connect(addr)
        .expect("probe connect")
        .subscribe(1)
        .expect("probe subscribe");

    let mut writer = RmsClient::connect(addr).expect("writer connect");
    for i in 0..PUBLISHES {
        writer.insert(900 + i, &[0.95, 0.9]).expect("insert");
        probe
            .next_delta()
            .expect("probe delta")
            .expect("stream open");
    }
    let body = writer.metrics().expect("metrics");
    assert_eq!(
        counter_total(&body, "rms_net_delta_encodes_total{kind=\"unfiltered\"}"),
        PUBLISHES,
        "encode-once violated across {SUBS} subscribers"
    );
    assert_eq!(
        counter_total(&body, "rms_net_delta_encodes_total{kind=\"filtered\"}"),
        PUBLISHES,
        "filter cache missed: {} subscribers share one filter",
        SUBS / 2
    );

    writer.shutdown().expect("shutdown");
    let mut total_publishes = PUBLISHES;
    while probe.next_delta().expect("probe drain").is_some() {
        total_publishes += 1;
    }
    server.join().expect("server thread");

    for (i, sub) in swarm.iter_mut().enumerate() {
        let filtered = i < SUBS / 2;
        let mut lines = 0u64;
        let mut line = String::new();
        loop {
            line.clear();
            if sub.read_line(&mut line).expect("drain subscriber") == 0 {
                break;
            }
            assert!(line.starts_with("DELTA "), "subscriber {i}: {line}");
            if filtered {
                let out_of_range = line
                    .split_whitespace()
                    .filter_map(|t| t.strip_prefix('+').or_else(|| t.strip_prefix('-')))
                    .flat_map(|ids| ids.split(','))
                    .any(|id| id.parse::<u64>().unwrap() > FILTER_HI);
                assert!(
                    !out_of_range,
                    "subscriber {i} got ids past its filter: {line}"
                );
            }
            lines += 1;
        }
        assert_eq!(lines, total_publishes, "subscriber {i} missed deltas");
    }
}
