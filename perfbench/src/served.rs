//! `ingest` and `query`: a loopback server (one `RmsService`, WAL on,
//! fsync off, one reactor thread) driven through `rms-client` by at most
//! two generator threads on at most two connections. The server runs in a
//! process of its own (this binary with `--serve-child`), so its peak
//! memory is the engine's and the server's alone, whatever the generator
//! keeps.
//!
//! * `ingest` — connection 1 sends `BATCH` frames of [`FRAME_OPS`] churn
//!   ops (alternating fresh inserts and deletions of the oldest tuple, so
//!   n stays constant) on a fixed schedule at [`OFFERED_FRAMES_PER_S`].
//!   Each frame is timed from its scheduled send time, so a stall counts
//!   against every frame queued behind it. Connection 2 holds one
//!   unfiltered `SUBSCRIBE`; a write is visible when the first pushed
//!   `DELTA` carries it.
//! * `query` — both connections run a closed loop of `QUERY` round trips;
//!   connection 1 also sends a one-op `BATCH` every [`QUERIES_PER_WRITE`]
//!   of its own queries, once the previous write is visible, so the
//!   published version advances at a known, low rate.

use crate::stats::{Samples, Sliced};
use crate::trace::Tracer;
use crate::{Dataset, Outcome, MRR_DIRECTIONS, MRR_SEED};
use fdrms::{FdRms, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rms_client::{ClientOp, Delta, RmsClient};
use rms_eval::RegretEstimator;
use rms_geom::{Point, PointId};
use rms_serve::{RmsServer, RmsService, ServeConfig};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Initial (and steady-state) database size.
const N: usize = 1_000;
const D: usize = 4;
/// Ops per `BATCH` frame in `ingest`.
pub const FRAME_OPS: usize = 8;
/// `ingest`'s offered load, in frames per second: about half the highest
/// rate the loopback server sustained without a growing backlog on a
/// 2-core host (`--calibrate`; see README.md).
pub const OFFERED_FRAMES_PER_S: f64 = 5_000.0;
/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 20;
/// Visibility samples per group: each group gives one p50 and p90, and a
/// run reports the median over groups. A fixed count (not a fixed time)
/// keeps every group resolvable however slowly versions advance; a slower
/// program gives fewer groups, not emptier ones.
const VISIBLE_GROUP: usize = 32;
/// `query`: one-op writes are sent every this many queries of connection 1.
const QUERIES_PER_WRITE: u64 = 100;
/// Quality ceiling: a final mrr above this fails the run.
const MRR_CEILING: f64 = 0.25;
/// Time slices with fewer samples than this give no per-slice quantile.
const MIN_PER_SLICE: usize = 20;
/// Length of the time slices ack latency and `QUERY` round trips are
/// grouped by, seconds. A run reports the median over slices of each
/// slice's p50 and p90: a co-tenant's burst on a shared host slows a few
/// slices and leaves the figure alone, while a stall of the program's own
/// that slows at least half of the slices moves it.
const SLICE_S: f64 = 0.1;
/// Inserted ids start here, above every initial id.
const FRESH_ID_BASE: PointId = 10_000_000;

/// The served workloads' data: `N` independent `D`-dimensional tuples and
/// `ops` churn operations after them.
pub fn dataset(seed: u64, ops: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let initial = rms_data::independent(&mut rng, N, D);
    let mut live: VecDeque<PointId> = initial.iter().map(Point::id).collect();
    let mut next = FRESH_ID_BASE;
    let ops = (0..ops)
        .map(|i| {
            if i % 2 == 0 {
                let p = Point::new_unchecked(next, (0..D).map(|_| rng.gen()).collect());
                live.push_back(next);
                next += 1;
                Op::Insert(p)
            } else {
                Op::Delete(live.pop_front().expect("the database never drains"))
            }
        })
        .collect();
    Dataset {
        d: D,
        k: 1,
        r: 20,
        eps: 0.02,
        max_m: 512,
        initial,
        ops,
        batch: FRAME_OPS,
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 4_096,
        max_batch: 512,
        wal_fsync: false,
        ..ServeConfig::default()
    }
}

fn client_op(op: &Op) -> ClientOp {
    match op {
        Op::Insert(p) => ClientOp::insert(p.id(), p.coords().to_vec()),
        Op::Delete(id) => ClientOp::delete(*id),
        Op::Update(p) => ClientOp::update(p.id(), p.coords().to_vec()),
    }
}

/// The server process's report once `SHUTDOWN` has stopped it.
struct Final {
    /// Peak resident memory of the server process (`VmHWM`), MB.
    peak_rss_mb: f64,
    /// `ok`, or why `check_invariants()` failed on the final engine.
    invariants: String,
    live: Vec<PointId>,
    result: Vec<u64>,
    mrr: f64,
}

/// The server under test, running in a child process.
struct Server {
    child: Child,
    out: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    /// Starts the server process and reads its address and the times of
    /// its [`SETUPS`] set-ups into `setup`.
    fn spawn(seed: u64, wal: &Path, setup: &mut Samples) -> Server {
        let exe = std::env::current_exe().expect("the benchmark's own executable");
        let mut child = Command::new(exe)
            .arg("--serve-child")
            .args(["--seed", &seed.to_string()])
            .arg("--wal")
            .arg(wal)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("start the server process");
        let out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = Server {
            child,
            out,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let line = server.line();
        let mut words = line.split_whitespace();
        assert_eq!(words.next(), Some("ready"), "server process said `{line}`");
        server.addr = words
            .next()
            .and_then(|a| a.parse().ok())
            .expect("the server's address");
        for w in words {
            setup.push(w.parse().expect("a set-up time"));
        }
        server
    }

    fn line(&mut self) -> String {
        let mut line = String::new();
        self.out
            .read_line(&mut line)
            .expect("read the server process's output");
        line.trim_end().to_string()
    }

    /// Stops the server with `SHUTDOWN` on `client`, reads the final report
    /// up to the end of the process's output, and waits for it to exit.
    fn finish(mut self, mut client: RmsClient) -> Final {
        client.shutdown().expect("SHUTDOWN acknowledged");
        drop(client);
        let ids = |s: &str| -> Vec<u64> {
            s.split_whitespace()
                .map(|w| w.parse().expect("an id"))
                .collect()
        };
        let mut fin = Final {
            peak_rss_mb: 0.0,
            invariants: "no report from the server process".into(),
            live: Vec::new(),
            result: Vec::new(),
            mrr: f64::NAN,
        };
        loop {
            let line = self.line();
            if line.is_empty() {
                break;
            }
            let (key, rest) = line.split_once(' ').unwrap_or((&line, ""));
            match key {
                "peak_rss_mb" => fin.peak_rss_mb = rest.parse().expect("peak memory"),
                "invariants" => fin.invariants = rest.to_string(),
                "live" => fin.live = ids(rest),
                "result" => fin.result = ids(rest),
                "mrr" => fin.mrr = rest.parse().expect("mrr"),
                _ => {}
            }
        }
        let status = self.child.wait().expect("wait for the server process");
        if !status.success() {
            fin.invariants = format!("the server process exited with {status}");
        }
        fin
    }
}

impl Drop for Server {
    /// Stops a server process a panic left running; after
    /// [`Server::finish`] it has already exited.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `--serve-child` process. Starts the server [`SETUPS`] times, each
/// timed from start to a first client's `HELLO` answered, shuts all but
/// the last down again, and prints `ready <addr> <set-up seconds>…`. Once
/// a client's `SHUTDOWN` stops the server, prints the process's peak
/// memory and the final engine's checks, then returns. It exits as soon as
/// its standard input closes, so it never outlives the benchmark.
pub fn serve_child(seed: u64, wal: &Path) {
    std::thread::spawn(|| {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        std::process::exit(3);
    });
    let ds = dataset(seed, 0);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut running = None;
    for i in 0..SETUPS {
        let _ = std::fs::remove_file(wal);
        let initial = ds.initial.clone();
        let t0 = Instant::now();
        let service = RmsService::start_with_wal(ds.builder(), initial, serve_config(), wal)
            .expect("start the service");
        let server = RmsServer::bind("127.0.0.1:0", service).expect("bind a loopback port");
        let addr = server.local_addr().expect("bound address");
        let thread = std::thread::spawn(move || server.run());
        let mut client = RmsClient::connect(addr).expect("connect to the fresh server");
        setups.push(t0.elapsed().as_secs_f64().to_string());
        if i + 1 < SETUPS {
            client.shutdown().expect("SHUTDOWN acknowledged");
            thread
                .join()
                .expect("server thread")
                .expect("server ran cleanly");
        } else {
            running = Some((addr, thread));
        }
    }
    let (addr, thread) = running.expect("SETUPS is at least 1");
    println!("ready {addr} {}", setups.join(" "));
    let engines = thread
        .join()
        .expect("server thread")
        .expect("server ran cleanly");
    let peak = crate::peak_rss_mb();
    let _ = std::fs::remove_file(wal);
    let [fd] = engines.as_slice() else {
        panic!("a single service returns one engine");
    };
    let join = |ids: &mut dyn Iterator<Item = u64>| {
        ids.map(|id| id.to_string()).collect::<Vec<_>>().join(" ")
    };
    println!("peak_rss_mb {peak}");
    println!(
        "invariants {}",
        fd.check_invariants()
            .map_or_else(|e| e.to_string(), |()| "ok".to_string())
    );
    println!("live {}", join(&mut fd.live_points().iter().map(Point::id)));
    println!("result {}", join(&mut fd.result_ids().into_iter()));
    println!("mrr {}", mrr_of(&ds, fd));
}

type Scrape = BTreeMap<String, f64>;

fn scrape(client: &mut RmsClient) -> Scrape {
    client
        .metrics()
        .expect("METRICS")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The served engine's ops applied per second of applier apply time, per
/// pair of consecutive scrapes.
fn applier_rates(scrapes: &[Scrape]) -> Samples {
    let get = |s: &Scrape, k: &str| s.get(k).copied().unwrap_or(0.0);
    let mut out = Samples::default();
    for w in scrapes.windows(2) {
        let applied = get(&w[1], "rms_applier_ops_applied_total")
            - get(&w[0], "rms_applier_ops_applied_total");
        let busy = get(&w[1], "rms_applier_apply_seconds_sum")
            - get(&w[0], "rms_applier_apply_seconds_sum");
        if applied > 0.0 && busy > 0.0 {
            out.push(applied / busy);
        }
    }
    out
}

/// Per-layer figures from the server's own counters, as deltas between
/// one scrape before and one after the window.
fn server_layers(out: &mut Outcome, before: &Scrape, after: &Scrape, window_s: f64, acked: u64) {
    let d = |key: &str| {
        after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
    };
    let apply_s = d("rms_applier_apply_seconds_sum");
    let publishes = d("rms_applier_snapshot_publishes_total");
    let requests: f64 = after
        .keys()
        .filter(|k| k.starts_with("rms_tcp_requests_total{"))
        .map(|k| d(k))
        .sum();
    out.set(
        "serve.applier.apply_ms_mean",
        ratio(apply_s * 1e3, d("rms_applier_apply_seconds_count")),
    );
    out.set(
        "serve.applier.publish_ms_mean",
        ratio(
            d("rms_applier_publish_seconds_sum") * 1e3,
            d("rms_applier_publish_seconds_count"),
        ),
    );
    out.set(
        "serve.applier.batch_ops_mean",
        ratio(
            d("rms_applier_batch_ops_sum"),
            d("rms_applier_batch_ops_count"),
        ),
    );
    out.set("serve.applier.busy_share", ratio(apply_s, window_s));
    out.set(
        "serve.wal.appends_per_op",
        ratio(d("rms_wal_appends_total"), acked as f64),
    );
    out.set(
        "serve.tcp.batch_us_mean",
        ratio(
            d("rms_tcp_request_seconds_sum{verb=\"batch\"}") * 1e6,
            d("rms_tcp_request_seconds_count{verb=\"batch\"}"),
        ),
    );
    out.set(
        "serve.tcp.query_us_mean",
        ratio(
            d("rms_tcp_request_seconds_sum{verb=\"query\"}") * 1e6,
            d("rms_tcp_request_seconds_count{verb=\"query\"}"),
        ),
    );
    out.set(
        "serve.tcp.delta_bytes_per_publish",
        ratio(d("rms_tcp_delta_bytes_total"), publishes),
    );
    out.set(
        "net.fanout_ms_mean",
        ratio(
            d("rms_net_fanout_seconds_sum") * 1e3,
            d("rms_net_fanout_seconds_count"),
        ),
    );
    out.set(
        "net.encodes_per_publish",
        ratio(
            d("rms_net_delta_encodes_total{kind=\"unfiltered\"}"),
            publishes,
        ),
    );
    out.set(
        "net.wakeups_per_request",
        ratio(d("rms_net_poll_wakeups_total"), requests),
    );
}

/// Waits until every acknowledged op is applied; returns (applied,
/// rejected) as `STATS` reports them.
fn quiesce(client: &mut RmsClient, acked: u64) -> (u64, u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats().expect("STATS");
        let applied = stats.ops_applied().unwrap_or(0);
        let rejected = stats.ops_rejected().unwrap_or(0);
        if applied + rejected >= acked || Instant::now() > deadline {
            return (applied, rejected);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Index of the [`SLICE_S`] slice holding `t`.
fn slice_of(start: Instant, t: Instant) -> usize {
    (t.saturating_duration_since(start).as_secs_f64() / SLICE_S) as usize
}

/// Sleeps until shortly before `due`, then spins, so sends leave on time
/// without burning a core between them.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(150) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Shared end-of-run checks on the final engine and `QUERY`.
fn final_checks(
    out: &mut Outcome,
    name: &str,
    fin: &Final,
    expected_live: &[PointId],
    final_ids: &[u64],
) {
    out.check(fin.invariants == "ok", || {
        format!("{name}: final engine invariants: {}", fin.invariants)
    });
    out.check(fin.live == expected_live, || {
        format!(
            "{name}: final live set differs from the acknowledged stream ({} vs {} ids)",
            fin.live.len(),
            expected_live.len()
        )
    });
    out.check(fin.result == final_ids, || {
        format!("{name}: final QUERY differs from the engine's result")
    });
    let mrr = fin.mrr;
    out.check(mrr <= MRR_CEILING, || {
        format!("{name}: final mrr {mrr:.4} above the {MRR_CEILING} ceiling")
    });
    out.set("quality.mrr", mrr);
    out.set("peak_rss_mb", fin.peak_rss_mb);
}

/// Sets a per-slice figure, or fails the run when it rests on too few
/// slices.
fn set_sliced(out: &mut Outcome, name: &'static str, figure: Result<f64, String>) {
    match figure {
        Ok(v) => out.set(name, v),
        Err(e) => out.check(false, || format!("{name}: {e}")),
    }
}

fn mrr_of(ds: &Dataset, fd: &FdRms) -> f64 {
    RegretEstimator::new(ds.d, MRR_DIRECTIONS, MRR_SEED).mrr(&fd.live_points(), &fd.result(), ds.k)
}

fn wal_path(work: &Path, name: &str) -> PathBuf {
    work.join(format!("{name}-{}.wal", std::process::id()))
}

pub fn ingest(seed: u64, seconds: f64, work: &Path, tr: &mut Tracer) -> Outcome {
    ingest_at(seed, seconds, work, tr, OFFERED_FRAMES_PER_S)
}

fn ingest_at(seed: u64, seconds: f64, work: &Path, tr: &mut Tracer, rate: f64) -> Outcome {
    let frames_total = ((seconds * rate).ceil() as usize).max(1);
    let ds = dataset(seed, frames_total * FRAME_OPS);
    let mut out = Outcome::default();
    let wal = wal_path(work, "ingest");
    let mut setup = Samples::default();
    let server = Server::spawn(seed, &wal, &mut setup);
    let mut writer = RmsClient::connect(server.addr).expect("connect the writer");

    let sub = RmsClient::connect(server.addr)
        .expect("subscriber connect")
        .subscribe(1)
        .expect("SUBSCRIBE");
    let base_ids = sub.ids();
    let base_version = sub.epochs()[0];
    let subscriber = std::thread::spawn(move || {
        let mut sub = sub;
        let mut got: Vec<(Instant, Delta)> = Vec::new();
        loop {
            match sub.next_delta() {
                Ok(Some(d)) => got.push((Instant::now(), d)),
                Ok(None) => return Ok(got),
                Err(e) => return Err(e.to_string()),
            }
        }
    });

    let before = scrape(&mut writer);
    let mut scrapes = vec![before.clone()];
    let period = Duration::from_secs_f64(1.0 / rate);
    let per_second = (rate.round() as usize).max(1);
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut due = Vec::with_capacity(frames_total);
    let mut sent = Vec::with_capacity(frames_total);
    let mut acked_at = Vec::with_capacity(frames_total);
    let mut acked_ops = 0u64;
    let mut backlog: Vec<f64> = Vec::new();
    for (i, chunk) in ds.ops.chunks(FRAME_OPS).enumerate() {
        // Encoded ahead of its send time, so encoding never delays a send.
        let frame: Vec<ClientOp> = chunk.iter().map(client_op).collect();
        let due_i = t0 + period.mul_f64(i as f64);
        wait_until(due_i);
        let s = Instant::now();
        let res = writer.submit_batch(&frame);
        let a = Instant::now();
        out.attempted += frame.len() as u64;
        match res {
            Ok(n) if n == frame.len() => acked_ops += n as u64,
            Ok(_) | Err(_) => out.failed += frame.len() as u64,
        }
        due.push(due_i);
        sent.push(s);
        acked_at.push(a);
        if (i + 1) % per_second == 0 {
            let now = scrape(&mut writer);
            let applied = now
                .get("rms_applier_ops_applied_total")
                .copied()
                .unwrap_or(0.0);
            backlog.push((acked_ops as f64 - applied).max(0.0));
            scrapes.push(now);
        }
    }
    let window_end = Instant::now();
    let window_s = (window_end - t0).as_secs_f64();
    let applied_at_end = writer.stats().expect("STATS").ops_applied().unwrap_or(0);
    let backlog_end = acked_ops.saturating_sub(applied_at_end);
    let (applied, rejected) = quiesce(&mut writer, acked_ops);
    let after = scrape(&mut writer);
    let final_q = writer.query().expect("final QUERY");
    let fin = server.finish(writer);
    let deltas = subscriber.join().expect("subscriber thread");
    let _ = std::fs::remove_file(&wal);

    out.check(rejected == 0, || format!("ingest: {rejected} ops rejected"));
    out.check(applied == acked_ops, || {
        format!("ingest: acked {acked_ops} ops but {applied} applied")
    });
    let deltas = match deltas {
        Ok(d) => d,
        Err(e) => {
            out.check(false, || format!("ingest: subscription failed: {e}"));
            Vec::new()
        }
    };

    // Gap-free, monotone delta stream; its replay up to the final QUERY's
    // version must equal that QUERY.
    let final_version = final_q.epochs[0];
    let mut version = base_version;
    let mut mirror: BTreeSet<u64> = base_ids.into_iter().collect();
    for (_, d) in &deltas {
        out.check(d.from == version && d.version > d.from, || {
            format!(
                "ingest: delta stream gap or regression: from={} version={} after {version}",
                d.from, d.version
            )
        });
        version = d.version;
        if d.version <= final_version {
            for id in &d.removed {
                mirror.remove(id);
            }
            mirror.extend(d.added.iter().copied());
        }
    }
    let replay: Vec<u64> = mirror.into_iter().collect();
    out.check(replay == final_q.ids, || {
        "ingest: subscriber replay differs from the final QUERY".into()
    });
    out.check(final_q.ids.len() <= ds.r, || {
        "ingest: final QUERY exceeds r".into()
    });
    final_checks(
        &mut out,
        "ingest",
        &fin,
        &ds.live_ids_after(acked_ops as usize),
        &final_q.ids,
    );

    // Visibility: the first pushed DELTA carrying a write's effect (+id for
    // an inserted id, -id for a deleted solution member). Ops are applied
    // in stream order, so once a delta showed the effect of op j, a later
    // `+id` of an op before j is a later re-entry, not that op's
    // visibility, and gives no sample.
    let mut insert_at: HashMap<PointId, usize> = HashMap::new();
    let mut delete_at: HashMap<PointId, usize> = HashMap::new();
    for (i, op) in ds.ops.iter().enumerate() {
        match op {
            Op::Insert(p) => {
                insert_at.insert(p.id(), i);
            }
            Op::Delete(id) => {
                delete_at.insert(*id, i);
            }
            Op::Update(_) => {}
        }
    }
    let mut visible_at: Vec<(Instant, f64)> = Vec::new();
    let mut delta_wait = Samples::default();
    let mut first_visible: HashMap<usize, Instant> = HashMap::new();
    let mut seen: HashSet<(bool, PointId)> = HashSet::new();
    let mut max_seen = 0usize;
    for (t, d) in &deltas {
        let mut newest = max_seen;
        let effects = d
            .added
            .iter()
            .filter_map(|id| insert_at.get(id).map(|&i| (true, *id, i)))
            .chain(
                d.removed
                    .iter()
                    .filter_map(|id| delete_at.get(id).map(|&j| (false, *id, j))),
            );
        for (is_insert, id, i) in effects {
            let f = i / FRAME_OPS;
            if f >= sent.len() || *t < sent[f] || !seen.insert((is_insert, id)) {
                continue;
            }
            if i >= max_seen {
                visible_at.push((due[f], (*t - due[f]).as_secs_f64() * 1e3));
                delta_wait.push(t.saturating_duration_since(acked_at[f]).as_secs_f64() * 1e3);
                first_visible.entry(f).or_insert(*t);
            }
            newest = newest.max(i);
        }
        max_seen = newest;
    }
    visible_at.sort_by_key(|(due, _)| *due);
    let mut visible = Sliced::groups(visible_at.iter().map(|(_, v)| *v), VISIBLE_GROUP);

    let mut ack_due = Sliced::default();
    let mut ack_sent = Samples::default();
    let mut late = Samples::default();
    for f in 0..due.len() {
        ack_due.push(
            slice_of(t0, due[f]),
            (acked_at[f] - due[f]).as_secs_f64() * 1e6,
        );
        ack_sent.push((acked_at[f] - sent[f]).as_secs_f64() * 1e6);
        late.push((sent[f] - due[f]).as_secs_f64() * 1e3);
        if tr.is_on() {
            let seen_at = first_visible.get(&f).copied();
            let end = seen_at.map_or(acked_at[f], |t| t.max(acked_at[f]));
            let root = tr.record("ingest.frame", due[f], end, None, f as u64);
            tr.record("gen.due_to_sent", due[f], sent[f], root, f as u64);
            tr.record("client.ack", sent[f], acked_at[f], root, f as u64);
            if let Some(t) = seen_at {
                tr.record("client.delta_wait", acked_at[f], t, root, f as u64);
            }
        }
    }

    // Open-loop honesty: the backlog (acked, not yet applied) must not
    // grow across the window at the offered rate.
    // Growth means the second half of the window holds more than 50 ms of
    // offered ops beyond the first half's backlog; a quarter second of
    // offered ops still queued at the end fails outright.
    let half = backlog.len() / 2;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let offered_ops_per_s = rate * FRAME_OPS as f64;
    let growing = backlog.len() >= 2
        && mean(&backlog[half..]) > mean(&backlog[..half]) + 0.05 * offered_ops_per_s
        && backlog_end as f64 > 0.05 * offered_ops_per_s;
    out.check(!growing && (backlog_end as f64) <= 0.25 * offered_ops_per_s, || {
        format!("ingest: backlog grows at the offered rate (per-second samples {backlog:?}, {backlog_end} ops at window end)")
    });

    server_layers(&mut out, &before, &after, window_s, acked_ops);
    let mut rates = applier_rates(&scrapes);
    out.set("setup_s", setup.median());
    out.set("ops_per_s", acked_ops as f64 / window_s);
    out.set("core.batch_ops_per_s", rates.median());
    set_sliced(
        &mut out,
        "latency_p50_us",
        ack_due.slice_median(0.5, MIN_PER_SLICE),
    );
    set_sliced(
        &mut out,
        "latency_p90_us",
        ack_due.slice_median(0.9, MIN_PER_SLICE),
    );
    set_sliced(
        &mut out,
        "visible_p50_ms",
        visible.slice_median(0.5, VISIBLE_GROUP),
    );
    set_sliced(
        &mut out,
        "visible_p90_ms",
        visible.slice_median(0.9, VISIBLE_GROUP),
    );
    out.set("client.ack_us_p50", ack_sent.quantile(0.5));
    out.set("client.ack_us_p99", ack_sent.quantile(0.99));
    out.set("client.delta_wait_ms_p50", delta_wait.quantile(0.5));
    out.set("client.delta_wait_ms_p99", delta_wait.quantile(0.99));
    out.set("gen.late_p99_ms", late.quantile(0.99));
    out.set("gen.backlog_end", backlog_end as f64);

    out.note(format!(
        "ingest: n={} d={} k={} r={} eps={} M={} frame={FRAME_OPS} ops offered={rate} frames/s ({} ops/s) window={window_s:.3}s wal=on fsync=off",
        ds.initial.len(),
        ds.d,
        ds.k,
        ds.r,
        ds.eps,
        ds.max_m,
        rate * FRAME_OPS as f64
    ));
    let mut visible_all = visible.pooled();
    out.note(setup.describe("setup (server accepting)", "s"));
    out.note(
        ack_due
            .pooled()
            .describe("ack from scheduled send, pooled", "us"),
    );
    out.note(visible_all.describe("visible from scheduled send, pooled", "ms"));
    out.note(format!(
        "deltas received: {} (visibility samples: {})",
        deltas.len(),
        visible_all.len()
    ));
    out.note(rates.describe("applier ops per busy second, per 1 s slice", "/s"));
    out.note(late.describe("generator lateness", "ms"));
    out.note(format!(
        "backlog per second: {backlog:?}, at window end: {backlog_end}"
    ));
    out
}

/// Steps the offered rate up from 1 000 frames/s until a rate fails,
/// printing each step. Each step runs for `seconds`; at the lowest rate
/// the per-slice figures resolve from about 10 s on (shorter steps fail
/// the slice check).
pub fn calibrate(seed: u64, seconds: f64, work: &Path) {
    let mut rate = 1_000.0;
    let mut best = 0.0;
    while rate <= 20_000.0 {
        let mut tr = Tracer::new(false, Instant::now());
        let mut out = ingest_at(seed, seconds, work, &mut tr, rate);
        let m = |name: &str| out.metrics.get(name).copied().unwrap_or(f64::NAN);
        // Sustained: correct, no growing backlog, and acks within the
        // latency limit (p90 from the scheduled send under 1 ms).
        let ok = out.failures.is_empty() && out.failed == 0 && m("latency_p90_us") < 1_000.0;
        println!(
            "rate={rate} frames/s ({} ops/s): acked ops/s={:.0} ack p50={:.1}us p90={:.1}us late p99={:.3}ms backlog_end={} busy_share={:.3} {}",
            rate * FRAME_OPS as f64,
            m("ops_per_s"),
            m("latency_p50_us"),
            m("latency_p90_us"),
            m("gen.late_p99_ms"),
            m("gen.backlog_end"),
            m("serve.applier.busy_share"),
            if ok { "ok" } else { "FAILED" }
        );
        for f in out.failures.drain(..) {
            println!("  {f}");
        }
        if !ok {
            break;
        }
        best = rate;
        rate *= 1.25;
    }
    println!("highest sustained rate: {best} frames/s; offer about half of it");
}

pub fn query(seed: u64, seconds: f64, work: &Path, tr: &mut Tracer) -> Outcome {
    let ds = dataset(seed, (seconds * 2_000.0) as usize + 16);
    let r = ds.r;
    let mut out = Outcome::default();
    let wal = wal_path(work, "query");
    let mut setup = Samples::default();
    let server = Server::spawn(seed, &wal, &mut setup);
    let mut conn_a = RmsClient::connect(server.addr).expect("first connection");
    let conn_b = RmsClient::connect(server.addr).expect("second connection");
    let before = scrape(&mut conn_a);
    let mut scrapes = vec![before.clone()];
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);

    let b_tracer = tr.fork();
    let reader = std::thread::spawn(move || {
        let mut client = conn_b;
        let mut tr = b_tracer;
        let mut rtt = Sliced::default();
        let mut problems: Vec<String> = Vec::new();
        let mut last = 0u64;
        let mut n = 0u64;
        while Instant::now() < end {
            let t0 = Instant::now();
            let res = client.query();
            let t1 = Instant::now();
            n += 1;
            match res {
                Ok(q) => {
                    rtt.push(slice_of(start, t0), (t1 - t0).as_secs_f64() * 1e6);
                    tr.record("client.query", t0, t1, None, (1 << 40) + n);
                    if q.epochs[0] < last {
                        problems.push(format!(
                            "query: epoch regressed {last} -> {} on connection 2",
                            q.epochs[0]
                        ));
                    }
                    if q.ids.len() > r {
                        problems.push(format!("query: {} ids exceed r={r}", q.ids.len()));
                    }
                    last = q.epochs[0];
                }
                Err(e) => problems.push(format!("query: connection 2 QUERY failed: {e}")),
            }
        }
        (rtt, n, problems, tr)
    });

    let mut rtt = Sliced::default();
    let mut ack = Samples::default();
    let mut visible_ms: Vec<f64> = Vec::new();
    let mut writes = ds.ops.iter();
    let mut pending: Option<(Instant, u64, u64)> = None;
    let mut last = 0u64;
    let mut first_epoch = None;
    let mut n_a = 0u64;
    let mut acked = 0u64;
    let mut sent_writes = 0u64;
    while Instant::now() < end {
        let t0 = Instant::now();
        let res = conn_a.query();
        let t1 = Instant::now();
        n_a += 1;
        out.attempted += 1;
        let q = match res {
            Ok(q) => q,
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("query: connection 1 QUERY failed: {e}"));
                continue;
            }
        };
        rtt.push(slice_of(start, t0), (t1 - t0).as_secs_f64() * 1e6);
        tr.record("client.query", t0, t1, None, n_a);
        if t1.duration_since(start).as_secs() as usize >= scrapes.len() {
            scrapes.push(scrape(&mut conn_a));
        }
        let epoch = q.epochs[0];
        first_epoch.get_or_insert(epoch);
        out.check(epoch >= last, || {
            format!("query: epoch regressed {last} -> {epoch} on connection 1")
        });
        out.check(q.ids.len() <= r, || {
            format!("query: {} ids exceed r={r}", q.ids.len())
        });
        last = epoch;
        if let Some((sent, pre, req)) = pending {
            if epoch > pre {
                visible_ms.push((t1 - sent).as_secs_f64() * 1e3);
                tr.record("write.visible", sent, t1, None, req);
                pending = None;
            }
        }
        if pending.is_none() && n_a.is_multiple_of(QUERIES_PER_WRITE) {
            let op = writes
                .next()
                .expect("the trickle stream outlasts the window");
            let s = Instant::now();
            let res = conn_a.submit_batch(&[client_op(op)]);
            let a = Instant::now();
            out.attempted += 1;
            sent_writes += 1;
            match res {
                Ok(1) => acked += 1,
                _ => out.failed += 1,
            }
            ack.push((a - s).as_secs_f64() * 1e6);
            tr.record("client.ack", s, a, None, (1 << 41) + sent_writes);
            pending = Some((s, epoch, (1 << 41) + sent_writes));
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let (rtt_b, n_b, problems, b_tracer) = reader.join().expect("reader thread");
    tr.absorb(b_tracer);
    out.attempted += n_b;
    out.failed += problems.iter().filter(|p| p.contains("failed")).count() as u64;
    for p in problems.into_iter().take(5) {
        out.check(false, || p);
    }
    rtt.absorb(&rtt_b);

    let applied_at_end = conn_a.stats().expect("STATS").ops_applied().unwrap_or(0);
    let (applied, rejected) = quiesce(&mut conn_a, acked);
    let after = scrape(&mut conn_a);
    let final_q = conn_a.query().expect("final QUERY");
    let fin = server.finish(conn_a);
    let _ = std::fs::remove_file(&wal);
    out.check(rejected == 0, || format!("query: {rejected} ops rejected"));
    out.check(applied == acked, || {
        format!("query: acked {acked} writes but {applied} applied")
    });
    final_checks(
        &mut out,
        "query",
        &fin,
        &ds.live_ids_after(acked as usize),
        &final_q.ids,
    );

    server_layers(&mut out, &before, &after, window_s, acked);
    let mut rates = applier_rates(&scrapes);
    let queries = (n_a + n_b) as f64;
    let versions = final_q.epochs[0].saturating_sub(first_epoch.unwrap_or(0));
    let mut rtt_all = rtt.pooled();
    let mut visible = Sliced::groups(visible_ms, VISIBLE_GROUP);
    out.set("setup_s", setup.median());
    out.set("ops_per_s", queries / window_s);
    out.set("core.batch_ops_per_s", rates.median());
    set_sliced(
        &mut out,
        "latency_p50_us",
        rtt.slice_median(0.5, MIN_PER_SLICE),
    );
    set_sliced(
        &mut out,
        "latency_p90_us",
        rtt.slice_median(0.9, MIN_PER_SLICE),
    );
    set_sliced(
        &mut out,
        "visible_p50_ms",
        visible.slice_median(0.5, VISIBLE_GROUP),
    );
    set_sliced(
        &mut out,
        "visible_p90_ms",
        visible.slice_median(0.9, VISIBLE_GROUP),
    );
    out.set("client.ack_us_p50", ack.quantile(0.5));
    out.set("client.ack_us_p99", ack.quantile(0.99));
    out.set("client.query_us_p50", rtt_all.quantile(0.5));
    out.set("client.query_us_p99", rtt_all.quantile(0.99));
    out.set(
        "gen.backlog_end",
        acked.saturating_sub(applied_at_end) as f64,
    );

    out.note(format!(
        "query: n={} d={} k={} r={} eps={} M={} connections=2 (closed loop), one-op write every {QUERIES_PER_WRITE} queries of connection 1 once the previous is visible; window={window_s:.3}s wal=on fsync=off",
        ds.initial.len(),
        ds.d,
        ds.k,
        ds.r,
        ds.eps,
        ds.max_m
    ));
    out.note(format!(
        "queries: {} (connection 1: {n_a}, connection 2: {n_b}); writes: {sent_writes}; versions advanced: {versions}; queries per version: {:.1}",
        n_a + n_b,
        ratio(queries, versions as f64)
    ));
    out.note(setup.describe("setup (server accepting)", "s"));
    out.note(rtt_all.describe("QUERY round trip, pooled", "us"));
    out.note(
        visible
            .pooled()
            .describe("write visible in QUERY, pooled", "ms"),
    );
    out.note(rates.describe("applier ops per busy second, per 1 s slice", "/s"));
    out.note(ack.describe("write ack", "us"));
    out
}
