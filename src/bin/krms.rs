//! `krms` — command-line front end for the k-regret minimizing set
//! library.
//!
//! ```text
//! krms generate --dataset AntiCor --n 10000 --d 6 --out data.krms
//! krms run      --in data.krms --algo FD-RMS --r 10 [--k 1] [--eps 0.02]
//! krms workload --in data.krms --algo FD-RMS --r 10 [--ops 500]
//! krms serve    --in data.krms --r 10 [--addr 127.0.0.1:7878]
//! krms skyline  --in data.krms
//! ```
//!
//! Datasets are stored in the compact binary format of
//! `krms::data::cache` (magic `KRMS`).

use krms::baselines::{
    DmmGreedy, DmmRrms, DynamicAdapter, EpsKernel, GeoGreedy, Greedy, GreedyStar, HittingSet,
    Sphere, StaticRms, TwoDSweep,
};
use krms::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if args.iter().any(|a| a == "--help" || a == "-h") || cmd == "help" {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = parse_flags(&args[1..]).and_then(|flags| match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "run" => cmd_run(&flags),
        "workload" => cmd_workload(&flags),
        "serve" => cmd_serve(&flags),
        "skyline" => cmd_skyline(&flags),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "krms — k-regret minimizing sets

USAGE:
  krms generate --dataset <BB|AQ|CT|Movie|Indep|AntiCor> [--n N] [--d D]
                [--seed S] --out FILE
  krms run      --in FILE --algo ALGO --r R [--k K] [--eps E] [--max-m M]
                [--eval N]
  krms workload --in FILE --algo ALGO --r R [--k K] [--eps E] [--max-m M]
                [--ops N] [--eval N] [--seed S]
                [--batch B]   (FD-RMS applies B operations per batch
                               engine call; default 1, the only size a
                               baseline takes)
  krms serve    --in FILE --r R [--k K] [--eps E] [--max-m M]
                [--addr HOST:PORT] [--queue Q] [--max-batch B]
                [--wal PATH]     (write-ahead op log: acknowledged ops
                                  are logged before the ack and replayed
                                  on restart)
                [--wal-fsync true|false]  (fsync the log once per applied
                                  batch: survives power loss, not just
                                  process death; default false)
                [--mrr-dirs N] [--mrr-every E] [--mrr-seed S]
                                 (Monte-Carlo max-regret-ratio estimate in
                                  STATS: N test directions, refreshed
                                  every E epochs, sampled from seed S)
                [--metrics-addr HOST:PORT]  (HTTP scrape endpoint: GET
                                  /metrics answers the same Prometheus
                                  text exposition as the METRICS verb)
                [--net-threads N]  (reactor threads serving connections;
                                  accepted sockets are dealt round-robin
                                  across the group; default 1)
                                 (TCP front end over one FD-RMS service;
                                  line protocol: INSERT/DELETE/UPDATE/
                                  QUERY/STATS/SHUTDOWN, one reply per line;
                                  HELLO (server parameters), BATCH <n>
                                  pipelining, SUBSCRIBE [every=K] [ids=LO..HI]
                                  delta push — server-side id filtering —
                                  and METRICS Prometheus exposition)
  krms skyline  --in FILE

ALGO: FD-RMS | Greedy | GeoGreedy | Greedy* | DMM-RRMS | DMM-Greedy |
      eps-Kernel | HS | Sphere | 2D-Sweep

Each command refuses a flag it does not read.";

/// Parses `--key value` pairs. Every flag takes exactly one value;
/// a flag followed by another `--flag` (or by nothing) is an error, as is
/// any positional token — silently swallowing either is how `--addr
/// --queue 64` once set `addr="--queue"` and dropped the queue size.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            return Err(format!(
                "unexpected positional argument `{}` (flags are --key value pairs)",
                args[i]
            ));
        };
        if key.is_empty() {
            return Err("bare `--` is not a flag".into());
        }
        match args.get(i + 1) {
            None => return Err(format!("flag --{key} is missing its value")),
            Some(val) if val.starts_with("--") => {
                return Err(format!(
                    "flag --{key} is missing its value (found flag `{val}` instead)"
                ));
            }
            Some(val) => {
                map.insert(key.to_string(), val.clone());
            }
        }
        i += 2;
    }
    Ok(map)
}

/// The flags each command reads, space-separated; `USAGE` documents
/// exactly these.
const COMMAND_FLAGS: [(&str, &str); 5] = [
    ("generate", "dataset n d seed out"),
    ("run", "in algo r k eps max-m eval"),
    ("workload", "in algo r k eps max-m ops eval seed batch"),
    (
        "serve",
        "in r k eps max-m addr queue max-batch wal wal-fsync mrr-dirs mrr-every mrr-seed \
         metrics-addr net-threads",
    ),
    ("skyline", "in"),
];

/// Refuses any flag that `cmd` does not read (see [`COMMAND_FLAGS`]): a
/// misspelt flag such as `--wal-fsnyc true` would otherwise be ignored
/// without a word.
fn known_flags(flags: &HashMap<String, String>, cmd: &str) -> Result<(), String> {
    let known = COMMAND_FLAGS
        .iter()
        .find_map(|&(c, known)| (c == cmd).then_some(known))
        .unwrap_or_default();
    let unknown = |key: &&String| !known.split_whitespace().any(|k| k == key.as_str());
    match flags.keys().filter(unknown).min() {
        Some(key) => Err(format!("unknown flag --{key} for krms {cmd}")),
        None => Ok(()),
    }
}

fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid --{key} value `{v}`")),
    }
}

fn load_points(flags: &HashMap<String, String>) -> Result<Vec<Point>, String> {
    let path = flags.get("in").ok_or("missing --in FILE")?;
    krms::data::cache::load(Path::new(path)).ok_or(format!("cannot read dataset from {path}"))
}

fn static_algo(name: &str, d: usize) -> Result<Option<Box<dyn StaticRms>>, String> {
    if name.eq_ignore_ascii_case("2d-sweep") && d != 2 {
        return Err(format!("2D-Sweep requires d = 2 (dataset has d = {d})"));
    }
    Ok(Some(match name.to_ascii_lowercase().as_str() {
        "greedy" => Box::new(Greedy),
        "geogreedy" => Box::new(GeoGreedy),
        "greedy*" => Box::new(GreedyStar::default()),
        "dmm-rrms" => Box::new(DmmRrms::default()),
        "dmm-greedy" => Box::new(DmmGreedy::default()),
        "eps-kernel" => Box::new(EpsKernel::default()),
        "hs" => Box::new(HittingSet::default()),
        "sphere" => Box::new(Sphere::default()),
        "2d-sweep" => Box::new(TwoDSweep::default()),
        _ => return Ok(None),
    }))
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    known_flags(flags, "generate")?;
    let name = flags.get("dataset").ok_or("missing --dataset")?;
    let ds = krms::data::dataset_by_name(name).ok_or(format!("unknown dataset {name}"))?;
    let mut spec = ds.spec();
    spec = spec.with_n(get(flags, "n", spec.n)?);
    spec = spec.with_d(get(flags, "d", spec.d)?);
    spec = spec.with_seed(get(flags, "seed", spec.seed)?);
    let out = flags.get("out").ok_or("missing --out FILE")?;
    let points = spec.generate();
    krms::data::cache::save(Path::new(out), &points).map_err(|e| e.to_string())?;
    println!("wrote {} tuples (d = {}) to {out}", points.len(), spec.d);
    Ok(())
}

fn cmd_run(flags: &HashMap<String, String>) -> Result<(), String> {
    known_flags(flags, "run")?;
    let points = load_points(flags)?;
    let d = points.first().map(Point::dim).ok_or("empty dataset")?;
    let algo = flags.get("algo").ok_or("missing --algo")?;
    let r: usize = get(flags, "r", 10)?;
    let k: usize = get(flags, "k", 1)?;
    let eval: usize = get(flags, "eval", 20_000)?;
    let est = RegretEstimator::new(d, eval.max(d), 0xE7A1);

    let sw = krms::eval::Stopwatch::start();
    let q = if algo.eq_ignore_ascii_case("fd-rms") {
        let eps: f64 = get(flags, "eps", 0.02)?;
        let max_m: usize = get(flags, "max-m", 1 << 12)?;
        FdRms::builder(d)
            .k(k)
            .r(r)
            .epsilon(eps)
            .max_utilities(max_m)
            .build(points.clone())
            .map_err(|e| e.to_string())?
            .result()
    } else {
        let a = static_algo(algo, d)?.ok_or(format!("unknown algorithm {algo}"))?;
        if !a.supports_k(k) {
            return Err(format!("{} does not support k = {k}", a.name()));
        }
        let sky = skyline(&points);
        a.compute(&sky, &points, k, r)
    };
    let ms = sw.elapsed_ms();
    println!("algorithm : {algo}");
    println!(
        "result    : {:?}",
        q.iter().map(Point::id).collect::<Vec<_>>()
    );
    println!("|Q|       : {}", q.len());
    println!("time      : {ms:.2} ms");
    println!("mrr_{k}     : {:.5}", est.mrr(&points, &q, k));
    Ok(())
}

fn cmd_workload(flags: &HashMap<String, String>) -> Result<(), String> {
    known_flags(flags, "workload")?;
    let points = load_points(flags)?;
    let d = points.first().map(Point::dim).ok_or("empty dataset")?;
    let algo = flags.get("algo").ok_or("missing --algo")?;
    let r: usize = get(flags, "r", 10)?;
    let k: usize = get(flags, "k", 1)?;
    let ops_cap: usize = get(flags, "ops", usize::MAX)?;
    let eval: usize = get(flags, "eval", 10_000)?;
    let est = RegretEstimator::new(d, eval.max(d), 0xE7A1);

    let mut rng = StdRng::seed_from_u64(get(flags, "seed", 0u64)?);
    let mut w = krms::data::paper_workload(&mut rng, points, Default::default());
    w.truncate(ops_cap);
    let mut live = w.initial.clone();
    let mut timer = krms::eval::UpdateTimer::new();

    enum Runner {
        Fd(Box<FdRms>),
        Ad(Box<DynamicAdapter<BoxedStatic>>),
    }
    struct BoxedStatic(Box<dyn StaticRms>);
    impl StaticRms for BoxedStatic {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn supports_k(&self, k: usize) -> bool {
            self.0.supports_k(k)
        }
        fn compute(&self, s: &[Point], f: &[Point], k: usize, r: usize) -> Vec<Point> {
            self.0.compute(s, f, k, r)
        }
    }
    let batch: usize = get(flags, "batch", 1)?;
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    let mut runner = if algo.eq_ignore_ascii_case("fd-rms") {
        let eps: f64 = get(flags, "eps", 0.02)?;
        let max_m: usize = get(flags, "max-m", 1 << 12)?;
        Runner::Fd(Box::new(
            FdRms::builder(d)
                .k(k)
                .r(r)
                .epsilon(eps)
                .max_utilities(max_m)
                .build(w.initial.clone())
                .map_err(|e| e.to_string())?,
        ))
    } else {
        let a = static_algo(algo, d)?.ok_or(format!("unknown algorithm {algo}"))?;
        if !a.supports_k(k) {
            return Err(format!("{} does not support k = {k}", a.name()));
        }
        if batch > 1 {
            return Err("--batch requires --algo FD-RMS".into());
        }
        Runner::Ad(Box::new(
            DynamicAdapter::new(BoxedStatic(a), k, r, w.initial.clone())
                .map_err(|e| e.to_string())?,
        ))
    };

    println!("op%   n_live   |Q|   mrr_{k}    avg_update_ms");
    // FD-RMS streams the operations through its batch update engine,
    // `batch` at a time (`--batch 1` is one-op batches through the same
    // path); a baseline takes them one at a time through its adapter.
    let mut applied = 0usize;
    let mut next_cp = 0usize;
    for chunk in w.batches(batch) {
        for op in chunk {
            match op {
                krms::data::Operation::Insert(p) => live.push(p.clone()),
                krms::data::Operation::Delete(id) => live.retain(|q| q.id() != *id),
                krms::data::Operation::Update(p) => {
                    if let Some(slot) = live.iter_mut().find(|q| q.id() == p.id()) {
                        *slot = p.clone();
                    }
                }
            }
        }
        match &mut runner {
            Runner::Fd(fd) => {
                let ops = krms::engine_ops(chunk);
                timer.record(|| fd.apply_batch(ops).expect("workload operations are valid"));
            }
            Runner::Ad(ad) => {
                for op in chunk {
                    let needs = match op {
                        krms::data::Operation::Insert(p) => {
                            ad.insert_lazy(p.clone()).expect("fresh id")
                        }
                        krms::data::Operation::Delete(id) => ad.delete_lazy(*id).expect("live id"),
                        krms::data::Operation::Update(p) => {
                            let del = ad.delete_lazy(p.id()).expect("live id");
                            let ins = ad.insert_lazy(p.clone()).expect("id just freed");
                            del || ins
                        }
                    };
                    if needs {
                        timer.record(|| ad.recompute());
                    } else {
                        timer.add(std::time::Duration::ZERO);
                    }
                }
            }
        }
        applied += chunk.len();
        // Report every checkpoint this batch crossed.
        while next_cp < w.checkpoints.len() && w.checkpoints[next_cp] < applied {
            next_cp += 1;
            let q = match &runner {
                Runner::Fd(fd) => fd.result(),
                Runner::Ad(ad) => ad.result().to_vec(),
            };
            println!(
                "{:>3}   {:>6}   {:>3}   {:.4}   {:>12.4}",
                next_cp * 10,
                live.len(),
                q.len(),
                est.mrr(&live, &q, k),
                timer.avg_ms()
            );
        }
    }
    if batch > 1 {
        println!(
            "batched: {applied} ops in batches of {batch}, avg {:.4} ms/batch",
            timer.avg_ms()
        );
    }
    Ok(())
}

/// How long the `--metrics-addr` endpoint waits on one connection's
/// request or reply before it drops the connection, so a peer that
/// connects and sends nothing holds its thread this long, not forever.
const METRICS_IO_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(2);

/// How many `--metrics-addr` connections are served at once, each on a
/// thread of its own; a connection past the cap is closed unanswered.
const METRICS_MAX_CONNS: usize = 8;

/// Minimal HTTP scrape endpoint for the `--metrics-addr` listener:
/// answers `GET /metrics` with the registry's Prometheus text
/// exposition, 404 for any other target; one request per connection
/// (`Connection: close`), which is all a Prometheus scraper needs. Each
/// accepted connection is answered on a short-lived thread, so an idle
/// connection delays no scrape.
fn serve_metrics_http(
    listener: &std::net::TcpListener,
    registry: &std::sync::Arc<krms::metrics::Registry>,
) {
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        let Ok(stream) = stream else {
            std::thread::sleep(std::time::Duration::from_millis(20));
            continue;
        };
        workers.retain(|w| !w.is_finished());
        if workers.len() >= METRICS_MAX_CONNS {
            continue;
        }
        let registry = std::sync::Arc::clone(registry);
        if let Ok(worker) = std::thread::Builder::new()
            .name("rms-metrics-conn".into())
            .spawn(move || answer_metrics_request(&stream, &registry))
        {
            workers.push(worker);
        }
    }
}

/// Reads one HTTP request from `stream` and writes its reply, giving up
/// after [`METRICS_IO_TIMEOUT`] on either side.
fn answer_metrics_request(stream: &std::net::TcpStream, registry: &krms::metrics::Registry) {
    use std::io::{BufRead, BufReader, Write};

    if stream.set_read_timeout(Some(METRICS_IO_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(METRICS_IO_TIMEOUT)).is_err()
    {
        return;
    }
    let mut reader = BufReader::new(stream);
    let mut request = String::new();
    if reader.read_line(&mut request).is_err() {
        return;
    }
    // Drain the request headers up to the blank line; nothing in them
    // changes the response.
    let mut header = String::new();
    loop {
        header.clear();
        match reader.read_line(&mut header) {
            Ok(0) | Err(_) => break,
            Ok(_) if header.trim().is_empty() => break,
            Ok(_) => {}
        }
    }
    let scrape = {
        let mut parts = request.split_whitespace();
        parts.next() == Some("GET") && matches!(parts.next(), Some("/metrics") | Some("/metrics/"))
    };
    let (status, body) = if scrape {
        ("200 OK", registry.encode())
    } else {
        ("404 Not Found", "not found\n".to_string())
    };
    let mut writer = stream;
    let _ = write!(
        writer,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    use krms::serve::{RmsServer, RmsService, ServeConfig};
    use std::path::PathBuf;

    known_flags(flags, "serve")?;
    let points = load_points(flags)?;
    let d = points.first().map(Point::dim).ok_or("empty dataset")?;
    let r: usize = get(flags, "r", 10)?;
    let k: usize = get(flags, "k", 1)?;
    let eps: f64 = get(flags, "eps", 0.02)?;
    let max_m: usize = get(flags, "max-m", 1 << 12)?;
    let wal: Option<PathBuf> = flags.get("wal").map(PathBuf::from);
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let net_threads: usize = get(flags, "net-threads", 1usize)?;
    if net_threads == 0 {
        return Err("--net-threads must be at least 1".into());
    }
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        queue_capacity: get(flags, "queue", 1024usize)?,
        max_batch: get(flags, "max-batch", 512usize)?,
        mrr_directions: get(flags, "mrr-dirs", 0usize)?,
        mrr_every: get(flags, "mrr-every", defaults.mrr_every)?,
        mrr_seed: get(flags, "mrr-seed", defaults.mrr_seed)?,
        wal_fsync: get(flags, "wal-fsync", false)?,
    };
    if cfg.wal_fsync && wal.is_none() {
        return Err("--wal-fsync true requires --wal PATH".into());
    }

    let n = points.len();
    let builder = FdRms::builder(d)
        .k(k)
        .r(r)
        .epsilon(eps)
        .max_utilities(max_m);
    // `start_with_wal` itself refuses a log that a shard group of an
    // earlier build left behind (a `PATH.meta` sidecar).
    let service = match &wal {
        Some(path) => {
            RmsService::start_with_wal(builder, points, cfg, path).map_err(|e| e.to_string())?
        }
        None => RmsService::start(builder, points, cfg).map_err(|e| e.to_string())?,
    };
    if let Some(maddr) = flags.get("metrics-addr") {
        let registry = std::sync::Arc::clone(service.registry());
        let listener =
            std::net::TcpListener::bind(maddr).map_err(|e| format!("bind metrics {maddr}: {e}"))?;
        let bound = listener.local_addr().map_err(|e| e.to_string())?;
        std::thread::Builder::new()
            .name("rms-metrics-http".into())
            .spawn(move || serve_metrics_http(&listener, &registry))
            .map_err(|e| format!("spawn metrics listener: {e}"))?;
        println!("metrics: http://{bound}/metrics");
    }
    let server = RmsServer::bind(&addr, service)
        .map_err(|e| format!("bind {addr}: {e}"))?
        .with_net_threads(net_threads);
    println!(
        "serving FD-RMS (n = {n}, d = {d}, k = {k}, r = {r}, eps = {eps}{}) on {}",
        wal.as_deref()
            .map(|p| format!(", wal = {}", p.display()))
            .unwrap_or_default(),
        server.local_addr().map_err(|e| e.to_string())?
    );
    println!("protocol: INSERT <id> <v1..vd> | DELETE <id> | UPDATE <id> <v1..vd> | QUERY | STATS | SHUTDOWN");
    println!(
        "          HELLO v2 | BATCH <n> (one ack for n ops) | SUBSCRIBE [every=K] [ids=LO..HI] (DELTA push) | METRICS"
    );
    let engines = server.run().map_err(|e| e.to_string())?;
    if let [fd] = engines.as_slice() {
        println!(
            "shut down after {} ops; final n = {}, |Q| = {}",
            fd.operations(),
            fd.len(),
            fd.result().len()
        );
    }
    Ok(())
}

fn cmd_skyline(flags: &HashMap<String, String>) -> Result<(), String> {
    known_flags(flags, "skyline")?;
    let points = load_points(flags)?;
    let sw = krms::eval::Stopwatch::start();
    let sky = skyline(&points);
    println!(
        "n = {}, d = {}, |skyline| = {} ({:.2}%), computed in {:.2} ms",
        points.len(),
        points.first().map(Point::dim).unwrap_or(0),
        sky.len(),
        100.0 * sky.len() as f64 / points.len().max(1) as f64,
        sw.elapsed_ms()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{
        cmd_generate, cmd_run, cmd_serve, cmd_skyline, cmd_workload, parse_flags,
        serve_metrics_http, COMMAND_FLAGS, METRICS_IO_TIMEOUT, METRICS_MAX_CONNS, USAGE,
    };
    use std::collections::{BTreeSet, HashMap};
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn args(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_key_value_pairs() {
        let flags = parse_flags(&args(&["--in", "x.krms", "--r", "10"])).unwrap();
        assert_eq!(flags.get("in").map(String::as_str), Some("x.krms"));
        assert_eq!(flags.get("r").map(String::as_str), Some("10"));
        assert!(parse_flags(&[]).unwrap().is_empty());
    }

    #[test]
    fn missing_value_does_not_swallow_the_next_flag() {
        // The regression: `--addr --queue 64` once set addr="--queue"
        // and silently dropped the queue size.
        let err = parse_flags(&args(&["--in", "x", "--addr", "--queue", "64"])).unwrap_err();
        assert!(err.contains("--addr"), "{err}");
        assert!(err.contains("--queue"), "{err}");
    }

    #[test]
    fn trailing_flag_without_value_errors() {
        let err = parse_flags(&args(&["--in", "x", "--queue"])).unwrap_err();
        assert!(err.contains("--queue"), "{err}");
    }

    #[test]
    fn positional_arguments_error() {
        let err = parse_flags(&args(&["stray"])).unwrap_err();
        assert!(err.contains("stray"), "{err}");
        let err = parse_flags(&args(&["--in", "x", "stray"])).unwrap_err();
        assert!(err.contains("stray"), "{err}");
        assert!(parse_flags(&args(&["--"])).is_err());
    }

    #[test]
    fn commands_refuse_flags_they_do_not_read() {
        // Each command checks its flags before it touches `--in`, so the
        // missing dataset never gets read.
        let flags = parse_flags(&args(&["--in", "missing.krms", "--bogus", "1"])).unwrap();
        assert_eq!(
            cmd_skyline(&flags).unwrap_err(),
            "unknown flag --bogus for krms skyline"
        );
        // A typo must not serve without fsync, and a removed option must
        // not be ignored.
        for flag in ["wal-fsnyc", "shards"] {
            let flags =
                parse_flags(&args(&["--in", "missing.krms", &format!("--{flag}"), "2"])).unwrap();
            assert_eq!(
                cmd_serve(&flags).unwrap_err(),
                format!("unknown flag --{flag} for krms serve")
            );
        }
    }

    #[test]
    fn usage_documents_exactly_the_flags_each_command_reads() {
        for (cmd, known) in COMMAND_FLAGS {
            // A command's entry runs from `krms <cmd>` to the next entry.
            let entry = USAGE
                .split_once(&format!("\n  krms {cmd} "))
                .unwrap_or_else(|| panic!("USAGE has no entry for {cmd}"))
                .1;
            let entry = entry.split("\n  krms ").next().unwrap();
            let entry = entry.split("\n\n").next().unwrap();
            let documented: BTreeSet<&str> = entry
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter_map(|token| token.strip_prefix("--"))
                .collect();
            let read: BTreeSet<&str> = known.split_whitespace().collect();
            assert_eq!(documented, read, "krms {cmd}");
        }
    }

    #[test]
    fn commands_accept_every_flag_they_read() {
        type Cmd = fn(&HashMap<String, String>) -> Result<(), String>;
        let commands: [(&str, Cmd, &str); 5] = [
            ("generate", cmd_generate, "unknown dataset missing"),
            ("run", cmd_run, "cannot read dataset from missing"),
            ("workload", cmd_workload, "cannot read dataset from missing"),
            ("serve", cmd_serve, "cannot read dataset from missing"),
            ("skyline", cmd_skyline, "cannot read dataset from missing"),
        ];
        for (name, cmd, expected) in commands {
            let (_, known) = COMMAND_FLAGS.iter().find(|(c, _)| *c == name).unwrap();
            // Every flag this command reads, each set to `missing`: the
            // flag check passes, and the command fails at its input
            // before it writes, binds or serves anything.
            let flags: HashMap<String, String> = known
                .split_whitespace()
                .map(|flag| (flag.to_string(), "missing".to_string()))
                .collect();
            assert_eq!(cmd(&flags).unwrap_err(), expected, "krms {name}");
        }
    }

    /// Idle connections ahead of a scrape hold only their own threads:
    /// the scrape is answered at once, not after their timeouts.
    #[test]
    fn metrics_scrape_is_answered_behind_an_idle_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let registry = std::sync::Arc::new(krms::metrics::Registry::new());
        registry
            .register_counter("rms_test_scrapes_total", "Scrapes answered.", &[])
            .inc();
        // The listener thread serves until the test process exits.
        std::thread::spawn(move || serve_metrics_http(&listener, &registry));
        let _idle: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let mut scrape = TcpStream::connect(addr).unwrap();
        scrape
            .set_read_timeout(Some(METRICS_IO_TIMEOUT * 3))
            .unwrap();
        scrape
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        scrape
            .read_to_string(&mut reply)
            .expect("the scrape behind idle connections got no reply");
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.contains("\nrms_test_scrapes_total 1\n"), "{reply}");
    }

    /// Past [`METRICS_MAX_CONNS`] live connections, the next one is
    /// closed at once instead of starting another thread.
    #[test]
    fn metrics_connections_past_the_cap_are_closed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let registry = std::sync::Arc::new(krms::metrics::Registry::new());
        std::thread::spawn(move || serve_metrics_http(&listener, &registry));
        let _idle: Vec<TcpStream> = (0..METRICS_MAX_CONNS)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        let mut extra = TcpStream::connect(addr).unwrap();
        extra
            .set_read_timeout(Some(METRICS_IO_TIMEOUT / 2))
            .unwrap();
        let mut reply = String::new();
        extra
            .read_to_string(&mut reply)
            .expect("a connection past the cap was held, not closed");
        assert!(reply.is_empty(), "{reply}");
    }

    #[test]
    fn values_may_look_like_anything_but_flags() {
        // Single-dash and negative-number values are legitimate.
        let flags = parse_flags(&args(&["--out", "-", "--seed", "-5"])).unwrap();
        assert_eq!(flags.get("out").map(String::as_str), Some("-"));
        assert_eq!(flags.get("seed").map(String::as_str), Some("-5"));
    }
}
