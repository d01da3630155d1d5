//! The krms benchmark: one command, three workloads, every end-to-end
//! metric by name and unit, correctness checks, and a traced run that
//! reports the per-layer numbers.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload maintain|ingest|query --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.
//! With `--trace 0` the metrics are the end-to-end set ([`END_TO_END`]);
//! with `--trace 1` the run measures the workload twice for half the
//! window each, untraced (in a process of its own) then traced, probes
//! every layer on the workload's own data, and reports the per-layer set
//! ([`PER_LAYER`]), tracing overhead included. Spans go to `.bench_work/`.
//! `--calibrate` (ingest only) steps the offered rate up to find the
//! highest rate the server sustains without a growing backlog.
//! See `perfbench/README.md` for what each workload and metric means.

mod maintain;
mod probes;
mod served;
mod stats;
mod trace;

use fdrms::{FdRms, FdRmsBuilder, Op};
use rms_geom::{Point, PointId};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics: (name, unit). Every workload reports every one;
/// README.md defines each per workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("visible_p50_ms", "ms"),
];

/// Per-layer metrics of the traced run: (name, unit). A value of 0 means
/// the workload does not exercise that layer (README.md lists which).
/// The `overhead.*` entries are traced minus untraced, per end-to-end
/// metric. `latency_p90_us` and `visible_p90_ms` are the end-to-end tails,
/// reported here ungated from the traced half: across seeds they do not
/// repeat within a tenth (README.md).
pub const PER_LAYER: [(&str, &str); 50] = [
    ("latency_p90_us", "us"),
    ("visible_p90_ms", "ms"),
    ("quality.mrr", "ratio"),
    ("core.batch_ops_per_s", "1/s"),
    ("core.build_s", "s"),
    ("core.op_us_mean", "us"),
    ("core.op_us_p50", "us"),
    ("core.apply_batch_ms_mean", "ms"),
    ("core.affected_per_op", "count"),
    ("core.requery_ratio", "ratio"),
    ("core.membership_changes_per_op", "count"),
    ("index.kd_build_ms", "ms"),
    ("index.cone_build_ms", "ms"),
    ("index.kd_topk_approx_us", "us"),
    ("index.kd_topk_us", "us"),
    ("index.cone_probe_us", "us"),
    ("index.cone_hits_per_point", "count"),
    ("setcover.greedy_ms", "ms"),
    ("setcover.commit_ms", "ms"),
    ("setcover.stabilize_moves_per_batch", "count"),
    ("serve.applier.apply_ms_mean", "ms"),
    ("serve.applier.publish_ms_mean", "ms"),
    ("serve.applier.batch_ops_mean", "count"),
    ("serve.applier.busy_share", "ratio"),
    ("serve.wal.appends_per_op", "ratio"),
    ("serve.wal.append_frame_us", "us"),
    ("serve.wal.sync_ms", "ms"),
    ("serve.snapshot.delta_from_us", "us"),
    ("serve.protocol.parse_ns", "ns"),
    ("serve.tcp.batch_us_mean", "us"),
    ("serve.tcp.query_us_mean", "us"),
    ("serve.tcp.delta_bytes_per_publish", "bytes"),
    ("net.fanout_ms_mean", "ms"),
    ("net.encodes_per_publish", "ratio"),
    ("net.wakeups_per_request", "ratio"),
    ("client.ack_us_p50", "us"),
    ("client.ack_us_p99", "us"),
    ("client.query_us_p50", "us"),
    ("client.query_us_p99", "us"),
    ("client.delta_wait_ms_p50", "ms"),
    ("client.delta_wait_ms_p99", "ms"),
    ("metrics.record_ns", "ns"),
    ("gen.late_p99_ms", "ms"),
    ("gen.backlog_end", "count"),
    ("trace.spans", "count"),
    ("overhead.setup_s", "s"),
    ("overhead.peak_rss_mb", "MB"),
    ("overhead.ops_per_s", "1/s"),
    ("overhead.latency_p50_us", "us"),
    ("overhead.visible_p50_ms", "ms"),
];

/// Monte-Carlo test directions for every `mrr` figure, drawn once from a
/// fixed seed so every run, seed and discipline faces the same set.
pub const MRR_DIRECTIONS: usize = 4_000;
pub const MRR_SEED: u64 = 0x5EED_0FD1;
/// Seed of the engine's own utility sample (not the workload seed: the
/// program under test is configured identically in every run).
pub const ENGINE_SEED: u64 = 7;
/// The engine's batch-recompute threads. One: on a 2-core host shared with
/// other tenants, a recompute split over both cores waits for whichever
/// core a co-tenant holds, and the timings follow the host, not the engine.
pub const ENGINE_THREADS: usize = 1;
/// Scratch directory, relative to the checkout root, for WAL files and
/// span dumps.
pub const WORK_DIR: &str = ".bench_work";

/// One workload's generated inputs and engine configuration.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub d: usize,
    pub k: usize,
    pub r: usize,
    pub eps: f64,
    pub max_m: usize,
    pub initial: Vec<Point>,
    pub ops: Vec<Op>,
    /// Batch size for the batched discipline and the layer probes.
    pub batch: usize,
}

impl Dataset {
    pub fn builder(&self) -> FdRmsBuilder {
        FdRms::builder(self.d)
            .k(self.k)
            .r(self.r)
            .epsilon(self.eps)
            .max_utilities(self.max_m)
            .seed(ENGINE_SEED)
            .batch_threads(ENGINE_THREADS)
    }

    /// Ids live after applying `ops[..applied]` to the initial set, ascending.
    pub fn live_ids_after(&self, applied: usize) -> Vec<PointId> {
        let mut live: BTreeSet<PointId> = self.initial.iter().map(Point::id).collect();
        for op in &self.ops[..applied] {
            match op {
                Op::Insert(p) => {
                    live.insert(p.id());
                }
                Op::Delete(id) => {
                    live.remove(id);
                }
                Op::Update(_) => {}
            }
        }
        live.into_iter().collect()
    }
}

/// Everything one measured run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks (empty when correct).
    pub failures: Vec<String>,
    /// Human-readable detail lines (sample counts, quantile resolution).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`). `maintain`
/// reads it in its own process; the served workloads read it in the
/// server's process.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    calibrate: bool,
    /// Set in the server process the served workloads start.
    serve_child: bool,
    wal: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        calibrate: false,
        serve_child: false,
        wal: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--calibrate" => args.calibrate = true,
            "--serve-child" => args.serve_child = true,
            "--wal" => args.wal = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run_workload(name: &str, seed: u64, seconds: f64, work: &Path, tr: &mut Tracer) -> Outcome {
    match name {
        "maintain" => {
            let mut out = maintain::run(seed, seconds, tr);
            out.set("peak_rss_mb", peak_rss_mb());
            out
        }
        "ingest" => served::ingest(seed, seconds, work, tr),
        "query" => served::query(seed, seconds, work, tr),
        other => unreachable!("workload `{other}` validated in main"),
    }
}

/// The untraced half of a traced run, in a process of its own (this
/// binary with `--trace 0`), so its peak memory is not the traced half's.
/// Its end-to-end metrics and counts are read from its result line.
fn run_untraced_process(args: &Args, seconds: f64) -> Outcome {
    let exe = std::env::current_exe().expect("the benchmark's own executable");
    let run = std::process::Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .stdin(std::process::Stdio::null())
        .output()
        .expect("run the untraced half");
    let stdout = String::from_utf8_lossy(&run.stdout);
    let last = stdout.lines().last().unwrap_or("");
    // `"key": value,` for counts and flags, `"name": {"value": v, …` for
    // metrics.
    let field = |key: &str| -> Option<&str> {
        let at = last.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &last[at..];
        let value = rest.get(..rest.find([',', '}'])?)?;
        Some(value.trim_start_matches("{\"value\": "))
    };
    let count = |key: &str| field(key).and_then(|v| v.parse().ok()).unwrap_or(0);
    let mut out = Outcome {
        attempted: count("attempted"),
        failed: count("failed"),
        ..Outcome::default()
    };
    out.check(
        run.status.success() && field("correct") == Some("true"),
        || {
            format!(
                "untraced half failed ({}): {}",
                run.status,
                stdout
                    .lines()
                    .filter(|l| l.starts_with("CHECK FAILED"))
                    .collect::<Vec<_>>()
                    .join("; ")
            )
        },
    );
    for (name, _) in END_TO_END {
        if let Some(v) = field(name).and_then(|v| v.parse().ok()) {
            out.set(name, v);
        }
    }
    out
}

fn emit(metrics: &[(&'static str, &'static str)], out: &Outcome) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit)| {
            let value = out.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.serve_child {
        served::serve_child(args.seed, &args.wal);
        return;
    }
    if !["maintain", "ingest", "query"].contains(&args.workload.as_str()) {
        eprintln!("perfbench: --workload must be maintain, ingest or query");
        std::process::exit(2);
    }
    if let Err(e) = stats::self_test() {
        eprintln!("perfbench: quantile self-test failed: {e}");
        std::process::exit(1);
    }
    let work = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&work).expect("create the benchmark's work directory");
    if args.calibrate {
        served::calibrate(args.seed, args.seconds, &work);
        return;
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads_available={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );

    let origin = Instant::now();
    let (out, metrics): (Outcome, &[(&str, &str)]) = if args.trace {
        let half = args.seconds / 2.0;
        let base = run_untraced_process(&args, half);
        let mut tracer = Tracer::new(true, origin);
        let mut traced = run_workload(&args.workload, args.seed, half, &work, &mut tracer);
        probes::run(&args.workload, args.seed, &work, &mut traced, &mut tracer);
        for (name, _) in END_TO_END {
            let delta = traced.metrics.get(name).copied().unwrap_or(0.0)
                - base.metrics.get(name).copied().unwrap_or(0.0);
            let (overhead, _) = PER_LAYER
                .iter()
                .find(|(n, _)| n.strip_prefix("overhead.") == Some(name))
                .expect("every end-to-end metric has an overhead entry");
            traced.set(overhead, delta);
        }
        traced.set("trace.spans", tracer.len() as f64);
        let path = work.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        tracer.write_jsonl(&path).expect("write the span dump");
        println!("spans: {} written to {}", tracer.len(), path.display());
        println!("span summary (name: count, total ms, self ms):");
        for (name, (count, total, own)) in tracer.summary() {
            println!("  {name}: {count}, {total:.3}, {own:.3}");
        }
        let mut merged = traced;
        merged.attempted += base.attempted;
        merged.failed += base.failed;
        merged.failures.extend(base.failures);
        (merged, &PER_LAYER)
    } else {
        let out = run_workload(
            &args.workload,
            args.seed,
            args.seconds,
            &work,
            &mut Tracer::new(false, origin),
        );
        (out, &END_TO_END)
    };

    for line in &out.notes {
        println!("{line}");
    }
    for (name, unit) in metrics {
        println!(
            "{name} = {} {unit}",
            out.metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    for f in &out.failures {
        println!("CHECK FAILED: {f}");
    }
    println!("{}", emit(metrics, &out));
    if !out.failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units printed here are the ones the
    /// repository's `BENCHMARK.json` declares, in both sets.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        assert_eq!(
            spec.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
