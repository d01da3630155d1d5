//! `maintain`: the in-process engine over a fixed mixed
//! insert/delete/update stream on anticorrelated data, applied from the
//! same initial state once per operation (the paper's discipline) and once
//! through `apply_batch` at a fixed batch size. No server.
//!
//! A run derives [`PARTS`] independent datasets from its seed, so one
//! run's figures average over several streams instead of resting on the
//! few expensive operations of one. The window is filled with
//! repetitions, cycling through the parts: each builds a fresh engine per
//! discipline and replays the part's whole stream, yielding one set-up
//! time and one latency per operation and per batch. Each operation (and
//! batch) keeps its fastest time over the repetitions, which keeps the data
//! fixed while discarding stalls a co-tenant caused; a cost the engine pays
//! on every replay of that operation stays. A part's throughput is its ops
//! over the sum of those times, its latencies their quantiles, and the run
//! reports the mean over parts. Quality is read at the paper's ten
//! checkpoints in the first repetition of part 0.
//!
//! [`build`], [`replay_per_op`] and [`replay_batched`] are the one copy of
//! the engine replay; the traced run's probes of the served workloads use
//! them too.

use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{Dataset, Outcome, ENGINE_THREADS, MRR_DIRECTIONS, MRR_SEED};
use fdrms::{BatchReport, FdRms, Op};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rms_data::{mixed_workload, MixedConfig, Operation};
use rms_eval::RegretEstimator;
use rms_geom::{Point, PointId};
use std::time::{Duration, Instant};

/// Independent datasets per run.
const PARTS: u64 = 4;
/// Tuples generated per part; half seed the initial database, the rest
/// feed inserts.
const N_TOTAL: usize = 6_000;
/// Operations per part's stream (a multiple of `10 × BATCH`, so every
/// checkpoint falls on a batch boundary).
const OPS: usize = 3_000;
const BATCH: usize = 100;
/// Quality ceiling: a checkpoint-mean mrr above this fails the run.
const MRR_CEILING: f64 = 0.5;

/// Part `part` of the workload for `seed`, with its checkpoint op indices.
pub fn dataset(seed: u64, part: u64) -> (Dataset, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(PARTS).wrapping_add(part));
    let points = rms_data::anticorrelated(&mut rng, N_TOTAL, 6);
    let cfg = MixedConfig {
        ops: OPS,
        ..MixedConfig::default()
    };
    let wl = mixed_workload(&mut rng, points, cfg);
    let ops = wl
        .operations
        .iter()
        .map(|op| match op {
            Operation::Insert(p) => Op::Insert(p.clone()),
            Operation::Delete(id) => Op::Delete(*id),
            Operation::Update(p) => Op::Update(p.clone()),
        })
        .collect();
    let ds = Dataset {
        d: 6,
        k: 3,
        r: 50,
        eps: 0.1,
        max_m: 2_048,
        initial: wl.initial,
        ops,
        batch: BATCH,
    };
    (ds, wl.checkpoints)
}

/// (result, live set) at one checkpoint.
type Checkpoint = (Vec<Point>, Vec<Point>);

/// Engine counts over a replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub affected: u64,
    pub requeried: u64,
    pub membership_changes: u64,
}

impl Counts {
    fn add(&mut self, other: Counts) {
        self.affected += other.affected;
        self.requeried += other.requeried;
        self.membership_changes += other.membership_changes;
    }

    fn of_batch(report: &BatchReport) -> Counts {
        Counts {
            affected: report.affected_utilities as u64,
            requeried: report.requeried_utilities as u64,
            membership_changes: report.membership_additions + report.membership_removals,
        }
    }
}

/// Builds a fresh engine on `ds`'s initial set; returns it and the build
/// time.
pub fn build(ds: &Dataset, tr: &mut Tracer) -> (FdRms, Duration) {
    let initial = ds.initial.clone();
    let t0 = Instant::now();
    let fd = ds
        .builder()
        .build(initial)
        .expect("valid engine configuration");
    let t1 = Instant::now();
    tr.record("core.build", t0, t1, None, 0);
    (fd, t1 - t0)
}

/// Applies `ops` one call each (`insert`/`delete`/`update`), timing every
/// call; `each(i, engine, took, ok)` runs after op `i`. Returns the
/// engine's `UpdateStats` counts over the stream.
pub fn replay_per_op(
    fd: &mut FdRms,
    ops: &[Op],
    tr: &mut Tracer,
    mut each: impl FnMut(usize, &FdRms, Duration, bool),
) -> Counts {
    let before = fd.stats();
    for (i, op) in ops.iter().enumerate() {
        let op = op.clone();
        let t0 = Instant::now();
        let res = match op {
            Op::Insert(tuple) => fd.insert(tuple),
            Op::Delete(id) => fd.delete(id),
            Op::Update(tuple) => fd.update(tuple),
        };
        let t1 = Instant::now();
        tr.record("core.op", t0, t1, None, i as u64);
        each(i, fd, t1 - t0, res.is_ok());
    }
    let after = fd.stats();
    Counts {
        affected: after.affected_utilities - before.affected_utilities,
        requeried: after.topk_requeries - before.topk_requeries,
        membership_changes: (after.admissions + after.evictions)
            - (before.admissions + before.evictions),
    }
}

/// Applies `ops` through `apply_batch`, `batch` ops per call, timing every
/// call; `each(b, ops, engine, took, ok)` runs after batch `b` of `ops`
/// operations. Returns the summed `BatchReport` counts.
pub fn replay_batched(
    fd: &mut FdRms,
    ops: &[Op],
    batch: usize,
    tr: &mut Tracer,
    mut each: impl FnMut(usize, usize, &FdRms, Duration, bool),
) -> Counts {
    let mut counts = Counts::default();
    for (b, chunk) in ops.chunks(batch).enumerate() {
        let chunk = chunk.to_vec();
        let n = chunk.len();
        let t0 = Instant::now();
        let res = fd.apply_batch(chunk);
        let t1 = Instant::now();
        tr.record("core.apply_batch", t0, t1, None, b as u64);
        if let Ok(report) = &res {
            counts.add(Counts::of_batch(report));
        }
        each(b, n, fd, t1 - t0, res.is_ok());
    }
    counts
}

/// One part's data and everything measured on it. Memory is fixed: one
/// best time per operation and per batch, whatever the repetition count.
struct Part {
    ds: Dataset,
    checkpoints: Vec<usize>,
    expected: Vec<PointId>,
    reps: usize,
    setup: Samples,
    /// Each operation's fastest per-op call so far, µs.
    op_us: Vec<f64>,
    /// Each batch's fastest `apply_batch` call so far, ms.
    batch_ms: Vec<f64>,
}

impl Part {
    fn best_op_us(&self) -> Samples {
        Samples::from_values(&self.op_us)
    }

    fn best_batch_ms(&self) -> Samples {
        Samples::from_values(&self.batch_ms)
    }
}

fn final_checks(out: &mut Outcome, what: &str, fd: &FdRms, expected: &[PointId]) {
    if let Err(e) = fd.check_invariants() {
        out.check(false, || format!("maintain: {what} engine invariants: {e}"));
    }
    let live: Vec<PointId> = fd.live_points().iter().map(Point::id).collect();
    out.check(live == expected, || {
        format!(
            "maintain: {what} final live set differs from the stream's ({} vs {} ids)",
            live.len(),
            expected.len()
        )
    });
    out.check(fd.result().len() <= fd.r(), || {
        format!("maintain: {what} result exceeds r")
    });
}

/// One repetition on one part: both disciplines from a fresh engine. On
/// the first repetition of a part the final engines are checked; with
/// `quality`, checkpoint results are kept for the mrr figure.
fn repetition(
    p: &mut Part,
    out: &mut Outcome,
    tr: &mut Tracer,
    quality: Option<(&mut Vec<Checkpoint>, &mut Vec<Checkpoint>)>,
) -> (Counts, Counts) {
    let first = p.reps == 0;
    let (mut seq_points, mut batch_points) = match quality {
        Some((s, b)) => (Some(s), Some(b)),
        None => (None, None),
    };
    let Part {
        ds,
        checkpoints,
        expected,
        setup,
        op_us,
        batch_ms,
        ..
    } = p;
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Per-op discipline.
    let (mut fd, took) = build(ds, tr);
    setup.push(took.as_secs_f64());
    let seq_counts = replay_per_op(&mut fd, &ds.ops, tr, |i, fd, took, ok| {
        op_us[i] = op_us[i].min(took.as_secs_f64() * 1e6);
        attempted += 1;
        failed += u64::from(!ok);
        if let Some(points) = seq_points.as_mut() {
            if checkpoints.contains(&i) {
                points.push((fd.result(), fd.live_points()));
            }
        }
    });
    if first {
        final_checks(out, "per-op", &fd, expected);
    }

    // Batched discipline, same stream, same initial state.
    let (mut fd, took) = build(ds, tr);
    setup.push(took.as_secs_f64());
    let mut applied = 0usize;
    let batch_counts = replay_batched(&mut fd, &ds.ops, ds.batch, tr, |b, n, fd, took, ok| {
        batch_ms[b] = batch_ms[b].min(took.as_secs_f64() * 1e3);
        attempted += n as u64;
        if !ok {
            failed += n as u64;
        }
        applied += n;
        if let Some(points) = batch_points.as_mut() {
            if checkpoints.iter().any(|&c| c < applied && c + n >= applied) {
                points.push((fd.result(), fd.live_points()));
            }
        }
    });
    if first {
        final_checks(out, "batched", &fd, expected);
    }
    out.attempted += attempted;
    out.failed += failed;
    p.reps += 1;
    (seq_counts, batch_counts)
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let mut parts: Vec<Part> = (0..PARTS)
        .map(|j| {
            let (ds, checkpoints) = dataset(seed, j);
            let expected = ds.live_ids_after(ds.ops.len());
            let op_us = vec![f64::INFINITY; ds.ops.len()];
            let batch_ms = vec![f64::INFINITY; ds.ops.len().div_ceil(ds.batch)];
            Part {
                ds,
                checkpoints,
                expected,
                reps: 0,
                setup: Samples::default(),
                op_us,
                batch_ms,
            }
        })
        .collect();
    let mut out = Outcome::default();
    let mut seq_points: Vec<Checkpoint> = Vec::new();
    let mut batch_points: Vec<Checkpoint> = Vec::new();
    let (mut seq_counts, mut batch_counts) = (Counts::default(), Counts::default());
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut rep = 0usize;
    let mut last_rep = Duration::ZERO;
    while rep < parts.len() || start.elapsed() + last_rep <= window {
        let rep_start = Instant::now();
        let part = rep % parts.len();
        let quality = (rep == 0).then_some((&mut seq_points, &mut batch_points));
        let (s, b) = repetition(&mut parts[part], &mut out, tr, quality);
        if rep < parts.len() {
            seq_counts.add(s);
            batch_counts.add(b);
        }
        rep += 1;
        last_rep = rep_start.elapsed();
    }

    let ds0 = &parts[0].ds;
    let config = format!(
        "maintain: {PARTS} parts of n0={} ops={} d={} k={} r={} eps={} M={} batch={} threads={ENGINE_THREADS}; repetitions={rep}",
        ds0.initial.len(),
        ds0.ops.len(),
        ds0.d,
        ds0.k,
        ds0.r,
        ds0.eps,
        ds0.max_m,
        ds0.batch,
    );
    let ops = (ds0.ops.len() * parts.len()) as f64;
    let est = RegretEstimator::new(ds0.d, MRR_DIRECTIONS, MRR_SEED);
    let k = ds0.k;
    let mean_mrr = |points: &[Checkpoint]| {
        points
            .iter()
            .map(|(q, live)| est.mrr(live, q, k))
            .sum::<f64>()
            / points.len().max(1) as f64
    };
    let mrr_seq = mean_mrr(&seq_points);
    let mrr_batch = mean_mrr(&batch_points);
    out.check(seq_points.len() == 10 && batch_points.len() == 10, || {
        format!(
            "maintain: expected 10 checkpoints per discipline, got {} and {}",
            seq_points.len(),
            batch_points.len()
        )
    });
    out.check(mrr_seq <= MRR_CEILING && mrr_batch <= MRR_CEILING, || {
        format!("maintain: checkpoint-mean mrr {mrr_seq:.4} (per-op) / {mrr_batch:.4} (batched) above the {MRR_CEILING} ceiling")
    });

    // Each figure: from a part's best times, averaged over parts.
    let mean_over_parts = |parts: &mut [Part], f: &dyn Fn(&mut Part) -> f64| {
        parts.iter_mut().map(f).sum::<f64>() / parts.len() as f64
    };
    let per_part_ops = ops / parts.len() as f64;
    out.set(
        "setup_s",
        mean_over_parts(&mut parts, &|p| p.setup.median()),
    );
    out.set(
        "ops_per_s",
        mean_over_parts(&mut parts, &|p| per_part_ops / (p.best_op_us().sum() / 1e6)),
    );
    out.set(
        "latency_p50_us",
        mean_over_parts(&mut parts, &|p| p.best_op_us().quantile(0.5)),
    );
    out.set(
        "latency_p90_us",
        mean_over_parts(&mut parts, &|p| p.best_op_us().quantile(0.9)),
    );
    out.set(
        "visible_p50_ms",
        mean_over_parts(&mut parts, &|p| p.best_batch_ms().quantile(0.5)),
    );
    out.set(
        "visible_p90_ms",
        mean_over_parts(&mut parts, &|p| p.best_batch_ms().quantile(0.9)),
    );
    out.set(
        "core.batch_ops_per_s",
        mean_over_parts(&mut parts, &|p| {
            per_part_ops / (p.best_batch_ms().sum() / 1e3)
        }),
    );
    out.set("quality.mrr", (mrr_seq + mrr_batch) / 2.0);

    let mut setup = Samples::default();
    let mut all_op_us = Samples::default();
    let mut all_batch_ms = Samples::default();
    for p in &parts {
        setup.extend(&p.setup);
        all_op_us.extend(&p.best_op_us());
        all_batch_ms.extend(&p.best_batch_ms());
    }
    out.set("core.build_s", setup.median());
    out.set("core.op_us_mean", all_op_us.mean());
    out.set("core.op_us_p50", all_op_us.median());
    out.set("core.apply_batch_ms_mean", all_batch_ms.mean());
    out.set("core.affected_per_op", seq_counts.affected as f64 / ops);
    out.set(
        "core.requery_ratio",
        seq_counts.requeried as f64 / seq_counts.affected.max(1) as f64,
    );
    out.set(
        "core.membership_changes_per_op",
        seq_counts.membership_changes as f64 / ops,
    );

    out.note(config);
    out.note(format!(
        "mrr_seq={mrr_seq:.5} mrr_batch={mrr_batch:.5} (part 0, mean over 10 checkpoints, {MRR_DIRECTIONS} fixed directions)"
    ));
    out.note(setup.describe("setup (engine build), all parts", "s"));
    for (j, p) in parts.iter().enumerate() {
        out.note(p.best_op_us().describe(
            &format!("part {j} per-op best latency over {} repetitions", p.reps),
            "us",
        ));
        out.note(
            p.best_batch_ms()
                .describe(&format!("part {j} apply_batch best latency"), "ms"),
        );
    }
    out.note(format!(
        "batched counts (first repetition of each part): affected/op={:.3} requery_ratio={:.3} membership_changes/op={:.3}",
        batch_counts.affected as f64 / ops,
        batch_counts.requeried as f64 / batch_counts.affected.max(1) as f64,
        batch_counts.membership_changes as f64 / ops
    ));
    out
}
