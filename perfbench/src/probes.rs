//! Layer probes of the traced run. They run after the measured windows, on
//! the workload's own data and operation stream, and call each layer
//! through its public API: kd/cone trees (`rms-index`) and the dynamic set
//! cover (`rms-setcover`) for every workload; for the served workloads
//! also an engine replay (`fdrms`), WAL appends and syncs, snapshot diffs
//! and request parsing (`rms-serve`), and histogram recording
//! (`rms-metrics`). `maintain` has no server, so those stay 0 there.

use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{maintain, served, Dataset, Outcome, ENGINE_SEED};
use fdrms::Op;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rms_geom::{Point, PointId, RankedPoint, Utility};
use rms_index::{ConeTree, KdTree};
use rms_serve::protocol::{encode_request, parse_request, Request};
use rms_serve::wal::Wal;
use rms_serve::{ResultSnapshot, ServiceStats};
use rms_setcover::{DynamicSetCover, ElemId, LevelBase};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Operations of the workload's stream the probes replay.
const PROBE_OPS: usize = 2_000;
/// Evenly spaced checkpoints for the index and set-cover probes.
const CHECKPOINTS: usize = 10;

pub fn run(workload: &str, seed: u64, work: &Path, out: &mut Outcome, tr: &mut Tracer) {
    let served = workload != "maintain";
    let ds = if served {
        served::dataset(seed, PROBE_OPS)
    } else {
        maintain::dataset(seed, 0).0
    };
    let prefix = &ds.ops[..ds.ops.len().min(PROBE_OPS)];
    // `maintain` measured the engine in its own window and has no server,
    // so its serve-tier layers stay 0; the served workloads reach the
    // engine only through the server, so it is replayed here.
    let m = if served {
        let (m, results) = core(&ds, prefix, out, tr);
        snapshot(results, m, out, tr);
        wal(&ds, prefix, work, out, tr);
        protocol(&ds, prefix, out, tr);
        metrics(out, tr);
        m
    } else {
        ds.builder()
            .build(ds.initial.clone())
            .expect("valid engine configuration")
            .m()
    };
    index_and_cover(&ds, prefix, m, out, tr);
}

fn timed<T>(
    tr: &mut Tracer,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let t0 = Instant::now();
    let v = f();
    let t1 = Instant::now();
    tr.record(name, t0, t1, None, request);
    (v, t1 - t0)
}

/// Engine replay, per op and batched, through `maintain`'s replay helpers.
/// Returns the engine's universe size `m` after build and the result after
/// each op (the consecutive published results of the snapshot probe).
fn core(
    ds: &Dataset,
    prefix: &[Op],
    out: &mut Outcome,
    tr: &mut Tracer,
) -> (usize, Vec<Vec<Point>>) {
    let (mut fd, build) = maintain::build(ds, tr);
    let m = fd.m();
    let mut op_us = Samples::default();
    let mut results = vec![fd.result()];
    let counts = maintain::replay_per_op(&mut fd, prefix, tr, |_, fd, took, ok| {
        assert!(ok, "the stream's ops are valid");
        op_us.push(took.as_secs_f64() * 1e6);
        results.push(fd.result());
    });
    let ops = prefix.len().max(1) as f64;
    out.set("core.build_s", build.as_secs_f64());
    out.set("core.op_us_mean", op_us.mean());
    out.set("core.op_us_p50", op_us.median());
    out.set("core.affected_per_op", counts.affected as f64 / ops);
    out.set(
        "core.requery_ratio",
        counts.requeried as f64 / counts.affected.max(1) as f64,
    );
    out.set(
        "core.membership_changes_per_op",
        counts.membership_changes as f64 / ops,
    );

    let (mut fd, _) = maintain::build(ds, tr);
    let mut batch_ms = Samples::default();
    maintain::replay_batched(&mut fd, prefix, ds.batch, tr, |_, _, _, took, ok| {
        assert!(ok, "the stream's ops are valid");
        batch_ms.push(took.as_secs_f64() * 1e3);
    });
    out.set("core.apply_batch_ms_mean", batch_ms.mean());
    (m, results)
}

/// `ResultSnapshot::delta_from` over consecutive per-op results.
fn snapshot(results: Vec<Vec<Point>>, m: usize, out: &mut Outcome, tr: &mut Tracer) {
    let snaps: Vec<ResultSnapshot> = results
        .into_iter()
        .enumerate()
        .map(|(epoch, result)| ResultSnapshot {
            epoch: epoch as u64,
            len: result.len(),
            result,
            m,
            mrr: None,
            stats: ServiceStats::default(),
        })
        .collect();
    let passes = 20;
    let (_, took) = timed(tr, "probe.snapshot.delta_from", 0, || {
        for _ in 0..passes {
            for w in snaps.windows(2) {
                black_box(w[1].delta_from(&w[0]));
            }
        }
    });
    let calls = (passes * snaps.len().saturating_sub(1)).max(1);
    out.set(
        "serve.snapshot.delta_from_us",
        took.as_secs_f64() * 1e6 / calls as f64,
    );
}

/// Memberships `tuple → utilities whose ε-band holds it`, for every live
/// tuple (tuples in no band get an empty set, as in the engine).
fn memberships(
    live: &[Point],
    answers: &[(Vec<RankedPoint>, Option<f64>)],
) -> BTreeMap<PointId, BTreeSet<ElemId>> {
    let mut out: BTreeMap<PointId, BTreeSet<ElemId>> =
        live.iter().map(|p| (p.id(), BTreeSet::new())).collect();
    for (u, (band, _)) in answers.iter().enumerate() {
        for rp in band {
            out.entry(rp.id).or_default().insert(u as ElemId);
        }
    }
    out
}

fn median_ms(tr: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut s = Samples::default();
    for i in 0..reps {
        let (_, took) = timed(tr, name, i as u64, &mut f);
        s.push(took.as_secs_f64() * 1e3);
    }
    s.median()
}

fn index_and_cover(ds: &Dataset, prefix: &[Op], m: usize, out: &mut Outcome, tr: &mut Tracer) {
    // The engine's own utility sample: same seed, same construction.
    let utilities: Vec<Utility> =
        rms_geom::with_basis_prefix(&mut StdRng::seed_from_u64(ENGINE_SEED), ds.d, ds.max_m);
    let kd_ms = median_ms(tr, "probe.index.kd_build", 3, || {
        black_box(KdTree::build(ds.d, ds.initial.clone()).expect("valid tuples"));
    });
    let cone_ms = median_ms(tr, "probe.index.cone_build", 3, || {
        black_box(ConeTree::build(utilities.clone()));
    });
    out.set("index.kd_build_ms", kd_ms);
    out.set("index.cone_build_ms", cone_ms);

    // Thresholds and memberships from the initial ε-bands.
    let kd = KdTree::build(ds.d, ds.initial.clone()).expect("valid tuples");
    let answers = kd.top_k_approx_many(utilities.iter(), ds.k, ds.eps);
    let mut cone = ConeTree::build(utilities.clone());
    cone.set_thresholds(
        answers
            .iter()
            .enumerate()
            .map(|(i, (_, omega))| (i, omega.map_or(0.0, |w| (1.0 - ds.eps) * w))),
    );
    let mut members = memberships(&ds.initial, &answers);
    let mut cover = DynamicSetCover::new(LevelBase::TWO);
    for (id, elems) in &members {
        cover
            .insert_set(*id, elems.iter().copied())
            .expect("fresh set ids");
    }
    cover.reset_universe(0..m as ElemId);
    let greedy_ms = median_ms(tr, "probe.setcover.greedy", 3, || {
        cover.greedy().expect("every utility has a top-1 tuple");
    });
    out.set("setcover.greedy_ms", greedy_ms);

    // Cone probe: each batch's inserted points against the thresholds.
    let mut probe_s = 0.0;
    let mut probed = 0usize;
    let mut hits = 0usize;
    for (b, chunk) in prefix.chunks(ds.batch).enumerate() {
        let points: Vec<&Point> = chunk
            .iter()
            .filter_map(|op| match op {
                Op::Insert(p) | Op::Update(p) => Some(p),
                Op::Delete(_) => None,
            })
            .collect();
        if points.is_empty() {
            continue;
        }
        let (found, took) = timed(tr, "probe.index.cone_probe", b as u64, || {
            cone.affected_hits_many(points.iter().copied())
        });
        probe_s += took.as_secs_f64();
        probed += points.len();
        hits += found.iter().map(|(_, h)| h.len()).sum::<usize>();
    }
    out.set("index.cone_probe_us", probe_s * 1e6 / probed.max(1) as f64);
    out.set(
        "index.cone_hits_per_point",
        hits as f64 / probed.max(1) as f64,
    );

    // Checkpoints: kd top-k over the live set, and one set-cover
    // transaction per checkpoint interval carrying the membership diff.
    let mut live: BTreeMap<PointId, Point> =
        ds.initial.iter().map(|p| (p.id(), p.clone())).collect();
    let mut approx_us = Samples::default();
    let mut exact_us = Samples::default();
    let mut commit_ms = Samples::default();
    let mut moves = Samples::default();
    let mut applied = 0usize;
    for c in 1..=CHECKPOINTS {
        let upto = prefix.len() * c / CHECKPOINTS;
        for op in &prefix[applied..upto] {
            match op {
                Op::Insert(p) | Op::Update(p) => {
                    live.insert(p.id(), p.clone());
                }
                Op::Delete(id) => {
                    live.remove(id);
                }
            }
        }
        applied = upto;
        let points: Vec<Point> = live.values().cloned().collect();
        let kd = KdTree::build(ds.d, points.clone()).expect("valid tuples");
        let (_, took) = timed(tr, "probe.index.kd_topk_approx", c as u64, || {
            black_box(kd.top_k_approx_many(utilities[..m].iter(), ds.k, ds.eps))
        });
        approx_us.push(took.as_secs_f64() * 1e6 / m as f64);
        let (_, took) = timed(tr, "probe.index.kd_topk", c as u64, || {
            black_box(kd.top_k_many(utilities[..m].iter(), ds.k))
        });
        exact_us.push(took.as_secs_f64() * 1e6 / m as f64);

        let next = memberships(
            &points,
            &kd.top_k_approx_many(utilities.iter(), ds.k, ds.eps),
        );
        let (n_moves, took) = timed(tr, "probe.setcover.commit", c as u64, || {
            cover.begin_batch();
            // Additions first, so no element is ever left uncovered.
            for (id, elems) in &next {
                match members.get(id) {
                    None => cover
                        .insert_set(*id, elems.iter().copied())
                        .expect("fresh set id"),
                    Some(old) => {
                        for &u in elems.difference(old) {
                            cover.add_to_set(u, *id).expect("live set");
                        }
                    }
                }
            }
            for (id, old) in &members {
                match next.get(id) {
                    None => {
                        cover.remove_set(*id).expect("live set");
                    }
                    Some(elems) => {
                        for &u in old.difference(elems) {
                            cover.remove_from_set(u, *id).expect("live set");
                        }
                    }
                }
            }
            cover.commit()
        });
        commit_ms.push(took.as_secs_f64() * 1e3);
        moves.push(n_moves as f64);
        members = next;
    }
    out.set("index.kd_topk_approx_us", approx_us.median());
    out.set("index.kd_topk_us", exact_us.median());
    out.set("setcover.commit_ms", commit_ms.mean());
    out.set("setcover.stabilize_moves_per_batch", moves.mean());
}

fn wal(ds: &Dataset, prefix: &[Op], work: &Path, out: &mut Outcome, tr: &mut Tracer) {
    let path = work.join(format!("probe-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (mut log, _) = Wal::open(&path).expect("open the probe log");
    let frames: Vec<Vec<u8>> = prefix.iter().map(Wal::frame_op).collect();
    let mut append_us = Samples::default();
    let mut sync_ms = Samples::default();
    for (i, frame) in frames.iter().enumerate() {
        let (res, took) = timed(tr, "probe.wal.append_frame", i as u64, || {
            log.append_frame(frame)
        });
        res.expect("append to the probe log");
        append_us.push(took.as_secs_f64() * 1e6);
        if (i + 1) % ds.batch == 0 {
            let (res, took) = timed(tr, "probe.wal.sync", i as u64, || log.sync());
            res.expect("sync the probe log");
            sync_ms.push(took.as_secs_f64() * 1e3);
        }
    }
    drop(log);
    let _ = std::fs::remove_file(&path);
    out.set("serve.wal.append_frame_us", append_us.mean());
    out.set("serve.wal.sync_ms", sync_ms.median());
}

fn protocol(ds: &Dataset, prefix: &[Op], out: &mut Outcome, tr: &mut Tracer) {
    let lines: Vec<String> = prefix
        .iter()
        .map(|op| encode_request(&Request::Submit(op.clone())))
        .chain(std::iter::repeat_n("QUERY".to_string(), prefix.len()))
        .collect();
    let passes = 20;
    let (_, took) = timed(tr, "probe.protocol.parse", 0, || {
        for _ in 0..passes {
            for line in &lines {
                black_box(parse_request(black_box(line), ds.d).expect("valid request line"));
            }
        }
    });
    out.set(
        "serve.protocol.parse_ns",
        took.as_secs_f64() * 1e9 / (passes * lines.len()).max(1) as f64,
    );
}

fn metrics(out: &mut Outcome, tr: &mut Tracer) {
    let registry = rms_metrics::Registry::new();
    let h =
        registry.register_histogram("rms_bench_probe_seconds", "Benchmark probe histogram.", &[]);
    let n: u64 = 2_000_000;
    let (_, took) = timed(tr, "probe.metrics.record", 0, || {
        for i in 0..n {
            h.record(Duration::from_nanos(black_box(
                i.wrapping_mul(2_654_435_761) % 1_000_000 + 1,
            )));
        }
    });
    out.set("metrics.record_ns", took.as_secs_f64() * 1e9 / n as f64);
}
