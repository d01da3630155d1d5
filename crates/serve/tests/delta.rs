//! Soundness of the push-subscription delta stream: a subscriber that
//! applies every received [`SnapshotDelta`] to its starting snapshot
//! reproduces the service's published solution at each delivered
//! version, and the stream is gap-free (each delta continues exactly
//! where the previous ended) with one delta per publish.

use fdrms::{FdRms, FdRmsBuilder, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rms_geom::{Point, PointId};
use rms_serve::{ResultSnapshot, RmsService, ServeConfig, SnapshotDelta};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

fn random_points(seed: u64, n: usize, d: usize) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| Point::new_unchecked(i as u64, (0..d).map(|_| rng.gen()).collect()))
        .collect()
}

/// Valid mixed op stream over a live-id tracker.
fn random_ops(seed: u64, initial: &[Point], n: usize, d: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<PointId> = initial.iter().map(Point::id).collect();
    let mut next: PointId = 100_000;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let coords: Vec<f64> = (0..d).map(|_| rng.gen()).collect();
        match rng.gen_range(0..4) {
            2 if !live.is_empty() => {
                let idx = rng.gen_range(0..live.len());
                ops.push(Op::Delete(live.swap_remove(idx)));
            }
            3 if !live.is_empty() => {
                let id = live[rng.gen_range(0..live.len())];
                ops.push(Op::Update(Point::new_unchecked(id, coords)));
            }
            _ => {
                ops.push(Op::Insert(Point::new_unchecked(next, coords)));
                live.push(next);
                next += 1;
            }
        }
    }
    ops
}

fn builder(d: usize) -> FdRmsBuilder {
    FdRms::builder(d).r(4).max_utilities(128).seed(5)
}

fn solution_map(snap: &ResultSnapshot) -> BTreeMap<PointId, Point> {
    snap.result.iter().map(|p| (p.id(), p.clone())).collect()
}

fn ids(solution: &BTreeMap<PointId, Point>) -> Vec<PointId> {
    solution.keys().copied().collect()
}

/// Drives `ops` through `service` (started with `max_batch`) while a
/// subscriber collects deltas and an independent poller records the
/// published solution at every version it observes. Checks, in order:
///
/// 1. the delta chain is gap-free from the subscription's base snapshot,
///    with exactly one delta per publish;
/// 2. at every delivered version the reconstructed solution equals the
///    published solution the poller saw at that version (when the poller
///    observed it — poller and subscriber sample the same serialized
///    publish sequence, so matching versions mean matching states);
/// 3. after quiescing, the reconstruction equals the final published
///    solution exactly.
fn check_delta_stream(service: RmsService, ops: Vec<Op>, max_batch: usize) {
    let total = ops.len() as u64;
    // A publish applies at most `max_batch` ops, so the stream must
    // carry at least this many deltas.
    let min_deltas = ops.len().div_ceil(max_batch);
    let rx = service.watch();
    let handle = service.handle();

    // Writer thread: sustained ingestion while the main thread polls.
    let writer = {
        let handle = service.handle();
        std::thread::spawn(move || {
            for op in ops {
                handle.submit(op).unwrap();
            }
        })
    };

    // Poll the published snapshot during ingestion, recording version →
    // ids.
    let mut observed: HashMap<u64, Vec<PointId>> = HashMap::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let snap = handle.snapshot();
        observed.insert(snap.epoch, snap.result_ids());
        if snap.stats.ops_applied + snap.stats.ops_rejected >= total {
            break;
        }
        assert!(Instant::now() < deadline, "ingestion never settled");
        std::thread::yield_now();
    }
    writer.join().unwrap();
    // One more settled read: the final published state.
    let final_snap = handle.snapshot();
    observed.insert(final_snap.epoch, final_snap.result_ids());
    let final_version = final_snap.epoch;
    let final_ids = final_snap.result_ids();

    // Collect the stream up to the final state, then close it.
    let base_version = rx.base().epoch;
    let mut version = base_version;
    let mut deltas: Vec<SnapshotDelta> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    while version < final_version {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(delta) => {
                version = delta.version;
                deltas.push(delta);
            }
            Err(_) => assert!(
                Instant::now() < deadline,
                "delta stream never reached the final version \
                 (at {version}, expected {final_version})"
            ),
        }
    }
    drop(service); // shutdown closes the stream

    let mut matched = 0usize;
    let mut at = base_version;
    let mut solution = solution_map(rx.base());
    for delta in &deltas {
        assert_eq!(
            delta.from_version, at,
            "delta chain has a gap: delta from {} applied at {at}",
            delta.from_version
        );
        assert!(delta.version > delta.from_version, "versions must advance");
        delta.apply_to(&mut solution);
        at = delta.version;
        if let Some(expected) = observed.get(&at) {
            assert_eq!(
                &ids(&solution),
                expected,
                "reconstruction diverged from the published solution at version {at}"
            );
            matched += 1;
        }
    }
    assert_eq!(at, final_version, "stream ended before the final version");
    assert_eq!(
        ids(&solution),
        final_ids,
        "reconstruction diverged from the final published solution"
    );
    // The final version is always cross-checked (the poller records it
    // after quiescing and the stream is driven to it); intermediate
    // overlap depends on scheduling but is large in practice.
    assert!(
        matched >= 1,
        "no cross-checked versions — the poller and the stream never lined up"
    );
    // One delta per publish, and every publish advances the epoch by one.
    assert_eq!(
        deltas.len() as u64,
        final_version - base_version,
        "one delta per publish"
    );
    assert!(
        deltas.len() >= min_deltas,
        "{} delta(s) for {total} ops at max_batch {max_batch}; expected at least {min_deltas}",
        deltas.len()
    );
}

#[test]
fn single_service_delta_stream_reproduces_published_solutions() {
    let d = 3;
    let initial = random_points(1, 200, d);
    let ops = random_ops(2, &initial, 400, d);
    let max_batch = 16;
    let service = RmsService::start(
        builder(d),
        initial,
        ServeConfig {
            queue_capacity: 32, // backpressure → many small epochs
            max_batch,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    check_delta_stream(service, ops, max_batch);
}

/// The same stream from a WAL-backed service, whose submit path logs each
/// op before acknowledging it and whose applier fsyncs the log after every
/// batch, before it publishes.
#[test]
fn wal_backed_delta_stream_reproduces_published_solutions() {
    let d = 3;
    let initial = random_points(3, 200, d);
    let ops = random_ops(4, &initial, 400, d);
    let max_batch = 16;
    let path = std::env::temp_dir().join(format!("krms-delta-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let service = RmsService::start_with_wal(
        builder(d),
        initial,
        ServeConfig {
            queue_capacity: 32,
            max_batch,
            wal_fsync: true,
            ..ServeConfig::default()
        },
        &path,
    )
    .unwrap();
    check_delta_stream(service, ops, max_batch);
    std::fs::remove_file(&path).unwrap();
}

/// A watcher registered mid-stream starts from the then-current snapshot
/// and still reconstructs exactly; a watcher registered after shutdown
/// gets an immediately-closed stream, not a hang.
#[test]
fn late_and_post_shutdown_watchers() {
    let d = 2;
    let initial = random_points(5, 80, d);
    let ops = random_ops(6, &initial, 120, d);
    let service = RmsService::start(builder(d), initial, ServeConfig::default()).unwrap();
    let handle = service.handle();
    for op in &ops[..60] {
        handle.submit(op.clone()).unwrap();
    }
    // Late subscriber: base is whatever has been published by now.
    let rx = handle.watch();
    let mut solution = solution_map(rx.base());
    for op in &ops[60..] {
        handle.submit(op.clone()).unwrap();
    }
    let fd = service.shutdown();
    for delta in rx.iter() {
        delta.apply_to(&mut solution);
    }
    let expected: Vec<PointId> = fd.result().iter().map(Point::id).collect();
    assert_eq!(ids(&solution), expected);

    // Post-shutdown subscription: closed stream, base still readable.
    let rx = handle.watch();
    assert!(rx.recv().is_err(), "post-shutdown stream must be closed");
    assert!(rx.base().result.len() <= 4);
}
