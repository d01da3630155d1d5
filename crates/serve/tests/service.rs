//! Concurrency contract of [`RmsService`]: monotone snapshot epochs for
//! every reader, and a drained service reaching the same canonical state
//! as a sequential `apply_batch` run over the identical op stream.

use fdrms::{FdRms, FdRmsBuilder, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rms_geom::{Point, PointId};
use rms_serve::{RmsService, ServeConfig, SubmitError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

fn random_points(seed: u64, n: usize, d: usize) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| Point::new_unchecked(i as u64, (0..d).map(|_| rng.gen()).collect()))
        .collect()
}

/// Valid mixed op stream over a live-id tracker (inserts of fresh ids,
/// deletes/updates of live ids) — valid for sequential application and
/// therefore for any chunking.
fn random_ops(seed: u64, initial: &[Point], n: usize, d: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<PointId> = initial.iter().map(Point::id).collect();
    let mut next: PointId = 100_000;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let coords: Vec<f64> = (0..d).map(|_| rng.gen()).collect();
        match rng.gen_range(0..4) {
            0 | 1 => {
                ops.push(Op::Insert(Point::new_unchecked(next, coords)));
                live.push(next);
                next += 1;
            }
            2 if !live.is_empty() => {
                let idx = rng.gen_range(0..live.len());
                ops.push(Op::Delete(live.swap_remove(idx)));
            }
            _ if !live.is_empty() => {
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

#[test]
fn readers_observe_monotone_epochs_and_final_state_matches_sequential() {
    let d = 3;
    let initial = random_points(1, 200, d);
    let ops = random_ops(2, &initial, 400, d);

    let service = RmsService::start(
        builder(d),
        initial.clone(),
        ServeConfig {
            queue_capacity: 32, // small queue: the writer hits backpressure
            max_batch: 64,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // Reader threads hammer `snapshot()` during ingestion; every reader
    // must see a strictly increasing epoch whenever the snapshot changes
    // (never a stale epoch after a fresh one).
    let stop = Arc::new(AtomicBool::new(false));
    // All readers take their first snapshot before the writer submits
    // anything (epoch still 0), so each must witness real progress.
    let ready = Arc::new(Barrier::new(4));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let handle = service.handle();
            let stop = Arc::clone(&stop);
            let ready = Arc::clone(&ready);
            std::thread::spawn(move || {
                let mut last = handle.snapshot().epoch;
                let mut distinct = 1u64;
                ready.wait();
                while !stop.load(Ordering::Relaxed) {
                    let snap = handle.snapshot();
                    assert!(
                        snap.epoch >= last,
                        "epoch went backwards: {} after {last}",
                        snap.epoch
                    );
                    if snap.epoch > last {
                        distinct += 1;
                        assert!(snap.result.len() <= 4);
                        assert_eq!(snap.result_ids().len(), snap.result.len());
                    }
                    last = snap.epoch;
                }
                // One guaranteed read after ingestion finished: the stop
                // flag is raised only after the final snapshot is
                // published, so every reader must see the drained epoch.
                let snap = handle.snapshot();
                assert!(snap.epoch >= last, "final epoch went backwards");
                if snap.epoch > last {
                    distinct += 1;
                }
                distinct
            })
        })
        .collect();

    ready.wait();
    let handle = service.handle();
    for op in ops.clone() {
        handle.submit(op).unwrap();
    }
    let fd = service.shutdown();
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        let distinct = r.join().unwrap();
        assert!(distinct >= 2, "reader saw no epoch progress");
    }

    // The final snapshot (still readable through outstanding handles)
    // reflects the drained state, and late submissions fail cleanly.
    let snap = handle.snapshot();
    assert_eq!(snap.stats.ops_applied, 400);
    assert_eq!(snap.stats.ops_rejected, 0);
    assert_eq!(snap.len, fd.len());
    assert!(snap.epoch >= 1);
    assert_eq!(handle.queue_depth(), 0, "the drain left nothing queued");
    let orphan = Op::Delete(0);
    assert!(matches!(
        handle.submit(orphan.clone()),
        Err(SubmitError::Disconnected(op)) if op == orphan
    ));

    // Canonical equivalence: a sequential engine fed the same stream
    // through `apply_batch` ends at the same database, and both states
    // certify against brute force.
    let mut seq = builder(d).build(initial).unwrap();
    for chunk in ops.chunks(50) {
        seq.apply_batch(chunk.to_vec()).unwrap();
    }
    assert_eq!(fd.len(), seq.len());
    let ids = |f: &FdRms| {
        let mut v: Vec<PointId> = f.live_points().iter().map(Point::id).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(ids(&fd), ids(&seq));
    fd.check_invariants().unwrap();
    seq.check_invariants().unwrap();
    assert_eq!(fd.result().len(), seq.result().len());
}

#[test]
fn invalid_ops_cost_only_themselves() {
    let d = 2;
    let initial = random_points(7, 60, d);
    let service = RmsService::start(builder(d), initial, ServeConfig::default()).unwrap();
    let handle = service.handle();

    // A burst whose middle op is invalid (duplicate insert). The applier
    // coalesces them into one batch, the engine rejects it atomically,
    // and the per-op replay salvages the valid ops.
    handle
        .submit(Op::Insert(Point::new_unchecked(500, vec![0.9, 0.8])))
        .unwrap();
    handle
        .submit(Op::Insert(Point::new_unchecked(0, vec![0.1, 0.2])))
        .unwrap(); // id 0 is live → rejected
    handle.submit(Op::Delete(1)).unwrap();
    let fd = service.shutdown();

    assert!(fd.contains(500));
    assert!(!fd.contains(1));
    assert_eq!(fd.len(), 60); // 60 + 1 insert − 1 delete, duplicate dropped
    fd.check_invariants().unwrap();
    let snap = handle.snapshot();
    assert_eq!(snap.stats.ops_rejected, 1);
    assert_eq!(snap.stats.ops_applied, 2);
}

#[test]
fn try_submit_reports_backpressure() {
    let d = 2;
    let initial = random_points(9, 40, d);
    let service = RmsService::start(
        builder(d),
        initial,
        ServeConfig {
            queue_capacity: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = service.handle();
    // With a one-slot queue, eventually a try_submit reports Full; the
    // op comes back to the caller intact, and blocking submits of the
    // same op then succeed.
    let mut bounced: Option<Op> = None;
    for i in 0..1_000 {
        let op = Op::Insert(Point::new_unchecked(10_000 + i, vec![0.3, 0.4]));
        match handle.try_submit(op) {
            Ok(()) => {}
            Err(SubmitError::Full(op)) => {
                bounced = Some(op);
                break;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    if let Some(op) = bounced {
        handle.submit(op).unwrap();
    }
    let fd = service.shutdown();
    fd.check_invariants().unwrap();
    assert_eq!(handle.snapshot().stats.ops_rejected, 0);
}

#[test]
fn adaptive_coalescing_shows_in_stats() {
    let d = 2;
    let initial = random_points(11, 80, d);
    let ops = random_ops(12, &initial, 300, d);
    let service = RmsService::start(
        builder(d),
        initial,
        ServeConfig {
            queue_capacity: 256,
            max_batch: 128,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = service.handle();
    for op in ops {
        handle.submit(op).unwrap();
    }
    let fd = service.shutdown();
    fd.check_invariants().unwrap();
    let snap = handle.snapshot();
    assert_eq!(snap.stats.ops_applied, 300);
    // The writer outpaces the applier at some point, so at least one
    // coalesced batch holds more than one op — and none exceeds the cap.
    assert!(snap.stats.max_coalesced > 1);
    assert!(snap.stats.max_coalesced <= 128);
    assert!(snap.stats.batches >= 1);
    assert!(snap.stats.total_apply_ms > 0.0);
}

#[test]
fn mrr_stats_publish_when_enabled() {
    let d = 2;
    let initial = random_points(13, 120, d);
    let ops = random_ops(14, &initial, 80, d);
    let service = RmsService::start(
        builder(d),
        initial,
        ServeConfig {
            mrr_directions: 500,
            mrr_every: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = service.handle();
    for op in ops {
        handle.submit(op).unwrap();
    }
    let fd = service.shutdown();
    let snap = handle.snapshot();
    let mrr = snap.mrr.expect("estimation enabled");
    assert!((0.0..=1.0).contains(&mrr), "mrr {mrr}");
    fd.check_invariants().unwrap();
}

/// Four writers race `submit` against the end of a one-slot queue. Each
/// inserts fresh ids until it is refused and reports what it was told:
/// the ids that got `Ok`, and every refused op, which must come back as
/// `Disconnected` carrying the op intact. The main thread ends the
/// service once the writers have acked `acked_before_end` ops between
/// them, while they are still submitting.
fn race_writers_against_the_end(
    service: RmsService,
    acked_before_end: usize,
    end: impl FnOnce(RmsService),
) -> (Vec<PointId>, Vec<PointId>) {
    let writers = 4;
    let acked_total = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let threads: Vec<_> = (0..writers)
        .map(|w| {
            let handle = service.handle();
            let acked_total = Arc::clone(&acked_total);
            std::thread::spawn(move || {
                let (mut acked, mut refused) = (Vec::new(), Vec::new());
                for i in 0.. {
                    let id = 1_000_000 + w * 100_000 + i;
                    let op = Op::Insert(Point::new_unchecked(id, vec![0.5, 0.5]));
                    match handle.submit(op.clone()) {
                        Ok(()) => {
                            acked.push(id);
                            acked_total.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(SubmitError::Disconnected(back)) => {
                            assert_eq!(back, op, "a refused op comes back intact");
                            refused.push(id);
                            // Refusal is final: the next attempt is refused
                            // too, before it reaches the queue.
                            let next = Op::Delete(id);
                            assert!(matches!(
                                handle.submit(next.clone()),
                                Err(SubmitError::Disconnected(back)) if back == next
                            ));
                            break;
                        }
                        Err(e) => panic!("submit never reports {e}"),
                    }
                }
                (acked, refused)
            })
        })
        .collect();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while acked_total.load(Ordering::Relaxed) < acked_before_end {
        assert!(std::time::Instant::now() < deadline, "writers stalled");
        std::thread::yield_now();
    }
    end(service);
    let (mut acked, mut refused) = (Vec::new(), Vec::new());
    for t in threads {
        let (a, r) = t.join().unwrap();
        acked.extend(a);
        refused.extend(r);
    }
    assert_eq!(
        refused.len(),
        writers as usize,
        "every writer was refused once"
    );
    (acked, refused)
}

/// Backpressure across shutdown: with a one-slot queue every writer is
/// waiting out a full queue when `shutdown()` begins. Every op that got
/// `Ok` is live in the returned engine, and no refused op is.
#[test]
fn submit_under_backpressure_across_shutdown_keeps_every_ack() {
    let d = 2;
    let initial = random_points(41, 40, d);
    let service = RmsService::start(
        builder(d),
        initial,
        ServeConfig {
            queue_capacity: 1,
            max_batch: 4,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = service.handle();
    let engine = std::sync::Mutex::new(None);
    let (acked, refused) = race_writers_against_the_end(service, 200, |service| {
        *engine.lock().unwrap() = Some(service.shutdown());
    });
    let fd = engine.into_inner().unwrap().unwrap();
    fd.check_invariants().unwrap();
    for id in &acked {
        assert!(fd.contains(*id), "acknowledged id {id} was dropped");
    }
    for id in &refused {
        assert!(!fd.contains(*id), "refused id {id} was applied");
    }
    assert_eq!(fd.len(), 40 + acked.len());
    let stats = handle.snapshot().stats;
    assert_eq!(stats.ops_applied, acked.len() as u64);
    assert_eq!(stats.ops_rejected, 0);
}

/// The WAL variant: the service is killed with `crash()` while the
/// writers wait out backpressure, and a restart on the same log recovers
/// every op that got `Ok` and none that was refused.
#[test]
fn submit_under_backpressure_across_a_crash_recovers_every_ack() {
    let d = 2;
    let dir = std::env::temp_dir().join("krms-serve-wal-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("submit-crash-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let initial = random_points(43, 40, d);
    let cfg = ServeConfig {
        queue_capacity: 1,
        max_batch: 4,
        ..ServeConfig::default()
    };
    let service = RmsService::start_with_wal(builder(d), initial.clone(), cfg, &path).unwrap();
    let (acked, refused) = race_writers_against_the_end(service, 200, RmsService::crash);

    let restarted = RmsService::start_with_wal(builder(d), initial, cfg, &path).unwrap();
    assert_eq!(
        restarted.snapshot().stats.wal_recovered_ops,
        acked.len() as u64,
        "the log holds exactly the acknowledged ops"
    );
    let fd = restarted.shutdown();
    fd.check_invariants().unwrap();
    for id in &acked {
        assert!(fd.contains(*id), "acknowledged id {id} was lost");
    }
    for id in &refused {
        assert!(!fd.contains(*id), "refused id {id} was recovered");
    }
    assert_eq!(fd.len(), 40 + acked.len());
    std::fs::remove_file(&path).unwrap();
}
