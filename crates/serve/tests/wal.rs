//! Crash-recovery contract of the WAL-backed service: an unclean kill
//! after acknowledgement loses nothing — the next start replays the log
//! and reaches the state a clean sequential apply would have reached.

use fdrms::{FdRms, FdRmsBuilder, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rms_geom::{Point, PointId};
use rms_serve::wal::Wal;
use rms_serve::{RmsService, ServeConfig, ServeError};
use std::path::PathBuf;

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

fn temp_wal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("krms-serve-wal-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.wal", std::process::id()))
}

fn live_ids(fd: &FdRms) -> Vec<PointId> {
    let mut ids: Vec<PointId> = fd.live_points().iter().map(Point::id).collect();
    ids.sort_unstable();
    ids
}

/// A clean sequential engine fed the same stream, the recovery oracle.
fn sequential(d: usize, initial: &[Point], ops: &[Op]) -> FdRms {
    let mut fd = builder(d).build(initial.to_vec()).unwrap();
    for op in ops {
        fd.apply_batch(vec![op.clone()]).unwrap();
    }
    fd
}

/// Reads the single (unlabeled) sample of `name` from an exposition body.
fn counter(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("series {name} missing:\n{body}"))
        .trim()
        .parse()
        .unwrap()
}

/// The WAL metrics exported through the service registry stay consistent
/// with the replay stats: the writer side counts one append per
/// acknowledged op, and after a crash (plus a torn tail) the restarted
/// service's `rms_wal_recovered_ops_total` equals the `wal_recovered_ops`
/// stat while the dropped bytes show up in
/// `rms_wal_truncated_tail_bytes_total`.
#[test]
fn recovery_metrics_match_replay_stats() {
    let d = 2;
    let path = temp_wal("metrics-recovery");
    let _ = std::fs::remove_file(&path);
    let initial = random_points(31, 60, d);
    let ops = random_ops(32, &initial, 80, d);

    let service =
        RmsService::start_with_wal(builder(d), initial.clone(), ServeConfig::default(), &path)
            .unwrap();
    for op in ops {
        service.submit(op).unwrap();
    }
    let body = service.registry().encode();
    assert_eq!(counter(&body, "rms_wal_appends_total"), 80);
    assert_eq!(counter(&body, "rms_wal_recovered_ops_total"), 0);
    service.crash();

    // Tear the tail: the last record loses its final bytes, exactly as a
    // mid-write power cut would leave the file.
    let raw = std::fs::read(&path).unwrap();
    std::fs::write(&path, &raw[..raw.len() - 5]).unwrap();

    let restarted =
        RmsService::start_with_wal(builder(d), initial, ServeConfig::default(), &path).unwrap();
    let recovered = restarted.snapshot().stats.wal_recovered_ops;
    assert_eq!(recovered, 79, "the torn record is dropped, the rest replay");
    let body = restarted.registry().encode();
    assert_eq!(counter(&body, "rms_wal_recovered_ops_total"), recovered);
    assert!(counter(&body, "rms_wal_truncated_tail_bytes_total") > 0);
    assert_eq!(counter(&body, "rms_wal_appends_total"), 0, "fresh registry");
    restarted.shutdown().check_invariants().unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn crash_after_ack_loses_no_acknowledged_op() {
    let d = 3;
    let path = temp_wal("single-crash");
    let _ = std::fs::remove_file(&path);
    let initial = random_points(1, 150, d);
    let ops = random_ops(2, &initial, 200, d);

    let service =
        RmsService::start_with_wal(builder(d), initial.clone(), ServeConfig::default(), &path)
            .unwrap();
    let handle = service.handle();
    for op in ops.clone() {
        handle.submit(op).unwrap(); // every op below is acknowledged
    }
    // The unclean kill: no drain guarantee, no snapshot, and crucially no
    // log compaction — the in-memory engine state is discarded.
    service.crash();

    // Restart from the same base dataset + log: the replayed engine must
    // match a clean sequential apply of every acknowledged op.
    let restarted =
        RmsService::start_with_wal(builder(d), initial.clone(), ServeConfig::default(), &path)
            .unwrap();
    let snap = restarted.snapshot();
    assert_eq!(snap.stats.wal_recovered_ops, 200, "all acked ops replayed");
    assert_eq!(snap.epoch, 0, "replay happens before the service goes live");
    let fd = restarted.shutdown();
    fd.check_invariants().unwrap();
    let seq = sequential(d, &initial, &ops);
    assert_eq!(live_ids(&fd), live_ids(&seq));
    assert_eq!(fd.len(), seq.len());
    // Same canonical database; the solutions are stable covers of the
    // same system and may legitimately differ (covers are not unique),
    // but both respect the budget.
    assert!(fd.result().len() <= 4 && seq.result().len() <= 4);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn acked_but_unapplied_ops_survive_via_the_log() {
    // The narrow window the WAL exists for: an op acknowledged (and
    // therefore logged) that the applier never got to apply. Simulate it
    // exactly by appending to the log of a crashed service — on disk
    // this is indistinguishable from dying between ack and apply.
    let d = 2;
    let path = temp_wal("ack-no-apply");
    let _ = std::fs::remove_file(&path);
    let initial = random_points(3, 80, d);
    let applied = random_ops(4, &initial, 50, d);

    let service =
        RmsService::start_with_wal(builder(d), initial.clone(), ServeConfig::default(), &path)
            .unwrap();
    for op in applied.clone() {
        service.submit(op).unwrap();
    }
    service.crash();

    // A victim that is certainly still live after the applied stream.
    let victim = live_ids(&sequential(d, &initial, &applied))[0];
    let unapplied = vec![
        Op::Insert(Point::new_unchecked(777_777, vec![0.95, 0.9])),
        Op::Delete(victim),
    ];
    {
        let (mut wal, _) = Wal::open(&path).unwrap();
        for op in &unapplied {
            wal.append(op).unwrap();
        }
    }

    let restarted =
        RmsService::start_with_wal(builder(d), initial.clone(), ServeConfig::default(), &path)
            .unwrap();
    assert_eq!(restarted.snapshot().stats.wal_recovered_ops, 52);
    let fd = restarted.shutdown();
    fd.check_invariants().unwrap();
    assert!(fd.contains(777_777));
    assert!(!fd.contains(victim));
    let mut all = applied;
    all.extend(unapplied);
    let seq = sequential(d, &initial, &all);
    assert_eq!(live_ids(&fd), live_ids(&seq));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn graceful_shutdown_compacts_to_a_checkpoint() {
    let d = 2;
    let path = temp_wal("compaction");
    let _ = std::fs::remove_file(&path);
    let initial = random_points(5, 100, d);
    let ops = random_ops(6, &initial, 120, d);

    let service =
        RmsService::start_with_wal(builder(d), initial, ServeConfig::default(), &path).unwrap();
    for op in ops {
        service.submit(op).unwrap();
    }
    let fd = service.shutdown();
    let expected = live_ids(&fd);
    fd.check_invariants().unwrap();

    // The compacted log holds one checkpoint and no ops; a restart with
    // a *different* (even empty) base dataset recovers the checkpoint
    // state with zero replayed ops.
    let (_, replay) = Wal::open(&path).unwrap();
    assert!(replay.ops.is_empty(), "compaction leaves no op records");
    let checkpoint = replay.checkpoint.expect("compaction writes a checkpoint");
    assert_eq!(checkpoint.len(), expected.len());

    let restarted =
        RmsService::start_with_wal(builder(d), Vec::new(), ServeConfig::default(), &path).unwrap();
    assert_eq!(restarted.snapshot().stats.wal_recovered_ops, 0);
    let fd = restarted.shutdown();
    fd.check_invariants().unwrap();
    assert_eq!(live_ids(&fd), expected);
    std::fs::remove_file(&path).unwrap();
}

/// A crash tears at most the record being appended, the last one. A bad
/// record with an intact one after it is corruption: the start is
/// refused and the log left byte for byte as it was, where truncating at
/// the bad record would destroy every acknowledged op after it. The same
/// flip in the last record is a torn tail, and the other 99 ops recover.
#[test]
fn corrupt_record_before_intact_ones_refuses_the_start() {
    let d = 2;
    let path = temp_wal("corrupt-middle");
    let _ = std::fs::remove_file(&path);
    let initial = random_points(41, 30, d);
    let inserts: Vec<Op> = random_points(42, 100, d)
        .into_iter()
        .map(|p| Op::Insert(Point::new_unchecked(1_000 + p.id(), p.coords().to_vec())))
        .collect();
    let service =
        RmsService::start_with_wal(builder(d), initial.clone(), ServeConfig::default(), &path)
            .unwrap();
    for op in inserts.clone() {
        service.submit(op).unwrap();
    }
    service.crash();
    let logged = std::fs::read(&path).unwrap();
    // An 8-byte header, then one record per insert: tag, length, id,
    // dimension, d coordinates and an 8-byte checksum.
    let record = 1 + 4 + 8 + 4 + 8 * d + 8;
    assert_eq!(logged.len(), 8 + 100 * record);
    let flip_first_coordinate = |index: usize| {
        let start = 8 + index * record;
        let mut raw = logged.clone();
        raw[start + 17] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        (start, raw)
    };

    let (third, corrupt) = flip_first_coordinate(2);
    let err =
        RmsService::start_with_wal(builder(d), initial.clone(), ServeConfig::default(), &path)
            .map(|_| ())
            .unwrap_err();
    assert!(
        matches!(&err, ServeError::Wal(e) if e.kind() == std::io::ErrorKind::InvalidData),
        "{err}"
    );
    assert!(err.to_string().contains(&format!("byte {third}")), "{err}");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        corrupt,
        "a refused start must leave the log as it found it"
    );

    flip_first_coordinate(99);
    let restarted =
        RmsService::start_with_wal(builder(d), initial.clone(), ServeConfig::default(), &path)
            .unwrap();
    assert_eq!(restarted.snapshot().stats.wal_recovered_ops, 99);
    let fd = restarted.shutdown();
    fd.check_invariants().unwrap();
    assert_eq!(
        live_ids(&fd),
        live_ids(&sequential(d, &initial, &inserts[..99]))
    );
    std::fs::remove_file(&path).unwrap();
}

/// The shard groups of earlier builds logged to `<base>.<i>` and wrote a
/// `<base>.meta` sidecar. Opening the bare base path would create a
/// fresh empty log and silently ignore every acknowledged op in the shard
/// logs, so the service refuses a path with a sidecar.
#[test]
fn single_service_refuses_a_shard_groups_logs() {
    let d = 2;
    let base = temp_wal("single-vs-sharded");
    let meta = PathBuf::from(format!("{}.meta", base.display()));
    let _ = std::fs::remove_file(&base);
    std::fs::write(&meta, "shards=2\n").unwrap();
    let initial = random_points(15, 30, d);
    let err = RmsService::start_with_wal(builder(d), initial, ServeConfig::default(), &base)
        .map(|_| ())
        .unwrap_err();
    assert!(err.to_string().contains("sharded group"), "{err}");
    assert!(!base.exists(), "a refused start must not create a log");
    std::fs::remove_file(&meta).unwrap();
}

/// A start that fails after the log is opened (here the builder refuses
/// r < d) leaves the log byte for byte as it found it, so a retry with a
/// valid configuration still recovers every acknowledged op.
#[test]
fn failed_startup_keeps_the_log_for_a_retry() {
    let d = 2;
    let path = temp_wal("failed-start");
    let _ = std::fs::remove_file(&path);
    let initial = random_points(13, 30, d);
    let ops = random_ops(14, &initial, 40, d);
    let service =
        RmsService::start_with_wal(builder(d), initial.clone(), ServeConfig::default(), &path)
            .unwrap();
    for op in ops.clone() {
        service.submit(op).unwrap();
    }
    service.crash();
    let logged = std::fs::read(&path).unwrap();

    assert!(RmsService::start_with_wal(
        FdRms::builder(d).r(1).max_utilities(64),
        initial.clone(),
        ServeConfig::default(),
        &path,
    )
    .is_err());
    assert_eq!(
        std::fs::read(&path).unwrap(),
        logged,
        "a failed start must not touch the log"
    );

    let restarted =
        RmsService::start_with_wal(builder(d), initial.clone(), ServeConfig::default(), &path)
            .unwrap();
    assert_eq!(restarted.snapshot().stats.wal_recovered_ops, 40);
    let fd = restarted.shutdown();
    fd.check_invariants().unwrap();
    assert_eq!(live_ids(&fd), live_ids(&sequential(d, &initial, &ops)));
    std::fs::remove_file(&path).unwrap();
}

/// Recovery does not compact: a restarted service appends its own acked
/// ops after the records it replayed, so a second unclean death loses
/// neither run's ops and the next start replays both.
#[test]
fn a_second_crash_loses_neither_runs_ops() {
    let d = 3;
    let path = temp_wal("double-crash");
    let _ = std::fs::remove_file(&path);
    let initial = random_points(21, 120, d);
    let ops = random_ops(22, &initial, 300, d);
    let (first, second) = ops.split_at(180);

    let service =
        RmsService::start_with_wal(builder(d), initial.clone(), ServeConfig::default(), &path)
            .unwrap();
    for op in first {
        service.submit(op.clone()).unwrap();
    }
    service.crash();

    let restarted =
        RmsService::start_with_wal(builder(d), initial.clone(), ServeConfig::default(), &path)
            .unwrap();
    assert_eq!(restarted.snapshot().stats.wal_recovered_ops, 180);
    for op in second {
        restarted.submit(op.clone()).unwrap();
    }
    restarted.crash();

    let again =
        RmsService::start_with_wal(builder(d), initial.clone(), ServeConfig::default(), &path)
            .unwrap();
    assert_eq!(again.snapshot().stats.wal_recovered_ops, 300);
    let fd = again.shutdown();
    fd.check_invariants().unwrap();
    let seq = sequential(d, &initial, &ops);
    assert_eq!(live_ids(&fd), live_ids(&seq));
    std::fs::remove_file(&path).unwrap();
}

/// Two writers race *conflicting* ops on the same ids: one inserts each
/// contended id, the other deletes it. The live outcome of each race is
/// readable from the stats — if the delete was applied first it was
/// rejected (the id was not live yet) and the id survives; if the insert
/// went first, both ops applied and the id is gone. Log order must equal
/// apply order (each op is appended and enqueued under the one queue
/// lock), so a crash + replay must reproduce the *same* outcome for every
/// contended id — before that fix, the log could record `insert, delete`
/// while the live service applied `delete, insert`, and recovery
/// resurrected ids the live service had settled differently.
#[test]
fn contended_id_recovery_matches_live_outcome() {
    let d = 2;
    let rounds = 12;
    let pairs: u64 = 8;
    for round in 0..rounds {
        let path = temp_wal(&format!("contended-{round}"));
        let _ = std::fs::remove_file(&path);
        let initial = random_points(20 + round, 40, d);
        let service = RmsService::start_with_wal(
            builder(d),
            initial.clone(),
            ServeConfig {
                // A tiny queue forces real interleaving: writers find
                // it full and retry, not just enqueue uncontended.
                queue_capacity: 2,
                max_batch: 4,
                ..ServeConfig::default()
            },
            &path,
        )
        .unwrap();

        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        let inserter = {
            let h = service.handle();
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..pairs {
                    h.submit(Op::Insert(Point::new_unchecked(7_000 + i, vec![0.9, 0.8])))
                        .unwrap();
                }
            })
        };
        let deleter = {
            let h = service.handle();
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..pairs {
                    h.submit(Op::Delete(7_000 + i)).unwrap();
                }
            })
        };
        inserter.join().unwrap();
        deleter.join().unwrap();

        // Quiesce: every acknowledged op accounted for (applied or
        // rejected), then record each race's live outcome and crash.
        let handle = service.handle();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let stats = loop {
            let snap = handle.snapshot();
            if snap.stats.ops_applied + snap.stats.ops_rejected == 2 * pairs {
                break snap.stats;
            }
            assert!(std::time::Instant::now() < deadline, "ops never settled");
            std::thread::yield_now();
        };
        // Rejected ops are exactly the deletes that ran before their
        // insert; each such id must be live (its insert applied after).
        let survivors = stats.ops_rejected;
        service.crash();

        let restarted =
            RmsService::start_with_wal(builder(d), initial, ServeConfig::default(), &path).unwrap();
        let fd = restarted.shutdown();
        fd.check_invariants().unwrap();
        let recovered: u64 = (0..pairs).filter(|i| fd.contains(7_000 + i)).count() as u64;
        assert_eq!(
            recovered, survivors,
            "round {round}: recovery replayed a different serialization than the live \
             service applied ({survivors} contended ids survived live, {recovered} after replay)"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
