//! Cross-crate property tests: the theoretical guarantees of the paper,
//! checked on randomised inputs.

use krms::prelude::*;
use proptest::prelude::*;

fn arb_db(d: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(prop::collection::vec(0.02f64..=1.0, d), n).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, c)| Point::new(i as u64, c).unwrap())
            .collect()
    })
}

/// Raw operation intents: `(kind, pick, coords)` resolved against the
/// live-id set when the stream is materialised (so deletes and updates
/// always target live tuples).
fn arb_op_intents(
    d: usize,
    n: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<(u8, usize, Vec<f64>)>> {
    prop::collection::vec(
        (
            0u8..4,
            0usize..1_000,
            prop::collection::vec(0.02f64..=1.0, d),
        ),
        n,
    )
}

/// Materialises intents into a concrete op stream over the given initial
/// database: kind 0–1 insert a fresh tuple, 2 deletes a live tuple, 3
/// updates a live tuple (falling back to insert when nothing is live).
fn materialise_ops(db: &[Point], intents: &[(u8, usize, Vec<f64>)]) -> Vec<Op> {
    let mut live: Vec<PointId> = db.iter().map(Point::id).collect();
    let mut next: PointId = 100_000;
    let mut ops = Vec::with_capacity(intents.len());
    for (kind, pick, coords) in intents {
        match kind {
            2 if !live.is_empty() => {
                let idx = pick % live.len();
                ops.push(Op::Delete(live.swap_remove(idx)));
            }
            3 if !live.is_empty() => {
                let id = live[pick % live.len()];
                ops.push(Op::Update(Point::new(id, coords.clone()).unwrap()));
            }
            _ => {
                ops.push(Op::Insert(Point::new(next, coords.clone()).unwrap()));
                live.push(next);
                next += 1;
            }
        }
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// |Q| ≤ r and Q ⊆ P always hold after construction.
    #[test]
    fn result_size_and_membership(db in arb_db(3, 5..80)) {
        let fd = FdRms::builder(3)
            .r(4)
            .max_utilities(64)
            .build(db.clone())
            .unwrap();
        let q = fd.result();
        prop_assert!(q.len() <= 4);
        for p in &q {
            prop_assert!(db.iter().any(|x| x.id() == p.id()));
        }
    }

    /// Basis coverage (the key step of Theorem 2's proof): the first d
    /// sampled utilities are the standard basis and are always in the
    /// universe (m ≥ r ≥ d), so for every dimension i the result must
    /// contain a tuple whose i-th coordinate is at least (1 − ε) times
    /// the k-th largest i-th coordinate in the database.
    #[test]
    fn basis_directions_are_covered(db in arb_db(3, 5..60)) {
        let eps = 0.01;
        let fd = FdRms::builder(3)
            .r(4)
            .epsilon(eps)
            .max_utilities(64)
            .build(db.clone())
            .unwrap();
        let q = fd.result();
        prop_assume!(!q.is_empty());
        for i in 0..3 {
            let mut coords: Vec<f64> = db.iter().map(|p| p.coord(i)).collect();
            coords.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let omega_k = coords[0]; // k = 1
            let best_q = q.iter().map(|p| p.coord(i)).fold(0.0f64, f64::max);
            prop_assert!(
                best_q >= (1.0 - eps) * omega_k - 1e-9,
                "dim {i}: best {best_q} < (1-eps)*{omega_k}"
            );
        }
    }

    /// Insert-then-delete of the same tuple is a no-op for the database
    /// and keeps all invariants.
    #[test]
    fn insert_delete_roundtrip(db in arb_db(2, 3..40), x in 0.02f64..1.0, y in 0.02f64..1.0) {
        let mut fd = FdRms::builder(2)
            .r(2)
            .max_utilities(48)
            .build(db.clone())
            .unwrap();
        let p = Point::new(50_000, vec![x, y]).unwrap();
        fd.insert(p).unwrap();
        fd.delete(50_000).unwrap();
        prop_assert_eq!(fd.len(), db.len());
        fd.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// The Monte-Carlo mrr estimate of the FD-RMS result is bounded by the
    /// estimate of any singleton subset (adding tuples to Q helps).
    #[test]
    fn result_better_than_singletons(db in arb_db(3, 6..50)) {
        let fd = FdRms::builder(3)
            .r(4)
            .max_utilities(64)
            .build(db.clone())
            .unwrap();
        let q = fd.result();
        prop_assume!(!q.is_empty());
        let est = RegretEstimator::new(3, 500, 17);
        let full = est.mrr(&db, &q, 1);
        let single = est.mrr(&db, &q[..1], 1);
        prop_assert!(full <= single + 1e-9);
    }

    /// Static skyline of the generated data upper-bounds the FD-RMS result
    /// quality: the skyline has zero 1-regret, the result is within its ε
    /// envelope.
    #[test]
    fn skyline_zero_regret(db in arb_db(3, 3..50)) {
        let est = RegretEstimator::new(3, 400, 23);
        let sky = skyline(&db);
        prop_assert!(est.mrr(&db, &sky, 1) < 1e-9);
    }

    /// Batch-vs-sequential equivalence: for random op streams,
    /// `apply_batch(ops)` and a loop of one-op calls reach the same
    /// canonical maintenance state — identical databases, and identical
    /// per-utility top-k / τ / `Φ` membership systems, which is exactly
    /// what `check_invariants()` certifies against brute-force
    /// recomputation on both sides.
    ///
    /// The two *solutions* (which stable cover of that canonical set
    /// system you hold) may legitimately differ between the batch sizes:
    /// stable covers are not unique, and the calls take different
    /// stabilisation/UPDATE-M trajectories — both end stable with the
    /// Theorem-1 `O(log m)` guarantee and within the size budget, which
    /// is the equivalence the algorithm promises.
    #[test]
    fn batch_matches_sequential_per_op_loop(
        db in arb_db(3, 4..40),
        intents in arb_op_intents(3, 10..45),
    ) {
        let build = || {
            FdRms::builder(3)
                .r(4)
                .max_utilities(64)
                .seed(17)
                .build(db.clone())
                .unwrap()
        };
        let ops = materialise_ops(&db, &intents);

        // One-op calls, in order (the paper's Algorithm-3 discipline).
        let mut seq = build();
        for op in ops.clone() {
            match op {
                Op::Insert(p) => seq.insert(p).unwrap(),
                Op::Delete(id) => seq.delete(id).unwrap(),
                Op::Update(p) => seq.update(p).unwrap(),
            }
        }
        // One batch.
        let mut bat = build();
        bat.apply_batch(ops)
            .map_err(|e| TestCaseError::fail(format!("batch failed: {e}")))?;

        // Canonical state identity (top-k, τ, memberships vs brute force).
        seq.check_invariants().map_err(TestCaseError::fail)?;
        bat.check_invariants().map_err(TestCaseError::fail)?;
        // Identical databases.
        prop_assert_eq!(seq.len(), bat.len());
        for q in seq.result() {
            prop_assert!(bat.contains(q.id()));
        }
        for q in bat.result() {
            prop_assert!(seq.contains(q.id()));
        }
        // Both disciplines respect the budget.
        prop_assert!(seq.result().len() <= 4);
        prop_assert!(bat.result().len() <= 4);
    }
}
