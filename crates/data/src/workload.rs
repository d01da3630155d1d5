//! Dynamic workloads: sequences of tuple insertions and deletions.
//!
//! Implements the experimental protocol of Section IV-A: "First, we
//! randomly picked 50% of tuples as the initial dataset P0; Second, we
//! inserted the remaining 50% of tuples one by one …; Third, we randomly
//! deleted 50% of tuples one by one …. The k-RMS results were recorded 10
//! times when 10%, 20%, …, 100% of the operations were performed."

use rand::seq::SliceRandom;
use rand::Rng;
use rms_geom::{Point, PointId};

/// A single database update `Δ_t` (Section II-B). The paper models an
/// update as delete-then-insert; the explicit [`Operation::Update`]
/// variant lets batch consumers (the FD-RMS engine) exploit the fact that
/// the tuple id is retained.
#[derive(Debug, Clone, PartialEq)]
pub enum Operation {
    /// `Δ_t = 〈p, +〉`: insert tuple `p`.
    Insert(Point),
    /// `Δ_t = 〈p, −〉`: delete the tuple with this id.
    Delete(PointId),
    /// Replace the attributes of the live tuple with this id.
    Update(Point),
}

impl Operation {
    /// `true` for insertions.
    pub fn is_insert(&self) -> bool {
        matches!(self, Operation::Insert(_))
    }

    /// `true` for deletions.
    pub fn is_delete(&self) -> bool {
        matches!(self, Operation::Delete(_))
    }

    /// `true` for attribute updates.
    pub fn is_update(&self) -> bool {
        matches!(self, Operation::Update(_))
    }
}

/// Tuning knobs for workload generation.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Fraction of tuples in the initial database `P0` (paper: 0.5).
    pub initial_fraction: f64,
    /// Fraction of tuples deleted in the deletion phase (paper: 0.5).
    pub delete_fraction: f64,
    /// Number of evenly spaced checkpoints at which results are recorded
    /// (paper: 10).
    pub checkpoints: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            initial_fraction: 0.5,
            delete_fraction: 0.5,
            checkpoints: 10,
        }
    }
}

/// A fully materialised dynamic workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The initial database `P0`.
    pub initial: Vec<Point>,
    /// The operation sequence `Δ` applied after `P0`.
    pub operations: Vec<Operation>,
    /// Indices into `operations` *after which* a result should be recorded
    /// (the last one equals `operations.len() − 1`).
    pub checkpoints: Vec<usize>,
}

impl Workload {
    /// Number of insert operations in the sequence.
    pub fn num_inserts(&self) -> usize {
        self.operations.iter().filter(|o| o.is_insert()).count()
    }

    /// Number of delete operations in the sequence.
    pub fn num_deletes(&self) -> usize {
        self.operations.iter().filter(|o| o.is_delete()).count()
    }

    /// Number of update operations in the sequence.
    pub fn num_updates(&self) -> usize {
        self.operations.iter().filter(|o| o.is_update()).count()
    }

    /// The operation sequence chunked into batches of (at most)
    /// `batch_size` operations, in stream order — the shape the FD-RMS
    /// batch engine ingests. The final batch may be shorter.
    pub fn batches(&self, batch_size: usize) -> impl Iterator<Item = &[Operation]> {
        assert!(batch_size > 0, "batch size must be positive");
        self.operations.chunks(batch_size)
    }

    /// Keeps only the first `ops` operations and re-spaces the
    /// checkpoints (as many as before) over them; a workload of at most
    /// `ops` operations is left as it is. Below as many operations as
    /// checkpoints, checkpoint indices repeat.
    pub fn truncate(&mut self, ops: usize) {
        if self.operations.len() > ops {
            self.operations.truncate(ops);
            self.checkpoints = checkpoints(ops, self.checkpoints.len());
        }
    }

    /// Replays the workload against a plain vector, returning the database
    /// state after every operation was applied. Used by tests as ground
    /// truth for dynamic data structures.
    pub fn final_state(&self) -> Vec<Point> {
        let mut db: Vec<Point> = self.initial.clone();
        for op in &self.operations {
            match op {
                Operation::Insert(p) => db.push(p.clone()),
                Operation::Delete(id) => {
                    let pos = db
                        .iter()
                        .position(|p| p.id() == *id)
                        .expect("workload deletes only live tuples");
                    db.swap_remove(pos);
                }
                Operation::Update(p) => {
                    let pos = db
                        .iter()
                        .position(|q| q.id() == p.id())
                        .expect("workload updates only live tuples");
                    db[pos] = p.clone();
                }
            }
        }
        db
    }
}

/// `count` evenly spaced checkpoints over `total` operations, the last
/// one `total − 1`; none if either is 0.
fn checkpoints(total: usize, count: usize) -> Vec<usize> {
    if total == 0 {
        return Vec::new();
    }
    (1..=count)
        .map(|i| (total * i / count).max(1) - 1)
        .collect()
}

/// Generates the paper's insert-then-delete workload over `points`.
///
/// The tuple order is shuffled with `rng`; deletions are drawn uniformly
/// from all tuples present at deletion time (both initial and inserted
/// ones), as in the paper's "randomly deleted 50% of tuples".
pub fn paper_workload<R: Rng + ?Sized>(
    rng: &mut R,
    points: Vec<Point>,
    config: WorkloadConfig,
) -> Workload {
    assert!((0.0..=1.0).contains(&config.initial_fraction));
    assert!((0.0..=1.0).contains(&config.delete_fraction));
    let mut points = points;
    points.shuffle(rng);
    let n = points.len();
    let n_init = ((n as f64) * config.initial_fraction).round() as usize;
    let initial: Vec<Point> = points[..n_init].to_vec();
    let inserts: Vec<Point> = points[n_init..].to_vec();

    let mut operations: Vec<Operation> = inserts.into_iter().map(Operation::Insert).collect();

    // Deletions target a random delete_fraction of the full tuple set.
    let n_del = ((n as f64) * config.delete_fraction).round() as usize;
    let mut all_ids: Vec<PointId> = points.iter().map(|p| p.id()).collect();
    all_ids.shuffle(rng);
    operations.extend(all_ids.into_iter().take(n_del).map(Operation::Delete));

    let checkpoints = checkpoints(operations.len(), config.checkpoints);
    Workload {
        initial,
        operations,
        checkpoints,
    }
}

/// Tuning knobs for [`mixed_workload`] generation.
#[derive(Debug, Clone, Copy)]
pub struct MixedConfig {
    /// Fraction of tuples in the initial database `P0`.
    pub initial_fraction: f64,
    /// Number of operations to generate.
    pub ops: usize,
    /// Relative weight of insertions.
    pub insert_weight: u32,
    /// Relative weight of deletions.
    pub delete_weight: u32,
    /// Relative weight of attribute updates.
    pub update_weight: u32,
    /// Number of evenly spaced result checkpoints.
    pub checkpoints: usize,
}

impl Default for MixedConfig {
    fn default() -> Self {
        Self {
            initial_fraction: 0.5,
            ops: 0, // 0 ⇒ one operation per non-initial tuple
            insert_weight: 2,
            delete_weight: 1,
            update_weight: 1,
            checkpoints: 10,
        }
    }
}

/// Generates an interleaved insert/delete/update stream — the batch-mode
/// workload the FD-RMS engine ingests (chunk it with
/// [`Workload::batches`]).
///
/// A random `initial_fraction` of `points` seeds `P0`; the rest form the
/// insertion pool, drawn in shuffled order. Deletions target a uniformly
/// random live tuple. Updates perturb a uniformly random live tuple's
/// attributes by at most ±5% per coordinate (clamped to `[0, 1]`),
/// modelling drifting measurements while keeping the distribution shape.
/// Operations that cannot apply (empty pool or empty database) fall back
/// to another kind, so exactly `ops` operations are produced whenever any
/// kind remains applicable.
pub fn mixed_workload<R: Rng + ?Sized>(
    rng: &mut R,
    points: Vec<Point>,
    config: MixedConfig,
) -> Workload {
    assert!((0.0..=1.0).contains(&config.initial_fraction));
    let total_weight = config.insert_weight + config.delete_weight + config.update_weight;
    assert!(total_weight > 0, "at least one operation kind must be on");
    let mut points = points;
    points.shuffle(rng);
    let n = points.len();
    let n_init = ((n as f64) * config.initial_fraction).round() as usize;
    let initial: Vec<Point> = points[..n_init].to_vec();
    // Pool popped back-to-front keeps the shuffled draw order.
    let mut pool: Vec<Point> = points[n_init..].iter().rev().cloned().collect();
    let mut live: Vec<Point> = initial.clone();

    let target_ops = if config.ops == 0 {
        n - n_init
    } else {
        config.ops
    };
    let mut operations: Vec<Operation> = Vec::with_capacity(target_ops);
    while operations.len() < target_ops {
        let roll = rng.gen_range(0..total_weight);
        let want_insert = roll < config.insert_weight;
        let want_delete = !want_insert && roll < config.insert_weight + config.delete_weight;
        if (want_insert || live.is_empty()) && !pool.is_empty() {
            let p = pool.pop().expect("checked nonempty");
            live.push(p.clone());
            operations.push(Operation::Insert(p));
        } else if live.is_empty() {
            break; // nothing left to delete, update, or insert
        } else if want_delete && !want_insert {
            let idx = rng.gen_range(0..live.len());
            operations.push(Operation::Delete(live.swap_remove(idx).id()));
        } else {
            let idx = rng.gen_range(0..live.len());
            let old = &live[idx];
            let coords: Vec<f64> = old
                .coords()
                .iter()
                .map(|&c| (c + rng.gen_range(-0.05..=0.05)).clamp(0.0, 1.0))
                .collect();
            let p = Point::new_unchecked(old.id(), coords);
            live[idx] = p.clone();
            operations.push(Operation::Update(p));
        }
    }

    let total = operations.len();
    let checkpoints = if total == 0 || config.checkpoints == 0 {
        Vec::new()
    } else {
        (1..=config.checkpoints)
            .map(|i| (total * i / config.checkpoints).max(1) - 1)
            .collect()
    };
    Workload {
        initial,
        operations,
        checkpoints,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rms_geom::Point;

    fn points(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new_unchecked(i as u64, vec![i as f64 / n as f64, 0.5]))
            .collect()
    }

    #[test]
    fn paper_split_is_50_50() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = paper_workload(&mut rng, points(1000), WorkloadConfig::default());
        assert_eq!(w.initial.len(), 500);
        assert_eq!(w.num_inserts(), 500);
        assert_eq!(w.num_deletes(), 500);
        assert_eq!(w.checkpoints.len(), 10);
        assert_eq!(*w.checkpoints.last().unwrap(), w.operations.len() - 1);
    }

    #[test]
    fn deletes_only_live_tuples_in_order() {
        let mut rng = StdRng::seed_from_u64(17);
        let w = paper_workload(&mut rng, points(200), WorkloadConfig::default());
        // Replaying must never panic (the expect() in final_state asserts
        // deletions always hit live tuples: inserts all precede deletes).
        let fin = w.final_state();
        assert_eq!(fin.len(), 100); // 200 − 50% deleted
    }

    #[test]
    fn inserts_precede_deletes() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = paper_workload(&mut rng, points(100), WorkloadConfig::default());
        let first_delete = w.operations.iter().position(|o| !o.is_insert()).unwrap();
        assert!(w.operations[..first_delete].iter().all(|o| o.is_insert()));
        assert!(w.operations[first_delete..].iter().all(|o| !o.is_insert()));
    }

    #[test]
    fn checkpoints_are_monotone() {
        let mut rng = StdRng::seed_from_u64(11);
        let w = paper_workload(&mut rng, points(333), WorkloadConfig::default());
        for pair in w.checkpoints.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
    }

    #[test]
    fn custom_config_fractions() {
        let mut rng = StdRng::seed_from_u64(23);
        let cfg = WorkloadConfig {
            initial_fraction: 0.8,
            delete_fraction: 0.1,
            checkpoints: 4,
        };
        let w = paper_workload(&mut rng, points(100), cfg);
        assert_eq!(w.initial.len(), 80);
        assert_eq!(w.num_inserts(), 20);
        assert_eq!(w.num_deletes(), 10);
        assert_eq!(w.checkpoints.len(), 4);
    }

    #[test]
    fn empty_input_yields_empty_workload() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = paper_workload(&mut rng, Vec::new(), WorkloadConfig::default());
        assert!(w.initial.is_empty());
        assert!(w.operations.is_empty());
        assert!(w.checkpoints.is_empty());
    }

    #[test]
    fn truncate_respaces_the_checkpoints() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut w = paper_workload(&mut rng, points(100), WorkloadConfig::default());
        let full = w.clone();
        w.truncate(full.operations.len());
        assert_eq!(w.checkpoints, full.checkpoints);
        w.truncate(40);
        assert_eq!(w.operations, full.operations[..40]);
        assert_eq!(w.checkpoints, [3, 7, 11, 15, 19, 23, 27, 31, 35, 39]);
        w.truncate(5);
        assert_eq!(w.checkpoints, [0, 0, 0, 1, 1, 2, 2, 3, 3, 4]);
    }

    #[test]
    fn batches_chunk_in_stream_order() {
        let mut rng = StdRng::seed_from_u64(31);
        let w = paper_workload(&mut rng, points(100), WorkloadConfig::default());
        let rejoined: Vec<Operation> = w.batches(7).flatten().cloned().collect();
        assert_eq!(rejoined, w.operations);
        let sizes: Vec<usize> = w.batches(7).map(<[Operation]>::len).collect();
        assert!(sizes[..sizes.len() - 1].iter().all(|&s| s == 7));
        assert_eq!(w.batches(1_000_000).count(), 1);
    }

    #[test]
    fn mixed_workload_interleaves_all_kinds() {
        let mut rng = StdRng::seed_from_u64(37);
        let cfg = MixedConfig {
            ops: 400,
            ..MixedConfig::default()
        };
        let w = mixed_workload(&mut rng, points(300), cfg);
        assert_eq!(w.operations.len(), 400);
        assert!(w.num_inserts() > 0);
        assert!(w.num_deletes() > 0);
        assert!(w.num_updates() > 0);
        assert_eq!(
            w.num_inserts() + w.num_deletes() + w.num_updates(),
            w.operations.len()
        );
        // Replay must hit only live tuples (final_state panics otherwise)
        // and updated coordinates stay in the unit box.
        let fin = w.final_state();
        assert!(!fin.is_empty());
        for op in &w.operations {
            if let Operation::Update(p) = op {
                assert!(p.coords().iter().all(|c| (0.0..=1.0).contains(c)));
            }
        }
        assert_eq!(w.checkpoints.len(), 10);
    }

    #[test]
    fn mixed_workload_defaults_to_one_op_per_spare_tuple() {
        let mut rng = StdRng::seed_from_u64(41);
        let w = mixed_workload(&mut rng, points(200), MixedConfig::default());
        assert_eq!(w.initial.len(), 100);
        assert_eq!(w.operations.len(), 100);
    }

    #[test]
    fn mixed_workload_is_seed_deterministic() {
        let cfg = MixedConfig {
            ops: 120,
            ..MixedConfig::default()
        };
        let w1 = mixed_workload(&mut StdRng::seed_from_u64(43), points(80), cfg);
        let w2 = mixed_workload(&mut StdRng::seed_from_u64(43), points(80), cfg);
        assert_eq!(w1.initial, w2.initial);
        assert_eq!(w1.operations, w2.operations);
    }

    #[test]
    fn workload_is_seed_deterministic() {
        let w1 = paper_workload(
            &mut StdRng::seed_from_u64(9),
            points(50),
            WorkloadConfig::default(),
        );
        let w2 = paper_workload(
            &mut StdRng::seed_from_u64(9),
            points(50),
            WorkloadConfig::default(),
        );
        assert_eq!(w1.initial, w2.initial);
        assert_eq!(w1.operations, w2.operations);
    }
}
