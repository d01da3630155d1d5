//! Micro-benchmarks for the kd-tree tuple index (Section III-C): top-k
//! against brute force, inserts, and the `ablation_kd_rebuild`
//! (lazy-deletion threshold) study. The utility index is a blocked scan
//! of all `M` thresholds, so it has no pruning to ablate.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, Rng, SeedableRng};
use rms_data::generators;
use rms_geom::{sample_utilities, Point};
use rms_index::KdTree;

fn db(seed: u64, n: usize, d: usize) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::independent(&mut rng, n, d)
}

fn bench_kdtree_topk(c: &mut Criterion) {
    let mut group = c.benchmark_group("kdtree_topk");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &n in &[10_000usize, 50_000] {
        let points = db(1, n, 6);
        let tree = KdTree::build(6, points.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let us = sample_utilities(&mut rng, 6, 64);
        let mut i = 0;
        group.bench_with_input(BenchmarkId::new("tree", n), &n, |b, _| {
            b.iter(|| {
                let u = &us[i % us.len()];
                i += 1;
                black_box(tree.top_k(u, 10))
            });
        });
        let mut j = 0;
        group.bench_with_input(BenchmarkId::new("bruteforce", n), &n, |b, _| {
            b.iter(|| {
                let u = &us[j % us.len()];
                j += 1;
                black_box(rms_geom::top_k(&points, u, 10))
            });
        });
    }
    group.finish();
}

fn bench_kdtree_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("kdtree_updates");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let points = db(3, 20_000, 6);
    group.bench_function("insert", |b| {
        let tree = KdTree::build(6, points.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut next = 1_000_000u64;
        b.iter_batched(
            || tree.clone(),
            |mut t| {
                let p = Point::new_unchecked(next, (0..6).map(|_| rng.gen()).collect());
                next += 1;
                t.insert(p).unwrap();
                black_box(t.len())
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// Ablation: k-d tree lazy-deletion rebuild threshold sweep. Smaller
/// fractions rebuild more eagerly (tighter boxes, slower updates); larger
/// fractions leave stale boxes (faster deletes, slower queries).
fn bench_ablation_kd_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_kd_rebuild");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &frac in &[0.1f64, 0.5, 2.0] {
        group.bench_with_input(BenchmarkId::from_parameter(frac), &frac, |b, &frac| {
            let points = db(5, 10_000, 5);
            let mut rng = StdRng::seed_from_u64(6);
            let us = sample_utilities(&mut rng, 5, 16);
            b.iter_batched(
                || KdTree::build_with_rebuild_fraction(5, points.clone(), frac).unwrap(),
                |mut t| {
                    // Delete a third, query throughout.
                    for i in 0..3_000u64 {
                        t.delete(i).unwrap();
                        if i % 100 == 0 {
                            black_box(t.top_k(&us[(i / 100) as usize % us.len()], 10));
                        }
                    }
                    black_box(t.len())
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_kdtree_topk,
    bench_kdtree_updates,
    bench_ablation_kd_rebuild
);
criterion_main!(benches);
