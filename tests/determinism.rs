//! Two engines fed identical input in one process must give identical
//! answers after every call: the maintained cover may depend only on the
//! input, never on per-instance hash seeds.

use krms::data::{anticorrelated, mixed_workload, MixedConfig, Workload};
use krms::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload() -> Workload {
    let mut rng = StdRng::seed_from_u64(2021);
    let points = anticorrelated(&mut rng, 600, 6);
    let cfg = MixedConfig {
        ops: 300,
        ..MixedConfig::default()
    };
    mixed_workload(&mut rng, points, cfg)
}

fn engine(wl: &Workload) -> FdRms {
    FdRms::builder(6)
        .k(3)
        .r(50)
        .epsilon(0.1)
        .max_utilities(256)
        .seed(7)
        .build(wl.initial.clone())
        .unwrap()
}

fn assert_same(a: &FdRms, b: &FdRms, at: &str) {
    assert_eq!(a.m(), b.m(), "m diverged after {at}");
    assert_eq!(a.result_ids(), b.result_ids(), "result diverged after {at}");
}

#[test]
fn per_op_engines_agree_after_every_call() {
    let wl = workload();
    let (mut a, mut b) = (engine(&wl), engine(&wl));
    assert_same(&a, &b, "build");
    for (i, op) in engine_ops(&wl.operations).into_iter().enumerate() {
        a.apply_batch(vec![op.clone()]).unwrap();
        b.apply_batch(vec![op]).unwrap();
        assert_same(&a, &b, &format!("op {i}"));
    }
    a.check_invariants().unwrap();
}

#[test]
fn batched_engines_agree_after_every_batch() {
    let wl = workload();
    let (mut a, mut b) = (engine(&wl), engine(&wl));
    for (i, batch) in wl.batches(25).enumerate() {
        a.apply_batch(engine_ops(batch)).unwrap();
        b.apply_batch(engine_ops(batch)).unwrap();
        assert_same(&a, &b, &format!("batch {i}"));
    }
    a.check_invariants().unwrap();
}
