//! Property-based tests: the stable solution survives arbitrary operation
//! sequences, per call or batched, and stays within the Theorem-1
//! approximation bound; greedy picks exactly what a reference greedy picks.

use proptest::prelude::*;
use rms_setcover::{DynamicSetCover, ElemId, LevelBase, SetId};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
enum Op {
    AddMember(ElemId, usize),
    RemoveMember(ElemId, usize),
    ToggleElement(ElemId),
    ToggleSet(usize, Vec<ElemId>),
}

/// Sets per case: ops name a set by its index into a pool of ids drawn
/// from the whole `u64` range.
const SETS: usize = 14;
const ELEMS: u32 = 28;

/// Element ids with growing gaps, so the element table grows as larger
/// ids first appear.
fn elem(i: u32) -> ElemId {
    i * i + 3 * i
}

/// The seed set, which contains every element so early inserts succeed.
const FULL: SetId = 999;

/// One case: a pool of set ids, the op sequence, and whether the ops run
/// inside one `begin_batch`/`commit` transaction.
fn arb_case(len: usize) -> impl Strategy<Value = (Vec<SetId>, Vec<Op>, bool)> {
    let e = (0..ELEMS).prop_map(elem);
    let ops = prop::collection::vec(
        prop_oneof![
            (e.clone(), 0..SETS).prop_map(|(u, s)| Op::AddMember(u, s)),
            (e.clone(), 0..SETS).prop_map(|(u, s)| Op::RemoveMember(u, s)),
            e.clone().prop_map(Op::ToggleElement),
            (0..SETS, prop::collection::vec(e, 0..10)).prop_map(|(s, m)| Op::ToggleSet(s, m)),
        ],
        0..len,
    );
    (
        prop::collection::vec(any::<u64>(), SETS),
        ops,
        any::<bool>(),
    )
}

/// Shadow model of memberships and universe.
#[derive(Default)]
struct Model {
    sets: BTreeMap<SetId, BTreeSet<ElemId>>,
    universe: BTreeSet<ElemId>,
}

/// Seeds `c` and the model with the full set, runs `ops` against both
/// (inside one transaction when `batched`), and leaves `c` stable.
fn run(c: &mut DynamicSetCover, ids: &[SetId], ops: Vec<Op>, batched: bool) -> Model {
    let mut model = Model::default();
    c.insert_set(FULL, (0..ELEMS).map(elem)).unwrap();
    model.sets.insert(FULL, (0..ELEMS).map(elem).collect());
    if batched {
        c.begin_batch();
    }
    for op in ops {
        match op {
            Op::AddMember(u, s) => {
                let s = ids[s];
                if c.has_set(s) {
                    c.add_to_set(u, s).unwrap();
                    model.sets.get_mut(&s).unwrap().insert(u);
                }
            }
            Op::RemoveMember(u, s) => {
                let s = ids[s];
                if c.has_set(s) {
                    let kept = c.remove_from_set(u, s).unwrap();
                    model.sets.get_mut(&s).unwrap().remove(&u);
                    if !kept {
                        model.universe.remove(&u);
                    }
                }
            }
            Op::ToggleElement(u) => {
                if c.has_element(u) {
                    c.remove_element(u).unwrap();
                    model.universe.remove(&u);
                } else if c.insert_element(u).is_ok() {
                    model.universe.insert(u);
                }
            }
            Op::ToggleSet(s, members) => {
                let s = ids[s];
                if c.has_set(s) {
                    for d in c.remove_set(s).unwrap() {
                        model.universe.remove(&d);
                    }
                    model.sets.remove(&s);
                } else {
                    c.insert_set(s, members.iter().copied()).unwrap();
                    model.sets.insert(s, members.into_iter().collect());
                }
            }
        }
    }
    if batched {
        c.commit();
    }
    model
}

/// Reference greedy: repeatedly picks the set covering the most uncovered
/// elements, ties to the smallest id; returns the picks in order.
fn reference_greedy(model: &Model) -> Vec<SetId> {
    let mut uncovered = model.universe.clone();
    let mut picks = Vec::new();
    while !uncovered.is_empty() {
        let (gain, best) = model
            .sets
            .iter()
            .map(|(&s, m)| (m.intersection(&uncovered).count(), std::cmp::Reverse(s)))
            .max()
            .unwrap();
        if gain == 0 {
            break;
        }
        let best = best.0;
        uncovered.retain(|u| !model.sets[&best].contains(u));
        picks.push(best);
    }
    picks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn invariants_after_random_ops(case in arb_case(80), base in 0usize..3) {
        let (ids, ops, batched) = case;
        let base = [LevelBase::TWO, LevelBase::new(1.5), LevelBase::new(3.0)][base];
        let mut c = DynamicSetCover::new(base);
        let model = run(&mut c, &ids, ops, batched);
        c.check_invariants().map_err(TestCaseError::fail)?;

        // Shadow model agreement.
        prop_assert_eq!(c.universe_size(), model.universe.len());
        prop_assert_eq!(c.num_sets(), model.sets.len());
        for (&s, members) in &model.sets {
            let mut got = c.members(s).unwrap().to_vec();
            got.sort_unstable();
            prop_assert_eq!(&got, &members.iter().copied().collect::<Vec<_>>());
        }

        // Theorem 1: |C| ≤ (2 + 2 log_b m) · OPT, with greedy size as an
        // upper bound for OPT's (1 + ln m) blow-up — use the crude bound
        // |C| ≤ (2 + 2 log_b m) · greedy_size, which stability implies.
        if !model.universe.is_empty() {
            let m = model.universe.len() as f64;
            let g = reference_greedy(&model).len() as f64;
            let bound = (2.0 + 2.0 * m.log(base.get())) * g;
            prop_assert!(
                (c.solution_size() as f64) <= bound + 1e-9,
                "|C| = {} > bound {bound}",
                c.solution_size()
            );
        } else {
            prop_assert_eq!(c.solution_size(), 0);
        }
    }

    /// greedy() after any operation sequence yields a valid stable cover
    /// (used by FD-RMS initialisation at every binary-search step) made of
    /// exactly the reference greedy's picks.
    #[test]
    fn greedy_restores_stability(case in arb_case(40)) {
        let (ids, ops, batched) = case;
        let mut c = DynamicSetCover::default();
        let model = run(&mut c, &ids, ops, batched);
        c.greedy().unwrap();
        c.check_invariants().map_err(TestCaseError::fail)?;
        let mut want = reference_greedy(&model);
        want.sort_unstable();
        let mut got: Vec<SetId> = c.solution().collect();
        got.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
