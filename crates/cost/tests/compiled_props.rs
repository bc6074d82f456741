//! Differential property tests for the compiled fast paths.
//!
//! Every hot-loop shortcut introduced by the compiled query snapshot has a
//! slow reference implementation it must match **bit for bit** (not just
//! approximately): the bitset validity checker against the edge-chasing
//! scan of `ljqo_plan::validity`, the compiled incremental cost paths
//! against the from-scratch walks, and the sparse present-set
//! [`DistinctState`] against the dense scan of [`DenseDistinctState`].
//! Random catalogs with 1–4 connected components, all three cost models
//! and all four move kinds, as seeded-RNG loops (offline build, so no
//! proptest — every case reproduces from its printed seed).

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ljqo_catalog::{CompiledQuery, EdgeId, Query, QueryBuilder, RelId};
use ljqo_cost::propagate::{order_cost_propagated, DenseDistinctState, DistinctState};
use ljqo_cost::{
    costs_agree, CostModel, DiskCostModel, Estimator, IncrementalEvaluator, MemoryCostModel,
    MultiMethodCostModel,
};
use ljqo_plan::validity::is_valid;
use ljqo_plan::{random_valid_order, BitsetChecker, MoveGenerator, MoveSet};

const CASES: u64 = 64;

fn models() -> [Box<dyn CostModel>; 3] {
    [
        Box::new(MemoryCostModel::default()),
        Box::new(DiskCostModel::default()),
        Box::new(MultiMethodCostModel::default()),
    ]
}

/// A random catalog of 1..=4 connected components; each component is a
/// chain spine of 4..8 relations plus random extra edges (cycles, star-ish
/// hubs), with no edges between components.
fn arb_catalog(rng: &mut SmallRng) -> Query {
    let n_components = rng.gen_range(1usize..=4);
    let mut b = QueryBuilder::new();
    let mut next = 0usize;
    for _ in 0..n_components {
        let len = rng.gen_range(4usize..8);
        for i in next..next + len {
            b = b.relation(format!("r{i}"), rng.gen_range(10u64..50_000));
        }
        for i in next + 1..next + len {
            b = b.join(
                &format!("r{}", i - 1),
                &format!("r{i}"),
                rng.gen_range(0.001f64..1.0),
            );
        }
        for i in next..next + len {
            for j in (i + 2)..next + len {
                if rng.gen_bool(0.15) {
                    b = b.join(
                        &format!("r{i}"),
                        &format!("r{j}"),
                        rng.gen_range(0.001f64..1.0),
                    );
                }
            }
        }
        next += len;
    }
    b.build().unwrap()
}

fn all_kinds() -> MoveSet {
    MoveSet {
        adjacent_swap: 0.25,
        swap: 0.35,
        three_cycle: 0.2,
        reinsert: 0.2,
    }
}

/// In-place Fisher–Yates (the vendored rand has no `SliceRandom`).
fn shuffle(rels: &mut [RelId], rng: &mut SmallRng) {
    for i in (1..rels.len()).rev() {
        let j = rng.gen_range(0..=i);
        rels.swap(i, j);
    }
}

/// The bitset checker agrees with the reference edge-chasing scan on both
/// valid orders and arbitrary (mostly invalid) permutations, including
/// multi-component catalogs where an order covers only one component.
#[test]
fn bitset_validity_matches_reference() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xc09d_0001 ^ case);
        let q = arb_catalog(&mut rng);
        let cq = CompiledQuery::new(&q);
        let mut checker = BitsetChecker::new(q.n_relations());
        for comp in q.graph().components() {
            for _ in 0..8 {
                let order = random_valid_order(q.graph(), &comp, &mut rng);
                assert!(
                    checker.is_valid(&cq, order.rels()),
                    "case {case}: bitset checker rejected a valid order"
                );
                let mut scrambled: Vec<RelId> = order.rels().to_vec();
                shuffle(&mut scrambled, &mut rng);
                assert_eq!(
                    checker.is_valid(&cq, &scrambled),
                    is_valid(q.graph(), &scrambled),
                    "case {case}: bitset and reference disagree on {scrambled:?}"
                );
            }
        }
    }
}

/// Windowed revalidation after a move is exact: on orders that were valid
/// before the move, `window_valid` over the move's touched window gives
/// the same verdict as the full reference scan of the perturbed order.
#[test]
fn windowed_validity_matches_full_scan_after_moves() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xc09d_0002 ^ case);
        let q = arb_catalog(&mut rng);
        let cq = CompiledQuery::new(&q);
        let mut checker = BitsetChecker::new(q.n_relations());
        let moves = all_kinds();
        for comp in q.graph().components() {
            let mut order = random_valid_order(q.graph(), &comp, &mut rng);
            if order.len() < 2 {
                continue;
            }
            for step in 0..64 {
                // Raw moves, not validity-filtered, so the windows the
                // generator keeps and the ones it rejects are both
                // checked: draws from the generators' own move
                // distribution alternate with arbitrary (possibly
                // degenerate) swaps.
                let mv = if step % 2 == 0 {
                    moves.sample_move(order.len(), &mut rng)
                } else {
                    let i = rng.gen_range(0..order.len());
                    let j = rng.gen_range(0..order.len());
                    ljqo_plan::Move::Swap {
                        i: i.min(j),
                        j: i.max(j),
                    }
                };
                mv.apply(&mut order);
                let got =
                    checker.window_valid(&cq, order.rels(), mv.first_touched(), mv.last_touched());
                assert_eq!(
                    got,
                    is_valid(q.graph(), order.rels()),
                    "case {case}: window verdict diverged for {mv:?}"
                );
                if !got {
                    mv.undo(&mut order);
                }
            }
        }
    }
}

/// The compiled incremental static path reproduces the from-scratch
/// `order_cost` walk (within re-association tolerance per evaluation,
/// bit-exactly after every commit), on multi-component catalogs, under
/// every cost model, with compiled-filtered moves of all four kinds.
#[test]
fn compiled_incremental_matches_order_cost() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xc09d_0003 ^ case);
        let q = arb_catalog(&mut rng);
        let compiled = Arc::new(CompiledQuery::new(&q));
        for model in models() {
            for comp in q.graph().components() {
                let order = random_valid_order(q.graph(), &comp, &mut rng);
                let mut inc = IncrementalEvaluator::with_compiled(
                    &q,
                    model.as_ref(),
                    Estimator::Static,
                    order,
                    Arc::clone(&compiled),
                );
                let mut gen = MoveGenerator::with_compiled(Arc::clone(&compiled), all_kinds());
                for _ in 0..16 {
                    let Some((mv, _)) = gen.propose_counted(q.graph(), inc.order_mut(), &mut rng)
                    else {
                        break;
                    };
                    let got = inc.eval_applied(&mv);
                    let want = inc.full_eval();
                    assert!(
                        costs_agree(got, want),
                        "case {case}: {} {mv:?}: compiled incremental {got} vs full {want}",
                        model.name()
                    );
                    if rng.gen_bool(0.5) {
                        inc.commit();
                        assert_eq!(
                            inc.current_cost(),
                            inc.full_eval(),
                            "case {case}: {} {mv:?}: committed state not bit-exact",
                            model.name()
                        );
                    } else {
                        inc.rollback();
                    }
                }
            }
        }
    }
}

/// Same contract for the propagated estimator: evaluations are
/// bit-identical to [`order_cost_propagated`] (the suffix re-walk uses the
/// exact reference operation sequence, so there is no tolerance at all).
#[test]
fn compiled_incremental_matches_propagated_reference() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xc09d_0004 ^ case);
        let q = arb_catalog(&mut rng);
        let compiled = Arc::new(CompiledQuery::new(&q));
        for model in models() {
            for comp in q.graph().components() {
                let order = random_valid_order(q.graph(), &comp, &mut rng);
                let mut inc = IncrementalEvaluator::with_compiled(
                    &q,
                    model.as_ref(),
                    Estimator::Propagated,
                    order,
                    Arc::clone(&compiled),
                );
                let mut gen = MoveGenerator::with_compiled(Arc::clone(&compiled), all_kinds());
                for _ in 0..16 {
                    let Some((mv, _)) = gen.propose_counted(q.graph(), inc.order_mut(), &mut rng)
                    else {
                        break;
                    };
                    let got = inc.eval_applied(&mv);
                    let want = order_cost_propagated(&q, model.as_ref(), inc.order().rels());
                    assert_eq!(got, want, "case {case}: {} {mv:?}", model.name());
                    if rng.gen_bool(0.5) {
                        inc.commit();
                        assert_eq!(inc.current_cost(), inc.full_eval(), "case {case}");
                    } else {
                        inc.rollback();
                    }
                }
            }
        }
    }
}

/// The sparse present-set [`DistinctState`] is bit-for-bit equivalent to
/// the dense reference scan when driven through identical
/// `admit_first`/`join_selectivity`/`place` sequences — including after a
/// `reset` and a `copy_from` round trip.
#[test]
fn sparse_distinct_state_matches_dense() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xc09d_0005 ^ case);
        let q = arb_catalog(&mut rng);
        let mut sparse = DistinctState::new(&q);
        for comp in q.graph().components() {
            let order = random_valid_order(q.graph(), &comp, &mut rng);
            sparse.reset();
            let mut dense = DenseDistinctState::new(&q); // no reset: fresh build
            walk_both(&q, order.rels(), &mut sparse, &mut dense, case);

            // A copy of the sparse state must expose the same columns.
            let mut copied = DistinctState::new(&q);
            copied.copy_from(&sparse);
            assert_states_match(&q, &copied, &dense, case);
        }
    }
}

/// Drive both states through the same walk, asserting selectivity and
/// per-column agreement (bitwise, NaN-aware) after every step.
fn walk_both(
    q: &Query,
    order: &[RelId],
    sparse: &mut DistinctState,
    dense: &mut DenseDistinctState,
    case: u64,
) {
    let mut joined_s: Vec<(EdgeId, f64, f64)> = Vec::new();
    let mut joined_d: Vec<(EdgeId, f64, f64)> = Vec::new();
    sparse.admit_first(q, order[0]);
    dense.admit_first(q, order[0]);
    let mut card = q.cardinality(order[0]);
    for &inner in &order[1..] {
        joined_s.clear();
        joined_d.clear();
        let sel_s = sparse.join_selectivity(q, inner, &mut joined_s);
        let sel_d = dense.join_selectivity(q, inner, &mut joined_d);
        assert_eq!(
            sel_s.map(f64::to_bits),
            sel_d.map(f64::to_bits),
            "case {case}: join selectivity diverged at {inner:?}"
        );
        assert_eq!(
            joined_s, joined_d,
            "case {case}: joined-edge lists diverged"
        );
        card *= q.cardinality(inner) * sel_s.unwrap_or(1.0);
        sparse.place(q, inner, card, &joined_s);
        dense.place(q, inner, card, &joined_d);
        assert_states_match(q, sparse, dense, case);
    }
}

fn assert_states_match(q: &Query, sparse: &DistinctState, dense: &DenseDistinctState, case: u64) {
    for eid in 0..q.graph().edges().len() {
        for side in 0..2 {
            let s = sparse.distinct(EdgeId(eid as u32), side);
            let d = dense.distinct(EdgeId(eid as u32), side);
            assert_eq!(
                s.to_bits(),
                d.to_bits(),
                "case {case}: edge {eid} side {side}: sparse {s} vs dense {d}"
            );
        }
    }
}
