//! Differential properties of the bushy search space.
//!
//! The bushy stack makes three strong promises, each tested here across
//! randomized catalogs with the seeded-RNG idiom (one derived seed per
//! case, failures reproduce exactly):
//!
//! 1. **Structural safety** — every tree move, accepted or undone,
//!    preserves the leaf multiset and cross-product-freedom, and the
//!    arena stays internally consistent ([`TreePlan::audit`]).
//! 2. **Bit-identity** — the path-to-root incremental re-cost equals a
//!    full bottom-up re-cost bit for bit, on every move, under every
//!    cost model; and on left-deep trees the tree recurrence equals the
//!    linear `OrderCost::order_cost` walk bit for bit, so linear and
//!    bushy runs are priced on exactly the same scale.
//! 3. **Quality** — on exactly-solvable instances BUSHYII lands within
//!    an asserted gap of the certified bushy optimum, and the DP's
//!    typed errors ([`OptError::ComponentTooLarge`],
//!    [`OptError::DisconnectedComponent`]) surface for precisely the
//!    inputs that deserve them.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ljqo::catalog::CompiledQuery;
use ljqo::cost::{sanitize_cost, MultiMethodCostModel, TreeEvaluator};
use ljqo::plan::{random_valid_order, TreeMoveSet, TreePlan};
use ljqo::prelude::*;

const CASES: u64 = 16;

/// A query with exactly `n_components` join-graph components, each a
/// small random tree (possibly a singleton relation).
fn component_query(rng: &mut SmallRng, n_components: usize) -> Query {
    let mut b = QueryBuilder::new();
    let mut names: Vec<Vec<String>> = Vec::new();
    for c in 0..n_components {
        let size = if rng.gen_bool(0.2) {
            1
        } else {
            rng.gen_range(2usize..6)
        };
        let mut comp = Vec::new();
        for i in 0..size {
            let name = format!("c{c}_r{i}");
            b = b.relation(&name, rng.gen_range(10u64..100_000));
            comp.push(name);
        }
        names.push(comp);
    }
    for comp in &names {
        for i in 1..comp.len() {
            let j = rng.gen_range(0..i);
            b = b.join(&comp[j], &comp[i], 10f64.powf(rng.gen_range(-4.0..-0.5)));
        }
    }
    b.build().unwrap()
}

/// A connected random tree-shaped query over `n` relations.
fn connected_query(rng: &mut SmallRng, n: usize) -> Query {
    let mut b = QueryBuilder::new();
    for i in 0..n {
        b = b.relation(format!("r{i}"), rng.gen_range(10u64..100_000));
    }
    for i in 1..n {
        let j = rng.gen_range(0..i);
        b = b.join(
            &format!("r{j}"),
            &format!("r{i}"),
            10f64.powf(rng.gen_range(-4.0..-0.5)),
        );
    }
    b.build().unwrap()
}

fn models() -> Vec<(&'static str, Box<dyn CostModel>)> {
    vec![
        ("memory", Box::new(MemoryCostModel::default())),
        ("disk", Box::new(DiskCostModel::default())),
        ("multi", Box::new(MultiMethodCostModel::default())),
    ]
}

fn sorted(mut v: Vec<RelId>) -> Vec<RelId> {
    v.sort();
    v
}

#[test]
fn tree_moves_preserve_leaves_and_cross_product_freedom() {
    // Random 1–4-component catalogs; on every component with at least
    // two relations, a long randomized accept/undo walk never breaks
    // the arena invariants.
    let moves = TreeMoveSet::default();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xb000_0001 ^ case);
        let n_components = rng.gen_range(1usize..5);
        let q = component_query(&mut rng, n_components);
        let compiled = CompiledQuery::new(&q);
        for comp in q.graph().components() {
            if comp.len() < 2 {
                continue;
            }
            let order = random_valid_order(q.graph(), &comp, &mut rng);
            let mut plan = TreePlan::from_order(&compiled, order.rels());
            let want_leaves = sorted(plan.leaves());
            for step in 0..200 {
                if plan.propose(&moves, &mut rng).is_none() {
                    continue;
                }
                if rng.gen_bool(0.5) {
                    plan.accept();
                } else {
                    plan.undo_last();
                }
                plan.audit(&compiled)
                    .unwrap_or_else(|e| panic!("case {case} step {step}: audit failed: {e}"));
                assert_eq!(
                    sorted(plan.leaves()),
                    want_leaves,
                    "case {case} step {step}: leaf multiset changed"
                );
                assert!(
                    plan.is_cross_product_free(),
                    "case {case} step {step}: a cross product appeared"
                );
            }
        }
    }
}

#[test]
fn incremental_recost_is_bit_identical_to_full_under_every_model() {
    // The promise debug builds assert on every move, re-checked here
    // explicitly so release runs (CI's release test step) cover it too,
    // under all three cost models.
    let moves = TreeMoveSet::default();
    for (name, model) in models() {
        for case in 0..CASES {
            let mut rng = SmallRng::seed_from_u64(0xb000_0002 ^ case);
            let n = rng.gen_range(4usize..10);
            let q = connected_query(&mut rng, n);
            let comp: Vec<RelId> = q.rel_ids().collect();
            let compiled = Arc::new(CompiledQuery::new(&q));
            let order = random_valid_order(q.graph(), &comp, &mut rng);
            let plan = TreePlan::from_order(&compiled, order.rels());
            let mut te = TreeEvaluator::new(model.as_ref(), Arc::clone(&compiled), plan);
            for step in 0..150 {
                let current = te.current_cost();
                if te.propose(&moves, &mut rng).is_none() {
                    continue;
                }
                let incremental = te.eval_pending();
                let full = te.full_cost();
                assert_eq!(
                    incremental.to_bits(),
                    full.to_bits(),
                    "{name} case {case} step {step}: {incremental:e} vs {full:e}"
                );
                if incremental <= current {
                    te.commit();
                } else {
                    te.rollback();
                }
            }
        }
    }
}

#[test]
fn left_deep_trees_price_exactly_like_the_linear_walk() {
    // The scale-identity that makes linear-vs-bushy comparisons honest:
    // a left-deep tree through the tree evaluator costs bit-for-bit
    // what the linear `order_cost` walk says, under every model.
    for (name, model) in models() {
        for case in 0..CASES {
            let mut rng = SmallRng::seed_from_u64(0xb000_0003 ^ case);
            let n = rng.gen_range(2usize..12);
            let q = connected_query(&mut rng, n);
            let comp: Vec<RelId> = q.rel_ids().collect();
            let compiled = Arc::new(CompiledQuery::new(&q));
            for _ in 0..8 {
                let order = random_valid_order(q.graph(), &comp, &mut rng);
                let plan = TreePlan::from_order(&compiled, order.rels());
                let mut te = TreeEvaluator::new(model.as_ref(), Arc::clone(&compiled), plan);
                let tree_cost = te.full_cost();
                let walk_cost = sanitize_cost(model.order_cost(&q, order.rels()));
                assert_eq!(
                    tree_cost.to_bits(),
                    walk_cost.to_bits(),
                    "{name} case {case}: tree {tree_cost:e} vs walk {walk_cost:e}"
                );
            }
        }
    }
}

#[test]
fn bushy_ii_stays_within_the_asserted_gap_of_the_dp() {
    // Exactly-solvable random instances: the searched tree must land
    // within a small constant of the certified bushy optimum.
    const MAX_GAP: f64 = 0.5;
    let model = MemoryCostModel::default();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xb000_0004 ^ case);
        let n = rng.gen_range(4usize..11);
        let q = connected_query(&mut rng, n);
        let comp: Vec<RelId> = q.rel_ids().collect();
        let r = try_optimize_bushy(
            &q,
            &model,
            &OptimizerConfig::new(Method::BushyIi).with_seed(case),
        )
        .unwrap();
        assert_eq!(r.degradation, Degradation::None, "case {case}");
        let gap = bushy_gap_vs_dp(&q, &model, &comp, r.cost)
            .expect("small connected components fit the bushy DP")
            .expect("components here have at least two relations");
        // The DP picks its optimum under its own summation order, so a
        // float-tied search tree can price an ulp *below* the re-costed
        // DP tree — tolerate that, never a materially negative gap.
        assert!(
            (-1e-9..=MAX_GAP).contains(&gap),
            "case {case}: gap {gap} outside [-1e-9, {MAX_GAP}]"
        );
    }
}

#[test]
fn dp_typed_errors_fire_for_exactly_the_inputs_that_deserve_them() {
    let model = MemoryCostModel::default();
    let mut rng = SmallRng::seed_from_u64(0xb000_0005);

    // Oversized component: a connected chain one past the DP limit.
    let big = connected_query(&mut rng, ljqo::bushy::BUSHY_MAX_RELATIONS + 1);
    let comp: Vec<RelId> = big.rel_ids().collect();
    match optimal_bushy_dp(&big, &comp, &model) {
        Err(OptError::ComponentTooLarge { n_relations, limit }) => {
            assert_eq!(n_relations, comp.len());
            assert_eq!(limit, ljqo::bushy::BUSHY_MAX_RELATIONS);
        }
        other => panic!("expected ComponentTooLarge, got {other:?}"),
    }
    // The gap helper propagates the same typed error.
    assert!(matches!(
        bushy_gap_vs_dp(&big, &model, &comp, 1.0),
        Err(OptError::ComponentTooLarge { .. })
    ));

    // A "component" spanning two real components is disconnected.
    let two = component_query(&mut rng, 2);
    let all: Vec<RelId> = two.rel_ids().collect();
    if two.graph().components().len() == 2 {
        match optimal_bushy_dp(&two, &all, &model) {
            Err(OptError::DisconnectedComponent { n_relations }) => {
                assert_eq!(n_relations, all.len());
            }
            other => panic!("expected DisconnectedComponent, got {other:?}"),
        }
    }

    // Singletons are not an error: there is simply nothing to join.
    let single = component_query(&mut rng, 1);
    let first = single.rel_ids().next().unwrap();
    assert!(matches!(
        optimal_bushy_dp(&single, &[first], &model),
        Ok(None)
    ));
}
