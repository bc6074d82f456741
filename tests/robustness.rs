//! Fault-injection and degradation tests for the hardened optimize path.
//!
//! The optimizer driver promises: give it a *validated* catalog and it
//! returns a valid plan whenever one exists — even when the cost model
//! panics or emits `NaN`, when workers die, or when the wall-clock
//! deadline has already passed. Give it an *invalid* catalog and it
//! returns a typed [`CatalogError`] instead of panicking. These tests
//! exercise every rung of that ladder with deterministic faults.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use ljqo::prelude::*;
use ljqo_catalog::CompiledQuery;
use ljqo_cost::{FaultMode, FaultyCostModel};
use ljqo_plan::validity::is_valid;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn chain_query() -> Query {
    QueryBuilder::new()
        .relation("a", 3000)
        .relation("b", 12)
        .relation("c", 700)
        .relation("d", 55)
        .relation("e", 1400)
        .relation("f", 90)
        .join("a", "b", 0.01)
        .join("b", "c", 0.002)
        .join("c", "d", 0.05)
        .join("d", "e", 0.001)
        .join("e", "f", 0.02)
        .build()
        .unwrap()
}

// ---------------------------------------------------------------------
// Worker panic isolation
// ---------------------------------------------------------------------

#[test]
fn parallel_run_survives_all_but_one_worker_panicking() {
    let q = chain_query();
    let comp: Vec<RelId> = q.rel_ids().collect();
    let runner = MethodRunner::default();
    let workers = 4;
    // Every worker thread except the first one to price a join step
    // panics on every step: 3 of 4 workers die.
    let model = FaultyCostModel::new(
        MemoryCostModel::default(),
        FaultMode::PanicOnAllButFirstThread,
    );
    let r = run_portfolio(
        &q,
        &model,
        &runner,
        &[Method::Ii],
        &comp,
        &ParallelOptions::new(4_000, workers, 9),
    )
    .expect("the surviving worker must still produce a plan");
    assert_eq!(r.workers_failed, workers - 1);
    assert!(is_valid(q.graph(), r.order.rels()));
    assert!(r.cost.is_finite());
    assert!(r.n_evals > 0);
    assert!(model.evals() >= workers as u64, "the faults never fired");
}

#[test]
fn parallel_run_with_every_worker_dead_returns_none() {
    let q = chain_query();
    let comp: Vec<RelId> = q.rel_ids().collect();
    let runner = MethodRunner::default();
    // The very first join step panics, and with a share of 1 unit each
    // every other worker's first evaluation is also its last chance.
    let model = FaultyCostModel::new(MemoryCostModel::default(), FaultMode::PanicOnKth(1));
    let r = run_portfolio(
        &q,
        &model,
        &runner,
        &[Method::Ii],
        &comp,
        &ParallelOptions::new(4_000, 4, 9),
    );
    // Whichever worker drew the fault died; the others survive, so a
    // result still comes back — but the failure must be accounted.
    let r = r.expect("three healthy workers remain");
    assert_eq!(r.workers_failed, 1);
    assert!(is_valid(q.graph(), r.order.rels()));
    assert!(model.evals() >= 1, "the fault never fired");
}

// ---------------------------------------------------------------------
// Sequential driver degradation ladder
// ---------------------------------------------------------------------

#[test]
fn method_panic_degrades_to_heuristic_plan() {
    let q = chain_query();
    // The method's first join step panics; the augmentation fallback
    // prices its plan afterwards and succeeds.
    let model = FaultyCostModel::new(MemoryCostModel::default(), FaultMode::PanicOnKth(1));
    let r = Optimizer::new(&model, &OptimizerConfig::new(Method::Iai).with_seed(3))
        .solve(&q)
        .expect("fallback ladder must rescue the plan")
        .0;
    assert_eq!(r.degradation, Degradation::Heuristic);
    assert!(r.degradation.is_degraded());
    assert_eq!(r.plan.n_relations(), q.n_relations());
    assert!(is_valid(q.graph(), r.plan.segments[0].rels()));
    assert!(r.cost.is_finite());
    assert!(model.evals() >= 1, "the fault never fired");
}

#[test]
fn panic_at_any_evaluation_still_yields_a_valid_plan() {
    let q = chain_query();
    for k in 1..=40 {
        let model = FaultyCostModel::new(MemoryCostModel::default(), FaultMode::PanicOnKth(k));
        let config = OptimizerConfig::new(Method::Agi)
            .with_seed(11)
            .with_time_limit(0.5);
        let r = catch_unwind(AssertUnwindSafe(|| {
            Optimizer::new(&model, &config).solve(&q).map(|(r, _)| r)
        }))
        .unwrap_or_else(|_| panic!("driver panicked with fault at evaluation {k}"))
        .unwrap_or_else(|e| panic!("no plan with fault at evaluation {k}: {e}"));
        assert!(
            is_valid(q.graph(), r.plan.segments[0].rels()),
            "invalid plan with fault at evaluation {k}"
        );
        assert!(r.cost.is_finite(), "fault at evaluation {k}");
        assert!(model.evals() >= k, "the fault at join step {k} never fired");
    }
}

#[test]
fn nan_costs_never_poison_the_result() {
    let q = chain_query();
    // SA's calibration walk accepts every move, so it is where a
    // saturated candidate gets committed into the incremental
    // evaluator's memoized prefix sums; II only ever commits
    // improvements. The k values land the NaN in the first walk, in
    // early moves, and deep into the search. The budget is twice the
    // default so that II prices well over 500 join steps on this small
    // chain: most of its candidates repeat a swap from an unchanged
    // state, which the evaluator's memo answers without pricing.
    for method in [Method::Ii, Method::Sa] {
        let config = OptimizerConfig::new(method)
            .with_seed(7)
            .with_time_limit(18.0);
        let healthy = Optimizer::new(&MemoryCostModel::default(), &config)
            .solve(&q)
            .unwrap()
            .0
            .cost;
        for k in [1, 2, 3, 5, 8, 13, 20, 50, 200, 500] {
            let model = FaultyCostModel::new(MemoryCostModel::default(), FaultMode::NanOnKth(k));
            let r = Optimizer::new(&model, &config)
                .solve(&q)
                .expect("NaN is saturated, not fatal")
                .0;
            // The NaN evaluation saturates to f64::MAX and loses to every
            // healthy evaluation, so the method completes undegraded.
            assert_eq!(r.degradation, Degradation::None, "{method} k={k}");
            assert!(r.cost.is_finite(), "{method} k={k}");
            assert!(
                r.cost < f64::MAX,
                "{method} k={k}: NaN evaluation must not be selected"
            );
            assert!(
                is_valid(q.graph(), r.plan.segments[0].rels()),
                "{method} k={k}"
            );
            assert!(
                model.evals() >= k,
                "{method}: the NaN at step {k} never fired"
            );
            // Quality, not just validity. One lost evaluation sends the
            // seeded search down another trajectory (SA lands 1.42x
            // off at k = 200), but it must not reduce the search to a
            // random walk.
            assert!(
                r.cost <= 1.5 * healthy,
                "{method} k={k}: cost {} vs fault-free {healthy}",
                r.cost
            );
        }
    }
}

/// A fault is counted in model calls, so a fault test means the same
/// thing in a debug and a release build only if both builds call the
/// model equally often. One constant per method holds in both profiles.
#[test]
fn model_calls_under_a_fault_are_the_same_in_every_build() {
    let q = chain_query();
    for (method, want) in [(Method::Ii, 698u64), (Method::Sa, 1161), (Method::Iai, 685)] {
        let model = FaultyCostModel::new(MemoryCostModel::default(), FaultMode::NanOnKth(2));
        let config = OptimizerConfig::new(method)
            .with_seed(7)
            .with_time_limit(18.0);
        Optimizer::new(&model, &config).solve(&q).unwrap();
        assert_eq!(model.evals(), want, "{method}");
    }
}

#[test]
fn bushy_space_faults_walk_the_one_fallback_ladder() {
    // The bushy tree search is rung 1 of the one component loop. A
    // panic under it falls down the same ladder as a linear method, and
    // the rescued order enters the result as its left-deep tree. A NaN
    // saturates, as in the linear space: the search completes undegraded
    // and never selects the poisoned tree, wherever in the walk it lands.
    let q = chain_query();
    let modes = [FaultMode::PanicOnKth(1)]
        .into_iter()
        .chain([1].into_iter().chain(6..=40).map(FaultMode::NanOnKth));
    for mode in modes {
        for method in [Method::BushyIi, Method::BushySa] {
            let model = FaultyCostModel::new(MemoryCostModel::default(), mode);
            let config = OptimizerConfig::new(method)
                .with_seed(3)
                .with_space(SearchSpace::Bushy);
            let r = Optimizer::new(&model, &config)
                .solve(&q)
                .unwrap_or_else(|e| panic!("{mode:?} {method}: no plan: {e}"))
                .0;
            assert!(
                model.evals() >= 1,
                "{mode:?} {method}: the fault never fired"
            );
            let trees = &r.trees;
            assert_eq!(trees.len(), r.plan.segments.len(), "{mode:?} {method}");
            for (tree, order) in trees.iter().zip(&r.plan.segments) {
                assert_eq!(tree.leaves(), order.rels(), "{mode:?} {method}");
            }
            assert!(r.cost.is_finite() && r.cost < f64::MAX, "{mode:?} {method}");
            match mode {
                FaultMode::PanicOnKth(_) => {
                    assert!(
                        r.degradation >= Degradation::Heuristic,
                        "{mode:?} {method}: degradation {:?}",
                        r.degradation
                    );
                    // One component, so the one segment is the rescued one.
                    for (tree, order) in trees.iter().zip(&r.plan.segments) {
                        assert!(tree.is_linear(), "{mode:?} {method}: {tree}");
                        assert!(is_valid(q.graph(), order.rels()), "{mode:?} {method}");
                    }
                }
                _ => assert_eq!(r.degradation, Degradation::None, "{mode:?} {method}"),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------

#[test]
fn immediate_deadline_returns_degraded_fallback() {
    let q = chain_query();
    let model = MemoryCostModel::default();
    let config = OptimizerConfig::new(Method::Ii)
        .with_seed(1)
        .with_deadline(Duration::ZERO);
    let r = Optimizer::new(&model, &config)
        .solve(&q)
        .expect("fallback must produce a plan")
        .0;
    assert!(r.deadline_expired);
    assert!(
        r.degradation.is_degraded(),
        "no search time means a fallback plan"
    );
    assert!(is_valid(q.graph(), r.plan.segments[0].rels()));
    assert!(r.cost.is_finite());
}

#[test]
fn expired_deadline_degrades_every_search_method_to_the_heuristic() {
    // No search time means no searched plan, whichever method runs: the
    // annealers must not price their random start and ship it as an
    // undegraded result, and a fan-out whose workers found nothing must
    // still report the deadline they hit.
    let q = chain_query();
    let model = MemoryCostModel::default();
    let (workers, portfolio) = (Parallelism::workers(2), Parallelism::portfolio(2));
    for (method, space, parallelism) in [
        (Method::Ii, SearchSpace::Linear, None),
        (Method::Iai, SearchSpace::Linear, None),
        (Method::Sa, SearchSpace::Linear, None),
        (Method::Saa, SearchSpace::Linear, None),
        (Method::Sak, SearchSpace::Linear, None),
        (Method::BushyIi, SearchSpace::Bushy, None),
        (Method::BushySa, SearchSpace::Bushy, None),
        (Method::Iai, SearchSpace::Linear, Some(&workers)),
        (Method::Iai, SearchSpace::Linear, Some(&portfolio)),
    ] {
        let config = OptimizerConfig::new(method)
            .with_seed(1)
            .with_space(space)
            .with_deadline(Duration::ZERO);
        let mut optimizer = Optimizer::new(&model, &config);
        if let Some(parallelism) = parallelism {
            optimizer = optimizer.with_parallelism(parallelism);
        }
        let label = format!("{method} {parallelism:?}");
        let r = optimizer
            .solve(&q)
            .unwrap_or_else(|e| panic!("{label}: no plan: {e}"))
            .0;
        assert!(r.deadline_expired, "{label}");
        assert_eq!(r.degradation, Degradation::Heuristic, "{label}");
    }
}

#[test]
fn generous_deadline_does_not_degrade() {
    let q = chain_query();
    let model = MemoryCostModel::default();
    let config = OptimizerConfig::new(Method::Iai)
        .with_seed(1)
        .with_deadline(Duration::from_secs(3600));
    let r = Optimizer::new(&model, &config).solve(&q).unwrap().0;
    assert!(!r.deadline_expired);
    assert_eq!(r.degradation, Degradation::None);
    // Matches an undeadlined run exactly: the deadline only reads the
    // clock, it does not perturb the deterministic search.
    let plain = Optimizer::new(&model, &OptimizerConfig::new(Method::Iai).with_seed(1))
        .solve(&q)
        .unwrap()
        .0;
    assert_eq!(r.plan, plain.plan);
    assert_eq!(r.cost, plain.cost);
}

// ---------------------------------------------------------------------
// Catalog validation at the optimize boundary
// ---------------------------------------------------------------------

#[test]
fn nan_statistics_yield_catalog_errors_not_panics() {
    // NaN selection selectivity.
    let err = QueryBuilder::new()
        .relation_with_selection("a", 10, f64::NAN)
        .build()
        .unwrap_err();
    assert!(matches!(
        err,
        CatalogError::BadSelectivity { .. } | CatalogError::NonFinite { .. }
    ));

    // NaN join selectivity.
    let err = QueryBuilder::new()
        .relation("a", 10)
        .relation("b", 20)
        .join("a", "b", f64::NAN)
        .build()
        .unwrap_err();
    assert!(matches!(err, CatalogError::BadSelectivity { .. }));

    // NaN distinct count, injected below the builder's derivations.
    let err = Query::new(
        vec![Relation::new("a", 10), Relation::new("b", 20)],
        vec![JoinEdge::new(0u32, 1u32, 0.5, f64::NAN, 4.0)],
    )
    .unwrap_err();
    assert!(matches!(err, CatalogError::NonFinite { .. }));
}

#[test]
fn random_catalogs_validate_or_optimize_cleanly() {
    // Property: any catalog either fails `Query::new` with a typed error
    // or optimizes to a valid plan — never a panic, never an invalid
    // plan. Statistics are drawn adversarially: zero cardinalities,
    // selectivities outside (0,1], NaN, distincts exceeding cardinality,
    // dangling and self-loop edges.
    let model = MemoryCostModel::default();
    let mut accepted = 0u32;
    let mut rejected = 0u32;
    for case in 0u64..120 {
        let mut rng = SmallRng::seed_from_u64(0x0B0B_5000 ^ case);
        let n = rng.gen_range(1usize..7);
        let mut relations = Vec::new();
        for i in 0..n {
            let card = match rng.gen_range(0u32..8) {
                0 => 0,
                1 => 1,
                _ => rng.gen_range(1u64..100_000),
            };
            let mut rel = Relation::new(format!("r{i}"), card);
            if rng.gen_range(0u32..3) == 0 {
                rel = rel.with_selection(match rng.gen_range(0u32..6) {
                    0 => f64::NAN,
                    1 => 0.0,
                    2 => 1.5,
                    3 => -0.2,
                    _ => rng.gen_range(0.01..1.0),
                });
            }
            relations.push(rel);
        }
        let n_edges = rng.gen_range(0usize..(n * 2).max(1));
        let mut edges = Vec::new();
        for _ in 0..n_edges {
            // Deliberately include out-of-range endpoints (dangling) and
            // occasional self-loops.
            let a = rng.gen_range(0u32..(n as u32 + 2));
            let b = if rng.gen_range(0u32..8) == 0 {
                a
            } else {
                rng.gen_range(0u32..(n as u32 + 2))
            };
            let sel = match rng.gen_range(0u32..8) {
                0 => f64::NAN,
                1 => 0.0,
                2 => 2.0,
                _ => rng.gen_range(1e-6..1.0),
            };
            let d = match rng.gen_range(0u32..6) {
                0 => f64::NAN,
                1 => 1e12, // likely exceeds the side's cardinality
                _ => rng.gen_range(1.0..1000.0),
            };
            edges.push(JoinEdge::new(a, b, sel, d, d));
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            match Query::new(relations.clone(), edges.clone()) {
                Err(_) => None,
                Ok(q) => {
                    let config = OptimizerConfig::new(Method::Iai)
                        .with_seed(case)
                        .with_time_limit(0.5);
                    let r = Optimizer::new(&model, &config)
                        .solve(&q)
                        .expect("valid catalog must plan")
                        .0;
                    assert_eq!(r.plan.n_relations(), q.n_relations(), "case {case}");
                    for seg in &r.plan.segments {
                        assert!(is_valid(q.graph(), seg.rels()), "case {case}");
                    }
                    assert!(r.cost.is_finite(), "case {case}");
                    Some(())
                }
            }
        }));
        match outcome.unwrap_or_else(|_| panic!("panic on case {case}")) {
            Some(()) => accepted += 1,
            None => rejected += 1,
        }
    }
    // The generator must actually exercise both arms.
    assert!(accepted >= 10, "only {accepted} catalogs accepted");
    assert!(rejected >= 10, "only {rejected} catalogs rejected");
}

#[test]
fn random_moves_preserve_validity_on_surviving_catalogs() {
    // Property: from any valid order of a validated random catalog, any
    // accepted move proposal yields another valid order.
    let mut checked = 0u32;
    for case in 0u64..40 {
        let mut rng = SmallRng::seed_from_u64(0x5EED_1000 ^ case);
        let n = rng.gen_range(2usize..8);
        let mut builder = QueryBuilder::new();
        for i in 0..n {
            builder = builder.relation(format!("r{i}"), rng.gen_range(1u64..10_000));
        }
        // A random spanning tree keeps the graph connected.
        for i in 1..n {
            let parent = rng.gen_range(0usize..i);
            builder = builder.join(
                &format!("r{parent}"),
                &format!("r{i}"),
                rng.gen_range(1e-4..1.0f64),
            );
        }
        let q = builder
            .build()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        let comp: Vec<RelId> = q.rel_ids().collect();
        let mut order = ljqo_plan::random_valid_order(q.graph(), &comp, &mut rng);
        assert!(is_valid(q.graph(), order.rels()), "case {case} start");
        let compiled = Arc::new(CompiledQuery::new(&q));
        let mut gen = MoveGenerator::with_compiled(compiled, MoveSet::default());
        for step in 0..50 {
            // `propose` applies the move before returning it.
            if gen.propose(q.graph(), &mut order, &mut rng).is_some() {
                assert!(
                    is_valid(q.graph(), order.rels()),
                    "case {case} step {step} broke validity"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 200, "only {checked} moves exercised");
}
