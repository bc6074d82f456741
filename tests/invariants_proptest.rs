//! Property-based invariants over randomly generated queries, driving
//! the workload generator's seed/shape space. Implemented as seeded-RNG
//! loops: the build is offline, so no proptest — every case is
//! reproducible from its printed seed.

use std::sync::Arc;

use ljqo::plan::validity::is_valid;
use ljqo::prelude::*;
use ljqo_catalog::CompiledQuery;
use ljqo_workload::{generate_query, Benchmark};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 48;

fn arb_benchmark(rng: &mut SmallRng) -> Benchmark {
    Benchmark::ALL[rng.gen_range(0..Benchmark::ALL.len())]
}

/// The workload generator always produces connected queries with the
/// requested join count, and the identity order is valid.
#[test]
fn generator_invariants() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1f1f_0001 ^ case);
        let bench = arb_benchmark(&mut rng);
        let n = rng.gen_range(2usize..40);
        let seed: u64 = rng.gen_range(0u64..u64::MAX);
        let query = generate_query(&bench.spec(), n, seed);
        assert_eq!(query.n_joins(), n, "case {case}");
        assert!(query.graph().is_connected(), "case {case}");
        let identity: Vec<RelId> = query.rel_ids().collect();
        assert!(is_valid(query.graph(), &identity), "case {case}");
        for e in query.graph().edges() {
            assert!(e.selectivity > 0.0 && e.selectivity <= 1.0, "case {case}");
        }
    }
}

/// Random valid orders are valid permutations of the whole component.
#[test]
fn random_order_invariants() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1f1f_0002 ^ case);
        let n = rng.gen_range(2usize..40);
        let seed: u64 = rng.gen_range(0u64..u64::MAX);
        let query = generate_query(&Benchmark::Default.spec(), n, seed);
        let comp: Vec<RelId> = query.rel_ids().collect();
        let order = ljqo::plan::random_valid_order(query.graph(), &comp, &mut rng);
        assert_eq!(order.len(), comp.len(), "case {case}");
        assert!(is_valid(query.graph(), order.rels()), "case {case}");
    }
}

/// Moves proposed by the generator preserve validity and are exactly
/// undoable.
#[test]
fn move_invariants() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1f1f_0003 ^ case);
        let n = rng.gen_range(3usize..30);
        let seed: u64 = rng.gen_range(0u64..u64::MAX);
        let query = generate_query(&Benchmark::Default.spec(), n, seed);
        let comp: Vec<RelId> = query.rel_ids().collect();
        let mut order = ljqo::plan::random_valid_order(query.graph(), &comp, &mut rng);
        let compiled = Arc::new(CompiledQuery::new(&query));
        let mut gen = MoveGenerator::with_compiled(compiled, MoveSet::default());
        for _ in 0..20 {
            let before = order.clone();
            if let Some(mv) = gen.propose(query.graph(), &mut order, &mut rng) {
                assert!(is_valid(query.graph(), order.rels()), "case {case}");
                mv.undo(&mut order);
                assert_eq!(&order, &before, "case {case}");
                mv.apply(&mut order);
            }
        }
    }
}

/// Augmentation produces a valid full permutation for every criterion
/// and every choice of first relation.
#[test]
fn augmentation_invariants() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1f1f_0004 ^ case);
        let n = rng.gen_range(2usize..25);
        let seed: u64 = rng.gen_range(0u64..u64::MAX);
        let query = generate_query(&Benchmark::Default.spec(), n, seed);
        let comp: Vec<RelId> = query.rel_ids().collect();
        for crit in AugmentationCriterion::ALL {
            let h = AugmentationHeuristic::new(crit);
            for order in h.generate_all(&query, &comp) {
                assert_eq!(order.len(), comp.len(), "case {case}");
                assert!(is_valid(query.graph(), order.rels()), "case {case}");
            }
        }
    }
}

/// KBZ produces a valid full permutation on arbitrary (cyclic) graphs.
#[test]
fn kbz_invariants() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1f1f_0005 ^ case);
        let n = rng.gen_range(2usize..25);
        let seed: u64 = rng.gen_range(0u64..u64::MAX);
        let query = generate_query(&Benchmark::GraphDense.spec(), n, seed);
        let comp: Vec<RelId> = query.rel_ids().collect();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::new(&query, &model);
        let order = KbzHeuristic::default().generate(&mut ev, &comp).unwrap();
        assert_eq!(order.len(), comp.len(), "case {case}");
        assert!(is_valid(query.graph(), order.rels()), "case {case}");
    }
}

/// Costs are positive and finite on valid orders under both models,
/// and the final estimated size is order-invariant.
#[test]
fn cost_invariants() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1f1f_0006 ^ case);
        let n = rng.gen_range(2usize..30);
        let seed: u64 = rng.gen_range(0u64..u64::MAX);
        let query = generate_query(&Benchmark::Default.spec(), n, seed);
        let comp: Vec<RelId> = query.rel_ids().collect();
        let a = ljqo::plan::random_valid_order(query.graph(), &comp, &mut rng);
        let b = ljqo::plan::random_valid_order(query.graph(), &comp, &mut rng);
        for model in [
            &MemoryCostModel::default() as &dyn CostModel,
            &DiskCostModel::default() as &dyn CostModel,
        ] {
            let ca = model.order_cost(&query, a.rels());
            let cb = model.order_cost(&query, b.rels());
            assert!(ca > 0.0 && ca.is_finite(), "case {case}");
            assert!(cb > 0.0 && cb.is_finite(), "case {case}");
            // The lower bound is admissible for both orders.
            let lb = model.lower_bound(&query, &comp);
            assert!(
                lb <= ca * (1.0 + 1e-12) && lb <= cb * (1.0 + 1e-12),
                "case {case}"
            );
        }
        let sa = ljqo::cost::estimate::final_result_size(&query, a.rels());
        let ia = ljqo::cost::estimate::intermediate_sizes(&query, a.rels());
        let ib = ljqo::cost::estimate::intermediate_sizes(&query, b.rels());
        let (fa, fb) = (*ia.last().unwrap(), *ib.last().unwrap());
        assert!((fa - fb).abs() <= fa.max(fb) * 1e-6, "case {case}");
        assert!((fa - sa).abs() <= fa.max(sa) * 1e-6, "case {case}");
    }
}

/// Local improvement never worsens an order and preserves validity.
#[test]
fn local_improvement_invariants() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1f1f_0007 ^ case);
        let n = rng.gen_range(3usize..20);
        let seed: u64 = rng.gen_range(0u64..u64::MAX);
        let cluster = rng.gen_range(2usize..5);
        let overlap = cluster - 1;
        let query = generate_query(&Benchmark::Default.spec(), n, seed);
        let comp: Vec<RelId> = query.rel_ids().collect();
        let model = MemoryCostModel::default();
        let mut order = ljqo::plan::random_valid_order(query.graph(), &comp, &mut rng);
        let before = model.order_cost(&query, order.rels());
        let mut ev = Evaluator::new(&query, &model);
        LocalImprovement::new(cluster, overlap).improve(&mut ev, &mut order);
        let after = model.order_cost(&query, order.rels());
        assert!(after <= before * (1.0 + 1e-12), "case {case}");
        assert!(is_valid(query.graph(), order.rels()), "case {case}");
        assert_eq!(order.len(), comp.len(), "case {case}");
    }
}

/// The evaluator's budget is respected up to one indivisible step and
/// scaled-cost statistics stay within [1, 10].
#[test]
fn budget_and_scaling_invariants() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1f1f_0008 ^ case);
        let n = rng.gen_range(3usize..25);
        let seed: u64 = rng.gen_range(0u64..u64::MAX);
        let budget = rng.gen_range(16u64..5_000);
        let query = generate_query(&Benchmark::Default.spec(), n, seed);
        let comp: Vec<RelId> = query.rel_ids().collect();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::with_budget(&query, &model, budget);
        let mut method_rng = SmallRng::seed_from_u64(seed);
        MethodRunner::default().run(Method::Iai, &mut ev, &comp, &mut method_rng);
        let slack = 64 + 5 * query.n_relations() as u64;
        assert!(ev.used() <= budget + slack, "case {case}");
        let best = ev.best_cost();
        assert!(best.is_finite(), "case {case}");
        let s = scaled_cost(best * 3.0, best);
        assert!((1.0..=10.0).contains(&s), "case {case}");
    }
}

/// DP (when feasible) lower-bounds every method's result.
#[test]
fn dp_is_a_true_lower_bound() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1f1f_0009 ^ case);
        let n = rng.gen_range(4usize..11);
        let seed: u64 = rng.gen_range(0u64..u64::MAX);
        let query = generate_query(&Benchmark::Default.spec(), n, seed);
        let comp: Vec<RelId> = query.rel_ids().collect();
        let model = MemoryCostModel::default();
        let (_, opt) = optimal_order_dp(&query, &comp, &model).unwrap();
        for method in [Method::Ii, Method::Iai, Method::Agi] {
            let mut ev = Evaluator::with_budget(&query, &model, 2_000);
            let mut method_rng = SmallRng::seed_from_u64(seed ^ 0x5);
            MethodRunner::default().run(method, &mut ev, &comp, &mut method_rng);
            assert!(
                ev.best_cost() >= opt - opt * 1e-9,
                "case {case}: {} found {} below optimum {}",
                method,
                ev.best_cost(),
                opt
            );
        }
    }
}
