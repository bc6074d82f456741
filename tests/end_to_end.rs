//! Cross-crate integration tests: workload generation → optimization →
//! plan validity, across methods, models, and benchmarks.

use ljqo::prelude::*;
use ljqo_workload::{generate_query, Benchmark};

fn assert_plan_covers_query(query: &Query, plan: &Plan) {
    assert_eq!(plan.n_relations(), query.n_relations());
    let mut seen = vec![false; query.n_relations()];
    for seg in &plan.segments {
        assert!(
            ljqo::plan::validity::is_valid(query.graph(), seg.rels()),
            "segment {seg} is invalid"
        );
        for r in seg.rels() {
            assert!(!seen[r.index()], "{r} appears twice");
            seen[r.index()] = true;
        }
    }
    assert!(
        seen.into_iter().all(|s| s),
        "plan must cover every relation"
    );
}

#[test]
fn every_method_optimizes_generated_queries() {
    let model = MemoryCostModel::default();
    for n in [10usize, 25] {
        let query = generate_query(&Benchmark::Default.spec(), n, 0xe2e);
        for method in Method::ALL {
            let config = OptimizerConfig::new(method)
                .with_time_limit(1.0)
                .with_seed(5);
            let result = Optimizer::new(&model, &config).solve(&query).unwrap().0;
            assert_plan_covers_query(&query, &result.plan);
            assert!(result.cost.is_finite(), "{method} at N={n}");
        }
    }
}

#[test]
fn both_cost_models_yield_valid_plans_on_every_benchmark() {
    let memory = MemoryCostModel::default();
    let disk = DiskCostModel::default();
    for bench in Benchmark::ALL {
        let query = generate_query(&bench.spec(), 15, 0xbe).clone();
        for model in [&memory as &dyn CostModel, &disk as &dyn CostModel] {
            let config = OptimizerConfig::new(Method::Iai)
                .with_time_limit(2.0)
                .with_seed(1);
            let result = Optimizer::new(model, &config).solve(&query).unwrap().0;
            assert_plan_covers_query(&query, &result.plan);
            assert!(
                result.cost > 0.0 && result.cost.is_finite(),
                "{} under {}",
                bench.name(),
                model.name()
            );
        }
    }
}

#[test]
fn methods_reach_dp_optimum_on_small_queries() {
    // With the full 9N² budget on N=10, the paper-recommended IAI should
    // essentially always find the DP optimum of the default benchmark.
    let model = MemoryCostModel::default();
    let mut hit = 0;
    let total = 10;
    for seed in 0..total {
        let query = generate_query(&Benchmark::Default.spec(), 10, seed);
        let comp: Vec<RelId> = query.rel_ids().collect();
        let (_, opt) = optimal_dp(&query, &comp, &model, SearchSpace::Linear)
            .unwrap()
            .unwrap();
        let result = Optimizer::new(
            &model,
            &OptimizerConfig::new(Method::Iai).with_seed(seed ^ 0xf),
        )
        .solve(&query)
        .unwrap()
        .0;
        assert!(
            result.cost >= opt - opt * 1e-9,
            "cost below proven optimum: optimizer or DP is broken"
        );
        if result.cost <= opt * 1.02 {
            hit += 1;
        }
    }
    assert!(
        hit >= 8,
        "IAI at 9N² found the optimum on only {hit}/{total} small queries"
    );
}

#[test]
fn more_budget_never_hurts() {
    let model = MemoryCostModel::default();
    let query = generate_query(&Benchmark::Default.spec(), 30, 77);
    for method in [Method::Ii, Method::Iai, Method::Sa] {
        let mut prev = f64::INFINITY;
        for tau in [0.3, 1.0, 3.0, 9.0] {
            let config = OptimizerConfig::new(method)
                .with_time_limit(tau)
                .with_seed(4);
            let cost = Optimizer::new(&model, &config)
                .solve(&query)
                .unwrap()
                .0
                .cost;
            assert!(
                cost <= prev * (1.0 + 1e-9),
                "{method}: cost rose from {prev} to {cost} at tau={tau}"
            );
            prev = cost;
        }
    }
}

#[test]
fn optimizer_is_deterministic_across_methods() {
    let model = MemoryCostModel::default();
    let query = generate_query(&Benchmark::GraphStar.spec(), 20, 9);
    for method in Method::ALL {
        let config = OptimizerConfig::new(method)
            .with_time_limit(1.0)
            .with_seed(31);
        let a = Optimizer::new(&model, &config).solve(&query).unwrap().0;
        let b = Optimizer::new(&model, &config).solve(&query).unwrap().0;
        assert_eq!(a.plan, b.plan, "{method}");
        assert_eq!(a.units_used, b.units_used, "{method}");
    }
}

#[test]
fn disconnected_query_costs_include_cross_products() {
    // Two components; the plan's cost must exceed the sum of the
    // components' own costs (the cross product is not free).
    let query = QueryBuilder::new()
        .relation("a", 1000)
        .relation("b", 100)
        .relation("x", 2000)
        .relation("y", 50)
        .join("a", "b", 0.01)
        .join("x", "y", 0.001)
        .build()
        .unwrap();
    let model = MemoryCostModel::default();
    let result = Optimizer::new(&model, &OptimizerConfig::new(Method::Ii).with_seed(2))
        .solve(&query)
        .unwrap()
        .0;
    assert_eq!(result.plan.segments.len(), 2);

    let seg_costs: f64 = result
        .plan
        .segments
        .iter()
        .map(|s| model.order_cost(&query, s.rels()))
        .sum();
    assert!(result.cost > seg_costs, "{} !> {seg_costs}", result.cost);
}

#[test]
fn plan_display_and_explain_are_consistent() {
    let query = generate_query(&Benchmark::Default.spec(), 12, 5);
    let model = MemoryCostModel::default();
    let result = Optimizer::new(&model, &OptimizerConfig::new(Method::Agi).with_seed(8))
        .solve(&query)
        .unwrap()
        .0;
    assert_eq!(result.trees.len(), 1);
    assert_eq!(result.trees[0].n_leaves(), query.n_relations());
    assert_eq!(result.trees[0].leaves(), result.plan.segments[0].rels());
    let explain = result.explain(&query);
    // Every relation name appears in the explanation.
    for rel in query.relations() {
        assert!(explain.contains(&rel.name), "missing {}", rel.name);
    }
    // Connected query -> no cross products in the explanation.
    assert!(!explain.contains("CrossProduct"));
}
