//! Validate the optimizer's world model against reality: execute plans on
//! synthetic data with the mini engine and compare (a) estimated vs
//! measured intermediate sizes, (b) cost-model ranking vs measured work.

use ljqo::prelude::*;
use ljqo_cost::estimate::intermediate_sizes;
use ljqo_exec::{execute_order, generate_data};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A moderate query whose execution is fast but non-trivial.
///
/// Cardinalities are kept small so plans execute in milliseconds, and the
/// distinct-value fractions are kept high: tiny join-column domains make
/// the *realized* selectivity of a join a high-variance random variable,
/// and those errors compound multiplicatively over an 8-join chain. With
/// domains of at least half the cardinality, measured sizes concentrate
/// tightly around the uniformity-assumption estimates.
fn test_query(seed: u64) -> Query {
    let spec = ljqo_workload::QuerySpec {
        cardinalities: ljqo_workload::CardinalityDist::Uniform(50, 800),
        distinct_values: ljqo_workload::DistinctDist(vec![(0.5, 1.0, 1.0)]),
        ..Default::default()
    };
    ljqo_workload::generate_query(&spec, 8, seed)
}

#[test]
fn estimated_sizes_track_measured_sizes() {
    // Under uniformity + independence the estimates are unbiased for
    // these uncorrelated synthetic columns, but any single step is one
    // sample of a high-variance count (and errors compound down the
    // chain). Within one query the errors are also *correlated* across
    // orders — every order reuses the same realized join selectivities —
    // so we sample several independent (query, dataset) pairs and assert
    // on the pooled distribution of log-ratios: typical agreement within
    // 2x, 95th percentile within 8x.
    let mut log_ratios = Vec::new();
    for qseed in 1..=4u64 {
        let query = test_query(qseed);
        let data = generate_data(&query, 42 + qseed);
        let comp: Vec<RelId> = query.rel_ids().collect();
        let mut rng = SmallRng::seed_from_u64(7 ^ qseed);
        for _ in 0..10 {
            let order = ljqo::plan::random_valid_order(query.graph(), &comp, &mut rng);
            let est = intermediate_sizes(&query, order.rels());
            let Ok(stats) = execute_order(&query, &data, order.rels()) else {
                continue; // blowup guard tripped; skip this order
            };
            for (e, &m) in est.iter().zip(&stats.intermediate_rows) {
                let m = m as f64;
                if m >= 20.0 {
                    log_ratios.push((e / m).ln());
                }
            }
        }
    }
    assert!(log_ratios.len() >= 10, "too few comparable steps");
    let mean_abs = log_ratios.iter().map(|r| r.abs()).sum::<f64>() / log_ratios.len() as f64;
    let mut abs: Vec<f64> = log_ratios.iter().map(|r| r.abs()).collect();
    abs.sort_by(f64::total_cmp);
    let p95 = abs[(abs.len() * 95 / 100).min(abs.len() - 1)];
    assert!(
        mean_abs <= 2.0f64.ln(),
        "typical estimate error {:.2}x exceeds 2x",
        mean_abs.exp()
    );
    assert!(
        p95 <= 8.0f64.ln(),
        "95th-percentile estimate error {:.2}x exceeds 8x",
        p95.exp()
    );
}

#[test]
fn cost_model_ranking_predicts_measured_work() {
    let query = test_query(2);
    let data = generate_data(&query, 43);
    let comp: Vec<RelId> = query.rel_ids().collect();
    let model = MemoryCostModel::default();
    let mut rng = SmallRng::seed_from_u64(9);

    // Gather (model cost, measured work) for a batch of random plans.
    let mut points: Vec<(f64, f64)> = Vec::new();
    for _ in 0..40 {
        let order = ljqo::plan::random_valid_order(query.graph(), &comp, &mut rng);
        let cost = model.order_cost(&query, order.rels());
        if let Ok(stats) = execute_order(&query, &data, order.rels()) {
            points.push((cost, stats.total_work() as f64));
        }
    }
    assert!(points.len() >= 20, "too many blowups");

    // Rank correlation: count concordant pairs.
    let mut concordant = 0;
    let mut total = 0;
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            let (c1, w1) = points[i];
            let (c2, w2) = points[j];
            if (c1 - c2).abs() < 1e-9 || (w1 - w2).abs() < 0.5 {
                continue;
            }
            total += 1;
            if (c1 < c2) == (w1 < w2) {
                concordant += 1;
            }
        }
    }
    assert!(
        concordant * 10 >= total * 7,
        "cost model ranks only {concordant}/{total} pairs correctly"
    );
}

#[test]
fn optimized_plan_does_less_work_than_median_random_plan() {
    let query = test_query(3);
    let data = generate_data(&query, 44);
    let comp: Vec<RelId> = query.rel_ids().collect();
    let model = MemoryCostModel::default();

    let best = Optimizer::new(&model, &OptimizerConfig::new(Method::Iai).with_seed(5))
        .solve(&query)
        .unwrap()
        .0;
    let best_work = execute_order(&query, &data, best.plan.segments[0].rels())
        .expect("optimized plan must execute")
        .total_work();

    let mut rng = SmallRng::seed_from_u64(11);
    let mut works: Vec<u64> = Vec::new();
    for _ in 0..9 {
        let order = ljqo::plan::random_valid_order(query.graph(), &comp, &mut rng);
        if let Ok(stats) = execute_order(&query, &data, order.rels()) {
            works.push(stats.total_work());
        }
    }
    works.sort_unstable();
    let median = works[works.len() / 2];
    assert!(
        best_work <= median,
        "optimized plan did {best_work} tuples of work, median random {median}"
    );
}

#[test]
fn final_result_size_is_plan_invariant_in_execution() {
    let query = test_query(4);
    let data = generate_data(&query, 45);
    let comp: Vec<RelId> = query.rel_ids().collect();
    let mut rng = SmallRng::seed_from_u64(13);

    let mut finals = Vec::new();
    for _ in 0..4 {
        let order = ljqo::plan::random_valid_order(query.graph(), &comp, &mut rng);
        if let Ok(stats) = execute_order(&query, &data, order.rels()) {
            finals.push(stats.final_rows());
        }
    }
    assert!(finals.len() >= 2);
    assert!(
        finals.windows(2).all(|w| w[0] == w[1]),
        "join result must not depend on the order: {finals:?}"
    );
}
