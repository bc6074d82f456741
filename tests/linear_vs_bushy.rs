//! Cross-crate checks of the bushy-tree DP against the linear DP and the
//! randomized methods, on workload-generated queries (the paper's open
//! problem about restricting to outer linear trees).

use ljqo::prelude::*;
use ljqo_workload::{generate_query, Benchmark};

#[test]
fn bushy_optimum_lower_bounds_linear_methods() {
    let model = MemoryCostModel::default();
    for seed in 0..6u64 {
        let query = generate_query(&Benchmark::Default.spec(), 10, 0xb5 + seed);
        let comp: Vec<RelId> = query.rel_ids().collect();
        let (_, linear) = optimal_order_dp(&query, &comp, &model).unwrap();
        let (tree, bushy) = optimal_bushy_dp(&query, &comp, &model).unwrap().unwrap();
        assert!(
            bushy <= linear * (1.0 + 1e-12),
            "seed {seed}: bushy {bushy} > linear {linear}"
        );
        assert_eq!(tree.n_leaves(), comp.len());

        // Every method's (linear-space) result is bounded below by the
        // bushy optimum too.
        let r = Optimizer::new(&model, &OptimizerConfig::new(Method::Iai).with_seed(seed))
            .solve(&query)
            .unwrap()
            .0;
        assert!(r.cost >= bushy - bushy * 1e-9);
    }
}

#[test]
fn linear_assumption_holds_on_default_benchmark() {
    // The paper assumes good linear trees exist; on the default benchmark
    // at N = 10 the linear optimum should typically be within a small
    // factor of the bushy optimum.
    let model = MemoryCostModel::default();
    let mut worst: f64 = 1.0;
    for seed in 0..8u64 {
        let query = generate_query(&Benchmark::Default.spec(), 10, 0x11ea + seed);
        let comp: Vec<RelId> = query.rel_ids().collect();
        let (_, linear) = optimal_order_dp(&query, &comp, &model).unwrap();
        let (_, bushy) = optimal_bushy_dp(&query, &comp, &model).unwrap().unwrap();
        worst = worst.max(linear / bushy);
    }
    assert!(
        worst < 3.0,
        "linear optimum strayed {worst}x from the bushy optimum"
    );
}
