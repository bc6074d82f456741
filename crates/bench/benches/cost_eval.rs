//! Microbenchmarks of the cost-evaluation hot path.
//!
//! One budget unit corresponds to one plan evaluation; these benches
//! measure what a unit costs in wall time for both models across query
//! sizes, plus the estimator on its own.

use ljqo_bench::timing::{bench, black_box};
use ljqo_cost::estimate::{intermediate_sizes, SizeWalker};
use ljqo_cost::{DiskCostModel, MemoryCostModel, OrderCost};
use ljqo_plan::JoinOrder;
use ljqo_workload::{generate_query, Benchmark};

fn bench_order_cost() {
    for &n in &[10usize, 50, 100] {
        let query = generate_query(&Benchmark::Default.spec(), n, 42);
        let order = JoinOrder::identity(&query);
        let memory = MemoryCostModel::default();
        let disk = DiskCostModel::default();
        let mut walker = SizeWalker::new(query.n_relations());

        bench(&format!("order_cost/memory/{n}"), || {
            memory.order_cost_with(&query, black_box(order.rels()), &mut walker)
        });
        bench(&format!("order_cost/disk/{n}"), || {
            disk.order_cost_with(&query, black_box(order.rels()), &mut walker)
        });
    }
}

fn bench_estimator() {
    for &n in &[10usize, 50, 100] {
        let query = generate_query(&Benchmark::Default.spec(), n, 7);
        let order = JoinOrder::identity(&query);
        bench(&format!("estimator/intermediate_sizes/{n}"), || {
            intermediate_sizes(&query, black_box(order.rels()))
        });
    }
}

fn main() {
    bench_order_cost();
    bench_estimator();
}
