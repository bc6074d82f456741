//! Tour of the synthetic benchmarks: generate one query from the default
//! distributions and from each of the nine §5 variations, print its
//! shape statistics, and optimize it with IAI — a quick feel for how the
//! variations change the problem.
//!
//! ```sh
//! cargo run --release --example benchmark_tour
//! ```

use ljqo::prelude::*;
use ljqo_workload::{generate_query, Benchmark};

fn main() {
    let n = 30;
    println!("one {n}-join query per benchmark (seed 7):\n");
    println!(
        "{:>2} {:<18} {:>6} {:>9} {:>9} {:>8} {:>12}",
        "#", "benchmark", "edges", "max card", "max deg", "evals", "IAI cost"
    );
    for bench in Benchmark::ALL {
        let query = generate_query(&bench.spec(), n, 7);
        let max_card = query
            .rel_ids()
            .map(|r| query.cardinality(r))
            .fold(0.0f64, f64::max);
        let max_deg = query
            .rel_ids()
            .map(|r| query.graph().degree(r))
            .max()
            .unwrap();

        let model = MemoryCostModel::default();
        let result = Optimizer::new(&model, &OptimizerConfig::new(Method::Iai).with_seed(1))
            .solve(&query)
            .unwrap()
            .0;
        println!(
            "{:>2} {:<18} {:>6} {:>9.0} {:>9} {:>8} {:>12.3e}",
            bench.number(),
            bench.name(),
            query.graph().edges().len(),
            max_card,
            max_deg,
            result.n_evals,
            result.cost
        );
    }
    println!(
        "\nstar graphs concentrate degree on a hub; dense graphs carry extra \
         predicates;\nthe distinct-value variations change intermediate sizes \
         rather than the graph."
    );
}
