//! Close the loop: optimize a query, then actually EXECUTE the chosen
//! plan (and a deliberately bad one) on synthetic data with real hash
//! joins, comparing the estimator's intermediate sizes against measured
//! row counts and the cost model's ranking against measured work.
//!
//! ```sh
//! cargo run --release --example executed_plan
//! ```

use ljqo::prelude::*;
use ljqo_exec::{generate_data, validate_order};

fn main() {
    // Moderate sizes so execution stays fast.
    let query = QueryBuilder::new()
        .relation("users", 20_000)
        .relation("sessions", 80_000)
        .relation("events", 200_000)
        .relation("devices", 5_000)
        .relation("plans", 40)
        .relation("regions", 12)
        .join_on_distincts("users", "sessions", 20_000.0, 20_000.0)
        .join_on_distincts("sessions", "events", 80_000.0, 80_000.0)
        .join_on_distincts("sessions", "devices", 5_000.0, 5_000.0)
        .join_on_distincts("users", "plans", 40.0, 40.0)
        .join_on_distincts("users", "regions", 12.0, 12.0)
        .build()
        .expect("query is well-formed");

    let model = MemoryCostModel::default();
    let result = Optimizer::new(&model, &OptimizerConfig::new(Method::Iai).with_seed(3))
        .solve(&query)
        .unwrap()
        .0;
    let good = result.plan.segments[0].clone();

    // A worst-ish plan: the most expensive valid order among sampled
    // candidates.
    use rand::SeedableRng as _;
    let component: Vec<RelId> = query.rel_ids().collect();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(17);
    let mut worst = good.clone();
    let mut worst_cost = model.order_cost(&query, worst.rels());
    for _ in 0..200 {
        let cand = ljqo::plan::random_valid_order(query.graph(), &component, &mut rng);
        let c = model.order_cost(&query, cand.rels());
        if c > worst_cost {
            worst_cost = c;
            worst = cand;
        }
    }

    println!("generating data ({} relations)...", query.n_relations());
    let data = generate_data(&query, 11);

    for (label, order) in [("optimized", &good), ("bad", &worst)] {
        let est_cost = model.order_cost(&query, order.rels());
        match validate_order(&query, &data, order.rels()) {
            Ok(report) => {
                println!("\n{label} plan {order} — model cost {est_cost:.3e}");
                print!("{}", report.render(&query));
            }
            Err(e) => println!("\n{label} plan {order}: execution aborted: {e}"),
        }
    }
}
