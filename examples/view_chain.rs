//! Chain-of-views workload: the paper's motivation includes queries whose
//! join count balloons invisibly through nested views (and deductive
//! database rule expansion). Here a 40-join chain query — each "view"
//! joins one more relation onto the previous — is optimized under both
//! cost models, demonstrating the paper's §6.2 claim that the method
//! ranking is insensitive to the cost model.
//!
//! ```sh
//! cargo run --release --example view_chain
//! ```

use ljqo::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn build_chain(n_joins: usize, seed: u64) -> Query {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = QueryBuilder::new();
    let mut names = Vec::new();
    for i in 0..=n_joins {
        let name = format!("v{i:02}");
        let card = 10u64.pow(rng.gen_range(1..=4)) * rng.gen_range(1u64..10);
        b = b.relation(&name, card);
        names.push((name, card));
    }
    for i in 1..=n_joins {
        let (prev, pc) = names[i - 1].clone();
        let (cur, cc) = names[i].clone();
        let d_prev = pc as f64 * rng.gen_range(0.05..0.5);
        let d_cur = cc as f64 * rng.gen_range(0.05..0.5);
        b = b.join_on_distincts(&prev, &cur, d_prev, d_cur);
    }
    b.build().expect("chain query is well-formed")
}

fn main() {
    let query = build_chain(40, 2024);
    println!(
        "view chain: {} relations, {} joins\n",
        query.n_relations(),
        query.n_joins()
    );

    let memory = MemoryCostModel::default();
    let disk = DiskCostModel::default();

    println!(
        "{:>8} {:>14} {:>14} {:>14}   (cost model)",
        "limit", "IAI", "AGI", "II"
    );
    for (label, model) in [
        ("memory", &memory as &dyn CostModel),
        ("disk", &disk as &dyn CostModel),
    ] {
        for tau in [0.5, 9.0] {
            print!("{tau:>7.1}N²");
            for method in [Method::Iai, Method::Agi, Method::Ii] {
                let config = OptimizerConfig::new(method)
                    .with_time_limit(tau)
                    .with_seed(99);
                let result = Optimizer::new(model, &config).solve(&query).unwrap().0;
                print!(" {:>14.6e}", result.cost);
            }
            println!("   ({label})");
        }
    }

    // How large would System-R dynamic programming's table be here?
    println!(
        "\nSystem-R DP would need 2^{} ≈ {:.1e} subset states for this query — \
         the infeasibility that motivates the paper.",
        query.n_relations(),
        2f64.powi(query.n_relations() as i32)
    );

    let best = Optimizer::new(&memory, &OptimizerConfig::new(Method::Iai).with_seed(99))
        .solve(&query)
        .unwrap()
        .0;
    println!(
        "\nIAI join order (permutation notation):\n{}",
        best.plan.segments[0]
    );
}
