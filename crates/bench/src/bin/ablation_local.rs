//! Ablation: the local-improvement strategy grid (paper §4.3).
//!
//! For each (cluster, overlap) strategy on the paper's ladder, apply local
//! improvement to random valid start states and report the mean scaled
//! cost after improvement plus the evaluations a pass consumes — the data
//! behind the paper's conclusion that only small clusters are affordable
//! and that `(5,4) ≻ (4,3) ≻ (3,2) ≻ (2,1) ≻ (2,0)` given the budget.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use ljqo::eval::scaled_cost;
use ljqo_bench::Args;
use ljqo_cost::{Evaluator, MemoryCostModel};
use ljqo_heuristics::local::STRATEGY_LADDER;
use ljqo_plan::random_valid_order;
use ljqo_workload::{generate_query, Benchmark};

fn main() {
    let args = Args::parse();
    let queries_per_n = args.queries_per_n.unwrap_or(5);
    let ns = [10usize, 20, 30];
    let model = MemoryCostModel::default();

    println!("ablation_local — local improvement strategies on random starts");
    println!(
        "{:>8} {:>10} {:>14} {:>14} {:>14}",
        "(c,o)", "queries", "pass evals", "scaled before", "scaled after"
    );

    let mut rows = Vec::new();
    for strategy in STRATEGY_LADDER {
        let mut before_sum = 0.0;
        let mut after_sum = 0.0;
        let mut count = 0usize;
        let mut pass_evals = 0u64;
        for &n in &ns {
            pass_evals = pass_evals.max(strategy.pass_evaluations(n + 1));
            for qi in 0..queries_per_n {
                let seed = args.seed.unwrap_or(0x10ca1) + (n as u64) * 1000 + qi as u64;
                let query = generate_query(&Benchmark::Default.spec(), n, seed);
                let comp: Vec<_> = query.rel_ids().collect();
                let mut rng = SmallRng::seed_from_u64(seed ^ 0xabc);

                // Reference: a strong IAI run.
                let reference = {
                    let cfg = ljqo::OptimizerConfig::new(ljqo::Method::Iai).with_seed(seed);
                    ljqo::Optimizer::new(&model, &cfg)
                        .solve(&query)
                        .unwrap()
                        .0
                        .cost
                };

                let mut order = random_valid_order(query.graph(), &comp, &mut rng);
                let mut ev = Evaluator::new(&query, &model);
                let before = ev.cost(&order);
                strategy.improve(&mut ev, &mut order);
                let after = ev.cost_uncharged(&order);

                before_sum += scaled_cost(before, reference);
                after_sum += scaled_cost(after, reference);
                count += 1;
            }
        }
        println!(
            "{:>8} {:>10} {:>14} {:>14.2} {:>14.2}",
            format!("({},{})", strategy.cluster, strategy.overlap),
            count,
            pass_evals,
            before_sum / count as f64,
            after_sum / count as f64,
        );
        rows.push(ljqo_json::json!({
            "cluster": strategy.cluster,
            "overlap": strategy.overlap,
            "pass_evals_n30": pass_evals,
            "scaled_before": before_sum / count as f64,
            "scaled_after": after_sum / count as f64,
        }));
    }

    let out = ljqo_json::json!({ "experiment": "ablation_local", "rows": rows });
    std::fs::create_dir_all(&args.out_dir).ok();
    let path = args.out_dir.join("ablation_local.json");
    match std::fs::write(&path, out.to_string_pretty()) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
