//! Baseline: how close do the methods get to the true optimum?
//!
//! For N small enough that System-R dynamic programming is feasible
//! (the regime the paper contrasts itself against), compute the exact
//! optimal left-deep order and report each method's cost ratio to it at
//! 9N². This validates that "scaled cost ≈ 1" in the main experiments
//! really means near-optimal, not merely "as good as the other methods".

use ljqo::dp::optimal_dp;
use ljqo::{Method, MethodRunner, RandomSampling, SearchSpace};
use ljqo_bench::Args;
use ljqo_cost::{Evaluator, MemoryCostModel, TimeLimit};
use ljqo_workload::{generate_query, Benchmark};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse();
    let queries_per_n = args.queries_per_n.unwrap_or(10);
    let kappa = args.kappa.unwrap_or(5.0);
    let ns = [10usize, 12, 14];
    let model = MemoryCostModel::default();
    let runner = MethodRunner::default();

    println!("baseline_dp — method cost / DP optimum at 9N² (mean over queries)");
    print!("{:>4} |", "N");
    for m in Method::ALL {
        print!(" {:>6}", m.name());
    }
    print!(" {:>6}", "RAND");
    println!();
    println!("{}", "-".repeat(6 + 7 * (Method::ALL.len() + 1)));

    let mut rows = Vec::new();
    for &n in &ns {
        let mut ratios = vec![0.0f64; Method::ALL.len() + 1];
        for qi in 0..queries_per_n {
            let seed = args.seed.unwrap_or(0xd9) + (n as u64) * 7919 + qi as u64;
            let query = generate_query(&Benchmark::Default.spec(), n, seed);
            let comp: Vec<_> = query.rel_ids().collect();
            let (_, opt) = optimal_dp(&query, &comp, &model, SearchSpace::Linear)
                .expect("generated queries are connected and fit the DP")
                .expect("n >= 2");
            let budget = TimeLimit::of(9.0).units(n, kappa);
            for (mi, m) in Method::ALL.into_iter().enumerate() {
                let mut ev = Evaluator::with_budget(&query, &model, budget);
                let mut rng = SmallRng::seed_from_u64(seed ^ 0x77);
                runner.run(m, &mut ev, &comp, &mut rng);
                let cost = ev.best().map(|(_, c)| c).unwrap_or(f64::INFINITY);
                ratios[mi] += (cost / opt).min(10.0);
            }
            // The SG88 strawman at the same budget: random sampling.
            let mut ev = Evaluator::with_budget(&query, &model, budget);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x77);
            RandomSampling.run(&mut ev, &comp, &mut rng);
            let cost = ev.best().map(|(_, c)| c).unwrap_or(f64::INFINITY);
            ratios[Method::ALL.len()] += (cost / opt).min(10.0);
        }
        print!("{n:>4} |");
        let mut row = Vec::new();
        for r in &ratios {
            let mean = r / queries_per_n as f64;
            print!(" {mean:>6.3}");
            row.push(mean);
        }
        println!();
        rows.push(ljqo_json::json!({ "n": n, "ratio_to_optimum": row }));
    }

    let out = ljqo_json::json!({
        "experiment": "baseline_dp",
        "methods": Method::ALL.iter().map(|m| m.name()).chain(std::iter::once("RAND")).collect::<Vec<_>>(),
        "rows": rows,
    });
    std::fs::create_dir_all(&args.out_dir).ok();
    let path = args.out_dir.join("baseline_dp.json");
    match std::fs::write(&path, out.to_string_pretty()) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
