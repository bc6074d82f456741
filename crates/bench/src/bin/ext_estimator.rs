//! Extension experiment: static vs distinct-propagating cardinality
//! estimation, judged against executed ground truth.
//!
//! For each benchmark the mini engine executes random valid plans over
//! synthetic data and both estimators predict every intermediate size;
//! we report the geometric q-error (multiplicative estimation error) of
//! each and the number of steps it is taken over.
//!
//! The default run (`results/ext_estimator.json`) does not show
//! propagation winning everywhere. The two estimators tie on the default
//! benchmark (1.497 each). Propagation is ahead on star graphs (1.563 vs
//! 1.585) and behind on dense graphs (1.792 vs 1.728) and chain graphs
//! (1.744 vs 1.728).

use rand::rngs::SmallRng;
use rand::SeedableRng;

use ljqo_bench::propagate::intermediate_sizes_propagated;
use ljqo_bench::Args;
use ljqo_cost::estimate::intermediate_sizes;
use ljqo_exec::{generate_data, ExecutionEngine};
use ljqo_plan::random_valid_order;
use ljqo_workload::{generate_query, Benchmark, CardinalityDist, QuerySpec};

fn geo_q_error(estimates: &[f64], measured: &[usize]) -> (f64, usize) {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (&e, &m) in estimates.iter().zip(measured) {
        if m >= 5 {
            sum += (e / m as f64).ln().abs();
            n += 1;
        }
    }
    (
        if n == 0 {
            f64::NAN
        } else {
            (sum / n as f64).exp()
        },
        n,
    )
}

fn main() {
    let args = Args::parse();
    let queries_per_bench = args.queries_per_n.unwrap_or(4);
    let plans_per_query = 4;
    let n_joins = 8; // execution must stay cheap

    println!("ext_estimator — geometric q-error vs executed ground truth (N={n_joins})");
    println!(
        "{:<18} {:>10} {:>12} {:>12} {:>8}",
        "benchmark", "steps", "static", "propagated", "better?"
    );

    let mut rows = Vec::new();
    for bench in [
        Benchmark::Default,
        Benchmark::GraphDense,
        Benchmark::GraphStar,
        Benchmark::GraphChain,
    ] {
        // Shrink cardinalities so execution is fast but keep the
        // benchmark's graph shape and distinct distributions.
        let spec = QuerySpec {
            cardinalities: CardinalityDist::Uniform(50, 2_000),
            ..bench.spec()
        };
        let engine = ExecutionEngine {
            max_rows: 2_000_000,
        };
        let mut static_sum = 0.0;
        let mut prop_sum = 0.0;
        let mut steps = 0usize;
        let mut batches = 0usize;
        for qi in 0..queries_per_bench {
            let seed = args.seed.unwrap_or(0xe57) + qi as u64;
            let query = generate_query(&spec, n_joins, seed);
            let data = generate_data(&query, seed ^ 0xda7a);
            let comp: Vec<_> = query.rel_ids().collect();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x9);
            for _ in 0..plans_per_query {
                let order = random_valid_order(query.graph(), &comp, &mut rng);
                let Ok(stats) = engine.execute(&query, &data, order.rels()) else {
                    continue;
                };
                let s = intermediate_sizes(&query, order.rels());
                let p = intermediate_sizes_propagated(&query, order.rels());
                let (qs, ns) = geo_q_error(&s, &stats.intermediate_rows);
                let (qp, np) = geo_q_error(&p, &stats.intermediate_rows);
                if ns > 0 && np > 0 {
                    static_sum += qs.ln();
                    prop_sum += qp.ln();
                    steps += ns;
                    batches += 1;
                }
            }
        }
        let static_geo = (static_sum / batches.max(1) as f64).exp();
        let prop_geo = (prop_sum / batches.max(1) as f64).exp();
        println!(
            "{:<18} {:>10} {:>12.3} {:>12.3} {:>8}",
            bench.name(),
            steps,
            static_geo,
            prop_geo,
            if prop_geo <= static_geo * 1.001 {
                "yes"
            } else {
                "no"
            }
        );
        rows.push(ljqo_json::json!({
            "benchmark": bench.name(),
            "static_geo_q_error": static_geo,
            "propagated_geo_q_error": prop_geo,
            "comparable_steps": steps,
        }));
    }

    let out = ljqo_json::json!({ "experiment": "ext_estimator", "rows": rows });
    std::fs::create_dir_all(&args.out_dir).ok();
    let path = args.out_dir.join("ext_estimator.json");
    match std::fs::write(&path, out.to_string_pretty()) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
