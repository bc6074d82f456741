//! Extension experiment: linear vs bushy join trees — the paper's open
//! problem.
//!
//! §2 restricts the search to outer linear trees on the *assumption*
//! that enough low-cost trees are linear, noting that "the validation of
//! this assumption is an open problem". For components small enough to
//! solve exactly, this binary computes the optimum in each space with
//! the one exact DP (`2^k` subsets in the linear space, `O(3^k)` splits
//! in the bushy space) and reports the ratio — per benchmark shape,
//! since stars and chains constrain the tree shapes very differently.

use ljqo::dp::{dp_limit, optimal_dp};
use ljqo::SearchSpace::{Bushy, Linear};
use ljqo_bench::Args;
use ljqo_cost::{DiskCostModel, MemoryCostModel};
use ljqo_workload::{generate_query, Benchmark};

fn main() {
    let args = Args::parse();
    let queries_per_bench = args.queries_per_n.unwrap_or(8);
    // N relations = joins + 1 must fit the exact bushy DP.
    let max_joins = dp_limit(Bushy) - 1;
    let n_joins = match args.joins {
        Some(j) if j > max_joins => {
            eprintln!(
                "--joins {j} exceeds the exact DP's bushy-space limit of {} relations; \
                 clamping to {max_joins} joins (use the bushy_search bench for larger N)",
                dp_limit(Bushy)
            );
            max_joins
        }
        Some(j) => j.max(1),
        None => 12,
    };
    let memory = MemoryCostModel::default();
    let disk = DiskCostModel::default();

    println!(
        "ext_bushy — linear-tree optimum / bushy-tree optimum at N={n_joins} \
         (1.000 = linear is exactly optimal)"
    );
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>12}",
        "benchmark", "mean(mem)", "max(mem)", "mean(disk)", "bushy wins"
    );

    let mut rows = Vec::new();
    for bench in [
        Benchmark::Default,
        Benchmark::GraphDense,
        Benchmark::GraphStar,
        Benchmark::GraphChain,
        Benchmark::DistinctFewer,
    ] {
        let mut mem_sum = 0.0;
        let mut mem_max = 1.0f64;
        let mut disk_sum = 0.0;
        let mut wins = 0usize;
        for qi in 0..queries_per_bench {
            let seed = args.seed.unwrap_or(0xb5) + qi as u64;
            let query = generate_query(&bench.spec(), n_joins, seed);
            let comp: Vec<_> = query.rel_ids().collect();

            // The DP returns typed errors for oversized or disconnected
            // inputs; neither can occur here (joins are clamped above,
            // generated queries are connected), so an error is a real bug
            // worth surfacing.
            let optimum = |model, space| {
                optimal_dp(&query, &comp, model, space)
                    .expect("DP rejected a clamped, connected query")
                    .expect("generated queries have at least two relations")
            };
            let (_, lin_m) = optimum(&memory, Linear);
            let (tree, bush_m) = optimum(&memory, Bushy);
            let ratio_m = lin_m / bush_m;
            mem_sum += ratio_m;
            mem_max = mem_max.max(ratio_m);
            if !tree.is_linear() && ratio_m > 1.0 + 1e-9 {
                wins += 1;
            }

            let (_, lin_d) = optimum(&disk, Linear);
            let (_, bush_d) = optimum(&disk, Bushy);
            disk_sum += lin_d / bush_d;
        }
        let q = queries_per_bench as f64;
        println!(
            "{:<18} {:>10.3} {:>10.3} {:>10.3} {:>9}/{}",
            bench.name(),
            mem_sum / q,
            mem_max,
            disk_sum / q,
            wins,
            queries_per_bench
        );
        rows.push(ljqo_json::json!({
            "benchmark": bench.name(),
            "mean_ratio_memory": mem_sum / q,
            "max_ratio_memory": mem_max,
            "mean_ratio_disk": disk_sum / q,
            "bushy_strictly_better": wins,
            "queries": queries_per_bench,
        }));
    }
    println!(
        "\nratios near 1.0 support the paper's linear-tree assumption for these\n\
         benchmarks; larger ratios mark shapes where bushy plans genuinely help."
    );

    let out = ljqo_json::json!({ "experiment": "ext_bushy", "n": n_joins, "rows": rows });
    std::fs::create_dir_all(&args.out_dir).ok();
    let path = args.out_dir.join("ext_bushy.json");
    match std::fs::write(&path, out.to_string_pretty()) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
