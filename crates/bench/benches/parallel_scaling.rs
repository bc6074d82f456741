//! Parallel search scaling: worker fan-out and batch throughput on an
//! N = 50 workload.
//!
//! Two experiments:
//!
//! * **isolated scaling** — `run_portfolio` at a fixed *total* budget,
//!   per worker count w ∈ {1, 2, 4, 8}. Sharding keeps total work
//!   constant, so wall-clock gains here come purely from hardware
//!   threads; the snapshot records `hardware_threads` so a single-core
//!   run (flat wall times) is distinguishable from a multicore one
//!   (≈ min(w, threads)× speedup).
//! * **batch throughput** — [`Optimizer::solve_batch`] over many smaller
//!   queries at 1 vs 4 pool threads.
//!
//! Writes `BENCH_parallel.json` (see [`ljqo_bench::snapshot`] for
//! `BENCH_OUT_DIR` and the seconds-long `BENCH_SMOKE` run).

use ljqo_bench::timing::{bench_ns, black_box};

use ljqo::prelude::*;
use ljqo_workload::{generate_query, Benchmark};

const WORKER_GRID: [usize; 4] = [1, 2, 4, 8];

fn json_num(x: f64) -> ljqo_json::Value {
    ljqo_json::Value::Number((x * 1000.0).round() / 1000.0)
}

fn main() {
    let smoke = ljqo_bench::snapshot::smoke();
    let (n, budget, batch_n, batch_size) = if smoke {
        (12usize, 4_000u64, 8usize, 8usize)
    } else {
        (50usize, 60_000u64, 20usize, 32usize)
    };

    let hardware_threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let model = MemoryCostModel::default();
    let runner = MethodRunner::default();
    let query = generate_query(&Benchmark::Default.spec(), n, 3);
    let comp: Vec<RelId> = query.rel_ids().collect();

    // --- Isolated scaling at a fixed total budget -----------------------
    let mut scaling_rows: Vec<ljqo_json::Value> = Vec::new();
    for &w in &WORKER_GRID {
        let mut cost = f64::NAN;
        let mut units = 0u64;
        let ns = bench_ns(&format!("isolated/N{n}/workers{w}"), || {
            let r = run_portfolio(
                &query,
                &model,
                &runner,
                &[Method::Ii],
                &comp,
                &ParallelOptions::new(budget, w, 9),
            )
            .expect("budgeted run yields a state");
            cost = r.cost;
            units = r.units_used;
            black_box(r.cost)
        });
        scaling_rows.push(ljqo_json::json!({
            "workers": w as u64,
            "wall_ms": json_num(ns / 1e6),
            "cost": cost,
            "units_used": units,
        }));
    }

    // --- Batch throughput ------------------------------------------------
    let queries: Vec<Query> = (0..batch_size)
        .map(|i| generate_query(&Benchmark::Default.spec(), batch_n, 100 + i as u64))
        .collect();
    let cfg = OptimizerConfig::new(Method::Iai)
        .with_time_limit(1.0)
        .with_seed(17);
    let mut batch_rows: Vec<ljqo_json::Value> = Vec::new();
    for threads in [1usize, 4] {
        let opts = BatchOptions {
            threads,
            per_query_deadline: None,
        };
        let mut failed = usize::MAX;
        let ns = bench_ns(
            &format!("batch/{batch_size}xN{batch_n}/threads{threads}"),
            || {
                let report = Optimizer::new(&model, &cfg)
                    .with_batch(opts)
                    .solve_batch(&queries);
                failed = report.n_failed;
                black_box(report.units_used)
            },
        );
        assert_eq!(failed, 0, "batch queries must all plan");
        batch_rows.push(ljqo_json::json!({
            "threads": threads as u64,
            "queries": batch_size as u64,
            "n_per_query": batch_n as u64,
            "wall_ms": json_num(ns / 1e6),
        }));
    }

    let report = ljqo_json::json!({
        "bench": "parallel_scaling",
        "description": "Worker fan-out scaling at a fixed total budget, and batch throughput",
        "model": "memory",
        "workload": "Benchmark::Default (random graphs)",
        "n_relations": n as u64,
        "total_budget_units": budget,
        "hardware_threads": hardware_threads as u64,
        "smoke": smoke,
        "isolated_scaling": ljqo_json::Value::Array(scaling_rows),
        "batch_throughput": ljqo_json::Value::Array(batch_rows),
    });

    ljqo_bench::snapshot::write_snapshot("BENCH_parallel.json", &report);
}
