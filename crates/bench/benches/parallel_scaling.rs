//! Parallel search scaling: isolated fan-out, cooperative wind-down, and
//! batch throughput on an N = 50 workload.
//!
//! Three experiments, per worker count w ∈ {1, 2, 4, 8}:
//!
//! * **isolated scaling** — `run_portfolio` at a fixed *total* budget.
//!   Sharding keeps total work constant, so wall-clock gains here come
//!   purely from hardware threads; the snapshot records
//!   `hardware_threads` so a single-core run (flat wall times) is
//!   distinguishable from a multicore one (≈ w× speedup).
//! * **cooperative wind-down** — the same run with a reachable stop
//!   threshold, [`Cooperation::Isolated`] vs [`Cooperation::SharedBest`].
//!   In isolated mode each worker must reach the bar (or its budget) on
//!   its own; in cooperative mode the first worker there winds everyone
//!   down. The saved units are a wall-clock win on *any* core count —
//!   this is the end-to-end speedup the snapshot's `speedup` column
//!   reports at 4 and 8 workers.
//! * **batch throughput** — [`Optimizer::solve_batch`] over many smaller queries
//!   at 1 vs 4 pool threads.
//!
//! The run also asserts the quality-monotonicity contract on the grid:
//! at equal total budget, `SharedBest` never returns a worse cost than
//! `Isolated`.
//!
//! Writes `BENCH_parallel.json` at the workspace root (override with
//! `BENCH_PARALLEL_OUT`; set `PARALLEL_SCALING_SMOKE=1` for a
//! seconds-long CI-sized run).

use std::io::Write as _;
use std::time::Instant;

use ljqo_bench::timing::{bench_ns, black_box};

use ljqo::prelude::*;
use ljqo_workload::{generate_query, Benchmark};

const WORKER_GRID: [usize; 4] = [1, 2, 4, 8];

fn json_num(x: f64) -> ljqo_json::Value {
    ljqo_json::Value::Number((x * 1000.0).round() / 1000.0)
}

fn main() {
    let smoke = std::env::var("PARALLEL_SCALING_SMOKE").is_ok();
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
                None,
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

    // --- Quality grid: SharedBest is never worse at equal budget --------
    let mut quality_rows: Vec<ljqo_json::Value> = Vec::new();
    for &w in &WORKER_GRID {
        let base = ParallelOptions::new(budget, w, 9);
        let iso =
            run_portfolio(&query, &model, &runner, &[Method::Ii], &comp, &base, None).unwrap();
        let coop = run_portfolio(
            &query,
            &model,
            &runner,
            &[Method::Ii],
            &comp,
            &base.with_cooperation(Cooperation::SharedBest),
            None,
        )
        .unwrap();
        assert!(
            coop.cost <= iso.cost,
            "SharedBest must never be worse at equal budget: {} vs {} at {w} workers",
            coop.cost,
            iso.cost
        );
        quality_rows.push(ljqo_json::json!({
            "workers": w as u64,
            "isolated_cost": iso.cost,
            "shared_best_cost": coop.cost,
        }));
    }

    // --- Cooperative wind-down: the end-to-end wall-clock win -----------
    // Threshold from a cheap pilot: what a single II worker reaches with
    // 5% of the budget, with 10% slack. The full-budget searches reach it
    // comfortably, but from an unlucky random start only after a while —
    // exactly the case where the first finisher's publish saves the rest.
    let pilot = run_portfolio(
        &query,
        &model,
        &runner,
        &[Method::Ii],
        &comp,
        &ParallelOptions::new((budget / 20).max(200), 1, 7),
        None,
    )
    .unwrap();
    let threshold = pilot.cost * 1.1;
    let mut winddown_rows: Vec<ljqo_json::Value> = Vec::new();
    for &w in &WORKER_GRID {
        let base = ParallelOptions::new(budget, w, 9).with_stop_threshold(threshold);
        let mut measured = Vec::new();
        for coop in [Cooperation::Isolated, Cooperation::SharedBest] {
            let opts = base.with_cooperation(coop);
            let mut cost = f64::NAN;
            let mut units = 0u64;
            let started = Instant::now();
            let reps = if smoke { 3 } else { 10 };
            for _ in 0..reps {
                let r = run_portfolio(&query, &model, &runner, &[Method::Ii], &comp, &opts, None)
                    .unwrap();
                cost = r.cost;
                units = r.units_used;
                black_box(r.cost);
            }
            let wall_ms = started.elapsed().as_secs_f64() * 1e3 / reps as f64;
            println!("winddown/N{n}/workers{w}/{coop:?}: {wall_ms:.3} ms, {units} units");
            measured.push((wall_ms, cost, units));
        }
        let (iso, coop) = (&measured[0], &measured[1]);
        let speedup = iso.0 / coop.0;
        println!("winddown/N{n}/workers{w}/speedup: {speedup:.2}x");
        winddown_rows.push(ljqo_json::json!({
            "workers": w as u64,
            "isolated_wall_ms": json_num(iso.0),
            "cooperative_wall_ms": json_num(coop.0),
            "speedup": json_num(speedup),
            "isolated_units": iso.2,
            "cooperative_units": coop.2,
            "isolated_cost": iso.1,
            "cooperative_cost": coop.1,
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
        "description": "Isolated fan-out scaling, cooperative shared-best wind-down, and batch throughput",
        "model": "memory",
        "workload": "Benchmark::Default (random graphs)",
        "n_relations": n as u64,
        "total_budget_units": budget,
        "hardware_threads": hardware_threads as u64,
        "smoke": smoke,
        "stop_threshold": threshold,
        "isolated_scaling": ljqo_json::Value::Array(scaling_rows),
        "quality_grid": ljqo_json::Value::Array(quality_rows),
        "cooperative_winddown": ljqo_json::Value::Array(winddown_rows),
        "batch_throughput": ljqo_json::Value::Array(batch_rows),
    });

    let out = std::env::var("BENCH_PARALLEL_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_parallel.json", env!("CARGO_MANIFEST_DIR")));
    let mut f = std::fs::File::create(&out).expect("create BENCH_parallel.json");
    f.write_all(report.to_string_pretty().as_bytes())
        .and_then(|_| f.write_all(b"\n"))
        .expect("write BENCH_parallel.json");
    println!("wrote {out}");
}
