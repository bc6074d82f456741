//! The `plan_large` workload: in-process `try_optimize` (the call
//! `ljqo-opt` makes) over a fixed, seeded set of large random join graphs
//! — no server, no cache, only the search loop in the multi-word bitset
//! tier. Each solve is single-threaded; two solver threads walk the set
//! in opposite orders so every query is timed on both cores.

use std::time::{Duration, Instant};

use ljqo::bound::{bound_report, BoundReport};
use ljqo::{try_optimize, Method, Optimized, OptimizerConfig};
use ljqo_catalog::Query;
use ljqo_cost::{BudgetSchedule, MemoryCostModel};
use ljqo_workload::{generate_query, Benchmark};

use crate::layers::{self, CoreStats, LayerReport};
use crate::report::{mean, percentile, repeat_setup, sorted, Latency, Outcome};
use crate::{check_plan, mix};

/// Queries in the set: few enough that each is solved about a dozen times
/// in a 30-second window, so its fastest solve is one the host did not
/// slow.
const QUERIES: usize = 50;
/// Joins per query (201 relations: the 4-word bitset tier).
const N_JOINS: usize = 200;
/// Set-up repetitions (at least this many, over at least `SETUP_SECS`);
/// `setup_s` is their median.
const SETUPS: usize = 3;
const SETUP_SECS: f64 = 3.0;
/// Tail percentile: with one latency per query, p80 leaves 10 beyond it.
const TAIL_Q: f64 = 0.8;
/// Queries whose moves the traced run times.
const MOVE_QUERIES: usize = 8;

/// II at τ = 1 under the `nlogn:256` budget schedule, fixed seed.
pub fn optimizer_config() -> OptimizerConfig {
    OptimizerConfig::new(Method::Ii)
        .with_time_limit(1.0)
        .with_schedule(BudgetSchedule::NlogN { threshold: 256 })
}

fn setup(seed: u64) -> Vec<(Query, BoundReport)> {
    let model = MemoryCostModel::default();
    let spec = Benchmark::Default.spec();
    (0..QUERIES)
        .map(|k| {
            let q = generate_query(&spec, N_JOINS, mix(seed ^ mix(k as u64)));
            let b = bound_report(&q, &model);
            (q, b)
        })
        .collect()
}

/// One timed `try_optimize` call.
struct Solve {
    query: usize,
    secs: f64,
    result: Result<Optimized, String>,
}

/// Solve `queries` round-robin, from the back when `reverse`, until `end`
/// has passed and at least one full pass is done.
fn solve_until(
    queries: &[(Query, BoundReport)],
    model: &MemoryCostModel,
    config: &OptimizerConfig,
    reverse: bool,
    end: Instant,
) -> Vec<Solve> {
    let mut out = Vec::new();
    let mut k = 0usize;
    while k < queries.len() || Instant::now() < end {
        let query = if reverse {
            queries.len() - 1 - k % queries.len()
        } else {
            k % queries.len()
        };
        k += 1;
        let t = Instant::now();
        let result = try_optimize(&queries[query].0, model, config).map_err(|e| e.to_string());
        out.push(Solve {
            query,
            secs: t.elapsed().as_secs_f64(),
            result,
        });
    }
    out
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let (queries, setup_s) = repeat_setup(SETUPS, SETUP_SECS, || setup(seed), drop);
    println!(
        "setup: {QUERIES} random-graph queries with {N_JOINS} joins, median set-up {setup_s:.3} s"
    );
    let model = MemoryCostModel::default();
    let config = optimizer_config();

    // Two solver threads walk the set in opposite orders until the window
    // closes, each finishing at least one full pass, so every query is
    // solved on both cores and at spread-out moments.
    let end = Instant::now() + Duration::from_secs(seconds);
    let start = Instant::now();
    let runs: Vec<Vec<Solve>> = std::thread::scope(|scope| {
        let handles: Vec<_> = [false, true]
            .into_iter()
            .map(|reverse| {
                let (queries, model, config) = (&queries, &model, &config);
                scope.spawn(move || solve_until(queries, model, config, reverse, end))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("solver thread panicked"))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();

    let mut times: Vec<Vec<f64>> = vec![Vec::new(); QUERIES];
    let mut first: Vec<Option<Optimized>> = vec![None; QUERIES];
    let mut solves = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first_error = None;
    for solve in runs.into_iter().flatten() {
        let i = solve.query;
        attempted += 1;
        times[i].push(solve.secs * 1e3);
        match solve.result {
            Ok(r) => {
                solves.push((
                    solve.secs,
                    r.units_used,
                    r.n_evals,
                    r.degradation.is_degraded(),
                ));
                match &first[i] {
                    // Same seed, same query: the cost must repeat exactly.
                    Some(f) if f.cost.to_bits() != r.cost.to_bits() => {
                        failed += 1;
                        first_error.get_or_insert(format!(
                            "query {i} re-solved to cost {} after {}",
                            r.cost, f.cost
                        ));
                    }
                    Some(_) => {}
                    None => first[i] = Some(r),
                }
            }
            Err(e) => {
                failed += 1;
                first_error.get_or_insert(format!("query {i}: {e}"));
            }
        }
    }

    let mut ratios = Vec::with_capacity(QUERIES);
    for (i, r) in first.iter().enumerate() {
        let Some(r) = r else { continue };
        let (q, b) = &queries[i];
        match check_plan(q, &r.plan, r.cost, b) {
            Ok(ratio) => ratios.push(ratio),
            Err(e) => {
                failed += 1;
                first_error.get_or_insert(format!("query {i}: {e}"));
            }
        }
    }
    match &first_error {
        Some(e) => println!("check: {failed} failures; first: {e}"),
        None => println!("check: {attempted} solves valid, re-priced and repeatable"),
    }

    // One latency per query: its fastest solve in the window. Every solve
    // of a query does the same work (same seed, same plan), so the
    // fastest is the one least slowed by other processes on the host, and
    // queries solved once more than others at the window's edge do not
    // shift the percentiles. Throughput is one solver's solves per second
    // at those times.
    let best: Vec<f64> = times
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let latency = Latency::of(&best, TAIL_Q, best.len(), 0.5);
    println!("latency: {}", latency.describe());
    let throughput = 1e3 / mean(&best);
    println!(
        "window: {window_s:.3} s, {} solves over {QUERIES} queries, {:.3} solves/s overall",
        solves.len(),
        solves.len() as f64 / window_s
    );

    let mut out = Outcome {
        attempted,
        failed,
        metrics: Vec::new(),
    };
    if !trace {
        out.push("throughput_qps", throughput, "1/s");
        out.push("latency_p50_ms", latency.p50, "ms");
        out.push("latency_tail_ms", latency.tail, "ms");
        out.push("plan_cost_ratio", mean(&ratios), "ratio");
        out.push("setup_s", setup_s, "s");
        out.push("peak_rss_mb", crate::report::peak_rss_mb(), "MiB");
        return out;
    }

    // Traced run: the core layer is the window itself; the layers below
    // it are replayed on the same queries. No server and no cache run
    // here, and II seeds from random orders, not from the augmentation
    // heuristic, so those metrics stay 0.
    let set: Vec<Query> = queries.into_iter().map(|(q, _)| q).collect();
    let layer = LayerReport {
        throughput_qps: throughput,
        latency_p50_ms: latency.p50,
        core: CoreStats::of(&solves),
        encode_us: layers::encode_us(&set),
        decode_us: layers::decode_us(&set),
        compile_us: layers::compile_us(&set),
        moves: layers::moves(&set[..MOVE_QUERIES], &model, mix(seed ^ 0x5EED)),
        ..LayerReport::default()
    };
    println!(
        "stages (mean ms per solve): solve {:.4}, of which compile {:.4}; p50 {:.4}, p90 {:.4}",
        layer.core.solve_ms_mean,
        layer.compile_us / 1e3,
        latency.p50,
        percentile(&sorted(times.concat()), 0.9)
    );
    layer.push_into(&mut out);
    out
}
