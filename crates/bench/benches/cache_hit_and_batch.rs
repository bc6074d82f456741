//! Plan-cache serving latency and batch dedup throughput.
//!
//! Two experiments on the paper's default workload:
//!
//! * **warm vs cold** — a single N-relation query optimized cold
//!   ([`Optimizer::solve`]) vs served warm from a populated [`PlanCache`]
//!   (the same solve with the cache attached, hitting). Asserts the
//!   acceptance bar: a warm hit is at least 10× faster than the cold
//!   solve.
//! * **batch dedup** — a batch of `Q` queries drawn from `F` distinct
//!   fingerprint classes run through a cached
//!   [`Optimizer::solve_batch`]. Asserts the counter contract (at most
//!   `F` cold solves; every other query a hit or dedup reuse) and
//!   records the wall-clock win over the uncached batch.
//!
//! Writes `BENCH_cache.json` at the workspace root (override with
//! `BENCH_CACHE_OUT`; set `CACHE_BENCH_SMOKE=1` for a seconds-long
//! CI-sized run).

use std::io::Write as _;
use std::time::Instant;

use ljqo_bench::timing::{bench_ns, black_box};

use ljqo::prelude::*;
use ljqo_workload::{generate_query, Benchmark};

fn json_num(x: f64) -> ljqo_json::Value {
    ljqo_json::Value::Number((x * 1000.0).round() / 1000.0)
}

fn main() {
    let smoke = std::env::var("CACHE_BENCH_SMOKE").is_ok();
    let (n, batch_classes, batch_repeats) = if smoke {
        (12usize, 5usize, 4usize)
    } else {
        (50usize, 10usize, 10usize)
    };

    let model = MemoryCostModel::default();
    let fp_cfg = FingerprintConfig::default();

    // --- Warm hit vs cold solve on one N-relation query -----------------
    let query = generate_query(&Benchmark::Default.spec(), n, 42);
    let config = OptimizerConfig::new(Method::Iai).with_seed(7);

    let mut cold_cost = f64::NAN;
    let cold_ns = bench_ns(&format!("cold/N{n}"), || {
        let r = Optimizer::new(&model, &config)
            .solve(&query)
            .expect("cold solve")
            .0;
        cold_cost = r.cost;
        black_box(r.cost)
    });

    let cache = PlanCache::new(PlanCacheConfig::default());
    let cached = Optimizer::new(&model, &config).with_cache(&cache, fp_cfg);
    let (first, via) = cached.solve(&query).unwrap();
    assert_eq!(via.outcome, CacheOutcome::Miss);
    let mut warm_cost = f64::NAN;
    let warm_ns = bench_ns(&format!("warm/N{n}"), || {
        let (r, via) = cached.solve(&query).unwrap();
        assert_eq!(via.outcome, CacheOutcome::Hit);
        warm_cost = r.cost;
        black_box(r.cost)
    });
    assert_eq!(
        warm_cost.to_bits(),
        first.cost.to_bits(),
        "warm hits must be bit-identical to the cold solve"
    );
    let hit_speedup = cold_ns / warm_ns;
    println!("hit/N{n}/speedup: {hit_speedup:.1}x");
    assert!(
        hit_speedup >= 10.0,
        "acceptance: a warm hit must be >= 10x faster than a cold solve, got {hit_speedup:.1}x"
    );

    // --- Batch dedup: F classes, Q = F * repeats queries -----------------
    let batch_n = if smoke { 10 } else { 20 };
    let bases: Vec<Query> = (0..batch_classes)
        .map(|i| generate_query(&Benchmark::Default.spec(), batch_n, 500 + i as u64))
        .collect();
    let queries: Vec<Query> = (0..batch_classes * batch_repeats)
        .map(|i| bases[i % batch_classes].clone())
        .collect();
    let cfg = OptimizerConfig::new(Method::Iai)
        .with_time_limit(1.0)
        .with_seed(17);
    let opts = BatchOptions {
        threads: 4,
        per_query_deadline: None,
    };

    let started = Instant::now();
    let plain = Optimizer::new(&model, &cfg)
        .with_batch(opts)
        .solve_batch(&queries);
    let plain_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(plain.n_failed, 0);

    let cache = PlanCache::new(PlanCacheConfig::default());
    let started = Instant::now();
    let batch = Optimizer::new(&model, &cfg)
        .with_cache(&cache, fp_cfg)
        .with_batch(opts);
    let deduped = batch.solve_batch(&queries);
    let dedup_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(deduped.n_failed, 0);
    assert!(
        deduped.n_cold_solves <= batch_classes,
        "acceptance: {} classes must need at most {} cold solves, got {}",
        batch_classes,
        batch_classes,
        deduped.n_cold_solves
    );
    assert_eq!(
        deduped.n_cold_solves + deduped.n_cache_hits + deduped.n_dedup_reuses,
        queries.len(),
        "every query is solved cold, served from cache, or deduped"
    );
    let batch_speedup = plain_ms / dedup_ms;
    println!(
        "batch/{}x{}/cold_solves: {} (plain {:.1} ms, deduped {:.1} ms, {:.1}x)",
        batch_classes, batch_repeats, deduped.n_cold_solves, plain_ms, dedup_ms, batch_speedup
    );

    // A fully warm second pass over the same batch.
    let started = Instant::now();
    let second = batch.solve_batch(&queries);
    let warm_batch_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(second.n_cold_solves, 0, "second pass must be fully warm");

    let stats = cache.stats();
    let warm_vs_cold = ljqo_json::json!({
        "n_relations": n as u64,
        "cold_ns_per_solve": json_num(cold_ns),
        "warm_ns_per_hit": json_num(warm_ns),
        "speedup": json_num(hit_speedup),
        "cost": cold_cost,
    });
    let batch_dedup = ljqo_json::json!({
        "queries": queries.len() as u64,
        "fingerprint_classes": batch_classes as u64,
        "n_per_query": batch_n as u64,
        "threads": 4u64,
        "plain_wall_ms": json_num(plain_ms),
        "deduped_wall_ms": json_num(dedup_ms),
        "speedup": json_num(batch_speedup),
        "cold_solves": deduped.n_cold_solves as u64,
        "cache_hits": deduped.n_cache_hits as u64,
        "dedup_reuses": deduped.n_dedup_reuses as u64,
        "warm_second_pass_ms": json_num(warm_batch_ms),
    });
    let cache_stats = ljqo_json::json!({
        "hits": stats.hits,
        "misses": stats.misses,
        "inserts": stats.inserts,
        "evictions": stats.evictions,
        "resident_entries": stats.entries as u64,
        "resident_bytes": stats.bytes as u64,
    });
    let report = ljqo_json::json!({
        "bench": "cache_hit_and_batch",
        "description": "Plan-cache warm-hit latency vs cold solve, and batch fingerprint dedup",
        "model": "memory",
        "workload": "Benchmark::Default (random graphs)",
        "smoke": smoke,
        "warm_vs_cold": warm_vs_cold,
        "batch_dedup": batch_dedup,
        "cache_stats": cache_stats,
    });

    let out = std::env::var("BENCH_CACHE_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_cache.json", env!("CARGO_MANIFEST_DIR")));
    let mut f = std::fs::File::create(&out).expect("create BENCH_cache.json");
    f.write_all(report.to_string_pretty().as_bytes())
        .and_then(|_| f.write_all(b"\n"))
        .expect("write BENCH_cache.json");
    println!("wrote {out}");
}
