//! The large-N regime: optimizer throughput and certified plan quality
//! on a grid of N ∈ {100 … 1000} relations × {II, SA, CARDFREE}.
//!
//! Two questions, answered per cell:
//!
//! * **throughput** — budget units consumed per second of wall clock,
//!   under the `nlogn:256` [`BudgetSchedule`] (quadratic up to 256
//!   relations, `N·log N` growth past it — the schedule that keeps
//!   planning time sane at N = 1000);
//! * **quality** — `cost / lower_bound`, where the lower bound is the
//!   LP-style certifier of `ljqo::bound`. A ratio near 1 *proves* the
//!   search landed near the optimum; the certificate needs no DP and so
//!   works at sizes where no exact reference exists.
//!
//! The bench also pins the kernel claim the regime rests on: at
//! N = 256, filtering a move through the primed multi-word window
//! kernel (`BitsetChecker::window_valid_primed`, `O(window)` with a
//! one-block placed set) must be **≥ 2.5× faster** than the general
//! path it replaced (an `O(lo)` word-by-word placed-mask refill per
//! check, replicated here verbatim). The assertion runs in smoke mode
//! too, so CI re-verifies it on every push.
//!
//! Writes the snapshot consumed by EXPERIMENTS.md to
//! `BENCH_largeN.json` (see [`ljqo_bench::snapshot`] for `BENCH_OUT_DIR`
//! and the seconds-long `BENCH_SMOKE` run: the N = 256 cell and the
//! kernel assertion only).

use std::time::Instant;

use ljqo_bench::timing::{bench_ns, black_box};
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};

use ljqo::bound::{bound_report, BoundReport};
use ljqo::{Method, Optimizer, OptimizerConfig};
use ljqo_catalog::{CompiledQuery, Query, RelId};
use ljqo_cost::{BudgetSchedule, CostModel, MemoryCostModel};
use ljqo_plan::{random_valid_order, BitsetChecker, Move};
use ljqo_workload::{generate_query, Benchmark};

const MOVE_POOL: usize = 256;

fn json_num(x: f64) -> ljqo_json::Value {
    ljqo_json::Value::Number((x * 1000.0).round() / 1000.0)
}

/// One optimizer run: wall clock, units consumed, and the certified
/// quality ratio against the linear lower bound.
fn run_cell(
    query: &Query,
    model: &dyn CostModel,
    method: Method,
    schedule: BudgetSchedule,
    tau: f64,
) -> ljqo_json::Value {
    let config = OptimizerConfig::new(method)
        .with_time_limit(tau)
        .with_schedule(schedule)
        .with_seed(17);
    let start = Instant::now();
    let result = Optimizer::new(model, &config)
        .solve(query)
        .expect("optimizer must produce a plan")
        .0;
    let elapsed = start.elapsed().as_secs_f64();
    let bound = bound_report(query, model);
    let ratio = BoundReport::ratio(bound.linear, result.cost).unwrap_or(0.0);
    println!(
        "grid/{}/{}: {:>9.1} ms, {:>12} units, cost/bound {:.3}",
        method.name(),
        query.n_relations(),
        elapsed * 1e3,
        result.units_used,
        ratio
    );
    ljqo_json::json!({
        "method": method.name(),
        "n_relations": query.n_relations() as u64,
        "budget_allotted": config.budget_units(query.n_joins().max(1)),
        "units_used": result.units_used,
        "elapsed_ms": json_num(elapsed * 1e3),
        "units_per_sec": json_num(if elapsed > 0.0 { result.units_used as f64 / elapsed } else { 0.0 }),
        "cost_over_lower_bound": json_num(ratio),
    })
}

/// Time one arm of the filter comparison over a raw move pool.
fn filter_arm(label: &str, pool: &[Move], mut check: impl FnMut(&Move) -> bool) -> f64 {
    let mut k = 0usize;
    bench_ns(label, || {
        let mv = pool[k % pool.len()];
        k += 1;
        black_box(check(&mv))
    })
}

/// The kernel claim: primed multi-word window filtering vs the general
/// path it replaced, at N = 256.
///
/// Two pools tell the story:
///
/// * **adjacent swaps** (window = 2, the canonical local-search move):
///   here the general path's `O(lo)` refill *is* the cost, and the
///   primed kernel's `O(1)` prefix lookup removes it entirely — this is
///   the asserted ≥ 2.5× cell;
/// * **arbitrary swaps** (window ≈ N/3): both paths spend their time in
///   the shared window scan, so the refill win shrinks toward 1× —
///   reported for honesty, not asserted.
fn bench_filter_speedup() -> ljqo_json::Value {
    const N: usize = 256;
    let query = generate_query(&Benchmark::Default.spec(), N, 3);
    let compiled = CompiledQuery::new(&query);
    let comp: Vec<RelId> = query.rel_ids().collect();
    let mut rng = SmallRng::seed_from_u64(0x1a6e);
    let order = random_valid_order(query.graph(), &comp, &mut rng);
    let n = order.len();

    let adjacent_pool: Vec<Move> = (0..MOVE_POOL)
        .map(|_| {
            let i = rng.gen_range(0..n - 1);
            Move::Swap { i, j: i + 1 }
        })
        .collect();
    let arbitrary_pool: Vec<Move> = (0..MOVE_POOL)
        .map(|_| {
            let i = rng.gen_range(0..n);
            let mut j = rng.gen_range(0..n - 1);
            if j >= i {
                j += 1;
            }
            Move::Swap {
                i: i.min(j),
                j: i.max(j),
            }
        })
        .collect();

    let mut rows = Vec::new();
    let mut asserted_speedup = 0.0f64;
    for (pool_name, pool) in [("adjacent", &adjacent_pool), ("arbitrary", &arbitrary_pool)] {
        // The replaced general path, replicated verbatim: refill a
        // words_per_rel placed mask word-by-word from position 0, then
        // scan the window through the unblocked `connects` word loop.
        // Cost per check: O(lo + window), no dispatch specialization.
        let mut placed = vec![0u64; compiled.words_per_rel()];
        let mut old_order = order.clone();
        let old_ns = filter_arm(&format!("filter/general/{pool_name}/{N}"), pool, |mv| {
            mv.apply(&mut old_order);
            let (lo, hi) = (mv.first_touched(), mv.last_touched());
            let start = lo.max(1);
            placed.fill(0);
            let rels = old_order.rels();
            for &r in &rels[..start] {
                compiled.set_placed(&mut placed, r);
            }
            let mut ok = true;
            for &r in &rels[start..=hi] {
                if !compiled.connects(r, &placed) {
                    ok = false;
                    break;
                }
                compiled.set_placed(&mut placed, r);
            }
            mv.undo(&mut old_order);
            ok
        });

        // The primed multi-word kernel: the prefix-mask cache makes the
        // placed set at `lo` an O(1) lookup, and the window scans
        // through the one-block branch-free kernel. Applied moves are
        // undone, so the base order never changes and the cache stays
        // warm — the steady state the proposal loop runs in.
        let mut checker = BitsetChecker::new(query.n_relations());
        let mut new_order = order.clone();
        let new_ns = filter_arm(&format!("filter/primed/{pool_name}/{N}"), pool, |mv| {
            mv.apply(&mut new_order);
            let ok = checker.window_valid_primed(
                &compiled,
                new_order.rels(),
                mv.first_touched(),
                mv.last_touched(),
            );
            mv.undo(&mut new_order);
            ok
        });

        let speedup = old_ns / new_ns;
        println!("filter/speedup/{pool_name}/{N}{:>30.2}x", speedup);
        if pool_name == "adjacent" {
            asserted_speedup = speedup;
        }
        rows.push(ljqo_json::json!({
            "pool": pool_name,
            "n": N as u64,
            "general_ns_per_move": json_num(old_ns),
            "primed_ns_per_move": json_num(new_ns),
            "speedup": json_num(speedup),
        }));
    }

    assert!(
        asserted_speedup >= 2.5,
        "primed multi-word filtering must be >= 2.5x the general path on the \
         adjacent-swap pool at N={N}, got {asserted_speedup:.2}x"
    );
    ljqo_json::json!({
        "asserted_pool": "adjacent",
        "asserted_floor": 2.5,
        "rows": ljqo_json::Value::Array(rows),
    })
}

fn main() {
    let smoke = ljqo_bench::snapshot::smoke();
    let (sizes, tau): (Vec<usize>, f64) = if smoke {
        (vec![256], 0.1)
    } else {
        (vec![100, 200, 400, 700, 1000], 1.0)
    };
    let schedule = BudgetSchedule::NlogN { threshold: 256 };
    let model = MemoryCostModel::default();

    let filter = bench_filter_speedup();

    let mut grid: Vec<ljqo_json::Value> = Vec::new();
    for &n in &sizes {
        let query = generate_query(&Benchmark::Default.spec(), n, 11);
        for method in [Method::Ii, Method::Sa, Method::Cardfree] {
            grid.push(run_cell(&query, &model, method, schedule, tau));
        }
    }

    let report = ljqo_json::json!({
        "bench": "large_n",
        "description": "Optimizer grid N=100..1000 x {II, SA, CARDFREE}: throughput under the nlogn:256 budget schedule and certified cost/lower_bound quality, plus the primed multi-word filter kernel vs the replaced general path",
        "model": "memory",
        "workload": "Benchmark::Default (random graphs)",
        "schedule": schedule.to_string(),
        "tau": tau,
        "smoke": smoke,
        "move_filtering": filter,
        "grid": ljqo_json::Value::Array(grid),
    });

    ljqo_bench::snapshot::write_snapshot("BENCH_largeN.json", &report);
}
