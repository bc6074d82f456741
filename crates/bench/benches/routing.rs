//! Learned portfolio routing: cost at equal budget and budget-to-match
//! versus the uniform portfolio.
//!
//! The harness mimics a serving deployment's life cycle. For each of
//! ten workload classes (JOB shapes plus Table 3 benchmark variations,
//! at fixed query sizes) it trains a fresh [`BanditRouter`] *online
//! through the routed driver itself* on a stream of 20 training
//! queries — 200 across the grid — then measures on held-out queries
//! of the same class:
//!
//! * **cost at equal budget** — mean plan cost of the routed portfolio
//!   vs the uniform portfolio at the same total budget (τ = 5); and
//! * **budget to match** — the smallest swept τ at which the routed
//!   portfolio's mean cost already beats or ties the uniform
//!   portfolio's full-budget mean, as a fraction of the full budget.
//!
//! Two contracts are asserted in-run, so a regression fails the bench
//! rather than silently shipping a worse report: the routed mean is
//! **never worse** than the uniform mean on any learned class, and it
//! is **strictly better on at least half** of them. The workload is
//! seeded and deterministic, so these hold reproducibly; classes whose
//! winner is a budget-insensitive heuristic tie bit-for-bit (both
//! portfolios converge to the same plan), which is exactly the
//! never-worse contract's tie case.
//!
//! Writes `BENCH_routing.json` at the workspace root (override with
//! `BENCH_ROUTING_OUT`; set `ROUTING_SMOKE=1` for a seconds-long
//! CI-sized run over a three-class subset of the same cells).

use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use ljqo::cache::{classify, BanditRouter, RouterConfig};
use ljqo::parallel::PORTFOLIO;
use ljqo::prelude::*;
use ljqo_workload::{generate_job_query, generate_query, Benchmark, JobShape, JobSpec};

/// Full budget (τ) at which both portfolios are compared.
const FULL_TAU: f64 = 5.0;
/// Budgets swept (low to high) to find the routed budget-to-match.
const TAU_SWEEP: [f64; 5] = [1.0, 2.0, 3.0, 4.0, FULL_TAU];
/// Training queries per class (the learning phase).
const TRAIN_PER_CLASS: u64 = 20;
/// Held-out evaluation queries per class.
const EVALS: u64 = 3;

/// One workload class: a seeded generator family at a fixed size.
#[derive(Clone, Copy)]
enum ClassSpec {
    /// JOB-shaped query (`generate_job_query`).
    Job(JobShape, usize),
    /// Paper Table 3 benchmark distribution (`generate_query`).
    Paper(Benchmark, usize),
}

impl ClassSpec {
    fn name(self) -> String {
        match self {
            ClassSpec::Job(shape, n) => format!("job-{}/{n}j", shape.name()),
            ClassSpec::Paper(bench, n) => format!("{}/{n}j", bench.name()),
        }
    }

    /// Deterministic per-class seed base; `generate` derives training
    /// and evaluation seeds from it so the two pools never overlap.
    fn cell(self) -> u64 {
        match self {
            ClassSpec::Job(shape, n) => 0x0b5e_000b ^ ((n as u64) << 32) ^ ((shape as u64) << 16),
            ClassSpec::Paper(bench, n) => {
                0x0b5e_000d ^ ((n as u64) << 32) ^ ((bench.number() as u64) << 16)
            }
        }
    }

    fn generate(self, seed: u64) -> Query {
        match self {
            ClassSpec::Job(shape, n) => generate_job_query(&JobSpec::new(shape), n, seed),
            ClassSpec::Paper(bench, n) => generate_query(&bench.spec(), n, seed),
        }
    }
}

fn json_num(x: f64) -> ljqo_json::Value {
    if x.is_finite() {
        ljqo_json::Value::Number((x * 10_000.0).round() / 10_000.0)
    } else {
        ljqo_json::Value::Number(f64::MAX)
    }
}

fn config(seed: u64, tau: f64) -> OptimizerConfig {
    OptimizerConfig::new(Method::Ii)
        .with_seed(seed)
        .with_time_limit(tau)
}

fn main() {
    let smoke = std::env::var("ROUTING_SMOKE").is_ok();
    // Ten classes mixing the JOB shapes with Table 3 variations whose
    // statistics make the portfolio arms genuinely disagree. Smoke runs
    // a three-class subset of the same cells (same seeds, same
    // protocol), so it checks the identical contract, faster.
    let classes: Vec<ClassSpec> = if smoke {
        vec![
            ClassSpec::Job(JobShape::Cyclic, 16),
            ClassSpec::Job(JobShape::Cyclic, 22),
            ClassSpec::Job(JobShape::Star, 14),
        ]
    } else {
        vec![
            ClassSpec::Job(JobShape::Star, 14),
            ClassSpec::Job(JobShape::Snowflake, 14),
            ClassSpec::Job(JobShape::Cyclic, 16),
            ClassSpec::Job(JobShape::Cyclic, 22),
            ClassSpec::Paper(Benchmark::Default, 20),
            ClassSpec::Paper(Benchmark::CardWideRange, 20),
            ClassSpec::Paper(Benchmark::CardUniformWide, 30),
            ClassSpec::Paper(Benchmark::DistinctMore, 30),
            ClassSpec::Paper(Benchmark::DistinctBoth, 30),
            ClassSpec::Paper(Benchmark::GraphChain, 30),
        ]
    };
    let model = MemoryCostModel::default();
    let arms: Vec<&str> = PORTFOLIO.iter().map(|m| m.name()).collect();
    let started = Instant::now();

    let mut rows: Vec<ljqo_json::Value> = Vec::new();
    let mut strictly_better = 0usize;
    for &spec in &classes {
        let cell = spec.cell();

        // --- Learn: train a fresh router through the routed driver ---
        let router = Arc::new(BanditRouter::new(&arms, RouterConfig::default()));
        let routed_par = Parallelism::portfolio(PORTFOLIO.len()).with_router(Arc::clone(&router));
        for t in 0..TRAIN_PER_CLASS {
            let q = spec.generate(cell ^ (0xa000 + t));
            Optimizer::new(&model, &config(t, FULL_TAU))
                .with_parallelism(&routed_par)
                .solve(&q)
                .expect("training solve");
        }
        let class_label = classify(&spec.generate(cell)).label();
        let shares = router.shares(&classify(&spec.generate(cell)));

        // --- Measure on held-out queries of the same class ----------
        let mut uniform_costs = Vec::new();
        let mut routed_at: Vec<Vec<f64>> = vec![Vec::new(); TAU_SWEEP.len()];
        for e in 0..EVALS {
            let q = spec.generate(cell ^ (0xe000 + e));
            let uniform = Optimizer::new(&model, &config(e, FULL_TAU))
                .with_parallelism(&Parallelism::portfolio(PORTFOLIO.len()))
                .solve(&q)
                .expect("uniform solve")
                .0;
            uniform_costs.push(uniform.cost);
            for (i, &tau) in TAU_SWEEP.iter().enumerate() {
                let routed = Optimizer::new(&model, &config(e, tau))
                    .with_parallelism(&routed_par)
                    .solve(&q)
                    .expect("routed solve")
                    .0;
                routed_at[i].push(routed.cost);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let uniform_mean = mean(&uniform_costs);
        let routed_mean = mean(routed_at.last().unwrap());
        // Budget-to-match: smallest swept τ whose routed mean already
        // ties or beats the uniform mean at full budget.
        let tau_match = TAU_SWEEP
            .iter()
            .enumerate()
            .find(|(i, _)| mean(&routed_at[*i]) <= uniform_mean)
            .map(|(_, &tau)| tau)
            .unwrap_or(f64::INFINITY);

        // Contract 1: never worse at equal budget, on every class.
        assert!(
            routed_mean <= uniform_mean,
            "{}: routed mean {routed_mean} > uniform mean {uniform_mean}",
            spec.name()
        );
        let better = routed_mean < uniform_mean * (1.0 - 1e-6);
        if better {
            strictly_better += 1;
        }
        println!(
            "{} [{class_label}]: uniform {uniform_mean:.3e}, routed {routed_mean:.3e} ({}), \
             budget-to-match {:.2}x",
            spec.name(),
            if better { "better" } else { "tied" },
            tau_match / FULL_TAU
        );
        rows.push(ljqo_json::json!({
            "class": spec.name(),
            "router_class": class_label.clone(),
            "train_queries": TRAIN_PER_CLASS,
            "evals": EVALS,
            "shares": ljqo_json::Value::Array(shares.iter().map(|&s| json_num(s)).collect()),
            "uniform_mean_cost": json_num(uniform_mean),
            "routed_mean_cost": json_num(routed_mean),
            "improvement": json_num(1.0 - routed_mean / uniform_mean),
            "budget_to_match_ratio": json_num(tau_match / FULL_TAU),
            "strictly_better": better,
        }));
    }

    // Contract 2: learning must pay off on at least half the classes.
    assert!(
        2 * strictly_better >= classes.len(),
        "routing strictly better on only {strictly_better}/{} classes",
        classes.len()
    );

    let report = ljqo_json::json!({
        "bench": "routing",
        "description": "Learned portfolio routing vs the uniform portfolio: cost at equal budget and budget-to-match, per workload class",
        "model": "memory",
        "workload": "JOB-shaped generators plus paper Table 3 variations",
        "arms": ljqo_json::Value::Array(arms.iter().map(|&a| ljqo_json::Value::from(a)).collect()),
        "full_tau": json_num(FULL_TAU),
        "tau_sweep": ljqo_json::Value::Array(TAU_SWEEP.iter().map(|&t| json_num(t)).collect()),
        "train_per_class": TRAIN_PER_CLASS,
        "smoke": smoke,
        "wall_s": json_num(started.elapsed().as_secs_f64()),
        "classes_total": classes.len() as u64,
        "classes_strictly_better": strictly_better as u64,
        "never_worse": true,
        "class_grid": ljqo_json::Value::Array(rows),
    });

    let out = std::env::var("BENCH_ROUTING_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_routing.json", env!("CARGO_MANIFEST_DIR")));
    let mut f = std::fs::File::create(&out).expect("create BENCH_routing.json");
    f.write_all(report.to_string_pretty().as_bytes())
        .and_then(|_| f.write_all(b"\n"))
        .expect("write BENCH_routing.json");
    println!("wrote {out}");
}
