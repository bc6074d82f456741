//! Driver-path golden: every way of running the optimizer — sequential,
//! a one-method fan-out, portfolio, the structural challenger, early
//! stopping, and the uncached and cached batch pools — is a pure
//! function of its inputs.
//!
//! Each line records the plan order, the bits of its cost, the budget
//! units used, the evaluations performed, the portfolio winner, the
//! cache outcome and the credited producer. A solve without a cache
//! reports a miss credited to the portfolio winner, or else to the
//! configured method. Refactors of the driver layer must leave every
//! line unchanged.
//!
//! Regenerate deliberately with `UPDATE_GOLDEN=1 cargo test --test
//! driver_paths_golden` and review the diff.

use std::fmt::Write as _;
use std::path::PathBuf;

use ljqo::prelude::*;
use ljqo_workload::{generate_job_query, JobShape, JobSpec};

/// `τ` for the grid, as in the seeded-plan golden.
const TAU: f64 = 1.0;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/driver_paths.txt")
}

/// Two chains and a singleton: three components, two cross products.
fn disconnected_query() -> Query {
    QueryBuilder::new()
        .relation("a", 500)
        .relation("b", 40)
        .relation("c", 9000)
        .relation("d", 70)
        .relation("e", 1200)
        .relation("f", 35)
        .relation("g", 800)
        .relation("lonely", 3)
        .join("a", "b", 0.01)
        .join("b", "c", 0.002)
        .join("c", "d", 0.05)
        .join("e", "f", 0.001)
        .join("f", "g", 0.02)
        .build()
        .unwrap()
}

/// The query grid: every shape at 10 and 20 joins, seeds 1–2, plus the
/// disconnected query.
fn queries() -> Vec<(String, Query)> {
    let mut out = Vec::new();
    for shape in JobShape::ALL {
        for n_joins in [10usize, 20] {
            for seed in [1u64, 2] {
                out.push((
                    format!("{} n={n_joins} seed={seed}", shape.name()),
                    generate_job_query(&JobSpec::new(shape), n_joins, seed),
                ));
            }
        }
    }
    out.push(("disconnected".to_string(), disconnected_query()));
    out
}

fn config(seed: u64) -> OptimizerConfig {
    OptimizerConfig::new(Method::Ii)
        .with_time_limit(TAU)
        .with_seed(seed)
}

fn record(out: &mut String, label: &str, result: &Optimized, via: &ServedVia) {
    let order: Vec<String> = result
        .plan
        .segments
        .iter()
        .map(|seg| {
            seg.rels()
                .iter()
                .map(|r| r.index().to_string())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    writeln!(
        out,
        "{label} cost={:016x} units={} evals={} winner={} cache={} producer={} order={}",
        result.cost.to_bits(),
        result.units_used,
        result.n_evals,
        result.winner.map_or("-", |m| m.name()),
        via.outcome.name(),
        via.producer,
        order.join("|")
    )
    .expect("writing to a String cannot fail");
}

fn record_batch(out: &mut String, label: &str, labels: &[String], report: &BatchReport) {
    writeln!(
        out,
        "{label} failed={} degraded={} cold={} hits={} reuses={} units={}",
        report.n_failed,
        report.n_degraded,
        report.n_cold_solves,
        report.n_cache_hits,
        report.n_dedup_reuses,
        report.units_used
    )
    .expect("writing to a String cannot fail");
    for ((q, result), via) in labels.iter().zip(&report.results).zip(&report.outcomes) {
        let result = result.as_ref().expect("every grid query plans");
        record(out, &format!("{label} {q}"), result, via);
    }
}

/// One uncached solve of `query` under `parallelism` (`None` is the
/// sequential driver).
fn solve(
    query: &Query,
    config: &OptimizerConfig,
    parallelism: Option<&Parallelism>,
) -> (Optimized, ServedVia) {
    let model = MemoryCostModel::default();
    let mut optimizer = Optimizer::new(&model, config);
    if let Some(par) = parallelism {
        optimizer = optimizer.with_parallelism(par);
    }
    optimizer.solve(query).expect("every grid query plans")
}

fn fresh_cache() -> PlanCache {
    PlanCache::new(PlanCacheConfig::with_entries(64))
}

fn grid() -> String {
    let model = MemoryCostModel::default();
    let queries = queries();
    let mut out = String::new();

    let single: [(&str, Option<Parallelism>, Option<f64>); 6] = [
        ("sequential", None, None),
        ("workers2", Some(Parallelism::workers(2)), None),
        ("portfolio4", Some(Parallelism::portfolio(4)), None),
        ("robust4", Some(Parallelism::robust_portfolio(4)), None),
        ("early_stop", None, Some(5.0)),
        (
            "early_stop_workers2",
            Some(Parallelism::workers(2)),
            Some(5.0),
        ),
    ];
    for (name, parallelism, early_stop) in &single {
        for (i, (label, query)) in queries.iter().enumerate() {
            let mut cfg = config(i as u64 % 2 + 1);
            if let Some(eps) = early_stop {
                cfg = cfg.with_early_stop(*eps);
            }
            let (result, via) = solve(query, &cfg, parallelism.as_ref());
            record(&mut out, &format!("{name} {label}"), &result, &via);
        }
    }

    let labels: Vec<String> = queries.iter().map(|(l, _)| l.clone()).collect();
    let all: Vec<Query> = queries.iter().map(|(_, q)| q.clone()).collect();
    let one_thread = BatchOptions {
        threads: 1,
        per_query_deadline: None,
    };

    // The portfolio behind a cache, through the one-thread batch pool.
    let report = Optimizer::new(&model, &config(1))
        .with_parallelism(&Parallelism::portfolio(4))
        .with_cache(&fresh_cache(), FingerprintConfig::default())
        .with_batch(one_thread)
        .solve_batch(&all);
    record_batch(&mut out, "portfolio_batch", &labels, &report);

    // Six queries through the uncached pool.
    let report = Optimizer::new(&model, &config(1)).solve_batch(&all[..6]);
    record_batch(&mut out, "batch6", &labels[..6], &report);

    // Duplicate fingerprints through the cached pool, twice on one cache:
    // the first run dedups, the second hits.
    let picks = [0usize, 4, 0, 8, 4, 0, 12];
    let dup: Vec<Query> = picks.iter().map(|&i| all[i].clone()).collect();
    let dup_labels: Vec<String> = picks.iter().map(|&i| labels[i].clone()).collect();
    let cache = fresh_cache();
    for run in ["cached_batch_first", "cached_batch_second"] {
        let report = Optimizer::new(&model, &config(1))
            .with_cache(&cache, FingerprintConfig::default())
            .solve_batch(&dup);
        record_batch(&mut out, run, &dup_labels, &report);
    }
    out
}

#[test]
fn driver_paths_match_the_golden_file() {
    let got = grid();
    assert_eq!(got, grid(), "a driver path is not deterministic");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path(), &got).expect("golden file is writable");
        return;
    }
    let want = std::fs::read_to_string(golden_path())
        .expect("golden file exists (run with UPDATE_GOLDEN=1 to create it)");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "driver path line {} drifted from the golden file",
            i + 1
        );
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "the golden grid changed size"
    );
}
