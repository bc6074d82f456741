//! Estimation-error robustness: regret under controlled q-error.
//!
//! For every cell of {workload shape × query size × q-error × method},
//! the harness generates a JOB-shaped *true* catalog, distorts it with a
//! seeded correlated perturbation of maximum factor `q`, optimizes
//! against the distorted (*observed*) catalog, re-prices the resulting
//! plan under the truth via the plan cache's serving path, and reports
//! the **regret** — by how much estimation error inflated the plan the
//! user actually runs, relative to a perfect-information solve
//! (`max(0, true/reference − 1)`, averaged over seeds).
//!
//! A second grid compares the uniform II/SA/AGI/KBI portfolio with the
//! robust portfolio (the same rotation plus the cardinality-free
//! structural challenger) and asserts the never-worse contract on every
//! instance with material error (q ≥ 10): at equal budget, the robust
//! run's cost is never above the uniform run's.
//!
//! Two more in-run assertions pin the harness itself: regret is exactly
//! `0` at q = 1 (the perturbation is the identity there), and every
//! CARDFREE row reports an undegraded solve (the structural method
//! cannot be hurt by statistics).
//!
//! Writes `BENCH_robust_est.json` at the workspace root (override with
//! `BENCH_ROBUST_EST_OUT`; set `ROBUST_EST_SMOKE=1` for a seconds-long
//! CI-sized run).

use std::io::Write as _;
use std::time::Instant;

use ljqo::prelude::*;
use ljqo_workload::{generate_job_query, JobShape, JobSpec, PerturbMode, Perturbation};

const METHODS: [Method; 5] = [
    Method::Ii,
    Method::Sa,
    Method::Agi,
    Method::Kbi,
    Method::Cardfree,
];

fn json_num(x: f64) -> ljqo_json::Value {
    if x.is_finite() {
        ljqo_json::Value::Number((x * 10_000.0).round() / 10_000.0)
    } else {
        ljqo_json::Value::Number(f64::MAX)
    }
}

fn main() {
    let smoke = std::env::var("ROBUST_EST_SMOKE").is_ok();
    let (sizes, qerrors, seeds): (&[usize], &[f64], u64) = if smoke {
        (&[10], &[1.0, 10.0], 2)
    } else {
        (&[10, 30], &[1.0, 2.0, 10.0, 100.0], 5)
    };
    let model = MemoryCostModel::default();
    let started = Instant::now();

    // --- Per-method regret grid -----------------------------------------
    let mut method_rows: Vec<ljqo_json::Value> = Vec::new();
    for shape in JobShape::ALL {
        for &n_joins in sizes {
            for &q in qerrors {
                for method in METHODS {
                    let mut regrets = Vec::new();
                    let mut replays_recosted = 0u64;
                    for seed in 0..seeds {
                        let truth = generate_job_query(
                            &JobSpec::new(shape),
                            n_joins,
                            0xe571_0000 ^ (n_joins as u64) << 32 ^ seed,
                        );
                        let observed =
                            Perturbation::new(q, PerturbMode::Correlated, seed).observed(&truth);
                        let config = OptimizerConfig::new(method).with_seed(seed);
                        let s = regret_under(&truth, &observed, &Optimizer::new(&model, &config))
                            .expect("regret study plans every instance");
                        if q <= 1.0 {
                            assert_eq!(
                                s.regret, 0.0,
                                "q = 1 is the identity: {shape:?}/{n_joins}/{method:?}/{seed}"
                            );
                        }
                        if method == Method::Cardfree {
                            assert_eq!(
                                s.degradation,
                                Degradation::None,
                                "CARDFREE reads no statistics and cannot degrade"
                            );
                        }
                        if s.replay == CacheOutcome::HitRecosted {
                            replays_recosted += 1;
                        }
                        regrets.push(s.regret);
                    }
                    let mean = regrets.iter().sum::<f64>() / regrets.len() as f64;
                    let max = regrets.iter().cloned().fold(0.0f64, f64::max);
                    println!(
                        "{}/{n_joins}j/q{q}/{}: mean regret {mean:.4}, max {max:.4}",
                        shape.name(),
                        method.name()
                    );
                    method_rows.push(ljqo_json::json!({
                        "shape": shape.name(),
                        "n_joins": n_joins as u64,
                        "qerror": q,
                        "method": method.name(),
                        "mean_regret": json_num(mean),
                        "max_regret": json_num(max),
                        "replays_recosted": replays_recosted,
                        "seeds": seeds,
                    }));
                }
            }
        }
    }

    // --- Portfolio grid: uniform vs robust, never-worse asserted --------
    let mut portfolio_rows: Vec<ljqo_json::Value> = Vec::new();
    for shape in JobShape::ALL {
        for &n_joins in sizes {
            for &q in qerrors {
                let mut plain_regrets = Vec::new();
                let mut robust_regrets = Vec::new();
                for seed in 0..seeds {
                    let truth = generate_job_query(
                        &JobSpec::new(shape),
                        n_joins,
                        0xe571_0001 ^ (n_joins as u64) << 32 ^ seed,
                    );
                    let observed =
                        Perturbation::new(q, PerturbMode::Correlated, seed).observed(&truth);
                    let config = OptimizerConfig::new(Method::Ii).with_seed(seed);
                    let optimizer = Optimizer::new(&model, &config);
                    let plain = regret_under(
                        &truth,
                        &observed,
                        &optimizer.with_parallelism(&Parallelism::portfolio(4)),
                    )
                    .expect("uniform portfolio plans every instance");
                    let robust = regret_under(
                        &truth,
                        &observed,
                        &optimizer.with_parallelism(&Parallelism::robust_portfolio(4)),
                    )
                    .expect("robust portfolio plans every instance");
                    // The acceptance contract: with material estimation
                    // error, the portfolio including the cardinality-free
                    // challenger is never worse than the uniform one at
                    // equal budget, on the catalog both optimized.
                    if q >= 10.0 {
                        assert!(
                            robust.observed_cost <= plain.observed_cost,
                            "never-worse violated: {shape:?}/{n_joins}/q{q}/{seed}: \
                             robust {} > uniform {}",
                            robust.observed_cost,
                            plain.observed_cost
                        );
                    }
                    plain_regrets.push(plain.regret);
                    robust_regrets.push(robust.regret);
                }
                let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
                println!(
                    "{}/{n_joins}j/q{q}/portfolio: uniform regret {:.4}, robust {:.4}",
                    shape.name(),
                    mean(&plain_regrets),
                    mean(&robust_regrets)
                );
                portfolio_rows.push(ljqo_json::json!({
                    "shape": shape.name(),
                    "n_joins": n_joins as u64,
                    "qerror": q,
                    "uniform_mean_regret": json_num(mean(&plain_regrets)),
                    "robust_mean_regret": json_num(mean(&robust_regrets)),
                    "never_worse_checked": q >= 10.0,
                    "seeds": seeds,
                }));
            }
        }
    }

    let report = ljqo_json::json!({
        "bench": "robust_est",
        "description": "Regret under controlled estimation error (q-error), per method and for the uniform vs robust portfolio",
        "model": "memory",
        "workload": "JOB-shaped generators (star / snowflake / cyclic), correlated perturbation",
        "perturb_mode": "correlated",
        "smoke": smoke,
        "wall_s": json_num(started.elapsed().as_secs_f64()),
        "methods": ljqo_json::Value::Array(
            METHODS.iter().map(|m| ljqo_json::Value::from(m.name())).collect()
        ),
        "method_grid": ljqo_json::Value::Array(method_rows),
        "portfolio_grid": ljqo_json::Value::Array(portfolio_rows),
    });

    let out = std::env::var("BENCH_ROBUST_EST_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_robust_est.json", env!("CARGO_MANIFEST_DIR")));
    let mut f = std::fs::File::create(&out).expect("create BENCH_robust_est.json");
    f.write_all(report.to_string_pretty().as_bytes())
        .and_then(|_| f.write_all(b"\n"))
        .expect("write BENCH_robust_est.json");
    println!("wrote {out}");
}
