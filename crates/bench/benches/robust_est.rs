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
//! Two in-run assertions pin the harness itself: regret is exactly `0`
//! at q = 1 (the perturbation is the identity there), and every CARDFREE
//! row reports an undegraded solve (the structural method cannot be
//! hurt by statistics).
//!
//! Writes `BENCH_robust_est.json` (see [`ljqo_bench::snapshot`] for
//! `BENCH_OUT_DIR` and the seconds-long `BENCH_SMOKE` run).

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
    let smoke = ljqo_bench::snapshot::smoke();
    let (sizes, qerrors, seeds): (&[usize], &[f64], u64) = if smoke {
        (&[10], &[1.0, 10.0], 2)
    } else {
        (&[10, 30], &[1.0, 2.0, 10.0, 100.0], 5)
    };
    let model = MemoryCostModel::default();
    let started = Instant::now();

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

    let report = ljqo_json::json!({
        "bench": "robust_est",
        "description": "Regret under controlled estimation error (q-error), per method",
        "model": "memory",
        "workload": "JOB-shaped generators (star / snowflake / cyclic), correlated perturbation",
        "perturb_mode": "correlated",
        "smoke": smoke,
        "wall_s": json_num(started.elapsed().as_secs_f64()),
        "methods": ljqo_json::Value::Array(
            METHODS.iter().map(|m| ljqo_json::Value::from(m.name())).collect()
        ),
        "method_grid": ljqo_json::Value::Array(method_rows),
    });

    ljqo_bench::snapshot::write_snapshot("BENCH_robust_est.json", &report);
}
