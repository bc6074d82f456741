//! Bushy local search vs the paper's linear restriction — quality at
//! equal budget.
//!
//! For every cell of {shape × query size × budget τ × tree method}, the
//! harness solves the same query twice at the same unit budget
//! `τ·N²·κ`: once in the linear search space (the matching paper
//! method) and once in the bushy space ([`SearchSpace::Bushy`], tree
//! moves + path-to-root incremental re-costing). Shapes cover the
//! JOB-shaped star / snowflake / cyclic generators, the paper's
//! chain-biased benchmark, and the hub-and-chains family built so that
//! the bushy optimum strictly beats *any* linear order.
//!
//! In-run assertions pin the quality claims, at the largest budget of
//! the sweep, on every exactly-solvable instance (N ≤ 14 relations):
//!
//! * on hub-and-chains shapes the bushy DP optimum is strictly below
//!   the linear DP optimum, **and** the bushy search lands strictly
//!   below the linear optimum too — no linear plan, however found, can
//!   match it;
//! * on every shape, BUSHYII's optimality gap against the exact bushy
//!   DP ([`bushy_gap_vs_dp`]) is at most [`MAX_GAP_AT_FULL_BUDGET`];
//! * budget parity holds: the bushy solve consumes no more units than
//!   the linear solve's ceiling for the same τ.
//!
//! Writes `BENCH_bushy.json` (see [`ljqo_bench::snapshot`] for
//! `BENCH_OUT_DIR` and the seconds-long `BENCH_SMOKE` run).

use std::time::Instant;

use ljqo::prelude::*;
use ljqo_workload::{
    generate_hub_chains_query, generate_job_query, generate_query, Benchmark, JobShape, JobSpec,
};

/// Asserted ceiling on BUSHYII's optimality gap vs the exact bushy DP
/// at the largest budget of the sweep (N ≤ 14 relations only, where the
/// DP is feasible). `0.0` would demand the certified optimum on every
/// seed; the II descent with random restarts is not that strong on
/// every star instance, but it must stay within a small constant.
const MAX_GAP_AT_FULL_BUDGET: f64 = 0.5;

/// The benchmark shapes: three JOB-shaped generators, the paper's
/// chain-biased variation, and the hub-and-chains family.
#[derive(Clone, Copy)]
enum Shape {
    Job(JobShape),
    Chain,
    HubChains,
}

impl Shape {
    const ALL: [Shape; 5] = [
        Shape::Job(JobShape::Star),
        Shape::Job(JobShape::Snowflake),
        Shape::Job(JobShape::Cyclic),
        Shape::Chain,
        Shape::HubChains,
    ];

    fn name(self) -> &'static str {
        match self {
            Shape::Job(s) => s.name(),
            Shape::Chain => "chain",
            Shape::HubChains => "hub_chains",
        }
    }

    fn generate(self, n_joins: usize, seed: u64) -> Query {
        match self {
            Shape::Job(s) => generate_job_query(&JobSpec::new(s), n_joins, seed),
            Shape::Chain => generate_query(&Benchmark::GraphChain.spec(), n_joins, seed),
            Shape::HubChains => generate_hub_chains_query(n_joins, seed),
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

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

fn main() {
    let smoke = ljqo_bench::snapshot::smoke();
    let (sizes, taus, seeds): (&[usize], &[f64], u64) = if smoke {
        (&[7, 13], &[9.0], 2)
    } else {
        (&[7, 13, 30, 50], &[1.0, 3.0, 9.0], 3)
    };
    let full_tau = taus.last().copied().unwrap();
    let model = MemoryCostModel::default();
    let started = Instant::now();

    let mut rows: Vec<ljqo_json::Value> = Vec::new();
    let mut hub_assertions = 0u64;
    let mut gap_assertions = 0u64;
    for shape in Shape::ALL {
        for &n_joins in sizes {
            for &tau in taus {
                for (tree_method, linear_method) in
                    [(Method::BushyIi, Method::Ii), (Method::BushySa, Method::Sa)]
                {
                    let mut ratios = Vec::new();
                    let mut gaps = Vec::new();
                    let mut bushy_wins = 0u64;
                    let mut genuinely_bushy = 0u64;
                    for seed in 0..seeds {
                        let query =
                            shape.generate(n_joins, 0xb0_5c0 ^ ((n_joins as u64) << 24) ^ seed);
                        let n = query.n_relations();
                        let linear = Optimizer::new(
                            &model,
                            &OptimizerConfig::new(linear_method)
                                .with_time_limit(tau)
                                .with_seed(seed),
                        )
                        .solve(&query)
                        .expect("linear driver plans every instance")
                        .0;
                        let bushy = Optimizer::new(
                            &model,
                            &OptimizerConfig::new(tree_method)
                                .with_time_limit(tau)
                                .with_seed(seed)
                                .with_space(SearchSpace::Bushy),
                        )
                        .solve(&query)
                        .expect("bushy search plans every instance")
                        .0;
                        // Budget parity: both solves draw from the same
                        // τ·N²·κ pool (small per-restart slack aside).
                        let ceiling = (tau * 5.0 * (n * n) as f64) as u64 + 64 + 4 * n as u64;
                        assert!(
                            bushy.units_used <= ceiling,
                            "bushy overspent: {} > {ceiling} ({}/{n_joins}j/τ{tau}/{seed})",
                            bushy.units_used,
                            shape.name()
                        );
                        if bushy.cost < linear.cost * (1.0 - 1e-12) {
                            bushy_wins += 1;
                        }
                        if bushy.is_bushy() {
                            genuinely_bushy += 1;
                        }
                        ratios.push(linear.cost / bushy.cost);

                        // Exactly solvable instances: compare against the
                        // certified optima.
                        if n <= 14 && tau == full_tau {
                            let comp: Vec<RelId> = query.rel_ids().collect();
                            let gap = bushy_gap_vs_dp(&query, &model, &comp, bushy.cost)
                                .expect("small connected components fit the bushy DP")
                                .expect("benchmarks have at least two relations");
                            if tree_method == Method::BushyIi {
                                assert!(
                                    gap <= MAX_GAP_AT_FULL_BUDGET,
                                    "BUSHYII gap {gap:.4} above {MAX_GAP_AT_FULL_BUDGET} \
                                     ({}/{n_joins}j/τ{tau}/{seed})",
                                    shape.name()
                                );
                                gap_assertions += 1;
                            }
                            gaps.push(gap);

                            if matches!(shape, Shape::HubChains) {
                                let optimum = |space| {
                                    optimal_dp(&query, &comp, &model, space)
                                        .expect("hub-chains queries fit the DP")
                                        .expect("hub-chains queries are not singletons")
                                };
                                let (_, linear_opt) = optimum(SearchSpace::Linear);
                                let (tree, bushy_opt) = optimum(SearchSpace::Bushy);
                                // The shape exists to make this pair of
                                // strict inequalities true: no linear
                                // order can match the bushy optimum, and
                                // the search actually cashes that in.
                                assert!(
                                    !tree.is_linear() && bushy_opt < linear_opt,
                                    "hub-chains linear opt {linear_opt:e} does not dominate \
                                     bushy opt {bushy_opt:e} ({n_joins}j/{seed})"
                                );
                                assert!(
                                    bushy.cost < linear_opt,
                                    "bushy search {:e} lost to the linear optimum {linear_opt:e} \
                                     ({n_joins}j/τ{tau}/{seed})",
                                    bushy.cost
                                );
                                hub_assertions += 1;
                            }
                        }
                    }
                    println!(
                        "{}/{n_joins}j/τ{tau}/{}: linear-vs-bushy cost ratio {:.4}, \
                         bushy wins {bushy_wins}/{seeds}, genuinely bushy {genuinely_bushy}/{seeds}",
                        shape.name(),
                        tree_method.name(),
                        mean(&ratios)
                    );
                    rows.push(ljqo_json::json!({
                        "shape": shape.name(),
                        "n_joins": n_joins as u64,
                        "tau": tau,
                        "method": tree_method.name(),
                        "linear_method": linear_method.name(),
                        "mean_cost_ratio_linear_over_bushy": json_num(mean(&ratios)),
                        "bushy_wins": bushy_wins,
                        "genuinely_bushy": genuinely_bushy,
                        "mean_gap_vs_bushy_dp": if gaps.is_empty() {
                            ljqo_json::Value::Null
                        } else {
                            json_num(mean(&gaps))
                        },
                        "max_gap_vs_bushy_dp": if gaps.is_empty() {
                            ljqo_json::Value::Null
                        } else {
                            json_num(gaps.iter().cloned().fold(0.0f64, f64::max))
                        },
                        "seeds": seeds,
                    }));
                }
            }
        }
    }
    assert!(
        hub_assertions > 0 && gap_assertions > 0,
        "the quality assertions must actually fire (hub {hub_assertions}, gap {gap_assertions})"
    );

    let report = ljqo_json::json!({
        "bench": "bushy_search",
        "description": "Bushy-tree local search vs the linear drivers at equal unit budget, with DP-certified quality on small instances",
        "model": "memory",
        "workload": "JOB star/snowflake/cyclic, chain-biased paper benchmark, hub-and-chains",
        "max_gap_at_full_budget": MAX_GAP_AT_FULL_BUDGET,
        "hub_assertions": hub_assertions,
        "gap_assertions": gap_assertions,
        "smoke": smoke,
        "wall_s": json_num(started.elapsed().as_secs_f64()),
        "grid": ljqo_json::Value::Array(rows),
    });

    ljqo_bench::snapshot::write_snapshot("BENCH_bushy.json", &report);
}
