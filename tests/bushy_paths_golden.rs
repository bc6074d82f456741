//! Bushy-path golden: a seeded solve over the bushy tree space is a pure
//! function of its inputs, and refactors of the driver layer must leave
//! every result unchanged.
//!
//! The grid runs `BUSHYII`, `BUSHYSA` and `IAI` (a linear method name,
//! which the tree search maps onto bushy II) over every JOB shape at 10
//! and 20 joins with seeds 1–2, plus a disconnected query. Each line
//! records the rendered trees (relation indices), the bits of each
//! segment cost and of the total cost, the budget units used, the
//! evaluations performed, the degradation level and the deadline flag.
//!
//! Regenerate deliberately with `UPDATE_GOLDEN=1 cargo test --test
//! bushy_paths_golden` and review the diff.

use std::fmt::Write as _;
use std::path::PathBuf;

use ljqo::prelude::*;
use ljqo_workload::{generate_job_query, JobShape, JobSpec};

/// `τ` for the grid, as in the driver-path golden.
const TAU: f64 = 1.0;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/bushy_paths.txt")
}

/// Two chains and a singleton: three components, two cross products
/// (the driver-path golden's disconnected query).
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

/// What one bushy solve reports.
struct BushyRun {
    trees: Vec<BushyTree>,
    segment_costs: Vec<f64>,
    cost: f64,
    units_used: u64,
    n_evals: u64,
    degradation: Degradation,
    deadline_expired: bool,
}

/// One seeded solve of `query` over the bushy tree space.
fn solve(query: &Query, config: &OptimizerConfig) -> BushyRun {
    let model = MemoryCostModel::default();
    let config = config.with_space(SearchSpace::Bushy);
    let (r, _) = Optimizer::new(&model, &config)
        .solve(query)
        .expect("every grid query plans");
    BushyRun {
        trees: r.trees,
        segment_costs: r.segment_costs,
        cost: r.cost,
        units_used: r.units_used,
        n_evals: r.n_evals,
        degradation: r.degradation,
        deadline_expired: r.deadline_expired,
    }
}

/// A tree with relation indices for leaves, e.g. `((0 ⋈ 1) ⋈ 2)`.
fn render(tree: &BushyTree) -> String {
    tree.render(|r| r.index().to_string())
}

fn record(out: &mut String, label: &str, run: &BushyRun) {
    let trees: Vec<String> = run.trees.iter().map(render).collect();
    let segment_costs: Vec<String> = run
        .segment_costs
        .iter()
        .map(|c| format!("{:016x}", c.to_bits()))
        .collect();
    writeln!(
        out,
        "{label} cost={:016x} segment_costs={} units={} evals={} degradation={} deadline={} trees={}",
        run.cost.to_bits(),
        segment_costs.join(","),
        run.units_used,
        run.n_evals,
        run.degradation.label(),
        run.deadline_expired,
        trees.join("|")
    )
    .expect("writing to a String cannot fail");
}

fn grid() -> String {
    let mut out = String::new();
    for method in [Method::BushyIi, Method::BushySa, Method::Iai] {
        for (i, (label, query)) in queries().iter().enumerate() {
            let config = OptimizerConfig::new(method)
                .with_time_limit(TAU)
                .with_seed(i as u64 % 2 + 1);
            let run = solve(query, &config);
            record(&mut out, &format!("{} {label}", method.name()), &run);
        }
    }
    out
}

#[test]
fn bushy_paths_match_the_golden_file() {
    let got = grid();
    assert_eq!(got, grid(), "a bushy path is not deterministic");
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
            "bushy path line {} drifted from the golden file",
            i + 1
        );
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "the golden grid changed size"
    );
}
