//! Seeded-plan golden: the optimizer's output is a pure function of the
//! query, the model, the method and the seed.
//!
//! Every run in the grid records its plan order, the bits of its cost,
//! the budget units it used and the evaluations it performed. Kernel
//! changes that claim to be exact (a cheaper RNG draw, a different
//! placed-set representation, a memo) must leave every line unchanged;
//! a line that moves means the search took a different path.
//!
//! Regenerate deliberately with `UPDATE_GOLDEN=1 cargo test --test
//! seeded_plans_golden` and review the diff.

use std::fmt::Write as _;
use std::path::PathBuf;

use ljqo::prelude::*;
use ljqo_workload::{generate_job_query, JobShape, JobSpec};

/// `τ` for the grid: small enough for debug builds, large enough that
/// every method runs several descents or temperature stages.
const TAU: f64 = 1.0;

/// The methods whose search loops the golden pins: the two pure searches
/// and the seeded and two-phase hybrids.
const METHODS: [Method; 6] = [
    Method::Ii,
    Method::Sa,
    Method::Iai,
    Method::Iki,
    Method::Agi,
    Method::Saa,
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/seeded_plans.txt")
}

fn record(out: &mut String, label: &str, query: &Query, config: &OptimizerConfig) {
    let model = MemoryCostModel::default();
    let result = optimize(query, &model, config);
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
        "{label} cost={:016x} units={} evals={} order={}",
        result.cost.to_bits(),
        result.units_used,
        result.n_evals,
        order.join("|")
    )
    .expect("writing to a String cannot fail");
}

fn grid() -> String {
    let mut out = String::new();
    for shape in JobShape::ALL {
        for n_joins in [10usize, 20, 40] {
            for seed in [1u64, 2] {
                let query = generate_job_query(&JobSpec::new(shape), n_joins, seed);
                for method in METHODS {
                    let config = OptimizerConfig::new(method)
                        .with_time_limit(TAU)
                        .with_seed(seed);
                    let label =
                        format!("{} {} n={n_joins} seed={seed}", method.name(), shape.name());
                    record(&mut out, &label, &query, &config);
                }
            }
        }
    }
    // One query past 64 relations, so the multi-word placed-set tier of
    // the incremental evaluator and the move filter is pinned too.
    let query = generate_job_query(&JobSpec::new(JobShape::Snowflake), 200, 1);
    let config = OptimizerConfig::new(Method::Ii)
        .with_time_limit(0.05)
        .with_seed(1);
    record(&mut out, "II snowflake n=200 seed=1", &query, &config);
    out
}

#[test]
fn seeded_plans_match_the_golden_file() {
    let got = grid();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path(), &got).expect("golden file is writable");
        return;
    }
    let want = std::fs::read_to_string(golden_path())
        .expect("golden file exists (run with UPDATE_GOLDEN=1 to create it)");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "seeded run {} drifted from the golden file", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "the golden grid changed size"
    );
}
