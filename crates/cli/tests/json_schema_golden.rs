//! Golden-file test for the `--json` output schema.
//!
//! Snapshots the set of key paths (not values) the CLI emits, so any
//! field rename, removal, or addition — including the cache stats block —
//! shows up as a reviewable diff against the committed golden file.
//!
//! To update after an intentional schema change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p ljqo-cli --test json_schema_golden
//! ```

use std::path::PathBuf;
use std::process::Command;

use ljqo::prelude::*;
use ljqo_cli::QueryFile;
use ljqo_workload::{PerturbMode, Perturbation};

fn sample_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/data/sample_query.json")
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/json_schema.txt")
}

/// Collect every key path in `value`, descending objects (`a.b`) and the
/// first element of arrays (`a[]`).
fn key_paths(prefix: &str, value: &ljqo_json::Value, out: &mut Vec<String>) {
    if let Some(fields) = value.as_object() {
        for (k, v) in fields {
            let path = if prefix.is_empty() {
                k.clone()
            } else {
                format!("{prefix}.{k}")
            };
            out.push(path.clone());
            key_paths(&path, v, out);
        }
    } else if let Some(items) = value.as_array() {
        if let Some(first) = items.first() {
            key_paths(&format!("{prefix}[]"), first, out);
        }
    }
}

fn run_cli(extra: &[&str]) -> ljqo_json::Value {
    let out = Command::new(env!("CARGO_BIN_EXE_ljqo-opt"))
        .arg(sample_path())
        .arg("--json")
        .args(extra)
        .output()
        .expect("CLI binary runs");
    assert!(
        out.status.success(),
        "CLI failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    ljqo_json::parse(&String::from_utf8_lossy(&out.stdout)).expect("CLI emits valid JSON")
}

/// Like [`run_cli`] but with no positional query file — for invocations
/// that generate their workload via `--workload-shape`.
fn run_cli_generated(extra: &[&str]) -> ljqo_json::Value {
    let out = Command::new(env!("CARGO_BIN_EXE_ljqo-opt"))
        .arg("--json")
        .args(extra)
        .output()
        .expect("CLI binary runs");
    assert!(
        out.status.success(),
        "CLI failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    ljqo_json::parse(&String::from_utf8_lossy(&out.stdout)).expect("CLI emits valid JSON")
}

#[test]
fn json_schema_matches_the_golden_file() {
    // Four invocations: caching off (the default), caching on, a
    // generated workload with an injected q-error, and the bushy search
    // space. The schema must be identical every way — the cache and
    // robustness blocks are always present, and the bushy path mirrors
    // the linear keys — so all four feed one snapshot.
    let mut paths = Vec::new();
    key_paths("", &run_cli(&[]), &mut paths);
    key_paths(
        "",
        &run_cli(&["--space", "bushy", "--method", "BUSHYII"]),
        &mut paths,
    );
    key_paths(
        "",
        &run_cli(&[
            "--cache-entries",
            "32",
            "--cache-shards",
            "2",
            "--fp-buckets",
            "8",
        ]),
        &mut paths,
    );
    key_paths(
        "",
        &run_cli_generated(&[
            "--workload-shape",
            "snowflake",
            "--workload-joins",
            "8",
            "--qerror",
            "10",
            "--qerror-mode",
            "correlated",
            "--method",
            "CARDFREE",
        ]),
        &mut paths,
    );
    paths.sort();
    paths.dedup();
    let got = paths.join("\n") + "\n";

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path(), &got).expect("golden file is writable");
        return;
    }
    let want = std::fs::read_to_string(golden_path())
        .expect("golden file exists (run with UPDATE_GOLDEN=1 to create it)");
    assert_eq!(
        got, want,
        "JSON schema drifted from the golden file; if intentional, \
         re-run with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn bushy_space_reports_trees_and_rejects_linear_only_flags() {
    // `--space bushy` emits the same schema with `"space": "bushy"`,
    // per-segment rendered trees, and a cost no worse than the linear
    // solve of the same query at the same budget and seed.
    let bushy = run_cli(&["--space", "bushy", "--method", "BUSHYII", "--seed", "3"]);
    assert_eq!(bushy.get("space").and_then(|v| v.as_str()), Some("bushy"));
    assert_eq!(
        bushy.get("method").and_then(|v| v.as_str()),
        Some("BUSHYII")
    );
    let bushy_cost = bushy.get("cost").and_then(|v| v.as_f64()).unwrap();
    assert!(bushy_cost.is_finite() && bushy_cost > 0.0);
    let trees = bushy.get("trees").and_then(|v| v.as_array()).unwrap();
    let segments = bushy.get("segments").and_then(|v| v.as_array()).unwrap();
    assert_eq!(trees.len(), segments.len());
    for tree in trees {
        let rendered = tree.as_str().expect("trees are rendered strings");
        assert!(rendered.contains('⋈') || !rendered.contains('('));
    }

    let linear = run_cli(&["--seed", "3"]);
    assert_eq!(linear.get("space").and_then(|v| v.as_str()), Some("linear"));
    assert_eq!(linear.get("bushy").and_then(|v| v.as_bool()), Some(false));
    let linear_cost = linear.get("cost").and_then(|v| v.as_f64()).unwrap();
    assert!(
        bushy_cost <= linear_cost * (1.0 + 1e-9),
        "bushy ({bushy_cost:e}) must not lose to linear ({linear_cost:e})"
    );

    // The linear-only flags are refused loudly (usage error, exit 2),
    // never silently downgraded to a linear solve: parallel search shards
    // the linear search loop, and the table compares the nine linear
    // methods.
    for conflict in [
        ["--workers", "2"].as_slice(),
        ["--portfolio"].as_slice(),
        ["--all-methods"].as_slice(),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ljqo-opt"))
            .arg(sample_path())
            .args(["--space", "bushy"])
            .args(conflict)
            .output()
            .expect("CLI binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{conflict:?} with --space bushy must be a usage error"
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("linear search space"),
            "{conflict:?} error message names the conflict"
        );
    }
}

#[test]
fn bushy_trees_cache_and_replay() {
    // The CLI's one solve with a cache is a cold miss that stores the tree.
    let cold = run_cli(&[
        "--space",
        "bushy",
        "--method",
        "BUSHYII",
        "--seed",
        "3",
        "--cache-entries",
        "8",
    ]);
    assert_eq!(cold.get("bushy").and_then(|v| v.as_bool()), Some(true));
    let cache = cold.get("cache").expect("cache block present");
    assert_eq!(cache.get("outcome").and_then(|v| v.as_str()), Some("miss"));
    assert_eq!(cache.get("inserts").and_then(|v| v.as_u64()), Some(1));
    let cli_cost = cold.get("cost").and_then(|v| v.as_f64()).unwrap();

    // The same serving path, driven twice in one process: the second
    // solve is a hit that replays the tree at the cold cost's bits.
    let text = std::fs::read_to_string(sample_path()).unwrap();
    let query = QueryFile::from_json(&text).unwrap().into_query().unwrap();
    let model = MemoryCostModel::default();
    let config = OptimizerConfig::new(Method::BushyIi)
        .with_seed(3)
        .with_space(SearchSpace::Bushy);
    let plans = PlanCache::new(PlanCacheConfig::with_entries(8));
    let optimizer =
        Optimizer::new(&model, &config).with_cache(&plans, FingerprintConfig::default());
    let (first, via) = optimizer.solve(&query).unwrap();
    assert_eq!(via.outcome, CacheOutcome::Miss);
    assert_eq!(first.cost, cli_cost);
    assert!(first.is_bushy());
    let (second, via) = optimizer.solve(&query).unwrap();
    assert_eq!(via.outcome, CacheOutcome::Hit);
    assert_eq!(second.trees, first.trees);
    assert_eq!(second.cost.to_bits(), first.cost.to_bits());

    // The regret study replays the bushy tree under the true catalog.
    let replayed = run_cli(&["--space", "bushy", "--method", "BUSHYII", "--qerror", "10"]);
    let r = replayed
        .get("robustness")
        .expect("robustness block present");
    assert_eq!(r.get("enabled").and_then(|v| v.as_bool()), Some(true));
    let observed = Perturbation::new(10.0, PerturbMode::Independent, 0).observed(&query);
    let config = config.with_seed(0);
    let (plan, _) = Optimizer::new(&model, &config).solve(&observed).unwrap();
    assert!(plan.is_bushy());
    let true_cost = r.get("true_cost").and_then(|v| v.as_f64()).unwrap();
    let repriced = recost_trees(&query, &model, &plan.trees);
    assert!(
        (true_cost - repriced).abs() <= 1e-9 * repriced,
        "true cost {true_cost} is not the tree's re-priced cost {repriced}"
    );
    let regret = r.get("regret").and_then(|v| v.as_f64()).unwrap();
    assert!(regret >= 0.0 && regret.is_finite(), "regret = {regret}");
}

#[test]
fn cache_block_reports_the_serving_outcome() {
    // Value-level checks on the cache block (the golden file only pins
    // the schema): a cold process always reports one miss + one insert
    // when caching is on, and `enabled: false` with outcome "off" when
    // it is not.
    let on = run_cli(&["--cache-entries", "16"]);
    let cache = on.get("cache").expect("cache block present");
    assert_eq!(cache.get("enabled").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(
        cache.get("outcome").and_then(|v| v.as_str()),
        Some("miss"),
        "a fresh process has an empty cache"
    );
    assert_eq!(cache.get("misses").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(cache.get("inserts").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(
        cache.get("resident_entries").and_then(|v| v.as_u64()),
        Some(1)
    );

    let off = run_cli(&[]);
    let cache = off.get("cache").expect("cache block present even when off");
    assert_eq!(cache.get("enabled").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(cache.get("outcome").and_then(|v| v.as_str()), Some("off"));
    assert_eq!(cache.get("hits").and_then(|v| v.as_u64()), Some(0));
}

#[test]
fn robustness_block_reports_the_regret_study() {
    // No q-error: the block is present but disabled, with zeroed
    // measurements — same always-present contract as the cache block.
    let off = run_cli(&[]);
    let r = off.get("robustness").expect("robustness block present");
    assert_eq!(r.get("enabled").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(r.get("replay").and_then(|v| v.as_str()), Some("off"));
    assert_eq!(r.get("regret").and_then(|v| v.as_f64()), Some(0.0));
    assert_eq!(
        r.get("workload_shape").and_then(|v| v.as_str()),
        Some("file")
    );

    // With an injected q-error on a generated star workload, the study
    // runs: every measurement is a positive finite cost and the regret
    // is non-negative.
    let on = run_cli_generated(&["--workload-shape", "star", "--qerror", "10", "--seed", "5"]);
    let r = on.get("robustness").expect("robustness block present");
    assert_eq!(r.get("enabled").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(r.get("qerror").and_then(|v| v.as_f64()), Some(10.0));
    assert_eq!(
        r.get("mode").and_then(|v| v.as_str()),
        Some("independent"),
        "independent is the default mode"
    );
    assert_eq!(
        r.get("workload_shape").and_then(|v| v.as_str()),
        Some("star")
    );
    for key in ["observed_cost", "true_cost", "reference_cost"] {
        let v = r.get(key).and_then(|v| v.as_f64()).unwrap();
        assert!(v.is_finite() && v > 0.0, "{key} = {v}");
    }
    let regret = r.get("regret").and_then(|v| v.as_f64()).unwrap();
    assert!(regret >= 0.0 && regret.is_finite(), "regret = {regret}");
    let replay = r.get("replay").and_then(|v| v.as_str()).unwrap();
    assert!(
        replay == "hit" || replay == "hit_recosted" || replay == "stale",
        "unexpected replay outcome {replay:?}"
    );

    // CARDFREE ignores statistics, so its believed and true plan are the
    // same structural order: the method must run end to end under
    // perturbation without degradation.
    let cardfree = run_cli_generated(&[
        "--workload-shape",
        "cyclic",
        "--qerror",
        "100",
        "--method",
        "CARDFREE",
    ]);
    assert_eq!(
        cardfree.get("method").and_then(|v| v.as_str()),
        Some("CARDFREE")
    );
    assert_eq!(
        cardfree.get("degradation").and_then(|v| v.as_str()),
        Some("none")
    );
    let r = cardfree
        .get("robustness")
        .expect("robustness block present");
    assert_eq!(
        r.get("solve_degradation").and_then(|v| v.as_str()),
        Some("none")
    );
}

#[test]
fn non_finite_or_non_positive_budget_multipliers_are_usage_errors() {
    // An infinite multiplier saturates the budget; the deadline only
    // bounds the run if the flag were accepted.
    for bad in [
        ["--tau", "inf"],
        ["--tau", "0"],
        ["--kappa", "inf"],
        ["--kappa", "-1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ljqo-opt"))
            .arg(sample_path())
            .args(bad)
            .args(["--deadline-ms", "200"])
            .output()
            .expect("CLI binary runs");
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("must be a finite value > 0"));
    }
}
