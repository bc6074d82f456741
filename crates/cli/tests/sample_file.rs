//! End-to-end: the checked-in sample query file parses and optimizes.

use ljqo::prelude::*;
use ljqo_cli::QueryFile;

fn sample_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/data/sample_query.json")
}

#[test]
fn sample_query_file_optimizes_under_all_models() {
    let text = std::fs::read_to_string(sample_path()).expect("sample file exists");
    let query = QueryFile::from_json(&text)
        .expect("sample parses")
        .into_query()
        .expect("sample validates");
    assert_eq!(query.n_relations(), 6);
    assert_eq!(query.n_joins(), 5);

    let memory = MemoryCostModel::default();
    let disk = DiskCostModel::default();
    let multi = ljqo_cost::MultiMethodCostModel::default();
    for model in [
        &memory as &dyn CostModel,
        &disk as &dyn CostModel,
        &multi as &dyn CostModel,
    ] {
        let r = Optimizer::new(model, &OptimizerConfig::new(Method::Iai).with_seed(1))
            .solve(&query)
            .unwrap()
            .0;
        assert_eq!(r.plan.n_relations(), 6);
        assert!(r.cost.is_finite() && r.cost > 0.0, "{}", model.name());
    }
}

#[test]
fn sample_methods_agree_on_ranking_direction() {
    let text = std::fs::read_to_string(sample_path()).unwrap();
    let query = QueryFile::from_json(&text).unwrap().into_query().unwrap();
    let model = MemoryCostModel::default();
    // IAI at 9N² must not lose to a 0.3N² run of itself.
    let long = Optimizer::new(&model, &OptimizerConfig::new(Method::Iai).with_seed(2))
        .solve(&query)
        .unwrap()
        .0;
    let short = Optimizer::new(
        &model,
        &OptimizerConfig::new(Method::Iai)
            .with_seed(2)
            .with_time_limit(0.3),
    )
    .solve(&query)
    .unwrap()
    .0;
    assert!(long.cost <= short.cost);
}
