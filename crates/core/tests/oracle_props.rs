//! Every shipped cost, checked against the test-only plan pricer.
//!
//! Each `Optimizer` path — every linear method, sequential and in a
//! batch, each parallel fan-out (one method's workers, the portfolio,
//! the robust portfolio), early stopping, cache miss,
//! cache hit (on the same and on a relabelled query), `recost_plan`, and
//! the bushy space with and without a cache — reports a plan and its
//! total cost. The `oracle` module prices that plan again from the query
//! and the plan's trees alone, with its own width bookkeeping for tree
//! joins and late cross products. Every segment cost must be the
//! oracle's price of its tree, every total the oracle's price of the
//! plan, and both `recost_trees` of the shipped trees, all bit for bit
//! (see [`check`]); the plan's leaf orders must be its trees' leaves.
//!
//! Random queries of one to four components under all three cost
//! models. Offline property-test idiom: seeded-RNG loops, one derived
//! seed per case, failures reproduce exactly.

#[path = "../../cost/tests/oracle/mod.rs"]
mod oracle;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ljqo::cost::MultiMethodCostModel;
use ljqo::prelude::*;

const CASES: u64 = 12;

fn models() -> Vec<Box<dyn CostModel>> {
    vec![
        Box::new(MemoryCostModel::default()),
        Box::new(DiskCostModel::default()),
        Box::new(MultiMethodCostModel::default()),
    ]
}

/// A query of `n_components` components. Each is a random spanning tree
/// of 1–6 relations; with `cycles`, a few extra edges close cycles.
/// Cardinalities are a factor of 3 apart, so every relation has its own
/// fingerprint colour and a relabelled copy maps back exactly.
fn component_query(rng: &mut SmallRng, n_components: usize, cycles: bool) -> Query {
    let mut b = QueryBuilder::new();
    let mut names: Vec<Vec<String>> = Vec::new();
    let mut g = 0u32;
    for c in 0..n_components {
        let size = rng.gen_range(1usize..7);
        let comp: Vec<String> = (0..size).map(|i| format!("c{c}_r{i}")).collect();
        for name in &comp {
            b = b.relation(name, 7 * 3u64.pow(g));
            g += 1;
        }
        names.push(comp);
    }
    for comp in &names {
        for i in 1..comp.len() {
            let j = rng.gen_range(0..i);
            b = b.join(&comp[j], &comp[i], 10f64.powf(rng.gen_range(-4.0..-0.5)));
        }
        if cycles && comp.len() > 2 {
            for i in 2..comp.len() {
                if rng.gen_bool(0.3) {
                    let sel = 10f64.powf(rng.gen_range(-3.0..-0.5));
                    b = b.join(&comp[i - 2], &comp[i], sel);
                }
            }
        }
    }
    b.build().unwrap()
}

/// The same query with its relation ids reversed.
fn relabelled(q: &Query) -> Query {
    let n = q.n_relations();
    let relations: Vec<_> = q.relations().iter().rev().cloned().collect();
    let edges: Vec<JoinEdge> = q
        .graph()
        .edges()
        .iter()
        .map(|e| JoinEdge {
            a: RelId((n - 1 - e.a.index()) as u32),
            b: RelId((n - 1 - e.b.index()) as u32),
            ..*e
        })
        .collect();
    Query::new(relations, edges).unwrap()
}

/// The reported plan ships its price, bit for bit: its leaf orders are
/// its trees' leaves, each segment cost is the oracle's price of its
/// tree, the total is the oracle's price of the plan at those segment
/// costs, and the total is what `recost_trees` charges for the trees.
fn check(tag: &str, model: &dyn CostModel, q: &Query, r: &Optimized) {
    assert_eq!(r.trees.len(), r.plan.segments.len(), "{tag}");
    assert_eq!(r.trees.len(), r.segment_costs.len(), "{tag}");
    for (i, (tree, order)) in r.trees.iter().zip(&r.plan.segments).enumerate() {
        assert_eq!(tree.leaves(), order.rels(), "{tag}: segment {i}");
        let got = r.segment_costs[i];
        let want = oracle::tree_cost(model, q, tree);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{tag}: segment {i} {tree} costs {got} but prices at {want}"
        );
    }
    let want = oracle::plan_cost(model, q, &r.trees, &r.segment_costs);
    assert_eq!(
        r.cost.to_bits(),
        want.to_bits(),
        "{tag}: reported {} but the oracle prices the plan at {want}",
        r.cost
    );
    assert_eq!(
        recost_trees(q, model, &r.trees).to_bits(),
        r.cost.to_bits(),
        "{tag}: recost_trees"
    );
}

#[test]
fn linear_paths_report_the_oracle_cost() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x0ac1_0001 ^ case);
        let n_components = rng.gen_range(1usize..5);
        let cyclic = component_query(&mut rng, n_components, true);
        let acyclic = component_query(&mut rng, n_components, false);
        let method = Method::ALL[case as usize % Method::ALL.len()];
        let config = OptimizerConfig::new(method)
            .with_seed(rng.gen())
            .with_time_limit(1.0);
        for model in models() {
            let model = model.as_ref();
            let tag = format!("case {case} model {} {method}", model.name());
            let optimizer = Optimizer::new(model, &config);

            let (r, _) = optimizer.solve(&cyclic).unwrap();
            check(&format!("{tag} sequential"), model, &cyclic, &r);
            assert_eq!(
                recost_plan(&cyclic, model, &r.plan).to_bits(),
                oracle::repriced_plan_cost(model, &cyclic, &r.trees).to_bits(),
                "{tag} recost_plan"
            );

            let batch = optimizer
                .with_batch(BatchOptions {
                    threads: 2,
                    ..BatchOptions::default()
                })
                .solve_batch(&[cyclic.clone(), acyclic.clone()]);
            for (i, (r, q)) in batch.results.iter().zip([&cyclic, &acyclic]).enumerate() {
                check(&format!("{tag} batch {i}"), model, q, r.as_ref().unwrap());
            }

            let cache = PlanCache::new(PlanCacheConfig::default());
            let cached = optimizer.with_cache(&cache, FingerprintConfig::default());
            for (path, q, outcome) in [
                ("miss", acyclic.clone(), CacheOutcome::Miss),
                ("hit", acyclic.clone(), CacheOutcome::Hit),
                ("relabelled hit", relabelled(&acyclic), CacheOutcome::Hit),
            ] {
                let (r, via) = cached.solve(&q).unwrap();
                assert_eq!(via.outcome, outcome, "{tag} {path}");
                check(&format!("{tag} {path}"), model, &q, &r);
            }
        }
    }
}

#[test]
fn fanouts_and_early_stop_report_the_oracle_cost() {
    let runs: [(&str, Option<Parallelism>, Option<f64>); 5] = [
        ("workers2", Some(Parallelism::workers(2)), None),
        ("portfolio4", Some(Parallelism::portfolio(4)), None),
        ("robust4", Some(Parallelism::robust_portfolio(4)), None),
        ("early_stop", None, Some(0.5)),
        (
            "early_stop_workers2",
            Some(Parallelism::workers(2)),
            Some(0.5),
        ),
    ];
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x0ac1_0003 ^ case);
        let n_components = rng.gen_range(1usize..5);
        let q = component_query(&mut rng, n_components, true);
        let method = Method::ALL[case as usize % Method::ALL.len()];
        let seed = rng.gen();
        for model in models() {
            let model = model.as_ref();
            for (name, parallelism, early_stop) in &runs {
                let mut config = OptimizerConfig::new(method)
                    .with_seed(seed)
                    .with_time_limit(1.0);
                if let Some(eps) = early_stop {
                    config = config.with_early_stop(*eps);
                }
                let mut optimizer = Optimizer::new(model, &config);
                if let Some(par) = parallelism {
                    optimizer = optimizer.with_parallelism(par);
                }
                let (r, _) = optimizer.solve(&q).unwrap();
                let tag = format!("case {case} model {} {method} {name}", model.name());
                check(&tag, model, &q, &r);
            }
        }
    }
}

#[test]
fn bushy_paths_report_the_oracle_cost() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x0ac1_0002 ^ case);
        let n_components = rng.gen_range(1usize..5);
        let q = component_query(&mut rng, n_components, case % 2 == 0);
        let method = [Method::BushyIi, Method::BushySa][case as usize % 2];
        let config = OptimizerConfig::new(method)
            .with_seed(rng.gen())
            .with_time_limit(1.0)
            .with_space(SearchSpace::Bushy);
        for model in models() {
            let model = model.as_ref();
            let tag = format!("case {case} model {} {method}", model.name());
            let optimizer = Optimizer::new(model, &config);

            let (r, _) = optimizer.solve(&q).unwrap();
            check(&format!("{tag} uncached"), model, &q, &r);
            // The leaf orders alone, re-priced as left-deep trees.
            let left_deep: Vec<BushyTree> = r
                .plan
                .segments
                .iter()
                .map(|o| BushyTree::left_deep(o.rels()))
                .collect();
            assert_eq!(
                recost_plan(&q, model, &r.plan).to_bits(),
                oracle::repriced_plan_cost(model, &q, &left_deep).to_bits(),
                "{tag} recost_plan"
            );

            let cache = PlanCache::new(PlanCacheConfig::default());
            let cached = optimizer.with_cache(&cache, FingerprintConfig::default());
            for (path, outcome) in [("miss", CacheOutcome::Miss), ("hit", CacheOutcome::Hit)] {
                let (served, via) = cached.solve(&q).unwrap();
                assert_eq!(via.outcome, outcome, "{tag} {path}");
                assert_eq!(served.trees, r.trees, "{tag} {path}");
                check(&format!("{tag} {path}"), model, &q, &served);
            }
        }
    }
}
