//! Every shipped cost, checked against the test-only plan pricer.
//!
//! Each `Optimizer` path — sequential, batch, cache miss, cache hit (on
//! the same and on a relabelled query), `recost_plan`, and the bushy
//! space with and without a cache — reports a plan and its total cost.
//! The `oracle` module prices that plan again from the query and the
//! plan's trees alone, with its own width bookkeeping for tree joins and
//! late cross products. Every reported total must equal the oracle's
//! price of the plan at the reported segment costs bit for bit, every
//! re-priced total must equal the oracle's own price bit for bit, every
//! segment cost must be the oracle's price of its tree (see [`check`]),
//! and the plan's leaf orders must be its trees' leaves.
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

/// The reported plan agrees with the oracle: its leaf orders are its
/// trees' leaves, each segment cost is the oracle's price of its tree,
/// and the total is the oracle's price of the plan at those segment
/// costs, bit for bit.
///
/// A segment the linear search found carries the cost its incremental
/// evaluator reported, which re-associates the reused tail of the walk
/// and so may differ from a fresh walk in the last bits; `exact` is false
/// for such results, and their segment costs are checked to 1e-12
/// relative instead.
fn check(tag: &str, model: &dyn CostModel, q: &Query, r: &Optimized, exact: bool) {
    assert_eq!(r.trees.len(), r.plan.segments.len(), "{tag}");
    assert_eq!(r.trees.len(), r.segment_costs.len(), "{tag}");
    for (i, (tree, order)) in r.trees.iter().zip(&r.plan.segments).enumerate() {
        assert_eq!(tree.leaves(), order.rels(), "{tag}: segment {i}");
        let got = r.segment_costs[i];
        let want = oracle::tree_cost(model, q, tree);
        let agree = if exact {
            got.to_bits() == want.to_bits()
        } else {
            (got - want).abs() <= 1e-12 * want.abs()
        };
        assert!(
            agree,
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
}

#[test]
fn linear_paths_report_the_oracle_cost() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x0ac1_0001 ^ case);
        let n_components = rng.gen_range(1usize..5);
        let cyclic = component_query(&mut rng, n_components, true);
        let acyclic = component_query(&mut rng, n_components, false);
        let method = [Method::Ii, Method::Iai, Method::Sa][case as usize % 3];
        let config = OptimizerConfig::new(method)
            .with_seed(rng.gen())
            .with_time_limit(1.0);
        for model in models() {
            let model = model.as_ref();
            let tag = format!("case {case} model {} {method}", model.name());
            let optimizer = Optimizer::new(model, &config);

            let (r, _) = optimizer.solve(&cyclic).unwrap();
            check(&format!("{tag} sequential"), model, &cyclic, &r, false);
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
                check(
                    &format!("{tag} batch {i}"),
                    model,
                    q,
                    r.as_ref().unwrap(),
                    false,
                );
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
                check(&format!("{tag} {path}"), model, &q, &r, false);
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
            check(&format!("{tag} uncached"), model, &q, &r, true);
            assert_eq!(
                recost_trees(&q, model, &r.trees).to_bits(),
                r.cost.to_bits(),
                "{tag} recost_trees"
            );
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
                check(&format!("{tag} {path}"), model, &q, &served, true);
            }
        }
    }
}
