//! Differential tests for the plan-cache serving path.
//!
//! The central claim the cache makes is *observational equivalence*: a
//! query answered from the cache is indistinguishable — bit-for-bit in
//! cost, identical in plan — from the cold solve that populated the
//! entry. These tests check that claim differentially, across all three
//! cost models and join graphs of one to four components, and then check
//! the batch driver's dedup accounting against the plain batch driver.
//!
//! Offline property-test idiom: seeded-RNG loops, one derived seed per
//! case, failures reproduce exactly.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ljqo::cost::MultiMethodCostModel;
use ljqo::prelude::*;

const CASES: u64 = 24;

/// A query with exactly `n_components` join-graph components, each a
/// small random tree (possibly a singleton relation).
fn component_query(rng: &mut SmallRng, n_components: usize) -> Query {
    let mut b = QueryBuilder::new();
    let mut names: Vec<Vec<String>> = Vec::new();
    for c in 0..n_components {
        let size = if rng.gen_bool(0.2) {
            1
        } else {
            rng.gen_range(2usize..6)
        };
        let mut comp = Vec::new();
        for i in 0..size {
            let name = format!("c{c}_r{i}");
            b = b.relation(&name, rng.gen_range(10u64..100_000));
            comp.push(name);
        }
        names.push(comp);
    }
    for comp in &names {
        for i in 1..comp.len() {
            let j = rng.gen_range(0..i);
            b = b.join(&comp[j], &comp[i], 10f64.powf(rng.gen_range(-4.0..-0.5)));
        }
    }
    b.build().unwrap()
}

fn models() -> Vec<(&'static str, Box<dyn CostModel>)> {
    vec![
        ("memory", Box::new(MemoryCostModel::default())),
        ("disk", Box::new(DiskCostModel::default())),
        ("multi", Box::new(MultiMethodCostModel::default())),
    ]
}

fn assert_bit_identical(tag: &str, a: &Optimized, b: &Optimized) {
    assert_eq!(a.plan, b.plan, "{tag}: plans differ");
    assert_eq!(
        a.cost.to_bits(),
        b.cost.to_bits(),
        "{tag}: total cost differs ({} vs {})",
        a.cost,
        b.cost
    );
    assert_eq!(
        a.segment_costs.len(),
        b.segment_costs.len(),
        "{tag}: segment count differs"
    );
    for (x, y) in a.segment_costs.iter().zip(&b.segment_costs) {
        assert_eq!(x.to_bits(), y.to_bits(), "{tag}: segment cost differs");
    }
}

#[test]
fn warm_hit_is_bit_identical_to_the_cold_solve() {
    let methods = [Method::Ii, Method::Sa, Method::Iai];
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xcace_0001 ^ case);
        let n_components = rng.gen_range(1usize..5);
        let q = component_query(&mut rng, n_components);
        let method = methods[case as usize % methods.len()];
        let config = OptimizerConfig::new(method)
            .with_seed(rng.gen())
            .with_time_limit(2.0);
        for (name, model) in models() {
            let tag = format!("case {case} model {name} components {n_components}");
            let cold = Optimizer::new(model.as_ref(), &config).solve(&q).unwrap().0;

            let cache = PlanCache::new(PlanCacheConfig::default());
            let fp_cfg = FingerprintConfig::default();
            let (first, o1) = Optimizer::new(model.as_ref(), &config)
                .with_cache(&cache, fp_cfg)
                .solve(&q)
                .map(|(r, via)| (r, via.outcome))
                .unwrap();
            assert_eq!(o1, CacheOutcome::Miss, "{tag}: empty cache must miss");
            // The miss path IS the cold path: same config, same seed.
            assert_bit_identical(&format!("{tag} (miss vs cold)"), &first, &cold);

            let (second, o2) = Optimizer::new(model.as_ref(), &config)
                .with_cache(&cache, fp_cfg)
                .solve(&q)
                .map(|(r, via)| (r, via.outcome))
                .unwrap();
            assert_eq!(o2, CacheOutcome::Hit, "{tag}: resident entry must hit");
            assert_bit_identical(&format!("{tag} (hit vs cold)"), &second, &cold);
            assert!(
                second.units_used <= cold.units_used,
                "{tag}: a hit must not cost more budget than the cold solve"
            );
            assert!(!second.degradation.is_degraded(), "{tag}");
        }
    }
}

#[test]
fn warm_hit_serves_relabeled_queries_at_the_same_cost() {
    // A query and a relation-relabeled copy share a fingerprint; the copy
    // must be served from the entry the original populated, at the exact
    // same total cost (its statistics are identical, so the stored
    // per-segment costs survive the re-pricing agreement check).
    //
    // Cardinalities are spaced a factor of 3 apart — more than one bucket
    // width at the default 4 buckets per decade — so every relation has a
    // unique fingerprint color and the canonical mapping is exact. (With
    // bucket-tied relations the serving path may legally map canonical
    // slots to within-bucket different relations and re-price, which is
    // covered by `warm_hit_is_bit_identical_to_the_cold_solve`.)
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xcace_0002 ^ case);
        let n_components = rng.gen_range(1usize..4);
        let q = {
            let mut b = QueryBuilder::new();
            let mut g = 0u32;
            let mut names: Vec<Vec<String>> = Vec::new();
            for c in 0..n_components {
                let size = rng.gen_range(2usize..5);
                let mut comp = Vec::new();
                for i in 0..size {
                    let name = format!("c{c}_r{i}");
                    b = b.relation(&name, 12 * 3u64.pow(g));
                    g += 1;
                    comp.push(name);
                }
                names.push(comp);
            }
            for comp in &names {
                for i in 1..comp.len() {
                    let j = rng.gen_range(0..i);
                    b = b.join(&comp[j], &comp[i], 10f64.powf(rng.gen_range(-4.0..-0.5)));
                }
            }
            b.build().unwrap()
        };
        let n = q.n_relations();
        // Rebuild with relations reversed (a simple relabeling).
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
        let relabeled = Query::new(relations, edges).unwrap();

        let model = MemoryCostModel::default();
        let config = OptimizerConfig::new(Method::Iai)
            .with_seed(case)
            .with_time_limit(2.0);
        let cache = PlanCache::new(PlanCacheConfig::default());
        let fp_cfg = FingerprintConfig::default();

        let (original, o1) = Optimizer::new(&model, &config)
            .with_cache(&cache, fp_cfg)
            .solve(&q)
            .map(|(r, via)| (r, via.outcome))
            .unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        let (served, o2) = Optimizer::new(&model, &config)
            .with_cache(&cache, fp_cfg)
            .solve(&relabeled)
            .map(|(r, via)| (r, via.outcome))
            .unwrap();
        assert!(o2.is_hit(), "case {case}: relabeled query must hit");
        assert_eq!(
            served.cost.to_bits(),
            original.cost.to_bits(),
            "case {case}: identical statistics must serve at the identical cost"
        );
        // The served plan is a valid plan of the *relabeled* query.
        for seg in &served.plan.segments {
            assert!(
                seg.len() == 1 || ljqo::plan::validity::is_valid(relabeled.graph(), seg.rels()),
                "case {case}: served segment invalid for the relabeled query"
            );
        }
    }
}

#[test]
fn cached_parallel_driver_hits_bit_identically_too() {
    for case in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(0xcace_0003 ^ case);
        let n_components = rng.gen_range(1usize..4);
        let q = component_query(&mut rng, n_components);
        let model = MemoryCostModel::default();
        let config = OptimizerConfig::new(Method::Ii)
            .with_seed(case)
            .with_time_limit(2.0);
        let par = Parallelism::workers(4);
        let cache = PlanCache::new(PlanCacheConfig::default());
        let fp_cfg = FingerprintConfig::default();
        let (cold, o1) = Optimizer::new(&model, &config)
            .with_parallelism(&par)
            .with_cache(&cache, fp_cfg)
            .solve(&q)
            .map(|(r, via)| (r, via.outcome))
            .unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        let (warm, o2) = Optimizer::new(&model, &config)
            .with_parallelism(&par)
            .with_cache(&cache, fp_cfg)
            .solve(&q)
            .map(|(r, via)| (r, via.outcome))
            .unwrap();
        assert_eq!(o2, CacheOutcome::Hit);
        assert_bit_identical(&format!("case {case}"), &warm, &cold);
    }
}

#[test]
fn batch_dedup_solves_each_fingerprint_class_once() {
    // 30 queries, 5 distinct classes (statistics two decades apart, so
    // fingerprints cannot collide), each repeated 6 times.
    let mut rng = SmallRng::seed_from_u64(0xcace_0004);
    let bases: Vec<Query> = (0..5).map(|_| component_query(&mut rng, 2)).collect();
    let mut queries = Vec::new();
    for i in 0..30usize {
        queries.push(bases[i % 5].clone());
    }
    let model = MemoryCostModel::default();
    let config = OptimizerConfig::new(Method::Iai)
        .with_seed(99)
        .with_time_limit(2.0);
    let options = BatchOptions {
        threads: 4,
        per_query_deadline: None,
    };
    let cache = PlanCache::new(PlanCacheConfig::default());
    let fp_cfg = FingerprintConfig::default();

    let report = Optimizer::new(&model, &config)
        .with_cache(&cache, fp_cfg)
        .with_batch(options)
        .solve_batch(&queries);
    assert_eq!(report.results.len(), queries.len());
    assert_eq!(report.n_failed, 0);
    assert!(
        report.n_cold_solves <= 5,
        "5 fingerprint classes must need at most 5 cold solves, got {}",
        report.n_cold_solves
    );
    assert_eq!(
        report.n_cold_solves + report.n_cache_hits + report.n_dedup_reuses,
        queries.len(),
        "every query is either solved cold, served from cache, or deduped"
    );
    assert!(report.n_dedup_reuses >= 25 - report.n_cache_hits);

    // Representatives (first occurrence of each class) are bit-identical
    // to the plain uncached batch: same per-index seed derivation.
    let plain = Optimizer::new(&model, &config)
        .with_batch(options)
        .solve_batch(&queries);
    for i in 0..5 {
        let a = report.results[i].as_ref().unwrap();
        let b = plain.results[i].as_ref().unwrap();
        assert_eq!(a.plan, b.plan, "representative {i}");
        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "representative {i}");
    }
    // Every member's plan costs exactly what its class's cold solve found.
    for (i, r) in report.results.iter().enumerate() {
        let member = r.as_ref().unwrap();
        let class = report.results[i % 5].as_ref().unwrap();
        assert_eq!(
            member.cost.to_bits(),
            class.cost.to_bits(),
            "member {i} diverged from its class"
        );
    }

    // A second batch over the same queries is all warm hits.
    let second = Optimizer::new(&model, &config)
        .with_cache(&cache, fp_cfg)
        .with_batch(options)
        .solve_batch(&queries);
    assert_eq!(second.n_cold_solves, 0, "second pass must be fully warm");
    assert_eq!(second.n_cache_hits, queries.len());
    assert_eq!(second.n_dedup_reuses, 0);
    for (a, b) in report.results.iter().zip(&second.results) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.plan, b.plan);
    }
}

#[test]
fn plain_batch_reports_every_query_as_a_cold_solve() {
    let mut rng = SmallRng::seed_from_u64(0xcace_0005);
    let queries: Vec<Query> = (0..6).map(|_| component_query(&mut rng, 1)).collect();
    let model = MemoryCostModel::default();
    let config = OptimizerConfig::new(Method::Ii).with_time_limit(1.0);
    let report = Optimizer::new(&model, &config).solve_batch(&queries);
    assert_eq!(report.n_cold_solves, queries.len());
    assert_eq!(report.n_cache_hits, 0);
    assert_eq!(report.n_dedup_reuses, 0);
}
