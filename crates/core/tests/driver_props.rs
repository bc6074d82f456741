//! End-to-end properties of the hardened driver's degradation ladder.
//!
//! The driver promises: a valid plan whenever one exists, with
//! [`Degradation`] reporting honestly how far down the fallback ladder
//! (method → augmentation heuristic → random valid order) it had to go,
//! and with the plan-cache serving path degrading *cleanly* — a stale or
//! poisoned cache entry may cost latency, never correctness.
//!
//! Offline property-test idiom: seeded-RNG loops, one derived seed per
//! case, failures reproduce exactly.

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ljqo::cache::{CachedPlan, CachedSegment};
use ljqo::cost::{FaultMode, FaultyCostModel};
use ljqo::prelude::*;

const CASES: u64 = 16;

fn query(rng: &mut SmallRng) -> Query {
    let n = rng.gen_range(4usize..9);
    let mut b = QueryBuilder::new();
    for i in 0..n {
        b = b.relation(format!("r{i}"), rng.gen_range(10u64..100_000));
    }
    for i in 1..n {
        let j = rng.gen_range(0..i);
        b = b.join(
            &format!("r{j}"),
            &format!("r{i}"),
            10f64.powf(rng.gen_range(-4.0..-0.5)),
        );
    }
    b.build().unwrap()
}

/// A model whose every consultation panics — defeats the method AND the
/// augmentation heuristic, leaving the statistics-free rungs
/// (cardinality-free structural order, then random order).
struct AlwaysPanic;

impl CostModel for AlwaysPanic {
    fn join_cost(&self, _ctx: &JoinCtx) -> f64 {
        panic!("injected: this model always panics")
    }

    fn name(&self) -> &'static str {
        "always-panic"
    }
}

#[test]
fn clean_model_never_degrades() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xd41e_0001 ^ case);
        let q = query(&mut rng);
        let r = Optimizer::new(
            &MemoryCostModel::default(),
            &OptimizerConfig::new(Method::Iai).with_seed(case),
        )
        .solve(&q)
        .unwrap()
        .0;
        assert_eq!(r.degradation, Degradation::None, "case {case}");
        assert!(!r.deadline_expired);
        assert!(r.cost.is_finite());
    }
}

#[test]
fn first_eval_panic_degrades_to_the_heuristic() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xd41e_0002 ^ case);
        let q = query(&mut rng);
        // The method's very first join step panics; the heuristic's own
        // evaluation (the next one) passes.
        let model = FaultyCostModel::new(MemoryCostModel::default(), FaultMode::PanicOnKth(1));
        let r = Optimizer::new(&model, &OptimizerConfig::new(Method::Ii).with_seed(case))
            .solve(&q)
            .unwrap()
            .0;
        assert_eq!(r.degradation, Degradation::Heuristic, "case {case}");
        assert!(
            ljqo::plan::validity::is_valid(q.graph(), r.plan.segments[0].rels()),
            "case {case}"
        );
        assert!(r.cost.is_finite(), "case {case}");
        assert!(model.evals() >= 1, "case {case}: the fault never fired");
    }
}

#[test]
fn total_model_failure_degrades_to_a_structural_order() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xd41e_0003 ^ case);
        let q = query(&mut rng);
        let r = Optimizer::new(
            &AlwaysPanic,
            &OptimizerConfig::new(Method::Iai).with_seed(case),
        )
        .solve(&q)
        .unwrap()
        .0;
        // The method and the augmentation heuristic both die inside the
        // panicking model, but the cardinality-free rung generates its
        // order without touching the model at all — only the (failed)
        // pricing is best-effort — so the ladder now stops there instead
        // of falling through to the random rung.
        assert_eq!(r.degradation, Degradation::CardFree, "case {case}");
        assert!(
            ljqo::plan::validity::is_valid(q.graph(), r.plan.segments[0].rels()),
            "case {case}: the rescued order must still be valid"
        );
        // Nothing could be priced; the sentinel cost says so honestly.
        assert_eq!(r.cost, f64::MAX, "case {case}");
    }
}

#[test]
fn nan_costs_are_saturated_not_propagated() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xd41e_0004 ^ case);
        let q = query(&mut rng);
        let k = rng.gen_range(1u64..20);
        let model = FaultyCostModel::new(MemoryCostModel::default(), FaultMode::NanOnKth(k));
        let r = Optimizer::new(&model, &OptimizerConfig::new(Method::Ii).with_seed(case))
            .solve(&q)
            .unwrap()
            .0;
        assert!(!r.cost.is_nan(), "case {case}: NaN escaped the evaluator");
        assert!(
            ljqo::plan::validity::is_valid(q.graph(), r.plan.segments[0].rels()),
            "case {case}"
        );
        assert!(
            model.evals() >= k,
            "case {case}: the NaN at step {k} never fired"
        );
    }
}

#[test]
fn expired_deadline_still_returns_a_plan() {
    for case in 0..4u64 {
        let mut rng = SmallRng::seed_from_u64(0xd41e_0005 ^ case);
        let q = query(&mut rng);
        let config = OptimizerConfig::new(Method::Sa)
            .with_seed(case)
            .with_deadline(Duration::ZERO);
        let r = Optimizer::new(&MemoryCostModel::default(), &config)
            .solve(&q)
            .unwrap()
            .0;
        assert!(r.deadline_expired, "case {case}");
        assert!(
            ljqo::plan::validity::is_valid(q.graph(), r.plan.segments[0].rels()),
            "case {case}"
        );
    }
}

/// Insert a structurally-poisoned entry (canonical indices far out of
/// range) under `q`'s fingerprint.
fn poison(cache: &PlanCache, q: &Query, fp_cfg: &FingerprintConfig) {
    let fp = fingerprint(q, fp_cfg);
    cache.insert(
        fp.fingerprint().clone(),
        CachedPlan {
            segments: vec![CachedSegment {
                canon_order: vec![900, 901, 902],
                shape: vec![(0, 1), (3, 2)],
            }],
            total_cost: 1.0,
            producer: "test-poison",
        },
    );
}

#[test]
fn stale_entry_falls_through_to_a_bit_identical_cold_solve() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xd41e_0006 ^ case);
        let q = query(&mut rng);
        let model = MemoryCostModel::default();
        let config = OptimizerConfig::new(Method::Iai).with_seed(case);
        let fp_cfg = FingerprintConfig::default();
        let cache = PlanCache::new(PlanCacheConfig::default());
        poison(&cache, &q, &fp_cfg);

        let cold = Optimizer::new(&model, &config).solve(&q).unwrap().0;
        let (served, outcome) = Optimizer::new(&model, &config)
            .with_cache(&cache, fp_cfg)
            .solve(&q)
            .map(|(r, via)| (r, via.outcome))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Stale, "case {case}");
        assert_eq!(served.plan, cold.plan, "case {case}");
        assert_eq!(served.cost.to_bits(), cold.cost.to_bits(), "case {case}");
        assert_eq!(served.degradation, Degradation::None, "case {case}");

        // The poisoned entry was invalidated and replaced by the cold
        // result: the next lookup is a clean, bit-identical hit.
        let (warm, again) = Optimizer::new(&model, &config)
            .with_cache(&cache, fp_cfg)
            .solve(&q)
            .map(|(r, via)| (r, via.outcome))
            .unwrap();
        assert_eq!(again, CacheOutcome::Hit, "case {case}");
        assert_eq!(warm.cost.to_bits(), cold.cost.to_bits(), "case {case}");
    }
}

/// A cached tree is re-checked like an order: a shape that is not one
/// tree over its leaves, or a join without a predicate, makes the entry
/// stale; a well-formed cross-product-free bushy tree is served.
#[test]
fn cached_trees_are_rechecked_before_they_are_served() {
    let q = QueryBuilder::new()
        .relation("a", 10)
        .relation("b", 30)
        .relation("c", 90)
        .relation("d", 270)
        .join("a", "b", 0.1)
        .join("b", "c", 0.01)
        .join("c", "d", 0.05)
        .build()
        .unwrap();
    let model = MemoryCostModel::default();
    let config = OptimizerConfig::new(Method::Ii).with_seed(1);
    let fp_cfg = FingerprintConfig::default();
    let fp = fingerprint(&q, &fp_cfg);
    let rels = |v: &[u32]| v.iter().map(|&i| RelId(i)).collect::<Vec<_>>();
    for (leaves, shape, want) in [
        (
            rels(&[0, 1, 2, 3]),
            vec![(1, 0), (2, 3), (4, 5)],
            CacheOutcome::Stale,
        ),
        (
            rels(&[0, 2, 1, 3]),
            vec![(0, 1), (2, 3), (4, 5)],
            CacheOutcome::Stale,
        ),
        (
            rels(&[0, 1, 2, 3]),
            vec![(0, 1), (2, 3), (4, 5)],
            CacheOutcome::HitRecosted,
        ),
    ] {
        let cache = PlanCache::new(PlanCacheConfig::default());
        cache.insert(
            fp.fingerprint().clone(),
            CachedPlan {
                segments: vec![CachedSegment {
                    canon_order: fp.canonize_order(&leaves),
                    shape: shape.clone(),
                }],
                total_cost: 1.0,
                producer: "test",
            },
        );
        let (served, via) = Optimizer::new(&model, &config)
            .with_cache(&cache, fp_cfg)
            .solve(&q)
            .unwrap();
        assert_eq!(via.outcome, want, "{leaves:?} {shape:?}");
        if want == CacheOutcome::HitRecosted {
            let tree = BushyTree::from_shape(leaves, shape).unwrap();
            assert_eq!(served.trees, vec![tree.clone()]);
            assert_eq!(served.cost, recost_trees(&q, &model, &[tree]));
        }
    }
}

#[test]
fn stale_entry_plus_faulty_model_degrades_cleanly() {
    // The worst day in production: the cache entry is poisoned AND the
    // cost model panics on its first evaluation. The serving path must
    // report Stale, walk the cold ladder to the heuristic rung, and
    // refuse to cache the degraded result.
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xd41e_0007 ^ case);
        let q = query(&mut rng);
        let config = OptimizerConfig::new(Method::Ii).with_seed(case);
        let fp_cfg = FingerprintConfig::default();
        let cache = PlanCache::new(PlanCacheConfig::default());
        poison(&cache, &q, &fp_cfg);

        let model = FaultyCostModel::new(MemoryCostModel::default(), FaultMode::PanicOnKth(1));
        let (served, outcome) = Optimizer::new(&model, &config)
            .with_cache(&cache, fp_cfg)
            .solve(&q)
            .map(|(r, via)| (r, via.outcome))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Stale, "case {case}");
        assert_eq!(served.degradation, Degradation::Heuristic, "case {case}");
        assert!(
            ljqo::plan::validity::is_valid(q.graph(), served.plan.segments[0].rels()),
            "case {case}"
        );
        // Degraded results must not be replayed to future queries.
        assert!(cache.is_empty(), "case {case}: degraded result was cached");
        assert!(model.evals() >= 1, "case {case}: the fault never fired");
    }
}

#[test]
fn degraded_cold_results_are_never_inserted() {
    let mut rng = SmallRng::seed_from_u64(0xd41e_0008);
    let q = query(&mut rng);
    let config = OptimizerConfig::new(Method::Ii).with_seed(1);
    let fp_cfg = FingerprintConfig::default();
    let cache = PlanCache::new(PlanCacheConfig::default());
    let (r, outcome) = Optimizer::new(&AlwaysPanic, &config)
        .with_cache(&cache, fp_cfg)
        .solve(&q)
        .map(|(r, via)| (r, via.outcome))
        .unwrap();
    assert_eq!(outcome, CacheOutcome::Miss);
    assert_eq!(r.degradation, Degradation::CardFree);
    assert!(cache.is_empty());
    assert_eq!(cache.stats().inserts, 0);
}
