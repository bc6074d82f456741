//! Estimation-error robustness harness: observed-vs-true regret.
//!
//! The paper optimizes against catalog statistics it takes at face
//! value. Real catalogs are wrong — sampling error, stale histograms,
//! correlated predicates — and the interesting question is not "how good
//! is the plan under the statistics the optimizer saw" but "how good is
//! it under the *truth*". This module measures exactly that gap:
//!
//! 1. optimize against an **observed** catalog (typically a
//!    `Perturbation`-distorted copy of the truth, see `ljqo-workload`);
//! 2. re-price the resulting plan under the **true** catalog — wired
//!    through the plan cache's serving path, so the
//!    [`CacheOutcome::HitRecosted`] re-pricing machinery is exercised
//!    exactly as a long-running service would exercise it when its
//!    statistics drift under a resident entry;
//! 3. solve the true catalog directly with the same configuration (the
//!    perfect-information reference);
//! 4. report **regret** = `max(0, true_cost / reference_cost − 1)` — by
//!    how much estimation error inflated the plan the user actually
//!    runs.
//!
//! A regret of `0` means the error was harmless (the observed-side plan
//! is as good as the perfect-information one); regret `9.0` means the
//! served plan is 10× the cost it needed to be. With an exact observed
//! catalog (q-error 1) the regret is exactly `0` by construction: the
//! cache replay serves bit-identical costs and the reference solve is
//! the same deterministic search.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ljqo_cache::{fingerprint, FingerprintConfig, PlanCache, PlanCacheConfig};
use ljqo_catalog::Query;
use ljqo_cost::estimate::SizeWalker;
use ljqo_cost::CostModel;
use ljqo_plan::{BushyTree, Plan};

use crate::cached::{entry_for, CacheOutcome};
use crate::driver::price_plan;
use crate::error::{Degradation, OptError};
use crate::optimizer::Optimizer;

/// One observed-vs-true measurement (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct RegretSample {
    /// Cost the optimizer *believed* its plan had, under the observed
    /// (possibly distorted) catalog.
    pub observed_cost: f64,
    /// The same plan re-priced under the true catalog — what the user
    /// actually pays.
    pub true_cost: f64,
    /// Cost of the plan a perfect-information solve finds on the true
    /// catalog with the identical configuration.
    pub reference_cost: f64,
    /// `max(0, true_cost / reference_cost − 1)`; `0` when estimation
    /// error was harmless, `f64::INFINITY` when the served plan could
    /// not be priced at all.
    pub regret: f64,
    /// How far down the fallback ladder the *observed-side* solve had to
    /// go (missing or non-finite statistics degrade before they
    /// mis-estimate).
    pub degradation: Degradation,
    /// How the cache serving path answered when the observed plan was
    /// replayed against the true catalog: [`CacheOutcome::Hit`] when the
    /// plan's true price still agrees with the stored total (no material
    /// drift), [`CacheOutcome::HitRecosted`] when it does not,
    /// [`CacheOutcome::Stale`] when the entry failed revalidation
    /// outright.
    pub replay: CacheOutcome,
}

/// Re-price `plan` under `query`, each segment as the outer linear tree
/// of its order (see [`recost_trees`]).
pub fn recost_plan(query: &Query, model: &dyn CostModel, plan: &Plan) -> f64 {
    let trees: Vec<_> = plan
        .segments
        .iter()
        .map(|order| BushyTree::left_deep(order.rels()))
        .collect();
    recost_trees(query, model, &trees)
}

/// Re-price the plan made of `trees` under `query` by the pricer every
/// solve ships its cost from: every segment tree is costed against the
/// live catalog (panic-isolated, `f64::MAX` on a model fault) and the
/// plan is priced with the standard late-cross-product rule. The plan
/// structure is taken as-is; only prices move.
pub fn recost_trees(query: &Query, model: &dyn CostModel, trees: &[BushyTree]) -> f64 {
    catch_unwind(AssertUnwindSafe(|| {
        price_plan(query, &mut SizeWalker::new(query), model, trees.to_vec()).cost
    }))
    .unwrap_or(f64::MAX)
}

/// `max(0, true_cost / reference_cost − 1)` with the degenerate cases
/// pinned down: a plan no worse than the reference has regret `0` even
/// when both are infinite or the reference is zero, and an unpriceable
/// plan against a priceable reference has regret `f64::INFINITY`.
fn regret_of(true_cost: f64, reference_cost: f64) -> f64 {
    if true_cost <= reference_cost {
        return 0.0;
    }
    if !true_cost.is_finite() || true_cost == f64::MAX {
        return f64::INFINITY;
    }
    if reference_cost <= 0.0 {
        return f64::INFINITY;
    }
    (true_cost / reference_cost - 1.0).max(0.0)
}

/// Optimize `observed_query`, replay the plan against `true_query`, and
/// measure the regret (see the module docs for the full protocol). The
/// two queries must be structurally identical — same relations in the
/// same order, same join edges — differing only in statistics; this is
/// exactly what a `Perturbation` produces.
///
/// Both solves run under `optimizer`'s model, configuration and
/// parallelism. The study brings its own plan cache for the replay; the
/// optimizer's cache, if any, is neither read nor written.
///
/// Errors propagate from either solve (an invalid catalog on either
/// side, or a query no rung of the fallback ladder could plan). The
/// replay re-prices the observed plan's trees, so a bushy-space
/// `optimizer` measures the regret of the tree it found.
pub fn regret_under(
    true_query: &Query,
    observed_query: &Query,
    optimizer: &Optimizer,
) -> Result<RegretSample, OptError> {
    let solver = Optimizer {
        cache: None,
        ..*optimizer
    };
    let (observed, _) = solver.solve(observed_query)?;

    // Plant the observed plan as a cache entry under the TRUE query's
    // fingerprint, then ask the serving path to answer the true query.
    // A hit re-validates and re-prices the observed plan under the true
    // catalog — the exact statistics-drift machinery a resident entry
    // sees in production.
    let fp_config = FingerprintConfig::default();
    let fp = fingerprint(true_query, &fp_config);
    let cache = PlanCache::new(PlanCacheConfig::with_entries(2));
    cache.insert(
        fp.fingerprint().clone(),
        entry_for(&fp, &observed, solver.config),
    );

    let (served, via) = solver.with_cache(&cache, fp_config).solve(true_query)?;
    let (true_cost, reference_cost) = if via.outcome.is_hit() {
        // The served result *is* the observed plan priced under truth;
        // the reference still needs its own perfect-information solve.
        (served.cost, solver.solve(true_query)?.0.cost)
    } else {
        // The entry failed revalidation (unpriceable under truth), so
        // the serving path solved the true query cold — that cold solve
        // is the reference, and the observed plan is priced directly.
        (
            recost_trees(true_query, solver.model, &observed.trees),
            served.cost,
        )
    };

    Ok(RegretSample {
        observed_cost: observed.cost,
        true_cost,
        reference_cost,
        regret: regret_of(true_cost, reference_cost),
        degradation: observed.degradation,
        replay: via.outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::OptimizerConfig;
    use crate::methods::Method;
    use crate::parallel::Parallelism;
    use ljqo_catalog::QueryBuilder;
    use ljqo_cost::MemoryCostModel;

    fn chain(selectivities: [f64; 3]) -> Query {
        QueryBuilder::new()
            .relation("a", 5_000)
            .relation("b", 40)
            .relation("c", 900)
            .relation("d", 77)
            .join("a", "b", selectivities[0])
            .join("b", "c", selectivities[1])
            .join("c", "d", selectivities[2])
            .build()
            .unwrap()
    }

    #[test]
    fn identical_catalogs_have_exactly_zero_regret() {
        let truth = chain([0.01, 0.002, 0.05]);
        let model = MemoryCostModel::default();
        let config = OptimizerConfig::new(Method::Ii).with_seed(3);
        let s = regret_under(&truth, &truth.clone(), &Optimizer::new(&model, &config)).unwrap();
        assert_eq!(s.regret, 0.0);
        assert_eq!(s.observed_cost, s.true_cost);
        assert_eq!(s.true_cost, s.reference_cost);
        // The replayed plan prices at the stored total bit for bit, so
        // the replay is a plain hit, not a re-cost.
        assert_eq!(s.replay, CacheOutcome::Hit);
        assert_eq!(s.degradation, Degradation::None);
    }

    #[test]
    fn distorted_catalog_triggers_the_recosting_path() {
        let truth = chain([0.01, 0.002, 0.05]);
        // Same structure, very different statistics: the optimizer sees
        // this catalog, the user pays the true one.
        let observed = chain([0.9, 0.9, 0.0001]);
        let model = MemoryCostModel::default();
        let config = OptimizerConfig::new(Method::Ii).with_seed(3);
        let s = regret_under(&truth, &observed, &Optimizer::new(&model, &config)).unwrap();
        // Structure is reusable, prices are not: the serving path must
        // take the HitRecosted branch.
        assert_eq!(s.replay, CacheOutcome::HitRecosted);
        assert!(s.regret >= 0.0);
        assert!(s.regret.is_finite());
        assert!(s.true_cost.is_finite());
        assert!(s.reference_cost.is_finite());
    }

    #[test]
    fn parallel_variant_agrees_on_the_zero_regret_case() {
        let truth = chain([0.01, 0.002, 0.05]);
        let model = MemoryCostModel::default();
        let config = OptimizerConfig::new(Method::Ii).with_seed(9);
        let s = regret_under(
            &truth,
            &truth.clone(),
            &Optimizer::new(&model, &config).with_parallelism(&Parallelism::portfolio(3)),
        )
        .unwrap();
        assert_eq!(s.regret, 0.0);
        assert_eq!(s.replay, CacheOutcome::Hit);
    }

    #[test]
    fn recost_plan_matches_a_direct_solve_on_the_same_catalog() {
        let truth = chain([0.01, 0.002, 0.05]);
        let model = MemoryCostModel::default();
        let config = OptimizerConfig::new(Method::Agi).with_seed(1);
        let (r, _) = Optimizer::new(&model, &config).solve(&truth).unwrap();
        let repriced = recost_plan(&truth, &model, &r.plan);
        assert_eq!(repriced, r.cost);
    }

    #[test]
    fn regret_of_pins_the_degenerate_cases() {
        assert_eq!(regret_of(10.0, 10.0), 0.0);
        assert_eq!(regret_of(5.0, 10.0), 0.0);
        assert_eq!(regret_of(20.0, 10.0), 1.0);
        assert_eq!(regret_of(f64::MAX, f64::MAX), 0.0);
        assert_eq!(regret_of(f64::MAX, 10.0), f64::INFINITY);
        assert_eq!(regret_of(10.0, 0.0), f64::INFINITY);
    }
}
