//! Local search over the **bushy** tree space.
//!
//! The paper's open problem (§2) is whether restricting the search to
//! outer linear join trees forfeits much plan quality. The exact DP
//! ([`optimal_dp`] in [`SearchSpace::Bushy`]) answers it for small
//! components; this module answers it at scale: the one
//! [`IterativeImprovement`](crate::IterativeImprovement) and the one
//! [`SimulatedAnnealing`](crate::SimulatedAnnealing) loop walk
//! arena-backed trees ([`ljqo_plan::TreePlan`]) whose candidates are
//! re-costed along the path from the moved subtree to the root
//! ([`ljqo_cost::TreeEvaluator`]). The loops' rules and unit accounting
//! are the linear space's, so a bushy run at budget `τ·N²·κ` is directly
//! comparable to a linear run at the same budget. The [`Evaluator`]
//! cannot track a best *tree* (its best-state channel is typed to
//! [`JoinOrder`]), so the tree space (`Trees`) tracks it; early stopping
//! against the model lower bound is therefore a linear-only feature.
//!
//! There is no second driver: [`Optimizer::solve`](crate::Optimizer::solve)
//! with [`SearchSpace::Bushy`] runs these
//! searches as rung 1 of the one component loop (through
//! [`MethodRunner::run_bushy`]), under the same per-component budget
//! split and panic isolation. On any rung-1 failure the linear fallback
//! ladder rescues the component, and the rescued order enters the result
//! as its left-deep tree; `price_plan` prices it like any other.

use rand::Rng;

use ljqo_catalog::{Query, RelId};
use ljqo_cost::estimate::SizeWalker;
use ljqo_cost::{CostModel, Evaluator, TreeEvaluator};
use ljqo_plan::{random_valid_order, JoinOrder, TreeMoveSet, TreePlan};

use crate::dp::optimal_dp;
use crate::driver::{tree_cost, SearchSpace};
use crate::error::OptError;
use crate::methods::{Method, MethodRunner};
use crate::neighborhood::Neighborhood;

/// Bushy trees: moves sampled from the default [`TreeMoveSet`], priced
/// by a [`TreeEvaluator`]; keeps the best tree visited.
pub(crate) struct Trees<'a> {
    te: TreeEvaluator<'a>,
    best: TreePlan,
    best_cost: f64,
}

impl<'a> Trees<'a> {
    /// Park on the left-deep embedding of `start`, paying one evaluation.
    pub(crate) fn begin(ev: &mut Evaluator<'a>, start: JoinOrder) -> Self {
        let plan = TreePlan::from_order(ev.compiled(), start.rels());
        let te = TreeEvaluator::new(ev.model(), ev.compiled().clone(), plan);
        ev.charge_eval();
        let (best, best_cost) = (te.plan().clone(), te.current_cost());
        Trees {
            te,
            best,
            best_cost,
        }
    }
}

impl<'a> Neighborhood<'a> for Trees<'a> {
    type State = TreePlan;

    fn n_rels(&self) -> usize {
        self.te.plan().n_leaves()
    }

    fn cost(&self) -> f64 {
        self.te.current_cost()
    }

    #[inline]
    fn step<R: Rng + ?Sized>(&mut self, ev: &mut Evaluator<'a>, rng: &mut R) -> Option<(f64, u32)> {
        let (_mv, attempts) = self.te.propose(&TreeMoveSet::default(), rng)?;
        ev.charge(u64::from(attempts) - 1);
        let cost = self.te.eval_pending();
        ev.charge_eval();
        Some((cost, attempts))
    }

    #[inline]
    fn commit(&mut self) {
        self.te.commit();
    }

    #[inline]
    fn rollback(&mut self) {
        self.te.rollback();
    }

    fn restart(&mut self, ev: &mut Evaluator<'a>, start: JoinOrder) {
        self.te
            .reset(TreePlan::from_order(ev.compiled(), start.rels()));
        ev.charge_eval();
    }

    #[inline]
    fn note(&mut self, cost: f64) {
        if cost < self.best_cost {
            self.best_cost = cost;
            self.best.copy_from(self.te.plan());
        }
    }

    fn best_cost(&self, _ev: &Evaluator<'a>) -> f64 {
        self.best_cost
    }

    fn to_best(&mut self, _ev: &Evaluator<'a>) -> Option<f64> {
        self.te.reset_from(&self.best);
        Some(self.best_cost)
    }

    fn save(&self) -> TreePlan {
        self.te.plan().clone()
    }

    fn restore(&mut self, state: TreePlan) {
        self.te.reset_from(&state);
    }
}

impl MethodRunner {
    /// Run `method` on one component **in the bushy space**, from the
    /// left-deep embedding of a random valid order, returning the best
    /// tree found (`None` when the evaluator is already exhausted).
    /// [`Method::BushySa`] (and `Sa`/`Saa`/`Sak`) anneal with
    /// [`MethodRunner::sa`]; every other method runs [`MethodRunner::ii`]
    /// (the II/heuristic hybrids have no tree analogue — their seeds are
    /// inherently linear — so their bushy reading is plain II).
    pub fn run_bushy<R: Rng + ?Sized>(
        &self,
        method: Method,
        ev: &mut Evaluator<'_>,
        component: &[RelId],
        rng: &mut R,
    ) -> Option<(TreePlan, f64)> {
        if component.len() == 1 {
            let cost = ev.cost_slice(component);
            let plan = TreePlan::from_order(&ev.compiled().clone(), component);
            return Some((plan, cost));
        }
        if ev.exhausted() {
            return None;
        }
        let start = random_valid_order(ev.query().graph(), component, rng);
        let mut space = Trees::begin(ev, start);
        match method {
            Method::BushySa | Method::Sa | Method::Saa | Method::Sak => {
                self.sa.anneal_in(&mut space, ev, rng);
            }
            _ => self.ii.restarts(&mut space, ev, component, rng),
        }
        Some((space.best, space.best_cost))
    }
}

/// Optimality gap of a bushy search result against the exact bushy DP on
/// one component: `(search − optimum) / optimum`, with the DP tree
/// re-costed as plan pricing costs a segment, by the walks the search
/// prices with (zero means bit-equal costs). `Ok(None)` for singletons;
/// the DP's typed errors pass through.
pub fn bushy_gap_vs_dp(
    query: &Query,
    model: &dyn CostModel,
    component: &[RelId],
    search_cost: f64,
) -> Result<Option<f64>, OptError> {
    let Some((dp_tree, _)) = optimal_dp(query, component, model, SearchSpace::Bushy)? else {
        return Ok(None);
    };
    let optimum = tree_cost(&mut SizeWalker::new(query), model, &dp_tree);
    if optimum <= 0.0 {
        return Ok(Some(0.0));
    }
    Ok(Some((search_cost - optimum) / optimum))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Optimized, Optimizer, OptimizerConfig};
    use ljqo_catalog::QueryBuilder;
    use ljqo_cost::MemoryCostModel;
    use ljqo_cost::TimeLimit;
    use ljqo_plan::BushyTree;

    fn chain_query() -> Query {
        QueryBuilder::new()
            .relation("a", 3000)
            .relation("b", 12)
            .relation("c", 700)
            .relation("d", 55)
            .relation("e", 1400)
            .join("a", "b", 0.01)
            .join("b", "c", 0.002)
            .join("c", "d", 0.05)
            .join("d", "e", 0.001)
            .build()
            .unwrap()
    }

    /// Two heavy chains off a hub: bushy must strictly beat linear.
    fn hub_chains_query() -> Query {
        QueryBuilder::new()
            .relation("hub", 100_000)
            .relation("l1", 80_000)
            .relation("l2", 50)
            .relation("r1", 90_000)
            .relation("r2", 60)
            .join("hub", "l1", 0.00002)
            .join("l1", "l2", 0.001)
            .join("hub", "r1", 0.00002)
            .join("r1", "r2", 0.001)
            .build()
            .unwrap()
    }

    fn config(method: Method, seed: u64) -> OptimizerConfig {
        OptimizerConfig::new(method)
            .with_seed(seed)
            .with_space(SearchSpace::Bushy)
    }

    fn solve(q: &Query, model: &dyn CostModel, config: &OptimizerConfig) -> Optimized {
        Optimizer::new(model, config).solve(q).unwrap().0
    }

    #[test]
    fn bushy_tree_roundtrips_through_the_arena() {
        let q = hub_chains_query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let (tree, _) = optimal_dp(&q, &comp, &model, SearchSpace::Bushy)
            .unwrap()
            .unwrap();
        let compiled = std::sync::Arc::new(ljqo_catalog::CompiledQuery::new(&q));
        let plan = tree.to_plan(&compiled);
        assert!(plan.audit(&compiled).is_ok());
        assert_eq!(BushyTree::from_plan(&plan), tree);
    }

    #[test]
    fn bushy_ii_matches_dp_optimum_on_small_queries() {
        let model = MemoryCostModel::default();
        for (q, seed) in [(chain_query(), 3u64), (hub_chains_query(), 7)] {
            let comp: Vec<RelId> = q.rel_ids().collect();
            let r = solve(&q, &model, &config(Method::BushyIi, seed));
            assert!(!r.degradation.is_degraded());
            let gap = bushy_gap_vs_dp(&q, &model, &comp, r.segment_costs[0])
                .unwrap()
                .unwrap();
            assert!(
                gap.abs() <= 1e-9,
                "bushy II at 9N² should find the exact bushy optimum of a 4-join query, gap {gap}"
            );
        }
    }

    #[test]
    fn bushy_strictly_beats_the_linear_optimum_on_hub_chains() {
        let q = hub_chains_query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let (_, linear_opt) = optimal_dp(&q, &comp, &model, SearchSpace::Linear)
            .unwrap()
            .unwrap();
        for method in [Method::BushyIi, Method::BushySa] {
            let r = solve(&q, &model, &config(method, 5));
            assert!(
                r.is_bushy() && r.cost < linear_opt,
                "{method}: {} vs linear optimum {linear_opt}",
                r.cost
            );
        }
    }

    #[test]
    fn bushy_driver_is_deterministic_and_budgeted() {
        let q = hub_chains_query();
        let model = MemoryCostModel::default();
        let cfg = config(Method::BushySa, 42);
        let a = solve(&q, &model, &cfg);
        let b = solve(&q, &model, &cfg);
        assert_eq!(a.trees, b.trees);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.units_used, b.units_used);
        let n = q.n_joins().max(1);
        let budget = TimeLimit::of(9.0).units(n, cfg.kappa);
        let slack = 64 + 4 * q.n_relations() as u64;
        assert!(a.units_used <= budget + slack);
        assert!(a.n_evals > 0);
    }

    #[test]
    fn disconnected_queries_get_late_cross_products() {
        let q = QueryBuilder::new()
            .relation("a", 500)
            .relation("b", 40)
            .relation("c", 9000)
            .relation("d", 70)
            .relation("lonely", 3)
            .join("a", "b", 0.01)
            .join("c", "d", 0.001)
            .build()
            .unwrap();
        let model = MemoryCostModel::default();
        let r = solve(&q, &model, &config(Method::BushyIi, 2));
        let trees = &r.trees;
        assert_eq!(trees.len(), 3);
        // Smallest result (the singleton, 3 tuples) first.
        assert_eq!(trees[0], BushyTree::leaf(RelId(4)));
        let total: usize = trees.iter().map(|t| t.n_leaves()).sum();
        assert_eq!(total, 5);
        assert!(r.cost.is_finite());
    }

    #[test]
    fn bushy_cost_never_exceeds_linear_at_equal_budget() {
        // Bushy II starts from left-deep embeddings, so its result can
        // only improve on some linear state; on the hub-chains shape it
        // must also end below the *linear optimum* (previous test). Here:
        // sanity across seeds on the chain query, where the optima agree.
        let q = chain_query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let (_, linear_opt) = optimal_dp(&q, &comp, &model, SearchSpace::Linear)
            .unwrap()
            .unwrap();
        for seed in 0..4 {
            let r = solve(&q, &model, &config(Method::BushyIi, seed));
            assert!(
                r.cost <= linear_opt * (1.0 + 1e-12),
                "seed {seed}: {} vs {linear_opt}",
                r.cost
            );
        }
    }
}
