//! Local search over the **bushy** tree space.
//!
//! The paper's open problem (§2) is whether restricting the search to
//! outer linear join trees forfeits much plan quality. [`crate::bushy`]
//! answers it exactly for small components ([`optimal_bushy_dp`]); this
//! module answers it at scale: iterative improvement
//! ([`BushyIterativeImprovement`]) and simulated annealing
//! ([`BushySimulatedAnnealing`]) over arena-backed trees
//! ([`ljqo_plan::TreePlan`]), with candidates re-costed incrementally
//! along the path from the moved subtree to the root
//! ([`ljqo_cost::TreeEvaluator`]).
//!
//! The loops deliberately mirror their linear counterparts
//! ([`crate::IterativeImprovement`], [`crate::SimulatedAnnealing`]):
//! the same fail-limit and freezing rules, the same budget accounting
//! (one unit per candidate via
//! [`Evaluator::charge_eval`](ljqo_cost::Evaluator::charge_eval), plus
//! one unit per validity-rejected proposal attempt) — so a bushy run at
//! budget `τ·N²·κ` is directly comparable to a linear run at the same
//! budget. One asymmetry: the [`Evaluator`] cannot track a best *tree*
//! (its best-state channel is typed to [`JoinOrder`](ljqo_plan::JoinOrder)),
//! so the bushy loops track the best tree themselves; early stopping
//! against the model lower bound is therefore a linear-only feature.
//!
//! [`try_optimize_bushy`] is the end-to-end driver, mirroring
//! [`Optimizer::solve`](crate::Optimizer::solve): same per-component
//! budget split, same panic isolation, and on any rung-1 failure the
//! same linear fallback ladder — a rescued linear order enters the bushy
//! result as its left-deep embedding (costs agree bit-for-bit between
//! the two walks, so no re-pricing is needed).

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ljqo_catalog::{CompiledQuery, Query, RelId};
use ljqo_cost::estimate::{clamp_card, final_result_size};
use ljqo_cost::{sanitize_cost, CostModel, Evaluator, JoinCtx, TreeEvaluator};
use ljqo_plan::{random_valid_order, TreeMoveSet, TreePlan};

use crate::bushy::{optimal_bushy_dp, BushyTree};
use crate::driver::{component_budgets, component_fallback, ComponentOutcome, OptimizerConfig};
use crate::error::{Degradation, OptError};
use crate::methods::{Method, MethodRunner};

impl BushyTree {
    /// Flatten the recursive tree into an arena [`TreePlan`] (leaves in
    /// left-to-right order, internals in post-order).
    pub fn to_plan(&self, compiled: &CompiledQuery) -> TreePlan {
        fn flatten(
            t: &BushyTree,
            k: usize,
            leaves: &mut Vec<RelId>,
            joins: &mut Vec<(u32, u32)>,
        ) -> u32 {
            match t {
                BushyTree::Leaf(r) => {
                    leaves.push(*r);
                    (leaves.len() - 1) as u32
                }
                BushyTree::Join(l, r) => {
                    let li = flatten(l, k, leaves, joins);
                    let ri = flatten(r, k, leaves, joins);
                    joins.push((li, ri));
                    (k + joins.len() - 1) as u32
                }
            }
        }
        let k = self.n_leaves();
        let mut leaves = Vec::with_capacity(k);
        let mut joins = Vec::with_capacity(k.saturating_sub(1));
        flatten(self, k, &mut leaves, &mut joins);
        TreePlan::from_joins(compiled, &leaves, &joins)
    }

    /// Rebuild the recursive tree from an arena plan.
    pub fn from_plan(plan: &TreePlan) -> BushyTree {
        fn build(plan: &TreePlan, id: u32) -> BushyTree {
            let n = plan.node(id);
            if n.is_leaf() {
                BushyTree::Leaf(n.rel)
            } else {
                BushyTree::Join(
                    Box::new(build(plan, n.left)),
                    Box::new(build(plan, n.right)),
                )
            }
        }
        build(plan, plan.root())
    }
}

/// Cost a [`BushyTree`] through the arena evaluator — the *same* code
/// path the local search prices candidates with, so comparing a search
/// result against a re-costed DP tree needs no floating-point tolerance.
/// (The DP's own reported cost folds subset cardinalities in a different
/// clamp order and may differ in the last bits.)
///
/// Singleton trees cost `0.0`. Requires ≤ 256 relations (the arena's
/// [`BlockMask`](ljqo_catalog::BlockMask) capacity).
pub fn bushy_tree_cost(query: &Query, model: &dyn CostModel, tree: &BushyTree) -> f64 {
    let compiled = std::sync::Arc::new(CompiledQuery::new(query));
    let plan = tree.to_plan(&compiled);
    TreeEvaluator::new(model, compiled, plan).current_cost()
}

/// Iterative improvement over tree moves — the bushy counterpart of
/// [`crate::IterativeImprovement`], with the same sampled local-minimum
/// criterion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BushyIterativeImprovement {
    /// Tree-move mixture used to sample adjacent trees.
    pub move_set: TreeMoveSet,
    /// Local-minimum declaration threshold, as a fraction of `n²` (same
    /// convention as the linear II).
    pub fail_factor: f64,
}

impl Default for BushyIterativeImprovement {
    fn default() -> Self {
        BushyIterativeImprovement {
            move_set: TreeMoveSet::default(),
            fail_factor: 0.25,
        }
    }
}

impl BushyIterativeImprovement {
    /// Consecutive-failure threshold for an `n`-leaf component.
    pub fn fail_limit(&self, n: usize) -> u64 {
        ((self.fail_factor * (n * n) as f64) as u64).max(32)
    }

    /// One greedy descent mutating the evaluator's current tree. Returns
    /// the cost of the local minimum reached (or of the last state when
    /// the budget ran out first). The caller has already paid for the
    /// start state.
    pub fn descend<R: Rng + ?Sized>(
        &self,
        ev: &mut Evaluator<'_>,
        te: &mut TreeEvaluator<'_>,
        rng: &mut R,
    ) -> f64 {
        let mut current = te.current_cost();
        let fail_limit = self.fail_limit(te.plan().n_leaves());
        let mut fails = 0u64;
        while fails < fail_limit && !ev.exhausted() {
            let Some((_mv, attempts)) = te.propose(&self.move_set, rng) else {
                break; // no perturbable neighborhood (tiny component)
            };
            ev.charge(u64::from(attempts) - 1);
            let candidate = te.eval_pending();
            ev.charge_eval();
            if candidate < current {
                te.commit();
                current = candidate;
                fails = 0;
            } else {
                te.rollback();
                fails += u64::from(attempts);
            }
        }
        current
    }

    /// The full bushy II method: repeated descents from the left-deep
    /// embeddings of random valid orders until the budget is exhausted.
    /// Returns the best local minimum (a greedy descent only ever
    /// accepts improvements, so observing the end of each descent
    /// suffices).
    pub fn run<R: Rng + ?Sized>(
        &self,
        ev: &mut Evaluator<'_>,
        component: &[RelId],
        rng: &mut R,
    ) -> Option<(TreePlan, f64)> {
        let model = ev.model();
        let compiled = ev.compiled().clone();
        let mut te: Option<TreeEvaluator<'_>> = None;
        let mut best: Option<(TreePlan, f64)> = None;
        while !ev.exhausted() {
            let order = random_valid_order(ev.query().graph(), component, rng);
            let plan = TreePlan::from_order(&compiled, order.rels());
            let te = match &mut te {
                Some(te) => {
                    te.reset(plan);
                    te
                }
                None => te.insert(TreeEvaluator::new(model, compiled.clone(), plan)),
            };
            ev.charge_eval(); // the start state is a candidate too
            let cost = self.descend(ev, te, rng);
            if best.as_ref().is_none_or(|b| cost < b.1) {
                best = Some((te.plan().clone(), cost));
            }
            if component.len() < 3 {
                break; // one tree shape exists; restarts would repeat it
            }
        }
        best
    }
}

/// Simulated annealing over tree moves — the bushy counterpart of
/// [`crate::SimulatedAnnealing`], with the same JAMS87 calibration,
/// chain, cooling and freezing rules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BushySimulatedAnnealing {
    /// Tree-move mixture.
    pub move_set: TreeMoveSet,
    /// Chain length multiplier (`size_factor · N` proposals per
    /// temperature).
    pub size_factor: usize,
    /// Geometric cooling rate.
    pub cooling: f64,
    /// Target uphill acceptance probability at the initial temperature.
    pub init_accept: f64,
    /// Frozen after this many consecutive non-improving chains (with
    /// collapsed acceptance).
    pub frozen_chains: usize,
    /// Acceptance ratio below which a chain counts as collapsed.
    pub min_accept_ratio: f64,
    /// Re-heat from the best tree instead of stopping when frozen with
    /// budget to spare.
    pub restart_on_frozen: bool,
}

impl Default for BushySimulatedAnnealing {
    fn default() -> Self {
        BushySimulatedAnnealing {
            move_set: TreeMoveSet::default(),
            size_factor: 16,
            cooling: 0.95,
            init_accept: 0.4,
            frozen_chains: 5,
            min_accept_ratio: 0.02,
            restart_on_frozen: true,
        }
    }
}

impl BushySimulatedAnnealing {
    /// Anneal from the evaluator's current tree (whose cost the caller
    /// has already paid). Returns the best tree visited and its cost.
    ///
    /// Rejected candidates need no best-tracking: an SA rejection implies
    /// the candidate was strictly uphill of the current state, and the
    /// current state — having been evaluated — is never below the best.
    pub fn anneal<R: Rng + ?Sized>(
        &self,
        ev: &mut Evaluator<'_>,
        te: &mut TreeEvaluator<'_>,
        rng: &mut R,
    ) -> (TreePlan, f64) {
        let n = te.plan().n_leaves();
        let start_cost = te.current_cost();
        let mut best = te.plan().clone();
        let mut best_cost = start_cost;
        if n < 2 {
            return (best, best_cost);
        }

        // Calibrate T₀ by a short always-accepting random walk, exactly
        // like the linear annealer, then walk back to the start state
        // (the memo rebuild is off-budget, mirroring the linear annealer's
        // `IncrementalEvaluator::reset`).
        let home = te.plan().clone();
        let mut current = start_cost;
        let mut uphill_sum = 0.0f64;
        let mut uphill_n = 0u32;
        for _ in 0..20 {
            if ev.exhausted() {
                break;
            }
            let Some((_mv, attempts)) = te.propose(&self.move_set, rng) else {
                break;
            };
            ev.charge(u64::from(attempts) - 1);
            let c = te.eval_pending();
            ev.charge_eval();
            let delta = c - current;
            if delta > 0.0 && delta.is_finite() {
                uphill_sum += delta;
                uphill_n += 1;
            }
            te.commit(); // random walk: always accept during calibration
            current = c;
            if c < best_cost {
                best_cost = c;
                best.copy_from(te.plan());
            }
        }
        te.reset_from(&home);
        let t0 = if uphill_n == 0 {
            1.0
        } else {
            (uphill_sum / uphill_n as f64) / -(self.init_accept.ln())
        };

        let chain_length = (self.size_factor * n).max(4);
        let mut temp = t0;
        let mut stale_chains = 0usize;
        let mut current = start_cost;
        while !ev.exhausted() {
            let best_before = best_cost;
            let mut accepted = 0usize;
            for _ in 0..chain_length {
                if ev.exhausted() {
                    break;
                }
                let Some((_mv, attempts)) = te.propose(&self.move_set, rng) else {
                    break;
                };
                ev.charge(u64::from(attempts) - 1);
                let candidate = te.eval_pending();
                ev.charge_eval();
                let delta = candidate - current;
                let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp();
                if accept {
                    te.commit();
                    current = candidate;
                    accepted += 1;
                    if candidate < best_cost {
                        best_cost = candidate;
                        best.copy_from(te.plan());
                    }
                } else {
                    te.rollback();
                }
            }
            temp *= self.cooling;
            let improved = best_cost < best_before;
            let collapsed = (accepted as f64) < self.min_accept_ratio * chain_length as f64;
            if improved {
                stale_chains = 0;
            } else {
                stale_chains += 1;
            }
            if stale_chains >= self.frozen_chains && collapsed {
                if self.restart_on_frozen && !ev.exhausted() {
                    te.reset_from(&best);
                    current = best_cost;
                    temp = (t0 * 0.5).max(f64::MIN_POSITIVE);
                    stale_chains = 0;
                } else {
                    break;
                }
            }
        }
        (best, best_cost)
    }

    /// The full bushy SA method: anneal from the left-deep embedding of
    /// one random valid order.
    pub fn run<R: Rng + ?Sized>(
        &self,
        ev: &mut Evaluator<'_>,
        component: &[RelId],
        rng: &mut R,
    ) -> Option<(TreePlan, f64)> {
        let order = random_valid_order(ev.query().graph(), component, rng);
        let plan = TreePlan::from_order(ev.compiled(), order.rels());
        let mut te = TreeEvaluator::new(ev.model(), ev.compiled().clone(), plan);
        ev.charge_eval();
        Some(self.anneal(ev, &mut te, rng))
    }
}

impl MethodRunner {
    /// Run `method` on one component **in the bushy space**, returning
    /// the best tree found. [`Method::BushySa`] (and `Sa`/`Saa`/`Sak`)
    /// anneal; every other method runs bushy iterative improvement (the
    /// II/heuristic hybrids have no tree analogue — their seeds are
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
        match method {
            Method::BushySa | Method::Sa | Method::Saa | Method::Sak => {
                self.bushy_sa.run(ev, component, rng)
            }
            _ => self.bushy_ii.run(ev, component, rng),
        }
    }
}

/// The outcome of [`try_optimize_bushy`] — the bushy analogue of
/// [`crate::Optimized`].
#[derive(Debug, Clone)]
pub struct BushyOptimized {
    /// One join tree per join-graph component, cross products last
    /// (smallest component results first, like
    /// [`Plan`](ljqo_plan::Plan) segments).
    pub trees: Vec<BushyTree>,
    /// Estimated total cost, including cross products between segments.
    pub cost: f64,
    /// Per-segment costs, aligned with `trees`.
    pub segment_costs: Vec<f64>,
    /// Budget units consumed.
    pub units_used: u64,
    /// Plan evaluations performed.
    pub n_evals: u64,
    /// Deepest fallback rung reached across components. A degraded
    /// segment is a *linear* rescue embedded left-deep.
    pub degradation: Degradation,
    /// Whether the wall-clock deadline expired during the search.
    pub deadline_expired: bool,
}

impl BushyOptimized {
    /// Whether any segment is genuinely bushy (not outer linear).
    pub fn is_bushy(&self) -> bool {
        self.trees.iter().any(|t| !t.is_linear())
    }
}

/// Optimize `query` over the **bushy** tree space — the counterpart of
/// [`Optimizer::solve`](crate::Optimizer::solve) with identical budget
/// semantics: the same `τ·N²·κ` total, split across components by
/// squared size with the same floor, so bushy and linear runs at one
/// configuration are directly comparable.
///
/// Per component: the configured method runs in the bushy space (see
/// [`MethodRunner::run_bushy`]), panic-isolated, under the unit budget
/// and the optional deadline. Queries beyond 256 relations exceed the
/// arena's [`BlockMask`](ljqo_catalog::BlockMask) and are planned in the *linear* space
/// (their result embedded left-deep, not flagged as degradation — it is
/// the paper's own restriction, honestly applied). Any rung-1 failure
/// walks the linear fallback ladder of
/// [`Optimizer::solve`](crate::Optimizer::solve) and embeds the rescue
/// left-deep; the embedding's cost is the order's cost (the two walks
/// agree bit-for-bit).
pub fn try_optimize_bushy(
    query: &Query,
    model: &dyn CostModel,
    config: &OptimizerConfig,
) -> Result<BushyOptimized, OptError> {
    query.validate()?;
    let components = query.graph().components();
    let budgets = component_budgets(config.budget_units(query.n_joins().max(1)), &components);
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let linear_only = query.n_relations() > ljqo_catalog::BlockMask::CAPACITY;

    let mut segments: Vec<(BushyTree, f64)> = Vec::with_capacity(components.len());
    let mut units_used = 0;
    let mut n_evals = 0;
    let mut degradation = Degradation::None;
    let mut deadline_expired = false;
    for (idx, (comp, budget)) in components.iter().zip(budgets).enumerate() {
        let mut outcome = ComponentOutcome::default();
        let mut tree: Option<(BushyTree, f64)> = None;

        // Rung 1, bushy edition. Same `AssertUnwindSafe` justification as
        // the linear driver: on panic the evaluators are discarded and
        // the RNG state stays usable.
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let mut ev = Evaluator::with_budget(query, model, budget);
            if let Some(deadline) = config.deadline {
                ev.set_deadline(deadline);
            }
            // Early stopping is linear-only: tree candidates never feed
            // `ev.best()`, so a stop threshold would never trip.
            let best = if linear_only {
                config.runner.run(config.method, &mut ev, comp, &mut rng);
                ev.best().map(|(o, c)| (BushyTree::left_deep(o.rels()), c))
            } else {
                config
                    .runner
                    .run_bushy(config.method, &mut ev, comp, &mut rng)
                    .map(|(p, c)| (BushyTree::from_plan(&p), c))
            };
            (best, ev.used(), ev.n_evals(), ev.deadline_expired())
        }));
        match attempt {
            Ok((best, used, evals, deadline_hit)) => {
                outcome.units_used = used;
                outcome.n_evals = evals;
                outcome.deadline_expired = deadline_hit;
                if let Some((t, cost)) = best {
                    let mut leaves = t.leaves();
                    leaves.sort_unstable();
                    let mut expect = comp.clone();
                    expect.sort_unstable();
                    if leaves == expect {
                        tree = Some((t, cost));
                    }
                }
            }
            Err(_) => {
                // The method (or the model under it) panicked; its
                // evaluator died with it, so its spend is unknown.
            }
        }

        // Rungs 2–4: the linear ladder, embedded left-deep. The linear
        // walk and the tree walk price a left-deep shape identically, so
        // the rescued order's cost carries over unchanged.
        if tree.is_none() {
            component_fallback(query, model, config, comp, &mut outcome);
            tree = outcome
                .best
                .take()
                .map(|(o, c)| (BushyTree::left_deep(o.rels()), c));
        }

        units_used += outcome.units_used;
        n_evals += outcome.n_evals;
        degradation = degradation.max(outcome.degradation);
        deadline_expired |= outcome.deadline_expired;
        let Some((t, cost)) = tree else {
            return Err(OptError::NoValidPlan { component: idx });
        };
        segments.push((t, cost));
    }

    let (trees, total_cost, segment_costs) = assemble_bushy(query, model, segments);
    Ok(BushyOptimized {
        trees,
        cost: total_cost,
        segment_costs,
        units_used,
        n_evals,
        degradation,
        deadline_expired,
    })
}

/// Order the per-component trees (cross products last, smallest results
/// first) and price the assembled plan — the bushy mirror of the linear
/// driver's assembly, with `outer_rels` counting the accumulated
/// relations like the linear convention does.
fn assemble_bushy(
    query: &Query,
    model: &dyn CostModel,
    mut segments: Vec<(BushyTree, f64)>,
) -> (Vec<BushyTree>, f64, Vec<f64>) {
    segments.sort_by(|a, b| {
        let sa = final_result_size(query, &a.0.leaves());
        let sb = final_result_size(query, &b.0.leaves());
        sa.total_cmp(&sb)
    });

    let total_cost = catch_unwind(AssertUnwindSafe(|| {
        let mut total: f64 = segments.iter().map(|&(_, c)| c).sum();
        let mut running = final_result_size(query, &segments[0].0.leaves());
        for (tree, _) in segments.iter().skip(1) {
            let inner = final_result_size(query, &tree.leaves());
            let output = clamp_card(running * inner);
            total += model.join_cost(&JoinCtx {
                outer_card: running,
                inner_card: inner,
                output_card: output,
                outer_rels: tree.n_leaves(),
                is_cross_product: true,
            });
            running = output;
        }
        sanitize_cost(total)
    }))
    .unwrap_or(f64::MAX);

    let segment_costs: Vec<f64> = segments.iter().map(|&(_, c)| c).collect();
    let trees = segments.into_iter().map(|(t, _)| t).collect();
    (trees, total_cost, segment_costs)
}

/// Optimality gap of a bushy search result against the exact bushy DP on
/// one component: `(search − optimum) / optimum`, with the DP tree
/// re-costed through the arena evaluator so both sides share one code
/// path (zero means bit-equal costs). `Ok(None)` for singletons.
pub fn bushy_gap_vs_dp(
    query: &Query,
    model: &dyn CostModel,
    component: &[RelId],
    search_cost: f64,
) -> Result<Option<f64>, OptError> {
    let Some((dp_tree, _dp_cost)) = optimal_bushy_dp(query, component, model)? else {
        return Ok(None);
    };
    let optimum = bushy_tree_cost(query, model, &dp_tree);
    if optimum <= 0.0 {
        return Ok(Some(0.0));
    }
    Ok(Some((search_cost - optimum) / optimum))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::optimal_order_dp;
    use ljqo_catalog::QueryBuilder;
    use ljqo_cost::MemoryCostModel;
    use ljqo_cost::TimeLimit;

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
        OptimizerConfig::new(method).with_seed(seed)
    }

    #[test]
    fn bushy_tree_roundtrips_through_the_arena() {
        let q = hub_chains_query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let (tree, _) = optimal_bushy_dp(&q, &comp, &model).unwrap().unwrap();
        let compiled = std::sync::Arc::new(CompiledQuery::new(&q));
        let plan = tree.to_plan(&compiled);
        assert!(plan.audit(&compiled).is_ok());
        assert_eq!(BushyTree::from_plan(&plan), tree);
    }

    #[test]
    fn bushy_ii_matches_dp_optimum_on_small_queries() {
        let model = MemoryCostModel::default();
        for (q, seed) in [(chain_query(), 3u64), (hub_chains_query(), 7)] {
            let comp: Vec<RelId> = q.rel_ids().collect();
            let r = try_optimize_bushy(&q, &model, &config(Method::BushyIi, seed)).unwrap();
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
        let (_, linear_opt) = optimal_order_dp(&q, &comp, &model).unwrap();
        for method in [Method::BushyIi, Method::BushySa] {
            let r = try_optimize_bushy(&q, &model, &config(method, 5)).unwrap();
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
        let a = try_optimize_bushy(&q, &model, &cfg).unwrap();
        let b = try_optimize_bushy(&q, &model, &cfg).unwrap();
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
        let r = try_optimize_bushy(&q, &model, &config(Method::BushyIi, 2)).unwrap();
        assert_eq!(r.trees.len(), 3);
        // Smallest result (the singleton, 3 tuples) first.
        assert_eq!(r.trees[0], BushyTree::Leaf(RelId(4)));
        let total: usize = r.trees.iter().map(|t| t.n_leaves()).sum();
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
        let (_, linear_opt) = optimal_order_dp(&q, &comp, &model).unwrap();
        for seed in 0..4 {
            let r = try_optimize_bushy(&q, &model, &config(Method::BushyIi, seed)).unwrap();
            assert!(
                r.cost <= linear_opt * (1.0 + 1e-12),
                "seed {seed}: {} vs {linear_opt}",
                r.cost
            );
        }
    }
}
