//! The per-component pieces of the optimizer: its configuration, the
//! budget split across join-graph components, the fallback ladder that
//! plans one component, and the assembly of the final [`Plan`] with cross
//! products postponed to the end (the paper's heuristic for disconnected
//! join graphs). [`Optimizer`](crate::Optimizer) drives them.
//!
//! Planning is hardened against misbehaving components: each method run
//! is panic-isolated with `catch_unwind`, a wall-clock [`Deadline`] can
//! cap the search regardless of the unit budget, and when a component's
//! method yields nothing the fallback ladder (augmentation heuristic,
//! then the cardinality-free structural order, then a random valid order)
//! still returns a valid plan whenever one exists — flagged with the
//! [`Degradation`] level reached.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use ljqo_catalog::{Query, RelId};
use ljqo_cost::estimate::{clamp_card, final_result_size};
use ljqo_cost::{
    sanitize_cost, BudgetSchedule, CostModel, Deadline, Evaluator, JoinCtx, OrderCost, TimeLimit,
};
use ljqo_heuristics::{AugmentationHeuristic, CardFreeHeuristic};
use ljqo_plan::validity::is_valid;
use ljqo_plan::{random_valid_order, JoinOrder, Plan};

use crate::error::Degradation;
use crate::methods::{Method, MethodRunner};
use crate::parallel::splitmix;

/// Configuration for an [`Optimizer`](crate::Optimizer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Which of the paper's nine methods to run.
    pub method: Method,
    /// The time limit `τ·N²` (the paper sweeps `τ` from 0.3 to 9).
    pub time_limit: TimeLimit,
    /// Budget calibration: units of work per `N²` (see `ljqo-cost`).
    pub kappa: f64,
    /// How the budget grows with query size (see
    /// [`BudgetSchedule`]). [`BudgetSchedule::Quadratic`] (the default)
    /// reproduces the paper's `τ·N²·κ` rule bit-for-bit; the sublinear
    /// schedules keep planning time sane in the `N = 100..1000` regime.
    pub schedule: BudgetSchedule,
    /// RNG seed; runs are fully deterministic given the seed.
    pub seed: u64,
    /// Early stopping: stop a component's search once the best solution is
    /// within this relative factor of the cost model's lower bound (paper
    /// §3: stop "when we are sufficiently close to the lower bound").
    /// `None` disables early stopping. `Some(0.1)` stops within 10%.
    pub early_stop: Option<f64>,
    /// Optional wall-clock deadline composing with the unit budget: the
    /// search stops at whichever bound trips first. Unlike the unit
    /// budget, a deadline makes runs machine-dependent; it exists so a
    /// caller with a latency envelope always gets *a* plan back.
    pub deadline: Option<Deadline>,
    /// Method parameters.
    pub runner: MethodRunner,
}

impl OptimizerConfig {
    /// A configuration with the paper's most generous time limit (`9N²`)
    /// and default calibration.
    pub fn new(method: Method) -> Self {
        OptimizerConfig {
            method,
            time_limit: TimeLimit::of(9.0),
            kappa: 5.0,
            schedule: BudgetSchedule::Quadratic,
            seed: 0,
            early_stop: None,
            deadline: None,
            runner: MethodRunner::default(),
        }
    }

    /// Set the time limit multiplier `τ`.
    #[must_use]
    pub fn with_time_limit(mut self, tau: f64) -> Self {
        self.time_limit = TimeLimit::of(tau);
        self
    }

    /// Set the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the budget calibration constant.
    #[must_use]
    pub fn with_kappa(mut self, kappa: f64) -> Self {
        self.kappa = kappa;
        self
    }

    /// Set the budget growth schedule.
    #[must_use]
    pub fn with_schedule(mut self, schedule: BudgetSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Total budget units for a query with `n` joins: the configured
    /// [`BudgetSchedule`] applied to this config's `τ` and `κ`. Every
    /// entry point (linear, bushy, parallel, cached) derives its budget
    /// from this one place.
    pub fn budget_units(&self, n_joins: usize) -> u64 {
        self.schedule.units(&self.time_limit, n_joins, self.kappa)
    }

    /// Enable early stopping within `epsilon` of the model's lower bound.
    #[must_use]
    pub fn with_early_stop(mut self, epsilon: f64) -> Self {
        self.early_stop = Some(epsilon);
        self
    }

    /// Cap the whole optimization at a wall-clock duration from now.
    #[must_use]
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(Deadline::after(budget));
        self
    }
}

/// The outcome of [`Optimizer::solve`](crate::Optimizer::solve).
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The chosen plan (one segment per join-graph component, cross
    /// products last).
    pub plan: Plan,
    /// Estimated total cost, including cross products between segments.
    pub cost: f64,
    /// Per-segment costs, aligned with `plan.segments`. These are the
    /// costs the winning orders were found at; summing them and the
    /// cross-product join costs reproduces `cost` exactly. The plan cache
    /// stores these so a warm hit can reconstruct the cold-path cost
    /// bit-for-bit without re-pricing.
    pub segment_costs: Vec<f64>,
    /// Budget units consumed.
    pub units_used: u64,
    /// Full plan evaluations performed.
    pub n_evals: u64,
    /// Deepest fallback rung reached across components
    /// ([`Degradation::None`] when every component was planned by the
    /// configured method).
    pub degradation: Degradation,
    /// Whether the wall-clock deadline expired during the search.
    pub deadline_expired: bool,
    /// Parallel workers that panicked and were isolated (always 0 without
    /// [`Parallelism`](crate::Parallelism)).
    pub workers_failed: usize,
    /// The portfolio method that produced the winning order of the
    /// largest component, when the plan came from a multi-method
    /// portfolio run.
    /// `None` on sequential paths, homogeneous fan-outs, and fallback
    /// rescues — the winner identity feeds the learned router and the
    /// per-class win counters, which only care about portfolio runs.
    pub winner: Option<Method>,
}

/// What planning one component produced, and how. Shared with the bushy
/// driver (`crate::bushy_search`), whose fallback ladder is the linear
/// one.
#[derive(Default)]
pub(crate) struct ComponentOutcome {
    pub(crate) best: Option<(JoinOrder, f64)>,
    pub(crate) units_used: u64,
    pub(crate) n_evals: u64,
    pub(crate) deadline_expired: bool,
    pub(crate) degradation: Degradation,
    /// Parallel workers that panicked (parallel runs only).
    pub(crate) workers_failed: usize,
    /// The portfolio method that won (multi-method runs only).
    pub(crate) winner: Option<Method>,
}

/// Plan one join-graph component down the fallback ladder:
///
/// 1. the configured method, panic-isolated, under budget + deadline;
/// 2. the augmentation heuristic (cheap, deterministic), panic-isolated;
/// 3. the cardinality-free structural order — generation consults no
///    statistics so it survives whatever corrupted the rungs above;
///    costing is best-effort (a panicking model yields cost `f64::MAX`);
/// 4. a random valid order — valid by construction, costed on a
///    best-effort basis.
///
/// Returns `best: None` only if all four rungs fail.
pub(crate) fn plan_component(
    query: &Query,
    model: &dyn CostModel,
    config: &OptimizerConfig,
    comp: &[RelId],
    budget: u64,
    rng: &mut SmallRng,
) -> ComponentOutcome {
    let mut outcome = ComponentOutcome::default();

    // Rung 1: the configured combinatorial method. `AssertUnwindSafe` is
    // justified: on panic the evaluator and its walker are discarded, and
    // the RNG holds plain integers whose state is usable regardless of
    // where the method stopped.
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        let mut ev = Evaluator::with_budget(query, model, budget);
        if let Some(deadline) = config.deadline {
            ev.set_deadline(deadline);
        }
        if let Some(eps) = config.early_stop {
            let lb = model.lower_bound(query, comp);
            if lb > 0.0 {
                ev.set_stop_threshold(lb * (1.0 + eps));
            }
        }
        config.runner.run(config.method, &mut ev, comp, rng);
        let best = ev.best().map(|(o, c)| (o.clone(), c));
        (best, ev.used(), ev.n_evals(), ev.deadline_expired())
    }));
    match attempt {
        Ok((best, used, evals, deadline_hit)) => {
            outcome.units_used = used;
            outcome.n_evals = evals;
            outcome.deadline_expired = deadline_hit;
            if let Some((order, cost)) = best {
                if is_valid(query.graph(), order.rels()) {
                    outcome.best = Some((order, cost));
                    return outcome;
                }
            }
        }
        Err(_) => {
            // The method (or the cost model under it) panicked; its
            // evaluator died with it, so its spend is unknown and
            // reported as zero.
        }
    }

    component_fallback(query, model, config, comp, &mut outcome);
    outcome
}

/// Rungs 2–4 of the fallback ladder (augmentation heuristic, structural
/// order, then a random valid order), shared by the sequential and
/// parallel component loops. Accumulates into `outcome` and stamps the
/// degradation level reached.
///
/// The random rung derives its RNG from `config.seed` and the
/// component's identity — *not* from the shared method RNG. The method
/// RNG's state depends on where the search stopped, and under a
/// wall-clock [`Deadline`] that point is machine-dependent, which used
/// to make fallback plans non-reproducible across same-seed runs.
pub(crate) fn component_fallback(
    query: &Query,
    model: &dyn CostModel,
    config: &OptimizerConfig,
    comp: &[RelId],
    outcome: &mut ComponentOutcome,
) {
    // Rung 2: the augmentation heuristic. Panic-isolated too — it reads
    // the same catalog statistics that may have upset the method.
    outcome.degradation = Degradation::Heuristic;
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        let first = AugmentationHeuristic::first_relations(query, comp)[0];
        let order = config.runner.augmentation.generate(query, comp, first);
        let cost = sanitize_cost(model.order_cost(query, order.rels()));
        (order, cost)
    }));
    if let Ok((order, cost)) = attempt {
        if is_valid(query.graph(), order.rels()) {
            outcome.units_used += comp.len() as u64 + 1;
            outcome.n_evals += 1;
            outcome.best = Some((order, cost));
            return;
        }
    }

    // Rung 3: the cardinality-free structural order. Generation reads
    // only the join graph — missing or non-finite statistics cannot
    // defeat it — so only the costing is best-effort: if the model
    // cannot price the order, it ships with cost MAX rather than being
    // discarded (a deterministic structural plan still beats a random
    // one).
    outcome.degradation = Degradation::CardFree;
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        CardFreeHeuristic.generate(query.graph(), comp)
    }));
    if let Ok(order) = attempt {
        if is_valid(query.graph(), order.rels()) {
            let cost = catch_unwind(AssertUnwindSafe(|| {
                sanitize_cost(model.order_cost(query, order.rels()))
            }))
            .unwrap_or(f64::MAX);
            outcome.units_used += comp.len() as u64 + 1;
            outcome.n_evals += 1;
            outcome.best = Some((order, cost));
            return;
        }
    }

    // Rung 4: a random valid order, from a fresh RNG seeded by
    // `config.seed` and the component identity (reproducible regardless
    // of how much entropy the method consumed before failing).
    outcome.degradation = Degradation::RandomOrder;
    let comp_id = comp.first().map(|r| r.0 as u64).unwrap_or(0);
    let mut fallback_rng = SmallRng::seed_from_u64(splitmix(config.seed ^ 0xFA11_BACC ^ comp_id));
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        random_valid_order(query.graph(), comp, &mut fallback_rng)
    }));
    if let Ok(order) = attempt {
        if is_valid(query.graph(), order.rels()) {
            let cost = catch_unwind(AssertUnwindSafe(|| {
                sanitize_cost(model.order_cost(query, order.rels()))
            }))
            .unwrap_or(f64::MAX);
            outcome.units_used += 1;
            outcome.n_evals += 1;
            outcome.best = Some((order, cost));
        }
    }
}

/// Each component's share of the `total` budget: proportional to the
/// square of its size (a component's search space scales with its own
/// `N²`), with a floor of four units per relation so every component can
/// at least evaluate a couple of states. Singleton components cost
/// nothing to plan.
pub(crate) fn component_budgets(total: u64, components: &[Vec<RelId>]) -> Vec<u64> {
    let weight = |c: &Vec<RelId>| (c.len() * c.len()) as u64;
    let weight_sum = components.iter().map(weight).sum::<u64>().max(1);
    components
        .iter()
        .map(|c| (total.saturating_mul(weight(c)) / weight_sum).max(4 * c.len() as u64))
        .collect()
}

/// Order the per-component segments (cross products last, smallest
/// component results first so the running outer operand stays as small as
/// possible) and price the assembled plan, cross products included.
///
/// The model is consulted once more here, so this is panic-isolated: a
/// plan whose segments were rescued by the fallback ladder must not be
/// lost to one last model fault while pricing the cross products.
///
/// Returns the plan, its total cost, and the per-segment costs in the
/// plan's (sorted) segment order. Assembly is a pure function of the
/// `(order, cost)` pairs: feeding the same pairs back in reproduces the
/// same total bit-for-bit, which is what lets a plan-cache hit return the
/// cold path's exact cost (see `crate::cached`).
pub(crate) fn assemble_plan(
    query: &Query,
    model: &dyn CostModel,
    mut segments: Vec<(JoinOrder, f64)>,
) -> (Plan, f64, Vec<f64>) {
    segments.sort_by(|a, b| {
        let sa = final_result_size(query, a.0.rels());
        let sb = final_result_size(query, b.0.rels());
        sa.total_cmp(&sb)
    });

    let total_cost = catch_unwind(AssertUnwindSafe(|| {
        let mut total: f64 = segments.iter().map(|&(_, c)| c).sum();
        let mut running = final_result_size(query, segments[0].0.rels());
        for (order, _) in segments.iter().skip(1) {
            let inner = final_result_size(query, order.rels());
            let output = clamp_card(running * inner);
            total += model.join_cost(&JoinCtx {
                outer_card: running,
                inner_card: inner,
                output_card: output,
                outer_rels: order.len(),
                is_cross_product: true,
            });
            running = output;
        }
        sanitize_cost(total)
    }))
    .unwrap_or(f64::MAX);

    let segment_costs: Vec<f64> = segments.iter().map(|&(_, c)| c).collect();
    let plan = Plan {
        segments: segments.into_iter().map(|(o, _)| o).collect(),
    };
    (plan, total_cost, segment_costs)
}
