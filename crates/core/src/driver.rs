//! End-to-end optimization driver.
//!
//! Handles what the per-component methods do not: splitting a query into
//! join-graph components, allotting the deterministic budget, running the
//! chosen method per component, and assembling the final [`Plan`] with
//! cross products postponed to the end (the paper's heuristic for
//! disconnected join graphs).
//!
//! The driver is hardened against misbehaving components: each method run
//! is panic-isolated with `catch_unwind`, a wall-clock [`Deadline`] can
//! cap the search regardless of the unit budget, and when a component's
//! method yields nothing the driver walks a fallback ladder (augmentation
//! heuristic, then the cardinality-free structural order, then a random
//! valid order) so a valid plan is returned whenever one exists — flagged
//! with the [`Degradation`] level reached.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

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

use crate::error::{Degradation, OptError};
use crate::methods::{Method, MethodRunner};
use crate::parallel::{
    run_portfolio, run_portfolio_robust, run_portfolio_robust_weighted, run_portfolio_weighted,
    splitmix, ParallelOptions, Parallelism,
};

/// Configuration for [`optimize`].
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

/// The outcome of [`optimize`].
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
    /// Parallel workers that panicked and were isolated (always 0 for the
    /// sequential [`try_optimize`] path; see [`try_optimize_parallel`]).
    pub workers_failed: usize,
    /// The portfolio method that produced the winning order of the
    /// largest component, when the plan came from a multi-method
    /// portfolio run ([`try_optimize_parallel`] with rotated methods).
    /// `None` on sequential paths, homogeneous fan-outs, and fallback
    /// rescues — the winner identity feeds the learned router and the
    /// per-class win counters, which only care about portfolio runs.
    pub winner: Option<Method>,
}

/// What planning one component produced, and how. Shared with the bushy
/// driver (`crate::bushy_search`), whose fallback ladder is the linear
/// one.
pub(crate) struct ComponentOutcome {
    pub(crate) best: Option<(JoinOrder, f64)>,
    pub(crate) units_used: u64,
    pub(crate) n_evals: u64,
    pub(crate) deadline_expired: bool,
    pub(crate) degradation: Degradation,
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
fn plan_component(
    query: &Query,
    model: &dyn CostModel,
    config: &OptimizerConfig,
    comp: &[RelId],
    budget: u64,
    rng: &mut SmallRng,
) -> ComponentOutcome {
    let mut outcome = ComponentOutcome {
        best: None,
        units_used: 0,
        n_evals: 0,
        deadline_expired: false,
        degradation: Degradation::None,
    };

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
/// parallel drivers. Accumulates into `outcome` and stamps the
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

/// Optimize `query` under `model` with the given configuration,
/// panicking if no plan can be produced at all. Thin wrapper over
/// [`try_optimize`] kept for callers that treat total failure as a bug
/// (tests, benchmarks); services should prefer [`try_optimize`].
pub fn optimize(query: &Query, model: &dyn CostModel, config: &OptimizerConfig) -> Optimized {
    try_optimize(query, model, config).unwrap_or_else(|e| panic!("optimization failed: {e}"))
}

/// Optimize `query` under `model` with the given configuration.
///
/// The budget `τ·N²·κ` is split across the join-graph components in
/// proportion to the square of their sizes (each component's search space
/// scales with its own `N²`), with a floor so every component can at least
/// evaluate a couple of states. Singleton components cost nothing to plan.
///
/// Robustness: the catalog is revalidated up front (a [`CatalogError`]
/// becomes [`OptError::Catalog`]); each component's method runs
/// panic-isolated under the unit budget and the optional wall-clock
/// deadline, degrading per component to the augmentation heuristic, then
/// the cardinality-free structural order, then a random valid order (see
/// [`Degradation`]). An `Err` is returned only when some component
/// defeats every rung.
///
/// [`CatalogError`]: ljqo_catalog::CatalogError
pub fn try_optimize(
    query: &Query,
    model: &dyn CostModel,
    config: &OptimizerConfig,
) -> Result<Optimized, OptError> {
    query.validate()?;
    let components = query.graph().components();
    let n = query.n_joins().max(1);
    let total_budget = config.budget_units(n);

    let weight_sum: u64 = components
        .iter()
        .map(|c| (c.len() * c.len()) as u64)
        .sum::<u64>()
        .max(1);
    let mut rng = SmallRng::seed_from_u64(config.seed);

    let mut segments: Vec<(JoinOrder, f64)> = Vec::with_capacity(components.len());
    let mut units_used = 0;
    let mut n_evals = 0;
    let mut degradation = Degradation::None;
    let mut deadline_expired = false;
    for (idx, comp) in components.iter().enumerate() {
        let share = total_budget.saturating_mul((comp.len() * comp.len()) as u64) / weight_sum;
        let budget = share.max(4 * comp.len() as u64);
        let outcome = plan_component(query, model, config, comp, budget, &mut rng);
        units_used += outcome.units_used;
        n_evals += outcome.n_evals;
        degradation = degradation.max(outcome.degradation);
        deadline_expired |= outcome.deadline_expired;
        let Some((order, cost)) = outcome.best else {
            return Err(OptError::NoValidPlan { component: idx });
        };
        segments.push((order, cost));
    }

    let (plan, total_cost, segment_costs) = assemble_plan(query, model, segments);
    Ok(Optimized {
        plan,
        cost: total_cost,
        segment_costs,
        units_used,
        n_evals,
        degradation,
        deadline_expired,
        workers_failed: 0,
        winner: None,
    })
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

/// [`try_optimize`], with each component searched by a parallel worker
/// pool instead of one sequential method run.
///
/// Budget semantics match the sequential driver exactly: the same
/// `τ·N²·κ` total is split across components by squared size, and each
/// component's share is then sharded over `parallelism.workers` threads
/// (see [`crate::parallel::shard_budget`]) — so a parallel run is
/// comparable to a sequential run at the same budget, and under
/// [`Cooperation::Isolated`](crate::Cooperation::Isolated) is
/// bit-deterministic in `(seed, workers)`. With
/// `parallelism.methods` non-empty, workers rotate through that
/// portfolio instead of all running `config.method`.
///
/// Robustness: worker panics are isolated per worker (tallied in
/// [`Optimized::workers_failed`]); a component whose *every* worker
/// fails walks the same fallback ladder as the sequential driver
/// (augmentation heuristic, structural order, then a random valid
/// order), reported via [`Optimized::degradation`]. With
/// [`Parallelism::robust_portfolio`] the cardinality-free structural
/// order additionally challenges the portfolio winner on every
/// component, so the result is never worse than the plain portfolio at
/// equal budget (see [`crate::parallel::run_portfolio_robust`]).
pub fn try_optimize_parallel(
    query: &Query,
    model: &(dyn CostModel + Sync),
    config: &OptimizerConfig,
    parallelism: &Parallelism,
) -> Result<Optimized, OptError> {
    query.validate()?;
    let components = query.graph().components();
    let n = query.n_joins().max(1);
    let total_budget = config.budget_units(n);

    let weight_sum: u64 = components
        .iter()
        .map(|c| (c.len() * c.len()) as u64)
        .sum::<u64>()
        .max(1);
    let methods: &[Method] = if parallelism.methods.is_empty() {
        std::slice::from_ref(&config.method)
    } else {
        &parallelism.methods
    };
    // Learned routing engages only on genuine portfolios whose arm set
    // matches the router's; anything else keeps the uniform split.
    let routed = parallelism
        .router
        .as_deref()
        .filter(|r| methods.len() > 1 && r.n_arms() == methods.len())
        .map(|r| (r, ljqo_cache::classify(query)));

    let mut segments: Vec<(JoinOrder, f64)> = Vec::with_capacity(components.len());
    let mut units_used = 0;
    let mut n_evals = 0;
    let mut degradation = Degradation::None;
    let mut deadline_expired = false;
    let mut workers_failed = 0;
    let mut winner: Option<(usize, Method)> = None;
    for (idx, comp) in components.iter().enumerate() {
        let share = total_budget.saturating_mul((comp.len() * comp.len()) as u64) / weight_sum;
        let budget = share.max(4 * comp.len() as u64);
        // Singleton components have exactly one (trivial) plan; spawning
        // a worker pool for them would spend `workers` units on clones of
        // the same evaluation.
        let workers = if comp.len() == 1 {
            1
        } else {
            parallelism.workers.max(1)
        };
        let mut opts = ParallelOptions::new(budget, workers, config.seed ^ splitmix(idx as u64))
            .with_cooperation(parallelism.cooperation);
        if let Some(deadline) = config.deadline {
            opts = opts.with_deadline(deadline);
        }
        if let Some(eps) = config.early_stop {
            let lb = model.lower_bound(query, comp);
            if lb > 0.0 {
                opts = opts.with_stop_threshold(lb * (1.0 + eps));
            }
        }
        // Multi-worker multi-method components consult the router for a
        // learned share vector; singleton components (1 worker, 1
        // method) have nothing to route.
        let shares = routed
            .as_ref()
            .filter(|_| workers > 1)
            .map(|(r, class)| r.shares(class));
        let parallel = match (&shares, parallelism.structural_backstop) {
            (Some(w), true) => {
                run_portfolio_robust_weighted(query, model, &config.runner, methods, comp, &opts, w)
            }
            (Some(w), false) => {
                run_portfolio_weighted(query, model, &config.runner, methods, comp, &opts, w)
            }
            (None, true) => {
                run_portfolio_robust(query, model, &config.runner, methods, comp, &opts)
            }
            (None, false) => run_portfolio(query, model, &config.runner, methods, comp, &opts),
        };
        let outcome = match parallel {
            Some(r) if is_valid(query.graph(), r.order.rels()) => {
                workers_failed += r.workers_failed;
                if r.deadline_expired {
                    deadline_expired = true;
                }
                if methods.len() > 1 && comp.len() > 1 {
                    // Remember the portfolio winner of the largest
                    // routed component for `Optimized::winner`.
                    if winner.as_ref().is_none_or(|&(len, _)| comp.len() > len) {
                        winner = Some((comp.len(), r.method));
                    }
                    // Feed the outcome back into the router online.
                    if let Some((router, class)) = &routed {
                        record_portfolio_outcome(router, class, methods, &r);
                    }
                }
                ComponentOutcome {
                    best: Some((r.order, r.cost)),
                    units_used: r.units_used,
                    n_evals: r.n_evals,
                    deadline_expired: false,
                    degradation: Degradation::None,
                }
            }
            other => {
                // Every worker panicked or the budget bought no state at
                // all: fall down the sequential ladder.
                if let Some(r) = other {
                    workers_failed += r.workers_failed;
                }
                let mut outcome = ComponentOutcome {
                    best: None,
                    units_used: 0,
                    n_evals: 0,
                    deadline_expired: false,
                    degradation: Degradation::None,
                };
                component_fallback(query, model, config, comp, &mut outcome);
                outcome
            }
        };
        units_used += outcome.units_used;
        n_evals += outcome.n_evals;
        degradation = degradation.max(outcome.degradation);
        deadline_expired |= outcome.deadline_expired;
        let Some((order, cost)) = outcome.best else {
            return Err(OptError::NoValidPlan { component: idx });
        };
        segments.push((order, cost));
    }

    let (plan, total_cost, segment_costs) = assemble_plan(query, model, segments);
    Ok(Optimized {
        plan,
        cost: total_cost,
        segment_costs,
        units_used,
        n_evals,
        degradation,
        deadline_expired,
        workers_failed,
        winner: winner.map(|(_, m)| m),
    })
}

/// Reduce one portfolio run to per-arm statistics and feed the router.
///
/// Each arm's cost is the best across the workers that rotated it, and
/// its spend their summed consumption; the challenger's report (a
/// method outside the rotation, e.g. [`Method::Cardfree`]) matches no
/// arm and is skipped. Outcomes where fewer than two arms produced a
/// state teach nothing about *relative* merit and are dropped — the
/// reward is normalized within the run, so a lone survivor would always
/// score a meaningless 1.0.
fn record_portfolio_outcome(
    router: &ljqo_cache::BanditRouter,
    class: &ljqo_cache::QueryClass,
    methods: &[Method],
    r: &crate::parallel::ParallelResult,
) {
    let k = methods.len();
    let mut arm_costs: Vec<Option<f64>> = vec![None; k];
    let mut arm_units: Vec<u64> = vec![0; k];
    for report in &r.per_worker {
        let Some(arm) = methods.iter().position(|m| *m == report.method) else {
            continue;
        };
        arm_units[arm] += report.units_used;
        if let Some(cost) = report.best_cost.filter(|c| c.is_finite()) {
            arm_costs[arm] = Some(arm_costs[arm].map_or(cost, |c: f64| c.min(cost)));
        }
    }
    if arm_costs.iter().flatten().count() < 2 {
        return;
    }
    let winner = methods.iter().position(|m| *m == r.method);
    router.record_outcome(class, &arm_costs, &arm_units, winner);
}

/// Options for [`optimize_batch`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchOptions {
    /// Thread-pool size; `0` means [`std::thread::available_parallelism`]
    /// (and never more threads than queries).
    pub threads: usize,
    /// Wall-clock deadline applied to each query individually, measured
    /// from the moment a pool thread claims it. A query that trips its
    /// deadline still returns the best (possibly degraded) plan found,
    /// flagged via [`Optimized::deadline_expired`] /
    /// [`Optimized::degradation`].
    pub per_query_deadline: Option<Duration>,
}

/// How one batch result was produced: the serving path that answered it
/// and the method credited with the plan. A long-running service feeds
/// these (via [`ServingCounters`](crate::ServingCounters)) into its
/// process-lifetime per-method win counts and per-rung degradation
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedVia {
    /// How the cache answered (always [`CacheOutcome::Miss`](crate::cached::CacheOutcome::Miss) for the
    /// plain, uncached [`optimize_batch`] driver).
    pub outcome: crate::cached::CacheOutcome,
    /// Short name of the method credited with the served plan: the cache
    /// entry's recorded producer on a hit, the configured method on a
    /// cold solve. For failed queries this is the configured method (no
    /// plan was produced; the name only says who was asked).
    pub producer: &'static str,
}

/// Outcome of [`optimize_batch`]: per-query results in input order, plus
/// aggregate degradation accounting for capacity planning.
#[derive(Debug)]
pub struct BatchReport {
    /// One result per input query, in input order.
    pub results: Vec<Result<Optimized, OptError>>,
    /// How each result was served, aligned with `results`.
    pub outcomes: Vec<ServedVia>,
    /// Queries that produced no plan at all ([`OptError`]).
    pub n_failed: usize,
    /// Queries whose plan came from a fallback rung
    /// ([`Degradation::is_degraded`]).
    pub n_degraded: usize,
    /// Queries whose per-query deadline expired during the search.
    pub n_deadline_expired: usize,
    /// Queries answered by running the full combinatorial search. For
    /// plain [`optimize_batch`] this is every query; the cache-aware
    /// driver (`optimize_batch_cached`) solves once per fingerprint class.
    pub n_cold_solves: usize,
    /// Queries answered from a pre-existing plan-cache entry (always 0
    /// for plain [`optimize_batch`]).
    pub n_cache_hits: usize,
    /// Queries answered by reusing a sibling's in-batch cold solve after
    /// fingerprint dedup (always 0 for plain [`optimize_batch`]).
    pub n_dedup_reuses: usize,
    /// Total budget units consumed across the batch.
    pub units_used: u64,
    /// End-to-end wall-clock time of the batch.
    pub wall: Duration,
}

/// Optimize many queries on a thread pool — the throughput-oriented
/// counterpart of the per-query drivers.
///
/// Threads claim queries from a shared work index (dynamic load
/// balancing: a pathological query does not stall its neighbours, only
/// its thread), and each query runs under the sequential
/// [`try_optimize`] path with a per-query seed derived from
/// `splitmix(config.seed ⊕ index)` — so results are deterministic in
/// `(config, queries)` and independent of the thread count and of
/// scheduling (deadline expiry aside). Per-query wall-clock deadlines
/// and the fallback ladder bound tail latency; the [`BatchReport`]
/// aggregates how often they were needed.
pub fn optimize_batch(
    queries: &[Query],
    model: &(dyn CostModel + Sync),
    config: &OptimizerConfig,
    options: &BatchOptions,
) -> BatchReport {
    let started = Instant::now();
    let threads = if options.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        options.threads
    }
    .min(queries.len())
    .max(1);

    let next = AtomicUsize::new(0);
    let mut collected: Vec<(usize, Result<Optimized, OptError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= queries.len() {
                            break;
                        }
                        let mut cfg = *config;
                        cfg.seed = splitmix(config.seed ^ i as u64);
                        if let Some(d) = options.per_query_deadline {
                            cfg.deadline = Some(Deadline::after(d));
                        }
                        let model: &dyn CostModel = model;
                        out.push((i, try_optimize(&queries[i], model, &cfg)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("try_optimize is panic-isolated internally"))
            .collect()
    });
    collected.sort_by_key(|&(i, _)| i);

    let mut report = BatchReport {
        results: Vec::with_capacity(queries.len()),
        outcomes: Vec::with_capacity(queries.len()),
        n_failed: 0,
        n_degraded: 0,
        n_deadline_expired: 0,
        n_cold_solves: queries.len(),
        n_cache_hits: 0,
        n_dedup_reuses: 0,
        units_used: 0,
        wall: Duration::ZERO,
    };
    for (_, result) in collected {
        match &result {
            Ok(r) => {
                report.units_used += r.units_used;
                if r.degradation.is_degraded() {
                    report.n_degraded += 1;
                }
                if r.deadline_expired {
                    report.n_deadline_expired += 1;
                }
            }
            Err(_) => report.n_failed += 1,
        }
        report.outcomes.push(ServedVia {
            outcome: crate::cached::CacheOutcome::Miss,
            producer: config.method.name(),
        });
        report.results.push(result);
    }
    report.wall = started.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ljqo_catalog::{QueryBuilder, RelId};
    use ljqo_cost::{DiskCostModel, MemoryCostModel};
    use ljqo_plan::validity::is_valid;

    fn connected_query() -> Query {
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

    fn disconnected_query() -> Query {
        QueryBuilder::new()
            .relation("a", 500)
            .relation("b", 40)
            .relation("c", 9000)
            .relation("d", 70)
            .relation("lonely", 3)
            .join("a", "b", 0.01)
            .join("c", "d", 0.001)
            .build()
            .unwrap()
    }

    #[test]
    fn optimize_connected_query_yields_single_segment() {
        let q = connected_query();
        let model = MemoryCostModel::default();
        let r = optimize(&q, &model, &OptimizerConfig::new(Method::Iai).with_seed(1));
        assert_eq!(r.plan.segments.len(), 1);
        assert_eq!(r.plan.n_relations(), 5);
        assert!(is_valid(q.graph(), r.plan.segments[0].rels()));
        assert!(r.cost.is_finite() && r.cost > 0.0);
        assert!(r.units_used > 0 && r.n_evals > 0);
    }

    #[test]
    fn optimize_reaches_dp_optimum_on_small_query() {
        let q = connected_query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let (_, opt) = crate::dp::optimal_order_dp(&q, &comp, &model).unwrap();
        let r = optimize(&q, &model, &OptimizerConfig::new(Method::Iai).with_seed(42));
        assert!(
            r.cost <= opt * 1.0 + 1e-9,
            "IAI at 9N² should find the optimum of a 4-join query: {} vs {opt}",
            r.cost
        );
    }

    #[test]
    fn optimize_disconnected_query_uses_cross_products_late() {
        let q = disconnected_query();
        let model = MemoryCostModel::default();
        let r = optimize(&q, &model, &OptimizerConfig::new(Method::Ii).with_seed(7));
        assert_eq!(r.plan.segments.len(), 3);
        // Every segment is a valid order of its own component.
        for seg in &r.plan.segments {
            assert!(is_valid(q.graph(), seg.rels()), "{seg}");
        }
        // Segments ascend by result size; the singleton (3 tuples) first.
        assert_eq!(r.plan.segments[0].rels(), &[RelId(4)]);
        assert_eq!(r.plan.n_relations(), 5);
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let q = connected_query();
        let model = DiskCostModel::default();
        let cfg = OptimizerConfig::new(Method::Sa).with_seed(1234);
        let a = optimize(&q, &model, &cfg);
        let b = optimize(&q, &model, &cfg);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.units_used, b.units_used);
    }

    #[test]
    fn different_seeds_may_walk_differently_but_stay_valid() {
        let q = connected_query();
        let model = MemoryCostModel::default();
        for seed in 0..5 {
            let cfg = OptimizerConfig::new(Method::Agi)
                .with_seed(seed)
                .with_time_limit(0.5);
            let r = optimize(&q, &model, &cfg);
            assert!(is_valid(q.graph(), r.plan.segments[0].rels()));
        }
    }

    #[test]
    fn early_stopping_saves_budget_when_bound_is_reachable() {
        // A star query whose optimum is easy to hit: early stopping with a
        // generous epsilon must terminate well before the 9N² budget.
        let q = QueryBuilder::new()
            .relation("hub", 10)
            .relation("s1", 1000)
            .relation("s2", 2000)
            .relation("s3", 1500)
            .join("hub", "s1", 0.001)
            .join("hub", "s2", 0.0005)
            .join("hub", "s3", 0.0007)
            .build()
            .unwrap();
        let model = MemoryCostModel::default();
        let without = optimize(&q, &model, &OptimizerConfig::new(Method::Ii).with_seed(3));
        let with = optimize(
            &q,
            &model,
            &OptimizerConfig::new(Method::Ii)
                .with_seed(3)
                .with_early_stop(5.0),
        );
        assert!(
            with.units_used < without.units_used,
            "early stop used {} vs {} without",
            with.units_used,
            without.units_used
        );
        // The early-stopped plan is still valid and costed.
        assert!(is_valid(q.graph(), with.plan.segments[0].rels()));
        assert!(with.cost.is_finite());
    }

    #[test]
    fn parallel_driver_is_deterministic_and_valid() {
        let q = connected_query();
        let model = MemoryCostModel::default();
        let cfg = OptimizerConfig::new(Method::Ii).with_seed(21);
        let par = Parallelism::workers(4);
        let a = try_optimize_parallel(&q, &model, &cfg, &par).unwrap();
        let b = try_optimize_parallel(&q, &model, &cfg, &par).unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.units_used, b.units_used);
        assert!(is_valid(q.graph(), a.plan.segments[0].rels()));
        assert_eq!(a.workers_failed, 0);
        assert!(!a.degradation.is_degraded());
    }

    #[test]
    fn parallel_driver_handles_disconnected_queries() {
        let q = disconnected_query();
        let model = MemoryCostModel::default();
        let cfg = OptimizerConfig::new(Method::Ii).with_seed(2);
        let r = try_optimize_parallel(&q, &model, &cfg, &Parallelism::portfolio(4)).unwrap();
        assert_eq!(r.plan.segments.len(), 3);
        for seg in &r.plan.segments {
            assert!(is_valid(q.graph(), seg.rels()), "{seg}");
        }
        assert!(r.cost.is_finite());
    }

    #[test]
    fn parallel_driver_budget_is_comparable_to_sequential() {
        // Sharding splits the same τ·N²·κ total, so a 4-worker run must
        // not consume materially more than the sequential driver (only
        // the bounded per-worker overrun differs).
        let q = connected_query();
        let model = MemoryCostModel::default();
        let cfg = OptimizerConfig::new(Method::Ii).with_seed(13);
        let seq = try_optimize(&q, &model, &cfg).unwrap();
        let par = try_optimize_parallel(&q, &model, &cfg, &Parallelism::workers(4)).unwrap();
        let slack = 4 * (64 + 4 * 5) as u64;
        assert!(
            par.units_used <= seq.units_used + slack,
            "parallel {} vs sequential {}",
            par.units_used,
            seq.units_used
        );
    }

    fn batch_queries() -> Vec<Query> {
        (0..6u64)
            .map(|i| {
                QueryBuilder::new()
                    .relation("a", 1000 + i * 37)
                    .relation("b", 12 + i)
                    .relation("c", 700 - i * 11)
                    .relation("d", 55 + i * 3)
                    .join("a", "b", 0.01)
                    .join("b", "c", 0.002)
                    .join("c", "d", 0.05)
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn batch_results_are_independent_of_thread_count() {
        let queries = batch_queries();
        let model = MemoryCostModel::default();
        let cfg = OptimizerConfig::new(Method::Iai).with_seed(77);
        let solo = optimize_batch(&queries, &model, &cfg, &BatchOptions::default());
        let pooled = optimize_batch(
            &queries,
            &model,
            &cfg,
            &BatchOptions {
                threads: 4,
                per_query_deadline: None,
            },
        );
        assert_eq!(solo.results.len(), queries.len());
        assert_eq!(solo.n_failed, 0);
        assert_eq!(pooled.n_failed, 0);
        for (a, b) in solo.results.iter().zip(&pooled.results) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.cost, b.cost);
            assert_eq!(a.units_used, b.units_used);
        }
        assert_eq!(solo.units_used, pooled.units_used);
    }

    #[test]
    fn batch_queries_get_distinct_seeds() {
        // Two identical queries in one batch must not be planned by the
        // byte-identical search: per-query seeds are index-derived.
        let q = connected_query();
        let queries = vec![q.clone(), q];
        let model = MemoryCostModel::default();
        let cfg = OptimizerConfig::new(Method::Sa).with_seed(5);
        let report = optimize_batch(&queries, &model, &cfg, &BatchOptions::default());
        let (a, b) = (
            report.results[0].as_ref().unwrap(),
            report.results[1].as_ref().unwrap(),
        );
        // Same query, same budget — but independently seeded walks. Both
        // must be valid; their unit spend tallies into the report.
        assert!(a.cost.is_finite() && b.cost.is_finite());
        assert_eq!(report.units_used, a.units_used + b.units_used);
        assert!(report.wall > Duration::ZERO);
    }

    #[test]
    fn budget_scales_with_tau() {
        let q = connected_query();
        let model = MemoryCostModel::default();
        let small = optimize(
            &q,
            &model,
            &OptimizerConfig::new(Method::Ii).with_time_limit(0.5),
        );
        let large = optimize(
            &q,
            &model,
            &OptimizerConfig::new(Method::Ii).with_time_limit(9.0),
        );
        assert!(large.units_used > small.units_used);
        assert!(large.cost <= small.cost);
    }
}
