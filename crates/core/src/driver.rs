//! The per-component pieces of the optimizer: its configuration, the
//! budget split across join-graph components, the fallback ladder that
//! plans one component (sequentially, or fanned out over a worker pool),
//! and [`price_plan`], which joins the component trees with cross
//! products postponed to the end (the paper's heuristic for disconnected
//! join graphs) and prices the whole plan.
//! [`Optimizer`](crate::Optimizer) drives them, in either
//! [`SearchSpace`]: the paper's outer linear orders, or bushy trees,
//! whose rung 1 is the tree search. Either way every component ends as a
//! [`BushyTree`]; an order enters as its left-deep tree.
//!
//! Planning is hardened against misbehaving components: each method run
//! is panic-isolated with `catch_unwind`, a wall-clock [`Deadline`] can
//! cap the search regardless of the unit budget, and when a component's
//! method yields nothing the fallback ladder (augmentation heuristic,
//! then the cardinality-free structural order, then a random valid order)
//! still returns a valid plan whenever one exists — flagged with the
//! [`Degradation`] level reached.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use ljqo_catalog::{BlockMask, CompiledQuery, Query, RelId};
use ljqo_cost::estimate::{final_result_size, SizeWalker};
use ljqo_cost::{
    sanitize_cost, BudgetSchedule, CostModel, Deadline, Evaluator, JoinCtx, OrderCost, TimeLimit,
    TreeEvaluator,
};
use ljqo_heuristics::{AugmentationHeuristic, CardFreeHeuristic};
use ljqo_plan::validity::is_valid;
use ljqo_plan::{random_valid_order, BushyTree, JoinOrder, Plan};

use crate::error::Degradation;
use crate::methods::{Method, MethodRunner};
use crate::optimizer::Optimizer;
use crate::parallel::{portfolio_on, splitmix, ParallelOptions};

/// The plan shapes a search ranges over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SearchSpace {
    /// Outer linear (left-deep) join orders, the paper's restriction.
    #[default]
    Linear,
    /// Bushy join trees (see [`crate::bushy_search`]): the configured
    /// method runs as tree search through
    /// [`MethodRunner::run_bushy`]. Sequential only: parallel search is a
    /// feature of the linear search loop.
    Bushy,
}

impl SearchSpace {
    /// Parse a space name (`linear` or `bushy`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "linear" => Some(SearchSpace::Linear),
            "bushy" => Some(SearchSpace::Bushy),
            _ => None,
        }
    }

    /// The space's name, as [`SearchSpace::parse`] reads it.
    pub fn name(self) -> &'static str {
        match self {
            SearchSpace::Linear => "linear",
            SearchSpace::Bushy => "bushy",
        }
    }
}

/// Configuration for an [`Optimizer`](crate::Optimizer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Which of the paper's nine methods to run.
    pub method: Method,
    /// Whether to search outer linear orders or bushy trees.
    pub space: SearchSpace,
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
            space: SearchSpace::Linear,
            time_limit: TimeLimit::of(9.0),
            kappa: 5.0,
            schedule: BudgetSchedule::Quadratic,
            seed: 0,
            early_stop: None,
            deadline: None,
            runner: MethodRunner::default(),
        }
    }

    /// Set the search space.
    #[must_use]
    pub fn with_space(mut self, space: SearchSpace) -> Self {
        self.space = space;
        self
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
    /// solve (linear, bushy, parallel, cached) derives its budget from
    /// this one place.
    pub fn budget_units(&self, n_joins: usize) -> u64 {
        self.schedule.units(&self.time_limit, n_joins, self.kappa)
    }

    /// Enable early stopping within `epsilon` of the model's lower bound.
    /// Linear space only: tree candidates never feed
    /// [`Evaluator::best`], so no stop threshold is set in bushy space.
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
    /// The chosen plan's leaf orders: `plan.segments[i]` is
    /// `trees[i].leaves()`.
    pub plan: Plan,
    /// The plan: one join tree per join-graph component, joined left to
    /// right by cross products (see [`Optimized::explain`]). A segment
    /// that the linear search or the fallback ladder planned is its
    /// left-deep tree.
    pub trees: Vec<BushyTree>,
    /// Estimated total cost, including cross products between segments.
    pub cost: f64,
    /// Per-segment costs, aligned with `trees`: the price of each tree.
    /// Plan pricing adds the cross-product join costs to them to give
    /// `cost`.
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
    /// rescues. The serving counters credit it as the answer's producer.
    pub winner: Option<Method>,
}

impl Optimized {
    /// Whether any segment is genuinely bushy (not outer linear).
    pub fn is_bushy(&self) -> bool {
        self.trees.iter().any(|t| !t.is_linear())
    }

    /// The EXPLAIN rendering of the whole plan (see
    /// [`BushyTree::explain`]): the segment trees joined left to right,
    /// each late cross product a `CrossProduct` whose inner is the next
    /// segment.
    pub fn explain(&self, query: &Query) -> String {
        let mut trees = self.trees.iter().cloned();
        let first = trees.next().expect("a plan has at least one segment");
        trees.fold(first, BushyTree::join).explain(query)
    }
}

/// What planning one component produced, and how.
#[derive(Default)]
pub(crate) struct ComponentOutcome {
    /// The component's join tree.
    pub(crate) best: Option<BushyTree>,
    pub(crate) units_used: u64,
    pub(crate) n_evals: u64,
    pub(crate) deadline_expired: bool,
    pub(crate) degradation: Degradation,
    /// Parallel workers that panicked (parallel runs only).
    pub(crate) workers_failed: usize,
    /// The portfolio method that won (multi-method runs only).
    pub(crate) winner: Option<Method>,
}

/// Plan component `idx` of the optimizer's query down the fallback
/// ladder:
///
/// 1. the configured method, panic-isolated, under budget + deadline —
///    sequentially with the solve's shared `rng`, or, with
///    [`Parallelism`](crate::Parallelism), as a [`run_portfolio`] fan-out
///    seeded with `config.seed ⊕ splitmix(idx)`; in bushy space the tree
///    search, for queries that fit the arena's [`BlockMask`] (larger ones
///    run the linear search, as the paper does, and are not flagged as
///    degraded);
/// 2. the augmentation heuristic (cheap, deterministic), panic-isolated;
/// 3. the cardinality-free structural order — generation consults no
///    statistics so it survives whatever corrupted the rungs above;
/// 4. a random valid order — valid by construction.
///
/// Every evaluator walks `compiled`, the solve's one snapshot of `query`.
/// Returns `best: None` only if all four rungs fail. An order from the
/// linear search or the fallback rungs enters as its left-deep tree.
/// No rung ships a cost: [`price_plan`] prices the trees, so a model
/// that cannot price the structural or random order prices it at
/// `f64::MAX` there.
///
/// [`run_portfolio`]: crate::parallel::run_portfolio
pub(crate) fn plan_component(
    opt: &Optimizer,
    query: &Query,
    compiled: &Arc<CompiledQuery>,
    idx: usize,
    comp: &[RelId],
    budget: u64,
    rng: &mut SmallRng,
) -> ComponentOutcome {
    let (model, config) = (opt.model, opt.config);
    let bushy = config.space == SearchSpace::Bushy;
    let tree_search = bushy && query.n_relations() <= BlockMask::CAPACITY;

    // Rung 1: the configured combinatorial method. `AssertUnwindSafe` is
    // justified: on panic the evaluators and their walkers are discarded,
    // and the RNG holds plain integers whose state is usable regardless
    // of where the method stopped. A panicked method's spend is unknown
    // and reported as zero.
    let mut outcome = catch_unwind(AssertUnwindSafe(|| {
        let stop_threshold = config.early_stop.filter(|_| !bushy).and_then(|eps| {
            let lb = model.lower_bound(query, comp);
            (lb > 0.0).then_some(lb * (1.0 + eps))
        });
        let Some(par) = opt.parallelism else {
            let mut ev = Evaluator::with_compiled(query, model, budget, Arc::clone(compiled));
            if let Some(deadline) = config.deadline {
                ev.set_deadline(deadline);
            }
            if let Some(threshold) = stop_threshold {
                ev.set_stop_threshold(threshold);
            }
            let best = if tree_search {
                config
                    .runner
                    .run_bushy(config.method, &mut ev, comp, rng)
                    .map(|(plan, _)| BushyTree::from_plan(&plan))
            } else {
                config.runner.run(config.method, &mut ev, comp, rng);
                ev.best().map(|(o, _)| BushyTree::left_deep(o.rels()))
            };
            return ComponentOutcome {
                best,
                units_used: ev.used(),
                n_evals: ev.n_evals(),
                deadline_expired: ev.deadline_expired(),
                ..ComponentOutcome::default()
            };
        };
        let methods: &[Method] = if par.methods.is_empty() {
            std::slice::from_ref(&config.method)
        } else {
            &par.methods
        };
        // Singleton components have exactly one (trivial) plan; spawning
        // a worker pool for them would spend `workers` units on clones of
        // the same evaluation.
        let opts = ParallelOptions {
            budget,
            workers: if comp.len() == 1 {
                1
            } else {
                par.workers.max(1)
            },
            seed: config.seed ^ splitmix(idx as u64),
            stop_threshold,
            deadline: config.deadline,
            challenger: par.structural_backstop,
        };
        // No winner: every worker panicked or the budget bought no state.
        // The accounting stands either way.
        let r = portfolio_on(query, compiled, model, &config.runner, methods, comp, &opts);
        ComponentOutcome {
            best: r
                .winner
                .as_ref()
                .map(|(o, ..)| BushyTree::left_deep(o.rels())),
            units_used: r.units_used,
            n_evals: r.n_evals,
            deadline_expired: r.deadline_expired,
            workers_failed: r.workers_failed,
            winner: r
                .winner
                .map(|(.., m)| m)
                .filter(|_| methods.len() > 1 && comp.len() > 1),
            ..ComponentOutcome::default()
        }
    }))
    .unwrap_or_default();

    // A tree's leaves must be exactly the component (equal length and
    // every relation present); an order must also be valid, which a
    // tree's leaf order need not be.
    outcome.best = outcome.best.take().filter(|tree| {
        let leaves = tree.leaves();
        if tree_search {
            leaves.len() == comp.len() && comp.iter().all(|r| leaves.contains(r))
        } else {
            is_valid(query.graph(), leaves)
        }
    });
    if outcome.best.is_none() {
        outcome.winner = None;
        component_fallback(query, model, config, comp, &mut outcome);
    }
    outcome
}

/// Rungs 2–4 of the fallback ladder (augmentation heuristic, structural
/// order, then a random valid order). Accumulates into `outcome` and
/// stamps the degradation level reached.
///
/// The random rung derives its RNG from `config.seed` and the
/// component's identity — *not* from the shared method RNG. The method
/// RNG's state depends on where the search stopped, and under a
/// wall-clock [`Deadline`] that point is machine-dependent, which used
/// to make fallback plans non-reproducible across same-seed runs.
fn component_fallback(
    query: &Query,
    model: &dyn CostModel,
    config: &OptimizerConfig,
    comp: &[RelId],
    outcome: &mut ComponentOutcome,
) {
    // Rung 2: the augmentation heuristic. Panic-isolated too — it reads
    // the same catalog statistics that may have upset the method — and
    // it stands only if the model can price its order.
    outcome.degradation = Degradation::Heuristic;
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        let first = AugmentationHeuristic::first_relations(query, comp)[0];
        let order = config.runner.augmentation.generate(query, comp, first);
        model.order_cost(query, order.rels());
        order
    }));
    if let Ok(order) = attempt {
        if is_valid(query.graph(), order.rels()) {
            outcome.units_used += comp.len() as u64 + 1;
            outcome.n_evals += 1;
            outcome.best = Some(BushyTree::left_deep(order.rels()));
            return;
        }
    }

    // Rung 3: the cardinality-free structural order. Generation reads
    // only the join graph — missing or non-finite statistics cannot
    // defeat it — so the order stands even if the model cannot price it
    // (a deterministic structural plan still beats a random one).
    outcome.degradation = Degradation::CardFree;
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        CardFreeHeuristic.generate(query.graph(), comp)
    }));
    if let Ok(order) = attempt {
        if is_valid(query.graph(), order.rels()) {
            outcome.units_used += comp.len() as u64 + 1;
            outcome.n_evals += 1;
            outcome.best = Some(BushyTree::left_deep(order.rels()));
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
            outcome.units_used += 1;
            outcome.n_evals += 1;
            outcome.best = Some(BushyTree::left_deep(order.rels()));
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

/// The cost of one plan segment against `walker`'s snapshot, sanitized.
/// An outer linear tree is priced by the linear walk, which reaches any
/// query size; a bushy tree by the arena's [`TreeEvaluator`], since
/// bushy trees exist only up to [`BlockMask::CAPACITY`] relations. The
/// two walks price a left-deep tree bit for bit alike, so the choice
/// never moves a cost.
pub(crate) fn tree_cost(walker: &mut SizeWalker, model: &dyn CostModel, tree: &BushyTree) -> f64 {
    if tree.is_linear() {
        sanitize_cost(model.order_cost_with(walker, tree.leaves()))
    } else {
        let compiled = Arc::clone(walker.compiled());
        let plan = tree.to_plan(&compiled);
        TreeEvaluator::new(model, compiled, plan).current_cost()
    }
}

/// Join the component trees into one plan and price it: the one place a
/// plan is priced, for a cold solve, every fallback rung, a cache hit
/// and a re-cost alike, so every shipped cost is the price of the trees
/// shipped with it.
///
/// Segments go in ascending order of estimated result size, so the
/// running outer operand of the late cross products stays as small as
/// possible. Each segment is priced by [`tree_cost`] against `walker`'s
/// compiled snapshot of `query`: a cold solve passes the snapshot its
/// search walked, a cache hit or a re-cost a fresh one. Each cross
/// product is a tree join whose outer is the plan so far and whose inner
/// is the next segment, at the segments' result sizes and widths (see
/// [`JoinCtx`]).
///
/// The model is panic-isolated here: a plan whose segments were rescued
/// by the fallback ladder must not be lost to one last model fault. A
/// segment the model cannot price costs `f64::MAX`, and so does the
/// total when a cross product faults.
///
/// Pricing is a pure function of the trees: the same trees under the
/// same query and model give the same costs bit for bit, which is what
/// lets a plan-cache hit return the cold path's exact cost (see
/// `crate::cached`). The result carries no search accounting; callers
/// fill it in.
pub(crate) fn price_plan(
    query: &Query,
    walker: &mut SizeWalker,
    model: &dyn CostModel,
    mut trees: Vec<BushyTree>,
) -> Optimized {
    trees.sort_by(|a, b| {
        let sa = final_result_size(query, a.leaves());
        let sb = final_result_size(query, b.leaves());
        sa.total_cmp(&sb)
    });

    let segment_costs: Vec<f64> = trees
        .iter()
        .map(|tree| {
            catch_unwind(AssertUnwindSafe(|| tree_cost(walker, model, tree))).unwrap_or(f64::MAX)
        })
        .collect();

    let cost = catch_unwind(AssertUnwindSafe(|| {
        let mut total: f64 = segment_costs.iter().sum();
        let mut running = final_result_size(query, trees[0].leaves());
        let mut width = trees[0].n_leaves();
        for tree in &trees[1..] {
            let inner = final_result_size(query, tree.leaves());
            let step = JoinCtx::step(running, inner, 1.0, false, width, tree.n_leaves());
            total += model.join_cost(&step);
            running = step.output_card;
            width += tree.n_leaves();
        }
        sanitize_cost(total)
    }))
    .unwrap_or(f64::MAX);

    Optimized {
        plan: Plan {
            segments: trees
                .iter()
                .map(|t| JoinOrder::new(t.leaves().to_vec()))
                .collect(),
        },
        trees,
        cost,
        segment_costs,
        units_used: 0,
        n_evals: 0,
        degradation: Degradation::None,
        deadline_expired: false,
        workers_failed: 0,
        winner: None,
    }
}
