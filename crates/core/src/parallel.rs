//! Parallel multi-start and portfolio search — a modern extension.
//!
//! The paper's methods are inherently multi-start (II restarts, the
//! augmentation sweep, SA re-heats); on 1988 hardware they ran
//! sequentially under one clock. On a multicore machine the restarts are
//! embarrassingly parallel: this module fans a budget out over worker
//! threads and keeps the best result. Semantics: a run with `k` workers
//! and budget `B` *allots* at most `B` total units (worker `i` receives
//! `⌊B/k⌋` plus one of the `B mod k` remainder units), so results are
//! comparable to a sequential run at the same budget — the speedup is
//! wall-clock only, exactly like giving the paper's optimizer `k`
//! workstations. As everywhere else, a worker may overrun its share by
//! one indivisible step (one heuristic generation or one move proposal
//! with its validity-check retries).
//!
//! Two extensions on top of the plain fan-out:
//!
//! * **Portfolio** ([`run_portfolio`] with several methods): workers run
//!   *heterogeneous* methods (the [`PORTFOLIO`] default rotates II, SA,
//!   AGI, and KBZ-seeded II) instead of clones of one method, and the
//!   best survivor wins. Complementary heuristics hedge each other:
//!   augmentation-seeded workers dominate at small budgets, II/SA at
//!   large ones.
//! * **Batching**: [`Optimizer::solve_batch`](crate::Optimizer::solve_batch)
//!   shards many *queries* across a thread pool with per-query
//!   deadlines — throughput-oriented parallelism one level above this
//!   module's latency-oriented kind.
//!
//! # Determinism
//!
//! A fan-out is bit-deterministic in `(seed, workers)`: worker `i` uses
//! seed `seed ⊕ splitmix(i+1)` and shares nothing with its siblings but
//! the read-only compiled snapshot of the query, so results do not
//! depend on scheduling. A worker stops at its own budget share, at the
//! early-stop threshold or at the deadline, whichever comes first.

use std::sync::Arc;

use ljqo_catalog::{CompiledQuery, Query, RelId};
use ljqo_cost::{CostModel, Deadline, Evaluator};
use ljqo_plan::JoinOrder;

use crate::methods::{Method, MethodRunner};

/// The default heterogeneous portfolio, ordered so small worker counts
/// get the strongest complementary pair first: iterative improvement
/// (the paper's best general technique), simulated annealing, the
/// augmentation-first AGI (the paper's winner at small time limits), and
/// KBZ-seeded II.
pub const PORTFOLIO: [Method; 4] = [Method::Ii, Method::Sa, Method::Agi, Method::Kbi];

/// Options for [`run_portfolio`].
#[derive(Debug, Clone, Copy)]
pub struct ParallelOptions {
    /// Total budget units allotted across all workers.
    pub budget: u64,
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Base RNG seed; worker `i` derives `seed ⊕ splitmix(i+1)`.
    pub seed: u64,
    /// Early-stop threshold installed in every worker's evaluator.
    pub stop_threshold: Option<f64>,
    /// Wall-clock deadline installed in every worker's evaluator.
    pub deadline: Option<Deadline>,
}

impl ParallelOptions {
    /// A fan-out with no early stop and no deadline.
    pub fn new(budget: u64, workers: usize, seed: u64) -> Self {
        ParallelOptions {
            budget,
            workers,
            seed,
            stop_threshold: None,
            deadline: None,
        }
    }
}

/// Per-worker accounting of one parallel run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerReport {
    /// The method this worker ran.
    pub method: Method,
    /// The worker's own best cost (`None` if it was allotted no budget,
    /// produced no state, or panicked).
    pub best_cost: Option<f64>,
    /// Budget units the worker consumed.
    pub units_used: u64,
    /// Plan evaluations the worker performed.
    pub n_evals: u64,
    /// Whether the worker died (panicked) before reporting.
    pub panicked: bool,
}

/// Outcome of a parallel run: its winner, if any worker produced a
/// state, and its accounting, which stands either way.
#[derive(Debug, Clone)]
pub struct ParallelResult {
    /// The best order across all workers, its cost, and the method run
    /// by the worker that produced it (always the input method for
    /// homogeneous runs; informative under portfolio mode). `None` when
    /// no worker produced a state: every worker panicked, or the budget
    /// was smaller than one evaluation per worker.
    pub winner: Option<(JoinOrder, f64, Method)>,
    /// Total budget units consumed across workers.
    pub units_used: u64,
    /// Total evaluations across workers.
    pub n_evals: u64,
    /// Evaluations that went through the incremental (delta) path, summed
    /// across workers.
    pub n_inc_evals: u64,
    /// Workers that died (panicked) before reporting a result. The run
    /// degrades to the survivors' best rather than propagating the panic.
    pub workers_failed: usize,
    /// Whether any worker's wall-clock deadline expired during its search.
    pub deadline_expired: bool,
    /// One report per configured worker, in worker order.
    pub per_worker: Vec<WorkerReport>,
}

/// Split `budget` into `workers` shares that sum to exactly `budget`:
/// every worker gets `⌊budget/workers⌋` and the first `budget mod
/// workers` workers get one remainder unit each. When
/// `budget < workers`, trailing workers receive zero (and are not
/// spawned by the runners) — the budget is *never* oversubscribed.
pub fn shard_budget(budget: u64, workers: usize) -> Vec<u64> {
    let workers = workers.max(1);
    let base = budget / workers as u64;
    let remainder = (budget % workers as u64) as usize;
    (0..workers)
        .map(|w| base + u64::from(w < remainder))
        .collect()
}

/// What one spawned worker reports back.
type WorkerOutcome = (Option<(JoinOrder, f64)>, u64, u64, u64, bool);

/// How one worker slot ended.
enum Slot {
    /// Allotted zero budget; never spawned.
    Skipped,
    /// Spawned but panicked before reporting.
    Panicked,
    /// Reported normally.
    Done(WorkerOutcome),
}

/// Run a *portfolio* of methods over `component`: worker `i` runs
/// `methods[i mod methods.len()]` under its budget share, and the best
/// state across workers wins. With a single-element `methods` this is
/// plain homogeneous fan-out.
///
/// The budget is split by [`shard_budget`], and worker `i` is seeded
/// with `seed ⊕ splitmix(i+1)`.
///
/// Early stopping and deadlines are configured via [`ParallelOptions`].
/// Workers are panic-isolated: a worker that panics (a buggy cost model,
/// poisoned statistics) is counted in [`ParallelResult::workers_failed`]
/// and the best state among the survivors wins. Ties between workers
/// are broken toward the lowest worker index, which keeps runs
/// bit-deterministic in `(seed, workers)`. The result has no
/// [`winner`](ParallelResult::winner) only if no worker produced a
/// state; its accounting is reported either way.
pub fn run_portfolio(
    query: &Query,
    model: &dyn CostModel,
    runner: &MethodRunner,
    methods: &[Method],
    component: &[RelId],
    opts: &ParallelOptions,
) -> ParallelResult {
    let compiled = Arc::new(CompiledQuery::new(query));
    run_workers(query, &compiled, model, runner, methods, component, opts)
}

/// [`run_portfolio`] over an existing compiled snapshot of `query`, which
/// every worker's evaluator walks: spawn one worker per [`shard_budget`]
/// share, rotate methods, aggregate.
pub(crate) fn run_workers(
    query: &Query,
    compiled: &Arc<CompiledQuery>,
    model: &dyn CostModel,
    runner: &MethodRunner,
    methods: &[Method],
    component: &[RelId],
    opts: &ParallelOptions,
) -> ParallelResult {
    assert!(!methods.is_empty(), "portfolio needs at least one method");
    let workers = opts.workers.max(1);
    let shares = shard_budget(opts.budget, workers);
    let (seed, stop_threshold, deadline) = (opts.seed, opts.stop_threshold, opts.deadline);

    let slots: Vec<(Method, Slot)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let method = methods[w % methods.len()];
                let share = shares[w];
                if share == 0 {
                    return (method, None);
                }
                let compiled = Arc::clone(compiled);
                let handle = scope.spawn(move || {
                    let mut ev = Evaluator::with_compiled(query, model, share, compiled);
                    if let Some(d) = deadline {
                        ev.set_deadline(d);
                    }
                    if let Some(t) = stop_threshold {
                        ev.set_stop_threshold(t);
                    }
                    let worker_seed = seed ^ splitmix(w as u64 + 1);
                    let mut rng = {
                        use rand::SeedableRng;
                        rand::rngs::SmallRng::seed_from_u64(worker_seed)
                    };
                    runner.run(method, &mut ev, component, &mut rng);
                    let best = ev.best().map(|(o, c)| (o.clone(), c));
                    (
                        best,
                        ev.used(),
                        ev.n_evals(),
                        ev.n_inc_evals(),
                        ev.deadline_expired(),
                    )
                });
                (method, Some(handle))
            })
            .collect();
        // A panicked worker surfaces as `Err` from `join`; swallowing it
        // here (rather than propagating) is the isolation boundary. Its
        // partial spend dies with its evaluator and is reported as zero.
        handles
            .into_iter()
            .map(|(method, handle)| {
                let slot = match handle {
                    None => Slot::Skipped,
                    Some(h) => match h.join() {
                        Ok(outcome) => Slot::Done(outcome),
                        Err(_) => Slot::Panicked,
                    },
                };
                (method, slot)
            })
            .collect()
    });

    let mut per_worker = Vec::with_capacity(workers);
    let mut workers_failed = 0usize;
    let mut units_used = 0u64;
    let mut n_evals = 0u64;
    let mut n_inc_evals = 0u64;
    let mut deadline_expired = false;
    let mut winner: Option<(JoinOrder, f64, Method)> = None;
    for (method, slot) in slots {
        match slot {
            Slot::Skipped => per_worker.push(WorkerReport {
                method,
                best_cost: None,
                units_used: 0,
                n_evals: 0,
                panicked: false,
            }),
            Slot::Panicked => {
                workers_failed += 1;
                per_worker.push(WorkerReport {
                    method,
                    best_cost: None,
                    units_used: 0,
                    n_evals: 0,
                    panicked: true,
                });
            }
            Slot::Done((best, used, evals, inc_evals, hit_deadline)) => {
                units_used += used;
                n_evals += evals;
                n_inc_evals += inc_evals;
                deadline_expired |= hit_deadline;
                per_worker.push(WorkerReport {
                    method,
                    best_cost: best.as_ref().map(|&(_, c)| c),
                    units_used: used,
                    n_evals: evals,
                    panicked: false,
                });
                if let Some((order, cost)) = best {
                    // Strict `<` breaks ties toward the lowest worker index.
                    if winner.as_ref().is_none_or(|&(_, c, _)| cost < c) {
                        winner = Some((order, cost, method));
                    }
                }
            }
        }
    }
    ParallelResult {
        winner,
        units_used,
        n_evals,
        n_inc_evals,
        workers_failed,
        deadline_expired,
        per_worker,
    }
}

/// Parallel-search configuration for an [`Optimizer`](crate::Optimizer).
#[derive(Debug, Clone, PartialEq)]
pub struct Parallelism {
    /// Worker threads per component (clamped to at least 1).
    pub workers: usize,
    /// Methods rotated across workers; empty means "the configured
    /// method on every worker" (homogeneous fan-out). Use
    /// [`Parallelism::portfolio`] for the [`PORTFOLIO`] default.
    pub methods: Vec<Method>,
}

impl Parallelism {
    /// Homogeneous isolated fan-out over `workers` threads.
    pub fn workers(workers: usize) -> Self {
        Parallelism {
            workers,
            methods: Vec::new(),
        }
    }

    /// The default heterogeneous portfolio over `workers` threads.
    pub fn portfolio(workers: usize) -> Self {
        Parallelism {
            workers,
            methods: PORTFOLIO.to_vec(),
        }
    }
}

/// SplitMix64 finalizer, used to derive independent worker seeds.
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ljqo_catalog::QueryBuilder;
    use ljqo_cost::MemoryCostModel;
    use ljqo_plan::validity::is_valid;

    fn query() -> Query {
        QueryBuilder::new()
            .relation("a", 3000)
            .relation("b", 12)
            .relation("c", 700)
            .relation("d", 55)
            .relation("e", 1400)
            .relation("f", 90)
            .join("a", "b", 0.01)
            .join("b", "c", 0.002)
            .join("c", "d", 0.05)
            .join("d", "e", 0.001)
            .join("e", "f", 0.02)
            .build()
            .unwrap()
    }

    /// Homogeneous isolated fan-out of `method` over all of `q`.
    fn fan_out(
        q: &Query,
        method: Method,
        budget: u64,
        workers: usize,
        seed: u64,
    ) -> ParallelResult {
        let (model, runner) = (MemoryCostModel::default(), MethodRunner::default());
        let comp: Vec<RelId> = q.rel_ids().collect();
        let opts = ParallelOptions::new(budget, workers, seed);
        run_portfolio(q, &model, &runner, &[method], &comp, &opts)
    }

    #[test]
    fn parallel_run_is_deterministic_and_budgeted() {
        let q = query();
        let a = fan_out(&q, Method::Ii, 4_000, 4, 9);
        let b = fan_out(&q, Method::Ii, 4_000, 4, 9);
        assert_eq!(a.winner, b.winner);
        assert_eq!(a.units_used, b.units_used);
        let (order, _, method) = a.winner.unwrap();
        assert_eq!(method, Method::Ii);
        assert!(is_valid(q.graph(), order.rels()));
        // Each worker may overrun its share by one indivisible step.
        assert!(a.units_used <= 4_000 + 4 * (64 + 4 * 6 + 7));
    }

    #[test]
    fn shard_budget_conserves_and_spreads_the_remainder() {
        // budget = 100, workers = 8: 4 workers of 13, 4 of 12 — no unit
        // dropped (the old `(budget / workers).max(1)` handed out 8 × 12
        // and silently lost 4).
        assert_eq!(shard_budget(100, 8), vec![13, 13, 13, 13, 12, 12, 12, 12]);
        // budget < workers: first `budget` workers get one unit, the rest
        // get zero — never `workers` units against a budget of less.
        assert_eq!(shard_budget(3, 8), vec![1, 1, 1, 0, 0, 0, 0, 0]);
        assert_eq!(shard_budget(0, 4), vec![0, 0, 0, 0]);
        for (budget, workers) in [(1u64, 1usize), (7, 3), (64, 64), (1000, 7), (5, 9)] {
            let shares = shard_budget(budget, workers);
            assert_eq!(shares.iter().sum::<u64>(), budget, "{budget}/{workers}");
            let (min, max) = (shares.iter().min().unwrap(), shares.iter().max().unwrap());
            assert!(max - min <= 1, "{budget}/{workers}: uneven {shares:?}");
        }
    }

    #[test]
    fn tiny_budget_is_never_oversubscribed() {
        // Regression: budget 3 over 8 workers used to allot max(3/8,1) = 1
        // unit to *each* worker, spending up to 8 units against a budget
        // of 3. Now only the first 3 workers run, one unit each.
        let q = query();
        let r = fan_out(&q, Method::Ii, 3, 8, 5);
        assert!(
            r.units_used <= 3,
            "budget 3 oversubscribed: {} units spent",
            r.units_used
        );
        assert!(r.winner.as_ref().is_some_and(|w| w.1.is_finite()));
        let active = r.per_worker.iter().filter(|w| w.units_used > 0).count();
        assert_eq!(active, 3);
    }

    #[test]
    fn remainder_units_are_distributed_not_dropped() {
        // Regression: budget 100 over 8 workers used to hand out only
        // 12 × 8 = 96 units. II runs until exhaustion, so the full 100
        // allotted units must now be consumed (up to per-worker overrun).
        let q = query();
        let r = fan_out(&q, Method::Ii, 100, 8, 5);
        assert!(
            r.units_used >= 100,
            "remainder dropped: only {} of 100 units consumed",
            r.units_used
        );
        let slack = 8 * (64 + 4 * 6);
        assert!(r.units_used <= 100 + slack);
    }

    #[test]
    fn more_workers_do_not_break_quality() {
        let q = query();
        let (_, solo, _) = fan_out(&q, Method::Iai, 6_000, 1, 5).winner.unwrap();
        let (_, quad, _) = fan_out(&q, Method::Iai, 6_000, 4, 5).winner.unwrap();
        // Both must find reasonable plans; neither dominates in general,
        // but both should be within 2x of each other on this small query.
        let ratio = (solo / quad).max(quad / solo);
        assert!(ratio < 2.0, "solo {solo} vs quad {quad}");
    }

    #[test]
    fn zero_worker_count_is_clamped() {
        let q = query();
        let r = fan_out(&q, Method::Agi, 1_000, 0, 1);
        assert!(r.winner.is_some_and(|w| w.1.is_finite()));
    }

    #[test]
    fn portfolio_rotates_methods_and_reports_the_winner() {
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let runner = MethodRunner::default();
        let r = run_portfolio(
            &q,
            &model,
            &runner,
            &PORTFOLIO,
            &comp,
            &ParallelOptions::new(8_000, 6, 3),
        );
        let (order, cost, method) = r.winner.unwrap();
        assert!(is_valid(q.graph(), order.rels()));
        assert_eq!(r.per_worker.len(), 6);
        for (w, report) in r.per_worker.iter().enumerate() {
            assert_eq!(report.method, PORTFOLIO[w % PORTFOLIO.len()]);
            assert!(report.best_cost.is_some());
        }
        assert!(PORTFOLIO.contains(&method));
        // The portfolio's winner is the minimum across workers.
        let min = r
            .per_worker
            .iter()
            .filter_map(|w| w.best_cost)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(cost, min);
    }

    #[test]
    fn zero_budget_has_no_winner_and_spends_nothing() {
        // Budget 0: no worker is ever spawned.
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let runner = MethodRunner::default();
        let opts = ParallelOptions::new(0, 3, 11);
        let r = run_portfolio(&q, &model, &runner, &PORTFOLIO, &comp, &opts);
        assert!(r.winner.is_none());
        assert_eq!((r.units_used, r.n_evals, r.workers_failed), (0, 0, 0));
        assert_eq!(r.per_worker.len(), 3);
        assert!(r.per_worker.iter().all(|w| w.best_cost.is_none()));
    }

    #[test]
    fn every_worker_dead_keeps_the_accounting() {
        struct AlwaysPanic;
        impl CostModel for AlwaysPanic {
            fn join_cost(&self, _ctx: &ljqo_cost::JoinCtx) -> f64 {
                panic!("poisoned model");
            }
            fn name(&self) -> &'static str {
                "always-panic"
            }
        }
        let q = query();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let runner = MethodRunner::default();
        let opts = ParallelOptions::new(1_000, 3, 11);
        // Every worker dies: no winner, but the deaths are still counted.
        let r = run_portfolio(&q, &AlwaysPanic, &runner, &PORTFOLIO, &comp, &opts);
        assert!(r.winner.is_none());
        assert_eq!(r.workers_failed, 3);
        assert!(r.per_worker.iter().all(|w| w.panicked));
    }
}
