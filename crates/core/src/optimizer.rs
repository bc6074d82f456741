//! The optimizer session: one entry point for every way of planning.
//!
//! An [`Optimizer`] borrows a cost model and an [`OptimizerConfig`], and
//! optionally a [`Parallelism`] and a [`PlanCache`]. Every solve runs the
//! paper's procedure: split the join graph into components, give each
//! its share of the `τ·N²` budget, plan each one, and join the
//! components with cross products last.
//!
//! * **Search space.** [`OptimizerConfig::space`] picks outer linear
//!   orders or bushy trees. Both run the one component loop, fallback
//!   ladder, plan pricing and cache step, and every result is a list of
//!   segment trees ([`Optimized::trees`]). Bushy space is sequential:
//!   parallel search is a feature of the linear search loop, so combined
//!   with parallelism a solve returns [`OptError::Unsupported`].
//! * **Component loop.** Without parallelism each component runs the
//!   configured method sequentially down the fallback ladder. With it,
//!   each component's share is sharded over a worker pool
//!   ([`run_portfolio`]), and the structural backstop challenges the
//!   winner.
//! * **Cache step.** With a cache, a resident entry is re-validated and
//!   re-priced against the live catalog before it is served, and a
//!   full-quality cold result is inserted (see [`crate::cached`] for the
//!   serving contract).
//! * **Batch pool.** [`Optimizer::solve_batch`] spreads queries over a
//!   thread pool. With a cache, fingerprint-equal queries form one group
//!   that is solved at most once; without one, every query is its own
//!   group. [`Optimizer::solve_batch_with`] runs the same pool and hands
//!   each answer to a hook as soon as it is ready, so a server can reply
//!   without waiting for the rest of the batch.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use ljqo_cache::{fingerprint, FingerprintConfig, Fingerprinted, PlanCache};
use ljqo_catalog::{CompiledQuery, Query};
use ljqo_cost::estimate::SizeWalker;
use ljqo_cost::{CostModel, Deadline};

use crate::cached::{cacheable, entry_for, producer, serve_from_entry, CacheOutcome};
use crate::driver::{
    component_budgets, plan_component, price_plan, ComponentOutcome, Optimized, OptimizerConfig,
    SearchSpace,
};
use crate::error::OptError;
use crate::parallel::{splitmix, Parallelism};

/// Options for [`Optimizer::solve_batch`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchOptions {
    /// Thread-pool size; `0` means [`std::thread::available_parallelism`]
    /// (and never more threads than query groups). The calling thread is
    /// one of the pool's threads, so a pool of one spawns none.
    pub threads: usize,
    /// Wall-clock deadline applied to each query individually, measured
    /// from the moment a pool thread claims it. A query that trips its
    /// deadline still returns the best (possibly degraded) plan found,
    /// flagged via [`Optimized::deadline_expired`] /
    /// [`Optimized::degradation`].
    pub per_query_deadline: Option<Duration>,
}

/// How one result was produced: the serving path that answered it and
/// the method credited with the plan. A long-running service feeds these
/// (via [`ServingCounters`](crate::ServingCounters)) into its
/// process-lifetime per-method win counts and per-rung degradation
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedVia {
    /// How the cache answered ([`CacheOutcome::Miss`] when the optimizer
    /// has no cache).
    pub outcome: CacheOutcome,
    /// Short name of the method credited with the served plan: the cache
    /// entry's recorded producer on a hit; on a cold solve the portfolio
    /// winner, or else the configured method. For failed queries this is
    /// the configured method (no plan was produced; the name only says
    /// who was asked).
    pub producer: &'static str,
}

/// Outcome of [`Optimizer::solve_batch`]: per-query results in input
/// order, plus aggregate accounting for capacity planning.
#[derive(Debug)]
pub struct BatchReport {
    /// One result per input query, in input order.
    pub results: Vec<Result<Optimized, OptError>>,
    /// How each result was served, aligned with `results`.
    pub outcomes: Vec<ServedVia>,
    /// Queries that produced no plan at all ([`OptError`]).
    pub n_failed: usize,
    /// Queries whose plan came from a fallback rung
    /// ([`Degradation::is_degraded`](crate::Degradation::is_degraded)).
    pub n_degraded: usize,
    /// Queries whose per-query deadline expired during the search.
    pub n_deadline_expired: usize,
    /// Queries answered by running the full combinatorial search: every
    /// answered query without a cache, at most one per fingerprint class
    /// with one.
    pub n_cold_solves: usize,
    /// Queries answered from a pre-existing plan-cache entry.
    pub n_cache_hits: usize,
    /// Queries answered by reusing a sibling's in-batch cold solve after
    /// fingerprint dedup.
    pub n_dedup_reuses: usize,
    /// Total budget units consumed across the batch.
    pub units_used: u64,
    /// End-to-end wall-clock time of the batch.
    pub wall: Duration,
}

/// How one answer counts in the serving tallies: the one
/// classification behind [`BatchReport`]'s counts and
/// [`ServingCounters::record`](crate::ServingCounters::record).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AnswerKind {
    /// Answered by running the full combinatorial search (a cache miss,
    /// or a stale entry re-solved).
    Cold,
    /// Answered from a pre-existing plan-cache entry.
    Hit,
    /// Answered by reusing a sibling's in-batch cold solve after
    /// fingerprint dedup.
    Dedup,
    /// No plan at all.
    Failed,
}

impl AnswerKind {
    /// Classify one answer. `reused` says a hit was served from an
    /// entry this batch's own cold solve produced, not a resident one.
    pub(crate) fn of(result: &Result<Optimized, OptError>, via: &ServedVia, reused: bool) -> Self {
        match (result, via.outcome) {
            (Err(_), _) => AnswerKind::Failed,
            (Ok(_), CacheOutcome::Hit | CacheOutcome::HitRecosted) if reused => AnswerKind::Dedup,
            (Ok(_), CacheOutcome::Hit | CacheOutcome::HitRecosted) => AnswerKind::Hit,
            (Ok(_), CacheOutcome::Stale | CacheOutcome::Miss) => AnswerKind::Cold,
        }
    }
}

/// One optimizer session (see the module docs). Cheap to build: it only
/// borrows, so a service can build one per batch.
#[derive(Clone, Copy)]
pub struct Optimizer<'a> {
    pub(crate) model: &'a dyn CostModel,
    pub(crate) config: &'a OptimizerConfig,
    pub(crate) parallelism: Option<&'a Parallelism>,
    pub(crate) cache: Option<(&'a PlanCache, FingerprintConfig)>,
    pub(crate) batch: BatchOptions,
}

impl<'a> Optimizer<'a> {
    /// A sequential, uncached session over `model` and `config`.
    pub fn new(model: &'a dyn CostModel, config: &'a OptimizerConfig) -> Self {
        Optimizer {
            model,
            config,
            parallelism: None,
            cache: None,
            batch: BatchOptions::default(),
        }
    }

    /// Search each component with a parallel worker pool.
    ///
    /// Budget semantics match the sequential loop exactly: the same
    /// `τ·N²·κ` total is split across components by squared size, and
    /// each component's share is then sharded over the workers (see
    /// [`crate::parallel::shard_budget`]) — so a parallel run is
    /// comparable to a sequential run at the same budget, and is
    /// bit-deterministic in `(seed, workers)`. Worker panics are isolated
    /// (tallied in [`Optimized::workers_failed`]); a component whose
    /// *every* worker fails walks the sequential fallback ladder.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: &'a Parallelism) -> Self {
        self.parallelism = Some(parallelism);
        self
    }

    /// Serve from `cache`, keyed by fingerprints built with `fp_config`.
    #[must_use]
    pub fn with_cache(mut self, cache: &'a PlanCache, fp_config: FingerprintConfig) -> Self {
        self.cache = Some((cache, fp_config));
        self
    }

    /// Options for [`Optimizer::solve_batch`].
    #[must_use]
    pub fn with_batch(mut self, options: BatchOptions) -> Self {
        self.batch = options;
        self
    }

    /// Optimize one query.
    ///
    /// The catalog is revalidated up front (a
    /// [`CatalogError`](ljqo_catalog::CatalogError) becomes
    /// [`OptError::Catalog`]); each component's method runs
    /// panic-isolated under the unit budget and the optional wall-clock
    /// deadline, degrading per component to the augmentation heuristic,
    /// then the cardinality-free structural order, then a random valid
    /// order (see [`Degradation`](crate::Degradation)). An `Err` is
    /// returned only when some component defeats every rung, or when the
    /// session is [unsupported](OptError::Unsupported).
    pub fn solve(&self, query: &Query) -> Result<(Optimized, ServedVia), OptError> {
        self.supported()?;
        let served = match self.cache {
            None => self.serve(query, None, &mut None),
            Some((_, fp_config)) => {
                query.validate()?;
                let fp = fingerprint(query, &fp_config);
                self.serve(query, Some(&fp), &mut None)
            }
        };
        served.result.map(|r| (r, served.via))
    }

    /// Optimize many queries on a thread pool — the throughput-oriented
    /// counterpart of [`Optimizer::solve`]. Same as
    /// [`Optimizer::solve_batch_with`] with a no-op hook.
    pub fn solve_batch(&self, queries: &[Query]) -> BatchReport {
        self.solve_batch_with(queries, |_, _, _, _| {})
    }

    /// [`Optimizer::solve_batch`] that hands each answer to `on_result`
    /// as soon as it is ready, so a service can reply to query `i`
    /// without waiting for the rest of the batch.
    ///
    /// `on_result(i, &result, &via, reused)` runs once per query: on the
    /// calling thread for a query that fails validation (every query,
    /// when the session is [unsupported](OptError::Unsupported)),
    /// otherwise on the pool thread that produced the answer (the calling
    /// thread is one of the pool's threads), right after producing it.
    /// `reused` marks a dedup reuse: an answer served from the entry a
    /// sibling's cold solve in this batch produced. Calls for
    /// different queries may run concurrently and in any order.
    ///
    /// Threads claim query groups from a shared work index (dynamic load
    /// balancing: a pathological query stalls only its own thread). Query
    /// `i` is solved with seed `splitmix(config.seed ⊕ i)` and the
    /// per-query deadline, so results are deterministic in
    /// `(config, queries)` and independent of the thread count and of
    /// scheduling (deadline expiry aside).
    ///
    /// With a cache, queries are fingerprinted up front and grouped:
    ///
    /// * a group whose fingerprint is already resident serves every
    ///   member from the cache ([`BatchReport::n_cache_hits`]);
    /// * otherwise the lowest-index member is solved cold — with the same
    ///   seed an uncached batch would use, so representatives are
    ///   bit-identical to an uncached run — and the remaining members
    ///   reuse its entry ([`BatchReport::n_dedup_reuses`]);
    /// * a member that cannot be served from the entry (stale under its
    ///   own statistics) falls back to its own cold solve.
    pub fn solve_batch_with<F>(&self, queries: &[Query], on_result: F) -> BatchReport
    where
        F: Fn(usize, &Result<Optimized, OptError>, &ServedVia, bool) + Sync,
    {
        let started = Instant::now();

        // Validate (and, with a cache, fingerprint) everything up front
        // and group the valid queries. Invalid queries keep their error
        // and never reach the pool.
        let mut prints: Vec<Option<Fingerprinted>> = Vec::with_capacity(queries.len());
        let mut collected: Vec<(usize, Served)> = Vec::with_capacity(queries.len());
        let mut valid: Vec<usize> = Vec::with_capacity(queries.len());
        let supported = self.supported();
        for (i, q) in queries.iter().enumerate() {
            match supported.clone().and_then(|()| Ok(q.validate()?)) {
                Ok(()) => {
                    prints.push(self.cache.map(|(_, fpc)| fingerprint(q, &fpc)));
                    valid.push(i);
                }
                Err(e) => {
                    prints.push(None);
                    let served = self.failed(e);
                    on_result(i, &served.result, &served.via, served.reused);
                    collected.push((i, served));
                }
            }
        }
        // Groups in order of their lowest member, for a deterministic
        // pool order.
        let mut groups: Vec<Vec<usize>> = Vec::with_capacity(valid.len());
        let mut by_print: HashMap<&ljqo_cache::QueryFingerprint, usize> = HashMap::new();
        for i in valid {
            match &prints[i] {
                Some(fp) => {
                    let g = *by_print.entry(fp.fingerprint()).or_insert_with(|| {
                        groups.push(Vec::new());
                        groups.len() - 1
                    });
                    groups[g].push(i);
                }
                None => groups.push(vec![i]),
            }
        }

        let threads = if self.batch.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.batch.threads
        }
        .min(groups.len().max(1))
        .max(1);

        let next = AtomicUsize::new(0);
        let work = || {
            let mut out = Vec::new();
            while let Some(group) = groups.get(next.fetch_add(1, Ordering::Relaxed)) {
                self.serve_group(queries, &prints, group, &on_result, &mut out);
            }
            out
        };
        // The calling thread is one of the pool's workers, so a pool of
        // one spawns no thread.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
            collected.extend(work());
            for h in handles {
                collected.extend(h.join().expect("cold paths are panic-isolated internally"));
            }
        });
        collected.sort_by_key(|&(i, _)| i);

        let mut report = BatchReport {
            results: Vec::with_capacity(queries.len()),
            outcomes: Vec::with_capacity(queries.len()),
            n_failed: 0,
            n_degraded: 0,
            n_deadline_expired: 0,
            n_cold_solves: 0,
            n_cache_hits: 0,
            n_dedup_reuses: 0,
            units_used: 0,
            wall: Duration::ZERO,
        };
        for (_, served) in collected {
            match AnswerKind::of(&served.result, &served.via, served.reused) {
                AnswerKind::Cold => report.n_cold_solves += 1,
                AnswerKind::Hit => report.n_cache_hits += 1,
                AnswerKind::Dedup => report.n_dedup_reuses += 1,
                AnswerKind::Failed => report.n_failed += 1,
            }
            if let Ok(r) = &served.result {
                report.units_used += r.units_used;
                if r.degradation.is_degraded() {
                    report.n_degraded += 1;
                }
                if r.deadline_expired {
                    report.n_deadline_expired += 1;
                }
            }
            report.outcomes.push(served.via);
            report.results.push(served.result);
        }
        report.wall = started.elapsed();
        report
    }

    /// Serve one batch group: with a cache, at most one cold solve whose
    /// entry the other members reuse (or fall back to their own cold
    /// solve); without one, the group is a single query. Each answer
    /// goes to `on_result` as soon as it is produced.
    fn serve_group<F>(
        &self,
        queries: &[Query],
        prints: &[Option<Fingerprinted>],
        group: &[usize],
        on_result: &F,
        out: &mut Vec<(usize, Served)>,
    ) where
        F: Fn(usize, &Result<Optimized, OptError>, &ServedVia, bool),
    {
        let mut entry = None;
        for &i in group {
            let mut config = *self.config;
            config.seed = splitmix(self.config.seed ^ i as u64);
            if let Some(d) = self.batch.per_query_deadline {
                config.deadline = Some(Deadline::after(d));
            }
            let session = Optimizer {
                config: &config,
                ..*self
            };
            let served = session.serve(&queries[i], prints[i].as_ref(), &mut entry);
            on_result(i, &served.result, &served.via, served.reused);
            out.push((i, served));
        }
    }

    /// The cache step for one query. `group_entry` carries the group's
    /// entry between members: `None` on the first member, which then
    /// consults the shared cache.
    fn serve(
        &self,
        query: &Query,
        fp: Option<&Fingerprinted>,
        group_entry: &mut Option<GroupEntry>,
    ) -> Served {
        let config = self.config;
        let cached = self.cache.zip(fp).map(|((cache, _), fp)| (cache, fp));
        let mut outcome = CacheOutcome::Miss;
        if let Some((cache, fp)) = cached {
            let entry = group_entry.get_or_insert_with(|| GroupEntry {
                plan: cache.get(fp.fingerprint()),
                from_batch: false,
            });
            if let Some(plan) = &entry.plan {
                if let Some((result, hit)) = serve_from_entry(query, self.model, fp, plan) {
                    return Served {
                        result: Ok(result),
                        via: ServedVia {
                            outcome: hit,
                            producer: plan.producer,
                        },
                        reused: entry.from_batch,
                    };
                }
                // Stale for this query. Only evict the shared entry if it
                // came from the cache; a sibling-produced entry may still
                // fit other members.
                if !entry.from_batch {
                    cache.invalidate(fp.fingerprint());
                    entry.plan = None;
                    outcome = CacheOutcome::Stale;
                }
            }
        }
        let result = self.cold(query);
        let mut producer_name = config.method.name();
        if let Ok(r) = &result {
            producer_name = producer(r, config);
            if let Some((cache, fp)) = cached.filter(|_| cacheable(r)) {
                let plan = entry_for(fp, r, config);
                cache.insert(fp.fingerprint().clone(), plan.clone());
                if let Some(entry @ GroupEntry { plan: None, .. }) = group_entry {
                    *entry = GroupEntry {
                        plan: Some(plan),
                        from_batch: true,
                    };
                }
            }
        }
        Served {
            result,
            via: ServedVia {
                outcome,
                producer: producer_name,
            },
            reused: false,
        }
    }

    /// The one refusal: the worker pool shards the linear search loop
    /// (move filtering, the structural backstop), which the tree search
    /// does not run, so the bushy space rejects parallelism. Plans of
    /// either space cache and replay alike.
    fn supported(&self) -> Result<(), OptError> {
        match (self.config.space, self.parallelism) {
            (SearchSpace::Bushy, Some(_)) => Err(OptError::Unsupported {
                feature: "parallel search",
            }),
            _ => Ok(()),
        }
    }

    /// A query that failed before reaching the pool.
    fn failed(&self, error: OptError) -> Served {
        Served {
            result: Err(error),
            via: ServedVia {
                outcome: CacheOutcome::Miss,
                producer: self.config.method.name(),
            },
            reused: false,
        }
    }

    /// The cold solve: plan every component, then assemble. The query is
    /// compiled once; every component's search and the plan pricing walk
    /// that one snapshot.
    fn cold(&self, query: &Query) -> Result<Optimized, OptError> {
        query.validate()?;
        let components = query.graph().components();
        let budgets = component_budgets(
            self.config.budget_units(query.n_joins().max(1)),
            &components,
        );
        let compiled = Arc::new(CompiledQuery::new(query));
        let mut rng = SmallRng::seed_from_u64(self.config.seed);

        let mut trees = Vec::with_capacity(components.len());
        let mut total = ComponentOutcome::default();
        let mut winner_len = 0;
        for (idx, (comp, budget)) in components.iter().zip(budgets).enumerate() {
            let outcome = plan_component(self, query, &compiled, idx, comp, budget, &mut rng);
            total.units_used += outcome.units_used;
            total.n_evals += outcome.n_evals;
            total.degradation = total.degradation.max(outcome.degradation);
            total.deadline_expired |= outcome.deadline_expired;
            total.workers_failed += outcome.workers_failed;
            // The winner of the largest multi-method component.
            if outcome.winner.is_some() && comp.len() > winner_len {
                total.winner = outcome.winner;
                winner_len = comp.len();
            }
            let Some(best) = outcome.best else {
                return Err(OptError::NoValidPlan { component: idx });
            };
            trees.push(best);
        }

        Ok(Optimized {
            units_used: total.units_used,
            n_evals: total.n_evals,
            degradation: total.degradation,
            deadline_expired: total.deadline_expired,
            workers_failed: total.workers_failed,
            winner: total.winner,
            ..price_plan(
                query,
                &mut SizeWalker::with_compiled(compiled),
                self.model,
                trees,
            )
        })
    }
}

/// A batch group's shared cache entry.
struct GroupEntry {
    plan: Option<ljqo_cache::CachedPlan>,
    /// Whether the entry came from this group's own cold solve.
    from_batch: bool,
}

/// One query's answer, tagged with how it was produced.
struct Served {
    result: Result<Optimized, OptError>,
    via: ServedVia,
    /// Whether a hit reused an entry produced by this batch's own cold
    /// solve (a dedup reuse) rather than a pre-existing one.
    reused: bool,
}

/// A sequential, uncached solve: `Optimizer::new(model, config).solve(query)`
/// without the [`ServedVia`]. Kept only as a stable entry point for the
/// service benchmark under `perfbench/`; workspace code calls
/// [`Optimizer`] directly.
pub fn try_optimize(
    query: &Query,
    model: &dyn CostModel,
    config: &OptimizerConfig,
) -> Result<Optimized, OptError> {
    Optimizer::new(model, config).solve(query).map(|(r, _)| r)
}

/// A sequential solve behind `cache`:
/// `Optimizer::new(model, config).with_cache(cache, *fp_config).solve(query)`,
/// reporting only the [`CacheOutcome`]. Kept only as a stable entry point
/// for the service benchmark under `perfbench/`; workspace code calls
/// [`Optimizer`] directly.
pub fn optimize_cached(
    query: &Query,
    model: &dyn CostModel,
    config: &OptimizerConfig,
    cache: &PlanCache,
    fp_config: &FingerprintConfig,
) -> Result<(Optimized, CacheOutcome), OptError> {
    Optimizer::new(model, config)
        .with_cache(cache, *fp_config)
        .solve(query)
        .map(|(r, via)| (r, via.outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::Method;
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
        let r = Optimizer::new(&model, &OptimizerConfig::new(Method::Iai).with_seed(1))
            .solve(&q)
            .unwrap()
            .0;
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
        let (_, opt) = crate::dp::optimal_dp(&q, &comp, &model, SearchSpace::Linear)
            .unwrap()
            .unwrap();
        let r = Optimizer::new(&model, &OptimizerConfig::new(Method::Iai).with_seed(42))
            .solve(&q)
            .unwrap()
            .0;
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
        let r = Optimizer::new(&model, &OptimizerConfig::new(Method::Ii).with_seed(7))
            .solve(&q)
            .unwrap()
            .0;
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
        let a = Optimizer::new(&model, &cfg).solve(&q).unwrap().0;
        let b = Optimizer::new(&model, &cfg).solve(&q).unwrap().0;
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
            let r = Optimizer::new(&model, &cfg).solve(&q).unwrap().0;
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
        let without = Optimizer::new(&model, &OptimizerConfig::new(Method::Ii).with_seed(3))
            .solve(&q)
            .unwrap()
            .0;
        let with = Optimizer::new(
            &model,
            &OptimizerConfig::new(Method::Ii)
                .with_seed(3)
                .with_early_stop(5.0),
        )
        .solve(&q)
        .unwrap()
        .0;
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
        let a = Optimizer::new(&model, &cfg)
            .with_parallelism(&par)
            .solve(&q)
            .unwrap()
            .0;
        let b = Optimizer::new(&model, &cfg)
            .with_parallelism(&par)
            .solve(&q)
            .unwrap()
            .0;
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
        let r = Optimizer::new(&model, &cfg)
            .with_parallelism(&Parallelism::portfolio(4))
            .solve(&q)
            .unwrap()
            .0;
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
        let seq = Optimizer::new(&model, &cfg).solve(&q).unwrap().0;
        let par = Optimizer::new(&model, &cfg)
            .with_parallelism(&Parallelism::workers(4))
            .solve(&q)
            .unwrap()
            .0;
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
        let solo = Optimizer::new(&model, &cfg).solve_batch(&queries);
        let pooled = Optimizer::new(&model, &cfg)
            .with_batch(BatchOptions {
                threads: 4,
                per_query_deadline: None,
            })
            .solve_batch(&queries);
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
        let report = Optimizer::new(&model, &cfg).solve_batch(&queries);
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
    fn batch_with_a_cache_dedups_and_matches_the_uncached_pool() {
        // Three fingerprint classes, each repeated, on four threads: the
        // cached pool shares one cache across threads and must still
        // answer every representative exactly as the uncached pool does.
        let base = [
            connected_query(),
            disconnected_query(),
            batch_queries().remove(0),
        ];
        let queries: Vec<Query> = (0..9).map(|i| base[i % 3].clone()).collect();
        let model = MemoryCostModel::default();
        let cfg = OptimizerConfig::new(Method::Iai).with_seed(77);
        let options = BatchOptions {
            threads: 4,
            per_query_deadline: None,
        };
        let plain = Optimizer::new(&model, &cfg)
            .with_batch(options)
            .solve_batch(&queries);
        let cache = PlanCache::new(ljqo_cache::PlanCacheConfig::with_entries(16));
        let cached = Optimizer::new(&model, &cfg)
            .with_cache(&cache, FingerprintConfig::default())
            .with_batch(options);
        let first = cached.solve_batch(&queries);
        assert_eq!(first.n_failed, 0);
        assert_eq!(first.n_cold_solves, 3);
        assert_eq!(first.n_dedup_reuses, 6);
        for i in 0..3 {
            let (a, b) = (
                first.results[i].as_ref().unwrap(),
                plain.results[i].as_ref().unwrap(),
            );
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        }
        let second = cached.solve_batch(&queries);
        assert_eq!(second.n_cache_hits, queries.len());
        for (a, b) in first.results.iter().zip(&second.results) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        }
    }

    #[test]
    fn batch_hook_sees_every_answer_once_as_reported() {
        // The hook's arguments are the report's entries: same result,
        // same serving path, once per query, from a pool of three.
        let mut queries = batch_queries();
        queries.extend(batch_queries());
        let model = MemoryCostModel::default();
        let cfg = OptimizerConfig::new(Method::Iai).with_seed(77);
        let cache = PlanCache::new(ljqo_cache::PlanCacheConfig::with_entries(16));
        let seen = std::sync::Mutex::new(Vec::new());
        let report = Optimizer::new(&model, &cfg)
            .with_cache(&cache, FingerprintConfig::default())
            .with_batch(BatchOptions {
                threads: 3,
                per_query_deadline: None,
            })
            .solve_batch_with(&queries, |i, result, via, reused| {
                let cost = result.as_ref().unwrap().cost;
                seen.lock().unwrap().push((i, cost.to_bits(), *via, reused));
            });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|&(i, ..)| i);
        let indices: Vec<usize> = seen.iter().map(|&(i, ..)| i).collect();
        assert_eq!(indices, (0..queries.len()).collect::<Vec<_>>());
        let mut reuses = 0;
        for (i, cost, via, reused) in seen {
            let r = report.results[i].as_ref().unwrap();
            assert_eq!(cost, r.cost.to_bits(), "query {i}");
            assert_eq!(via, report.outcomes[i], "query {i}");
            reuses += usize::from(reused);
        }
        assert!(reuses >= 6, "every repeated query reuses its class's solve");
        assert_eq!(reuses, report.n_dedup_reuses);
    }

    #[test]
    fn bushy_space_refuses_parallelism_and_caches_its_trees() {
        let queries = batch_queries();
        let model = MemoryCostModel::default();
        let cfg = OptimizerConfig::new(Method::BushyIi)
            .with_seed(3)
            .with_space(SearchSpace::Bushy);
        let par = Parallelism::workers(2);
        let bushy = Optimizer::new(&model, &cfg);
        let parallel = bushy.with_parallelism(&par);
        let refusal = OptError::Unsupported {
            feature: "parallel search",
        };
        assert_eq!(parallel.solve(&queries[0]).unwrap_err(), refusal);
        let report = parallel.solve_batch(&queries);
        assert_eq!(report.n_failed, queries.len());
        for result in &report.results {
            assert_eq!(result.as_ref().unwrap_err(), &refusal);
        }

        // A cached bushy solve replays its trees at the cold cost's bits.
        let cache = PlanCache::new(ljqo_cache::PlanCacheConfig::with_entries(16));
        let cached = bushy.with_cache(&cache, FingerprintConfig::default());
        let (cold, via) = cached.solve(&queries[0]).unwrap();
        assert_eq!(via.outcome, CacheOutcome::Miss);
        let (warm, via) = cached.solve(&queries[0]).unwrap();
        assert_eq!(via.outcome, CacheOutcome::Hit);
        assert_eq!(warm.trees, cold.trees);
        assert_eq!(warm.cost.to_bits(), cold.cost.to_bits());
        let uncached = bushy.solve(&queries[0]).unwrap().0;
        assert_eq!(uncached.trees, cold.trees);
        assert_eq!(uncached.cost.to_bits(), cold.cost.to_bits());

        // The regret study replays the trees through a cache of its own.
        let sample = crate::regret_under(&queries[0], &queries[0], &bushy).unwrap();
        assert_eq!(sample.regret, 0.0);
        assert_eq!(sample.replay, CacheOutcome::Hit);
    }

    #[test]
    fn budget_scales_with_tau() {
        let q = connected_query();
        let model = MemoryCostModel::default();
        let small = Optimizer::new(
            &model,
            &OptimizerConfig::new(Method::Ii).with_time_limit(0.5),
        )
        .solve(&q)
        .unwrap()
        .0;
        let large = Optimizer::new(
            &model,
            &OptimizerConfig::new(Method::Ii).with_time_limit(9.0),
        )
        .solve(&q)
        .unwrap()
        .0;
        assert!(large.units_used > small.units_used);
        assert!(large.cost <= small.cost);
    }
}
