//! Process-lifetime serving counters.
//!
//! The batch drivers report their accounting per call: every
//! [`BatchReport`](crate::BatchReport) starts its `n_cold_solves` /
//! `n_cache_hits` / `n_dedup_reuses` tallies from zero. A long-running
//! service wants the other view — monotonic, process-lifetime totals
//! that several batch workers can feed concurrently and a `/stats`
//! endpoint can read at any moment without resetting anything.
//! [`ServingCounters`] is that view: a bag of atomics fed one answer at
//! a time by [`record`](ServingCounters::record), and a
//! [`snapshot`](ServingCounters::snapshot) side producing a
//! point-in-time copy. `record` classifies an answer with
//! the same classification the batch report's tallies use.
//!
//! Every counter is monotonically non-decreasing and reads are
//! reset-free, so two snapshots taken in order can be subtracted to get
//! an interval rate and a snapshot taken mid-traffic never undercounts
//! work that earlier snapshots already saw. An answer becomes visible
//! when it is recorded, so a service that records each answer before
//! it replies never shows a client its own request as missing.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::driver::Optimized;
use crate::error::{Degradation, OptError};
use crate::methods::Method;
use crate::optimizer::{AnswerKind, ServedVia};

/// Labels of the degradation rungs, in ladder order. Index with
/// [`rung_index`].
pub const DEGRADATION_LABELS: [&str; 4] = ["none", "heuristic", "card_free", "random_order"];

/// Index of a [`Degradation`] rung into [`DEGRADATION_LABELS`]-shaped
/// arrays.
pub fn rung_index(d: Degradation) -> usize {
    match d {
        Degradation::None => 0,
        Degradation::Heuristic => 1,
        Degradation::CardFree => 2,
        Degradation::RandomOrder => 3,
    }
}

/// Win-table slots: the paper's nine methods, then `CARDFREE`, then a
/// catch-all for producers no current method name matches (e.g. a cache
/// entry written by a newer binary).
const N_WIN_SLOTS: usize = Method::ALL.len() + 2;

/// Stable label for each win slot. Public so per-class win tables (the
/// server's `method_wins_by_class`) can stay aligned with the global
/// [`ServingSnapshot::method_wins`] table.
pub fn win_labels() -> [&'static str; N_WIN_SLOTS] {
    let mut labels = [""; N_WIN_SLOTS];
    for (i, m) in Method::ALL.into_iter().enumerate() {
        labels[i] = m.name();
    }
    labels[N_WIN_SLOTS - 2] = Method::Cardfree.name();
    labels[N_WIN_SLOTS - 1] = "other";
    labels
}

/// Index of a producer label into [`win_labels`]-shaped arrays.
pub fn win_slot(producer: &str) -> usize {
    match Method::parse(producer) {
        Some(Method::Cardfree) => N_WIN_SLOTS - 2,
        Some(m) => Method::ALL
            .into_iter()
            .position(|x| x == m)
            .unwrap_or(N_WIN_SLOTS - 1),
        None => N_WIN_SLOTS - 1,
    }
}

/// Monotonic, process-lifetime counters over batch serving — the shared
/// accumulator behind a server's `/stats` endpoint.
///
/// All methods take `&self`; share it across batch workers behind an
/// `Arc` (or a `static`). See the module docs for the monotonicity
/// contract.
#[derive(Debug, Default)]
pub struct ServingCounters {
    queries: AtomicU64,
    cold_solves: AtomicU64,
    cache_hits: AtomicU64,
    dedup_reuses: AtomicU64,
    failed: AtomicU64,
    degraded: AtomicU64,
    deadline_expired: AtomicU64,
    units_used: AtomicU64,
    degradation: [AtomicU64; 4],
    wins: [AtomicU64; N_WIN_SLOTS],
}

/// Point-in-time copy of [`ServingCounters`], for stats endpoints and
/// JSON output.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServingSnapshot {
    /// Queries answered.
    pub queries: u64,
    /// Queries answered by running the full combinatorial search.
    pub cold_solves: u64,
    /// Queries answered from a pre-existing plan-cache entry.
    pub cache_hits: u64,
    /// Queries answered by reusing a sibling's in-batch cold solve.
    pub dedup_reuses: u64,
    /// Queries that produced no plan at all.
    pub failed: u64,
    /// Queries whose plan came from a fallback rung.
    pub degraded: u64,
    /// Queries whose wall-clock deadline expired during the search.
    pub deadline_expired: u64,
    /// Total budget units consumed.
    pub units_used: u64,
    /// Per-rung degradation counts of successful queries, aligned with
    /// [`DEGRADATION_LABELS`] (index 0 counts undegraded plans).
    pub degradation: [u64; 4],
    /// Per-method win counts: how many served plans each method is
    /// credited with (cache entries remember their producer; cold solves
    /// credit the configured method). Stable order and length — every
    /// known method appears, zero or not, plus a final `"other"` slot.
    pub method_wins: Vec<(&'static str, u64)>,
}

impl ServingCounters {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one answer into the lifetime totals: the arguments of an
    /// [`Optimizer::solve_batch_with`](crate::Optimizer::solve_batch_with)
    /// hook. Safe to call concurrently from many workers.
    pub fn record(&self, result: &Result<Optimized, OptError>, via: &ServedVia, reused: bool) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let kind = match AnswerKind::of(result, via, reused) {
            AnswerKind::Cold => &self.cold_solves,
            AnswerKind::Hit => &self.cache_hits,
            AnswerKind::Dedup => &self.dedup_reuses,
            AnswerKind::Failed => &self.failed,
        };
        kind.fetch_add(1, Ordering::Relaxed);
        if let Ok(r) = result {
            self.units_used.fetch_add(r.units_used, Ordering::Relaxed);
            if r.degradation.is_degraded() {
                self.degraded.fetch_add(1, Ordering::Relaxed);
            }
            if r.deadline_expired {
                self.deadline_expired.fetch_add(1, Ordering::Relaxed);
            }
            self.degradation[rung_index(r.degradation)].fetch_add(1, Ordering::Relaxed);
            self.wins[win_slot(via.producer)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Reset-free point-in-time copy. Individual counters are loaded
    /// independently, so a snapshot racing a `record` may see part of
    /// that answer — but never less than any earlier snapshot saw.
    pub fn snapshot(&self) -> ServingSnapshot {
        let labels = win_labels();
        ServingSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            cold_solves: self.cold_solves.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            dedup_reuses: self.dedup_reuses.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            units_used: self.units_used.load(Ordering::Relaxed),
            degradation: std::array::from_fn(|i| self.degradation[i].load(Ordering::Relaxed)),
            method_wins: labels
                .into_iter()
                .zip(&self.wins)
                .map(|(name, w)| (name, w.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::OptimizerConfig;
    use crate::methods::Method;
    use crate::optimizer::{BatchOptions, BatchReport, Optimizer};
    use ljqo_cache::{FingerprintConfig, PlanCache, PlanCacheConfig};
    use ljqo_catalog::{Query, QueryBuilder};
    use ljqo_cost::MemoryCostModel;

    fn queries(n: u64) -> Vec<Query> {
        (0..n)
            .map(|i| {
                QueryBuilder::new()
                    .relation("a", 1000 + i * 13)
                    .relation("b", 40 + i)
                    .relation("c", 700)
                    .join("a", "b", 0.01)
                    .join("b", "c", 0.002)
                    .build()
                    .unwrap()
            })
            .collect()
    }

    /// One batch of `qs`, every answer recorded into `counters` from
    /// the hook.
    fn record_batch_of(opt: &Optimizer, qs: &[Query], counters: &ServingCounters) -> BatchReport {
        opt.solve_batch_with(qs, |_, result, via, reused| {
            counters.record(result, via, reused)
        })
    }

    #[test]
    fn record_accumulates_monotonically() {
        let qs = queries(4);
        let model = MemoryCostModel::default();
        let cfg = OptimizerConfig::new(Method::Iai).with_seed(3);
        let opt = Optimizer::new(&model, &cfg);
        let counters = ServingCounters::new();
        let report = record_batch_of(&opt, &qs, &counters);
        assert_eq!(report.outcomes.len(), report.results.len());

        let first = counters.snapshot();
        assert_eq!(first.queries, 4);
        assert_eq!(first.cold_solves, 4);
        assert_eq!(first.units_used, report.units_used);
        assert_eq!(first.degradation[0], 4, "no degradation expected");
        let iai = first
            .method_wins
            .iter()
            .find(|(n, _)| *n == "IAI")
            .unwrap()
            .1;
        assert_eq!(iai, 4);

        record_batch_of(&opt, &qs[..2], &counters);
        let second = counters.snapshot();
        assert_eq!(second.queries, 6);
        assert_eq!(second.cold_solves, 6);
        assert!(second.units_used >= first.units_used);
    }

    #[test]
    fn recorded_answers_match_the_batch_report_tallies() {
        // Duplicates on four threads: cold representatives and dedup
        // reuses in the first batch, cache hits in the second. Both
        // views classify through `AnswerKind::of`, so they must agree.
        let mut qs = queries(3);
        qs.extend(queries(3));
        let model = MemoryCostModel::default();
        let cfg = OptimizerConfig::new(Method::Iai).with_seed(5);
        let cache = PlanCache::new(PlanCacheConfig::with_entries(16));
        let opt = Optimizer::new(&model, &cfg)
            .with_cache(&cache, FingerprintConfig::default())
            .with_batch(BatchOptions {
                threads: 4,
                per_query_deadline: None,
            });
        let counters = ServingCounters::new();
        let mut want = ServingSnapshot::default();
        for _ in 0..2 {
            let r = record_batch_of(&opt, &qs, &counters);
            want.queries += r.results.len() as u64;
            want.cold_solves += r.n_cold_solves as u64;
            want.cache_hits += r.n_cache_hits as u64;
            want.dedup_reuses += r.n_dedup_reuses as u64;
            want.failed += r.n_failed as u64;
            want.degraded += r.n_degraded as u64;
            want.units_used += r.units_used;
        }
        let got = counters.snapshot();
        assert_eq!(got.queries, 12);
        assert!(got.cold_solves > 0 && got.cache_hits > 0 && got.dedup_reuses > 0);
        assert_eq!(
            (
                got.queries,
                got.cold_solves,
                got.cache_hits,
                got.dedup_reuses,
                got.failed,
                got.degraded,
                got.units_used
            ),
            (
                want.queries,
                want.cold_solves,
                want.cache_hits,
                want.dedup_reuses,
                want.failed,
                want.degraded,
                want.units_used
            )
        );
    }

    #[test]
    fn concurrent_records_never_undercount() {
        let qs = queries(3);
        let model = MemoryCostModel::default();
        let cfg = OptimizerConfig::new(Method::Ii).with_seed(9);
        let report = Optimizer::new(&model, &cfg).solve_batch(&qs);
        let counters = ServingCounters::new();
        let threads = 8;
        let batches_per_thread = 50;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for _ in 0..batches_per_thread {
                        for (result, via) in report.results.iter().zip(&report.outcomes) {
                            counters.record(result, via, false);
                        }
                    }
                });
            }
        });
        let s = counters.snapshot();
        let total = threads * batches_per_thread;
        assert_eq!(s.queries, total * 3);
        assert_eq!(s.cold_solves, total * 3);
        let wins: u64 = s.method_wins.iter().map(|(_, w)| w).sum();
        assert_eq!(wins, total * 3);
    }

    #[test]
    fn win_slots_are_stable_and_cover_every_method() {
        let labels = win_labels();
        assert_eq!(labels.len(), Method::ALL.len() + 2);
        for m in Method::ALL {
            assert_eq!(labels[win_slot(m.name())], m.name());
        }
        assert_eq!(labels[win_slot("CARDFREE")], "CARDFREE");
        assert_eq!(labels[win_slot("no-such-method")], "other");
    }
}
