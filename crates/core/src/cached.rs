//! Serving from the plan cache.
//!
//! An [`Optimizer`](crate::Optimizer) with a
//! [`PlanCache`](ljqo_cache::PlanCache) consults it before paying the cold
//! combinatorial search, and its batch pool additionally dedupes
//! fingerprint-equal queries *within* a batch so each equivalence class
//! is solved at most once. This module holds the pieces of that step:
//! serving a query from an entry, and building the entry for a cold
//! result.
//!
//! # Safety of a warm hit
//!
//! A cached entry stores join orders in canonical coordinates plus the
//! costs they were found at. Serving from it never trusts the entry:
//!
//! 1. every segment is rehydrated through the *current* query's canonical
//!    mapping, with out-of-range indices rejected;
//! 2. the rehydrated segments must partition the query's relations
//!    exactly (no duplicates, no gaps) and each multi-relation segment
//!    must be a valid order of the live join graph;
//! 3. every segment is re-priced under the live catalog and cost model
//!    (panic-isolated).
//!
//! If the fresh prices agree with the stored ones
//! ([`ljqo_cost::costs_agree`]) the stored costs are kept, so the served
//! result is **bit-identical** to the cold solve that produced the entry
//! (plan assembly is a pure function of the `(order, cost)` pairs). If
//! they differ materially — the same fingerprint covering a
//! within-bucket-different query, or catalog statistics drifting under a
//! resident entry — the plan structure is reused at freshly computed
//! costs ([`CacheOutcome::HitRecosted`]). Entries that fail any check are
//! invalidated and the query falls through to the cold path
//! ([`CacheOutcome::Stale`]), so a poisoned cache can cost latency but
//! never correctness.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ljqo_cache::{CachedPlan, CachedSegment, Fingerprinted};
use ljqo_catalog::Query;
use ljqo_cost::{costs_agree, sanitize_cost, CostModel, OrderCost};
use ljqo_plan::validity::is_valid;
use ljqo_plan::JoinOrder;

use crate::driver::{assemble_plan, Optimized, OptimizerConfig};
use crate::error::Degradation;

/// How a cached [`Optimizer`](crate::Optimizer) answered a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache; fresh per-segment prices agreed with the
    /// stored ones, so the result is bit-identical to the cold solve that
    /// produced the entry.
    Hit,
    /// Served from the cache structurally, but re-priced: the entry's
    /// stored costs disagreed with the live catalog (within-bucket
    /// statistics drift), so the returned cost is freshly computed.
    HitRecosted,
    /// A resident entry failed validity re-checks against the live
    /// catalog; it was invalidated and the query was solved cold.
    Stale,
    /// No resident entry (or no cache at all); the query was solved cold.
    Miss,
}

impl CacheOutcome {
    /// Whether the plan structure came from the cache.
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit | CacheOutcome::HitRecosted)
    }

    /// Stable lower-case name, for JSON output and logs.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::HitRecosted => "hit_recosted",
            CacheOutcome::Stale => "stale",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// Try to serve `query` from `entry`. `None` means the entry failed a
/// validity re-check (structurally foreign or unpriceable under the live
/// catalog) and must be treated as stale.
pub(crate) fn serve_from_entry(
    query: &Query,
    model: &dyn CostModel,
    fp: &Fingerprinted,
    entry: &CachedPlan,
) -> Option<(Optimized, CacheOutcome)> {
    if entry.segments.is_empty() {
        return None;
    }
    let n = query.n_relations();
    let mut seen = vec![false; n];
    let mut orders: Vec<Vec<ljqo_catalog::RelId>> = Vec::with_capacity(entry.segments.len());
    for seg in &entry.segments {
        let order = fp.rehydrate_order(&seg.canon_order)?;
        for r in &order {
            if std::mem::replace(&mut seen[r.index()], true) {
                return None; // duplicate relation across/within segments
            }
        }
        if order.len() > 1 && !is_valid(query.graph(), &order) {
            return None;
        }
        orders.push(order);
    }
    if !seen.iter().all(|&s| s) {
        return None; // entry does not cover every relation
    }

    // Re-price every segment under the live catalog; a model fault or a
    // saturated price marks the entry stale rather than serving garbage.
    let mut agree = true;
    let mut segments: Vec<(JoinOrder, f64)> = Vec::with_capacity(orders.len());
    for (order, seg) in orders.into_iter().zip(&entry.segments) {
        let fresh = catch_unwind(AssertUnwindSafe(|| {
            sanitize_cost(model.order_cost(query, &order))
        }))
        .ok()?;
        if !fresh.is_finite() || fresh == f64::MAX {
            return None;
        }
        agree &= costs_agree(fresh, seg.cost);
        segments.push((JoinOrder::new(order), fresh));
    }
    let outcome = if agree {
        // Keep the stored prices: assembly is deterministic in the
        // `(order, cost)` pairs, so the total is bit-identical to the
        // cold solve that produced this entry.
        for (s, seg) in segments.iter_mut().zip(&entry.segments) {
            s.1 = seg.cost;
        }
        CacheOutcome::Hit
    } else {
        CacheOutcome::HitRecosted
    };

    let n_segments = segments.len() as u64;
    let (plan, total_cost, segment_costs) = assemble_plan(query, model, segments);
    if !total_cost.is_finite() || total_cost == f64::MAX {
        return None;
    }
    Some((
        Optimized {
            plan,
            cost: total_cost,
            segment_costs,
            units_used: n_segments,
            n_evals: n_segments,
            degradation: Degradation::None,
            deadline_expired: false,
            workers_failed: 0,
            winner: None,
        },
        outcome,
    ))
}

/// Build the cache entry for a cold result, in canonical coordinates.
/// The producer credit prefers the portfolio winner when the cold path
/// was a multi-method parallel run; sequential solves credit the
/// configured method as before.
pub(crate) fn entry_for(
    fp: &Fingerprinted,
    result: &Optimized,
    config: &OptimizerConfig,
) -> CachedPlan {
    CachedPlan {
        segments: result
            .plan
            .segments
            .iter()
            .zip(&result.segment_costs)
            .map(|(order, &cost)| CachedSegment {
                canon_order: fp.canonize_order(order.rels()),
                cost,
            })
            .collect(),
        total_cost: result.cost,
        producer: producer(result, config),
    }
}

/// The method credited with a cold result: the portfolio winner, or else
/// the configured method.
pub(crate) fn producer(result: &Optimized, config: &OptimizerConfig) -> &'static str {
    result.winner.map_or(config.method.name(), |m| m.name())
}

/// Whether a cold result is worth caching: only full-quality plans are
/// stored, so a degraded or deadline-truncated answer can never be
/// replayed to future queries.
pub(crate) fn cacheable(result: &Optimized) -> bool {
    !result.degradation.is_degraded() && !result.deadline_expired && result.cost.is_finite()
}
