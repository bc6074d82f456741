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
//! A cached entry stores each segment tree as its leaf order in
//! canonical coordinates and its shape (the post-order join list over
//! leaf positions, which names no relation), plus the plan's total cost.
//! Serving from it never trusts the entry:
//!
//! 1. every segment's leaves are rehydrated through the *current*
//!    query's canonical mapping, with out-of-range indices rejected, and
//!    its shape must describe one tree over them;
//! 2. the rehydrated segments must partition the query's relations
//!    exactly (no duplicates, no gaps) and each segment must be
//!    cross-product free in the live join graph (for an outer linear
//!    tree: a valid order);
//! 3. the trees are priced under the live catalog and cost model by
//!    `price_plan`, the pricer the cold path shipped its cost from
//!    (panic-isolated); a segment or plan it cannot price makes the
//!    entry stale.
//!
//! The price is what the hit serves. The cold path shipped the price of
//! the same trees, so on the query that produced the entry the served
//! result is **bit-identical** to that cold solve. When the price
//! disagrees with the entry's total ([`ljqo_cost::costs_agree`]) — the
//! same fingerprint covering a within-bucket-different query, or catalog
//! statistics drifting under a resident entry — the hit is reported as
//! [`CacheOutcome::HitRecosted`]. Entries that fail any check are
//! invalidated and the query falls through to the cold path
//! ([`CacheOutcome::Stale`]), so a poisoned cache can cost latency but
//! never correctness.

use ljqo_cache::{CachedPlan, CachedSegment, Fingerprinted};
use ljqo_catalog::{BlockMask, Query};
use ljqo_cost::estimate::SizeWalker;
use ljqo_cost::{costs_agree, CostModel};
use ljqo_plan::BushyTree;

use crate::driver::{price_plan, Optimized, OptimizerConfig};

/// How a cached [`Optimizer`](crate::Optimizer) answered a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache; the plan's price agreed with the entry's
    /// total, so the result is bit-identical to the cold solve that
    /// produced the entry.
    Hit,
    /// Served from the cache, but the plan's price under the live catalog
    /// disagreed with the entry's total (within-bucket statistics
    /// drift).
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
    let graph = query.graph();
    let mut seen = vec![false; n];
    let mut trees = Vec::with_capacity(entry.segments.len());
    for seg in &entry.segments {
        let leaves = fp.rehydrate_order(&seg.canon_order)?;
        for r in &leaves {
            if std::mem::replace(&mut seen[r.index()], true) {
                return None; // duplicate relation across/within segments
            }
        }
        let tree = BushyTree::from_shape(leaves, seg.shape.clone())?;
        // Bushy trees exist only within the search arena's capacity.
        let priceable = tree.is_linear() || n <= BlockMask::CAPACITY;
        if !priceable || !tree.is_cross_product_free(graph) {
            return None;
        }
        trees.push(tree);
    }
    if !seen.iter().all(|&s| s) {
        return None; // entry does not cover every relation
    }

    // A model fault or a saturated price marks the entry stale rather
    // than serving garbage.
    let n_segments = trees.len() as u64;
    let served = price_plan(query, &mut SizeWalker::new(query), model, trees);
    if !served.cost.is_finite() || served.cost == f64::MAX {
        return None;
    }
    let outcome = if costs_agree(served.cost, entry.total_cost) {
        CacheOutcome::Hit
    } else {
        CacheOutcome::HitRecosted
    };
    Some((
        Optimized {
            units_used: n_segments,
            n_evals: n_segments,
            ..served
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
            .trees
            .iter()
            .map(|tree| CachedSegment {
                canon_order: fp.canonize_order(tree.leaves()),
                shape: tree.shape().to_vec(),
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
