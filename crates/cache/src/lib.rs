//! # ljqo-cache — plan-cache serving layer
//!
//! Production serving support for the LJQO optimizer: once the
//! combinatorial search (II / SA / IAI, see `ljqo-opt`) has paid the cold
//! cost of ordering a large join query, this crate lets every subsequent
//! structurally-equivalent query reuse that order instead of searching
//! again.
//!
//! Two pieces:
//!
//! * [`fingerprint()`](fn@fingerprint) — a canonical [`QueryFingerprint`] for a
//!   [`Query`](ljqo_catalog::Query), invariant under relation relabeling
//!   (canonical traversal seeded by Weisfeiler–Lehman color refinement)
//!   and deliberately coarse on statistics (log-scale bucketing via
//!   [`ljqo_catalog::quant`]), so "the same query shape with near-equal
//!   statistics" maps to one key. Next to it, [`classify`] buckets a
//!   query into a much coarser relabel-invariant [`QueryClass`] (graph
//!   shape, size, components, density) for per-class statistics.
//! * [`cache`] — a sharded LRU [`PlanCache`] from fingerprint to the
//!   winning join order (in canonical coordinates), its cost, and the
//!   producing method, with entry + byte capacity and atomic hit/miss
//!   counters.
//!
//! Driver integration (validity re-check against the live catalog, batch
//! dedup, fall-through to the cold path) lives in `ljqo-core`; this crate
//! stays dependency-light so anything that can see a catalog can share a
//! cache.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod fingerprint;

pub use cache::{CacheStats, CachedPlan, CachedSegment, PlanCache, PlanCacheConfig};
pub use fingerprint::{
    classify, fingerprint, FingerprintConfig, Fingerprinted, QueryClass, QueryFingerprint,
    ShapeClass,
};
