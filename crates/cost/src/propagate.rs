//! Distinct-value propagation — a refined cardinality estimator.
//!
//! The paper's estimator (and [`crate::estimate`]) applies each join
//! predicate's *static* selectivity. That ignores how earlier joins
//! change the distinct-value counts of join columns: once `R.x` has been
//! equi-joined with `S.x`, the surviving `R` rows carry at most
//! `min(D_R.x, D_S.x)` distinct `x` values, and unrelated columns lose
//! distinct values whenever rows are filtered. This module propagates
//! those counts through a left-deep walk:
//!
//! * an equi-join on columns with `D_a`/`D_b` distinct values keeps
//!   `min(D_a, D_b)` on both sides and selects with
//!   `1 / max(D_a, D_b)` — using the *current* (propagated) counts
//!   rather than the base-table ones;
//! * when a step reduces the row count from `R` to `r`, every other
//!   column's distinct count shrinks by Yao's approximation
//!   `D' = D·(1 − (1 − 1/D)^r)` capped at `r`; row multiplication never
//!   increases a distinct count.
//!
//! The paper mentions exactly this effect when explaining why criterion
//! 3 wins Table 1: it "tends to maximize the number of distinct values
//! in the intermediate results". The `ext_estimator` bench and the
//! integration tests compare this estimator against the static one on
//! executed ground truth.

use ljqo_catalog::{EdgeId, Query, RelId};

use crate::estimate::{clamp_card, JoinStep};
use crate::model::{CostModel, JoinCtx};

/// Yao's approximation: expected distinct values in a column of `d`
/// distinct values after sampling `rows` of its rows (uniformly).
#[inline]
fn yao(d: f64, rows: f64) -> f64 {
    if d <= 1.0 {
        return 1.0;
    }
    // d·(1 − (1 − 1/d)^rows), computed stably via ln1p.
    let log_keep = rows * (-1.0 / d).ln_1p();
    (d * (1.0 - log_keep.exp())).clamp(1.0, d)
}

/// The distinct-value bookkeeping of a partially built left-deep prefix.
///
/// This is the *state* half of [`PropagatingWalker`], split out so that
/// incremental evaluators can snapshot it per prefix position (it is
/// `Clone`) and resume a walk from the middle of an order. All mutation
/// happens through [`DistinctState::admit_first`] and
/// [`DistinctState::place`], which replay exactly the operations the
/// consuming walker performs, so a resumed walk is bit-identical to a
/// fresh one.
#[derive(Debug, Clone)]
pub struct DistinctState {
    /// Current distinct estimate per (edge, side-relation) column of the
    /// running intermediate; keyed densely by edge id with one slot per
    /// side. NaN = column not present yet.
    distinct: Vec<[f64; 2]>,
    placed: Vec<bool>,
    /// Flat indices (`2·edge + side`) of the present (non-NaN) columns, in
    /// admission order. Lets [`DistinctState::shrink_all`] touch only the
    /// columns that exist — O(present) per join step instead of O(E) —
    /// which is what makes a propagated walk O(N + Σ placed-columns)
    /// rather than O(N·E). Yao shrinkage is applied to each slot
    /// independently, so the iteration order does not affect the values
    /// and the sparse scan is bit-identical to a dense one (see
    /// [`DenseDistinctState`], the differential reference).
    ///
    /// A column enters the set exactly once (a relation is admitted at
    /// most once per walk, and [`DistinctState::place`]'s domain merge
    /// never turns a NaN slot finite), so no dedup pass is needed.
    present: Vec<u32>,
}

impl DistinctState {
    /// Empty state for `query`: nothing placed, no columns present.
    ///
    /// The present-set vector is allocated at its worst-case capacity
    /// (two columns per edge) up front, so the state never reallocates —
    /// a prerequisite for the allocation-free steady state of
    /// [`crate::IncrementalEvaluator`].
    pub fn new(query: &Query) -> Self {
        let n_edges = query.graph().edges().len();
        DistinctState {
            distinct: vec![[f64::NAN; 2]; n_edges],
            placed: vec![false; query.n_relations()],
            present: Vec::with_capacity(2 * n_edges),
        }
    }

    fn side(query: &Query, eid: EdgeId, rel: RelId) -> usize {
        usize::from(query.graph().edge(eid).b == rel)
    }

    /// Import the base distinct counts of every column of `rel`.
    fn admit(&mut self, query: &Query, rel: RelId) {
        for &eid in query.graph().incident(rel) {
            let side = Self::side(query, eid, rel);
            debug_assert!(
                self.distinct[eid.index()][side].is_nan(),
                "column admitted twice"
            );
            self.distinct[eid.index()][side] =
                query.graph().edge(eid).distinct_on(rel).unwrap_or(1.0);
            self.present.push((2 * eid.index() + side) as u32);
        }
        self.placed[rel.index()] = true;
    }

    /// Shrink every present column after a row-count change to `rows`.
    fn shrink_all(&mut self, rows: f64) {
        for &slot in &self.present {
            let d = &mut self.distinct[(slot >> 1) as usize][(slot & 1) as usize];
            debug_assert!(!d.is_nan());
            *d = yao(*d, rows).min(*d);
        }
    }

    /// Return to the empty state (nothing placed, no columns present)
    /// without releasing any allocation. O(present + N).
    pub fn reset(&mut self) {
        for &slot in &self.present {
            self.distinct[(slot >> 1) as usize][(slot & 1) as usize] = f64::NAN;
        }
        self.present.clear();
        self.placed.fill(false);
    }

    /// Overwrite this state with `src`, reusing the existing allocations
    /// (the allocation-free counterpart of `*self = src.clone()`, used by
    /// the incremental evaluator to resume walks from memoized
    /// snapshots). Both states must describe the same query.
    pub fn copy_from(&mut self, src: &DistinctState) {
        self.distinct.clone_from(&src.distinct);
        self.placed.clone_from(&src.placed);
        self.present.clone_from(&src.present);
    }

    /// The current distinct estimate of the given column (`NaN` when the
    /// column is not present yet). For differential tests against the
    /// dense reference.
    #[inline]
    pub fn distinct(&self, eid: EdgeId, side: usize) -> f64 {
        self.distinct[eid.index()][side]
    }

    /// Place the leading relation of an order (no join happens).
    pub fn admit_first(&mut self, query: &Query, rel: RelId) {
        self.admit(query, rel);
    }

    /// Combined selectivity of joining `inner` against the placed set,
    /// using the *current* (propagated) distinct counts. `None` means no
    /// edge connects `inner` to the placed set (cross product). Appends
    /// the contributing edges with their distinct counts to `joined` for
    /// a subsequent [`DistinctState::place`].
    pub fn join_selectivity(
        &self,
        query: &Query,
        inner: RelId,
        joined: &mut Vec<(EdgeId, f64, f64)>,
    ) -> Option<f64> {
        let mut sel: Option<f64> = None;
        for &eid in query.graph().incident(inner) {
            let e = query.graph().edge(eid);
            let Some(other) = e.other(inner) else {
                continue;
            };
            if !self.placed[other.index()] {
                continue;
            }
            let outer_side = Self::side(query, eid, other);
            let d_outer = self.distinct[eid.index()][outer_side];
            let d_inner = e.distinct_on(inner).unwrap_or(1.0);
            let s = 1.0 / d_outer.max(d_inner).max(1.0);
            *sel.get_or_insert(1.0) *= s;
            joined.push((eid, d_outer, d_inner));
        }
        sel
    }

    /// Fold `inner` into the placed set after its join produced `output`
    /// rows: admit its columns, intersect the equi-joined domains listed
    /// in `joined` (as returned by [`DistinctState::join_selectivity`]),
    /// and shrink every present column to the new row count.
    pub fn place(
        &mut self,
        query: &Query,
        inner: RelId,
        output: f64,
        joined: &[(EdgeId, f64, f64)],
    ) {
        self.admit(query, inner);
        for &(eid, d_outer, d_inner) in joined {
            // Equi-join intersects the two domains.
            let merged = d_outer.min(d_inner);
            self.distinct[eid.index()] = [
                non_nan_min(self.distinct[eid.index()][0], merged),
                non_nan_min(self.distinct[eid.index()][1], merged),
            ];
        }
        self.shrink_all(output);
    }
}

/// Left-deep size estimation with distinct-value propagation.
///
/// Mirrors [`crate::estimate::SizeWalker`]'s interface: `walk` invokes a
/// callback per join step and returns the final cardinality. The
/// underlying bookkeeping lives in [`DistinctState`], which incremental
/// evaluators snapshot per prefix instead of re-walking from scratch.
#[derive(Debug)]
pub struct PropagatingWalker {
    state: DistinctState,
    /// Scratch for the per-step contributing-edge list, reused across
    /// walks so a warm walker performs no heap allocation.
    joined_edges: Vec<(EdgeId, f64, f64)>,
}

impl PropagatingWalker {
    /// Create a walker for `query`.
    pub fn new(query: &Query) -> Self {
        PropagatingWalker {
            state: DistinctState::new(query),
            joined_edges: Vec::new(),
        }
    }

    /// Walk `order`, calling `f` per join step; returns the final
    /// cardinality. The walker resets itself first, so one walker can be
    /// reused across walks (allocation-free once its scratch is warm).
    pub fn walk<F: FnMut(&JoinStep)>(&mut self, query: &Query, order: &[RelId], mut f: F) -> f64 {
        self.state.reset();
        let mut iter = order.iter();
        let Some(&first) = iter.next() else {
            return 0.0;
        };
        self.state.admit_first(query, first);
        let mut card = clamp_card(query.cardinality(first));

        for &inner in iter {
            let inner_card = query.cardinality(inner);
            // Gather the edges joining `inner` to the placed set, with the
            // CURRENT outer-side distinct counts.
            self.joined_edges.clear();
            let sel = self
                .state
                .join_selectivity(query, inner, &mut self.joined_edges);
            let output = clamp_card(card * inner_card * sel.unwrap_or(1.0));
            f(&JoinStep {
                inner,
                outer_card: card,
                inner_card,
                output_card: output,
                is_cross_product: sel.is_none(),
            });

            // Admit the inner's columns, then update distinct counts.
            self.state.place(query, inner, output, &self.joined_edges);
            card = output;
        }
        card
    }
}

#[inline]
fn non_nan_min(current: f64, merged: f64) -> f64 {
    if current.is_nan() {
        current
    } else {
        current.min(merged)
    }
}

/// Total cost of `order` under `model` using the *propagated* estimator
/// (counterpart of [`crate::OrderCost::order_cost`], which uses the static
/// one). This is the full-walk reference that
/// [`crate::incremental::IncrementalEvaluator`] in propagated mode must
/// agree with bit-for-bit.
pub fn order_cost_propagated(query: &Query, model: &dyn CostModel, order: &[RelId]) -> f64 {
    let mut total = 0.0f64;
    let mut outer_rels = 1usize;
    PropagatingWalker::new(query).walk(query, order, |s| {
        total += model.join_cost(&JoinCtx {
            outer_card: s.outer_card,
            inner_card: s.inner_card,
            output_card: s.output_card,
            outer_rels,
            is_cross_product: s.is_cross_product,
        });
        outer_rels += 1;
    });
    total.min(f64::MAX)
}

/// Estimated intermediate sizes with distinct propagation (counterpart of
/// [`crate::estimate::intermediate_sizes`]).
pub fn intermediate_sizes_propagated(query: &Query, order: &[RelId]) -> Vec<f64> {
    let mut sizes = Vec::with_capacity(order.len().saturating_sub(1));
    PropagatingWalker::new(query).walk(query, order, |s| sizes.push(s.output_card));
    sizes
}

/// Dense reference implementation of [`DistinctState`]'s bookkeeping.
///
/// [`DistinctState`] tracks the set of present columns explicitly so its
/// per-step Yao shrinkage is O(present); this type keeps the original
/// "scan every slot, skip NaN" formulation. Because Yao shrinkage is
/// applied per slot with no cross-slot interaction, the two must agree
/// **bit for bit** after any identical operation sequence — the
/// `compiled_props` differential suite replays random walks through both
/// and asserts exactly that. Not used by any optimizer path.
#[derive(Debug, Clone)]
pub struct DenseDistinctState {
    distinct: Vec<[f64; 2]>,
    placed: Vec<bool>,
}

impl DenseDistinctState {
    /// Empty state for `query`: nothing placed, no columns present.
    pub fn new(query: &Query) -> Self {
        DenseDistinctState {
            distinct: vec![[f64::NAN; 2]; query.graph().edges().len()],
            placed: vec![false; query.n_relations()],
        }
    }

    fn admit(&mut self, query: &Query, rel: RelId) {
        for &eid in query.graph().incident(rel) {
            let side = DistinctState::side(query, eid, rel);
            self.distinct[eid.index()][side] =
                query.graph().edge(eid).distinct_on(rel).unwrap_or(1.0);
        }
        self.placed[rel.index()] = true;
    }

    fn shrink_all(&mut self, rows: f64) {
        for slots in &mut self.distinct {
            for d in slots {
                if !d.is_nan() {
                    *d = yao(*d, rows).min(*d);
                }
            }
        }
    }

    /// As [`DistinctState::admit_first`].
    pub fn admit_first(&mut self, query: &Query, rel: RelId) {
        self.admit(query, rel);
    }

    /// As [`DistinctState::join_selectivity`].
    pub fn join_selectivity(
        &self,
        query: &Query,
        inner: RelId,
        joined: &mut Vec<(EdgeId, f64, f64)>,
    ) -> Option<f64> {
        let mut sel: Option<f64> = None;
        for &eid in query.graph().incident(inner) {
            let e = query.graph().edge(eid);
            let Some(other) = e.other(inner) else {
                continue;
            };
            if !self.placed[other.index()] {
                continue;
            }
            let outer_side = DistinctState::side(query, eid, other);
            let d_outer = self.distinct[eid.index()][outer_side];
            let d_inner = e.distinct_on(inner).unwrap_or(1.0);
            let s = 1.0 / d_outer.max(d_inner).max(1.0);
            *sel.get_or_insert(1.0) *= s;
            joined.push((eid, d_outer, d_inner));
        }
        sel
    }

    /// As [`DistinctState::place`].
    pub fn place(
        &mut self,
        query: &Query,
        inner: RelId,
        output: f64,
        joined: &[(EdgeId, f64, f64)],
    ) {
        self.admit(query, inner);
        for &(eid, d_outer, d_inner) in joined {
            let merged = d_outer.min(d_inner);
            self.distinct[eid.index()] = [
                non_nan_min(self.distinct[eid.index()][0], merged),
                non_nan_min(self.distinct[eid.index()][1], merged),
            ];
        }
        self.shrink_all(output);
    }

    /// As [`DistinctState::distinct`] (`NaN` = column not present).
    #[inline]
    pub fn distinct(&self, eid: EdgeId, side: usize) -> f64 {
        self.distinct[eid.index()][side]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::intermediate_sizes;
    use ljqo_catalog::QueryBuilder;

    fn ids(v: &[u32]) -> Vec<RelId> {
        v.iter().map(|&i| RelId(i)).collect()
    }

    #[test]
    fn yao_limits() {
        assert_eq!(yao(1.0, 100.0), 1.0);
        // Sampling far more rows than distincts keeps all distincts.
        assert!((yao(10.0, 10_000.0) - 10.0).abs() < 1e-9);
        // Sampling one row keeps about one distinct.
        assert!((yao(1000.0, 1.0) - 1.0).abs() < 0.01);
        // Monotone in rows.
        assert!(yao(100.0, 50.0) < yao(100.0, 200.0));
    }

    #[test]
    fn matches_static_estimator_on_simple_chains() {
        // On an acyclic chain where each join column is used once, the
        // propagated estimate of each *next* join equals the static one
        // as long as no prior step reduced the relevant distinct counts.
        let q = QueryBuilder::new()
            .relation("a", 1000)
            .relation("b", 1000)
            .relation("c", 1000)
            .join_on_distincts("a", "b", 1000.0, 1000.0)
            .join_on_distincts("b", "c", 1000.0, 1000.0)
            .build()
            .unwrap();
        let order = ids(&[0, 1, 2]);
        let s = intermediate_sizes(&q, &order);
        let p = intermediate_sizes_propagated(&q, &order);
        // |a⋈b| = 1000 under both.
        assert!((s[0] - p[0]).abs() < 1e-9);
        // With 1000 rows over 1000 distincts in b.c's column, Yao keeps
        // ~632 distinct values, so the propagated second join is LESS
        // selective (1/1000) only via max(d_inner)=1000 -> same here.
        assert!((p[1] - s[1]).abs() / s[1] < 0.01);
    }

    #[test]
    fn repeated_join_columns_lose_selectivity() {
        // Two relations both joining a hub on the SAME hub column
        // (modeled as two edges with the hub side sharing distincts):
        // after the first join shrinks the hub's rows, the second join
        // against a now-smaller column domain must be estimated as less
        // selective per row than the static model claims.
        let q = QueryBuilder::new()
            .relation("hub", 10_000)
            .relation("d1", 100)
            .relation("d2", 100)
            .join_on_distincts("hub", "d1", 10_000.0, 100.0)
            .join_on_distincts("hub", "d2", 10_000.0, 100.0)
            .build()
            .unwrap();
        let order = ids(&[0, 1, 2]);
        let s = intermediate_sizes(&q, &order);
        let p = intermediate_sizes_propagated(&q, &order);
        assert!((s[0] - p[0]).abs() < 1e-9, "first join identical");
        // Static second join: 1/max(10000,100) = 1e-4.
        // Propagated: hub⋈d1 has 100 rows; the hub-d2 column's distincts
        // shrink via Yao(10000, 100) ≈ 99.5 -> sel ≈ 1/100: ~100x larger
        // estimate.
        assert!(
            p[1] > s[1] * 20.0,
            "propagated {} should far exceed static {}",
            p[1],
            s[1]
        );
    }

    #[test]
    fn cross_products_still_detected() {
        let q = QueryBuilder::new()
            .relation("a", 10)
            .relation("b", 20)
            .relation("c", 30)
            .join("a", "b", 0.1)
            .build()
            .unwrap();
        let mut steps = Vec::new();
        PropagatingWalker::new(&q).walk(&q, &ids(&[0, 1, 2]), |s| steps.push(*s));
        assert!(!steps[0].is_cross_product);
        assert!(steps[1].is_cross_product);
    }

    #[test]
    fn final_sizes_stay_positive_and_finite() {
        let q = QueryBuilder::new()
            .relation("a", 100_000)
            .relation("b", 50_000)
            .relation("c", 200)
            .relation("d", 9)
            .join_on_distincts("a", "b", 40_000.0, 30_000.0)
            .join_on_distincts("b", "c", 150.0, 180.0)
            .join_on_distincts("c", "d", 9.0, 9.0)
            .join_on_distincts("a", "d", 9.0, 9.0)
            .build()
            .unwrap();
        for order in [ids(&[0, 1, 2, 3]), ids(&[3, 2, 1, 0]), ids(&[2, 1, 0, 3])] {
            let p = intermediate_sizes_propagated(&q, &order);
            assert!(p.iter().all(|v| v.is_finite() && *v > 0.0), "{order:?}");
        }
    }
}
