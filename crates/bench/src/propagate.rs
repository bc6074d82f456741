//! Distinct-value propagation — a refined cardinality estimator.
//!
//! The paper's estimator (and [`ljqo_cost::estimate`]) applies each join
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
//! in the intermediate results". The `ext_estimator` binary compares this
//! estimator against the static one on executed ground truth. It is
//! experiment code: no search method prices moves with it.

use ljqo_catalog::{EdgeId, Query, RelId};
use ljqo_cost::estimate::clamp_card;
use ljqo_cost::JoinCtx;

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

/// Left-deep size estimation with distinct-value propagation.
///
/// Mirrors [`ljqo_cost::estimate::SizeWalker`]'s interface: `walk`
/// invokes a callback per join step and returns the final cardinality.
#[derive(Debug)]
pub struct PropagatingWalker {
    /// Current distinct estimate per (edge, side-relation) column of the
    /// running intermediate; keyed densely by edge id with one slot per
    /// side. NaN = column not present yet.
    distinct: Vec<[f64; 2]>,
    placed: Vec<bool>,
    /// The edges joining the current inner relation to the placed set,
    /// with their outer and inner distinct counts; reused across steps
    /// and walks.
    joined_edges: Vec<(EdgeId, f64, f64)>,
}

impl PropagatingWalker {
    /// Create a walker for `query`.
    pub fn new(query: &Query) -> Self {
        PropagatingWalker {
            distinct: vec![[f64::NAN; 2]; query.graph().edges().len()],
            placed: vec![false; query.n_relations()],
            joined_edges: Vec::new(),
        }
    }

    fn side(query: &Query, eid: EdgeId, rel: RelId) -> usize {
        usize::from(query.graph().edge(eid).b == rel)
    }

    /// Import the base distinct counts of every column of `rel`.
    fn admit(&mut self, query: &Query, rel: RelId) {
        for &eid in query.graph().incident(rel) {
            let side = Self::side(query, eid, rel);
            self.distinct[eid.index()][side] =
                query.graph().edge(eid).distinct_on(rel).unwrap_or(1.0);
        }
        self.placed[rel.index()] = true;
    }

    /// Combined selectivity of joining `inner` against the placed set,
    /// using the *current* (propagated) distinct counts. `None` means no
    /// edge connects `inner` to the placed set (cross product). Records
    /// the contributing edges in `joined_edges` for [`Self::place`].
    fn join_selectivity(&mut self, query: &Query, inner: RelId) -> Option<f64> {
        self.joined_edges.clear();
        let mut sel: Option<f64> = None;
        for &eid in query.graph().incident(inner) {
            let e = query.graph().edge(eid);
            let Some(other) = e.other(inner) else {
                continue;
            };
            if !self.placed[other.index()] {
                continue;
            }
            let d_outer = self.distinct[eid.index()][Self::side(query, eid, other)];
            let d_inner = e.distinct_on(inner).unwrap_or(1.0);
            let s = 1.0 / d_outer.max(d_inner).max(1.0);
            *sel.get_or_insert(1.0) *= s;
            self.joined_edges.push((eid, d_outer, d_inner));
        }
        sel
    }

    /// Fold `inner` into the placed set after its join produced `output`
    /// rows: admit its columns, intersect the equi-joined domains, and
    /// shrink every present column to the new row count (Yao shrinkage is
    /// per column, so the scan order does not affect the values).
    fn place(&mut self, query: &Query, inner: RelId, output: f64) {
        self.admit(query, inner);
        for &(eid, d_outer, d_inner) in &self.joined_edges {
            // Equi-join intersects the two domains.
            let merged = d_outer.min(d_inner);
            let slots = &mut self.distinct[eid.index()];
            *slots = [non_nan_min(slots[0], merged), non_nan_min(slots[1], merged)];
        }
        for d in self.distinct.iter_mut().flatten() {
            if !d.is_nan() {
                *d = yao(*d, output).min(*d);
            }
        }
    }

    /// Walk `order`, calling `f` per join step; returns the final
    /// cardinality. The walker resets itself first, so one walker can be
    /// reused across walks.
    pub fn walk<F: FnMut(&JoinCtx)>(&mut self, query: &Query, order: &[RelId], mut f: F) -> f64 {
        self.distinct.fill([f64::NAN; 2]);
        self.placed.fill(false);
        let mut iter = order.iter();
        let Some(&first) = iter.next() else {
            return 0.0;
        };
        self.admit(query, first);
        let mut card = clamp_card(query.cardinality(first));

        for (q, &inner) in iter.enumerate() {
            let sel = self.join_selectivity(query, inner);
            let step = JoinCtx::step(
                card,
                query.cardinality(inner),
                sel.unwrap_or(1.0),
                sel.is_some(),
                q + 1,
                1,
            );
            f(&step);
            self.place(query, inner, step.output_card);
            card = step.output_card;
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

/// Estimated intermediate sizes with distinct propagation (counterpart of
/// [`ljqo_cost::estimate::intermediate_sizes`]).
pub fn intermediate_sizes_propagated(query: &Query, order: &[RelId]) -> Vec<f64> {
    let mut sizes = Vec::with_capacity(order.len().saturating_sub(1));
    PropagatingWalker::new(query).walk(query, order, |s| sizes.push(s.output_card));
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use ljqo_catalog::QueryBuilder;
    use ljqo_cost::estimate::intermediate_sizes;
    use ljqo_plan::random_valid_order;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    /// A random catalog of 1..=4 connected components; each component is
    /// a chain spine of 4..8 relations plus random extra edges (cycles,
    /// star-ish hubs), with no edges between components.
    fn arb_catalog(rng: &mut SmallRng) -> Query {
        let n_components = rng.gen_range(1usize..=4);
        let mut b = QueryBuilder::new();
        let mut next = 0usize;
        for _ in 0..n_components {
            let len = rng.gen_range(4usize..8);
            for i in next..next + len {
                b = b.relation(format!("r{i}"), rng.gen_range(10u64..50_000));
            }
            for i in next + 1..next + len {
                b = b.join(
                    &format!("r{}", i - 1),
                    &format!("r{i}"),
                    rng.gen_range(0.001f64..1.0),
                );
            }
            for i in next..next + len {
                for j in (i + 2)..next + len {
                    if rng.gen_bool(0.15) {
                        b = b.join(
                            &format!("r{i}"),
                            &format!("r{j}"),
                            rng.gen_range(0.001f64..1.0),
                        );
                    }
                }
            }
            next += len;
        }
        b.build().unwrap()
    }

    /// Expected result of [`propagated_sizes_digest`]. A refactor of the
    /// propagated walk must leave it unchanged; a different value means
    /// the estimator's output changed.
    const PROPAGATED_SIZES_DIGEST: u64 = 0x6ce6_45e7_52a5_5403;

    /// Pins the propagated estimator's output bit for bit: the FNV-1a
    /// fold of every intermediate size it estimates for random valid
    /// orders of every component of the random catalogs. Any change to
    /// the walk's operation sequence (the equi-join merge, the Yao
    /// shrinkage, the clamping) moves the digest.
    #[test]
    fn propagated_sizes_digest() {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut folded = 0usize;
        for case in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(0xc09d_0006 ^ case);
            let q = arb_catalog(&mut rng);
            for comp in q.graph().components() {
                for _ in 0..8 {
                    let order = random_valid_order(q.graph(), &comp, &mut rng);
                    for size in intermediate_sizes_propagated(&q, order.rels()) {
                        digest = (digest ^ size.to_bits()).wrapping_mul(0x0100_0000_01b3);
                        folded += 1;
                    }
                }
            }
        }
        assert!(folded > 0);
        assert_eq!(digest, PROPAGATED_SIZES_DIGEST, "digest {digest:#018x}");
    }
}
