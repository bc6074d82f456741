//! Cardinality estimation for join orders.
//!
//! Classical System-R-style estimation under independence and uniformity:
//! joining the running intermediate (over placed relations `S`) with a new
//! inner relation `j` multiplies the cardinality by `N_j` and by the
//! selectivities of **all** join predicates between `j` and `S`. A relation
//! with no predicate into `S` contributes a cross product (selectivity 1).
//!
//! [`join_step`] is the one left-deep step: it folds those selectivities
//! over the compiled snapshot's CSR slots against a placed-set bitmask and
//! applies the join rule of [`JoinCtx::step`]. The full walk
//! ([`SizeWalker`], behind [`crate::OrderCost`]) and every walk of
//! [`crate::IncrementalEvaluator`] (move window, tail, commit, rebuild)
//! call it, so they agree bit for bit by construction.

use std::sync::Arc;

use ljqo_catalog::bitset::{set_bit, test_bit};
use ljqo_catalog::{CompiledQuery, Query, RelId};

use crate::model::JoinCtx;
use crate::CARD_CLAMP;

/// Clamp a running cardinality into `(0, CARD_CLAMP]`.
///
/// The upper clamp prevents products of many large relations from
/// overflowing `f64`. There is deliberately **no floor at one tuple**:
/// expected cardinalities below 1 are legitimate estimates, and flooring
/// them per step would make the running cardinality depend on the path
/// taken through a relation set — breaking the optimal substructure that
/// the dynamic-programming baseline relies on (the cost of a set must be
/// extendable independently of the order that produced it).
#[inline]
pub fn clamp_card(card: f64) -> f64 {
    card.clamp(f64::MIN_POSITIVE, CARD_CLAMP)
}

/// The left-deep join step that adds `inner` to an intermediate of
/// `outer_card` rows over `outer_rels` relations, with `placed` the
/// placed-set mask (at least [`CompiledQuery::words_per_rel`] words).
///
/// The compiled slots iterate `inner`'s incident edges in exactly
/// [`ljqo_catalog::JoinGraph::incident`] order, so the product has one
/// fixed multiplication order. The fold is branch-free: an unplaced
/// neighbour multiplies by 1.0, which is exact, so the product equals
/// the product over the placed neighbours alone (1.0 when there are
/// none, which makes the step a cross product).
#[inline(always)]
pub fn join_step(
    cq: &CompiledQuery,
    inner: RelId,
    outer_card: f64,
    outer_rels: usize,
    placed: &[u64],
) -> JoinCtx {
    let mut sel = 1.0f64;
    let mut joined = false;
    for rec in cq.slot_records(inner) {
        let hit = test_bit(placed, rec.other.index());
        sel *= if hit { rec.sel } else { 1.0 };
        joined |= hit;
    }
    JoinCtx::step(
        outer_card,
        cq.cardinality(inner),
        sel,
        joined,
        outer_rels,
        1,
    )
}

/// A reusable left-deep walk over a compiled snapshot: it yields the
/// [`JoinCtx`] of every step of an order.
///
/// Its callers are [`crate::OrderCost`] (the walk behind
/// [`crate::Evaluator::cost`]), [`intermediate_sizes`] and
/// [`crate::MultiMethodCostModel::annotate`]. A walker owns its snapshot
/// and a placed-set buffer, so one walker prices any number of orders of
/// its query without allocating.
#[derive(Debug)]
pub struct SizeWalker {
    compiled: Arc<CompiledQuery>,
    placed: Vec<u64>,
}

impl SizeWalker {
    /// A walker over a fresh compiled snapshot of `query`.
    pub fn new(query: &Query) -> Self {
        Self::with_compiled(Arc::new(CompiledQuery::new(query)))
    }

    /// A walker over an existing compiled snapshot.
    pub fn with_compiled(compiled: Arc<CompiledQuery>) -> Self {
        let placed = vec![0; compiled.mask_stride()];
        SizeWalker { compiled, placed }
    }

    /// The compiled snapshot this walker prices against.
    #[inline]
    pub fn compiled(&self) -> &Arc<CompiledQuery> {
        &self.compiled
    }

    /// Walk `order`, invoking `f` with the inner relation and the
    /// statistics of every join step (i.e. for every relation after the
    /// first). Returns the final result cardinality, or `0.0` for an
    /// empty order.
    pub fn walk<F: FnMut(RelId, &JoinCtx)>(&mut self, order: &[RelId], mut f: F) -> f64 {
        let Some((&first, rest)) = order.split_first() else {
            return 0.0;
        };
        let cq = &*self.compiled;
        let placed = &mut self.placed[..];
        placed.fill(0);
        set_bit(placed, first.index());
        let mut card = clamp_card(cq.cardinality(first));
        for (q, &inner) in rest.iter().enumerate() {
            let ctx = join_step(cq, inner, card, q + 1, placed);
            f(inner, &ctx);
            card = ctx.output_card;
            set_bit(placed, inner.index());
        }
        card
    }
}

/// The estimated sizes of all intermediate results of `order` (one entry
/// per join, i.e. `order.len() - 1` entries).
pub fn intermediate_sizes(query: &Query, order: &[RelId]) -> Vec<f64> {
    let mut sizes = Vec::with_capacity(order.len().saturating_sub(1));
    SizeWalker::new(query).walk(order, |_, s| sizes.push(s.output_card));
    sizes
}

/// Estimated size of the final join result over `component`.
///
/// Order-independent: `∏ N_i · ∏ J_e` over the relations and all edges
/// inside the component.
pub fn final_result_size(query: &Query, component: &[RelId]) -> f64 {
    let mut in_comp = vec![false; query.n_relations()];
    for &r in component {
        in_comp[r.index()] = true;
    }
    let mut size: f64 = component.iter().map(|&r| query.cardinality(r)).product();
    size = clamp_card(size);
    for e in query.graph().edges() {
        if in_comp[e.a.index()] && in_comp[e.b.index()] {
            size = clamp_card(size * e.selectivity);
        }
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;
    use ljqo_catalog::QueryBuilder;

    fn triangle() -> Query {
        // a(100) - b(200) - c(50), plus a-c edge: a cyclic query.
        QueryBuilder::new()
            .relation("a", 100)
            .relation("b", 200)
            .relation("c", 50)
            .join("a", "b", 0.01)
            .join("b", "c", 0.02)
            .join("a", "c", 0.10)
            .build()
            .unwrap()
    }

    fn ids(v: &[u32]) -> Vec<RelId> {
        v.iter().map(|&i| RelId(i)).collect()
    }

    #[test]
    fn chain_walk_sizes() {
        let q = triangle();
        // (a b c): |a⋈b| = 100·200·0.01 = 200;
        // joining c applies BOTH the b-c and a-c predicates:
        // 200·50·0.02·0.10 = 20.
        let sizes = intermediate_sizes(&q, &ids(&[0, 1, 2]));
        assert_eq!(sizes.len(), 2);
        assert!((sizes[0] - 200.0).abs() < 1e-9);
        assert!((sizes[1] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn final_size_is_order_independent() {
        let q = triangle();
        let orders = [ids(&[0, 1, 2]), ids(&[2, 1, 0]), ids(&[1, 0, 2])];
        let expect = final_result_size(&q, &ids(&[0, 1, 2]));
        for o in &orders {
            let sizes = intermediate_sizes(&q, o);
            assert!(
                (sizes.last().unwrap() - expect).abs() / expect < 1e-9,
                "final size must match for {o:?}"
            );
        }
        // 100·200·50 · 0.01·0.02·0.1 = 20.
        assert!((expect - 20.0).abs() < 1e-9);
    }

    #[test]
    fn cross_product_detected() {
        let q = QueryBuilder::new()
            .relation("a", 10)
            .relation("b", 20)
            .relation("c", 30)
            .join("a", "b", 0.1)
            .build()
            .unwrap();
        let mut steps = Vec::new();
        let mut w = SizeWalker::new(&q);
        w.walk(&ids(&[0, 1, 2]), |_, s| steps.push(*s));
        assert!(!steps[0].is_cross_product);
        assert!(steps[1].is_cross_product);
        // Cross product multiplies cardinalities: 20 · 30 = 600.
        assert!((steps[1].output_card - 600.0).abs() < 1e-9);
    }

    #[test]
    fn walker_resets_between_walks() {
        let q = triangle();
        let mut w = SizeWalker::new(&q);
        let a = w.walk(&ids(&[0, 1, 2]), |_, _| {});
        let b = w.walk(&ids(&[0, 1, 2]), |_, _| {});
        assert_eq!(a, b);
    }

    #[test]
    fn clamping_prevents_overflow() {
        let q = QueryBuilder::new()
            .relation("x", u64::MAX / 2)
            .relation("y", u64::MAX / 2)
            .relation("z", u64::MAX / 2)
            .build()
            .unwrap();
        // All cross products of astronomically large relations.
        let sizes = intermediate_sizes(&q, &ids(&[0, 1, 2]));
        assert!(sizes.iter().all(|s| s.is_finite() && *s <= CARD_CLAMP));
    }

    #[test]
    fn empty_and_singleton_orders() {
        let q = triangle();
        let mut w = SizeWalker::new(&q);
        assert_eq!(w.walk(&[], |_, _| panic!("no steps")), 0.0);
        let c = w.walk(&ids(&[2]), |_, _| panic!("no steps"));
        assert_eq!(c, 50.0);
    }
}
