//! Cardinality estimation for join orders.
//!
//! Classical System-R-style estimation under independence and uniformity:
//! joining the running intermediate (over placed relations `S`) with a new
//! inner relation `j` multiplies the cardinality by `N_j` and by the
//! selectivities of **all** join predicates between `j` and `S`. A relation
//! with no predicate into `S` contributes a cross product (selectivity 1).

use ljqo_catalog::{Query, RelId};

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

/// Combined selectivity of all join predicates between `rel` and the
/// relations marked in `placed`, or `None` if there is no predicate (cross
/// product).
pub fn selectivity_into(query: &Query, rel: RelId, placed: &[bool]) -> Option<f64> {
    let graph = query.graph();
    let mut sel: Option<f64> = None;
    for &eid in graph.incident(rel) {
        let e = graph.edge(eid);
        if let Some(o) = e.other(rel) {
            if placed[o.index()] {
                *sel.get_or_insert(1.0) *= e.selectivity;
            }
        }
    }
    sel
}

/// One step of a left-deep walk: statistics of the join that adds `inner`
/// to an intermediate of size `outer_card`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinStep {
    /// The inner relation being added.
    pub inner: RelId,
    /// Cardinality of the outer (intermediate) operand.
    pub outer_card: f64,
    /// Cardinality of the inner base relation.
    pub inner_card: f64,
    /// Estimated output cardinality.
    pub output_card: f64,
    /// Whether this step is a cross product (no predicate into `S`).
    pub is_cross_product: bool,
}

/// Iterator-style walker producing the [`JoinStep`] sequence of an order.
///
/// Its callers are [`crate::OrderCost::order_cost_with`],
/// [`intermediate_sizes`] and [`crate::MultiMethodCostModel::annotate`].
/// `order_cost_with` is the walk behind
/// [`crate::Evaluator::cost`] and [`crate::OrderCost::order_cost`]; the
/// local-improvement heuristic reaches the walker through those. The
/// executor comparison reads `intermediate_sizes`.
#[derive(Debug)]
pub struct SizeWalker {
    placed: Vec<bool>,
}

impl SizeWalker {
    /// Create a walker for queries with up to `n_relations` relations.
    pub fn new(n_relations: usize) -> Self {
        SizeWalker {
            placed: vec![false; n_relations],
        }
    }

    /// Walk `order`, invoking `f` for every join step (i.e. for every
    /// relation after the first). Returns the final result cardinality.
    ///
    /// The walker resets its internal state afterwards, so it can be reused
    /// without reallocation.
    pub fn walk<F: FnMut(&JoinStep)>(&mut self, query: &Query, order: &[RelId], mut f: F) -> f64 {
        let mut iter = order.iter();
        let Some(&first) = iter.next() else {
            return 0.0;
        };
        self.placed[first.index()] = true;
        let mut card = clamp_card(query.cardinality(first));
        for &inner in iter {
            let inner_card = query.cardinality(inner);
            let sel = selectivity_into(query, inner, &self.placed);
            let output = clamp_card(card * inner_card * sel.unwrap_or(1.0));
            f(&JoinStep {
                inner,
                outer_card: card,
                inner_card,
                output_card: output,
                is_cross_product: sel.is_none(),
            });
            card = output;
            self.placed[inner.index()] = true;
        }
        for &r in order {
            self.placed[r.index()] = false;
        }
        card
    }
}

/// The estimated sizes of all intermediate results of `order` (one entry
/// per join, i.e. `order.len() - 1` entries).
pub fn intermediate_sizes(query: &Query, order: &[RelId]) -> Vec<f64> {
    let mut sizes = Vec::with_capacity(order.len().saturating_sub(1));
    let mut w = SizeWalker::new(query.n_relations());
    w.walk(query, order, |s| sizes.push(s.output_card));
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
        let mut w = SizeWalker::new(3);
        w.walk(&q, &ids(&[0, 1, 2]), |s| steps.push(*s));
        assert!(!steps[0].is_cross_product);
        assert!(steps[1].is_cross_product);
        // Cross product multiplies cardinalities: 20 · 30 = 600.
        assert!((steps[1].output_card - 600.0).abs() < 1e-9);
    }

    #[test]
    fn walker_resets_between_walks() {
        let q = triangle();
        let mut w = SizeWalker::new(3);
        let a = w.walk(&q, &ids(&[0, 1, 2]), |_| {});
        let b = w.walk(&q, &ids(&[0, 1, 2]), |_| {});
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
        let mut w = SizeWalker::new(3);
        assert_eq!(w.walk(&q, &[], |_| panic!("no steps")), 0.0);
        let c = w.walk(&q, &ids(&[2]), |_| panic!("no steps"));
        assert_eq!(c, 50.0);
    }
}
