//! The edge-chasing left-deep walk, kept as a test oracle.
//!
//! Production prices every left-deep step with the compiled fold of
//! `ljqo_cost::estimate::join_step`. This is the walk it replaced: it
//! chases `JoinGraph::incident` edge by edge against a `Vec<bool>` placed
//! set and builds each `JoinCtx` by hand. It shares no code with the
//! kernel beyond the cost models themselves, so a suite that compares
//! the kernel's walks with it bit for bit checks the kernel, not the
//! kernel against itself.

use ljqo_catalog::{Query, RelId};
use ljqo_cost::estimate::clamp_card;
use ljqo_cost::{sanitize_cost, CostModel, JoinCtx};

/// Combined selectivity of all join predicates between `rel` and the
/// relations marked in `placed`, or `None` if there is no predicate (a
/// cross product).
fn selectivity_into(query: &Query, rel: RelId, placed: &[bool]) -> Option<f64> {
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

/// The saturated cost of `order` under `model`: the sum of the model's
/// step costs over an edge-chasing walk.
pub fn order_cost(model: &dyn CostModel, query: &Query, order: &[RelId]) -> f64 {
    let Some((&first, rest)) = order.split_first() else {
        return 0.0;
    };
    let mut placed = vec![false; query.n_relations()];
    placed[first.index()] = true;
    let mut card = clamp_card(query.cardinality(first));
    let mut total = 0.0f64;
    for (q, &inner) in rest.iter().enumerate() {
        let inner_card = query.cardinality(inner);
        let sel = selectivity_into(query, inner, &placed);
        let output = clamp_card(card * inner_card * sel.unwrap_or(1.0));
        total += model.join_cost(&JoinCtx {
            outer_card: card,
            inner_card,
            output_card: output,
            outer_rels: q + 1,
            is_cross_product: sel.is_none(),
        });
        card = output;
        placed[inner.index()] = true;
    }
    sanitize_cost(total.min(f64::MAX))
}
