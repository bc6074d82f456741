//! A test-only plan pricer.
//!
//! Production prices every left-deep step with the compiled fold of
//! `ljqo_cost::estimate::join_step`, every bushy join with the arena's
//! `TreeEvaluator`, and a finished plan (segment trees plus their late
//! cross products) in one `price_plan`. This module prices the same
//! things from a `Query` and the plan's trees alone:
//!
//! * [`order_cost`] is the edge-chasing left-deep walk the kernel
//!   replaced: it chases `JoinGraph::incident` edge by edge against a
//!   `Vec<bool>` placed set;
//! * [`tree_cost`] walks a bushy tree recursively over its shape,
//!   folding the edges that cross each join;
//! * [`plan_cost`] joins the segments with cross products, at given
//!   segment costs ([`repriced_plan_cost`] at its own).
//!
//! Each walk builds its `JoinCtx`s by hand and keeps its own operand
//! widths. It shares no code with the kernel beyond the cost models
//! themselves, so a suite that compares the kernel's walks with it bit for
//! bit checks the kernel, not the kernel against itself.

#![allow(dead_code)]

use ljqo_catalog::{Query, RelId};
use ljqo_cost::estimate::clamp_card;
use ljqo_cost::{sanitize_cost, CostModel, JoinCtx};
use ljqo_plan::BushyTree;

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
            inner_rels: 1,
            is_cross_product: sel.is_none(),
        });
        card = output;
        placed[inner.index()] = true;
    }
    sanitize_cost(total.min(f64::MAX))
}

/// The saturated cost of one plan segment: an outer linear tree by the
/// edge-chasing walk, a bushy tree by a recursive walk over its shape.
pub fn tree_cost(model: &dyn CostModel, query: &Query, tree: &BushyTree) -> f64 {
    if tree.is_linear() {
        return order_cost(model, query, tree.leaves());
    }
    let (_, cost, _) = subtree(model, query, tree, 2 * tree.n_leaves() - 2);
    sanitize_cost(cost.min(f64::MAX))
}

/// `(cardinality, accumulated cost, relations)` of the subtree at node
/// `id` of `tree` (leaves `0..k`, join `i` at `k + i`).
fn subtree(
    model: &dyn CostModel,
    query: &Query,
    tree: &BushyTree,
    id: usize,
) -> (f64, f64, Vec<RelId>) {
    let k = tree.n_leaves();
    if id < k {
        let rel = tree.leaves()[id];
        return (query.cardinality(rel), 0.0, vec![rel]);
    }
    let (l, r) = tree.shape()[id - k];
    let (outer, outer_cost, outer_rels) = subtree(model, query, tree, l as usize);
    let (inner, inner_cost, inner_rels) = subtree(model, query, tree, r as usize);
    let mut sel: Option<f64> = None;
    for e in query.graph().edges() {
        let crosses = (outer_rels.contains(&e.a) && inner_rels.contains(&e.b))
            || (outer_rels.contains(&e.b) && inner_rels.contains(&e.a));
        if crosses {
            *sel.get_or_insert(1.0) *= e.selectivity;
        }
    }
    // A base relation on the outer side is clamped, as the left-deep
    // walk clamps its first relation; an inner is taken raw.
    let outer = if outer_rels.len() == 1 {
        clamp_card(outer)
    } else {
        outer
    };
    let output = clamp_card(outer * inner * sel.unwrap_or(1.0));
    let step = model.join_cost(&JoinCtx {
        outer_card: outer,
        inner_card: inner,
        output_card: output,
        outer_rels: outer_rels.len(),
        inner_rels: inner_rels.len(),
        is_cross_product: sel.is_none(),
    });
    let mut rels = outer_rels;
    rels.extend(inner_rels);
    (output, outer_cost + inner_cost + step, rels)
}

/// Estimated result size of a segment: its cardinalities in leaf order,
/// then every predicate inside it.
fn result_size(query: &Query, rels: &[RelId]) -> f64 {
    let mut size = clamp_card(rels.iter().map(|&r| query.cardinality(r)).product());
    for e in query.graph().edges() {
        if rels.contains(&e.a) && rels.contains(&e.b) {
            size = clamp_card(size * e.selectivity);
        }
    }
    size
}

/// The total cost of the plan whose segments are `trees`, in plan order,
/// at the given segment costs: their sum plus one cross product per later
/// segment, whose outer is everything joined before it.
pub fn plan_cost(
    model: &dyn CostModel,
    query: &Query,
    trees: &[BushyTree],
    segment_costs: &[f64],
) -> f64 {
    let mut total: f64 = segment_costs.iter().sum();
    let mut outer = result_size(query, trees[0].leaves());
    let mut width = trees[0].n_leaves();
    for tree in &trees[1..] {
        let inner = result_size(query, tree.leaves());
        let output = clamp_card(outer * inner);
        total += model.join_cost(&JoinCtx {
            outer_card: outer,
            inner_card: inner,
            output_card: output,
            outer_rels: width,
            inner_rels: tree.n_leaves(),
            is_cross_product: true,
        });
        outer = output;
        width += tree.n_leaves();
    }
    sanitize_cost(total)
}

/// [`plan_cost`] with every segment priced by [`tree_cost`].
pub fn repriced_plan_cost(model: &dyn CostModel, query: &Query, trees: &[BushyTree]) -> f64 {
    let costs: Vec<f64> = trees.iter().map(|t| tree_cost(model, query, t)).collect();
    plan_cost(model, query, trees, &costs)
}
