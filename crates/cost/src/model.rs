//! The cost model abstraction.
//!
//! The paper stresses that, unlike the KBZ theory, its methods "do not
//! depend on using any particular cost model; any reasonable cost model
//! will do". We capture that with the [`CostModel`] trait: a model maps
//! per-join statistics ([`JoinCtx`]) to a cost, and optionally supplies a
//! lower bound used by the early-stopping condition.

use ljqo_catalog::{Query, RelId};

use crate::estimate::{clamp_card, final_result_size, SizeWalker};

/// Statistics describing one join, as consumed by a cost model.
///
/// Every walk that prices a join step builds it with [`JoinCtx::step`],
/// and every walk fills the two widths the same way: `outer_rels` and
/// `inner_rels` count the base relations in the outer (probe) and the
/// inner (build) operand, so the output holds `outer_rels + inner_rels`.
///
/// * A left-deep step adds one base relation to a `k`-relation
///   intermediate: `(k, 1)`.
/// * A tree join of subtrees `L` and `R` passes `(|L|, |R|)`.
/// * A late cross product between plan segments passes the width of the
///   plan joined so far and the segment's relation count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinCtx {
    /// Cardinality of the outer (probe) operand.
    pub outer_card: f64,
    /// Cardinality of the inner (build) operand.
    pub inner_card: f64,
    /// Estimated output cardinality.
    pub output_card: f64,
    /// Number of base relations in the outer operand.
    pub outer_rels: usize,
    /// Number of base relations in the inner operand.
    pub inner_rels: usize,
    /// Whether this join is a cross product.
    pub is_cross_product: bool,
}

impl JoinCtx {
    /// The paper's per-join rule: an outer operand of `outer_card` rows
    /// joined with an inner of `inner_card` rows under the combined
    /// selectivity `sel` yields `clamp_card(outer · inner · sel)` rows.
    /// `joined` says whether any predicate connects the two sides; without
    /// one the join is a cross product and `sel` is `1`. The widths are
    /// the operands' relation counts (see [`JoinCtx`]).
    ///
    /// The left-deep walks reach this through
    /// [`crate::estimate::join_step`], which folds `sel` from the
    /// compiled snapshot; the tree walk, the exact DP and the late cross
    /// products of plan pricing supply their own `sel`.
    #[inline(always)]
    pub fn step(
        outer_card: f64,
        inner_card: f64,
        sel: f64,
        joined: bool,
        outer_rels: usize,
        inner_rels: usize,
    ) -> JoinCtx {
        JoinCtx {
            outer_card,
            inner_card,
            output_card: clamp_card(outer_card * inner_card * sel),
            outer_rels,
            inner_rels,
            is_cross_product: !joined,
        }
    }
}

/// A cost model for hash-join processing of outer linear join trees.
pub trait CostModel: Sync {
    /// Cost of one hash join (or cross product) with the given statistics.
    fn join_cost(&self, ctx: &JoinCtx) -> f64;

    /// A short name for reports ("memory", "disk").
    fn name(&self) -> &'static str;

    /// An admissible lower bound on the cost of any valid order over
    /// `component`. The optimizers may stop early once the best solution is
    /// within a factor of this bound. The default is the trivial bound 0.
    fn lower_bound(&self, _query: &Query, _component: &[RelId]) -> f64 {
        0.0
    }

    /// Whether [`CostModel::join_cost`] is monotone non-decreasing in each
    /// of `outer_card`, `inner_card`, `output_card`, `outer_rels` and
    /// `inner_rels` (holding the others fixed). The LP-style certifier in `ljqo::bound` relies on
    /// this to turn per-step cardinality lower bounds into a cost lower
    /// bound: it prices each step at the *smallest* cardinalities any
    /// plan could present, which under-estimates the true step cost only
    /// if larger inputs never cost less. Models that are not monotone
    /// (e.g. fault injectors that invert costs) **must** return `false`,
    /// which disables the certifier for them (the reported bound falls
    /// back to [`CostModel::lower_bound`]).
    fn monotone_join_cost(&self) -> bool {
        true
    }
}

/// Whole-order costing: the sum of [`CostModel::join_cost`] over the
/// steps of a left-deep walk, priced by the shared estimator.
///
/// Every [`CostModel`] gets this through the blanket impl below, and no
/// model can override it. The incremental evaluator re-costs a move by
/// calling `join_cost` for the changed steps only, so a whole-order cost
/// that differed from the per-step sum would make
/// [`crate::Evaluator::cost`] and [`crate::Evaluator::cost_move`]
/// disagree. Models customise costing through `join_cost` alone.
pub trait OrderCost {
    /// Total cost of processing `order` (a walk over one component).
    /// Compiles a snapshot of `query` for the one walk; callers that
    /// price many orders of one query hold a [`SizeWalker`] and call
    /// [`OrderCost::order_cost_with`].
    fn order_cost(&self, query: &Query, order: &[RelId]) -> f64;

    /// As [`OrderCost::order_cost`], walking `walker`'s compiled snapshot
    /// (the evaluator's hot path).
    fn order_cost_with(&self, walker: &mut SizeWalker, order: &[RelId]) -> f64;
}

impl<M: CostModel + ?Sized> OrderCost for M {
    fn order_cost(&self, query: &Query, order: &[RelId]) -> f64 {
        self.order_cost_with(&mut SizeWalker::new(query), order)
    }

    fn order_cost_with(&self, walker: &mut SizeWalker, order: &[RelId]) -> f64 {
        let mut total = 0.0f64;
        walker.walk(order, |_, ctx| total += self.join_cost(ctx));
        total.min(f64::MAX)
    }
}

/// Shared helper for lower bounds: the final result size of a component
/// (order-independent) and the cardinalities of its members.
pub(crate) fn bound_ingredients(query: &Query, component: &[RelId]) -> (f64, Vec<f64>) {
    let final_size = final_result_size(query, component);
    let cards = component.iter().map(|&r| query.cardinality(r)).collect();
    (final_size, cards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ljqo_catalog::QueryBuilder;

    /// A trivially countable model: cost = number of joins.
    struct UnitModel;
    impl CostModel for UnitModel {
        fn join_cost(&self, _ctx: &JoinCtx) -> f64 {
            1.0
        }
        fn name(&self) -> &'static str {
            "unit"
        }
    }

    #[test]
    fn default_order_cost_sums_steps() {
        let q = QueryBuilder::new()
            .relation("a", 10)
            .relation("b", 10)
            .relation("c", 10)
            .join("a", "b", 0.1)
            .join("b", "c", 0.1)
            .build()
            .unwrap();
        let order: Vec<RelId> = q.rel_ids().collect();
        assert_eq!(UnitModel.order_cost(&q, &order), 2.0);
        assert_eq!(UnitModel.order_cost(&q, &order[..1]), 0.0);
    }

    #[test]
    fn outer_rels_counts_up() {
        struct Probe;
        impl CostModel for Probe {
            fn join_cost(&self, ctx: &JoinCtx) -> f64 {
                ctx.outer_rels as f64
            }
            fn name(&self) -> &'static str {
                "probe"
            }
        }
        let q = QueryBuilder::new()
            .relation("a", 10)
            .relation("b", 10)
            .relation("c", 10)
            .relation("d", 10)
            .join("a", "b", 0.1)
            .join("b", "c", 0.1)
            .join("c", "d", 0.1)
            .build()
            .unwrap();
        let order: Vec<RelId> = q.rel_ids().collect();
        // outer_rels: 1, 2, 3 -> sum 6.
        assert_eq!(Probe.order_cost(&q, &order), 6.0);
    }
}
