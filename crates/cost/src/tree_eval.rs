//! Tree-shaped incremental cost evaluation for the bushy search space.
//!
//! The bushy analogue of [`IncrementalEvaluator`](crate::IncrementalEvaluator):
//! where the linear evaluator memoizes per-*prefix* cost/cardinality and
//! re-costs a move from its first touched position, [`TreeEvaluator`]
//! memoizes per-*node* `(output cardinality, accumulated subtree cost)`
//! and re-costs exactly the nodes a tree move dirtied — by construction
//! (see [`TreePlan::dirty_nodes`]) the union of paths from every touched
//! subtree to the root. Everything below the dirty paths is reused from
//! the memo.
//!
//! # Recurrence — and bit-identity with the linear walk
//!
//! Per node, children before parents:
//!
//! * leaf: `card = cardinality(rel)` (raw), `cost = 0`;
//! * join `(L, R)`: `sel` = product over all join edges crossing
//!   `(L.set, R.set)` in ascending edge order; the outer operand is
//!   clamped when it is a base relation (mirroring the linear walk's
//!   clamped first relation), inner left raw (mirroring `inner_card`);
//!   the step is [`JoinCtx::step`] over the operands' widths, and
//!   `cost = cost(L) + cost(R) + model.join_cost(step)`.
//!
//! The crossing-edge fold is the tree walk's own: a bushy join has no
//! single inner relation whose CSR slots
//! [`estimate::join_step`](crate::estimate::join_step) could fold. On an
//! outer-linear (left-deep) tree it reproduces
//! [`OrderCost::order_cost`](crate::OrderCost::order_cost) **bit for
//! bit**: restricted to an inner leaf it enumerates exactly the placed
//! incident edges in the same (ascending edge id) order as the compiled
//! CSR slots, an unplaced edge contributes nothing where the slot fold
//! multiplies by an exact 1.0, and the products and the cost sum
//! associate identically. That makes bushy-vs-linear comparisons exact
//! rather than tolerance-based. Each node's value is a pure function of its
//! children's values, so the path-to-root recompute is bit-identical to a
//! full bottom-up re-cost; `bushy_props` checks this on every move.
//!
//! # Protocol
//!
//! [`propose`](TreeEvaluator::propose) → [`eval_pending`](TreeEvaluator::eval_pending)
//! → [`commit`](TreeEvaluator::commit) or [`rollback`](TreeEvaluator::rollback),
//! mirroring the linear `eval_applied`/`commit`/`rollback` shape.
//! Candidate values live in epoch-marked scratch arrays, so neither
//! rollback nor the next proposal needs to clear anything; the
//! steady-state loop performs no heap allocation (enforced by the
//! workspace's counting-allocator test).

use std::sync::Arc;

use rand::Rng;

use ljqo_catalog::{CompiledQuery, EdgeId};
use ljqo_plan::{TreeMove, TreeMoveSet, TreeNode, TreePlan};

use crate::estimate::clamp_card;
use crate::{sanitize_cost, CostModel, JoinCtx};

/// Per-node `(output cardinality, accumulated cost)` for one join node.
///
/// Free function (not a method) so the evaluator can call it while
/// holding disjoint borrows of its scratch arrays.
#[inline]
fn join_value(
    model: &dyn CostModel,
    cq: &CompiledQuery,
    l: &TreeNode,
    lv: (f64, f64),
    r: &TreeNode,
    rv: (f64, f64),
) -> (f64, f64) {
    let mut sel = 1.0f64;
    let mut joined = false;
    for e in 0..cq.n_edges() {
        let eid = EdgeId(e as u32);
        let a = cq.edge_a(eid).index();
        let b = cq.edge_b(eid).index();
        let crosses = (l.set.test(a) && r.set.test(b)) || (l.set.test(b) && r.set.test(a));
        if crosses {
            sel *= cq.edge_selectivity(eid);
            joined = true;
        }
    }
    // Clamp rule mirrors the linear walk exactly: the walk clamps the
    // *first* (outer-side) base relation and leaves every inner base
    // relation raw; intermediates are clamped as they are produced.
    let outer_card = if l.is_leaf() { clamp_card(lv.0) } else { lv.0 };
    let ctx = JoinCtx::step(
        outer_card,
        rv.0,
        sel,
        joined,
        l.width() as usize,
        r.width() as usize,
    );
    (ctx.output_card, lv.1 + rv.1 + model.join_cost(&ctx))
}

/// Full bottom-up evaluation of `plan` into `card`/`cost` (indexed by
/// arena node id), using `post`/`stack` as traversal scratch. Returns the
/// root's accumulated cost (unsanitized).
fn compute_full(
    model: &dyn CostModel,
    cq: &CompiledQuery,
    plan: &TreePlan,
    card: &mut [f64],
    cost: &mut [f64],
    post: &mut Vec<u32>,
    stack: &mut Vec<u32>,
) -> f64 {
    post.clear();
    stack.clear();
    stack.push(plan.root());
    while let Some(id) = stack.pop() {
        post.push(id);
        let n = plan.node(id);
        if !n.is_leaf() {
            stack.push(n.left);
            stack.push(n.right);
        }
    }
    // `post` holds parents before children; reverse for bottom-up.
    for i in (0..post.len()).rev() {
        let id = post[i];
        let n = plan.node(id);
        let v = if n.is_leaf() {
            (cq.cardinality(n.rel), 0.0)
        } else {
            let l = plan.node(n.left);
            let r = plan.node(n.right);
            let lv = (card[n.left as usize], cost[n.left as usize]);
            let rv = (card[n.right as usize], cost[n.right as usize]);
            join_value(model, cq, l, lv, r, rv)
        };
        card[id as usize] = v.0;
        cost[id as usize] = v.1;
    }
    cost[plan.root() as usize]
}

/// Budget-free tree-shaped cost evaluator owning a [`TreePlan`].
///
/// Budgeting stays with [`Evaluator`](crate::Evaluator) (the search loop
/// pairs every [`TreeEvaluator::eval_pending`] with
/// [`Evaluator::charge_eval`](crate::Evaluator::charge_eval)); this type
/// owns only the memoized per-node state and the pending-move protocol.
pub struct TreeEvaluator<'a> {
    model: &'a dyn CostModel,
    compiled: Arc<CompiledQuery>,
    plan: TreePlan,
    memo_card: Vec<f64>,
    memo_cost: Vec<f64>,
    cand_card: Vec<f64>,
    cand_cost: Vec<f64>,
    /// Epoch marks: `cand_*[i]` is live iff `cand_mark[i] == epoch`.
    cand_mark: Vec<u64>,
    epoch: u64,
    /// Copy of the pending move's dirty node list (the plan's own scratch
    /// is invalidated by `accept`, and `commit` needs the list after it).
    dirty: Vec<u32>,
    post: Vec<u32>,
    stack: Vec<u32>,
    pending: bool,
}

impl<'a> TreeEvaluator<'a> {
    /// Create an evaluator owning `plan`, fully evaluating it once
    /// (off any budget — callers charge their evaluator separately).
    pub fn new(model: &'a dyn CostModel, compiled: Arc<CompiledQuery>, plan: TreePlan) -> Self {
        let n = plan.n_nodes();
        let mut ev = TreeEvaluator {
            model,
            compiled,
            plan,
            memo_card: vec![0.0; n],
            memo_cost: vec![0.0; n],
            cand_card: vec![0.0; n],
            cand_cost: vec![0.0; n],
            cand_mark: vec![0; n],
            epoch: 0,
            dirty: Vec::with_capacity(n),
            post: Vec::with_capacity(n),
            stack: Vec::with_capacity(n),
            pending: false,
        };
        ev.rebuild();
        ev
    }

    /// The current (resolved) tree.
    #[inline]
    pub fn plan(&self) -> &TreePlan {
        &self.plan
    }

    /// The compiled query snapshot this evaluator costs against.
    #[inline]
    pub fn compiled(&self) -> &Arc<CompiledQuery> {
        &self.compiled
    }

    /// Replace the owned tree (e.g. a restart from a fresh random order),
    /// reusing buffers where capacities allow, and re-evaluate.
    pub fn reset(&mut self, plan: TreePlan) {
        assert!(!self.pending, "reset with an unresolved pending move");
        self.plan = plan;
        let n = self.plan.n_nodes();
        self.memo_card.resize(n, 0.0);
        self.memo_cost.resize(n, 0.0);
        self.cand_card.resize(n, 0.0);
        self.cand_cost.resize(n, 0.0);
        self.cand_mark.clear();
        self.cand_mark.resize(n, 0);
        self.epoch = 0;
        self.rebuild();
    }

    /// Copy another plan's state into the owned tree (no allocation when
    /// shapes match, e.g. restoring the best tree) and re-evaluate.
    pub fn reset_from(&mut self, plan: &TreePlan) {
        assert!(!self.pending, "reset with an unresolved pending move");
        self.plan.copy_from(plan);
        self.rebuild();
    }

    fn rebuild(&mut self) {
        compute_full(
            self.model,
            &self.compiled,
            &self.plan,
            &mut self.memo_card,
            &mut self.memo_cost,
            &mut self.post,
            &mut self.stack,
        );
    }

    /// Cost of the current (resolved) tree, sanitized like
    /// [`Evaluator::cost`](crate::Evaluator::cost) sanitizes order costs.
    #[inline]
    pub fn current_cost(&self) -> f64 {
        debug_assert!(!self.pending);
        sanitize_cost(self.memo_cost[self.plan.root() as usize].min(f64::MAX))
    }

    /// Estimated cardinality of the tree's final result.
    #[inline]
    pub fn final_card(&self) -> f64 {
        debug_assert!(!self.pending);
        self.memo_card[self.plan.root() as usize]
    }

    /// Sample, apply and validate one random move on the owned tree (see
    /// [`TreePlan::propose`]). On `Some`, the move is pending: call
    /// [`eval_pending`](TreeEvaluator::eval_pending), then
    /// [`commit`](TreeEvaluator::commit) or
    /// [`rollback`](TreeEvaluator::rollback).
    pub fn propose<R: Rng + ?Sized>(
        &mut self,
        moves: &TreeMoveSet,
        rng: &mut R,
    ) -> Option<(TreeMove, u32)> {
        debug_assert!(!self.pending, "propose with an unresolved pending move");
        self.plan.propose(moves, rng)
    }

    /// Cost of the pending (applied) tree, re-costing only the dirtied
    /// path-to-root nodes against the memoized subtrees below them. It is
    /// bit-identical to [`full_cost`](TreeEvaluator::full_cost) of the
    /// applied tree; the differential suites pin that.
    pub fn eval_pending(&mut self) -> f64 {
        debug_assert!(!self.pending, "eval_pending called twice");
        debug_assert!(self.plan.has_pending(), "no applied move to evaluate");
        self.epoch += 1;
        self.dirty.clear();
        let dirty_ids = self.plan.dirty_nodes();
        self.dirty.extend_from_slice(dirty_ids);
        for i in 0..self.dirty.len() {
            let id = self.dirty[i];
            let n = *self.plan.node(id);
            let v = if n.is_leaf() {
                (self.compiled.cardinality(n.rel), 0.0)
            } else {
                let lv = self.value_of(n.left);
                let rv = self.value_of(n.right);
                join_value(
                    self.model,
                    &self.compiled,
                    self.plan.node(n.left),
                    lv,
                    self.plan.node(n.right),
                    rv,
                )
            };
            self.cand_card[id as usize] = v.0;
            self.cand_cost[id as usize] = v.1;
            self.cand_mark[id as usize] = self.epoch;
        }
        let root = self.plan.root();
        debug_assert_eq!(
            self.cand_mark[root as usize], self.epoch,
            "dirty set must always reach the root"
        );
        let total = sanitize_cost(self.cand_cost[root as usize].min(f64::MAX));
        self.pending = true;
        total
    }

    /// Child value under the pending epoch: candidate if recomputed this
    /// move, memo otherwise.
    #[inline]
    fn value_of(&self, id: u32) -> (f64, f64) {
        let i = id as usize;
        if self.cand_mark[i] == self.epoch {
            (self.cand_card[i], self.cand_cost[i])
        } else {
            (self.memo_card[i], self.memo_cost[i])
        }
    }

    /// Adopt the pending move: candidate values become the memo for
    /// exactly the dirty nodes, and the plan's undo log is cleared.
    pub fn commit(&mut self) {
        assert!(self.pending, "commit without a pending evaluation");
        for i in 0..self.dirty.len() {
            let id = self.dirty[i] as usize;
            self.memo_card[id] = self.cand_card[id];
            self.memo_cost[id] = self.cand_cost[id];
        }
        self.plan.accept();
        self.pending = false;
    }

    /// Reject the pending move: the tree is rolled back and the memo —
    /// which was never touched — remains the resolved state's.
    pub fn rollback(&mut self) {
        assert!(self.pending, "rollback without a pending evaluation");
        self.plan.undo_last();
        self.pending = false;
    }

    /// Full bottom-up re-cost of the tree *as it currently stands*
    /// (including a pending move, if any), without touching the memo.
    /// Allocates; for tests.
    pub fn full_cost(&mut self) -> f64 {
        let n = self.plan.n_nodes();
        let mut card = vec![0.0; n];
        let mut cost = vec![0.0; n];
        let total = compute_full(
            self.model,
            &self.compiled,
            &self.plan,
            &mut card,
            &mut cost,
            &mut self.post,
            &mut self.stack,
        );
        sanitize_cost(total.min(f64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskCostModel, MemoryCostModel, OrderCost};
    use ljqo_catalog::{Query, QueryBuilder, RelId};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn chain_query() -> Query {
        QueryBuilder::new()
            .relation("a", 3000)
            .relation("b", 12)
            .relation("c", 700)
            .relation("d", 55)
            .relation("e", 1400)
            .join("a", "b", 0.01)
            .join("b", "c", 0.002)
            .join("c", "d", 0.05)
            .join("d", "e", 0.001)
            .build()
            .unwrap()
    }

    fn ids(v: &[u32]) -> Vec<RelId> {
        v.iter().map(|&i| RelId(i)).collect()
    }

    #[test]
    fn left_deep_tree_cost_equals_order_cost_bit_for_bit() {
        let q = chain_query();
        let compiled = Arc::new(CompiledQuery::new(&q));
        for model in [
            &MemoryCostModel::default() as &dyn CostModel,
            &DiskCostModel::default() as &dyn CostModel,
        ] {
            for order in [
                vec![0, 1, 2, 3, 4],
                vec![4, 3, 2, 1, 0],
                vec![2, 1, 0, 3, 4],
            ] {
                let rels = ids(&order);
                let plan = TreePlan::from_order(&compiled, &rels);
                let te = TreeEvaluator::new(model, Arc::clone(&compiled), plan);
                let linear = sanitize_cost(model.order_cost(&q, &rels));
                assert_eq!(
                    te.current_cost(),
                    linear,
                    "model {} order {order:?}",
                    model.name()
                );
            }
        }
    }

    #[test]
    fn incremental_matches_full_recost_across_many_moves() {
        let q = chain_query();
        let compiled = Arc::new(CompiledQuery::new(&q));
        let model = MemoryCostModel::default();
        let plan = TreePlan::from_order(&compiled, &ids(&[0, 1, 2, 3, 4]));
        let mut te = TreeEvaluator::new(&model, Arc::clone(&compiled), plan);
        let mut rng = SmallRng::seed_from_u64(0x7ee);
        let mut current = te.current_cost();
        for _ in 0..300 {
            let Some((_mv, _attempts)) = te.propose(&TreeMoveSet::default(), &mut rng) else {
                continue;
            };
            let cand = te.eval_pending();
            let full = te.full_cost();
            assert_eq!(cand, full);
            if cand < current {
                te.commit();
                current = cand;
            } else {
                te.rollback();
                assert_eq!(te.current_cost(), current);
            }
        }
    }

    #[test]
    fn commit_establishes_the_candidate_as_current() {
        let q = chain_query();
        let compiled = Arc::new(CompiledQuery::new(&q));
        let model = MemoryCostModel::default();
        let plan = TreePlan::from_order(&compiled, &ids(&[0, 1, 2, 3, 4]));
        let mut te = TreeEvaluator::new(&model, Arc::clone(&compiled), plan);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..50 {
            if te.propose(&TreeMoveSet::default(), &mut rng).is_some() {
                let cand = te.eval_pending();
                te.commit();
                assert_eq!(te.current_cost(), cand);
            }
        }
    }

    #[test]
    fn reset_from_restores_a_saved_tree() {
        let q = chain_query();
        let compiled = Arc::new(CompiledQuery::new(&q));
        let model = MemoryCostModel::default();
        let plan = TreePlan::from_order(&compiled, &ids(&[0, 1, 2, 3, 4]));
        let mut te = TreeEvaluator::new(&model, Arc::clone(&compiled), plan);
        let saved = te.plan().clone();
        let saved_cost = te.current_cost();
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..40 {
            if te.propose(&TreeMoveSet::default(), &mut rng).is_some() {
                te.eval_pending();
                te.commit();
            }
        }
        te.reset_from(&saved);
        assert_eq!(te.current_cost(), saved_cost);
        assert_eq!(te.plan().leaves(), saved.leaves());
    }
}
