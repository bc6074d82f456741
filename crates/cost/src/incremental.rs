//! Incremental (delta) cost evaluation for local-search moves.
//!
//! Iterative improvement and simulated annealing spend essentially their
//! whole budget evaluating *perturbed* permutations, yet a full
//! re-evaluation recomputes every join step even though a move only
//! rearranges a small window of the order. This module memoizes per-prefix
//! state of the current order — accumulated cost, intermediate cardinality
//! and (optionally) the propagated distinct-value state of
//! [`crate::propagate`] — and re-costs only what a move can change.
//!
//! # The window argument
//!
//! Every [`Move`] permutes relations within the window
//! `[first_touched, last_touched]` and leaves all other positions fixed.
//! Under the static estimator the step cost at position `q` depends only
//! on the *set* of relations placed before `q` (which determines the
//! selectivities and, as a product, the running cardinality), the inner
//! relation at `q`, and `q` itself. Consequently:
//!
//! * steps **before** the window are untouched — their memoized costs are
//!   reused verbatim;
//! * steps **inside** the window are recomputed (O(window) work);
//! * steps **after** the window see the same placed set and the same inner
//!   relation, so their real-valued costs are unchanged — the memoized
//!   tail is reused as a difference of prefix sums.
//!
//! That makes a move evaluation `O(window + deg)` instead of `O(N)`: an
//! adjacent swap is constant work, and a random arbitrary swap touches
//! `~N/3` positions on average. The `hot_path` bench in `ljqo-bench`
//! quantifies the resulting throughput.
//!
//! # Floating-point contract
//!
//! Reusing the memoized tail re-associates a sum of `f64` step costs, so
//! an *evaluation* may differ from a from-scratch walk by a few ulps
//! (debug builds assert agreement within `1e-9` relative). Two guard
//! rails keep this honest:
//!
//! * [`IncrementalEvaluator::commit`] recomputes the suffix with the exact
//!   full-walk operation sequence, so the *memoized state* is always
//!   bit-identical to a fresh walk of the current order — ulp drift never
//!   accumulates across accepted moves;
//! * if the window's exit cardinality does not match the memoized one
//!   (which can happen when [`crate::estimate::clamp_card`] saturates at a
//!   different step pre- and post-move), the tail is recomputed explicitly
//!   instead of reused, so even saturated plans are costed faithfully.
//!
//! With the propagated estimator the distinct-value state mutates at every
//! step, so there is no reusable tail: evaluation clones the memoized
//! [`DistinctState`] snapshot at the window start and re-walks the suffix
//! (`O((N − p)·E)`), which still skips the whole prefix.
//!
//! # Example
//!
//! ```
//! use ljqo_catalog::QueryBuilder;
//! use ljqo_cost::{Estimator, IncrementalEvaluator, MemoryCostModel};
//! use ljqo_plan::{JoinOrder, Move};
//!
//! let query = QueryBuilder::new()
//!     .relation("a", 1000)
//!     .relation("b", 50)
//!     .relation("c", 200)
//!     .join("a", "b", 0.01)
//!     .join("b", "c", 0.005)
//!     .build()
//!     .unwrap();
//! let model = MemoryCostModel::default();
//! let order = JoinOrder::identity(&query);
//!
//! let mut inc = IncrementalEvaluator::new(&query, &model, Estimator::Static, order);
//! let before = inc.current_cost();
//!
//! // Apply and evaluate a move incrementally, then keep or revert it.
//! let mv = Move::Swap { i: 0, j: 1 };
//! let candidate = inc.eval_move(&mv);
//! assert_eq!(candidate, inc.full_eval());
//! if candidate < before {
//!     inc.commit();
//! } else {
//!     inc.rollback();
//! }
//! ```

use std::sync::Arc;

use ljqo_catalog::{CompiledQuery, EdgeId, Query};
use ljqo_plan::{JoinOrder, Move};

use crate::estimate::clamp_card;
use crate::model::{CostModel, JoinCtx, OrderCost};
use crate::propagate::{order_cost_propagated, DistinctState};
use crate::sanitize_cost;

/// Reuse the memoized tail only when the window's exit cardinality agrees
/// with the memoized one to this relative precision; otherwise the
/// clamping order changed inside the window and the tail is recomputed.
const TAIL_REUSE_EPS: f64 = 1e-12;

/// Agreement tolerance between an incremental evaluation and a
/// from-scratch walk (relative). The only legitimate divergence is ulp
/// drift from re-associating the tail sum; any logic bug produces
/// differences many orders of magnitude larger.
const AGREEMENT_EPS: f64 = 1e-9;

/// Which cardinality estimator an [`IncrementalEvaluator`] mirrors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimator {
    /// The static System-R estimator of [`crate::estimate`] — what
    /// [`crate::Evaluator::cost`] and [`OrderCost::order_cost`] use.
    Static,
    /// Distinct-value propagation ([`crate::propagate`]); the reference
    /// full walk is [`order_cost_propagated`].
    Propagated,
}

/// A move evaluated but not yet committed or rolled back.
#[derive(Debug, Clone, Copy)]
struct Pending {
    mv: Move,
    /// First position whose memoized state is stale.
    lo: usize,
    /// Last position of the move's permutation window.
    hi: usize,
    /// Last position covered by the candidate scratch arrays.
    cand_to: usize,
    /// Whether the evaluation reused the memoized tail (static mode only);
    /// if so, `commit` must recompute positions after `cand_to`.
    reused_tail: bool,
}

/// Memoized per-prefix cost state of one join order, supporting O(window)
/// move evaluation for the local-search methods.
///
/// The evaluator owns the current [`JoinOrder`] and keeps, for every
/// position `p`, the accumulated cost and intermediate cardinality of the
/// prefix `order[..=p]` — bit-identical to what a from-scratch walk
/// ([`OrderCost::order_cost`] or [`order_cost_propagated`]) would produce.
/// The move protocol is:
///
/// 1. apply a [`Move`] to [`IncrementalEvaluator::order_mut`] (this is
///    what [`ljqo_plan::MoveGenerator::propose_counted`] does), or use the
///    [`IncrementalEvaluator::eval_move`] convenience;
/// 2. call [`IncrementalEvaluator::eval_applied`] for the candidate cost;
/// 3. [`IncrementalEvaluator::commit`] to adopt the move, or
///    [`IncrementalEvaluator::rollback`] to undo it.
///
/// Budget charging and best-so-far tracking remain the job of
/// [`crate::Evaluator`]; see [`crate::Evaluator::begin_incremental`] and
/// [`crate::Evaluator::cost_move`], which drive this type on behalf of the
/// optimizers. Whole-order costing ([`OrderCost`]) is the per-step sum of
/// [`CostModel::join_cost`] for every model, so this path is exact for
/// all of them.
pub struct IncrementalEvaluator<'a> {
    query: &'a Query,
    model: &'a dyn CostModel,
    /// Compiled snapshot of `query`: CSR adjacency with pre-resolved
    /// other-endpoints and selectivities, the backing store of the hot
    /// [`IncrementalEvaluator::static_step`] loop. Iterates edges in
    /// exactly [`ljqo_catalog::JoinGraph::incident`] order, so compiled
    /// selectivity folds stay bit-identical to the edge-chasing walk.
    compiled: Arc<CompiledQuery>,
    estimator: Estimator,
    order: JoinOrder,
    /// Position of each relation in `order` (`usize::MAX` when absent, as
    /// for relations of other components).
    pos: Vec<usize>,
    /// `prefix_cost[p]` = accumulated cost after the step at position `p`
    /// (`prefix_cost[0] == 0`: placing the first relation is free).
    prefix_cost: Vec<f64>,
    /// `prefix_card[p]` = cardinality of the intermediate over
    /// `order[..=p]`.
    prefix_card: Vec<f64>,
    /// Propagated mode only: distinct-value state after each prefix.
    snapshots: Vec<DistinctState>,
    /// Candidate step costs / cardinalities for positions
    /// `pending.lo ..= pending.cand_to` of the perturbed order.
    cand_cost: Vec<f64>,
    cand_card: Vec<f64>,
    scratch_edges: Vec<(EdgeId, f64, f64)>,
    /// Propagated mode: reusable walk state for evaluations, resumed from
    /// a memoized snapshot via [`DistinctState::copy_from`] instead of a
    /// per-evaluation clone. `Option` so it can be moved out during the
    /// walk (the vectors inside keep their capacity either way).
    scratch_state: Option<DistinctState>,
    pending: Option<Pending>,
}

impl<'a> IncrementalEvaluator<'a> {
    /// Build the memoized state for `order` (one full walk, `O(N·deg)`),
    /// compiling the query on the way in. Callers that already hold a
    /// [`CompiledQuery`] (e.g. [`crate::Evaluator`]) should use
    /// [`IncrementalEvaluator::with_compiled`] to share it instead.
    pub fn new(
        query: &'a Query,
        model: &'a dyn CostModel,
        estimator: Estimator,
        order: JoinOrder,
    ) -> Self {
        let compiled = Arc::new(CompiledQuery::new(query));
        Self::with_compiled(query, model, estimator, order, compiled)
    }

    /// As [`IncrementalEvaluator::new`], but reusing an existing compiled
    /// snapshot of `query` (it must describe the same query).
    pub fn with_compiled(
        query: &'a Query,
        model: &'a dyn CostModel,
        estimator: Estimator,
        order: JoinOrder,
        compiled: Arc<CompiledQuery>,
    ) -> Self {
        debug_assert_eq!(compiled.n_relations(), query.n_relations());
        let n = order.len();
        let mut inc = IncrementalEvaluator {
            query,
            model,
            compiled,
            estimator,
            order,
            pos: vec![usize::MAX; query.n_relations()],
            prefix_cost: vec![0.0; n],
            prefix_card: vec![0.0; n],
            snapshots: Vec::new(),
            cand_cost: Vec::with_capacity(n),
            cand_card: Vec::with_capacity(n),
            scratch_edges: Vec::new(),
            scratch_state: match estimator {
                Estimator::Static => None,
                Estimator::Propagated => Some(DistinctState::new(query)),
            },
            pending: None,
        };
        inc.rebuild();
        inc
    }

    /// The estimator this evaluator mirrors.
    #[inline]
    pub fn estimator(&self) -> Estimator {
        self.estimator
    }

    /// The current order (with a pending move applied, if any).
    #[inline]
    pub fn order(&self) -> &JoinOrder {
        &self.order
    }

    /// Mutable access to the order **for move application only** (this is
    /// what the move generator perturbs). Any structural change other than
    /// applying a single [`Move`] and then calling
    /// [`IncrementalEvaluator::eval_applied`] invalidates the memoized
    /// state; use [`IncrementalEvaluator::reset`] for arbitrary rewrites.
    #[inline]
    pub fn order_mut(&mut self) -> &mut JoinOrder {
        &mut self.order
    }

    /// Consume the evaluator, returning the current order.
    pub fn into_order(self) -> JoinOrder {
        debug_assert!(
            self.pending.is_none(),
            "pending move neither kept nor undone"
        );
        self.order
    }

    /// Replace the current order and rebuild the memoized state from
    /// scratch (used when a search restarts from its best-so-far state).
    pub fn reset(&mut self, order: JoinOrder) {
        self.pending = None;
        let n = order.len();
        self.order = order;
        self.prefix_cost.resize(n, 0.0);
        self.prefix_card.resize(n, 0.0);
        self.rebuild();
    }

    /// Cost of the current order, read from the memoized state (free).
    /// Identical to what [`crate::Evaluator::cost`] would return for the
    /// same order (after saturation via [`sanitize_cost`]).
    pub fn current_cost(&self) -> f64 {
        debug_assert!(
            self.pending.is_none(),
            "pending move neither kept nor undone"
        );
        match self.prefix_cost.last() {
            Some(&total) => sanitize_cost(total.min(f64::MAX)),
            None => 0.0,
        }
    }

    /// From-scratch reference cost of the current order (including a
    /// pending move, if one is applied): the exact value the incremental
    /// path must reproduce. `O(N·deg)` — for tests, debug assertions and
    /// callers that need an authoritative re-check.
    pub fn full_eval(&self) -> f64 {
        let raw = match self.estimator {
            Estimator::Static => self.model.order_cost(self.query, self.order.rels()),
            Estimator::Propagated => {
                order_cost_propagated(self.query, self.model, self.order.rels())
            }
        };
        sanitize_cost(raw)
    }

    /// Apply `mv` to the order and evaluate it incrementally. Convenience
    /// wrapper around [`IncrementalEvaluator::eval_applied`] for callers
    /// that don't route application through a move generator.
    pub fn eval_move(&mut self, mv: &Move) -> f64 {
        mv.apply(&mut self.order);
        self.eval_applied(mv)
    }

    /// Evaluate the already-applied move `mv` against the memoized prefix
    /// state, re-costing only from `mv.first_touched()`. Returns the
    /// saturated candidate cost. The move stays applied and *must* be
    /// resolved with [`IncrementalEvaluator::commit`] or
    /// [`IncrementalEvaluator::rollback`] before the next evaluation.
    pub fn eval_applied(&mut self, mv: &Move) -> f64 {
        debug_assert!(
            self.pending.is_none(),
            "pending move neither kept nor undone"
        );
        let n = self.order.len();
        let lo = mv.first_touched();
        let hi = mv.last_touched();
        debug_assert!(hi < n, "move window exceeds the order");
        let raw = match self.estimator {
            Estimator::Static => self.eval_static(mv, lo, hi),
            Estimator::Propagated => self.eval_propagated(mv, lo, hi),
        };
        sanitize_cost(raw.min(f64::MAX))
    }

    /// Keep the pending move: adopt the candidate window into the memoized
    /// state and re-establish the bit-exact full-walk invariant for the
    /// suffix. `O(N − first_touched)`.
    pub fn commit(&mut self) {
        let p = self
            .pending
            .take()
            .expect("commit without a pending evaluation");
        let n = self.order.len();
        // Re-index the permuted window.
        for q in p.lo..=p.hi {
            self.pos[self.order.at(q).index()] = q;
        }
        // Adopt the candidate steps (bit-identical to a fresh walk, since
        // they chain from the untouched — hence bit-exact — prefix).
        for (i, q) in (p.lo..=p.cand_to).enumerate() {
            self.prefix_card[q] = self.cand_card[i];
            self.prefix_cost[q] = if q == 0 {
                self.cand_cost[i]
            } else {
                self.prefix_cost[q - 1] + self.cand_cost[i]
            };
        }
        // If the evaluation reused the memoized tail, recompute it now with
        // the exact full-walk operation sequence so the memoized state
        // stays bit-identical to a from-scratch walk of the new order.
        if p.reused_tail {
            for q in p.cand_to + 1..n {
                let (step, output) = self.static_step(q, self.prefix_card[q - 1], |pos| pos);
                self.prefix_cost[q] = self.prefix_cost[q - 1] + step;
                self.prefix_card[q] = output;
            }
        }
        if self.estimator == Estimator::Propagated {
            self.rebuild_snapshots_from(p.lo);
        }
    }

    /// Discard the pending move: undo it on the order. The memoized state
    /// (which still describes the pre-move order) is untouched, so this is
    /// `O(window)`.
    pub fn rollback(&mut self) {
        let p = self
            .pending
            .take()
            .expect("rollback without a pending evaluation");
        p.mv.undo(&mut self.order);
    }

    /// One static-estimator join step at position `q` of the current
    /// order, with `outer` rows entering. `placed_pos` maps a memoized
    /// position to its position in the order being walked (identity when
    /// the memoized index is current; [`Move::dest`] during evaluation of
    /// a pending move). Returns `(step_cost, output_card)`.
    #[inline]
    fn static_step(&self, q: usize, outer: f64, placed_pos: impl Fn(usize) -> usize) -> (f64, f64) {
        let inner = self.order.at(q);
        let cq = &*self.compiled;
        let inner_card = cq.cardinality(inner);
        // Mirrors `estimate::selectivity_into`: the compiled slots iterate
        // incident edges in exactly `JoinGraph::incident` order with the
        // same multiplication order — required for bit-exact agreement
        // with the full walk. The CSR layout pre-resolves each edge's
        // other endpoint and selectivity into flat arrays, so the loop
        // body is two array reads and a position compare.
        let mut sel: Option<f64> = None;
        for s in cq.slot_range(inner) {
            let o = cq.slot_other(s);
            if placed_pos(self.pos[o.index()]) < q {
                *sel.get_or_insert(1.0) *= cq.slot_selectivity(s);
            }
        }
        let output = clamp_card(outer * inner_card * sel.unwrap_or(1.0));
        let step = self.model.join_cost(&JoinCtx {
            outer_card: outer,
            inner_card,
            output_card: output,
            outer_rels: q,
            is_cross_product: sel.is_none(),
        });
        (step, output)
    }

    fn eval_static(&mut self, mv: &Move, lo: usize, hi: usize) -> f64 {
        let n = self.order.len();
        self.cand_cost.clear();
        self.cand_card.clear();
        let (mut cost, mut card) = if lo == 0 {
            let c0 = clamp_card(self.query.cardinality(self.order.at(0)));
            self.cand_cost.push(0.0);
            self.cand_card.push(c0);
            (0.0, c0)
        } else {
            (self.prefix_cost[lo - 1], self.prefix_card[lo - 1])
        };
        // Window: recompute each step against the perturbed placement. The
        // position index still describes the pre-move order, so route
        // placement tests through the move's `dest` oracle. (`dest` of
        // `usize::MAX` — an absent relation — stays astronomically large
        // and therefore never tests as placed.)
        for q in lo.max(1)..=hi {
            let (step, output) = self.static_step(q, card, |pos| mv.dest(pos));
            cost += step;
            self.cand_cost.push(step);
            self.cand_card.push(output);
            card = output;
        }
        let mut cand_to = hi;
        let mut reused_tail = false;
        if hi + 1 < n {
            // Tail: the placed set below every tail position is unchanged,
            // so the memoized tail costs apply to the perturbed order too
            // (up to ulp re-association) — provided the cardinality
            // entering the tail is the memoized one. When clamping made
            // the window's exit cardinality diverge, fall back to an
            // explicit tail walk.
            let memo_exit = self.prefix_card[hi];
            if card == memo_exit || ((card - memo_exit) / memo_exit).abs() <= TAIL_REUSE_EPS {
                cost += self.prefix_cost[n - 1] - self.prefix_cost[hi];
                reused_tail = true;
            } else {
                for q in hi + 1..n {
                    let (step, output) = self.static_step(q, card, |pos| mv.dest(pos));
                    cost += step;
                    self.cand_cost.push(step);
                    self.cand_card.push(output);
                    card = output;
                }
                cand_to = n - 1;
            }
        }
        self.pending = Some(Pending {
            mv: *mv,
            lo,
            hi,
            cand_to,
            reused_tail,
        });
        cost
    }

    fn eval_propagated(&mut self, mv: &Move, lo: usize, hi: usize) -> f64 {
        let n = self.order.len();
        self.cand_cost.clear();
        self.cand_card.clear();
        // The distinct-value state mutates at every step (Yao shrinkage
        // touches the present columns), so the tail cannot be reused:
        // resume the reusable scratch state from the snapshot at the
        // window start (allocation-free — `copy_from` reuses the scratch's
        // full-capacity buffers) and re-walk the whole suffix.
        let mut state = self
            .scratch_state
            .take()
            .expect("propagated evaluator always owns a scratch state");
        let (mut cost, mut card) = if lo == 0 {
            state.reset();
            state.admit_first(self.query, self.order.at(0));
            let c0 = clamp_card(self.query.cardinality(self.order.at(0)));
            self.cand_cost.push(0.0);
            self.cand_card.push(c0);
            (0.0, c0)
        } else {
            state.copy_from(&self.snapshots[lo - 1]);
            (self.prefix_cost[lo - 1], self.prefix_card[lo - 1])
        };
        let mut joined = std::mem::take(&mut self.scratch_edges);
        for q in lo.max(1)..n {
            let inner = self.order.at(q);
            let inner_card = self.query.cardinality(inner);
            joined.clear();
            let sel = state.join_selectivity(self.query, inner, &mut joined);
            let output = clamp_card(card * inner_card * sel.unwrap_or(1.0));
            let step = self.model.join_cost(&JoinCtx {
                outer_card: card,
                inner_card,
                output_card: output,
                outer_rels: q,
                is_cross_product: sel.is_none(),
            });
            state.place(self.query, inner, output, &joined);
            cost += step;
            self.cand_cost.push(step);
            self.cand_card.push(output);
            card = output;
        }
        self.scratch_edges = joined;
        self.scratch_state = Some(state);
        self.pending = Some(Pending {
            mv: *mv,
            lo,
            hi,
            cand_to: n.saturating_sub(1),
            reused_tail: false,
        });
        cost
    }

    /// Rebuild the full memoized state with the exact full-walk operation
    /// sequence.
    fn rebuild(&mut self) {
        let n = self.order.len();
        for p in self.pos.iter_mut() {
            *p = usize::MAX;
        }
        for q in 0..n {
            self.pos[self.order.at(q).index()] = q;
        }
        if n == 0 {
            self.snapshots.clear();
            return;
        }
        self.prefix_card[0] = clamp_card(self.query.cardinality(self.order.at(0)));
        self.prefix_cost[0] = 0.0;
        match self.estimator {
            Estimator::Static => {
                for q in 1..n {
                    let (step, output) = self.static_step(q, self.prefix_card[q - 1], |pos| pos);
                    self.prefix_cost[q] = self.prefix_cost[q - 1] + step;
                    self.prefix_card[q] = output;
                }
            }
            Estimator::Propagated => {
                // Size the snapshot store with full-capacity states (via
                // `DistinctState::new`, never `clone`, whose vectors carry
                // exact-length capacities) so later `copy_from` writes can
                // never reallocate.
                self.snapshots.truncate(n);
                while self.snapshots.len() < n {
                    self.snapshots.push(DistinctState::new(self.query));
                }
                let mut state = self
                    .scratch_state
                    .take()
                    .expect("propagated evaluator always owns a scratch state");
                state.reset();
                state.admit_first(self.query, self.order.at(0));
                self.snapshots[0].copy_from(&state);
                let mut joined = std::mem::take(&mut self.scratch_edges);
                for q in 1..n {
                    let inner = self.order.at(q);
                    let inner_card = self.query.cardinality(inner);
                    joined.clear();
                    let sel = state.join_selectivity(self.query, inner, &mut joined);
                    let card = self.prefix_card[q - 1];
                    let output = clamp_card(card * inner_card * sel.unwrap_or(1.0));
                    let step = self.model.join_cost(&JoinCtx {
                        outer_card: card,
                        inner_card,
                        output_card: output,
                        outer_rels: q,
                        is_cross_product: sel.is_none(),
                    });
                    state.place(self.query, inner, output, &joined);
                    self.prefix_cost[q] = self.prefix_cost[q - 1] + step;
                    self.prefix_card[q] = output;
                    self.snapshots[q].copy_from(&state);
                }
                self.scratch_edges = joined;
                self.scratch_state = Some(state);
            }
        }
    }

    /// Recompute the distinct-value snapshots from position `from` on
    /// (after a commit adopted new prefix cardinalities).
    fn rebuild_snapshots_from(&mut self, from: usize) {
        let n = self.order.len();
        debug_assert_eq!(self.snapshots.len(), n);
        let mut state = self
            .scratch_state
            .take()
            .expect("propagated evaluator always owns a scratch state");
        if from == 0 {
            state.reset();
            state.admit_first(self.query, self.order.at(0));
            self.snapshots[0].copy_from(&state);
        } else {
            state.copy_from(&self.snapshots[from - 1]);
        }
        let mut joined = std::mem::take(&mut self.scratch_edges);
        for q in from.max(1)..n {
            let inner = self.order.at(q);
            joined.clear();
            let _sel = state.join_selectivity(self.query, inner, &mut joined);
            state.place(self.query, inner, self.prefix_card[q], &joined);
            self.snapshots[q].copy_from(&state);
        }
        self.scratch_edges = joined;
        self.scratch_state = Some(state);
    }
}

/// Whether two saturated costs agree up to the incremental path's
/// re-association tolerance (used by the debug-mode agreement assertion
/// and the cross-checking property tests).
pub fn costs_agree(a: f64, b: f64) -> bool {
    if a == b {
        return true;
    }
    let scale = a.abs().max(b.abs());
    (a - b).abs() <= scale * AGREEMENT_EPS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryCostModel;
    use ljqo_catalog::{QueryBuilder, RelId};

    fn q() -> Query {
        QueryBuilder::new()
            .relation("a", 3000)
            .relation("b", 12)
            .relation("c", 700)
            .relation("d", 55)
            .relation("e", 1400)
            .relation("f", 9)
            .join("a", "b", 0.01)
            .join("b", "c", 0.002)
            .join("c", "d", 0.05)
            .join("d", "e", 0.001)
            .join("e", "f", 0.2)
            .build()
            .unwrap()
    }

    fn moves() -> Vec<Move> {
        vec![
            Move::Swap { i: 0, j: 1 },
            Move::Swap { i: 4, j: 5 },
            Move::Swap { i: 0, j: 5 },
            Move::Swap { i: 2, j: 4 },
            Move::ThreeCycle { i: 1, j: 3, k: 5 },
            Move::ThreeCycle { i: 5, j: 0, k: 2 },
            Move::Reinsert { from: 0, to: 4 },
            Move::Reinsert { from: 5, to: 1 },
            Move::Reinsert { from: 2, to: 3 },
        ]
    }

    #[test]
    fn initial_state_matches_full_walk() {
        let query = q();
        let model = MemoryCostModel::default();
        for est in [Estimator::Static, Estimator::Propagated] {
            let inc = IncrementalEvaluator::new(&query, &model, est, JoinOrder::identity(&query));
            assert_eq!(inc.current_cost(), inc.full_eval(), "{est:?}");
        }
    }

    #[test]
    fn eval_commit_keeps_state_bit_exact() {
        let query = q();
        let model = MemoryCostModel::default();
        for est in [Estimator::Static, Estimator::Propagated] {
            let mut inc =
                IncrementalEvaluator::new(&query, &model, est, JoinOrder::identity(&query));
            for mv in moves() {
                let got = inc.eval_move(&mv);
                let want = inc.full_eval();
                assert!(
                    costs_agree(got, want),
                    "{est:?} {mv:?}: incremental {got} vs full {want}"
                );
                inc.commit();
                // The committed state must be bit-identical to a fresh walk.
                assert_eq!(inc.current_cost(), inc.full_eval(), "{est:?} {mv:?}");
            }
        }
    }

    #[test]
    fn rollback_restores_order_and_cost() {
        let query = q();
        let model = MemoryCostModel::default();
        let mut inc = IncrementalEvaluator::new(
            &query,
            &model,
            Estimator::Static,
            JoinOrder::identity(&query),
        );
        let before_cost = inc.current_cost();
        let before_order = inc.order().clone();
        for mv in moves() {
            inc.eval_move(&mv);
            inc.rollback();
            assert_eq!(*inc.order(), before_order, "{mv:?}");
            assert_eq!(inc.current_cost(), before_cost, "{mv:?}");
        }
    }

    #[test]
    fn reset_rebuilds_for_an_arbitrary_order() {
        let query = q();
        let model = MemoryCostModel::default();
        let mut inc = IncrementalEvaluator::new(
            &query,
            &model,
            Estimator::Static,
            JoinOrder::identity(&query),
        );
        let mut rev: Vec<RelId> = query.rel_ids().collect();
        rev.reverse();
        inc.reset(JoinOrder::new(rev));
        assert_eq!(inc.current_cost(), inc.full_eval());
    }

    #[test]
    fn singleton_and_empty_orders_cost_zero() {
        let query = q();
        let model = MemoryCostModel::default();
        let inc = IncrementalEvaluator::new(
            &query,
            &model,
            Estimator::Static,
            JoinOrder::new(vec![RelId(2)]),
        );
        assert_eq!(inc.current_cost(), 0.0);
        let inc =
            IncrementalEvaluator::new(&query, &model, Estimator::Static, JoinOrder::new(vec![]));
        assert_eq!(inc.current_cost(), 0.0);
    }
}
