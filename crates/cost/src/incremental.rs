//! Incremental (delta) cost evaluation for local-search moves.
//!
//! Iterative improvement and simulated annealing spend essentially their
//! whole budget evaluating *perturbed* permutations, yet a full
//! re-evaluation recomputes every join step even though a move only
//! rearranges a small window of the order. This module memoizes per-prefix
//! state of the current order — accumulated cost and intermediate
//! cardinality under the static estimator of [`crate::estimate`] — and
//! re-costs only what a move can change. Every step it prices, in the
//! move window, the tail, a commit or a rebuild, is
//! [`crate::estimate::join_step`], the step of the full walk.
//!
//! # The window argument
//!
//! Every [`Move`] permutes relations within the window
//! `[first_touched, last_touched]` and leaves all other positions fixed.
//! The step cost at position `q` depends only on the *set* of relations
//! placed before `q` (which determines the selectivities and, as a
//! product, the running cardinality), the inner relation at `q`, and `q`
//! itself. Consequently:
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
//! (the differential suites check agreement within `1e-9` relative). Two guard
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
//! # Example
//!
//! ```
//! use ljqo_catalog::QueryBuilder;
//! use ljqo_cost::{IncrementalEvaluator, MemoryCostModel};
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
//! let mut inc = IncrementalEvaluator::new(&query, &model, order);
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

use ljqo_catalog::bitset::{copy_mask, set_bit};
use ljqo_catalog::{CompiledQuery, Query};
use ljqo_plan::{JoinOrder, Move};

use crate::estimate::{clamp_card, join_step, SizeWalker};
use crate::model::{CostModel, OrderCost};
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
    /// Whether the evaluation reused the memoized tail; if so, `commit`
    /// must recompute positions after `cand_to`.
    reused_tail: bool,
    /// Whether the cost came from the swap memo, so the candidate scratch
    /// arrays were never filled and `commit` must walk the window first.
    memo_hit: bool,
}

/// Memoized per-prefix cost state of one join order, supporting O(window)
/// move evaluation for the local-search methods.
///
/// The evaluator owns the current [`JoinOrder`] and keeps, for every
/// position `p`, the accumulated cost and intermediate cardinality of the
/// prefix `order[..=p]` — bit-identical to what a from-scratch walk
/// ([`OrderCost::order_cost`]) would produce. The move protocol is:
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
    model: &'a dyn CostModel,
    /// Compiled snapshot of the query, the one the full walk
    /// ([`SizeWalker`]) prices against.
    compiled: Arc<CompiledQuery>,
    order: JoinOrder,
    /// Words per placed-set mask ([`CompiledQuery::mask_stride`]).
    stride: usize,
    /// Prefix-mask table: row `q` (words `q·stride ..< (q+1)·stride`) is
    /// the set of relations at positions `< q` of the memoized order —
    /// the placed set the step at `q` folds its selectivities against.
    /// Relations of other components never appear, so they never test as
    /// placed.
    prefix_mask: Vec<u64>,
    /// Running placed set of a candidate walk, seeded from the prefix row
    /// at the window start.
    scratch_mask: Vec<u64>,
    /// `prefix_cost[p]` = accumulated cost after the step at position `p`
    /// (`prefix_cost[0] == 0`: placing the first relation is free).
    prefix_cost: Vec<f64>,
    /// `step_cost[p]` = cost of the step at position `p` alone, so a
    /// commit whose window leaves the tail's inputs bit-identical can
    /// re-sum the tail without re-pricing it.
    step_cost: Vec<f64>,
    /// `prefix_card[p]` = cardinality of the intermediate over
    /// `order[..=p]`.
    prefix_card: Vec<f64>,
    /// Candidate step costs / cardinalities for positions
    /// `pending.lo ..= pending.cand_to` of the perturbed order (entry `i`
    /// describes position `pending.lo + i`).
    cand_cost: Vec<f64>,
    cand_card: Vec<f64>,
    /// Swap-cost memo for the current state: slot [`swap_slot`]`(i, j)`
    /// holds the saturated cost of `Swap { i, j }`, valid when its stamp
    /// equals `generation`. The search loops draw the same swap from the
    /// same state repeatedly near a local minimum; a repeat returns the
    /// stored bits instead of re-walking the window.
    memo_stamp: Vec<u32>,
    memo_cost: Vec<f64>,
    /// Current state's generation, bumped by every commit and reset so
    /// all memo entries of the previous state go stale at once.
    generation: u32,
    /// Evaluations answered from the memo.
    memo_hits: u64,
    pending: Option<Pending>,
}

impl<'a> IncrementalEvaluator<'a> {
    /// Build the memoized state for `order` (one full walk, `O(N·deg)`),
    /// compiling the query on the way in. Callers that already hold a
    /// [`CompiledQuery`] (e.g. [`crate::Evaluator`]) should use
    /// [`IncrementalEvaluator::with_compiled`] to share it instead.
    pub fn new(query: &'a Query, model: &'a dyn CostModel, order: JoinOrder) -> Self {
        let compiled = Arc::new(CompiledQuery::new(query));
        Self::with_compiled(query, model, order, compiled)
    }

    /// As [`IncrementalEvaluator::new`], but reusing an existing compiled
    /// snapshot of `query` (it must describe the same query).
    pub fn with_compiled(
        query: &'a Query,
        model: &'a dyn CostModel,
        order: JoinOrder,
        compiled: Arc<CompiledQuery>,
    ) -> Self {
        debug_assert_eq!(compiled.n_relations(), query.n_relations());
        let n = order.len();
        let stride = compiled.mask_stride();
        let mut inc = IncrementalEvaluator {
            model,
            compiled,
            order,
            stride,
            prefix_mask: vec![0; (n + 1) * stride],
            scratch_mask: vec![0; stride],
            prefix_cost: vec![0.0; n],
            step_cost: vec![0.0; n],
            prefix_card: vec![0.0; n],
            cand_cost: vec![0.0; n],
            cand_card: vec![0.0; n],
            memo_stamp: vec![0; swap_slots(n)],
            memo_cost: vec![0.0; swap_slots(n)],
            generation: 0,
            memo_hits: 0,
            pending: None,
        };
        inc.rebuild();
        inc
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
        self.prefix_mask.resize((n + 1) * self.stride, 0);
        self.prefix_cost.resize(n, 0.0);
        self.step_cost.resize(n, 0.0);
        self.prefix_card.resize(n, 0.0);
        self.cand_cost.resize(n, 0.0);
        self.cand_card.resize(n, 0.0);
        self.memo_stamp.resize(swap_slots(n), 0);
        self.memo_cost.resize(swap_slots(n), 0.0);
        self.rebuild();
    }

    /// Evaluations [`IncrementalEvaluator::eval_applied`] answered from
    /// the swap memo (a swap already evaluated from the current state).
    #[inline]
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
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
    /// path must reproduce. `O(N·deg)` — for tests and
    /// callers that need an authoritative re-check.
    pub fn full_eval(&self) -> f64 {
        let mut walker = SizeWalker::with_compiled(Arc::clone(&self.compiled));
        sanitize_cost(self.model.order_cost_with(&mut walker, self.order.rels()))
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
    ///
    /// A swap already evaluated from the current state returns the cost
    /// stored then, bit for bit, without walking the window.
    pub fn eval_applied(&mut self, mv: &Move) -> f64 {
        debug_assert!(
            self.pending.is_none(),
            "pending move neither kept nor undone"
        );
        let lo = mv.first_touched();
        let hi = mv.last_touched();
        debug_assert!(hi < self.order.len(), "move window exceeds the order");
        let slot = match *mv {
            Move::Swap { .. } if lo < hi => Some(swap_slot(lo, hi)),
            _ => None,
        };
        if let Some(slot) = slot {
            if self.memo_stamp[slot] == self.generation {
                self.memo_hits += 1;
                self.pending = Some(Pending {
                    mv: *mv,
                    lo,
                    hi,
                    cand_to: hi,
                    reused_tail: false,
                    memo_hit: true,
                });
                return self.memo_cost[slot];
            }
        }
        let cost = self.eval_window(mv, lo, hi);
        if let Some(slot) = slot {
            self.memo_stamp[slot] = self.generation;
            self.memo_cost[slot] = cost;
        }
        cost
    }

    /// Walk the window of the applied move `mv` (and the tail, where it
    /// cannot be reused), filling the candidate scratch arrays and the
    /// pending record. Returns the saturated candidate cost.
    fn eval_window(&mut self, mv: &Move, lo: usize, hi: usize) -> f64 {
        let n = self.order.len();
        let stride = self.stride;
        // The placed set before `lo` is untouched by the move: seed the
        // running mask from the prefix table and extend it along the
        // perturbed order.
        let mut placed = std::mem::take(&mut self.scratch_mask);
        copy_mask(
            &mut placed,
            &self.prefix_mask[lo * stride..(lo + 1) * stride],
        );
        let (mut cost, mut card) = if lo == 0 {
            let c0 = self.first_card();
            self.cand_cost[0] = 0.0;
            self.cand_card[0] = c0;
            set_bit(&mut placed, self.order.at(0).index());
            (0.0, c0)
        } else {
            (self.prefix_cost[lo - 1], self.prefix_card[lo - 1])
        };
        // Window: recompute each step against the perturbed placement.
        for q in lo.max(1)..=hi {
            let (step, output) = self.step(q, card, &placed);
            set_bit(&mut placed, self.order.at(q).index());
            cost += step;
            self.cand_cost[q - lo] = step;
            self.cand_card[q - lo] = output;
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
                    let (step, output) = self.step(q, card, &placed);
                    set_bit(&mut placed, self.order.at(q).index());
                    cost += step;
                    self.cand_cost[q - lo] = step;
                    self.cand_card[q - lo] = output;
                    card = output;
                }
                cand_to = n - 1;
            }
        }
        self.scratch_mask = placed;
        self.pending = Some(Pending {
            mv: *mv,
            lo,
            hi,
            cand_to,
            reused_tail,
            memo_hit: false,
        });
        sanitize_cost(cost.min(f64::MAX))
    }

    /// Recompute prefix-mask rows `from..=to` (`from ≥ 1`), each from the
    /// row before it and the current order.
    fn fill_prefix_masks(&mut self, from: usize, to: usize) {
        let stride = self.stride;
        for q in from..=to {
            let (head, tail) = self.prefix_mask.split_at_mut(q * stride);
            copy_mask(&mut tail[..stride], &head[(q - 1) * stride..]);
            set_bit(&mut tail[..stride], self.order.at(q - 1).index());
        }
    }

    /// Start a new state: every memo entry stamped before this call goes
    /// stale.
    fn next_generation(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamps from 2³² states ago would read as current again.
            self.memo_stamp.fill(0);
            self.generation = 1;
        }
    }

    /// Keep the pending move: adopt the candidate window into the memoized
    /// state and re-establish the bit-exact full-walk invariant for the
    /// suffix. `O(N − first_touched)`.
    pub fn commit(&mut self) {
        let mut p = self
            .pending
            .take()
            .expect("commit without a pending evaluation");
        if p.memo_hit {
            // The memo stored only the cost: walk the window now to fill
            // the candidate arrays (the same walk that produced it).
            self.eval_window(&p.mv, p.lo, p.hi);
            p = self.pending.take().expect("the walk records its move");
        }
        let n = self.order.len();
        // Prefix-mask rows up to `lo` see only untouched positions and
        // rows past `hi` see the same set; only the window's rows change.
        self.fill_prefix_masks(p.lo + 1, p.hi);
        let stride = self.stride;
        let old_exit = self.prefix_card[p.cand_to];
        // Adopt the candidate steps (bit-identical to a fresh walk, since
        // they chain from the untouched — hence bit-exact — prefix).
        for (i, q) in (p.lo..=p.cand_to).enumerate() {
            self.prefix_card[q] = self.cand_card[i];
            self.step_cost[q] = self.cand_cost[i];
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
            if self.prefix_card[p.cand_to] == old_exit {
                // Every tail step sees the same placed set, inner relation
                // and entering cardinality as before, so it prices to the
                // same bits: only the running sum moves.
                for q in p.cand_to + 1..n {
                    self.prefix_cost[q] = self.prefix_cost[q - 1] + self.step_cost[q];
                }
            } else {
                for q in p.cand_to + 1..n {
                    let placed = &self.prefix_mask[q * stride..(q + 1) * stride];
                    let (step, output) = self.step(q, self.prefix_card[q - 1], placed);
                    self.step_cost[q] = step;
                    self.prefix_cost[q] = self.prefix_cost[q - 1] + step;
                    self.prefix_card[q] = output;
                }
            }
        }
        self.next_generation();
    }

    /// Discard the pending move: undo it on the order. The memoized state
    /// (which still describes the pre-move order) is untouched, so this is
    /// `O(window)`.
    #[inline]
    pub fn rollback(&mut self) {
        let p = self
            .pending
            .take()
            .expect("rollback without a pending evaluation");
        p.mv.undo(&mut self.order);
    }

    /// The join step at position `q` of the order being walked, with
    /// `outer` rows entering and `placed` (a `stride`-word mask) the set
    /// of relations before `q`. Returns `(step_cost, output_card)`.
    #[inline(always)]
    fn step(&self, q: usize, outer: f64, placed: &[u64]) -> (f64, f64) {
        let ctx = join_step(&self.compiled, self.order.at(q), outer, q, placed);
        (self.model.join_cost(&ctx), ctx.output_card)
    }

    /// Clamped cardinality of the relation at position 0 of the order
    /// being walked (its prefix is the relation itself).
    #[inline]
    fn first_card(&self) -> f64 {
        clamp_card(self.compiled.cardinality(self.order.at(0)))
    }

    /// Rebuild the full memoized state with the exact full-walk operation
    /// sequence.
    fn rebuild(&mut self) {
        self.next_generation();
        let n = self.order.len();
        let stride = self.stride;
        self.prefix_mask[..stride].fill(0);
        self.fill_prefix_masks(1, n);
        if n == 0 {
            return;
        }
        self.prefix_card[0] = self.first_card();
        self.prefix_cost[0] = 0.0;
        self.step_cost[0] = 0.0;
        for q in 1..n {
            let placed = &self.prefix_mask[q * stride..(q + 1) * stride];
            let (step, output) = self.step(q, self.prefix_card[q - 1], placed);
            self.step_cost[q] = step;
            self.prefix_cost[q] = self.prefix_cost[q - 1] + step;
            self.prefix_card[q] = output;
        }
    }
}

/// Number of swap-memo slots for an order of length `n`: one per pair of
/// positions.
fn swap_slots(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

/// Memo slot of `Swap { i: lo, j: hi }` (`lo < hi`): the pairs are laid
/// out row by row of `hi`.
#[inline]
fn swap_slot(lo: usize, hi: usize) -> usize {
    debug_assert!(lo < hi);
    hi * (hi - 1) / 2 + lo
}

/// Whether two saturated costs agree up to the incremental path's
/// re-association tolerance (used by the cross-checking property tests).
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
        let inc = IncrementalEvaluator::new(&query, &model, JoinOrder::identity(&query));
        assert_eq!(inc.current_cost(), inc.full_eval());
    }

    #[test]
    fn eval_commit_keeps_state_bit_exact() {
        let query = q();
        let model = MemoryCostModel::default();
        let mut inc = IncrementalEvaluator::new(&query, &model, JoinOrder::identity(&query));
        for mv in moves() {
            let got = inc.eval_move(&mv);
            let want = inc.full_eval();
            assert!(
                costs_agree(got, want),
                "{mv:?}: incremental {got} vs full {want}"
            );
            inc.commit();
            // The committed state must be bit-identical to a fresh walk.
            assert_eq!(inc.current_cost(), inc.full_eval(), "{mv:?}");
        }
    }

    #[test]
    fn rollback_restores_order_and_cost() {
        let query = q();
        let model = MemoryCostModel::default();
        let mut inc = IncrementalEvaluator::new(&query, &model, JoinOrder::identity(&query));
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
        let mut inc = IncrementalEvaluator::new(&query, &model, JoinOrder::identity(&query));
        let mut rev: Vec<RelId> = query.rel_ids().collect();
        rev.reverse();
        inc.reset(JoinOrder::new(rev));
        assert_eq!(inc.current_cost(), inc.full_eval());
    }

    #[test]
    fn repeated_swaps_hit_the_memo_with_identical_bits() {
        let query = q();
        let model = MemoryCostModel::default();
        let mut inc = IncrementalEvaluator::new(&query, &model, JoinOrder::identity(&query));
        let swaps = [
            Move::Swap { i: 1, j: 4 },
            Move::Swap { i: 4, j: 1 },
            Move::Swap { i: 0, j: 5 },
        ];
        let first: Vec<u64> = swaps
            .iter()
            .map(|mv| {
                let c = inc.eval_move(mv);
                inc.rollback();
                c.to_bits()
            })
            .collect();
        // `Swap { 4, 1 }` is the same permutation as `Swap { 1, 4 }`.
        assert_eq!(inc.memo_hits(), 1);
        for (mv, bits) in swaps.iter().zip(&first) {
            let c = inc.eval_move(mv);
            assert_eq!(c.to_bits(), *bits, "{mv:?}");
            inc.rollback();
        }
        assert_eq!(inc.memo_hits(), 4);
        // Committing a memo hit walks the window first, so the state
        // stays bit-identical to a fresh walk; the new state starts
        // with an empty memo.
        let kept = inc.eval_move(&swaps[2]);
        assert_eq!(inc.memo_hits(), 5);
        inc.commit();
        assert_eq!(inc.current_cost(), kept);
        assert_eq!(inc.current_cost(), inc.full_eval());
        let after = inc.eval_move(&swaps[0]);
        assert_eq!(inc.memo_hits(), 5);
        assert!(costs_agree(after, inc.full_eval()));
        inc.rollback();
    }

    #[test]
    fn memo_generation_wraparound_forgets_old_stamps() {
        let query = q();
        let model = MemoryCostModel::default();
        let mut inc = IncrementalEvaluator::new(&query, &model, JoinOrder::identity(&query));
        inc.generation = u32::MAX;
        inc.eval_move(&Move::Swap { i: 0, j: 1 });
        inc.rollback();
        // The commit wraps the generation; the stamp written at
        // `u32::MAX` must not survive into any later state.
        inc.eval_move(&Move::Swap { i: 2, j: 3 });
        inc.commit();
        assert_eq!(inc.generation, 1);
        assert!(inc.memo_stamp.iter().all(|&s| s == 0));
        let c = inc.eval_move(&Move::Swap { i: 0, j: 1 });
        assert_eq!(c, inc.full_eval());
        assert_eq!(inc.memo_hits(), 0);
        inc.rollback();
    }

    #[test]
    fn multi_word_masks_track_the_full_walk() {
        // A 150-relation chain needs a three-word placed set (stride 4),
        // and swaps far apart cross word boundaries.
        let mut b = QueryBuilder::new();
        for i in 0..150 {
            b = b.relation(format!("r{i}"), 10 + (i * 37 % 500) as u64);
        }
        for i in 1..150 {
            b = b.join(
                &format!("r{}", i - 1),
                &format!("r{i}"),
                0.01 + (i % 7) as f64 * 0.01,
            );
        }
        let query = b.build().unwrap();
        let model = MemoryCostModel::default();
        let mut inc = IncrementalEvaluator::new(&query, &model, JoinOrder::identity(&query));
        assert_eq!(inc.stride, 4);
        for (k, mv) in [
            Move::Swap { i: 60, j: 70 },
            Move::Swap { i: 63, j: 64 },
            Move::Swap { i: 100, j: 140 },
            Move::Reinsert { from: 130, to: 2 },
            Move::ThreeCycle {
                i: 10,
                j: 70,
                k: 129,
            },
        ]
        .into_iter()
        .enumerate()
        {
            let got = inc.eval_move(&mv);
            assert!(costs_agree(got, inc.full_eval()), "{mv:?}");
            if k % 2 == 0 {
                inc.commit();
                assert_eq!(inc.current_cost(), inc.full_eval(), "{mv:?}");
            } else {
                inc.rollback();
            }
        }
    }

    #[test]
    fn singleton_and_empty_orders_cost_zero() {
        let query = q();
        let model = MemoryCostModel::default();
        let inc = IncrementalEvaluator::new(&query, &model, JoinOrder::new(vec![RelId(2)]));
        assert_eq!(inc.current_cost(), 0.0);
        let inc = IncrementalEvaluator::new(&query, &model, JoinOrder::new(vec![]));
        assert_eq!(inc.current_cost(), 0.0);
    }
}
