//! Budgeted cost evaluation with best-so-far tracking.

use std::sync::Arc;

use ljqo_catalog::{CompiledQuery, Query, RelId};
use ljqo_plan::JoinOrder;

use crate::deadline::Deadline;
use crate::estimate::SizeWalker;
use crate::incremental::IncrementalEvaluator;
use crate::model::{CostModel, OrderCost};
use crate::sanitize_cost;
use ljqo_plan::Move;

/// How many budget units may elapse between wall-clock reads when a
/// [`Deadline`] is installed. Amortizes the cost of `Instant::now()` over
/// the hot evaluation loop; one unit is an `O(N)` operation, so the
/// deadline is noticed within `O(64·N)` elementary steps.
const DEADLINE_POLL_UNITS: u64 = 64;

/// Best-so-far cost recorded when the budget crossed a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Snapshot {
    /// The checkpoint, in budget units.
    pub units: u64,
    /// Best cost of any state fully evaluated within that budget
    /// (`f64::INFINITY` if none was).
    pub best_cost: f64,
}

/// Budgeted evaluator: the optimizer's only gateway to the cost model.
///
/// * Charges one budget unit per full plan evaluation (`cost`), and lets
///   heuristics charge proportionally for their own work (`charge`) — one
///   unit corresponds to `O(N)` elementary operations, the cost of one
///   evaluation.
/// * Tracks the best (lowest-cost) state evaluated so far, which is what
///   an anytime optimizer returns when stopped.
/// * Snapshots the best cost whenever consumption crosses one of the
///   configured checkpoints, so a single run yields the whole
///   quality-vs-time-limit curve the paper plots.
///
/// # Example: building a query and costing an order
///
/// ```
/// use ljqo_catalog::QueryBuilder;
/// use ljqo_cost::{Evaluator, MemoryCostModel};
/// use ljqo_plan::JoinOrder;
///
/// let query = QueryBuilder::new()
///     .relation("customer", 10_000)
///     .relation("orders", 100_000)
///     .relation("nation", 25)
///     .join("customer", "orders", 0.0001)
///     .join("customer", "nation", 0.04)
///     .build()
///     .unwrap();
/// let model = MemoryCostModel::default();
/// let mut ev = Evaluator::with_budget(&query, &model, 1_000);
///
/// let cost = ev.cost(&JoinOrder::identity(&query));
/// assert!(cost.is_finite() && cost > 0.0);
/// assert_eq!(ev.used(), 1); // one budget unit per evaluation
/// assert_eq!(ev.best().unwrap().1, cost);
/// ```
pub struct Evaluator<'a> {
    query: &'a Query,
    model: &'a dyn CostModel,
    /// The full walk over the compiled snapshot of `query`. The snapshot
    /// is built once per evaluator, or handed in by the caller (see
    /// [`Evaluator::with_compiled`]), and shared (via `Arc`) with every
    /// incremental evaluator and — through [`Evaluator::compiled`] — with
    /// the optimizers' move generators.
    walker: SizeWalker,
    limit: u64,
    used: u64,
    n_evals: u64,
    n_inc_evals: u64,
    n_memo_hits: u64,
    best_cost: f64,
    best_order: Option<JoinOrder>,
    checkpoints: Vec<u64>,
    next_checkpoint: usize,
    snapshots: Vec<Snapshot>,
    /// Early-stopping threshold: once the best cost is at or below this,
    /// `exhausted()` reports true (paper §3: "The optimizer can stop if it
    /// obtains a solution whose cost is sufficiently close to a lower
    /// bound on the cost of the optimal solution").
    stop_threshold: f64,
    /// Optional wall-clock deadline, polled every [`DEADLINE_POLL_UNITS`]
    /// charged units.
    deadline: Option<Deadline>,
    /// Latched result of the last deadline poll; once true, stays true.
    deadline_hit: bool,
    /// Units charged since the last deadline poll.
    units_since_poll: u64,
}

impl<'a> Evaluator<'a> {
    /// An evaluator with no budget limit.
    pub fn new(query: &'a Query, model: &'a dyn CostModel) -> Self {
        Self::with_budget(query, model, u64::MAX)
    }

    /// An evaluator limited to `limit` budget units.
    pub fn with_budget(query: &'a Query, model: &'a dyn CostModel, limit: u64) -> Self {
        Self::with_compiled(query, model, limit, Arc::new(CompiledQuery::new(query)))
    }

    /// As [`Evaluator::with_budget`], walking an existing compiled
    /// snapshot of `query`, so that several evaluators of one solve (and
    /// its plan pricing) share one compile.
    pub fn with_compiled(
        query: &'a Query,
        model: &'a dyn CostModel,
        limit: u64,
        compiled: Arc<CompiledQuery>,
    ) -> Self {
        Evaluator {
            query,
            model,
            walker: SizeWalker::with_compiled(compiled),
            limit,
            used: 0,
            n_evals: 0,
            n_inc_evals: 0,
            n_memo_hits: 0,
            best_cost: f64::INFINITY,
            best_order: None,
            checkpoints: Vec::new(),
            next_checkpoint: 0,
            snapshots: Vec::new(),
            stop_threshold: -1.0,
            deadline: None,
            deadline_hit: false,
            // Start at the poll interval so the very first charge reads
            // the clock — an already-expired deadline trips immediately.
            units_since_poll: DEADLINE_POLL_UNITS,
        }
    }

    /// Install a wall-clock deadline composing with the unit budget:
    /// [`Evaluator::exhausted`] reports true as soon as *either* the
    /// budget runs out or the deadline passes. The clock is polled at an
    /// amortized interval, so expiry is noticed within
    /// `DEADLINE_POLL_UNITS` (64) charged units.
    pub fn set_deadline(&mut self, deadline: Deadline) {
        self.deadline = Some(deadline);
        self.deadline_hit = deadline.expired();
        self.units_since_poll = 0;
    }

    /// Whether an installed deadline has been observed as expired.
    #[inline]
    pub fn deadline_expired(&self) -> bool {
        self.deadline_hit
    }

    /// Install an early-stopping threshold, typically derived from the
    /// model's lower bound: `lb * (1 + epsilon)`. Once the best cost
    /// reaches the threshold, [`Evaluator::exhausted`] reports true and
    /// budget-driven methods wind down.
    pub fn set_stop_threshold(&mut self, threshold: f64) {
        self.stop_threshold = threshold;
    }

    /// Install snapshot checkpoints (must be ascending). Replaces any
    /// existing checkpoints; snapshots already taken are kept.
    pub fn set_checkpoints(&mut self, checkpoints: Vec<u64>) {
        debug_assert!(checkpoints.windows(2).all(|w| w[0] <= w[1]));
        self.checkpoints = checkpoints;
        self.next_checkpoint = 0;
    }

    /// The query under optimization.
    #[inline]
    pub fn query(&self) -> &'a Query {
        self.query
    }

    /// The cost model in use.
    #[inline]
    pub fn model(&self) -> &'a dyn CostModel {
        self.model
    }

    /// The compiled snapshot of the query, for sharing with move
    /// generators ([`ljqo_plan::MoveGenerator`]'s compiled windowed
    /// filtering) and other hot-loop consumers.
    #[inline]
    pub fn compiled(&self) -> &Arc<CompiledQuery> {
        self.walker.compiled()
    }

    /// Record `order` as the new best order without allocating when a
    /// best buffer already exists. `order` is a [`JoinOrder`], so it is
    /// already duplicate-free and is copied unchecked.
    #[inline]
    fn record_best(&mut self, order: &JoinOrder) {
        match &mut self.best_order {
            Some(best) => best.copy_from(order),
            None => self.best_order = Some(order.clone()),
        }
    }

    /// Evaluate the cost of `order`, charging one budget unit and updating
    /// the best-so-far state. Non-finite model outputs are saturated to
    /// [`f64::MAX`] (see [`sanitize_cost`]) so a faulty model cannot
    /// poison best-tracking or the methods' acceptance decisions.
    pub fn cost(&mut self, order: &JoinOrder) -> f64 {
        self.charge(1);
        let c = sanitize_cost(self.model.order_cost_with(&mut self.walker, order.rels()));
        self.n_evals += 1;
        if c < self.best_cost {
            self.best_cost = c;
            self.record_best(order);
        }
        c
    }

    /// Evaluate a raw relation slice (used by heuristics mid-construction).
    pub fn cost_slice(&mut self, rels: &[RelId]) -> f64 {
        self.charge(1);
        let c = sanitize_cost(self.model.order_cost_with(&mut self.walker, rels));
        self.n_evals += 1;
        if c < self.best_cost {
            self.best_cost = c;
            // A raw slice is checked for duplicates on the way in.
            match &mut self.best_order {
                Some(best) => best.copy_from_rels(rels),
                None => self.best_order = Some(JoinOrder::new(rels.to_vec())),
            }
        }
        c
    }

    /// Start incremental evaluation of `order`: build the per-prefix
    /// memoized state and record the order's cost like [`Evaluator::cost`]
    /// would (one budget unit is charged for the initial full walk).
    /// Subsequent moves are costed with [`Evaluator::cost_move`]; the
    /// caller gets the order back with
    /// [`IncrementalEvaluator::into_order`].
    pub fn begin_incremental(&mut self, order: JoinOrder) -> IncrementalEvaluator<'a> {
        self.charge(1);
        let inc = IncrementalEvaluator::with_compiled(
            self.query,
            self.model,
            order,
            Arc::clone(self.walker.compiled()),
        );
        let c = inc.current_cost();
        self.n_evals += 1;
        if c < self.best_cost {
            self.best_cost = c;
            self.record_best(inc.order());
        }
        inc
    }

    /// Evaluate the move `mv`, already applied to `inc`'s order (the move
    /// generator applies proposals in place), re-costing only the
    /// positions the move touches. Charges one budget unit — the budget
    /// models the paper's wall clock, and one unit stays the price of one
    /// candidate evaluation regardless of how cheaply it is computed — and
    /// updates best-so-far exactly like [`Evaluator::cost`]. Debug and
    /// release builds run the same path and make the same model calls.
    ///
    /// The caller resolves the proposal with
    /// [`IncrementalEvaluator::commit`] or
    /// [`IncrementalEvaluator::rollback`].
    pub fn cost_move(&mut self, inc: &mut IncrementalEvaluator<'a>, mv: &Move) -> f64 {
        self.charge(1);
        let hits = inc.memo_hits();
        let c = inc.eval_applied(mv);
        self.n_evals += 1;
        self.n_inc_evals += 1;
        self.n_memo_hits += inc.memo_hits() - hits;
        if c < self.best_cost {
            self.best_cost = c;
            self.record_best(inc.order());
        }
        c
    }

    /// Evaluate without charging budget or updating best-so-far. For
    /// analysis and tests only — optimizers must use [`Evaluator::cost`].
    pub fn cost_uncharged(&mut self, order: &JoinOrder) -> f64 {
        sanitize_cost(self.model.order_cost_with(&mut self.walker, order.rels()))
    }

    /// Consume `units` of budget (heuristics use this to pay for their own
    /// non-evaluation work). Crossing a checkpoint records a snapshot of
    /// the best cost *before* the newly charged work completes.
    #[inline]
    pub fn charge(&mut self, units: u64) {
        if self.next_checkpoint < self.checkpoints.len() {
            self.take_snapshots();
        }
        self.used = self.used.saturating_add(units);
        if let Some(deadline) = self.deadline {
            self.poll(deadline, units);
        }
    }

    /// Snapshot the best cost at every checkpoint the budget has reached.
    fn take_snapshots(&mut self) {
        while self.next_checkpoint < self.checkpoints.len()
            && self.used >= self.checkpoints[self.next_checkpoint]
        {
            self.snapshots.push(Snapshot {
                units: self.checkpoints[self.next_checkpoint],
                best_cost: self.best_cost,
            });
            self.next_checkpoint += 1;
        }
    }

    /// Count `units` toward the next deadline poll and read the clock
    /// when the interval is reached.
    fn poll(&mut self, deadline: Deadline, units: u64) {
        if self.deadline_hit {
            return;
        }
        self.units_since_poll = self.units_since_poll.saturating_add(units);
        if self.units_since_poll >= DEADLINE_POLL_UNITS {
            self.units_since_poll = 0;
            self.deadline_hit = deadline.expired();
        }
    }

    /// Charge one budget unit and count one plan evaluation performed
    /// *outside* the evaluator's own walkers. The bushy tree search costs
    /// candidates through [`crate::TreeEvaluator`] (its states are trees,
    /// not [`JoinOrder`]s, so best-order tracking does not apply) but must
    /// still pay the paper's one-unit-per-candidate price and appear in
    /// [`Evaluator::n_evals`] so budgets and reports stay comparable
    /// across search spaces.
    #[inline]
    pub fn charge_eval(&mut self) {
        self.charge(1);
        self.n_evals += 1;
    }

    /// Whether the method should stop: the budget is exhausted, the best
    /// solution has reached the early-stopping threshold, or the
    /// wall-clock deadline has passed.
    #[inline]
    pub fn exhausted(&self) -> bool {
        self.used >= self.limit || self.best_cost <= self.stop_threshold || self.deadline_hit
    }

    /// Budget units consumed so far.
    #[inline]
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Budget units remaining.
    #[inline]
    pub fn remaining(&self) -> u64 {
        self.limit.saturating_sub(self.used)
    }

    /// Number of plan evaluations performed (full and incremental).
    #[inline]
    pub fn n_evals(&self) -> u64 {
        self.n_evals
    }

    /// How many of the evaluations went through the incremental
    /// (delta) path of [`Evaluator::cost_move`].
    #[inline]
    pub fn n_inc_evals(&self) -> u64 {
        self.n_inc_evals
    }

    /// How many of the incremental evaluations repeated a swap already
    /// evaluated from the same state and were answered from the
    /// evaluator's swap memo (see [`IncrementalEvaluator::eval_applied`]).
    #[inline]
    pub fn n_memo_hits(&self) -> u64 {
        self.n_memo_hits
    }

    /// The best state evaluated so far, with its cost.
    pub fn best(&self) -> Option<(&JoinOrder, f64)> {
        self.best_order.as_ref().map(|o| (o, self.best_cost))
    }

    /// Best cost so far (`INFINITY` before any evaluation).
    #[inline]
    pub fn best_cost(&self) -> f64 {
        self.best_cost
    }

    /// Flush remaining checkpoints and return all snapshots. Checkpoints
    /// not yet crossed are recorded with the final best cost (the run ended
    /// before spending that much budget, so its result stands for all later
    /// limits).
    pub fn finish(mut self) -> (Option<JoinOrder>, f64, Vec<Snapshot>) {
        for i in self.next_checkpoint..self.checkpoints.len() {
            self.snapshots.push(Snapshot {
                units: self.checkpoints[i],
                best_cost: self.best_cost,
            });
        }
        (self.best_order, self.best_cost, self.snapshots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryCostModel;
    use ljqo_catalog::QueryBuilder;

    fn q() -> Query {
        QueryBuilder::new()
            .relation("a", 100)
            .relation("b", 1000)
            .relation("c", 10)
            .join("a", "b", 0.001)
            .join("b", "c", 0.01)
            .build()
            .unwrap()
    }

    fn order(v: &[u32]) -> JoinOrder {
        JoinOrder::new(v.iter().map(|&i| RelId(i)).collect())
    }

    #[test]
    fn budget_counts_evaluations() {
        let query = q();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::with_budget(&query, &model, 3);
        assert!(!ev.exhausted());
        ev.cost(&order(&[0, 1, 2]));
        ev.cost(&order(&[2, 1, 0]));
        assert!(!ev.exhausted());
        ev.cost(&order(&[1, 0, 2]));
        assert!(ev.exhausted());
        assert_eq!(ev.n_evals(), 3);
        assert_eq!(ev.remaining(), 0);
    }

    #[test]
    fn best_tracks_minimum() {
        let query = q();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::new(&query, &model);
        let c1 = ev.cost(&order(&[0, 1, 2]));
        let c2 = ev.cost(&order(&[2, 1, 0]));
        let (best_order, best_cost) = ev.best().unwrap();
        assert_eq!(best_cost, c1.min(c2));
        let expect = if c1 <= c2 {
            order(&[0, 1, 2])
        } else {
            order(&[2, 1, 0])
        };
        assert_eq!(*best_order, expect);
    }

    #[test]
    fn snapshots_record_best_at_checkpoints() {
        let query = q();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::with_budget(&query, &model, 100);
        ev.set_checkpoints(vec![2, 5]);
        let c0 = ev.cost(&order(&[0, 1, 2])); // used: 1
        let _ = ev.cost(&order(&[0, 1, 2])); // used: 2
        let c2 = ev.cost(&order(&[2, 1, 0])); // crosses checkpoint 2 first
        let (_, _, snaps) = ev.finish();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].units, 2);
        // The state evaluated while crossing the checkpoint does not count
        // toward that checkpoint's best.
        assert_eq!(snaps[0].best_cost, c0);
        assert_eq!(snaps[1].units, 5);
        assert_eq!(snaps[1].best_cost, c0.min(c2));
    }

    #[test]
    fn finish_flushes_uncrossed_checkpoints() {
        let query = q();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::with_budget(&query, &model, 1000);
        ev.set_checkpoints(vec![10, 500, 900]);
        let c = ev.cost(&order(&[0, 1, 2]));
        let (_, best, snaps) = ev.finish();
        assert_eq!(best, c);
        assert_eq!(snaps.len(), 3);
        assert!(snaps.iter().all(|s| s.best_cost == c));
    }

    #[test]
    fn stop_threshold_trips_exhausted() {
        let query = q();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::with_budget(&query, &model, 1_000_000);
        assert!(!ev.exhausted());
        let c = ev.cost(&order(&[2, 1, 0]));
        assert!(!ev.exhausted());
        ev.set_stop_threshold(c + 1.0);
        assert!(ev.exhausted(), "best {c} is below the threshold");
        // Without any evaluation the threshold must not trip (best = inf).
        let mut ev2 = Evaluator::with_budget(&query, &model, 10);
        ev2.set_stop_threshold(1e18);
        assert!(!ev2.exhausted());
    }

    #[test]
    fn expired_deadline_trips_exhausted() {
        let query = q();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::with_budget(&query, &model, u64::MAX);
        ev.set_deadline(crate::Deadline::immediate());
        assert!(ev.deadline_expired());
        assert!(ev.exhausted());
        // The budget side reports plenty remaining; only the clock is up.
        assert!(ev.remaining() > 0);
    }

    #[test]
    fn future_deadline_does_not_interfere() {
        let query = q();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::with_budget(&query, &model, 2);
        ev.set_deadline(crate::Deadline::after(std::time::Duration::from_secs(3600)));
        ev.cost(&order(&[0, 1, 2]));
        assert!(!ev.deadline_expired());
        assert!(!ev.exhausted());
        ev.cost(&order(&[2, 1, 0]));
        // Budget exhaustion still applies on its own.
        assert!(ev.exhausted());
        assert!(!ev.deadline_expired());
    }

    #[test]
    fn deadline_is_noticed_within_poll_interval() {
        let query = q();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::with_budget(&query, &model, u64::MAX);
        ev.set_deadline(crate::Deadline::after(std::time::Duration::from_millis(5)));
        std::thread::sleep(std::time::Duration::from_millis(10));
        let o = order(&[0, 1, 2]);
        let mut evals = 0u64;
        while !ev.exhausted() {
            ev.cost(&o);
            evals += 1;
            assert!(
                evals <= super::DEADLINE_POLL_UNITS + 1,
                "deadline never noticed"
            );
        }
        assert!(ev.deadline_expired());
        // A best state gathered before expiry is still available.
        assert!(ev.best().is_some());
    }

    #[test]
    fn nan_costs_are_saturated_not_propagated() {
        use crate::fault::{FaultMode, FaultyCostModel};
        let query = q();
        let model = FaultyCostModel::new(MemoryCostModel::default(), FaultMode::NanOnKth(1));
        let mut ev = Evaluator::new(&query, &model);
        let c1 = ev.cost(&order(&[0, 1, 2]));
        assert_eq!(c1, f64::MAX, "NaN from the model must saturate");
        // The saturated evaluation still counts as a (terrible) best state,
        // so an all-faulty run degrades instead of returning nothing.
        assert_eq!(ev.best().map(|(_, c)| c), Some(f64::MAX));
        let c2 = ev.cost(&order(&[2, 1, 0]));
        assert!(c2.is_finite() && c2 < f64::MAX);
        assert_eq!(ev.best().map(|(_, c)| c), Some(c2));
        assert!(model.evals() >= 1, "the fault never fired");
    }

    #[test]
    fn uncharged_costs_do_not_consume_budget() {
        let query = q();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::with_budget(&query, &model, 1);
        let a = ev.cost_uncharged(&order(&[0, 1, 2]));
        assert_eq!(ev.used(), 0);
        let b = ev.cost(&order(&[0, 1, 2]));
        assert_eq!(a, b);
        assert!(ev.exhausted());
    }
}
