//! The search spaces the one II loop and the one SA loop walk: outer
//! linear orders ([`Orders`]) and bushy trees
//! ([`Trees`](crate::bushy_search::Trees)). The loops are generic over
//! [`Neighborhood`] and monomorphized per space.

use rand::Rng;

use ljqo_catalog::JoinGraph;
use ljqo_cost::{Evaluator, IncrementalEvaluator};
use ljqo_plan::{JoinOrder, MoveGenerator};

/// A search space parked on one current state, charging an
/// [`Evaluator`] one unit per priced candidate plus one per
/// validity-rejected proposal attempt.
pub(crate) trait Neighborhood<'a> {
    /// A saved state.
    type State;

    /// Relations in the current state.
    fn n_rels(&self) -> usize;

    /// Cost of the current state.
    fn cost(&self) -> f64;

    /// Propose and price a random adjacent state, leaving the move
    /// pending. Returns its cost and the proposal attempts, or `None`
    /// when the state has no perturbable neighborhood.
    fn step<R: Rng + ?Sized>(&mut self, ev: &mut Evaluator<'a>, rng: &mut R) -> Option<(f64, u32)>;

    /// Adopt the pending move.
    fn commit(&mut self);

    /// Reject the pending move.
    fn rollback(&mut self);

    /// Jump to the fresh state `start`, paying one evaluation.
    fn restart(&mut self, ev: &mut Evaluator<'a>, start: JoinOrder);

    /// Offer the current state, of cost `cost`, as the best visited.
    fn note(&mut self, cost: f64);

    /// Cost of the best state visited.
    fn best_cost(&self, ev: &Evaluator<'a>) -> f64;

    /// Return to the best state visited, off-budget; returns its cost.
    fn to_best(&mut self, ev: &Evaluator<'a>) -> Option<f64>;

    /// Save the current state.
    fn save(&self) -> Self::State;

    /// Return to a saved state, off-budget.
    fn restore(&mut self, state: Self::State);
}

/// Outer linear orders: moves from a [`MoveGenerator`] priced by
/// [`Evaluator::cost_move`]. The evaluator tracks the best order (for
/// SAK it also holds the KBZ states priced before the walk).
pub(crate) struct Orders<'a, 'g> {
    graph: &'a JoinGraph,
    gen: &'g mut MoveGenerator,
    inc: IncrementalEvaluator<'a>,
}

impl<'a, 'g> Orders<'a, 'g> {
    /// Park on `start`, paying one evaluation. `gen` must filter against
    /// `ev`'s compiled query.
    pub(crate) fn begin(
        ev: &mut Evaluator<'a>,
        gen: &'g mut MoveGenerator,
        start: JoinOrder,
    ) -> Self {
        // Any windowed validity cache in the generator refers to the
        // previous state.
        gen.reset();
        let inc = ev.begin_incremental(start);
        let graph = ev.query().graph();
        Orders { graph, gen, inc }
    }

    pub(crate) fn into_order(self) -> JoinOrder {
        self.inc.into_order()
    }
}

impl<'a> Neighborhood<'a> for Orders<'a, '_> {
    type State = JoinOrder;

    fn n_rels(&self) -> usize {
        self.inc.order().len()
    }

    fn cost(&self) -> f64 {
        self.inc.current_cost()
    }

    #[inline]
    fn step<R: Rng + ?Sized>(&mut self, ev: &mut Evaluator<'a>, rng: &mut R) -> Option<(f64, u32)> {
        let (mv, attempts) = self
            .gen
            .propose_counted(self.graph, self.inc.order_mut(), rng)?;
        // Rejected proposals each performed an O(N) validity check;
        // charge them like the paper's wall clock would.
        ev.charge(u64::from(attempts) - 1);
        Some((ev.cost_move(&mut self.inc, &mv), attempts))
    }

    #[inline]
    fn commit(&mut self) {
        self.inc.commit();
    }

    #[inline]
    fn rollback(&mut self) {
        self.inc.rollback();
    }

    fn restart(&mut self, ev: &mut Evaluator<'a>, start: JoinOrder) {
        self.gen.reset();
        self.inc = ev.begin_incremental(start);
    }

    #[inline]
    fn note(&mut self, _cost: f64) {}

    fn best_cost(&self, ev: &Evaluator<'a>) -> f64 {
        ev.best_cost()
    }

    fn to_best(&mut self, ev: &Evaluator<'a>) -> Option<f64> {
        let (best, cost) = ev.best()?;
        self.restore(best.clone());
        Some(cost)
    }

    fn save(&self) -> JoinOrder {
        self.inc.order().clone()
    }

    fn restore(&mut self, state: JoinOrder) {
        // The jump invalidates the generator's windowed validity cache.
        self.inc.reset(state);
        self.gen.reset();
    }
}
