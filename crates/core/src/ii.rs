//! Iterative improvement (paper Figure 1; SG88).
//!
//! One *run* starts from a valid state and repeatedly samples a random
//! adjacent state, moving there whenever it is cheaper, until a local
//! minimum is reached. Because the neighborhood is too large to enumerate
//! at `N = 100`, a state is *declared* a local minimum after a configurable
//! number of consecutive non-improving sampled moves (SG88's sampling
//! criterion). The surrounding method repeats runs from fresh start states
//! and keeps the best local minimum — which the budgeted
//! [`Evaluator`](ljqo_cost::Evaluator) tracks automatically, since within a
//! run the accepted states decrease monotonically.

use rand::Rng;

use ljqo_catalog::RelId;
use ljqo_cost::Evaluator;
use ljqo_plan::{random_valid_order, JoinOrder, MoveGenerator, MoveSet};

/// Iterative improvement parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterativeImprovement {
    /// Move-set composition used to sample adjacent states.
    pub move_set: MoveSet,
    /// Local-minimum declaration threshold, as a fraction of `n²`: a run
    /// ends after `max(32, fail_factor·n²)` consecutive failed moves.
    /// Larger values descend deeper but finish fewer runs per budget.
    pub fail_factor: f64,
}

impl Default for IterativeImprovement {
    fn default() -> Self {
        IterativeImprovement {
            move_set: MoveSet::default(),
            fail_factor: 0.25,
        }
    }
}

impl IterativeImprovement {
    /// Consecutive-failure threshold for an `n`-relation component.
    pub fn fail_limit(&self, n: usize) -> u64 {
        let by_factor = (self.fail_factor * (n * n) as f64) as u64;
        by_factor.max(32)
    }

    /// One greedy descent from (and mutating) `order`. Returns the cost of
    /// the local minimum reached (or of the last state when the budget ran
    /// out first).
    ///
    /// `gen` must filter against `ev`'s compiled query. Candidates are
    /// costed incrementally ([`Evaluator::cost_move`]), one budget unit
    /// per candidate.
    pub fn descend<R: Rng + ?Sized>(
        &self,
        ev: &mut Evaluator<'_>,
        gen: &mut MoveGenerator,
        order: &mut JoinOrder,
        rng: &mut R,
    ) -> f64 {
        // The caller hands us an arbitrary start state; any windowed
        // validity cache inside the generator refers to the previous one.
        gen.reset();
        let start = std::mem::replace(order, JoinOrder::new(Vec::new()));
        let mut inc = ev.begin_incremental(start);
        let mut current = inc.current_cost();
        let fail_limit = self.fail_limit(inc.order().len());
        let mut fails = 0u64;
        let graph = ev.query().graph();
        while fails < fail_limit && !ev.exhausted() {
            let Some((mv, attempts)) = gen.propose_counted(graph, inc.order_mut(), rng) else {
                break; // no perturbable neighborhood (tiny component)
            };
            // Rejected proposals each performed an O(N) validity check;
            // charge them like the paper's wall clock would.
            ev.charge(u64::from(attempts) - 1);
            let candidate = ev.cost_move(&mut inc, &mv);
            if candidate < current {
                inc.commit();
                current = candidate;
                fails = 0;
            } else {
                inc.rollback();
                // Every sampled perturbation that failed to improve —
                // including the validity-rejected ones — counts toward
                // declaring a local minimum, mirroring the sampled
                // local-minimum test of SG88's wall-clock implementation.
                fails += u64::from(attempts);
            }
        }
        *order = inc.into_order();
        current
    }

    /// The full II method: repeated descents from random valid start
    /// states until the budget is exhausted. The best local minimum is
    /// tracked by the evaluator.
    pub fn run<R: Rng + ?Sized>(&self, ev: &mut Evaluator<'_>, component: &[RelId], rng: &mut R) {
        let mut gen = MoveGenerator::with_compiled(ev.compiled().clone(), self.move_set);
        while !ev.exhausted() {
            let mut order = random_valid_order(ev.query().graph(), component, rng);
            self.descend(ev, &mut gen, &mut order, rng);
            if component.len() < 3 {
                // Nothing more to explore: at most two states exist.
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ljqo_catalog::{Query, QueryBuilder};
    use ljqo_cost::MemoryCostModel;
    use ljqo_plan::validity::is_valid;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn chain_query() -> Query {
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

    #[test]
    fn descend_is_monotone() {
        let q = chain_query();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::new(&q, &model);
        let mut rng = SmallRng::seed_from_u64(5);
        let comp: Vec<RelId> = q.rel_ids().collect();
        let mut order = random_valid_order(q.graph(), &comp, &mut rng);
        let start_cost = ev.cost_uncharged(&order);
        let ii = IterativeImprovement::default();
        let mut gen = MoveGenerator::with_compiled(ev.compiled().clone(), ii.move_set);
        let end_cost = ii.descend(&mut ev, &mut gen, &mut order, &mut rng);
        assert!(end_cost <= start_cost);
        assert!(is_valid(q.graph(), order.rels()));
        // The descent's final state is the evaluator's best state.
        assert_eq!(ev.best().unwrap().1, end_cost);
    }

    #[test]
    fn run_respects_budget_and_finds_good_plans() {
        let q = chain_query();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::with_budget(&q, &model, 3_000);
        let mut rng = SmallRng::seed_from_u64(17);
        let comp: Vec<RelId> = q.rel_ids().collect();
        IterativeImprovement::default().run(&mut ev, &comp, &mut rng);
        assert!(ev.exhausted());
        let (best, cost) = ev.best().unwrap();
        assert_eq!(best.len(), 6);
        assert!(is_valid(q.graph(), best.rels()));
        // Must clearly beat the average random state.
        let mut sum = 0.0;
        for _ in 0..50 {
            let o = random_valid_order(q.graph(), &comp, &mut rng);
            sum += ev.cost_uncharged(&o);
        }
        assert!(cost < sum / 50.0);
    }

    #[test]
    fn fail_limit_scales_with_n() {
        let ii = IterativeImprovement::default();
        assert_eq!(ii.fail_limit(5), 32); // floor
        assert_eq!(ii.fail_limit(50), 625);
    }

    #[test]
    fn tiny_component_terminates() {
        let q = QueryBuilder::new()
            .relation("a", 10)
            .relation("b", 20)
            .join("a", "b", 0.1)
            .build()
            .unwrap();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::with_budget(&q, &model, 10_000);
        let mut rng = SmallRng::seed_from_u64(2);
        let comp: Vec<RelId> = q.rel_ids().collect();
        IterativeImprovement::default().run(&mut ev, &comp, &mut rng);
        // Must not spin forever nor necessarily exhaust the budget.
        assert!(ev.best().is_some());
    }
}
