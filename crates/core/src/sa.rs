//! Simulated annealing (paper Figure 2; SG88; Johnson et al. 1987).
//!
//! The variant SG88 adopted from Johnson, Aragon, McGeoch & Schevon:
//!
//! * the initial temperature is calibrated by sampling random moves so
//!   that a target fraction of uphill moves would be accepted;
//! * each temperature runs an equilibrium *chain* of `sizeFactor · N`
//!   proposed moves;
//! * geometric cooling (`T ← r·T`);
//! * the system is *frozen* when the best solution has not improved for a
//!   number of consecutive chains and the acceptance ratio has collapsed.
//!
//! The paper's stopping condition includes the overall time limit; as an
//! anytime extension, a frozen annealer with budget remaining can re-heat
//! from the best state found (`restart_on_frozen`), so that SA never idles
//! while its competitors keep searching.

use rand::Rng;

use ljqo_catalog::RelId;
use ljqo_cost::{Evaluator, IncrementalEvaluator};
use ljqo_plan::{random_valid_order, JoinOrder, MoveGenerator, MoveSet};

/// Simulated annealing parameters (defaults follow SG88 / JAMS87).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatedAnnealing {
    /// Move-set composition.
    pub move_set: MoveSet,
    /// Chain length multiplier: each temperature proposes
    /// `size_factor · N` moves.
    pub size_factor: usize,
    /// Geometric cooling rate `r` in `T ← r·T`.
    pub cooling: f64,
    /// Target acceptance probability for uphill moves at the initial
    /// temperature.
    pub init_accept: f64,
    /// Frozen after this many consecutive chains without improving the
    /// best solution (with collapsed acceptance).
    pub frozen_chains: usize,
    /// Acceptance ratio below which a chain counts as collapsed.
    pub min_accept_ratio: f64,
    /// Re-heat from the best state instead of stopping when frozen with
    /// budget to spare.
    pub restart_on_frozen: bool,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing {
            move_set: MoveSet::default(),
            size_factor: 16,
            cooling: 0.95,
            init_accept: 0.4,
            frozen_chains: 5,
            min_accept_ratio: 0.02,
            restart_on_frozen: true,
        }
    }
}

impl SimulatedAnnealing {
    /// Calibrate the initial temperature from `start` by sampling moves:
    /// `T₀ = mean(uphill Δ) / −ln(p₀)` makes the average uphill move
    /// acceptable with probability `p₀`. Consumes budget like any other
    /// search work.
    ///
    /// Returns `(T₀, inc, start_cost)` with the incremental evaluator
    /// reset to `start` so the annealing loop can continue on the same
    /// evaluated state. Returning the evaluator matters for accounting:
    /// beginning a second one on the start state in [`anneal`] would
    /// charge the start twice — one wasted budget unit and a duplicate
    /// evaluation on every SA run.
    ///
    /// [`anneal`]: SimulatedAnnealing::anneal
    fn initial_temperature<'a, R: Rng + ?Sized>(
        &self,
        ev: &mut Evaluator<'a>,
        gen: &mut MoveGenerator,
        start: JoinOrder,
        rng: &mut R,
    ) -> (f64, IncrementalEvaluator<'a>, f64) {
        let home = start.clone();
        let mut inc = ev.begin_incremental(start);
        let start_cost = inc.current_cost();
        let mut current = start_cost;
        let mut uphill_sum = 0.0f64;
        let mut uphill_n = 0u32;
        let graph = ev.query().graph();
        for _ in 0..20 {
            if ev.exhausted() {
                break;
            }
            let Some((mv, attempts)) = gen.propose_counted(graph, inc.order_mut(), rng) else {
                break;
            };
            ev.charge(u64::from(attempts) - 1);
            let c = ev.cost_move(&mut inc, &mv);
            let delta = c - current;
            if delta > 0.0 && delta.is_finite() {
                uphill_sum += delta;
                uphill_n += 1;
            }
            inc.commit(); // random walk: always accept during calibration
            current = c;
        }
        // Walk back to the start state. Its cost was paid when the
        // evaluator began, so the reset charges nothing (it rebuilds the
        // memoized state off-budget). The jump invalidates the
        // generator's windowed validity cache.
        inc.reset(home);
        gen.reset();
        let t0 = if uphill_n == 0 {
            1.0
        } else {
            (uphill_sum / uphill_n as f64) / -(self.init_accept.ln())
        };
        (t0, inc, start_cost)
    }

    /// Run annealing from `start` until frozen (and out of restarts) or the
    /// budget is exhausted. The best visited state is tracked by the
    /// evaluator.
    pub fn anneal<R: Rng + ?Sized>(&self, ev: &mut Evaluator<'_>, start: JoinOrder, rng: &mut R) {
        let n = start.len();
        if n < 2 {
            ev.cost(&start);
            return;
        }
        let mut gen = MoveGenerator::with_compiled(ev.compiled().clone(), self.move_set);
        let (t0, mut inc, mut current) = self.initial_temperature(ev, &mut gen, start, rng);
        let chain_length = (self.size_factor * n).max(4);
        let graph = ev.query().graph();

        let mut temp = t0;
        let mut stale_chains = 0usize;

        while !ev.exhausted() {
            let best_before = ev.best_cost();
            let mut accepted = 0usize;
            for _ in 0..chain_length {
                if ev.exhausted() {
                    break;
                }
                let Some((mv, attempts)) = gen.propose_counted(graph, inc.order_mut(), rng) else {
                    break;
                };
                ev.charge(u64::from(attempts) - 1);
                let candidate = ev.cost_move(&mut inc, &mv);
                let delta = candidate - current;
                let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp();
                if accept {
                    inc.commit();
                    current = candidate;
                    accepted += 1;
                } else {
                    inc.rollback();
                }
            }
            temp *= self.cooling;
            let improved = ev.best_cost() < best_before;
            let collapsed = (accepted as f64) < self.min_accept_ratio * chain_length as f64;
            if improved {
                stale_chains = 0;
            } else {
                stale_chains += 1;
            }
            if stale_chains >= self.frozen_chains && collapsed {
                if self.restart_on_frozen && !ev.exhausted() {
                    // Re-heat from the best state found so far. Its cost
                    // was already paid when it was first evaluated, so the
                    // restart itself charges nothing (the incremental evaluator
                    // rebuilds its memoized state off-budget).
                    if let Some((best, best_cost)) = ev.best() {
                        let best = best.clone();
                        inc.reset(best);
                        gen.reset();
                        current = best_cost;
                    }
                    temp = (t0 * 0.5).max(f64::MIN_POSITIVE);
                    stale_chains = 0;
                } else {
                    break;
                }
            }
        }
    }

    /// The plain SA method: anneal from a random valid start state.
    pub fn run<R: Rng + ?Sized>(&self, ev: &mut Evaluator<'_>, component: &[RelId], rng: &mut R) {
        let start = random_valid_order(ev.query().graph(), component, rng);
        self.anneal(ev, start, rng);
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
    fn sa_finds_good_plans_within_budget() {
        let q = chain_query();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::with_budget(&q, &model, 5_000);
        let mut rng = SmallRng::seed_from_u64(23);
        let comp: Vec<RelId> = q.rel_ids().collect();
        SimulatedAnnealing::default().run(&mut ev, &comp, &mut rng);
        let (best, cost) = ev.best().unwrap();
        assert!(is_valid(q.graph(), best.rels()));
        // Should clearly beat an average random state.
        let mut sum = 0.0;
        for _ in 0..50 {
            let o = random_valid_order(q.graph(), &comp, &mut rng);
            sum += ev.cost_uncharged(&o);
        }
        assert!(cost < sum / 50.0);
        // One indivisible step (propose retries + eval) may overrun.
        assert!(ev.used() <= 5_000 + 64 + 4 * 6);
    }

    #[test]
    fn sa_without_restart_freezes_before_budget() {
        let q = chain_query();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::with_budget(&q, &model, 2_000_000);
        let mut rng = SmallRng::seed_from_u64(3);
        let comp: Vec<RelId> = q.rel_ids().collect();
        let sa = SimulatedAnnealing {
            restart_on_frozen: false,
            ..SimulatedAnnealing::default()
        };
        sa.run(&mut ev, &comp, &mut rng);
        assert!(
            !ev.exhausted(),
            "a non-restarting annealer must freeze long before 2M units"
        );
        assert!(ev.best().is_some());
    }

    #[test]
    fn singleton_component_is_trivial() {
        let q = chain_query();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::new(&q, &model);
        let mut rng = SmallRng::seed_from_u64(1);
        SimulatedAnnealing::default().run(&mut ev, &[RelId(4)], &mut rng);
        assert_eq!(ev.best().unwrap().0.rels(), &[RelId(4)]);
    }

    #[test]
    fn initial_temperature_is_positive_and_finite() {
        let q = chain_query();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::new(&q, &model);
        let mut rng = SmallRng::seed_from_u64(7);
        let comp: Vec<RelId> = q.rel_ids().collect();
        let sa = SimulatedAnnealing::default();
        let mut gen = MoveGenerator::with_compiled(ev.compiled().clone(), sa.move_set);
        let start = random_valid_order(q.graph(), &comp, &mut rng);
        let (t0, inc, start_cost) =
            sa.initial_temperature(&mut ev, &mut gen, start.clone(), &mut rng);
        assert!(t0.is_finite() && t0 > 0.0);
        assert!(start_cost.is_finite());
        // The evaluator comes back parked on the start state, ready to
        // anneal.
        assert_eq!(inc.order(), &start);
    }

    #[test]
    fn start_state_is_charged_exactly_once() {
        // Regression: temperature calibration began an incremental
        // evaluator on the start state and `anneal` then began a second
        // one on the same state — charging the start twice. With a budget of one unit the
        // whole run now performs exactly one evaluation (the start) and
        // stops, instead of spending a unit it never had.
        let q = chain_query();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::with_budget(&q, &model, 1);
        let mut rng = SmallRng::seed_from_u64(5);
        let comp: Vec<RelId> = q.rel_ids().collect();
        SimulatedAnnealing::default().run(&mut ev, &comp, &mut rng);
        assert_eq!(ev.used(), 1);
        assert_eq!(ev.n_evals(), 1);
        assert!(ev.best().is_some());
    }
}
