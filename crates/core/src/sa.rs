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
//! while its competitors keep searching. The same annealer runs over
//! bushy trees ([`crate::bushy_search`]).

use rand::Rng;

use ljqo_catalog::RelId;
use ljqo_cost::Evaluator;
use ljqo_plan::{random_valid_order, JoinOrder, MoveGenerator, MoveSet};

use crate::neighborhood::{Neighborhood, Orders};

/// Simulated annealing parameters (defaults follow SG88 / JAMS87).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatedAnnealing {
    /// Move-set composition for linear states.
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
    /// Calibrate the initial temperature from `space`'s current state by
    /// a short always-accepting random walk:
    /// `T₀ = mean(uphill Δ) / −ln(p₀)` makes the average uphill move
    /// acceptable with probability `p₀`. Consumes budget like any other
    /// search work, then returns `space` to the start state. Its cost was
    /// paid when the space was parked on it, so the return charges
    /// nothing (it rebuilds the memoized state off-budget).
    fn initial_temperature<'a, N: Neighborhood<'a>, R: Rng + ?Sized>(
        &self,
        space: &mut N,
        ev: &mut Evaluator<'a>,
        rng: &mut R,
    ) -> f64 {
        let home = space.save();
        let mut current = space.cost();
        let mut uphill_sum = 0.0f64;
        let mut uphill_n = 0u32;
        for _ in 0..20 {
            if ev.exhausted() {
                break;
            }
            let Some((c, _)) = space.step(ev, rng) else {
                break;
            };
            // A saturated cost (a NaN or overflow priced as `f64::MAX`)
            // on either side of a step says nothing about the uphill
            // steps of the healthy landscape: counting one would set
            // T₀ near 1e307 and turn the whole run into a random walk.
            let delta = c - current;
            if delta > 0.0 && c < f64::MAX && current < f64::MAX {
                uphill_sum += delta;
                uphill_n += 1;
            }
            space.commit(); // random walk: always accept during calibration
            space.note(c);
            current = c;
        }
        space.restore(home);
        if uphill_n == 0 {
            1.0
        } else {
            (uphill_sum / uphill_n as f64) / -(self.init_accept.ln())
        }
    }

    /// Run annealing from `start` until frozen (and out of restarts) or the
    /// budget is exhausted. The best visited state is tracked by the
    /// evaluator. An evaluator that is already exhausted (an expired
    /// deadline) gets no evaluation at all, so the run degrades like the
    /// other methods instead of shipping its unsearched start.
    pub fn anneal<R: Rng + ?Sized>(&self, ev: &mut Evaluator<'_>, start: JoinOrder, rng: &mut R) {
        if ev.exhausted() {
            return;
        }
        if start.len() < 2 {
            ev.cost(&start);
            return;
        }
        let mut gen = MoveGenerator::with_compiled(ev.compiled().clone(), self.move_set);
        let mut space = Orders::begin(ev, &mut gen, start);
        self.anneal_in(&mut space, ev, rng);
    }

    /// Anneal from `space`'s current state (of two or more relations,
    /// whose cost the caller has already paid) until frozen (and out of
    /// restarts) or the budget is exhausted. The space keeps the best
    /// state visited.
    pub(crate) fn anneal_in<'a, N: Neighborhood<'a>, R: Rng + ?Sized>(
        &self,
        space: &mut N,
        ev: &mut Evaluator<'a>,
        rng: &mut R,
    ) {
        let mut current = space.cost();
        let t0 = self.initial_temperature(space, ev, rng);
        let chain_length = (self.size_factor * space.n_rels()).max(4);

        let mut temp = t0;
        let mut stale_chains = 0usize;

        while !ev.exhausted() {
            let best_before = space.best_cost(ev);
            let mut accepted = 0usize;
            for _ in 0..chain_length {
                if ev.exhausted() {
                    break;
                }
                let Some((candidate, _)) = space.step(ev, rng) else {
                    break;
                };
                let delta = candidate - current;
                let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp();
                if accept {
                    space.commit();
                    space.note(candidate);
                    current = candidate;
                    accepted += 1;
                } else {
                    // A rejected candidate was strictly uphill of the
                    // current state, which is never below the best.
                    space.rollback();
                }
            }
            temp *= self.cooling;
            let improved = space.best_cost(ev) < best_before;
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
                    // restart itself charges nothing.
                    if let Some(best_cost) = space.to_best(ev) {
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
    use ljqo_cost::{CostModel, JoinCtx, MemoryCostModel};
    use ljqo_plan::validity::is_valid;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::Mutex;

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
        let mut space = Orders::begin(&mut ev, &mut gen, start.clone());
        let start_cost = space.cost();
        let t0 = sa.initial_temperature(&mut space, &mut ev, &mut rng);
        assert!(t0.is_finite() && t0 > 0.0);
        assert!(start_cost.is_finite());
        // The space comes back parked on the start state, ready to
        // anneal.
        assert_eq!(space.save(), start);
        assert_eq!(space.cost(), start_cost);
    }

    /// The memory model, except that it prices `NaN` for one join context
    /// wherever it occurs, and records every context it prices.
    #[derive(Default)]
    struct NanOn {
        ctx: Option<JoinCtx>,
        priced: Mutex<Vec<JoinCtx>>,
    }

    impl CostModel for NanOn {
        fn join_cost(&self, ctx: &JoinCtx) -> f64 {
            self.priced.lock().unwrap().push(*ctx);
            if self.ctx == Some(*ctx) {
                return f64::NAN;
            }
            MemoryCostModel::default().join_cost(ctx)
        }

        fn name(&self) -> &'static str {
            "nan-on"
        }
    }

    #[test]
    fn nan_during_calibration_does_not_inflate_initial_temperature() {
        // Regression: a NaN step during the calibration walk saturates to
        // `f64::MAX`, and its Δ used to count as an uphill sample, which
        // set T₀ ≈ 2e307 for most of the faults below — in the linear
        // space, and in the tree space while it had a walk of its own.
        use crate::bushy_search::Trees;
        use ljqo_cost::{FaultMode, FaultyCostModel};
        let q = chain_query();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let sa = SimulatedAnnealing::default();
        let t0_under = |model: &dyn CostModel, bushy: bool| {
            let mut ev = Evaluator::new(&q, model);
            let mut rng = SmallRng::seed_from_u64(11);
            let start = random_valid_order(q.graph(), &comp, &mut rng);
            if bushy {
                let mut space = Trees::begin(&mut ev, start);
                sa.initial_temperature(&mut space, &mut ev, &mut rng)
            } else {
                let mut gen = MoveGenerator::with_compiled(ev.compiled().clone(), sa.move_set);
                let mut space = Orders::begin(&mut ev, &mut gen, start);
                sa.initial_temperature(&mut space, &mut ev, &mut rng)
            }
        };

        // Linear orders: one NaN step. The start state prices the first 5
        // join steps and the 20-move walk the rest, so every k here lands
        // inside the walk.
        let healthy = t0_under(&MemoryCostModel::default(), false);
        for k in 6..=40 {
            let model = FaultyCostModel::new(MemoryCostModel::default(), FaultMode::NanOnKth(k));
            let t0 = t0_under(&model, false);
            assert!(model.evals() >= k, "the NaN at step {k} never fired");
            let ratio = t0 / healthy;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "k={k}: T₀ {t0:e} vs {healthy:e}"
            );
        }

        // Bushy trees: one join priced NaN wherever it occurs, for each
        // join the walk reaches that its start tree lacks. Calibration
        // accepts every move, so a poisoned walk visits the healthy
        // walk's trees, and T₀ averages the healthy uphill steps between
        // unpoisoned trees. Poisoning a join for good drops every step
        // into or out of the trees holding it, so T₀ moves further than
        // under one NaN step (0.2× to 1.2× on this walk), but stays on
        // the healthy scale where the defect put it 1e303× above.
        let healthy = NanOn::default();
        let t0_healthy = t0_under(&healthy, true);
        let mut walked: Vec<JoinCtx> = Vec::new();
        for ctx in healthy.priced.into_inner().unwrap() {
            if !walked.contains(&ctx) {
                walked.push(ctx);
            }
        }
        assert!(walked.len() > 10, "{} joins", walked.len());
        for ctx in walked.split_off(5) {
            let model = NanOn {
                ctx: Some(ctx),
                ..NanOn::default()
            };
            let t0 = t0_under(&model, true);
            let ratio = t0 / t0_healthy;
            assert!(
                (0.1..=10.0).contains(&ratio),
                "bushy, {ctx:?}: T₀ {t0:e} vs {t0_healthy:e}"
            );
        }
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
