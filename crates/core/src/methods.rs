//! The nine optimization methods of paper §4.4.

use rand::Rng;

use ljqo_catalog::RelId;
use ljqo_cost::Evaluator;
use ljqo_heuristics::{AugmentationHeuristic, CardFreeHeuristic, KbzHeuristic, LocalImprovement};
use ljqo_plan::MoveGenerator;

use crate::ii::IterativeImprovement;
use crate::sa::SimulatedAnnealing;

/// The methods compared in the paper's Figure 4 (and the five survivors
/// compared in Figures 5–7 and Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Iterative improvement from random start states.
    Ii,
    /// Simulated annealing from a random start state.
    Sa,
    /// SA started from one augmentation state.
    Saa,
    /// SA started from the KBZ state.
    Sak,
    /// Iterative improvement seeded by the augmentation states, then by
    /// random states. The paper's overall winner.
    Iai,
    /// Iterative improvement seeded by the KBZ per-root states, then by
    /// random states.
    Iki,
    /// Like IAI, but after the augmentation states are exhausted, local
    /// improvement is applied to the best local minimum.
    Ial,
    /// All augmentation states first, then iterative improvement from
    /// random states. The paper's winner at small time limits (≲ 1.8N²).
    Agi,
    /// The KBZ states first, then iterative improvement from random
    /// states.
    Kbi,
    /// Cardinality-free structural ordering (after Simpli-Squared,
    /// arxiv 2111.00163): one deterministic order from the join graph
    /// alone, no statistics consulted. Not one of the paper's nine — it
    /// exists for the robustness study, where it is immune to estimation
    /// error by construction.
    Cardfree,
    /// Iterative improvement over **bushy** trees (tree moves with
    /// path-to-root incremental re-costing; see `crate::bushy_search`).
    /// Not one of the paper's nine — it attacks the paper's open problem
    /// of validating the linear-tree restriction. Under the linear
    /// drivers this runs plain II (the honest linear restriction of the
    /// same search).
    BushyIi,
    /// Simulated annealing over **bushy** trees. Like [`Method::BushyIi`],
    /// a post-paper method; under the linear drivers it runs plain SA.
    BushySa,
}

impl Method {
    /// All nine methods, in the paper's presentation order.
    pub const ALL: [Method; 9] = [
        Method::Ii,
        Method::Sa,
        Method::Saa,
        Method::Sak,
        Method::Iai,
        Method::Iki,
        Method::Ial,
        Method::Agi,
        Method::Kbi,
    ];

    /// The five methods the paper retains after Figure 4.
    pub const TOP_FIVE: [Method; 5] = [
        Method::Iai,
        Method::Ial,
        Method::Agi,
        Method::Kbi,
        Method::Ii,
    ];

    /// The paper's name for the method.
    pub fn name(self) -> &'static str {
        match self {
            Method::Ii => "II",
            Method::Sa => "SA",
            Method::Saa => "SAA",
            Method::Sak => "SAK",
            Method::Iai => "IAI",
            Method::Iki => "IKI",
            Method::Ial => "IAL",
            Method::Agi => "AGI",
            Method::Kbi => "KBI",
            Method::Cardfree => "CARDFREE",
            Method::BushyIi => "BUSHYII",
            Method::BushySa => "BUSHYSA",
        }
    }

    /// Parse a method name (case-insensitive). Accepts the paper's nine
    /// names plus the post-paper `CARDFREE`, `BUSHYII` and `BUSHYSA`.
    pub fn parse(s: &str) -> Option<Method> {
        Method::ALL
            .into_iter()
            .chain([Method::Cardfree, Method::BushyIi, Method::BushySa])
            .find(|m| m.name().eq_ignore_ascii_case(s))
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Shared configuration for running any [`Method`] on one component.
///
/// The best state found is tracked by the [`Evaluator`]; a runner mutates
/// no state of its own and can be reused across queries and methods.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MethodRunner {
    /// Iterative improvement parameters, in both search spaces (see
    /// [`MethodRunner::run_bushy`]).
    pub ii: IterativeImprovement,
    /// Simulated annealing parameters, in both search spaces.
    pub sa: SimulatedAnnealing,
    /// Augmentation heuristic (criterion 3 by default, the Table 1
    /// winner).
    pub augmentation: AugmentationHeuristic,
    /// KBZ heuristic (selectivity MST weights by default, the Table 2
    /// winner).
    pub kbz: KbzHeuristic,
}

impl MethodRunner {
    /// Run `method` on one join-graph component until the evaluator's
    /// budget is exhausted (or the method has nothing further to try).
    /// The result is read from `ev.best()`.
    pub fn run<R: Rng + ?Sized>(
        &self,
        method: Method,
        ev: &mut Evaluator<'_>,
        component: &[RelId],
        rng: &mut R,
    ) {
        if component.len() == 1 {
            ev.cost_slice(component);
            return;
        }
        match method {
            Method::Ii => self.ii.run(ev, component, rng),
            Method::Sa => self.sa.run(ev, component, rng),
            Method::Saa => {
                // One augmentation state (smallest first relation) seeds SA.
                let firsts = AugmentationHeuristic::first_relations(ev.query(), component);
                ev.charge(component.len() as u64);
                let start = self.augmentation.generate(ev.query(), component, firsts[0]);
                self.sa.anneal(ev, start, rng);
            }
            Method::Sak => {
                match self.kbz.generate(ev, component) {
                    Some(start) => self.sa.anneal(ev, start, rng),
                    // KBZ never completed a root within budget; fall back
                    // to a random start for the (tiny) remaining budget.
                    None => self.sa.run(ev, component, rng),
                }
            }
            Method::Iai => {
                let mut gen = MoveGenerator::with_compiled(ev.compiled().clone(), self.ii.move_set);
                for first in AugmentationHeuristic::first_relations(ev.query(), component) {
                    if ev.exhausted() {
                        return;
                    }
                    ev.charge(component.len() as u64);
                    let mut order = self.augmentation.generate(ev.query(), component, first);
                    self.ii.descend(ev, &mut gen, &mut order, rng);
                }
                self.ii.run(ev, component, rng);
            }
            Method::Iki => {
                let mut gen = MoveGenerator::with_compiled(ev.compiled().clone(), self.ii.move_set);
                for mut order in self.kbz.generate_all_roots(ev, component) {
                    if ev.exhausted() {
                        return;
                    }
                    self.ii.descend(ev, &mut gen, &mut order, rng);
                }
                self.ii.run(ev, component, rng);
            }
            Method::Ial => {
                let mut gen = MoveGenerator::with_compiled(ev.compiled().clone(), self.ii.move_set);
                for first in AugmentationHeuristic::first_relations(ev.query(), component) {
                    if ev.exhausted() {
                        return;
                    }
                    ev.charge(component.len() as u64);
                    let mut order = self.augmentation.generate(ev.query(), component, first);
                    self.ii.descend(ev, &mut gen, &mut order, rng);
                }
                // Local improvement on the best of the local minima, with
                // the ladder strategy the remaining budget affords.
                while !ev.exhausted() {
                    let Some((best, best_cost)) = ev.best() else {
                        break;
                    };
                    let Some(strategy) =
                        LocalImprovement::best_for_budget(component.len(), ev.remaining())
                    else {
                        break;
                    };
                    let mut order = best.clone();
                    strategy.improve(ev, &mut order);
                    if ev.best_cost() >= best_cost {
                        break; // fixpoint: nothing left for LI to find
                    }
                }
                // Any leftover budget goes to further II runs.
                self.ii.run(ev, component, rng);
            }
            Method::Agi => {
                // All augmentation states first, evaluated but NOT
                // descended from...
                for first in AugmentationHeuristic::first_relations(ev.query(), component) {
                    if ev.exhausted() {
                        return;
                    }
                    ev.charge(component.len() as u64);
                    let order = self.augmentation.generate(ev.query(), component, first);
                    ev.cost(&order);
                }
                // ...then plain II from random states.
                self.ii.run(ev, component, rng);
            }
            Method::Kbi => {
                let _ = self.kbz.generate_all_roots(ev, component);
                self.ii.run(ev, component, rng);
            }
            Method::Cardfree => {
                // One structural order, charged like any constructive
                // heuristic (N units per generated order), evaluated
                // once. No RNG, no statistics: the whole method is a
                // pure function of the join graph.
                ev.charge(component.len() as u64);
                let order = CardFreeHeuristic.generate(ev.query().graph(), component);
                ev.cost(&order);
            }
            // In the *linear* search space the bushy methods run their
            // honest linear restriction; the tree search itself lives in
            // `MethodRunner::run_bushy` (crate::bushy_search).
            Method::BushyIi => self.ii.run(ev, component, rng),
            Method::BushySa => self.sa.run(ev, component, rng),
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

    fn query() -> Query {
        QueryBuilder::new()
            .relation("a", 3000)
            .relation("b", 12)
            .relation("c", 700)
            .relation("d", 55)
            .relation("e", 1400)
            .relation("f", 9)
            .relation("g", 230)
            .join("a", "b", 0.01)
            .join("b", "c", 0.002)
            .join("c", "d", 0.05)
            .join("d", "e", 0.001)
            .join("e", "f", 0.2)
            .join("f", "g", 0.004)
            .join("b", "e", 0.03)
            .build()
            .unwrap()
    }

    #[test]
    fn every_method_produces_a_valid_best_state() {
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let runner = MethodRunner::default();
        for method in Method::ALL {
            let mut ev = Evaluator::with_budget(&q, &model, 4_000);
            let mut rng = SmallRng::seed_from_u64(11);
            runner.run(method, &mut ev, &comp, &mut rng);
            let (best, cost) = ev
                .best()
                .unwrap_or_else(|| panic!("{method} produced no state"));
            assert_eq!(best.len(), comp.len(), "{method}");
            assert!(is_valid(q.graph(), best.rels()), "{method}");
            assert!(cost.is_finite(), "{method}");
        }
    }

    #[test]
    fn methods_never_exceed_budget_by_more_than_one_step() {
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let runner = MethodRunner::default();
        for method in Method::ALL {
            let budget = 500;
            let mut ev = Evaluator::with_budget(&q, &model, budget);
            let mut rng = SmallRng::seed_from_u64(3);
            runner.run(method, &mut ev, &comp, &mut rng);
            // A method may overrun by at most one indivisible step (one
            // heuristic generation + evaluation, or one move proposal with
            // its validity-check retries).
            let slack = comp.len() as u64 + 64 + 4 * q.n_relations() as u64;
            assert!(
                ev.used() <= budget + slack,
                "{method} used {} of {budget}",
                ev.used()
            );
        }
    }

    #[test]
    fn heuristic_seeded_methods_beat_or_match_their_seeds_quickly() {
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let runner = MethodRunner::default();

        // Cost of the single best augmentation state.
        let mut ev_seed = Evaluator::new(&q, &model);
        let mut seed_best = f64::INFINITY;
        for first in AugmentationHeuristic::first_relations(&q, &comp) {
            let o = runner.augmentation.generate(&q, &comp, first);
            seed_best = seed_best.min(ev_seed.cost(&o));
        }

        let mut ev = Evaluator::with_budget(&q, &model, 10_000);
        let mut rng = SmallRng::seed_from_u64(5);
        runner.run(Method::Iai, &mut ev, &comp, &mut rng);
        assert!(
            ev.best_cost() <= seed_best,
            "IAI must not lose to its seeds"
        );
    }

    #[test]
    fn singleton_component_handled_by_all_methods() {
        let q = query();
        let model = MemoryCostModel::default();
        let runner = MethodRunner::default();
        for method in Method::ALL {
            let mut ev = Evaluator::with_budget(&q, &model, 100);
            let mut rng = SmallRng::seed_from_u64(1);
            runner.run(method, &mut ev, &[RelId(3)], &mut rng);
            assert_eq!(ev.best().unwrap().0.rels(), &[RelId(3)], "{method}");
        }
    }

    #[test]
    fn parse_and_names_roundtrip() {
        for m in Method::ALL
            .into_iter()
            .chain([Method::Cardfree, Method::BushyIi, Method::BushySa])
        {
            assert_eq!(Method::parse(m.name()), Some(m));
            assert_eq!(Method::parse(&m.name().to_lowercase()), Some(m));
        }
        assert_eq!(Method::parse("nope"), None);
    }

    #[test]
    fn top_five_is_subset_of_all() {
        for m in Method::TOP_FIVE {
            assert!(Method::ALL.contains(&m));
        }
    }

    #[test]
    fn cardfree_is_not_one_of_the_papers_nine() {
        // `ALL` is the paper's set; the structural method rides alongside
        // so figure-reproduction sweeps stay faithful.
        assert!(!Method::ALL.contains(&Method::Cardfree));
        assert_eq!(Method::parse("cardfree"), Some(Method::Cardfree));
    }

    #[test]
    fn bushy_methods_are_not_among_the_papers_nine_but_run_linear() {
        assert!(!Method::ALL.contains(&Method::BushyIi));
        assert!(!Method::ALL.contains(&Method::BushySa));
        // Under the linear runner they are the honest linear restriction:
        // a valid order comes back, budget respected.
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let runner = MethodRunner::default();
        for method in [Method::BushyIi, Method::BushySa] {
            let mut ev = Evaluator::with_budget(&q, &model, 2_000);
            let mut rng = SmallRng::seed_from_u64(9);
            runner.run(method, &mut ev, &comp, &mut rng);
            let (best, cost) = ev
                .best()
                .unwrap_or_else(|| panic!("{method} produced no state"));
            assert!(is_valid(q.graph(), best.rels()), "{method}");
            assert!(cost.is_finite(), "{method}");
        }
    }

    #[test]
    fn cardfree_produces_a_valid_state_within_budget() {
        let q = query();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let model = MemoryCostModel::default();
        let runner = MethodRunner::default();
        let mut ev = Evaluator::with_budget(&q, &model, 100);
        let mut rng = SmallRng::seed_from_u64(4);
        runner.run(Method::Cardfree, &mut ev, &comp, &mut rng);
        let (best, cost) = ev.best().expect("cardfree produced no state");
        assert_eq!(best.len(), comp.len());
        assert!(is_valid(q.graph(), best.rels()));
        assert!(cost.is_finite());
        // One N-unit generation plus one evaluation.
        assert!(ev.used() <= comp.len() as u64 + 2, "used {}", ev.used());
    }

    #[test]
    fn cardfree_is_rng_independent() {
        let q = query();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let model = MemoryCostModel::default();
        let runner = MethodRunner::default();
        let run = |seed: u64| {
            let mut ev = Evaluator::with_budget(&q, &model, 100);
            let mut rng = SmallRng::seed_from_u64(seed);
            runner.run(Method::Cardfree, &mut ev, &comp, &mut rng);
            ev.best().map(|(o, c)| (o.clone(), c)).unwrap()
        };
        assert_eq!(run(1), run(999));
    }
}
