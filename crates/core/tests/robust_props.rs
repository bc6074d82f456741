//! Property tests for the estimation-error robustness layer: the
//! perturbation transform, the cardinality-free method and the regret
//! harness.

use ljqo::prelude::*;
use ljqo::robust::regret_under;
use ljqo_workload::{generate_job_query, JobShape, JobSpec, PerturbMode, Perturbation};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 12;

/// A random catalog with 1–4 join-graph components, each a random
/// connected subgraph (spanning tree plus optional extra edges).
fn multi_component_query(rng: &mut SmallRng) -> Query {
    let n_components = rng.gen_range(1..=4usize);
    let mut b = QueryBuilder::new();
    let mut names: Vec<Vec<String>> = Vec::new();
    for c in 0..n_components {
        let size = rng.gen_range(1..=6usize);
        let mut group = Vec::new();
        for i in 0..size {
            let name = format!("c{c}r{i}");
            b = b.relation(&name, rng.gen_range(10..50_000u64));
            group.push(name);
        }
        names.push(group);
    }
    for group in &names {
        // Spanning tree keeps each group connected...
        for i in 1..group.len() {
            let j = rng.gen_range(0..i);
            b = b.join(&group[j], &group[i], 10f64.powf(rng.gen_range(-4.0..-0.3)));
        }
        // ...plus a few chords for cycles.
        if group.len() > 2 {
            for _ in 0..rng.gen_range(0..=2usize) {
                let i = rng.gen_range(1..group.len());
                let j = rng.gen_range(0..i);
                b = b.join(&group[j], &group[i], 10f64.powf(rng.gen_range(-4.0..-0.3)));
            }
        }
    }
    b.build().unwrap()
}

fn job_query(shape: JobShape, n_joins: usize, seed: u64) -> Query {
    generate_job_query(&JobSpec::new(shape), n_joins, seed)
}

/// Two structurally identical queries must agree on every statistic for
/// this to hold; `Query` has no `PartialEq`, so compare the debug
/// rendering (which covers relations, selections, and edge statistics).
fn same_catalog(a: &Query, b: &Query) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

#[test]
fn perturbation_is_seed_deterministic() {
    for case in 0..CASES {
        let truth = job_query(JobShape::ALL[case as usize % 3], 12, 0x0b5e_0001 ^ case);
        for mode in PerturbMode::ALL {
            for q in [2.0, 10.0, 100.0] {
                let p = Perturbation::new(q, mode, 0x5eed_u64 ^ case);
                let a = p.observed(&truth);
                let b = p.observed(&truth);
                assert!(
                    same_catalog(&a, &b),
                    "same seed must give the same observed catalog (q={q}, {mode:?})"
                );
                let other = Perturbation::new(q, mode, 0x5eed_u64 ^ case ^ 1).observed(&truth);
                // Different seeds should (overwhelmingly) differ.
                assert!(
                    !same_catalog(&a, &other),
                    "different seeds produced identical catalogs (q={q}, {mode:?})"
                );
            }
        }
    }
}

#[test]
fn perturbation_preserves_structure() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x0b5e_0002 ^ case);
        let truth = multi_component_query(&mut rng);
        for mode in PerturbMode::ALL {
            let observed = Perturbation::new(10.0, mode, case).observed(&truth);
            assert_eq!(observed.n_relations(), truth.n_relations());
            assert_eq!(observed.graph().edges().len(), truth.graph().edges().len());
            for (a, b) in truth.graph().edges().iter().zip(observed.graph().edges()) {
                assert_eq!((a.a, a.b), (b.a, b.b), "edge endpoints moved");
            }
            assert_eq!(
                observed.graph().components(),
                truth.graph().components(),
                "perturbation changed the component structure"
            );
        }
    }
}

#[test]
fn cardfree_is_valid_on_random_multi_component_catalogs() {
    let model = MemoryCostModel::default();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x0b5e_0003 ^ case);
        let q = multi_component_query(&mut rng);
        // The raw heuristic: every component must come back as a valid
        // order over exactly its relations.
        for comp in q.graph().components() {
            let order = ljqo::heuristics::CardFreeHeuristic.generate(q.graph(), &comp);
            assert_eq!(order.rels().len(), comp.len(), "case {case}");
            assert!(
                ljqo::plan::validity::is_valid(q.graph(), order.rels()),
                "case {case}: invalid structural order"
            );
        }
        // The registered method end to end: a full valid plan, never
        // degraded (the structural order needs no statistics).
        let r = Optimizer::new(
            &model,
            &OptimizerConfig::new(Method::Cardfree).with_seed(case),
        )
        .solve(&q)
        .unwrap()
        .0;
        assert_eq!(r.degradation, Degradation::None, "case {case}");
        assert!(r.cost.is_finite(), "case {case}");
        for seg in &r.plan.segments {
            assert!(ljqo::plan::validity::is_valid(q.graph(), seg.rels()));
        }
    }
}

#[test]
fn regret_is_exactly_zero_with_exact_statistics() {
    let model = MemoryCostModel::default();
    for (i, shape) in JobShape::ALL.into_iter().enumerate() {
        let truth = job_query(shape, 10, 0x0b5e_0004 ^ i as u64);
        let observed = Perturbation::new(1.0, PerturbMode::Independent, 7).observed(&truth);
        // q = 1 is the identity: the observed catalog IS the truth.
        assert!(same_catalog(&truth, &observed), "{shape:?}");
        for method in [Method::Ii, Method::Agi, Method::Cardfree] {
            let config = OptimizerConfig::new(method).with_seed(3);
            let s = regret_under(&truth, &observed, &Optimizer::new(&model, &config)).unwrap();
            assert_eq!(s.regret, 0.0, "{shape:?}/{method:?}");
            assert_eq!(s.true_cost, s.reference_cost, "{shape:?}/{method:?}");
        }
    }
}
