//! Property tests for the learned portfolio router: the never-worse
//! contract at equal budget, share determinism, the ε exploration
//! floor, and relabel-invariance of the class assignment.

use std::sync::Arc;

use ljqo::cache::{classify, BanditRouter, RouterConfig};
use ljqo::parallel::PORTFOLIO;
use ljqo::prelude::*;
use ljqo_workload::{generate_job_query, JobShape, JobSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn job_query(shape: JobShape, n_joins: usize, seed: u64) -> Query {
    generate_job_query(&JobSpec::new(shape), n_joins, seed)
}

fn portfolio_arms() -> Vec<&'static str> {
    PORTFOLIO.iter().map(|m| m.name()).collect()
}

/// The acceptance contract: a router *warmed on a class* must never
/// return a worse plan than the uniform portfolio for queries of that
/// class at equal total budget. Structure mirrors the robustness
/// suite's 18-cell grid: every shape × two sizes × three seeds, each
/// cell with its own router trained online through the routed driver
/// itself (the same code path a server exercises).
#[test]
fn routed_portfolio_is_never_worse_than_uniform_at_equal_budget() {
    let model = MemoryCostModel::default();
    let arms = portfolio_arms();
    let mut checked = 0usize;
    for (i, shape) in JobShape::ALL.into_iter().enumerate() {
        for n_joins in [12usize, 14] {
            for seed in 0..3u64 {
                let cell = 0x0b5e_0006 ^ ((i as u64) << 12) ^ ((n_joins as u64) << 4) ^ seed;
                let config = OptimizerConfig::new(Method::Ii)
                    .with_seed(seed)
                    .with_time_limit(5.0);
                let router = Arc::new(BanditRouter::new(&arms, RouterConfig::default()));
                let routed_par =
                    Parallelism::portfolio(PORTFOLIO.len()).with_router(Arc::clone(&router));
                // Warm the class through the routed driver itself:
                // comfortably past min_events (eight) so the boosted
                // arm reflects the class, not one noisy instance.
                for t in 0..15u64 {
                    let train = job_query(shape, n_joins, cell ^ (0xa000 + t));
                    Optimizer::new(&model, &config)
                        .with_parallelism(&routed_par)
                        .solve(&train)
                        .unwrap();
                }
                let eval = job_query(shape, n_joins, cell);
                let uniform = Optimizer::new(&model, &config)
                    .with_parallelism(&Parallelism::portfolio(PORTFOLIO.len()))
                    .solve(&eval)
                    .unwrap()
                    .0;
                let routed = Optimizer::new(&model, &config)
                    .with_parallelism(&routed_par)
                    .solve(&eval)
                    .unwrap()
                    .0;
                assert!(
                    routed.cost <= uniform.cost,
                    "{shape:?} n={n_joins} seed={seed}: routed {} > uniform {}",
                    routed.cost,
                    uniform.cost
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 18);
}

/// A cold router must be *bit-identical* to the uniform portfolio —
/// same plan, same cost — because below `min_events` it emits the
/// uniform share vector and the weighted driver delegates wholesale.
#[test]
fn cold_router_is_bit_identical_to_the_uniform_portfolio() {
    let model = MemoryCostModel::default();
    let arms = portfolio_arms();
    for (i, shape) in JobShape::ALL.into_iter().enumerate() {
        let q = job_query(shape, 13, 0x0b5e_0007 ^ i as u64);
        let config = OptimizerConfig::new(Method::Ii)
            .with_seed(7)
            .with_time_limit(3.0);
        let router = Arc::new(BanditRouter::new(&arms, RouterConfig::default()));
        let uniform = Optimizer::new(&model, &config)
            .with_parallelism(&Parallelism::portfolio(4))
            .solve(&q)
            .unwrap()
            .0;
        let routed = Optimizer::new(&model, &config)
            .with_parallelism(&Parallelism::portfolio(4).with_router(router))
            .solve(&q)
            .unwrap()
            .0;
        assert_eq!(routed.cost, uniform.cost, "{shape:?}");
        assert_eq!(
            format!("{:?}", routed.plan),
            format!("{:?}", uniform.plan),
            "{shape:?}: cold-routed plan differs from uniform"
        );
    }
}

/// Two routers fed the identical outcome stream emit identical share
/// vectors — routing is a pure function of the observed history.
#[test]
fn shares_are_deterministic_in_the_event_stream() {
    let arms = portfolio_arms();
    for case in 0..16u64 {
        let a = BanditRouter::new(&arms, RouterConfig::default());
        let b = BanditRouter::new(&arms, RouterConfig::default());
        let mut rng = SmallRng::seed_from_u64(0x0b5e_0008 ^ case);
        let class = classify(&job_query(
            JobShape::ALL[case as usize % 3],
            10 + (case as usize % 5),
            case,
        ));
        for _ in 0..rng.gen_range(1..40usize) {
            let costs: Vec<Option<f64>> = (0..4)
                .map(|_| {
                    if rng.gen_bool(0.85) {
                        Some(rng.gen_range(1.0..1e6f64))
                    } else {
                        None
                    }
                })
                .collect();
            let units: Vec<u64> = (0..4).map(|_| rng.gen_range(0..5000)).collect();
            let winner = if rng.gen_bool(0.9) {
                Some(rng.gen_range(0..4usize))
            } else {
                None
            };
            a.record_outcome(&class, &costs, &units, winner);
            b.record_outcome(&class, &costs, &units, winner);
        }
        assert_eq!(
            a.shares(&class),
            b.shares(&class),
            "case {case}: identical histories, different shares"
        );
        assert_eq!(a.snapshot(), b.snapshot(), "case {case}");
    }
}

/// On arbitrary outcome streams the emitted shares always form a
/// distribution that honors the ε floor: every arm keeps at least the
/// effective ε, the boosted arm keeps at least the uniform share, and
/// the vector sums to one.
#[test]
fn epsilon_floor_holds_on_random_event_streams() {
    for case in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(0x0b5e_0009 ^ case);
        let epsilon = rng.gen_range(0.0..0.6f64); // deliberately allows ε > 1/K
        let config = RouterConfig {
            epsilon,
            ..RouterConfig::default()
        };
        let arms = portfolio_arms();
        let router = BanditRouter::new(&arms, config);
        let class = classify(&job_query(JobShape::Star, 12, case));
        let events = rng.gen_range(0..30u64);
        for _ in 0..events {
            let costs: Vec<Option<f64>> =
                (0..4).map(|_| Some(rng.gen_range(1.0..1e4f64))).collect();
            router.record_outcome(&class, &costs, &[100; 4], Some(rng.gen_range(0..4usize)));
        }
        let shares = router.shares(&class);
        let eps = router.effective_epsilon();
        assert!(eps <= 0.25 + 1e-12, "effective ε must be clamped to 1/K");
        assert!(
            (shares.iter().sum::<f64>() - 1.0).abs() < 1e-9,
            "case {case}"
        );
        for (j, s) in shares.iter().enumerate() {
            assert!(
                *s >= eps - 1e-12,
                "case {case}: arm {j} share {s} below floor {eps}"
            );
        }
        let max = shares.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            max >= 0.25 - 1e-12,
            "case {case}: boosted arm fell below its uniform share"
        );
        if events < RouterConfig::default().min_events {
            assert_eq!(shares, vec![0.25; 4], "case {case}: cold class not uniform");
        }
    }
}

/// Relabeling the relations of a query never changes its router class —
/// the same harness the fingerprint suite uses, aimed at [`classify`].
#[test]
fn class_assignment_is_relabel_invariant() {
    use ljqo::catalog::{JoinEdge, Query as CatQuery, RelId, Relation};

    fn random_query(rng: &mut SmallRng) -> CatQuery {
        let n = rng.gen_range(3usize..12);
        let relations: Vec<Relation> = (0..n)
            .map(|i| Relation::new(format!("r{i}"), rng.gen_range(10u64..1_000_000)))
            .collect();
        let mut edges = Vec::new();
        for i in 1..n {
            let j = rng.gen_range(0..i) as u32;
            edges.push(JoinEdge::new(j, i as u32, 0.01, 10.0, 10.0));
        }
        for _ in 0..rng.gen_range(0usize..4) {
            let a = rng.gen_range(0..n) as u32;
            let b = rng.gen_range(0..n) as u32;
            if a != b {
                edges.push(JoinEdge::new(a, b, 0.02, 5.0, 5.0));
            }
        }
        CatQuery::new(relations, edges).unwrap()
    }

    fn permuted(query: &CatQuery, perm: &[usize]) -> CatQuery {
        let n = query.n_relations();
        let mut relations: Vec<Option<Relation>> = vec![None; n];
        for (old, r) in query.relations().iter().enumerate() {
            relations[perm[old]] = Some(r.clone());
        }
        let relations: Vec<Relation> = relations.into_iter().map(Option::unwrap).collect();
        let edges: Vec<JoinEdge> = query
            .graph()
            .edges()
            .iter()
            .map(|e| JoinEdge {
                a: RelId(perm[e.a.index()] as u32),
                b: RelId(perm[e.b.index()] as u32),
                ..*e
            })
            .collect();
        CatQuery::new(relations, edges).unwrap()
    }

    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x0b5e_000a ^ case);
        let q = random_query(&mut rng);
        let mut perm: Vec<usize> = (0..q.n_relations()).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let p = permuted(&q, &perm);
        assert_eq!(
            classify(&q),
            classify(&p),
            "case {case}: relabeling changed the router class"
        );
    }
}
