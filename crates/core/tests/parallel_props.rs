//! Property-style tests for the parallel search layer.
//!
//! The repository builds offline, so instead of a property-testing crate
//! these are seeded-RNG loops over randomized `(budget, workers)` inputs
//! (the same idiom as `tests/model_props.rs` at the workspace root): each
//! case derives its own deterministic seed, so failures reproduce
//! exactly.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ljqo::prelude::*;

const CASES: u64 = 48;

/// A connected 8-relation chain-with-shortcuts query — large enough that
/// budgets in the hundreds leave the search genuinely unfinished.
fn query(rng: &mut SmallRng) -> Query {
    let mut b = QueryBuilder::new();
    for i in 0..8 {
        b = b.relation(format!("r{i}"), rng.gen_range(10..50_000));
    }
    for i in 0..7usize {
        b = b.join(
            &format!("r{i}"),
            &format!("r{}", i + 1),
            10f64.powf(rng.gen_range(-4.0..-0.5)),
        );
    }
    // A couple of shortcut edges so the move set has cycles to exploit.
    b = b.join("r0", "r3", 0.01).join("r2", "r6", 0.005);
    b.build().unwrap()
}

/// Per-worker overrun bound: one indivisible step — a move proposal with
/// its validity-check retries (bounded by the generator), plus the
/// `O(N)` heuristic seeding some methods charge as one lump.
fn per_worker_slack(n_relations: usize) -> u64 {
    (64 + 4 * n_relations + n_relations + 1) as u64
}

#[test]
fn shard_budget_always_conserves_the_budget() {
    let mut rng = SmallRng::seed_from_u64(0x9a11_0001);
    for _ in 0..512 {
        let budget = rng.gen_range(0u64..100_000);
        let workers = rng.gen_range(1usize..33);
        let shares = shard_budget(budget, workers);
        assert_eq!(shares.len(), workers);
        assert_eq!(
            shares.iter().sum::<u64>(),
            budget,
            "sum mismatch for {budget}/{workers}"
        );
        let min = *shares.iter().min().unwrap();
        let max = *shares.iter().max().unwrap();
        assert!(max - min <= 1, "uneven shares for {budget}/{workers}");
        // Remainder units go to the lowest-indexed workers, so shares
        // are non-increasing.
        assert!(shares.windows(2).all(|w| w[0] >= w[1]));
    }
}

#[test]
fn total_units_never_exceed_budget_plus_bounded_overrun() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x9a11_0002 ^ case);
        let q = query(&mut rng);
        let model = MemoryCostModel::default();
        let runner = MethodRunner::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let budget = rng.gen_range(0u64..500);
        let workers = rng.gen_range(1usize..12);
        let method = [Method::Ii, Method::Sa, Method::Agi][case as usize % 3];
        let r = run_portfolio(
            &q,
            &model,
            &runner,
            &[method],
            &comp,
            &ParallelOptions::new(budget, workers, case),
        );
        let Some(r) = r else {
            assert_eq!(budget, 0, "only a zero budget may yield no state");
            continue;
        };
        let active = r.per_worker.iter().filter(|w| w.units_used > 0).count() as u64;
        let bound = budget + active * per_worker_slack(q.n_relations());
        assert!(
            r.units_used <= bound,
            "case {case}: {} units against budget {budget} with {workers} workers \
             ({active} active; bound {bound})",
            r.units_used
        );
        // Accounting is self-consistent: totals are the per-worker sums.
        assert_eq!(
            r.units_used,
            r.per_worker.iter().map(|w| w.units_used).sum::<u64>()
        );
        assert_eq!(
            r.n_evals,
            r.per_worker.iter().map(|w| w.n_evals).sum::<u64>()
        );
    }
}

#[test]
fn isolated_runs_are_bit_deterministic_in_seed_and_workers() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x9a11_0003 ^ case);
        let q = query(&mut rng);
        let model = MemoryCostModel::default();
        let runner = MethodRunner::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let budget = rng.gen_range(50u64..2_000);
        let workers = rng.gen_range(1usize..9);
        let run = || {
            run_portfolio(
                &q,
                &model,
                &runner,
                &[Method::Ii],
                &comp,
                &ParallelOptions::new(budget, workers, case),
            )
        };
        let (a, b) = (run().unwrap(), run().unwrap());
        assert_eq!(a.order, b.order, "case {case}");
        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "case {case}");
        assert_eq!(a.units_used, b.units_used, "case {case}");
        assert_eq!(a.per_worker, b.per_worker, "case {case}");
    }
}

#[test]
fn portfolio_runs_stay_budgeted_and_valid() {
    for case in 0..CASES / 2 {
        let mut rng = SmallRng::seed_from_u64(0x9a11_0005 ^ case);
        let q = query(&mut rng);
        let model = MemoryCostModel::default();
        let runner = MethodRunner::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let budget = rng.gen_range(20u64..2_000);
        let workers = rng.gen_range(1usize..9);
        let r = run_portfolio(
            &q,
            &model,
            &runner,
            &PORTFOLIO,
            &comp,
            &ParallelOptions::new(budget, workers, case),
        )
        .unwrap();
        assert!(ljqo::plan::validity::is_valid(q.graph(), r.order.rels()));
        let active = r.per_worker.iter().filter(|w| w.units_used > 0).count() as u64;
        assert!(r.units_used <= budget + active * per_worker_slack(q.n_relations()));
        for (w, report) in r.per_worker.iter().enumerate() {
            assert_eq!(report.method, PORTFOLIO[w % PORTFOLIO.len()]);
        }
    }
}
