//! Differential property tests for the compiled fast paths.
//!
//! Every hot-loop shortcut introduced by the compiled query snapshot has a
//! slow reference implementation it must match **bit for bit** (not just
//! approximately): the bitset validity checker against the edge-chasing
//! scan of `ljqo_plan::validity`, the step kernel's walks against the
//! edge-chasing cost walk of the `oracle` test module. Random catalogs
//! with 1–4 connected components, all three cost models and all four
//! move kinds, as seeded-RNG loops (offline build, so no proptest —
//! every case reproduces from its printed seed).

mod oracle;

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ljqo_catalog::{CompiledQuery, Query, QueryBuilder, RelId};
use ljqo_cost::{
    costs_agree, sanitize_cost, CostModel, DiskCostModel, IncrementalEvaluator, MemoryCostModel,
    MultiMethodCostModel, OrderCost,
};
use ljqo_plan::validity::is_valid;
use ljqo_plan::{random_valid_order, BitsetChecker, MoveGenerator, MoveSet};

const CASES: u64 = 64;

fn models() -> [Box<dyn CostModel>; 3] {
    [
        Box::new(MemoryCostModel::default()),
        Box::new(DiskCostModel::default()),
        Box::new(MultiMethodCostModel::default()),
    ]
}

/// A random catalog of 1..=4 connected components; each component is a
/// chain spine of 4..8 relations plus random extra edges (cycles, star-ish
/// hubs), with no edges between components.
fn arb_catalog(rng: &mut SmallRng) -> Query {
    let n_components = rng.gen_range(1usize..=4);
    let mut b = QueryBuilder::new();
    let mut next = 0usize;
    for _ in 0..n_components {
        let len = rng.gen_range(4usize..8);
        for i in next..next + len {
            b = b.relation(format!("r{i}"), rng.gen_range(10u64..50_000));
        }
        for i in next + 1..next + len {
            b = b.join(
                &format!("r{}", i - 1),
                &format!("r{i}"),
                rng.gen_range(0.001f64..1.0),
            );
        }
        for i in next..next + len {
            for j in (i + 2)..next + len {
                if rng.gen_bool(0.15) {
                    b = b.join(
                        &format!("r{i}"),
                        &format!("r{j}"),
                        rng.gen_range(0.001f64..1.0),
                    );
                }
            }
        }
        next += len;
    }
    b.build().unwrap()
}

fn all_kinds() -> MoveSet {
    MoveSet {
        adjacent_swap: 0.25,
        swap: 0.35,
        three_cycle: 0.2,
        reinsert: 0.2,
    }
}

/// In-place Fisher–Yates (the vendored rand has no `SliceRandom`).
fn shuffle(rels: &mut [RelId], rng: &mut SmallRng) {
    for i in (1..rels.len()).rev() {
        let j = rng.gen_range(0..=i);
        rels.swap(i, j);
    }
}

/// The bitset checker agrees with the reference edge-chasing scan on both
/// valid orders and arbitrary (mostly invalid) permutations, including
/// multi-component catalogs where an order covers only one component.
#[test]
fn bitset_validity_matches_reference() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xc09d_0001 ^ case);
        let q = arb_catalog(&mut rng);
        let cq = CompiledQuery::new(&q);
        let mut checker = BitsetChecker::new(q.n_relations());
        for comp in q.graph().components() {
            for _ in 0..8 {
                let order = random_valid_order(q.graph(), &comp, &mut rng);
                assert!(
                    checker.is_valid(&cq, order.rels()),
                    "case {case}: bitset checker rejected a valid order"
                );
                let mut scrambled: Vec<RelId> = order.rels().to_vec();
                shuffle(&mut scrambled, &mut rng);
                assert_eq!(
                    checker.is_valid(&cq, &scrambled),
                    is_valid(q.graph(), &scrambled),
                    "case {case}: bitset and reference disagree on {scrambled:?}"
                );
            }
        }
    }
}

/// Windowed revalidation after a move is exact: on orders that were valid
/// before the move, `window_valid` over the move's touched window gives
/// the same verdict as the full reference scan of the perturbed order.
#[test]
fn windowed_validity_matches_full_scan_after_moves() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xc09d_0002 ^ case);
        let q = arb_catalog(&mut rng);
        let cq = CompiledQuery::new(&q);
        let mut checker = BitsetChecker::new(q.n_relations());
        let moves = all_kinds();
        for comp in q.graph().components() {
            let mut order = random_valid_order(q.graph(), &comp, &mut rng);
            if order.len() < 2 {
                continue;
            }
            for step in 0..64 {
                // Raw moves, not validity-filtered, so the windows the
                // generator keeps and the ones it rejects are both
                // checked: draws from the generators' own move
                // distribution alternate with arbitrary (possibly
                // degenerate) swaps.
                let mv = if step % 2 == 0 {
                    moves.sample_move(order.len(), &mut rng)
                } else {
                    let i = rng.gen_range(0..order.len());
                    let j = rng.gen_range(0..order.len());
                    ljqo_plan::Move::Swap {
                        i: i.min(j),
                        j: i.max(j),
                    }
                };
                mv.apply(&mut order);
                let got =
                    checker.window_valid(&cq, order.rels(), mv.first_touched(), mv.last_touched());
                assert_eq!(
                    got,
                    is_valid(q.graph(), order.rels()),
                    "case {case}: window verdict diverged for {mv:?}"
                );
                if !got {
                    mv.undo(&mut order);
                }
            }
        }
    }
}

/// The step kernel's walks reproduce the edge-chasing oracle on
/// multi-component catalogs, under every cost model, with
/// compiled-filtered moves of all four kinds: the full walk and the
/// incremental rebuild bit for bit, every incremental evaluation within
/// re-association tolerance, and every committed state bit for bit.
#[test]
fn compiled_incremental_matches_order_cost() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xc09d_0003 ^ case);
        let q = arb_catalog(&mut rng);
        let compiled = Arc::new(CompiledQuery::new(&q));
        for model in models() {
            let model = model.as_ref();
            for comp in q.graph().components() {
                let order = random_valid_order(q.graph(), &comp, &mut rng);
                let want = oracle::order_cost(model, &q, order.rels());
                let full = sanitize_cost(model.order_cost(&q, order.rels()));
                assert_eq!(
                    full.to_bits(),
                    want.to_bits(),
                    "case {case}: {}: full walk {full} vs oracle {want}",
                    model.name()
                );
                let mut inc =
                    IncrementalEvaluator::with_compiled(&q, model, order, Arc::clone(&compiled));
                assert_eq!(
                    inc.current_cost().to_bits(),
                    want.to_bits(),
                    "case {case}: {}: rebuild {} vs oracle {want}",
                    model.name(),
                    inc.current_cost()
                );
                let mut gen = MoveGenerator::with_compiled(Arc::clone(&compiled), all_kinds());
                for _ in 0..16 {
                    let Some((mv, _)) = gen.propose_counted(q.graph(), inc.order_mut(), &mut rng)
                    else {
                        break;
                    };
                    let got = inc.eval_applied(&mv);
                    let want = oracle::order_cost(model, &q, inc.order().rels());
                    assert!(
                        costs_agree(got, want),
                        "case {case}: {} {mv:?}: compiled incremental {got} vs oracle {want}",
                        model.name()
                    );
                    if rng.gen_bool(0.5) {
                        inc.commit();
                        assert_eq!(
                            inc.current_cost().to_bits(),
                            want.to_bits(),
                            "case {case}: {} {mv:?}: committed state not bit-exact",
                            model.name()
                        );
                    } else {
                        inc.rollback();
                    }
                }
            }
        }
    }
}
