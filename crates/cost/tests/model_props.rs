//! Property tests on the cost models: monotonicity, positivity, and
//! lower-bound admissibility over random chain queries. Implemented as
//! seeded-RNG loops: the build is offline, so no proptest — every case
//! is reproducible from its printed seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ljqo_catalog::{Query, QueryBuilder, RelId};
use ljqo_cost::{
    costs_agree, CostModel, DiskCostModel, IncrementalEvaluator, JoinCtx, MemoryCostModel,
    MultiMethodCostModel, OrderCost,
};
use ljqo_plan::Move;

const CASES: u64 = 64;

fn models() -> [Box<dyn CostModel>; 3] {
    [
        Box::new(MemoryCostModel::default()),
        Box::new(DiskCostModel::default()),
        Box::new(MultiMethodCostModel::default()),
    ]
}

/// A random chain query of 3..8 relations.
fn arb_chain(rng: &mut SmallRng) -> Query {
    let len = rng.gen_range(3usize..8);
    let mut b = QueryBuilder::new();
    let mut sels = Vec::with_capacity(len);
    for i in 0..len {
        b = b.relation(format!("r{i}"), rng.gen_range(10u64..50_000));
        sels.push(rng.gen_range(0.001f64..1.0));
    }
    for (i, sel) in sels.iter().enumerate().skip(1) {
        b = b.join(&format!("r{}", i - 1), &format!("r{i}"), *sel);
    }
    b.build().unwrap()
}

/// A random connected catalog: a chain spine of 4..9 relations plus
/// random extra join edges (so moves hit cross products, cycles, and
/// star-ish fragments, not just chains).
fn arb_catalog(rng: &mut SmallRng) -> Query {
    let len = rng.gen_range(4usize..9);
    let mut b = QueryBuilder::new();
    for i in 0..len {
        b = b.relation(format!("r{i}"), rng.gen_range(10u64..50_000));
    }
    for i in 1..len {
        b = b.join(
            &format!("r{}", i - 1),
            &format!("r{i}"),
            rng.gen_range(0.001f64..1.0),
        );
    }
    for i in 0..len {
        for j in (i + 2)..len {
            if rng.gen_bool(0.15) {
                b = b.join(
                    &format!("r{i}"),
                    &format!("r{j}"),
                    rng.gen_range(0.001f64..1.0),
                );
            }
        }
    }
    b.build().unwrap()
}

/// A batch of random moves covering all four kinds the local-search
/// methods generate: adjacent swap, arbitrary swap, 3-cycle, reinsert.
fn arb_moves(n: usize, rng: &mut SmallRng) -> Vec<Move> {
    let mut mvs = Vec::new();
    for _ in 0..4 {
        let i = rng.gen_range(0..n - 1);
        mvs.push(Move::Swap { i, j: i + 1 });

        let i = rng.gen_range(0..n);
        let mut j = rng.gen_range(0..n - 1);
        if j >= i {
            j += 1;
        }
        mvs.push(Move::Swap { i, j });

        let mut k = rng.gen_range(0..n - 2);
        for taken in [i.min(j), i.max(j)] {
            if k >= taken {
                k += 1;
            }
        }
        mvs.push(Move::ThreeCycle { i, j, k });

        let from = rng.gen_range(0..n);
        let mut to = rng.gen_range(0..n - 1);
        if to >= from {
            to += 1;
        }
        mvs.push(Move::Reinsert { from, to });
    }
    mvs
}

/// Incremental (delta) move evaluation agrees with a from-scratch walk
/// for every move kind on random catalogs, under every cost model; after
/// a commit the memoized state is bit-identical to a fresh walk.
#[test]
fn incremental_matches_full_for_all_move_kinds() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xc057_0005 ^ case);
        let q = arb_catalog(&mut rng);
        let comp: Vec<RelId> = q.rel_ids().collect();
        for model in models() {
            let order = ljqo_plan::random_valid_order(q.graph(), &comp, &mut rng);
            let mut inc = IncrementalEvaluator::new(&q, model.as_ref(), order);
            for mv in arb_moves(q.n_relations(), &mut rng) {
                let got = inc.eval_move(&mv);
                let want = inc.full_eval();
                assert!(
                    costs_agree(got, want),
                    "case {case}: {} {mv:?}: incremental {got} vs full {want}",
                    model.name()
                );
                if rng.gen_bool(0.5) {
                    inc.commit();
                    assert_eq!(
                        inc.current_cost(),
                        inc.full_eval(),
                        "case {case}: {} {mv:?}: committed state not bit-exact",
                        model.name()
                    );
                } else {
                    inc.rollback();
                    assert_eq!(
                        inc.current_cost(),
                        inc.full_eval(),
                        "case {case}: {} {mv:?}: rollback corrupted state",
                        model.name()
                    );
                }
            }
        }
    }
}

/// Join costs are positive, finite, and monotone in every cardinality.
#[test]
fn join_cost_is_monotone() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xc057_0001 ^ case);
        let outer = rng.gen_range(1.0f64..1e8);
        let inner = rng.gen_range(1.0f64..1e8);
        let output = rng.gen_range(1.0f64..1e10);
        let rels = rng.gen_range(1usize..20);
        let inner_rels = rng.gen_range(1usize..20);
        let bump = rng.gen_range(1.1f64..4.0);
        let ctx = JoinCtx {
            outer_card: outer,
            inner_card: inner,
            output_card: output,
            outer_rels: rels,
            inner_rels,
            is_cross_product: false,
        };
        for model in models() {
            let base = model.join_cost(&ctx);
            assert!(
                base.is_finite() && base > 0.0,
                "case {case}: {}",
                model.name()
            );
            for grown in [
                JoinCtx {
                    outer_card: outer * bump,
                    ..ctx
                },
                JoinCtx {
                    inner_card: inner * bump,
                    ..ctx
                },
                JoinCtx {
                    output_card: output * bump,
                    ..ctx
                },
                JoinCtx {
                    outer_rels: rels + 1,
                    ..ctx
                },
                JoinCtx {
                    inner_rels: inner_rels + 1,
                    ..ctx
                },
            ] {
                assert!(
                    model.join_cost(&grown) >= base - base * 1e-12,
                    "case {case}: {} not monotone",
                    model.name()
                );
            }
        }
    }
}

/// Lower bounds are admissible for every valid order of a chain.
#[test]
fn lower_bound_admissible_on_chains() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xc057_0002 ^ case);
        let q = arb_chain(&mut rng);
        let comp: Vec<RelId> = q.rel_ids().collect();
        for model in models() {
            let lb = model.lower_bound(&q, &comp);
            assert!(lb >= 0.0 && lb.is_finite(), "case {case}");
            for _ in 0..5 {
                let o = ljqo_plan::random_valid_order(q.graph(), &comp, &mut rng);
                let c = model.order_cost(&q, o.rels());
                assert!(
                    lb <= c * (1.0 + 1e-12),
                    "case {case}: {}: {lb} > {c}",
                    model.name()
                );
            }
        }
    }
}

/// Order costs only accumulate: the cost of a prefix never exceeds the
/// cost of the whole order.
#[test]
fn prefix_costs_are_monotone() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xc057_0003 ^ case);
        let q = arb_chain(&mut rng);
        let order: Vec<RelId> = q.rel_ids().collect();
        for model in models() {
            let mut prev = 0.0;
            for k in 1..=order.len() {
                let c = model.order_cost(&q, &order[..k]);
                assert!(c >= prev - prev * 1e-12, "case {case}: {}", model.name());
                prev = c;
            }
        }
    }
}

/// The multi-method model never costs more than the pure hash model
/// with matching hash parameters on joins (it takes a min that
/// includes hash).
#[test]
fn multi_method_dominates_hash() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xc057_0004 ^ case);
        let hash = MemoryCostModel {
            c_copy: 0.0,
            ..MemoryCostModel::default()
        };
        let multi = MultiMethodCostModel::default();
        let ctx = JoinCtx {
            outer_card: rng.gen_range(1.0f64..1e7),
            inner_card: rng.gen_range(1.0f64..1e7),
            output_card: rng.gen_range(1.0f64..1e8),
            outer_rels: rng.gen_range(1usize..10),
            inner_rels: 1,
            is_cross_product: false,
        };
        assert!(
            multi.join_cost(&ctx) <= hash.join_cost(&ctx) + 1e-9,
            "case {case}"
        );
    }
}
