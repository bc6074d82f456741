//! Boundary-size differential suite for the multi-word bitset kernels.
//!
//! Every kernel in the large-N path dispatches on the mask stride
//! (1 word / one 4-word block / general blocked), and the dispatch
//! boundaries sit exactly at N = 64 (last single-word size) and
//! N = 256 (last single-block size), with further word boundaries at
//! every multiple of 64. These tests pin the sizes on *both sides* of
//! each word boundary up to three words —
//! N ∈ {63, 64, 65, 127, 128, 129, 191, 192, 193} — plus a few sizes
//! past the block capacity to reach the general tier, and assert that
//! at every one of them the multi-word kernels are **bit-identical**
//! with the scalar reference scan:
//!
//! * full validity ([`BitsetChecker::is_valid`]) vs the adjacency-list
//!   scan ([`ljqo_plan::validity::is_valid`]),
//! * windowed revalidation (`window_valid`, `window_valid_primed`) vs
//!   a full re-scan after raw (unfiltered) window permutations,
//! * move filtering: the compiled generator proposes the *same stream*
//!   as a scalar reference proposer under the same seed,
//! * costing: the blocked tree walk reproduces `order_cost` bit for
//!   bit, under every cost model, on 1–4-component catalogs.
//!
//! Offline property-test idiom: seeded-RNG loops, one derived seed per
//! case, failures reproduce exactly.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ljqo_catalog::{bitset, CompiledQuery, JoinGraph, Query, QueryBuilder};
use ljqo_cost::{
    sanitize_cost, CostModel, DiskCostModel, MemoryCostModel, MultiMethodCostModel, OrderCost,
    TreeEvaluator,
};
use ljqo_plan::validity::{is_valid, BitsetChecker, ValidityChecker};
use ljqo_plan::{random_valid_order, JoinOrder, Move, MoveGenerator, MoveSet, TreePlan};

/// Sizes straddling every 64-bit word boundary up to three words. All
/// are ≤ 256, so they exercise the single-word and single-block tiers.
const BOUNDARY_NS: [usize; 9] = [63, 64, 65, 127, 128, 129, 191, 192, 193];

/// Sizes straddling the block-capacity boundary: the general (heap
/// stride) tier starts at 257.
const GENERAL_NS: [usize; 3] = [256, 257, 320];

fn models() -> Vec<Box<dyn CostModel>> {
    vec![
        Box::new(MemoryCostModel::default()),
        Box::new(DiskCostModel::default()),
        Box::new(MultiMethodCostModel::default()),
    ]
}

fn all_kinds() -> MoveSet {
    MoveSet {
        adjacent_swap: 0.25,
        swap: 0.35,
        three_cycle: 0.2,
        reinsert: 0.2,
    }
}

/// Scalar reference for `MoveGenerator::propose_counted`: the same raw
/// draws ([`MoveSet::sample_move`]) and retry limit, each filtered by a
/// full adjacency-list scan of the perturbed order.
fn scalar_propose(
    checker: &mut ValidityChecker,
    graph: &JoinGraph,
    order: &mut JoinOrder,
    rng: &mut SmallRng,
) -> Option<(Move, u32)> {
    if order.len() < 2 {
        return None;
    }
    for attempt in 1..=64.max(4 * graph.n_relations()) {
        let mv = all_kinds().sample_move(order.len(), rng);
        mv.apply(order);
        if checker.is_valid(graph, order.rels()) {
            return Some((mv, attempt as u32));
        }
        mv.undo(order);
    }
    None
}

/// A catalog of exactly `n_total` relations split across `n_components`
/// connected components (random spanning trees plus a few chords), so
/// the *global* relation count pins the mask stride while each
/// component's own size varies.
fn boundary_catalog(rng: &mut SmallRng, n_total: usize, n_components: usize) -> Query {
    let n_components = n_components.min(n_total / 2).max(1);
    // Sizes: every component gets at least 2 relations, the remainder is
    // dealt out randomly.
    let mut sizes = vec![2usize; n_components];
    for _ in 0..n_total - 2 * n_components {
        sizes[rng.gen_range(0..n_components)] += 1;
    }

    let mut b = QueryBuilder::new();
    let mut start = 0usize;
    let mut spans = Vec::new();
    for &size in &sizes {
        for i in 0..size {
            b = b.relation(format!("r{}", start + i), rng.gen_range(1u64..100_000));
        }
        // Random spanning tree over this component's contiguous block.
        for i in 1..size {
            let j = rng.gen_range(0..i);
            b = b.join(
                &format!("r{}", start + j),
                &format!("r{}", start + i),
                10f64.powf(rng.gen_range(-4.0..0.0)),
            );
        }
        // A few chords so neighbor rows have more than tree-degree bits.
        for _ in 0..size / 8 {
            let a = rng.gen_range(0..size);
            let c = rng.gen_range(0..size);
            if a != c {
                b = b.join(
                    &format!("r{}", start + a),
                    &format!("r{}", start + c),
                    10f64.powf(rng.gen_range(-4.0..0.0)),
                );
            }
        }
        spans.push((start, size));
        start += size;
    }
    b.build().unwrap()
}

/// The boundary grid: for each pinned N, a case per component count.
fn boundary_cases(base_seed: u64) -> impl Iterator<Item = (usize, usize, SmallRng)> {
    BOUNDARY_NS.into_iter().flat_map(move |n| {
        (1usize..=4).map(move |comps| {
            let seed = base_seed ^ ((n as u64) << 16) ^ (comps as u64);
            (n, comps, SmallRng::seed_from_u64(seed))
        })
    })
}

/// The three validity backends must agree on every order, valid or not:
/// the compiled multi-word kernel, the scalar marker array, and the
/// adjacency-list reference scan.
#[test]
fn bitset_validity_matches_scalar_scan_at_word_boundaries() {
    for (n, comps, mut rng) in boundary_cases(0x1a6e_0001) {
        let q = boundary_catalog(&mut rng, n, comps);
        let cq = CompiledQuery::new(&q);
        assert_eq!(
            cq.mask_stride(),
            bitset::stride_for_relations(n),
            "N={n}: compiled stride disagrees with the layout rule"
        );
        let mut bits = BitsetChecker::new(q.n_relations());
        let mut scalar = ValidityChecker::new(q.n_relations());
        for comp in q.graph().components() {
            let mut order = random_valid_order(q.graph(), &comp, &mut rng);
            // The untouched valid order first.
            assert!(
                bits.is_valid(&cq, order.rels()),
                "N={n}/{comps}: valid order rejected"
            );
            // Then raw corruptions: swap arbitrary positions without any
            // validity filtering, so both verdicts occur.
            for _ in 0..48 {
                if order.len() >= 2 {
                    let i = rng.gen_range(0..order.len());
                    let j = rng.gen_range(0..order.len());
                    order.rels_mut().swap(i, j);
                }
                let want = is_valid(q.graph(), order.rels());
                assert_eq!(
                    bits.is_valid(&cq, order.rels()),
                    want,
                    "N={n}/{comps}: multi-word verdict diverged on {:?}",
                    order.rels()
                );
                assert_eq!(
                    scalar.is_valid(q.graph(), order.rels()),
                    want,
                    "N={n}/{comps}: scalar checker diverged on {:?}",
                    order.rels()
                );
            }
        }
    }
}

/// Windowed revalidation after a raw window permutation of a valid
/// order returns exactly the full-scan verdict, through both the
/// uncached (`window_valid`) and prefix-cached (`window_valid_primed`)
/// entry points.
#[test]
fn windowed_revalidation_matches_full_scan_at_word_boundaries() {
    for (n, comps, mut rng) in boundary_cases(0x1a6e_0002) {
        let q = boundary_catalog(&mut rng, n, comps);
        let cq = CompiledQuery::new(&q);
        let mut plain = BitsetChecker::new(q.n_relations());
        let mut primed = BitsetChecker::new(q.n_relations());
        for comp in q.graph().components() {
            let mut order = random_valid_order(q.graph(), &comp, &mut rng);
            if order.len() < 2 {
                continue;
            }
            primed.reset_prefix();
            for _ in 0..48 {
                // A raw swap permutes the window i..=j of an order that
                // was valid beforehand — exactly the windowed-check
                // precondition — without any filtering, so rejection
                // paths are exercised too.
                let i = rng.gen_range(0..order.len());
                let j = rng.gen_range(0..order.len());
                let mv = Move::Swap {
                    i: i.min(j),
                    j: i.max(j),
                };
                mv.apply(&mut order);
                let (lo, hi) = (mv.first_touched(), mv.last_touched());
                let want = is_valid(q.graph(), order.rels());
                assert_eq!(
                    plain.window_valid(&cq, order.rels(), lo, hi),
                    want,
                    "N={n}/{comps}: window verdict diverged for {mv:?}"
                );
                assert_eq!(
                    primed.window_valid_primed(&cq, order.rels(), lo, hi),
                    want,
                    "N={n}/{comps}: primed window verdict diverged for {mv:?}"
                );
                if want {
                    // Accepted: prefix entries past lo are stale.
                    primed.truncate_prefix(lo);
                } else {
                    // Rejected: restore the valid base order; the cached
                    // prefix (≤ lo) is untouched by the undone window.
                    mv.undo(&mut order);
                    primed.truncate_prefix(lo);
                }
            }
        }
    }
}

/// The compiled (multi-word, prefix-cached) move generator and the
/// scalar reference proposer propose the *same move stream* from the
/// same seed — filtering decisions are bit-identical, so distributions
/// are too.
#[test]
fn move_filtering_matches_scalar_reference_at_word_boundaries() {
    for (n, comps, mut rng) in boundary_cases(0x1a6e_0003) {
        let q = boundary_catalog(&mut rng, n, comps);
        let cq = Arc::new(CompiledQuery::new(&q));
        for comp in q.graph().components() {
            let order = random_valid_order(q.graph(), &comp, &mut rng);
            if order.len() < 3 {
                continue;
            }
            let seed = rng.gen::<u64>();
            let mut rng_a = SmallRng::seed_from_u64(seed);
            let mut rng_b = SmallRng::seed_from_u64(seed);
            let mut order_a = order.clone();
            let mut order_b = order;
            let mut scalar = ValidityChecker::new(q.n_relations());
            let mut compiled = MoveGenerator::with_compiled(Arc::clone(&cq), all_kinds());
            for step in 0..300 {
                let a = scalar_propose(&mut scalar, q.graph(), &mut order_a, &mut rng_a);
                let b = compiled.propose_counted(q.graph(), &mut order_b, &mut rng_b);
                assert_eq!(a, b, "N={n}/{comps} step {step}: proposal streams diverged");
                assert_eq!(
                    order_a, order_b,
                    "N={n}/{comps} step {step}: orders diverged"
                );
                if a.is_some() {
                    assert!(
                        is_valid(q.graph(), order_a.rels()),
                        "N={n}/{comps} step {step}: generator left an invalid order"
                    );
                }
            }
        }
    }
}

/// The blocked tree walk prices a left-deep embedding of an order
/// exactly as the linear walk prices the order — bit for bit, under
/// every model, at every boundary size (all ≤ the 256-relation arena
/// capacity).
#[test]
fn tree_walk_matches_linear_walk_bit_for_bit_at_word_boundaries() {
    for (n, comps, mut rng) in boundary_cases(0x1a6e_0004) {
        let q = boundary_catalog(&mut rng, n, comps);
        let cq = Arc::new(CompiledQuery::new(&q));
        for model in models() {
            for comp in q.graph().components() {
                let order = random_valid_order(q.graph(), &comp, &mut rng);
                if order.len() < 2 {
                    continue;
                }
                let plan = TreePlan::from_order(&cq, order.rels());
                let tree = TreeEvaluator::new(model.as_ref(), Arc::clone(&cq), plan).current_cost();
                let linear = sanitize_cost(model.order_cost(&q, order.rels()));
                assert_eq!(
                    tree.to_bits(),
                    linear.to_bits(),
                    "N={n}/{comps} {}: tree walk {tree} != linear walk {linear}",
                    model.name()
                );
            }
        }
    }
}

/// Past the 256-relation block capacity the general (heap-strided) tier
/// takes over for validity, windowed checks, and move filtering; it
/// must agree with the reference scan and the scalar reference proposer
/// exactly like the block tier does.
#[test]
fn general_tier_matches_reference_past_block_capacity() {
    for &n in &GENERAL_NS {
        let mut rng = SmallRng::seed_from_u64(0x1a6e_0005 ^ (n as u64));
        let q = boundary_catalog(&mut rng, n, 2);
        let cq = Arc::new(CompiledQuery::new(&q));
        assert_eq!(cq.mask_stride(), bitset::stride_for_relations(n));
        let mut bits = BitsetChecker::new(q.n_relations());
        for comp in q.graph().components() {
            let mut order = random_valid_order(q.graph(), &comp, &mut rng);
            if order.len() < 3 {
                continue;
            }
            for _ in 0..32 {
                let i = rng.gen_range(0..order.len());
                let j = rng.gen_range(0..order.len());
                let mv = Move::Swap {
                    i: i.min(j),
                    j: i.max(j),
                };
                mv.apply(&mut order);
                let want = is_valid(q.graph(), order.rels());
                assert_eq!(
                    bits.is_valid(&cq, order.rels()),
                    want,
                    "N={n}: general-tier full verdict diverged"
                );
                assert_eq!(
                    bits.window_valid(&cq, order.rels(), mv.first_touched(), mv.last_touched()),
                    want,
                    "N={n}: general-tier window verdict diverged"
                );
                if !want {
                    mv.undo(&mut order);
                }
            }

            // Same-seed generator differential on the general tier.
            let seed = rng.gen::<u64>();
            let mut rng_a = SmallRng::seed_from_u64(seed);
            let mut rng_b = SmallRng::seed_from_u64(seed);
            let mut order_a = order.clone();
            let mut order_b = order;
            let mut scalar = ValidityChecker::new(q.n_relations());
            let mut compiled = MoveGenerator::with_compiled(Arc::clone(&cq), all_kinds());
            for step in 0..200 {
                let a = scalar_propose(&mut scalar, q.graph(), &mut order_a, &mut rng_a);
                let b = compiled.propose_counted(q.graph(), &mut order_b, &mut rng_b);
                assert_eq!(a, b, "N={n} step {step}: proposal streams diverged");
                assert_eq!(order_a, order_b, "N={n} step {step}: orders diverged");
            }
        }
    }
}

/// Padding discipline: the neighbor rows of a compiled boundary-size
/// catalog never set bits at or above `n_relations`, so kernels may
/// OR whole words without masking.
#[test]
fn neighbor_rows_keep_padding_words_zero() {
    for &n in &[63usize, 64, 65, 127, 128, 129, 191, 192, 193, 256, 257, 320] {
        let mut rng = SmallRng::seed_from_u64(0x1a6e_0006 ^ (n as u64));
        let q = boundary_catalog(&mut rng, n, 1 + n % 4);
        let cq = CompiledQuery::new(&q);
        let stride = cq.mask_stride();
        for r in q.rel_ids() {
            let row = cq.neighbor_blocks(r);
            assert_eq!(row.len(), stride, "N={n}: row stride mismatch");
            for (w, &word) in row.iter().enumerate() {
                let base = w * 64;
                if base >= n {
                    assert_eq!(word, 0, "N={n}: padding word {w} nonzero for {r:?}");
                } else if base + 64 > n {
                    let live = n - base;
                    assert_eq!(
                        word & !((1u64 << live) - 1),
                        0,
                        "N={n}: tail word {w} has bits past relation {n} for {r:?}"
                    );
                }
            }
        }
    }
}
