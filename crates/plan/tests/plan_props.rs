//! Property tests for the plan layer over arbitrary random connected
//! graphs (built directly, independent of the workload generator).
//! Implemented as seeded-RNG loops: the build is offline, so no
//! proptest — every case is reproducible from its printed seed.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ljqo_catalog::{CompiledQuery, JoinEdge, JoinGraph, RelId};
use ljqo_plan::validity::{first_invalid_position, is_valid};
use ljqo_plan::{random_valid_order, BushyTree, JoinOrder, Move, MoveGenerator, MoveSet};

const CASES: u64 = 64;

/// A connected graph (random spanning tree + extra edges).
fn arb_connected(rng: &mut SmallRng) -> JoinGraph {
    let n = rng.gen_range(3usize..14);
    let extra = rng.gen_range(0usize..6);
    let mut edges = Vec::new();
    for i in 1..n {
        let t = rng.gen_range(0..i);
        edges.push(JoinEdge::from_distincts(
            t as u32,
            i as u32,
            rng.gen_range(1.0..50.0),
            rng.gen_range(1.0..50.0),
        ));
    }
    for _ in 0..extra {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            edges.push(JoinEdge::from_distincts(
                a as u32,
                b as u32,
                rng.gen_range(1.0..50.0),
                rng.gen_range(1.0..50.0),
            ));
        }
    }
    JoinGraph::new(n, edges)
}

fn component_of(g: &JoinGraph) -> Vec<RelId> {
    (0..g.n_relations() as u32).map(RelId).collect()
}

/// `first_invalid_position` and `is_valid` agree, and truncating at
/// the first invalid position yields a valid prefix.
#[test]
fn invalid_position_consistency() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x9a11_0001 ^ case);
        let g = arb_connected(&mut rng);
        let comp = component_of(&g);
        let mut order = random_valid_order(&g, &comp, &mut rng);
        // Scramble with a random (possibly invalidating) swap.
        let a = rng.gen_range(0..order.len());
        let b = rng.gen_range(0..order.len());
        order.rels_mut().swap(a, b);
        match first_invalid_position(&g, order.rels()) {
            None => assert!(is_valid(&g, order.rels()), "case {case}"),
            Some(p) => {
                assert!(!is_valid(&g, order.rels()), "case {case}");
                assert!(p >= 1, "case {case}");
                assert!(
                    is_valid(&g, &order.rels()[..p]),
                    "case {case}: prefix before p must be valid"
                );
                assert!(!is_valid(&g, &order.rels()[..=p]), "case {case}");
            }
        }
    }
}

/// Valid moves compose: applying a sequence of proposed moves and then
/// undoing them in reverse restores the original order.
#[test]
fn move_sequences_undo_in_reverse() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x9a11_0002 ^ case);
        let g = arb_connected(&mut rng);
        let comp = component_of(&g);
        let mut order = random_valid_order(&g, &comp, &mut rng);
        let original = order.clone();
        let cq = CompiledQuery::from_graph(&g, vec![1.0; g.n_relations()]);
        let mut gen = MoveGenerator::with_compiled(Arc::new(cq), MoveSet::default());
        let mut applied: Vec<Move> = Vec::new();
        for _ in 0..12 {
            if let Some(mv) = gen.propose(&g, &mut order, &mut rng) {
                applied.push(mv);
            }
        }
        for mv in applied.iter().rev() {
            mv.undo(&mut order);
        }
        assert_eq!(order, original, "case {case}");
    }
}

/// A join order's left-deep tree, and a random tree over the same
/// leaves, round-trip through their leaves and shape.
#[test]
fn tree_roundtrip() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x9a11_0003 ^ case);
        let g = arb_connected(&mut rng);
        let comp = component_of(&g);
        let order = random_valid_order(&g, &comp, &mut rng);
        let tree = BushyTree::left_deep(order.rels());
        assert_eq!(tree.leaves(), order.rels(), "case {case}");
        assert!(tree.is_linear(), "case {case}");
        assert!(tree.is_cross_product_free(&g), "case {case}");

        // Join random neighbouring subtrees until one tree is left.
        let mut parts: Vec<BushyTree> = order.rels().iter().map(|&r| BushyTree::leaf(r)).collect();
        while parts.len() > 1 {
            let i = rng.gen_range(0..parts.len() - 1);
            let inner = parts.remove(i + 1);
            let outer = parts.remove(i);
            parts.insert(i, BushyTree::join(outer, inner));
        }
        let bushy = parts.pop().unwrap();
        assert_eq!(bushy.leaves(), order.rels(), "case {case}");
        let back = BushyTree::from_shape(bushy.leaves().to_vec(), bushy.shape().to_vec());
        assert_eq!(back.as_ref(), Some(&bushy), "case {case}");
    }
}

/// The inverse of the inverse is the original move, and apply∘undo is
/// the identity for arbitrary (not just proposed) moves.
#[test]
fn move_inverse_involution() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x9a11_0004 ^ case);
        let len = rng.gen_range(2usize..12);
        let pick: u64 = rng.gen_range(0u64..u64::MAX);
        let i = rng.gen_range(0..len);
        let mut j = rng.gen_range(0..len - 1);
        if j >= i {
            j += 1;
        }
        let mv = match pick % 3 {
            0 => Move::Swap {
                i: i.min(j),
                j: i.max(j),
            },
            1 => Move::Reinsert { from: i, to: j },
            _ => {
                if len >= 3 {
                    let mut k = rng.gen_range(0..len - 2);
                    for bound in [i.min(j), i.max(j)] {
                        if k >= bound {
                            k += 1;
                        }
                    }
                    Move::ThreeCycle { i, j, k }
                } else {
                    Move::Swap {
                        i: i.min(j),
                        j: i.max(j),
                    }
                }
            }
        };
        assert_eq!(mv.inverse().inverse(), mv, "case {case}");
        let mut order = JoinOrder::new((0..len as u32).map(RelId).collect());
        let original = order.clone();
        mv.apply(&mut order);
        mv.undo(&mut order);
        assert_eq!(order, original, "case {case}");
    }
}
