//! The exact dynamic program over bushy join trees.
//!
//! §2 of the paper restricts the search to outer linear join trees "based
//! on the assumption that a significant fraction of the join trees with
//! low processing cost is to be found in the space of outer linear join
//! trees. The validation of this assumption is an open problem." There
//! are two ways to attack that open problem over [`BushyTree`]s, whose
//! join operands may both be intermediates:
//!
//! * [`optimal_bushy_dp`] — the exact optimum over **all**
//!   cross-product-free bushy trees for small components (`O(3^k)`
//!   submask enumeration, hard-limited to [`BUSHY_MAX_RELATIONS`]), used
//!   as the ground truth the linear DP ([`crate::dp`]) and the bushy
//!   local search are compared against;
//! * the full bushy **local search** lives in [`crate::bushy_search`]: it
//!   runs II/SA-style moves over arena-backed trees
//!   ([`ljqo_plan::TreePlan`]) with path-to-root incremental re-costing,
//!   and scales far past the DP limit.
//!
//! Oversized or disconnected inputs yield typed [`OptError`]s (not
//! panics), so the driver's degradation ladder can route around them.

use ljqo_catalog::{Query, RelId};
use ljqo_cost::estimate::clamp_card;
use ljqo_cost::{CostModel, JoinCtx};
use ljqo_plan::BushyTree;

use crate::error::OptError;

/// Maximum component size accepted by [`optimal_bushy_dp`].
pub const BUSHY_MAX_RELATIONS: usize = 18;

/// The optimal cross-product-free **bushy** join tree of `component` and
/// its cost.
///
/// `Ok(None)` for singleton components (nothing to join);
/// [`OptError::ComponentTooLarge`] beyond [`BUSHY_MAX_RELATIONS`] and
/// [`OptError::DisconnectedComponent`] when `component` is not one
/// connected piece of the join graph — typed errors rather than the
/// `assert!`s this function used to carry, so the search-validation path
/// and `ext_bushy` can degrade instead of aborting.
pub fn optimal_bushy_dp(
    query: &Query,
    component: &[RelId],
    model: &dyn CostModel,
) -> Result<Option<(BushyTree, f64)>, OptError> {
    let k = component.len();
    if k < 2 {
        return Ok(None);
    }
    if k > BUSHY_MAX_RELATIONS {
        return Err(OptError::ComponentTooLarge {
            n_relations: k,
            limit: BUSHY_MAX_RELATIONS,
        });
    }
    let n_states = 1usize << k;
    let full = n_states - 1;

    // Adjacency bitmasks within the component.
    let mut adj = vec![0u32; k];
    for (i, &ri) in component.iter().enumerate() {
        for (j, &rj) in component.iter().enumerate() {
            if i != j && query.graph().joined(ri, rj) {
                adj[i] |= 1 << j;
            }
        }
    }

    // Connectivity and cardinality per subset. Reject a disconnected
    // input before running the DP at all: no cross-product-free tree
    // covers it, and the caller (which should have split components
    // upstream) needs the typed error, not `f64::INFINITY` artifacts.
    let mut connected = vec![false; n_states];
    let mut card = vec![0.0f64; n_states];
    for mask in 1usize..n_states {
        connected[mask] = is_connected_mask(mask as u32, &adj);
        if connected[mask] {
            card[mask] = subset_cardinality(query, component, mask as u32);
        }
    }
    if !connected[full] {
        return Err(OptError::DisconnectedComponent { n_relations: k });
    }

    // DP over connected subsets: best (cost, split) with split = the
    // outer-side submask (0 for leaves).
    let mut cost = vec![f64::INFINITY; n_states];
    let mut split = vec![0u32; n_states];
    for i in 0..k {
        cost[1 << i] = 0.0;
    }
    for mask in 1usize..n_states {
        if !connected[mask] || (mask & (mask - 1)) == 0 {
            continue; // disconnected or singleton
        }
        // Enumerate proper submasks as the outer side.
        let mut sub = (mask - 1) & mask;
        while sub != 0 {
            let other = mask & !sub;
            if connected[sub]
                && connected[other]
                && cost[sub].is_finite()
                && cost[other].is_finite()
            {
                // Not `JoinCtx::step`: the output is the subset's
                // order-independent cardinality, shared by every split,
                // which keeps the recurrence exact; re-deriving it from
                // the two operands would fold in split-dependent order.
                let step = model.join_cost(&JoinCtx {
                    outer_card: card[sub],
                    inner_card: card[other],
                    output_card: card[mask],
                    outer_rels: sub.count_ones() as usize,
                    inner_rels: other.count_ones() as usize,
                    is_cross_product: false,
                });
                let total = cost[sub] + cost[other] + step;
                if total < cost[mask] {
                    cost[mask] = total;
                    split[mask] = sub as u32;
                }
            }
            sub = (sub - 1) & mask;
        }
    }

    if !cost[full].is_finite() {
        // Connected, yet no finite-cost tree: a model emitted `INFINITY`
        // or `NaN` for every split. There is no tree to rebuild (`split`
        // was never set), so this degrades like a disconnection.
        return Err(OptError::DisconnectedComponent { n_relations: k });
    }
    Ok(Some((rebuild(component, &split, full as u32), cost[full])))
}

fn rebuild(component: &[RelId], split: &[u32], mask: u32) -> BushyTree {
    if mask & (mask - 1) == 0 {
        return BushyTree::leaf(component[mask.trailing_zeros() as usize]);
    }
    let outer = split[mask as usize];
    let inner = mask & !outer;
    BushyTree::join(
        rebuild(component, split, outer),
        rebuild(component, split, inner),
    )
}

fn is_connected_mask(mask: u32, adj: &[u32]) -> bool {
    let start = mask.trailing_zeros();
    let mut seen = 1u32 << start;
    let mut frontier = seen;
    while frontier != 0 {
        let mut next = 0u32;
        let mut f = frontier;
        while f != 0 {
            let i = f.trailing_zeros() as usize;
            next |= adj[i] & mask & !seen;
            f &= f - 1;
        }
        seen |= next;
        frontier = next;
    }
    seen == mask
}

fn subset_cardinality(query: &Query, component: &[RelId], mask: u32) -> f64 {
    let mut c = 1.0f64;
    for (i, &r) in component.iter().enumerate() {
        if mask & (1 << i) != 0 {
            c = clamp_card(c * query.cardinality(r));
        }
    }
    for e in query.graph().edges() {
        let ia = component.iter().position(|&r| r == e.a);
        let ib = component.iter().position(|&r| r == e.b);
        if let (Some(ia), Some(ib)) = (ia, ib) {
            if mask & (1 << ia) != 0 && mask & (1 << ib) != 0 {
                c = clamp_card(c * e.selectivity);
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::optimal_order_dp;
    use ljqo_catalog::QueryBuilder;
    use ljqo_cost::MemoryCostModel;

    fn chain_query() -> Query {
        QueryBuilder::new()
            .relation("a", 3000)
            .relation("b", 12)
            .relation("c", 700)
            .relation("d", 55)
            .relation("e", 1400)
            .join("a", "b", 0.01)
            .join("b", "c", 0.002)
            .join("c", "d", 0.05)
            .join("d", "e", 0.001)
            .build()
            .unwrap()
    }

    /// Two heavy chains hanging off a hub: the classic shape where a
    /// bushy plan (reduce each chain, then join the small results) beats
    /// every linear plan.
    fn bushy_friendly_query() -> Query {
        QueryBuilder::new()
            .relation("hub", 100_000)
            .relation("l1", 80_000)
            .relation("l2", 50)
            .relation("r1", 90_000)
            .relation("r2", 60)
            .join("hub", "l1", 0.00002)
            .join("l1", "l2", 0.001)
            .join("hub", "r1", 0.00002)
            .join("r1", "r2", 0.001)
            .build()
            .unwrap()
    }

    #[test]
    fn bushy_optimum_never_exceeds_linear_optimum() {
        let model = MemoryCostModel::default();
        for q in [chain_query(), bushy_friendly_query()] {
            let comp: Vec<RelId> = q.rel_ids().collect();
            let (_, linear) = optimal_order_dp(&q, &comp, &model).unwrap();
            let (tree, bushy) = optimal_bushy_dp(&q, &comp, &model).unwrap().unwrap();
            assert!(
                bushy <= linear * (1.0 + 1e-12),
                "bushy {bushy} > linear {linear}"
            );
            assert_eq!(tree.n_leaves(), comp.len());
            // Every leaf appears exactly once.
            let mut leaves = tree.leaves().to_vec();
            leaves.sort_unstable();
            let mut expect = comp.clone();
            expect.sort_unstable();
            assert_eq!(leaves, expect);
        }
    }

    #[test]
    fn linear_trees_are_a_special_case() {
        // When the bushy optimum IS linear, costs agree exactly with the
        // linear DP (same recurrences, same width convention).
        let q = chain_query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let (tree, bushy) = optimal_bushy_dp(&q, &comp, &model).unwrap().unwrap();
        let (_, linear) = optimal_order_dp(&q, &comp, &model).unwrap();
        if tree.is_linear() {
            assert!((bushy - linear).abs() <= linear * 1e-12);
        } else {
            assert!(bushy < linear);
        }
    }

    #[test]
    fn bushy_beats_linear_on_two_heavy_chains() {
        let q = bushy_friendly_query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let (_, linear) = optimal_order_dp(&q, &comp, &model).unwrap();
        let (tree, bushy) = optimal_bushy_dp(&q, &comp, &model).unwrap().unwrap();
        assert!(
            !tree.is_linear() && bushy < linear,
            "expected a strictly better bushy plan, got {tree} at {bushy} vs {linear}"
        );
    }

    #[test]
    fn singleton_is_none() {
        let q = chain_query();
        let model = MemoryCostModel::default();
        assert!(optimal_bushy_dp(&q, &[RelId(0)], &model).unwrap().is_none());
    }

    #[test]
    fn oversized_component_is_a_typed_error() {
        // Regression: this used to `assert!` and abort the process.
        let mut b = QueryBuilder::new();
        let n = BUSHY_MAX_RELATIONS + 1;
        for i in 0..n {
            b = b.relation(format!("r{i}"), 100);
        }
        for i in 1..n {
            b = b.join(&format!("r{}", i - 1), &format!("r{i}"), 0.01);
        }
        let q = b.build().unwrap();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let model = MemoryCostModel::default();
        match optimal_bushy_dp(&q, &comp, &model) {
            Err(OptError::ComponentTooLarge { n_relations, limit }) => {
                assert_eq!(n_relations, n);
                assert_eq!(limit, BUSHY_MAX_RELATIONS);
            }
            other => panic!("expected ComponentTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn disconnected_component_is_a_typed_error() {
        // Regression: this used to `assert!` (after burning the whole DP).
        let q = QueryBuilder::new()
            .relation("a", 10)
            .relation("b", 20)
            .relation("c", 30)
            .relation("d", 40)
            .join("a", "b", 0.1)
            .join("c", "d", 0.1)
            .build()
            .unwrap();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let model = MemoryCostModel::default();
        match optimal_bushy_dp(&q, &comp, &model) {
            Err(OptError::DisconnectedComponent { n_relations }) => {
                assert_eq!(n_relations, 4);
            }
            other => panic!("expected DisconnectedComponent, got {other:?}"),
        }
    }
}
