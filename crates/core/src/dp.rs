//! Exact baselines: System-R-style dynamic programming and exhaustive
//! enumeration over valid left-deep join trees.
//!
//! The paper's motivation is that DP has `O(2^N)` time and space and
//! becomes infeasible beyond roughly 10 joins. We implement it anyway —
//! for small components it yields the true optimum, which the test suite
//! uses as an oracle for the heuristic and combinatorial methods, and the
//! benches use to measure how close each method gets.

use ljqo_catalog::{Query, RelId};
use ljqo_cost::estimate::{clamp_card, SizeWalker};
use ljqo_cost::{CostModel, JoinCtx, OrderCost};
use ljqo_plan::validity::is_valid;
use ljqo_plan::JoinOrder;

/// Maximum component size accepted by [`optimal_order_dp`]: `2^24` subset
/// states is the pragmatic ceiling for a test oracle.
pub const DP_MAX_RELATIONS: usize = 24;

/// The optimal valid left-deep join order of `component` and its cost,
/// by dynamic programming over connected subsets.
///
/// Returns `None` when the component is a single relation (no joins to
/// order). Panics if the component exceeds [`DP_MAX_RELATIONS`] relations
/// or is not connected.
pub fn optimal_order_dp(
    query: &Query,
    component: &[RelId],
    model: &dyn CostModel,
) -> Option<(JoinOrder, f64)> {
    let k = component.len();
    if k < 2 {
        return None;
    }
    assert!(
        k <= DP_MAX_RELATIONS,
        "DP over {k} relations needs 2^{k} states; limit is {DP_MAX_RELATIONS}"
    );
    let full: u32 = if k == 32 { u32::MAX } else { (1u32 << k) - 1 };
    let n_states = 1usize << k;

    // Joined-with masks: adj[i] = bitmask of component members joined to i.
    let mut adj = vec![0u32; k];
    let mut sel = vec![vec![1.0f64; k]; k];
    for (i, &ri) in component.iter().enumerate() {
        for (j, &rj) in component.iter().enumerate() {
            if i != j {
                if let Some(s) = query.graph().selectivity_between(ri, rj) {
                    adj[i] |= 1 << j;
                    sel[i][j] = s;
                }
            }
        }
    }

    // dp cost, running cardinality, and predecessor (mask without the last
    // relation, plus which relation was last).
    let mut cost = vec![f64::INFINITY; n_states];
    let mut card = vec![0.0f64; n_states];
    let mut last = vec![u8::MAX; n_states];
    for (i, &rel) in component.iter().enumerate() {
        let m = 1usize << i;
        cost[m] = 0.0;
        card[m] = clamp_card(query.cardinality(rel));
        last[m] = i as u8;
    }

    for mask in 1..n_states as u32 {
        if cost[mask as usize].is_infinite() {
            continue;
        }
        // Extend with every unplaced relation joined to the mask.
        for j in 0..k {
            let bit = 1u32 << j;
            if mask & bit != 0 || adj[j] & mask == 0 {
                continue;
            }
            // Combined selectivity of all predicates from j into the mask.
            let mut s = 1.0f64;
            let mut members = mask & adj[j];
            while members != 0 {
                let i = members.trailing_zeros() as usize;
                s *= sel[j][i];
                members &= members - 1;
            }
            let step = JoinCtx::step(
                card[mask as usize],
                query.cardinality(component[j]),
                s,
                true,
                mask.count_ones() as usize,
                1,
            );
            let total = cost[mask as usize] + model.join_cost(&step);
            let next = (mask | bit) as usize;
            if total < cost[next] {
                cost[next] = total;
                card[next] = step.output_card;
                last[next] = j as u8;
            }
        }
    }

    let best_cost = cost[full as usize];
    assert!(
        best_cost.is_finite(),
        "component is not connected: no valid order covers it"
    );
    // Reconstruct the order back-to-front.
    let mut order = Vec::with_capacity(k);
    let mut mask = full;
    while mask != 0 {
        let j = last[mask as usize] as usize;
        order.push(component[j]);
        mask &= !(1u32 << j);
    }
    order.reverse();
    Some((JoinOrder::new(order), best_cost))
}

/// The optimum by brute-force enumeration of all valid permutations.
/// Exponentially slower than DP; used to cross-check it in tests.
/// Practical only for components of ≲ 9 relations.
pub fn optimal_order_exhaustive(
    query: &Query,
    component: &[RelId],
    model: &dyn CostModel,
) -> Option<(JoinOrder, f64)> {
    if component.len() < 2 {
        return None;
    }
    let mut best: Option<(JoinOrder, f64)> = None;
    let mut acc: Vec<RelId> = Vec::with_capacity(component.len());
    let mut walker = SizeWalker::new(query);
    permute(query, model, &mut walker, component, &mut acc, &mut best);
    best
}

fn permute(
    query: &Query,
    model: &dyn CostModel,
    walker: &mut SizeWalker,
    rest: &[RelId],
    acc: &mut Vec<RelId>,
    best: &mut Option<(JoinOrder, f64)>,
) {
    if rest.is_empty() {
        if is_valid(query.graph(), acc) {
            let c = model.order_cost_with(walker, acc);
            if best.as_ref().is_none_or(|&(_, bc)| c < bc) {
                *best = Some((JoinOrder::new(acc.clone()), c));
            }
        }
        return;
    }
    for i in 0..rest.len() {
        let mut next = rest.to_vec();
        let r = next.remove(i);
        acc.push(r);
        // Prune: an invalid prefix can never become valid.
        if acc.len() == 1 || is_valid(query.graph(), acc) {
            permute(query, model, walker, &next, acc, best);
        }
        acc.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ljqo_catalog::QueryBuilder;
    use ljqo_cost::{DiskCostModel, MemoryCostModel};

    fn query() -> Query {
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
            .join("b", "e", 0.03)
            .build()
            .unwrap()
    }

    #[test]
    fn dp_matches_exhaustive_on_memory_model() {
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let (dp_order, dp_cost) = optimal_order_dp(&q, &comp, &model).unwrap();
        let (_, ex_cost) = optimal_order_exhaustive(&q, &comp, &model).unwrap();
        assert!(
            (dp_cost - ex_cost).abs() <= ex_cost * 1e-12,
            "dp {dp_cost} vs exhaustive {ex_cost}"
        );
        assert!(is_valid(q.graph(), dp_order.rels()));
        assert!((model.order_cost(&q, dp_order.rels()) - dp_cost).abs() <= dp_cost * 1e-12);
    }

    #[test]
    fn dp_matches_exhaustive_on_disk_model() {
        let q = query();
        let model = DiskCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let (_, dp_cost) = optimal_order_dp(&q, &comp, &model).unwrap();
        let (_, ex_cost) = optimal_order_exhaustive(&q, &comp, &model).unwrap();
        assert!((dp_cost - ex_cost).abs() <= ex_cost * 1e-12);
    }

    #[test]
    fn dp_beats_every_sampled_valid_order() {
        use ljqo_plan::random_valid_order;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let (_, dp_cost) = optimal_order_dp(&q, &comp, &model).unwrap();
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..200 {
            let o = random_valid_order(q.graph(), &comp, &mut rng);
            assert!(model.order_cost(&q, o.rels()) >= dp_cost - 1e-9);
        }
    }

    #[test]
    fn singleton_has_no_order() {
        let q = query();
        let model = MemoryCostModel::default();
        assert!(optimal_order_dp(&q, &[RelId(0)], &model).is_none());
        assert!(optimal_order_exhaustive(&q, &[RelId(0)], &model).is_none());
    }

    #[test]
    #[should_panic(expected = "not connected")]
    fn disconnected_component_panics() {
        let q = QueryBuilder::new()
            .relation("a", 10)
            .relation("b", 10)
            .relation("c", 10)
            .join("a", "b", 0.1)
            .build()
            .unwrap();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let _ = optimal_order_dp(&q, &comp, &model);
    }

    #[test]
    fn lower_bound_holds_at_the_optimum() {
        let q = query();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let memory = MemoryCostModel::default();
        let (_, opt) = optimal_order_dp(&q, &comp, &memory).unwrap();
        assert!(memory.lower_bound(&q, &comp) <= opt + 1e-9);
        let disk = DiskCostModel::default();
        let (_, opt) = optimal_order_dp(&q, &comp, &disk).unwrap();
        assert!(disk.lower_bound(&q, &comp) <= opt + 1e-9);
    }
}
