//! Exact baselines: System-R-style dynamic programming over the
//! cross-product-free plans of either search space, and exhaustive
//! enumeration of valid left-deep orders.
//!
//! The paper's motivation is that DP has `O(2^N)` time and space and
//! becomes infeasible beyond roughly 10 joins. We implement it anyway —
//! for small components it yields the true optimum, which the test suite
//! uses as an oracle for the heuristic and combinatorial methods, and the
//! benches use to measure how close each method gets. In the bushy space
//! it also answers §2's open problem exactly: how much plan quality the
//! restriction to outer linear trees forfeits on a small component.

use ljqo_catalog::{Query, RelId};
use ljqo_cost::estimate::{clamp_card, SizeWalker};
use ljqo_cost::{CostModel, JoinCtx, OrderCost};
use ljqo_plan::validity::is_valid;
use ljqo_plan::{BushyTree, JoinOrder};

use crate::driver::SearchSpace;
use crate::error::OptError;

/// The largest component [`optimal_dp`] accepts in `space`. Both spaces
/// fill `2^k` subset states; the bushy space also walks every split of
/// each, `O(3^k)` in all, so its limit is lower.
pub fn dp_limit(space: SearchSpace) -> usize {
    match space {
        SearchSpace::Linear => 24,
        SearchSpace::Bushy => 18,
    }
}

/// The optimal cross-product-free plan of `component` in `space` and its
/// cost: a left-deep tree (whose leaves are the join order) in the
/// linear space, any binary tree in the bushy space.
///
/// `Ok(None)` for a singleton (nothing to join).
/// [`OptError::ComponentTooLarge`] beyond [`dp_limit`], and
/// [`OptError::DisconnectedComponent`] when `component` is not one
/// connected piece of the join graph or the model prices no plan of it
/// finitely.
///
/// One forward pass over the subsets in ascending mask order. A subset's
/// cardinality is set the first time a smaller connected subset reaches
/// it by one joined relation, as the output of that [`JoinCtx::step`];
/// subsets never reached are disconnected and cost nothing further. Each
/// connected subset is priced from its splits into two connected parts,
/// all of them smaller, so already final. Only the splits depend on the
/// space: the linear inner side is one relation, the bushy one any
/// proper submask. Ties keep the first split visited.
pub fn optimal_dp(
    query: &Query,
    component: &[RelId],
    model: &dyn CostModel,
    space: SearchSpace,
) -> Result<Option<(BushyTree, f64)>, OptError> {
    let k = component.len();
    if k < 2 {
        return Ok(None);
    }
    let limit = dp_limit(space);
    if k > limit {
        return Err(OptError::ComponentTooLarge {
            n_relations: k,
            limit,
        });
    }
    let n_states = 1usize << k;
    let full = n_states - 1;

    // adj[i]: the members joined to member i; sel[i * k + j]: their
    // selectivity.
    let mut adj = vec![0usize; k];
    let mut sel = vec![1.0f64; k * k];
    for (i, &ri) in component.iter().enumerate() {
        for (j, &rj) in component.iter().enumerate() {
            if i != j {
                if let Some(s) = query.graph().selectivity_between(ri, rj) {
                    adj[i] |= 1 << j;
                    sel[i * k + j] = s;
                }
            }
        }
    }

    // One bit per subset: set once the subset is known to be connected.
    // split[s] is the outer side of s's best join.
    let mut connected = vec![0u64; n_states.div_ceil(64)];
    let is_connected = |connected: &[u64], s: usize| connected[s / 64] >> (s % 64) & 1 != 0;
    let mut card = vec![0.0f64; n_states];
    let mut cost = vec![f64::INFINITY; n_states];
    let mut split = vec![0u32; n_states];
    for (i, &rel) in component.iter().enumerate() {
        connected[(1 << i) / 64] |= 1 << ((1 << i) % 64);
        card[1 << i] = clamp_card(query.cardinality(rel));
        cost[1 << i] = 0.0;
    }
    for set in 1..n_states {
        if !is_connected(&connected, set) {
            continue;
        }
        if set & (set - 1) != 0 {
            let mut best = (f64::INFINITY, 0usize);
            for outer in outer_sides(space, set) {
                let inner = set & !outer;
                if !is_connected(&connected, outer) || !is_connected(&connected, inner) {
                    continue;
                }
                let step = model.join_cost(&JoinCtx {
                    outer_card: card[outer],
                    inner_card: card[inner],
                    output_card: card[set],
                    outer_rels: outer.count_ones() as usize,
                    inner_rels: inner.count_ones() as usize,
                    is_cross_product: false,
                });
                let total = cost[outer] + cost[inner] + step;
                if total < best.0 {
                    best = (total, outer);
                }
            }
            cost[set] = best.0;
            split[set] = best.1 as u32;
        }
        // Reach every superset that adds one joined relation.
        let mut reach = 0usize;
        let mut members = set;
        while members != 0 {
            reach |= adj[members.trailing_zeros() as usize];
            members &= members - 1;
        }
        reach &= !set;
        while reach != 0 {
            let j = reach.trailing_zeros() as usize;
            reach &= reach - 1;
            let next = set | 1 << j;
            if is_connected(&connected, next) {
                continue;
            }
            connected[next / 64] |= 1 << (next % 64);
            let mut s = 1.0f64;
            let mut joined = set & adj[j];
            while joined != 0 {
                s *= sel[j * k + joined.trailing_zeros() as usize];
                joined &= joined - 1;
            }
            let outer_rels = set.count_ones() as usize;
            card[next] = JoinCtx::step(card[set], card[1 << j], s, true, outer_rels, 1).output_card;
        }
    }

    // A disconnected component never reaches `full`; a model that prices
    // no plan finitely leaves no tree to rebuild either.
    if !cost[full].is_finite() {
        return Err(OptError::DisconnectedComponent { n_relations: k });
    }
    Ok(Some((rebuild(component, &split, full), cost[full])))
}

/// The outer sides of `set`'s splits in `space`, in the order that
/// breaks ties: the linear space's inner side is one relation, highest
/// index first; the bushy space's outer side is any proper submask,
/// largest first.
fn outer_sides(space: SearchSpace, set: usize) -> impl Iterator<Item = usize> {
    // Linear: the members not yet taken as the inner side. Bushy: the
    // last submask returned.
    let mut rest = set;
    std::iter::from_fn(move || match space {
        SearchSpace::Linear => {
            let inner = (rest != 0).then(|| 1 << rest.ilog2())?;
            rest ^= inner;
            Some(set ^ inner)
        }
        SearchSpace::Bushy => {
            rest = (rest - 1) & set;
            (rest != 0).then_some(rest)
        }
    })
}

fn rebuild(component: &[RelId], split: &[u32], set: usize) -> BushyTree {
    if set & (set - 1) == 0 {
        return BushyTree::leaf(component[set.trailing_zeros() as usize]);
    }
    let outer = split[set] as usize;
    BushyTree::join(
        rebuild(component, split, outer),
        rebuild(component, split, set & !outer),
    )
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
    use ljqo_cost::{DiskCostModel, MemoryCostModel, MultiMethodCostModel};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const LINEAR: SearchSpace = SearchSpace::Linear;
    const BUSHY: SearchSpace = SearchSpace::Bushy;

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

    /// A connected random query of `n` relations: a random spanning tree
    /// plus up to `n / 3` chords.
    fn random_query(rng: &mut SmallRng, n: usize) -> Query {
        let mut b = QueryBuilder::new();
        for i in 0..n {
            b = b.relation(format!("r{i}"), rng.gen_range(1u64..100_000));
        }
        let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (rng.gen_range(0..i), i)).collect();
        for _ in 0..rng.gen_range(0..=n / 3) {
            edges.push((rng.gen_range(0..n), rng.gen_range(0..n)));
        }
        for (a, c) in edges {
            if a != c {
                let s = 10f64.powf(rng.gen_range(-4.0..0.0));
                b = b.join(&format!("r{a}"), &format!("r{c}"), s);
            }
        }
        b.build().unwrap()
    }

    fn dp(
        q: &Query,
        comp: &[RelId],
        model: &dyn CostModel,
        space: SearchSpace,
    ) -> (BushyTree, f64) {
        optimal_dp(q, comp, model, space).unwrap().unwrap()
    }

    #[test]
    fn linear_dp_matches_exhaustive_under_every_model() {
        let models: [&dyn CostModel; 3] = [
            &MemoryCostModel::default(),
            &DiskCostModel::default(),
            &MultiMethodCostModel::default(),
        ];
        let mut queries = vec![query()];
        let mut rng = SmallRng::seed_from_u64(0xd9_0001);
        for _ in 0..12 {
            let n = rng.gen_range(2..=8);
            queries.push(random_query(&mut rng, n));
        }
        for model in models {
            for (i, q) in queries.iter().enumerate() {
                let comp: Vec<RelId> = q.rel_ids().collect();
                let (tree, dp_cost) = dp(q, &comp, model, LINEAR);
                let (_, ex_cost) = optimal_order_exhaustive(q, &comp, model).unwrap();
                let tag = format!("{} query {i}", model.name());
                assert!(
                    (dp_cost - ex_cost).abs() <= ex_cost * 1e-12,
                    "{tag}: dp {dp_cost} vs exhaustive {ex_cost}"
                );
                assert!(tree.is_linear(), "{tag}");
                assert!(is_valid(q.graph(), tree.leaves()), "{tag}");
                let priced = model.order_cost(q, tree.leaves());
                assert!((priced - dp_cost).abs() <= dp_cost * 1e-12, "{tag}");
            }
        }
    }

    #[test]
    fn dp_beats_every_sampled_valid_order() {
        use ljqo_plan::random_valid_order;
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let (_, dp_cost) = dp(&q, &comp, &model, LINEAR);
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..200 {
            let o = random_valid_order(q.graph(), &comp, &mut rng);
            assert!(model.order_cost(&q, o.rels()) >= dp_cost - 1e-9);
        }
    }

    #[test]
    fn singleton_has_no_plan() {
        let q = query();
        let model = MemoryCostModel::default();
        for space in [LINEAR, BUSHY] {
            assert!(optimal_dp(&q, &[RelId(0)], &model, space)
                .unwrap()
                .is_none());
        }
        assert!(optimal_order_exhaustive(&q, &[RelId(0)], &model).is_none());
    }

    #[test]
    fn lower_bound_holds_at_the_optimum() {
        let q = query();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let memory = MemoryCostModel::default();
        let (_, opt) = dp(&q, &comp, &memory, LINEAR);
        assert!(memory.lower_bound(&q, &comp) <= opt + 1e-9);
        let disk = DiskCostModel::default();
        let (_, opt) = dp(&q, &comp, &disk, LINEAR);
        assert!(disk.lower_bound(&q, &comp) <= opt + 1e-9);
    }

    #[test]
    fn bushy_optimum_never_exceeds_linear_optimum() {
        let model = MemoryCostModel::default();
        for q in [chain_query(), bushy_friendly_query()] {
            let comp: Vec<RelId> = q.rel_ids().collect();
            let (_, linear) = dp(&q, &comp, &model, LINEAR);
            let (tree, bushy) = dp(&q, &comp, &model, BUSHY);
            assert!(
                bushy <= linear * (1.0 + 1e-12),
                "bushy {bushy} > linear {linear}"
            );
            // Every leaf appears exactly once.
            let mut leaves = tree.leaves().to_vec();
            leaves.sort_unstable();
            assert_eq!(leaves, comp);
        }
    }

    #[test]
    fn linear_trees_are_a_special_case() {
        // When the bushy optimum IS linear, costs agree exactly with the
        // linear DP (same recurrences, same width convention).
        let q = chain_query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let (tree, bushy) = dp(&q, &comp, &model, BUSHY);
        let (_, linear) = dp(&q, &comp, &model, LINEAR);
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
        let (_, linear) = dp(&q, &comp, &model, LINEAR);
        let (tree, bushy) = dp(&q, &comp, &model, BUSHY);
        assert!(
            !tree.is_linear() && bushy < linear,
            "expected a strictly better bushy plan, got {tree} at {bushy} vs {linear}"
        );
    }

    #[test]
    fn oversized_component_is_a_typed_error() {
        let model = MemoryCostModel::default();
        for space in [LINEAR, BUSHY] {
            let n = dp_limit(space) + 1;
            let mut b = QueryBuilder::new();
            for i in 0..n {
                b = b.relation(format!("r{i}"), 100);
            }
            for i in 1..n {
                b = b.join(&format!("r{}", i - 1), &format!("r{i}"), 0.01);
            }
            let q = b.build().unwrap();
            let comp: Vec<RelId> = q.rel_ids().collect();
            match optimal_dp(&q, &comp, &model, space) {
                Err(OptError::ComponentTooLarge { n_relations, limit }) => {
                    assert_eq!(n_relations, n);
                    assert_eq!(limit, dp_limit(space));
                }
                other => panic!("{space:?}: expected ComponentTooLarge, got {other:?}"),
            }
        }
    }

    #[test]
    fn disconnected_component_is_a_typed_error() {
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
        for space in [LINEAR, BUSHY] {
            match optimal_dp(&q, &comp, &model, space) {
                Err(OptError::DisconnectedComponent { n_relations }) => {
                    assert_eq!(n_relations, 4);
                }
                other => panic!("{space:?}: expected DisconnectedComponent, got {other:?}"),
            }
        }
    }
}
