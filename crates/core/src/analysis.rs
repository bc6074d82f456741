//! Solution-space analysis — the paper's second stated extension.
//!
//! §7: *"The distribution of solution costs in the space of valid
//! solutions is of interest and is being investigated."* This module
//! provides the instruments: random sampling of the valid-plan space,
//! exhaustive local-minimum testing under the swap neighborhood, and
//! descent-based estimation of how many distinct local minima a query
//! has and how deep they are — the quantities §6.4 speculates about
//! ("a large number of local minima, with a small but significant
//! fraction of them being deep").

use rand::Rng;

use ljqo_catalog::{Query, RelId};
use ljqo_cost::estimate::SizeWalker;
use ljqo_cost::{CostModel, OrderCost};
use ljqo_plan::validity::is_valid;
use ljqo_plan::{random_valid_order, JoinOrder, Move};

/// Summary statistics of sampled valid-plan costs.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceStats {
    /// Number of samples taken.
    pub samples: usize,
    /// Cheapest sampled cost.
    pub min: f64,
    /// Most expensive sampled cost.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Fraction of samples within 2× of the sampled minimum ("good
    /// plans").
    pub good_fraction: f64,
}

/// Sample `n` random valid orders of `component` and summarize their
/// costs. Panics if `n == 0`.
pub fn sample_space<R: Rng + ?Sized>(
    query: &Query,
    model: &dyn CostModel,
    component: &[RelId],
    n: usize,
    rng: &mut R,
) -> SpaceStats {
    assert!(n > 0, "need at least one sample");
    let mut walker = SizeWalker::new(query);
    let mut costs: Vec<f64> = (0..n)
        .map(|_| {
            let order = random_valid_order(query.graph(), component, rng);
            model.order_cost_with(&mut walker, order.rels())
        })
        .collect();
    costs.sort_by(f64::total_cmp);
    let min = costs[0];
    let max = *costs.last().unwrap();
    let mean = costs.iter().sum::<f64>() / n as f64;
    let median = costs[n / 2];
    let p90 = costs[(n * 9 / 10).min(n - 1)];
    let good = costs.iter().filter(|&&c| c <= min * 2.0).count();
    SpaceStats {
        samples: n,
        min,
        max,
        mean,
        median,
        p90,
        good_fraction: good as f64 / n as f64,
    }
}

/// Whether `order` is a local minimum under the *exhaustive* swap
/// neighborhood: no valid single swap lowers the cost. Exact but
/// O(N² · N) — use on moderate N only.
pub fn is_swap_local_minimum(query: &Query, model: &dyn CostModel, order: &JoinOrder) -> bool {
    let mut walker = SizeWalker::new(query);
    let current = model.order_cost_with(&mut walker, order.rels());
    let mut probe = order.clone();
    for mv in Move::all_swaps(order.len()) {
        mv.apply(&mut probe);
        let better = is_valid(query.graph(), probe.rels())
            && model.order_cost_with(&mut walker, probe.rels()) < current;
        mv.undo(&mut probe);
        if better {
            return false;
        }
    }
    true
}

/// Descend greedily under the exhaustive swap neighborhood (steepest
/// descent) to a true swap-local minimum. Returns the minimum's cost.
pub fn steepest_descent(query: &Query, model: &dyn CostModel, order: &mut JoinOrder) -> f64 {
    let mut walker = SizeWalker::new(query);
    let mut current = model.order_cost_with(&mut walker, order.rels());
    loop {
        let mut best: Option<(Move, f64)> = None;
        let mut probe = order.clone();
        for mv in Move::all_swaps(order.len()) {
            mv.apply(&mut probe);
            if is_valid(query.graph(), probe.rels()) {
                let c = model.order_cost_with(&mut walker, probe.rels());
                if c < current && best.as_ref().is_none_or(|&(_, bc)| c < bc) {
                    best = Some((mv, c));
                }
            }
            mv.undo(&mut probe);
        }
        match best {
            Some((mv, c)) => {
                mv.apply(order);
                current = c;
            }
            None => return current,
        }
    }
}

/// Local-minima census from repeated steepest descents.
#[derive(Debug, Clone, PartialEq)]
pub struct MinimaStats {
    /// Descents performed.
    pub descents: usize,
    /// Number of *distinct* minima found (distinct cost values up to a
    /// relative tolerance of 1e-9).
    pub distinct_minima: usize,
    /// Cheapest minimum found.
    pub best: f64,
    /// Fraction of descents ending within 10% of the best minimum
    /// ("deep" minima, in the paper's sense).
    pub deep_fraction: f64,
}

/// Run `descents` steepest descents from random valid starts and census
/// the minima reached.
pub fn census_local_minima<R: Rng + ?Sized>(
    query: &Query,
    model: &dyn CostModel,
    component: &[RelId],
    descents: usize,
    rng: &mut R,
) -> MinimaStats {
    assert!(descents > 0);
    let mut minima = Vec::with_capacity(descents);
    for _ in 0..descents {
        let mut order = random_valid_order(query.graph(), component, rng);
        minima.push(steepest_descent(query, model, &mut order));
    }
    minima.sort_by(f64::total_cmp);
    let best = minima[0];
    let mut distinct = 1;
    for w in minima.windows(2) {
        if (w[1] - w[0]).abs() > w[1].abs() * 1e-9 {
            distinct += 1;
        }
    }
    let deep = minima.iter().filter(|&&m| m <= best * 1.1).count();
    MinimaStats {
        descents,
        distinct_minima: distinct,
        best,
        deep_fraction: deep as f64 / descents as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::optimal_dp;
    use crate::SearchSpace;
    use ljqo_catalog::QueryBuilder;
    use ljqo_cost::MemoryCostModel;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn query() -> Query {
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
            .join("b", "e", 0.03)
            .build()
            .unwrap()
    }

    #[test]
    fn space_stats_are_ordered() {
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let mut rng = SmallRng::seed_from_u64(3);
        let s = sample_space(&q, &model, &comp, 200, &mut rng);
        assert!(s.min <= s.median && s.median <= s.p90 && s.p90 <= s.max);
        assert!(s.min <= s.mean && s.mean <= s.max);
        assert!((0.0..=1.0).contains(&s.good_fraction));
        assert!(s.good_fraction > 0.0, "the minimum itself is good");
    }

    #[test]
    fn steepest_descent_reaches_swap_local_minimum() {
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..5 {
            let mut order = random_valid_order(q.graph(), &comp, &mut rng);
            let before = model.order_cost(&q, order.rels());
            let c = steepest_descent(&q, &model, &mut order);
            assert!(c <= before);
            assert!(is_swap_local_minimum(&q, &model, &order));
            assert!(is_valid(q.graph(), order.rels()));
        }
    }

    #[test]
    fn global_optimum_is_a_local_minimum() {
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let (tree, _) = optimal_dp(&q, &comp, &model, SearchSpace::Linear)
            .unwrap()
            .unwrap();
        let opt_order = JoinOrder::new(tree.leaves().to_vec());
        assert!(is_swap_local_minimum(&q, &model, &opt_order));
    }

    #[test]
    fn census_counts_minima() {
        let q = query();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let mut rng = SmallRng::seed_from_u64(7);
        let census = census_local_minima(&q, &model, &comp, 20, &mut rng);
        assert_eq!(census.descents, 20);
        assert!(census.distinct_minima >= 1);
        assert!(census.deep_fraction > 0.0 && census.deep_fraction <= 1.0);
        // The census's best minimum cannot beat the DP optimum.
        let (_, opt) = optimal_dp(&q, &comp, &model, SearchSpace::Linear)
            .unwrap()
            .unwrap();
        assert!(census.best >= opt - opt * 1e-9);
    }
}
