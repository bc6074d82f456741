//! The local improvement heuristic (paper §4.3).
//!
//! Given an ordering, consider sliding *clusters* of `c` consecutive
//! positions with overlap `o` (`0 ≤ o ≤ c−1`): within each cluster, try
//! every permutation of its relations and keep the best valid one. A pass
//! over all clusters never worsens the ordering; with overlap, passes are
//! repeated until a fixpoint. The search per cluster is factorial in `c`,
//! so only small clusters are practical — the paper found the useful
//! strategies to be, in order of decreasing budget appetite:
//! `(5,4), (4,3), (3,2), (2,1), (2,0)`.

use ljqo_catalog::RelId;
use ljqo_cost::Evaluator;
use ljqo_plan::validity::ValidityChecker;
use ljqo_plan::JoinOrder;

/// A local improvement strategy `(c, o)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalImprovement {
    /// Cluster size `c ≥ 2`.
    pub cluster: usize,
    /// Overlap `o < c`.
    pub overlap: usize,
}

/// The budget-ordered strategy ladder from the paper: use the first entry
/// whose single pass fits the remaining budget.
pub const STRATEGY_LADDER: [LocalImprovement; 5] = [
    LocalImprovement {
        cluster: 5,
        overlap: 4,
    },
    LocalImprovement {
        cluster: 4,
        overlap: 3,
    },
    LocalImprovement {
        cluster: 3,
        overlap: 2,
    },
    LocalImprovement {
        cluster: 2,
        overlap: 1,
    },
    LocalImprovement {
        cluster: 2,
        overlap: 0,
    },
];

impl LocalImprovement {
    /// Create a strategy. Panics unless `2 ≤ c` and `o < c`.
    pub fn new(cluster: usize, overlap: usize) -> Self {
        assert!(cluster >= 2, "cluster size must be at least 2");
        assert!(
            overlap < cluster,
            "overlap must be smaller than the cluster"
        );
        LocalImprovement { cluster, overlap }
    }

    /// Number of cluster windows in one pass over an order of length `n`.
    pub fn windows(&self, n: usize) -> usize {
        if n < 2 {
            return 0;
        }
        let step = self.cluster - self.overlap;
        // Windows start at 0, step, 2·step, ... while at least two
        // positions remain to permute.
        1 + (n.saturating_sub(2)) / step
    }

    /// Upper bound on evaluations consumed by one pass over `n` relations
    /// (each window tries `c! − 1` non-identity permutations).
    pub fn pass_evaluations(&self, n: usize) -> u64 {
        let fact: u64 = (1..=self.cluster as u64).product();
        self.windows(n) as u64 * (fact - 1)
    }

    /// The paper's budget rule: the most aggressive ladder strategy whose
    /// single pass fits in `remaining` budget units, if any.
    pub fn best_for_budget(n: usize, remaining: u64) -> Option<LocalImprovement> {
        STRATEGY_LADDER
            .into_iter()
            .find(|s| s.pass_evaluations(n) <= remaining)
    }

    /// One pass: slide the cluster over the order, exhaustively permuting
    /// each window. Returns `true` if the order improved. Stops early when
    /// the evaluator's budget is exhausted.
    pub fn pass(&self, ev: &mut Evaluator<'_>, order: &mut JoinOrder) -> bool {
        let n = order.len();
        if n < 2 {
            return false;
        }
        let graph = ev.query().graph();
        let mut checker = ValidityChecker::new(ev.query().n_relations());
        let mut current_cost = ev.cost(order);
        let mut improved = false;
        let step = self.cluster - self.overlap;
        let mut start = 0;
        while start + 1 < n {
            if ev.exhausted() {
                break;
            }
            let end = (start + self.cluster).min(n);
            let window: Vec<RelId> = order.rels()[start..end].to_vec();
            let mut best_window = window.clone();
            let mut candidate = order.clone();
            for perm in permutations(&window) {
                if ev.exhausted() {
                    break;
                }
                if perm == best_window {
                    continue;
                }
                candidate.rels_mut()[start..end].copy_from_slice(&perm);
                if !checker.is_valid(graph, candidate.rels()) {
                    // Validity filtering is cheap but not free; charge one
                    // unit so the heuristic cannot scan for free.
                    ev.charge(1);
                    continue;
                }
                let c = ev.cost(&candidate);
                if c < current_cost {
                    current_cost = c;
                    best_window = perm;
                    improved = true;
                }
                if ev.exhausted() {
                    break;
                }
            }
            order.rels_mut()[start..end].copy_from_slice(&best_window);
            start += step;
        }
        improved
    }

    /// Repeat passes until a fixpoint (or budget exhaustion). Without
    /// overlap a single pass suffices, as the paper notes.
    pub fn improve(&self, ev: &mut Evaluator<'_>, order: &mut JoinOrder) {
        loop {
            let improved = self.pass(ev, order);
            if !improved || self.overlap == 0 || ev.exhausted() {
                break;
            }
        }
    }
}

/// All permutations of `items` (lexicographic by construction order).
/// Cluster sizes are ≤ 5, so at most 120 permutations.
fn permutations(items: &[RelId]) -> Vec<Vec<RelId>> {
    let mut out = Vec::new();
    let mut acc = Vec::with_capacity(items.len());
    fn rec(rest: &[RelId], acc: &mut Vec<RelId>, out: &mut Vec<Vec<RelId>>) {
        if rest.is_empty() {
            out.push(acc.clone());
            return;
        }
        for i in 0..rest.len() {
            let mut next = rest.to_vec();
            let r = next.remove(i);
            acc.push(r);
            rec(&next, acc, out);
            acc.pop();
        }
    }
    rec(items, &mut acc, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ljqo_catalog::{Query, QueryBuilder};
    use ljqo_cost::{MemoryCostModel, OrderCost};
    use ljqo_plan::validity::is_valid;

    fn chain_query() -> Query {
        QueryBuilder::new()
            .relation("a", 2000)
            .relation("b", 10)
            .relation("c", 800)
            .relation("d", 40)
            .relation("e", 900)
            .join("a", "b", 0.01)
            .join("b", "c", 0.002)
            .join("c", "d", 0.05)
            .join("d", "e", 0.001)
            .build()
            .unwrap()
    }

    fn order(v: &[u32]) -> JoinOrder {
        JoinOrder::new(v.iter().map(|&i| RelId(i)).collect())
    }

    #[test]
    fn permutations_count() {
        let items: Vec<RelId> = (0..4u32).map(RelId).collect();
        assert_eq!(permutations(&items).len(), 24);
        assert_eq!(permutations(&items[..1]).len(), 1);
    }

    #[test]
    fn window_and_evaluation_counts() {
        let s = LocalImprovement::new(3, 2);
        // n=10: windows start at 0..=8 -> 9 windows.
        assert_eq!(s.windows(10), 9);
        assert_eq!(s.pass_evaluations(10), 9 * 5);
        let s2 = LocalImprovement::new(2, 0);
        // n=10: starts 0,2,4,6,8 -> 5 windows.
        assert_eq!(s2.windows(10), 5);
    }

    #[test]
    fn ladder_picks_biggest_affordable() {
        // (5,4) on n=20 costs 16·119 = 1904 evals.
        let s = LocalImprovement::best_for_budget(20, 10_000).unwrap();
        assert_eq!(s, LocalImprovement::new(5, 4));
        let s = LocalImprovement::best_for_budget(20, 200).unwrap();
        assert!(s.cluster < 5);
        assert_eq!(LocalImprovement::best_for_budget(20, 0), None);
    }

    #[test]
    fn pass_never_worsens_and_keeps_validity() {
        let q = chain_query();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::new(&q, &model);
        let mut o = order(&[0, 1, 2, 3, 4]);
        let before = model.order_cost(&q, o.rels());
        LocalImprovement::new(3, 2).improve(&mut ev, &mut o);
        let after = model.order_cost(&q, o.rels());
        assert!(after <= before);
        assert!(is_valid(q.graph(), o.rels()));
        assert_eq!(o.len(), 5);
    }

    #[test]
    fn full_cluster_finds_global_optimum_of_component() {
        // With c = n the single cluster enumerates every permutation, so
        // local improvement must return a global optimum.
        let q = chain_query();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::new(&q, &model);
        let mut o = order(&[0, 1, 2, 3, 4]);
        LocalImprovement::new(5, 0).improve(&mut ev, &mut o);
        let got = model.order_cost(&q, o.rels());

        // Brute force over all valid permutations.
        let all: Vec<RelId> = q.rel_ids().collect();
        let mut best = f64::INFINITY;
        for perm in permutations(&all) {
            if is_valid(q.graph(), &perm) {
                best = best.min(model.order_cost(&q, &perm));
            }
        }
        assert!((got - best).abs() <= best * 1e-12, "{got} vs {best}");
    }

    #[test]
    fn budget_exhaustion_stops_pass() {
        let q = chain_query();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::with_budget(&q, &model, 5);
        let mut o = order(&[0, 1, 2, 3, 4]);
        LocalImprovement::new(5, 4).improve(&mut ev, &mut o);
        assert!(ev.used() <= 7, "must stop promptly after exhaustion");
        assert!(is_valid(q.graph(), o.rels()));
    }

    #[test]
    fn tiny_orders_are_no_ops() {
        let q = chain_query();
        let model = MemoryCostModel::default();
        let mut ev = Evaluator::new(&q, &model);
        let mut o = order(&[2]);
        assert!(!LocalImprovement::new(2, 1).pass(&mut ev, &mut o));
    }
}
