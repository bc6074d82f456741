//! Multiple join methods — the paper's first stated extension.
//!
//! §7: *"Our work can be extended by incorporating join methods other
//! than the hash join method."* This model prices each join under three
//! physical operators and charges the cheapest:
//!
//! * **hash join** — as [`crate::MemoryCostModel`];
//! * **nested loops** — quadratic, but with no build cost: wins when the
//!   inner is tiny;
//! * **sort-merge** — `n log n` sorts plus a linear merge: wins when both
//!   inputs are large but the output is small.
//!
//! The search space is unchanged (still permutations of relations), so
//! every optimizer in this workspace works under this model untouched.
//! One caveat the paper itself raises (§1, §4.2): the KBZ rank theory
//! requires per-join costs of the form `|outer|·g(inner)`, which
//! sort-merge violates — under this model the KBZ heuristic loses its
//! per-rooted-tree optimality guarantee and becomes "just" a heuristic,
//! while augmentation, II and SA are unaffected. This is precisely the
//! cost-model-independence argument the paper makes for its methods.

use ljqo_catalog::{Query, RelId};

use crate::model::{bound_ingredients, CostModel, JoinCtx};

/// A physical join operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinMethod {
    /// Classic in-memory hash join (build inner, probe outer).
    Hash,
    /// Tuple-at-a-time nested loops (no setup cost).
    NestedLoop,
    /// Sort both inputs, merge.
    SortMerge,
}

impl JoinMethod {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            JoinMethod::Hash => "hash",
            JoinMethod::NestedLoop => "nested-loop",
            JoinMethod::SortMerge => "sort-merge",
        }
    }
}

/// Main-memory cost model that picks the cheapest of three join methods
/// per join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiMethodCostModel {
    /// Hash: per-inner-tuple build cost.
    pub hash_build: f64,
    /// Hash: per-outer-tuple probe cost.
    pub hash_probe: f64,
    /// Nested loops: cost per (outer, inner) tuple pair examined.
    pub nl_pair: f64,
    /// Sort-merge: per-tuple-comparison sort constant (multiplies
    /// `n·log₂n`).
    pub sort_tuple: f64,
    /// Sort-merge: per-tuple merge scan cost.
    pub merge_tuple: f64,
    /// All methods: per-result-tuple output cost.
    pub output: f64,
}

impl Default for MultiMethodCostModel {
    fn default() -> Self {
        MultiMethodCostModel {
            hash_build: 1.5,
            hash_probe: 1.0,
            nl_pair: 0.25,
            sort_tuple: 0.8,
            merge_tuple: 0.5,
            output: 1.0,
        }
    }
}

impl MultiMethodCostModel {
    /// Cost of one join under a specific method.
    pub fn method_cost(&self, method: JoinMethod, ctx: &JoinCtx) -> f64 {
        let out = self.output * ctx.output_card;
        match method {
            JoinMethod::Hash => {
                self.hash_build * ctx.inner_card + self.hash_probe * ctx.outer_card + out
            }
            JoinMethod::NestedLoop => self.nl_pair * ctx.outer_card * ctx.inner_card + out,
            JoinMethod::SortMerge => {
                let sort = |n: f64| n * n.max(2.0).log2() * self.sort_tuple;
                sort(ctx.outer_card)
                    + sort(ctx.inner_card)
                    + self.merge_tuple * (ctx.outer_card + ctx.inner_card)
                    + out
            }
        }
    }

    /// The cheapest method for one join and its cost. Cross products are
    /// forced to nested loops (there is no key to hash or merge on).
    pub fn best_method(&self, ctx: &JoinCtx) -> (JoinMethod, f64) {
        if ctx.is_cross_product {
            return (
                JoinMethod::NestedLoop,
                self.method_cost(JoinMethod::NestedLoop, ctx),
            );
        }
        [
            JoinMethod::Hash,
            JoinMethod::NestedLoop,
            JoinMethod::SortMerge,
        ]
        .into_iter()
        .map(|m| (m, self.method_cost(m, ctx)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap()
    }

    /// Annotate an order with the chosen method per join (for EXPLAIN
    /// output and tests).
    pub fn annotate(&self, query: &Query, order: &[RelId]) -> Vec<(RelId, JoinMethod)> {
        let mut walker = crate::estimate::SizeWalker::new(query.n_relations());
        let mut out = Vec::with_capacity(order.len().saturating_sub(1));
        let mut outer_rels = 1usize;
        walker.walk(query, order, |s| {
            let ctx = JoinCtx {
                outer_card: s.outer_card,
                inner_card: s.inner_card,
                output_card: s.output_card,
                outer_rels,
                is_cross_product: s.is_cross_product,
            };
            out.push((s.inner, self.best_method(&ctx).0));
            outer_rels += 1;
        });
        out
    }
}

impl CostModel for MultiMethodCostModel {
    fn join_cost(&self, ctx: &JoinCtx) -> f64 {
        self.best_method(ctx).1
    }

    fn name(&self) -> &'static str {
        "multi-method"
    }

    /// Admissible: every result tuple must be emitted, and each non-first
    /// relation participates in at least one join whose cost is at least
    /// the cheapest conceivable handling of that relation (a merge scan).
    fn lower_bound(&self, query: &Query, component: &[RelId]) -> f64 {
        if component.len() < 2 {
            return 0.0;
        }
        let (final_size, cards) = bound_ingredients(query, component);
        let touch_sum: f64 = cards.iter().sum();
        let touch_max = cards.iter().cloned().fold(0.0, f64::max);
        let per_tuple_floor = self.merge_tuple.min(self.hash_build).min(self.nl_pair);
        per_tuple_floor * (touch_sum - touch_max) + self.output * final_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::OrderCost;
    use ljqo_catalog::QueryBuilder;

    fn ctx(outer: f64, inner: f64, output: f64) -> JoinCtx {
        JoinCtx {
            outer_card: outer,
            inner_card: inner,
            output_card: output,
            outer_rels: 1,
            is_cross_product: false,
        }
    }

    #[test]
    fn tiny_inner_prefers_nested_loops() {
        let m = MultiMethodCostModel::default();
        // Inner of 2 tuples: NL pays 0.25·outer·2 = 0.5·outer, cheaper
        // than hashing (probe alone costs 1.0·outer).
        let (method, _) = m.best_method(&ctx(10_000.0, 2.0, 100.0));
        assert_eq!(method, JoinMethod::NestedLoop);
    }

    #[test]
    fn balanced_large_inputs_prefer_hash() {
        let m = MultiMethodCostModel::default();
        let (method, _) = m.best_method(&ctx(50_000.0, 50_000.0, 1_000.0));
        assert_eq!(method, JoinMethod::Hash);
    }

    #[test]
    fn sort_merge_wins_when_sorting_is_cheap() {
        // Make sorting nearly free and hashing expensive.
        let m = MultiMethodCostModel {
            sort_tuple: 0.001,
            merge_tuple: 0.01,
            hash_build: 10.0,
            hash_probe: 10.0,
            ..MultiMethodCostModel::default()
        };
        let (method, _) = m.best_method(&ctx(10_000.0, 10_000.0, 10.0));
        assert_eq!(method, JoinMethod::SortMerge);
    }

    #[test]
    fn cross_products_are_nested_loops() {
        let m = MultiMethodCostModel::default();
        let mut c = ctx(100.0, 100.0, 10_000.0);
        c.is_cross_product = true;
        assert_eq!(m.best_method(&c).0, JoinMethod::NestedLoop);
    }

    #[test]
    fn join_cost_is_min_over_methods() {
        let m = MultiMethodCostModel::default();
        let c = ctx(3_000.0, 700.0, 400.0);
        let min = [
            JoinMethod::Hash,
            JoinMethod::NestedLoop,
            JoinMethod::SortMerge,
        ]
        .into_iter()
        .map(|mm| m.method_cost(mm, &c))
        .fold(f64::INFINITY, f64::min);
        assert_eq!(m.join_cost(&c), min);
    }

    #[test]
    fn annotate_covers_every_join() {
        let q = QueryBuilder::new()
            .relation("big", 100_000)
            .relation("tiny", 3)
            .relation("mid", 5_000)
            .join("big", "tiny", 0.4)
            .join("big", "mid", 0.0002)
            .build()
            .unwrap();
        let m = MultiMethodCostModel::default();
        let order: Vec<RelId> = q.rel_ids().collect();
        let plan = m.annotate(&q, &order);
        assert_eq!(plan.len(), 2);
        // The 3-tuple inner should be joined by nested loops.
        assert_eq!(plan[0], (RelId(1), JoinMethod::NestedLoop));
    }

    #[test]
    fn lower_bound_admissible_on_samples() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let q = QueryBuilder::new()
            .relation("a", 5_000)
            .relation("b", 300)
            .relation("c", 12_000)
            .relation("d", 45)
            .join("a", "b", 0.003)
            .join("b", "c", 0.0001)
            .join("c", "d", 0.02)
            .build()
            .unwrap();
        let m = MultiMethodCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let lb = m.lower_bound(&q, &comp);
        assert!(lb > 0.0);
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..50 {
            let o = ljqo_plan::random_valid_order(q.graph(), &comp, &mut rng);
            assert!(m.order_cost(&q, o.rels()) >= lb - 1e-9);
        }
    }

    #[test]
    fn multi_method_cost_never_exceeds_pure_hash() {
        let hash = crate::MemoryCostModel::default();
        let multi = MultiMethodCostModel::default();
        let q = QueryBuilder::new()
            .relation("a", 5_000)
            .relation("b", 3)
            .relation("c", 12_000)
            .join("a", "b", 0.3)
            .join("b", "c", 0.3)
            .build()
            .unwrap();
        let order: Vec<RelId> = q.rel_ids().collect();
        assert!(multi.order_cost(&q, &order) <= hash.order_cost(&q, &order) + 1e-9);
    }
}
