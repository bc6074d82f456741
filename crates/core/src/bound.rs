//! LP-style cost lower-bound certifier.
//!
//! The paper stops a search "when we are sufficiently close to the lower
//! bound" but leaves the bound to the cost model. The model bounds
//! ([`CostModel::lower_bound`]) count unavoidable *per-relation* work
//! (builds, reads, final output); they say nothing about the unavoidable
//! *intermediate* sizes, which is where large-N plans actually spend
//! their cost. This module derives a second, structural bound in the
//! spirit of an LP relaxation: relax "the plan is one consistent join
//! order" to "every step is priced at the smallest statistics *any* plan
//! could present to it", and sum the relaxed steps.
//!
//! Concretely, for a connected component with cardinalities `c₁ ≤ c₂ ≤ …`
//! and within-component selectivities `s₁, s₂, …` (only those `≤ 1`):
//!
//! ```text
//! m_t  =  clamp(c₁·c₂·…·c_t · ∏ᵢ sᵢ)
//! ```
//!
//! lower-bounds the estimated cardinality of **any** `t`-relation
//! intermediate: the `t` smallest base cardinalities lower-bound any
//! `t`-subset product, and multiplying by *every* shrinking selectivity
//! only over-applies filters a particular subset may not contain. The
//! clamp discipline mirrors the estimator's
//! ([`ljqo_cost::estimate::clamp_card`]), and clamping is
//! monotone, so the inequality survives it.
//!
//! For a [monotone model](CostModel::monotone_join_cost) each join step
//! can then be priced at its componentwise-minimal [`JoinCtx`]:
//!
//! * **linear**: step `t` of *any* valid order joins a `(t−1)`-relation
//!   intermediate (`≥ m_{t−1}`) with a base relation (`≥ c₁`) into a
//!   `t`-relation intermediate (`≥ m_t`), at exactly widths `(t−1, 1)`;
//!   a connected component never needs a cross product. Summing the
//!   relaxed steps bounds every linear plan.
//! * **tree**: any cross-product-free join tree has `N−1` binary joins;
//!   each input is an intermediate of some width (`≥ min_t m_t`), each
//!   non-root output has width `≥ 2` (`≥ min_{t≥2} m_t`), and the root
//!   emits the full result (`≥ m_N`) from operands whose widths sum to
//!   `N`. The root is priced at the cheapest such split: a model may
//!   charge a narrow outer and a wide inner less than the reverse (the
//!   disk model's pages round up per operand). This bound is valid for
//!   linear plans too — it is simply looser, having forgotten the
//!   widths.
//!
//! Both are admissible under the estimator's independence assumptions
//! (asserted against the exact DP optima in the property suite); neither
//! claims anything about true runtime cardinalities. The reported
//! `cost / lower_bound` ratio is therefore a *certificate of search
//! quality*, not of plan quality: a ratio near 1 proves the search
//! cannot be far from optimal, while a large ratio is merely silent
//! (the bound may be loose, or the plan may be bad).

use ljqo_catalog::{Query, RelId};
use ljqo_cost::estimate::clamp_card;
use ljqo_cost::{CostModel, JoinCtx};

/// Lower bounds on the cost of planning one query, per plan shape.
///
/// Produced by [`bound_report`]. Both bounds already include the model's
/// own [`CostModel::lower_bound`] where it is admissible (the linear
/// bound), so callers can use the fields directly as denominators of a
/// `cost / lower_bound` quality ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundReport {
    /// Lower bound on the cost of any valid **left-deep (linear)** plan.
    pub linear: f64,
    /// Lower bound on the cost of any **cross-product-free join tree**
    /// (bushy or linear). Looser than `linear` on linear plans; never
    /// includes [`CostModel::lower_bound`], whose per-relation build
    /// argument assumes base-relation inners.
    pub tree: f64,
}

impl BoundReport {
    /// The quality ratio `cost / bound`, or `None` when the bound is not
    /// positive (degenerate component, or a non-monotone model where
    /// only the trivial bound 0 is available).
    pub fn ratio(bound: f64, cost: f64) -> Option<f64> {
        (bound > 0.0 && cost.is_finite()).then(|| cost / bound)
    }
}

/// The per-width intermediate-cardinality floors `m_1 … m_N` for one
/// connected component (see the module docs). Exposed for the property
/// suite; most callers want [`bound_report`].
pub fn cardinality_floors(query: &Query, component: &[RelId]) -> Vec<f64> {
    let mut cards: Vec<f64> = component
        .iter()
        .map(|&r| clamp_card(query.cardinality(r)))
        .collect();
    cards.sort_unstable_by(f64::total_cmp);

    let mut in_comp = vec![false; query.n_relations()];
    for &r in component {
        in_comp[r.index()] = true;
    }
    let mut sel_prod = 1.0f64;
    for e in query.graph().edges() {
        if in_comp[e.a.index()] && in_comp[e.b.index()] && e.selectivity <= 1.0 {
            sel_prod = clamp_card(sel_prod * e.selectivity);
        }
    }

    let mut floors = Vec::with_capacity(cards.len());
    let mut card_prod = 1.0f64;
    for &c in &cards {
        card_prod = clamp_card(card_prod * c);
        floors.push(clamp_card(card_prod * sel_prod));
    }
    floors
}

/// Lower bounds for one connected component. Components of fewer than
/// two relations cost nothing and bound at zero.
pub fn component_bound(query: &Query, model: &dyn CostModel, component: &[RelId]) -> BoundReport {
    let n = component.len();
    let model_lb = model.lower_bound(query, component);
    if n < 2 {
        return BoundReport {
            linear: model_lb.max(0.0),
            tree: 0.0,
        };
    }
    if !model.monotone_join_cost() {
        // Without monotonicity a componentwise-minimal JoinCtx proves
        // nothing; fall back to the model's own bound alone.
        return BoundReport {
            linear: model_lb.max(0.0),
            tree: 0.0,
        };
    }
    let floors = cardinality_floors(query, component);
    let c_min = clamp_card(
        component
            .iter()
            .map(|&r| query.cardinality(r))
            .fold(f64::INFINITY, f64::min),
    );

    let mut linear = 0.0f64;
    for t in 2..=n {
        linear += model.join_cost(&JoinCtx {
            outer_card: floors[t - 2],
            inner_card: c_min,
            output_card: floors[t - 1],
            outer_rels: t - 1,
            inner_rels: 1,
            is_cross_product: false,
        });
    }
    linear = linear.max(model_lb).max(0.0);

    let m_any = floors.iter().copied().fold(f64::INFINITY, f64::min);
    let m_join = floors[1..].iter().copied().fold(f64::INFINITY, f64::min);
    let generic = model.join_cost(&JoinCtx {
        outer_card: m_any,
        inner_card: m_any,
        output_card: m_join,
        outer_rels: 1,
        inner_rels: 1,
        is_cross_product: false,
    });
    let root = (1..n)
        .map(|outer_rels| {
            model.join_cost(&JoinCtx {
                outer_card: m_any,
                inner_card: m_any,
                output_card: floors[n - 1],
                outer_rels,
                inner_rels: n - outer_rels,
                is_cross_product: false,
            })
        })
        .fold(f64::INFINITY, f64::min);
    let tree = ((n - 2) as f64 * generic + root).max(0.0);

    BoundReport { linear, tree }
}

/// Lower bounds for a whole query: the component bounds summed. The
/// cross products joining segments only add cost, so the sum remains
/// admissible for the full plan.
pub fn bound_report(query: &Query, model: &dyn CostModel) -> BoundReport {
    let mut linear = 0.0f64;
    let mut tree = 0.0f64;
    for comp in query.graph().components() {
        let b = component_bound(query, model, &comp);
        linear += b.linear;
        tree += b.tree;
    }
    BoundReport { linear, tree }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ljqo_catalog::QueryBuilder;
    use ljqo_cost::{FaultMode, FaultyCostModel, MemoryCostModel, OrderCost};

    fn q3() -> Query {
        QueryBuilder::new()
            .relation("a", 100)
            .relation("b", 1000)
            .relation("c", 10)
            .join("a", "b", 0.001)
            .join("b", "c", 0.01)
            .build()
            .unwrap()
    }

    #[test]
    fn the_tree_root_is_priced_at_its_cheapest_width_split() {
        // Four 13-tuple relations (0.41 pages each at width 1): a root
        // whose operands hold 3 + 1 relations reads 2 + 1 pages, one
        // with 2 + 2 relations reads 1 + 1.
        let q = QueryBuilder::new()
            .relation("a", 13)
            .relation("b", 13)
            .relation("c", 13)
            .relation("d", 13)
            .join("a", "b", 1.0)
            .join("b", "c", 1.0)
            .join("c", "d", 1.0)
            .build()
            .unwrap();
        let model = ljqo_cost::DiskCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let root = |outer_rels, inner_rels| {
            model.join_cost(&JoinCtx {
                outer_card: 13.0,
                inner_card: 13.0,
                output_card: 13f64.powi(4),
                outer_rels,
                inner_rels,
                is_cross_product: false,
            })
        };
        assert!(root(2, 2) < root(3, 1));
        let generic = model.join_cost(&JoinCtx {
            outer_card: 13.0,
            inner_card: 13.0,
            output_card: 13.0 * 13.0,
            outer_rels: 1,
            inner_rels: 1,
            is_cross_product: false,
        });
        let b = component_bound(&q, &model, &comp);
        assert_eq!(b.tree, 2.0 * generic + root(2, 2));
    }

    #[test]
    fn floors_are_sorted_prefix_products_times_selectivities() {
        let q = q3();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let f = cardinality_floors(&q, &comp);
        assert_eq!(f.len(), 3);
        let sels = 0.001 * 0.01;
        assert!((f[0] - 10.0 * sels).abs() < 1e-12);
        assert!((f[1] - 10.0 * 100.0 * sels).abs() < 1e-9);
        assert!((f[2] - 10.0 * 100.0 * 1000.0 * sels).abs() < 1e-6);
    }

    #[test]
    fn linear_bound_improves_on_the_model_bound_here() {
        let q = q3();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let b = component_bound(&q, &model, &comp);
        assert!(b.linear >= model.lower_bound(&q, &comp));
        assert!(b.tree > 0.0);
    }

    #[test]
    fn bounds_hold_against_every_order_of_a_small_query() {
        let q = q3();
        let model = MemoryCostModel::default();
        let comp: Vec<RelId> = q.rel_ids().collect();
        let b = component_bound(&q, &model, &comp);
        // All 3! = 6 permutations, valid or not — the valid ones matter.
        let ids = [RelId(0), RelId(1), RelId(2)];
        let mut checked = 0;
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    if i == j || j == k || i == k {
                        continue;
                    }
                    let order = [ids[i], ids[j], ids[k]];
                    if !ljqo_plan::validity::is_valid(q.graph(), &order) {
                        continue;
                    }
                    let c = model.order_cost(&q, &order);
                    assert!(b.linear <= c + 1e-9, "bound {} > cost {c}", b.linear);
                    assert!(b.tree <= c + 1e-9, "tree bound {} > cost {c}", b.tree);
                    checked += 1;
                }
            }
        }
        assert!(checked >= 2);
    }

    #[test]
    fn non_monotone_model_falls_back_to_model_bound() {
        let q = q3();
        let inner = MemoryCostModel::default();
        let model = FaultyCostModel::new(inner, FaultMode::NanOnKth(u64::MAX));
        let comp: Vec<RelId> = q.rel_ids().collect();
        let b = component_bound(&q, &model, &comp);
        assert_eq!(b.linear, model.lower_bound(&q, &comp));
        assert_eq!(b.tree, 0.0);
    }

    #[test]
    fn singleton_component_bounds_at_zero_tree() {
        let q = q3();
        let model = MemoryCostModel::default();
        let b = component_bound(&q, &model, &[RelId(0)]);
        assert_eq!(b.tree, 0.0);
    }

    #[test]
    fn whole_query_report_sums_components() {
        let q = QueryBuilder::new()
            .relation("a", 100)
            .relation("b", 1000)
            .relation("x", 50)
            .relation("y", 500)
            .join("a", "b", 0.001)
            .join("x", "y", 0.01)
            .build()
            .unwrap();
        let model = MemoryCostModel::default();
        let whole = bound_report(&q, &model);
        let c1 = component_bound(&q, &model, &[RelId(0), RelId(1)]);
        let c2 = component_bound(&q, &model, &[RelId(2), RelId(3)]);
        assert!((whole.linear - (c1.linear + c2.linear)).abs() < 1e-9);
        assert!((whole.tree - (c1.tree + c2.tree)).abs() < 1e-9);
    }

    #[test]
    fn ratio_helper_guards_degenerate_bounds() {
        assert_eq!(BoundReport::ratio(0.0, 10.0), None);
        assert_eq!(BoundReport::ratio(5.0, f64::INFINITY), None);
        assert_eq!(BoundReport::ratio(5.0, 10.0), Some(2.0));
    }
}
