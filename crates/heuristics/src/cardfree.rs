//! A cardinality-free ordering heuristic (after Simpli-Squared,
//! arxiv 2111.00163).
//!
//! Simpli-Squared observes that a join order chosen from the *structure*
//! of the join graph alone — ignoring every cardinality, selectivity, and
//! distinct count — is unexpectedly competitive exactly when the
//! statistics feeding the cost model are wrong. The intuition: hub
//! relations participate in many predicates, so placing them early lets
//! every subsequent join apply at least one filtering predicate, and none
//! of that reasoning consumes a single estimate.
//!
//! This makes the heuristic the natural *last line of defense*: it cannot
//! be misled by corrupted statistics (it never reads them) and it cannot
//! panic on NaN cardinalities (it never touches them). The optimizer
//! layer offers it as a method (`CARDFREE`) and uses it as a degradation
//! rung above the random-order fallback.

use ljqo_catalog::{JoinGraph, RelId};
use ljqo_plan::JoinOrder;

/// Structure-only join ordering: pick the highest-degree relation first,
/// then repeatedly choose the frontier relation with the most join edges
/// into the placed set (ties: higher total degree, then lower id).
///
/// The heuristic reads only the join graph — no cardinalities,
/// selectivities, or distinct counts — so it is immune to estimation
/// error and total statistics loss. Orders are valid by construction
/// (only relations joined to the placed set are candidates) and the
/// whole run is `O(N·E)` and fully deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CardFreeHeuristic;

impl CardFreeHeuristic {
    /// The starting relation for `component`: maximum join-graph degree,
    /// ties broken by lowest id.
    ///
    /// Panics if `component` is empty.
    pub fn first_relation(graph: &JoinGraph, component: &[RelId]) -> RelId {
        *component
            .iter()
            .max_by(|&&a, &&b| {
                graph.degree(a).cmp(&graph.degree(b)).then(b.cmp(&a)) // reversed: lower id wins the max_by
            })
            .expect("component must be non-empty")
    }

    /// Generate the structural order for `component`, starting from
    /// [`Self::first_relation`].
    pub fn generate(&self, graph: &JoinGraph, component: &[RelId]) -> JoinOrder {
        self.generate_from(graph, component, Self::first_relation(graph, component))
    }

    /// Generate the structural order for `component` starting at `first`.
    ///
    /// Panics if `first` is not in `component`. If the component is not
    /// connected the result covers only the part reachable from `first`
    /// (guarded by a debug assertion, mirroring the augmentation
    /// heuristic's contract).
    pub fn generate_from(&self, graph: &JoinGraph, component: &[RelId], first: RelId) -> JoinOrder {
        assert!(component.contains(&first), "{first} not in component");
        let n_rel = graph.n_relations();
        let mut in_component = vec![false; n_rel];
        for &r in component {
            in_component[r.index()] = true;
        }
        let mut placed = vec![false; n_rel];
        // Edges from each relation into the placed set, maintained
        // incrementally as relations are placed.
        let mut links = vec![0usize; n_rel];
        let mut order = Vec::with_capacity(component.len());

        let mut frontier: Vec<RelId> = Vec::new();
        let mut in_frontier = vec![false; n_rel];
        let place = |r: RelId,
                     placed: &mut Vec<bool>,
                     links: &mut Vec<usize>,
                     frontier: &mut Vec<RelId>,
                     in_frontier: &mut Vec<bool>| {
            placed[r.index()] = true;
            for &eid in graph.incident(r) {
                if let Some(o) = graph.edge(eid).other(r) {
                    if in_component[o.index()] && !placed[o.index()] {
                        links[o.index()] += 1;
                        if !in_frontier[o.index()] {
                            in_frontier[o.index()] = true;
                            frontier.push(o);
                        }
                    }
                }
            }
        };
        order.push(first);
        place(
            first,
            &mut placed,
            &mut links,
            &mut frontier,
            &mut in_frontier,
        );

        while !frontier.is_empty() {
            // argmax(edges into placed set), ties by total degree (desc),
            // then id (asc) — all structural, nothing estimated.
            let mut best_idx = 0;
            for (idx, &j) in frontier.iter().enumerate() {
                let b = frontier[best_idx];
                let better = links[j.index()]
                    .cmp(&links[b.index()])
                    .then(graph.degree(j).cmp(&graph.degree(b)))
                    .then(b.cmp(&j)); // lower id wins
                if better == std::cmp::Ordering::Greater {
                    best_idx = idx;
                }
            }
            let next = frontier.swap_remove(best_idx);
            in_frontier[next.index()] = false;
            order.push(next);
            place(
                next,
                &mut placed,
                &mut links,
                &mut frontier,
                &mut in_frontier,
            );
        }
        debug_assert_eq!(order.len(), component.len(), "component not connected");
        JoinOrder::new(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ljqo_catalog::{Query, QueryBuilder};
    use ljqo_plan::validity::is_valid;

    /// Star with hub `h` plus a chain hanging off spoke `s2`.
    fn starred() -> Query {
        QueryBuilder::new()
            .relation("s1", 100)
            .relation("h", 50)
            .relation("s2", 100)
            .relation("t", 30)
            .join("h", "s1", 0.01)
            .join("h", "s2", 0.01)
            .join("s2", "t", 0.1)
            .build()
            .unwrap()
    }

    fn comp(q: &Query) -> Vec<RelId> {
        q.rel_ids().collect()
    }

    #[test]
    fn starts_at_the_hub() {
        let q = starred();
        let first = CardFreeHeuristic::first_relation(q.graph(), &comp(&q));
        assert_eq!(first, RelId(1), "hub h has the highest degree");
    }

    #[test]
    fn orders_are_valid_and_complete() {
        let q = starred();
        let o = CardFreeHeuristic.generate(q.graph(), &comp(&q));
        assert_eq!(o.len(), 4);
        assert!(is_valid(q.graph(), o.rels()), "{o}");
    }

    #[test]
    fn ignores_every_statistic() {
        // Two catalogs with identical join graphs but wildly different
        // statistics must produce the same order.
        let a = starred();
        let b = QueryBuilder::new()
            .relation("s1", 1)
            .relation("h", 1_000_000)
            .relation("s2", 7)
            .relation("t", 99_999)
            .join("h", "s1", 0.5)
            .join("h", "s2", 0.9)
            .join("s2", "t", 0.001)
            .build()
            .unwrap();
        let oa = CardFreeHeuristic.generate(a.graph(), &comp(&a));
        let ob = CardFreeHeuristic.generate(b.graph(), &comp(&b));
        assert_eq!(oa, ob);
    }

    #[test]
    fn prefers_the_most_connected_frontier_relation() {
        // h - a, h - b, a - b: after placing h, both a and b have one
        // link; after placing a (lowest id tie-break), b has two links.
        let q = QueryBuilder::new()
            .relation("h", 10)
            .relation("a", 10)
            .relation("b", 10)
            .relation("c", 10)
            .join("h", "a", 0.1)
            .join("h", "b", 0.1)
            .join("a", "b", 0.1)
            .join("h", "c", 0.1)
            .build()
            .unwrap();
        let o = CardFreeHeuristic.generate(q.graph(), &comp(&q));
        // h first (degree 3); a and b tie on links=1 but beat c on
        // degree; a wins the id tie; then b has 2 links into {h,a}.
        assert_eq!(o.rels(), &[RelId(0), RelId(1), RelId(2), RelId(3)]);
    }

    #[test]
    fn singleton_component() {
        let q = QueryBuilder::new()
            .relation("a", 10)
            .relation("b", 10)
            .join("a", "b", 0.5)
            .build()
            .unwrap();
        let o = CardFreeHeuristic.generate(q.graph(), &[RelId(0)]);
        assert_eq!(o.rels(), &[RelId(0)]);
    }

    #[test]
    #[should_panic(expected = "not in component")]
    fn first_outside_component_panics() {
        let q = starred();
        let _ = CardFreeHeuristic.generate_from(q.graph(), &[RelId(0), RelId(1)], RelId(3));
    }
}
