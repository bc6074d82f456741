//! A validated query: relations plus join graph.

use std::fmt;

use crate::graph::JoinGraph;
use crate::predicate::JoinEdge;
use crate::relation::{RelId, Relation};

/// Errors detected when validating a [`Query`].
///
/// Every invalid catalog must surface as one of these — never as a panic
/// deep in the optimizer. The optimizer's cost arithmetic assumes all
/// statistics are finite and positive; this taxonomy is the gate that
/// makes that assumption safe.
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogError {
    /// The query has no relations.
    Empty,
    /// A selectivity was outside `(0, 1]` (NaN fails this check too).
    BadSelectivity {
        /// Description of where the bad value was found.
        context: String,
        /// The offending value.
        value: f64,
    },
    /// A relation has zero base cardinality.
    ZeroCardinality(RelId),
    /// A statistic that must be a finite number was NaN or infinite.
    NonFinite {
        /// Description of where the bad value was found.
        context: String,
        /// The offending value.
        value: f64,
    },
    /// A join column claims more distinct values than the relation has
    /// tuples.
    DistinctExceedsCardinality {
        /// The relation whose side of the edge is inconsistent.
        rel: RelId,
        /// Claimed distinct count.
        distinct: f64,
        /// The relation's effective cardinality.
        cardinality: f64,
    },
    /// A join edge references a relation id outside the query.
    DanglingEdge {
        /// One endpoint.
        a: RelId,
        /// The other endpoint.
        b: RelId,
        /// Number of relations in the query.
        n_relations: usize,
    },
    /// A join edge connects a relation to itself.
    SelfJoin(RelId),
    /// A builder call referenced a relation name that was never added.
    UnknownRelation(String),
    /// A builder call needed a most-recent relation but none was added yet.
    SelectionBeforeRelation,
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::Empty => write!(f, "query has no relations"),
            CatalogError::BadSelectivity { context, value } => {
                write!(f, "selectivity {value} out of (0,1] in {context}")
            }
            CatalogError::ZeroCardinality(r) => {
                write!(f, "relation {r} has zero cardinality")
            }
            CatalogError::NonFinite { context, value } => {
                write!(f, "non-finite value {value} in {context}")
            }
            CatalogError::DistinctExceedsCardinality {
                rel,
                distinct,
                cardinality,
            } => write!(
                f,
                "join column on {rel} claims {distinct} distinct values but \
                 the relation holds only {cardinality} tuples"
            ),
            CatalogError::DanglingEdge { a, b, n_relations } => write!(
                f,
                "join edge {a}-{b} references a relation outside 0..{n_relations}"
            ),
            CatalogError::SelfJoin(r) => write!(f, "join edge connects {r} to itself"),
            CatalogError::UnknownRelation(name) => {
                write!(f, "unknown relation {name:?} in QueryBuilder")
            }
            CatalogError::SelectionBeforeRelation => {
                write!(
                    f,
                    "add_selection_to_last called before any relation was added"
                )
            }
        }
    }
}

impl std::error::Error for CatalogError {}

/// A select-project-join query: the unit of work for the optimizer.
///
/// `N` in the paper is the number of joins; the number of joining relations
/// is `N + 1`. The join graph may contain more than `N` edges (extra join
/// predicates) and may be disconnected (requiring cross products).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    relations: Vec<Relation>,
    graph: JoinGraph,
}

/// Validate relations and edges without constructing a query. This is the
/// single gate the optimizer relies on: once it passes, every statistic is
/// finite, every selectivity is in `(0, 1]`, every edge endpoint resolves,
/// and no join column claims more distinct values than its relation holds.
fn validate_parts(relations: &[Relation], edges: &[JoinEdge]) -> Result<(), CatalogError> {
    if relations.is_empty() {
        return Err(CatalogError::Empty);
    }
    for (i, r) in relations.iter().enumerate() {
        if r.base_cardinality == 0 {
            return Err(CatalogError::ZeroCardinality(RelId(i as u32)));
        }
        for s in &r.selections {
            if !(s.selectivity > 0.0 && s.selectivity <= 1.0) {
                return Err(CatalogError::BadSelectivity {
                    context: format!("selection on relation {}", r.name),
                    value: s.selectivity,
                });
            }
        }
        // Selections in (0, 1] keep the effective cardinality finite, but
        // check anyway: it is the value every size estimate multiplies.
        let card = r.cardinality();
        if !card.is_finite() || card <= 0.0 {
            return Err(CatalogError::NonFinite {
                context: format!("effective cardinality of relation {}", r.name),
                value: card,
            });
        }
    }
    for e in edges {
        if e.a.index() >= relations.len() || e.b.index() >= relations.len() {
            return Err(CatalogError::DanglingEdge {
                a: e.a,
                b: e.b,
                n_relations: relations.len(),
            });
        }
        if e.a == e.b {
            return Err(CatalogError::SelfJoin(e.a));
        }
        if !(e.selectivity > 0.0 && e.selectivity <= 1.0) {
            return Err(CatalogError::BadSelectivity {
                context: format!("join edge {}-{}", e.a, e.b),
                value: e.selectivity,
            });
        }
        for (rel, distinct) in [(e.a, e.distinct_a), (e.b, e.distinct_b)] {
            if !distinct.is_finite() || distinct < 1.0 {
                return Err(CatalogError::NonFinite {
                    context: format!("distinct count on {rel} of edge {}-{}", e.a, e.b),
                    value: distinct,
                });
            }
            // Distinct counts describe the stored join column, so the
            // bound is the base cardinality: selections shrink the rows
            // scanned, not the column statistics.
            let cardinality = relations[rel.index()].base_cardinality as f64;
            if distinct > cardinality * (1.0 + 1e-9) {
                return Err(CatalogError::DistinctExceedsCardinality {
                    rel,
                    distinct,
                    cardinality,
                });
            }
        }
    }
    Ok(())
}

impl Query {
    /// Build and validate a query.
    pub fn new(relations: Vec<Relation>, edges: Vec<JoinEdge>) -> Result<Self, CatalogError> {
        validate_parts(&relations, &edges)?;
        let graph = JoinGraph::new(relations.len(), edges);
        Ok(Query { relations, graph })
    }

    /// Re-run the full validation pass on an existing query.
    ///
    /// `Query::new` already validates, so this only fails if statistics
    /// were mutated afterwards (e.g. through a deserialized or hand-built
    /// catalog). The optimizer runs it once per solve as a cheap
    /// precondition check.
    pub fn validate(&self) -> Result<(), CatalogError> {
        validate_parts(&self.relations, self.graph.edges())
    }

    /// Number of relations (`N + 1` in the paper's notation).
    #[inline]
    pub fn n_relations(&self) -> usize {
        self.relations.len()
    }

    /// The paper's `N`: the number of joins needed to combine all
    /// relations, i.e. `n_relations - 1`.
    #[inline]
    pub fn n_joins(&self) -> usize {
        self.n_relations().saturating_sub(1)
    }

    /// All relations, indexed by [`RelId`].
    #[inline]
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// The relation with the given id.
    #[inline]
    pub fn relation(&self, id: RelId) -> &Relation {
        &self.relations[id.index()]
    }

    /// Effective cardinality `N_k` of relation `id`.
    #[inline]
    pub fn cardinality(&self, id: RelId) -> f64 {
        self.relations[id.index()].cardinality()
    }

    /// The join graph.
    #[inline]
    pub fn graph(&self) -> &JoinGraph {
        &self.graph
    }

    /// Iterator over all relation ids.
    pub fn rel_ids(&self) -> impl Iterator<Item = RelId> + '_ {
        (0..self.relations.len() as u32).map(RelId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rels(n: usize) -> Vec<Relation> {
        (0..n)
            .map(|i| Relation::new(format!("r{i}"), 100))
            .collect()
    }

    #[test]
    fn valid_query_builds() {
        let q = Query::new(
            rels(3),
            vec![
                JoinEdge::from_distincts(0u32, 1u32, 10.0, 10.0),
                JoinEdge::from_distincts(1u32, 2u32, 10.0, 10.0),
            ],
        )
        .unwrap();
        assert_eq!(q.n_relations(), 3);
        assert_eq!(q.n_joins(), 2);
        assert_eq!(q.cardinality(RelId(0)), 100.0);
        assert_eq!(q.rel_ids().count(), 3);
    }

    #[test]
    fn empty_query_rejected() {
        assert_eq!(Query::new(vec![], vec![]).unwrap_err(), CatalogError::Empty);
    }

    #[test]
    fn zero_cardinality_rejected() {
        let mut rs = rels(2);
        rs[1].base_cardinality = 0;
        let err = Query::new(rs, vec![]).unwrap_err();
        assert_eq!(err, CatalogError::ZeroCardinality(RelId(1)));
    }

    #[test]
    fn bad_join_selectivity_rejected() {
        let err = Query::new(rels(2), vec![JoinEdge::new(0u32, 1u32, 1.0, 1.0, 1.0)]);
        assert!(err.is_ok());
        // Constructing a JoinEdge with bad selectivity panics in debug, so
        // exercise validation through a manually tweaked edge.
        let mut e = JoinEdge::new(0u32, 1u32, 0.5, 1.0, 1.0);
        e.selectivity = 1.5;
        let err = Query::new(rels(2), vec![e]).unwrap_err();
        assert!(matches!(err, CatalogError::BadSelectivity { .. }));
    }

    #[test]
    fn bad_selection_selectivity_rejected() {
        let mut rs = rels(1);
        rs[0].selections.push(crate::Selection { selectivity: 0.0 });
        let err = Query::new(rs, vec![]).unwrap_err();
        assert!(matches!(err, CatalogError::BadSelectivity { .. }));
    }

    #[test]
    fn single_relation_query_has_zero_joins() {
        let q = Query::new(rels(1), vec![]).unwrap();
        assert_eq!(q.n_joins(), 0);
    }

    #[test]
    fn nan_selection_rejected_not_panicking() {
        let mut rs = rels(1);
        rs[0].selections.push(crate::Selection {
            selectivity: f64::NAN,
        });
        let err = Query::new(rs, vec![]).unwrap_err();
        assert!(matches!(err, CatalogError::BadSelectivity { .. }));
    }

    #[test]
    fn nan_distinct_rejected() {
        let e = JoinEdge::new(0u32, 1u32, 0.5, f64::NAN, 4.0);
        let err = Query::new(rels(2), vec![e]).unwrap_err();
        assert!(matches!(err, CatalogError::NonFinite { .. }));
    }

    #[test]
    fn infinite_distinct_rejected() {
        let e = JoinEdge::new(0u32, 1u32, 0.5, f64::INFINITY, 4.0);
        let err = Query::new(rels(2), vec![e]).unwrap_err();
        assert!(matches!(err, CatalogError::NonFinite { .. }));
    }

    #[test]
    fn distinct_beyond_cardinality_rejected() {
        // rels() gives 100-tuple relations; claim 5000 distinct values.
        let e = JoinEdge::new(0u32, 1u32, 0.5, 5000.0, 4.0);
        let err = Query::new(rels(2), vec![e]).unwrap_err();
        assert_eq!(
            err,
            CatalogError::DistinctExceedsCardinality {
                rel: RelId(0),
                distinct: 5000.0,
                cardinality: 100.0,
            }
        );
    }

    #[test]
    fn dangling_edge_rejected_not_panicking() {
        let e = JoinEdge::new(0u32, 9u32, 0.5, 4.0, 4.0);
        let err = Query::new(rels(2), vec![e]).unwrap_err();
        assert_eq!(
            err,
            CatalogError::DanglingEdge {
                a: RelId(0),
                b: RelId(9),
                n_relations: 2,
            }
        );
    }

    #[test]
    fn self_join_rejected_not_panicking() {
        let e = JoinEdge::new(1u32, 1u32, 0.5, 4.0, 4.0);
        let err = Query::new(rels(2), vec![e]).unwrap_err();
        assert_eq!(err, CatalogError::SelfJoin(RelId(1)));
    }

    #[test]
    fn validate_rechecks_existing_query() {
        let q = Query::new(
            rels(2),
            vec![JoinEdge::from_distincts(0u32, 1u32, 10.0, 10.0)],
        )
        .unwrap();
        assert_eq!(q.validate(), Ok(()));
    }
}
