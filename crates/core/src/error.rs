//! Typed optimizer errors and the degradation ladder.
//!
//! The driver treats every stage of optimization as fallible: the catalog
//! may carry nonsense statistics, a cost model may panic or emit `NaN`,
//! and a wall-clock deadline may expire before the configured method has
//! evaluated a single state. Instead of panicking,
//! [`Optimizer::solve`](crate::Optimizer::solve) walks a fallback ladder
//! and reports how far down it had to go; only when *every* rung fails
//! does it return an [`OptError`].

use ljqo_catalog::CatalogError;

/// Why optimization failed outright (no plan could be produced at all).
#[derive(Debug, Clone, PartialEq)]
pub enum OptError {
    /// The query's catalog statistics failed validation. Optimizing over
    /// invalid statistics would at best be garbage-in/garbage-out and at
    /// worst feed `NaN` into every comparison, so the driver revalidates
    /// up front and refuses.
    Catalog(CatalogError),
    /// One join-graph component defeated the configured method *and*
    /// every fallback (augmentation heuristic, cardinality-free
    /// structural order, random valid order). Reaching this means even
    /// panic-isolated plain graph traversal failed, which indicates a
    /// corrupted process rather than a bad query.
    NoValidPlan {
        /// Index of the failing component in `query.graph().components()`.
        component: usize,
    },
    /// An exact algorithm was asked to solve a component larger than its
    /// complexity admits (beyond [`dp_limit`](crate::dp::dp_limit) one
    /// call of the DP would outlast any budget). Callers degrade to local
    /// search instead of crashing.
    ComponentTooLarge {
        /// Relations in the offending component.
        n_relations: usize,
        /// The algorithm's hard limit.
        limit: usize,
    },
    /// A relation set handed to an exact algorithm as one "component" is
    /// not actually connected in the join graph, so no cross-product-free
    /// plan covers it. Component splitting happens upstream
    /// (`query.graph().components()`); seeing this means the caller
    /// skipped it.
    DisconnectedComponent {
        /// Relations in the offending set.
        n_relations: usize,
    },
    /// The [`Optimizer`](crate::Optimizer) combines the bushy search
    /// space with a feature that is wired to left-deep orders: parallel
    /// search or the plan cache. Refused up front rather than silently
    /// solved in the linear space.
    Unsupported {
        /// The feature the bushy search space cannot use.
        feature: &'static str,
    },
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptError::Catalog(e) => write!(f, "invalid catalog: {e}"),
            OptError::NoValidPlan { component } => write!(
                f,
                "no valid join order could be produced for join-graph component {component} \
                 (method and all fallbacks failed)"
            ),
            OptError::ComponentTooLarge { n_relations, limit } => write!(
                f,
                "component has {n_relations} relations but the exact algorithm is limited \
                 to {limit} (use local search beyond that)"
            ),
            OptError::DisconnectedComponent { n_relations } => write!(
                f,
                "relation set of size {n_relations} is not a connected join-graph component: \
                 no cross-product-free plan covers it"
            ),
            OptError::Unsupported { feature } => {
                write!(f, "{feature} requires the linear search space")
            }
        }
    }
}

impl std::error::Error for OptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OptError::Catalog(e) => Some(e),
            OptError::NoValidPlan { .. }
            | OptError::ComponentTooLarge { .. }
            | OptError::DisconnectedComponent { .. }
            | OptError::Unsupported { .. } => None,
        }
    }
}

impl From<CatalogError> for OptError {
    fn from(e: CatalogError) -> Self {
        OptError::Catalog(e)
    }
}

/// How far down the fallback ladder the driver had to go for the worst
/// component. Ordered: a later variant is a deeper degradation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Degradation {
    /// The configured method produced the plan normally.
    #[default]
    None,
    /// The method panicked, ran out of wall-clock before evaluating any
    /// state, or produced no state; the augmentation heuristic supplied
    /// the plan for at least one component.
    Heuristic,
    /// The augmentation heuristic failed too (it reads the same catalog
    /// statistics that defeated the method); the cardinality-free
    /// structural order supplied the plan for at least one component.
    /// Generation consults no statistics, so this rung survives missing
    /// or non-finite stats; only the *costing* of the order is
    /// best-effort (`f64::MAX` when the model cannot price it).
    CardFree,
    /// Even structural ordering failed; a random valid join order was
    /// used for at least one component. The plan is valid but its
    /// quality is whatever chance provides.
    RandomOrder,
}

impl Degradation {
    /// Short lowercase label for logs and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Degradation::None => "none",
            Degradation::Heuristic => "heuristic",
            Degradation::CardFree => "card-free",
            Degradation::RandomOrder => "random-order",
        }
    }

    /// Whether any degradation occurred.
    pub fn is_degraded(self) -> bool {
        self != Degradation::None
    }
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_levels_are_ordered() {
        assert!(Degradation::None < Degradation::Heuristic);
        assert!(Degradation::Heuristic < Degradation::CardFree);
        assert!(Degradation::CardFree < Degradation::RandomOrder);
        assert!(!Degradation::None.is_degraded());
        assert!(Degradation::Heuristic.is_degraded());
        assert!(Degradation::CardFree.is_degraded());
    }

    #[test]
    fn errors_render_their_cause() {
        let e = OptError::from(ljqo_catalog::CatalogError::Empty);
        assert!(e.to_string().contains("invalid catalog"));
        let e = OptError::NoValidPlan { component: 3 };
        assert!(e.to_string().contains("component 3"));
    }
}
