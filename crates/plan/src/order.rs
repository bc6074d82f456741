//! Join orders (permutations) and whole-query plans.

use std::fmt;

use ljqo_catalog::{Query, RelId};

/// A permutation of relations, representing an outer linear join tree.
///
/// `order[0]` is the leftmost (first) relation; each subsequent relation is
/// the inner operand of the next join, with the running intermediate result
/// as the outer operand. For a query whose join graph is connected this
/// covers every relation; for disconnected queries each [`Plan`] segment is
/// one `JoinOrder` over a single component.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinOrder(Vec<RelId>);

impl JoinOrder {
    /// Wrap a relation sequence. Panics in debug builds on duplicates.
    pub fn new(rels: Vec<RelId>) -> Self {
        debug_assert!(
            {
                let mut sorted = rels.clone();
                sorted.sort_unstable();
                sorted.windows(2).all(|w| w[0] != w[1])
            },
            "join order contains duplicate relations"
        );
        JoinOrder(rels)
    }

    /// The identity order `R0, R1, ..` over all relations of a query.
    pub fn identity(query: &Query) -> Self {
        JoinOrder(query.rel_ids().collect())
    }

    /// Number of relations in the order.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the order is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The relations in join order.
    #[inline]
    pub fn rels(&self) -> &[RelId] {
        &self.0
    }

    /// Mutable access to the relation sequence, for in-place move
    /// application and cluster rewriting. Callers must preserve the
    /// permutation property (no duplicates); debug builds verify it in
    /// [`JoinOrder::new`] but not here.
    #[inline]
    pub fn rels_mut(&mut self) -> &mut [RelId] {
        &mut self.0
    }

    /// The relation at position `i`.
    #[inline]
    pub fn at(&self, i: usize) -> RelId {
        self.0[i]
    }

    /// Position of `rel` in the order, if present.
    pub fn position(&self, rel: RelId) -> Option<usize> {
        self.0.iter().position(|&r| r == rel)
    }

    /// Remove the relation at `from` and reinsert it so that it ends up at
    /// position `to` (positions refer to the resulting vector).
    pub fn reinsert(&mut self, from: usize, to: usize) {
        let r = self.0.remove(from);
        self.0.insert(to, r);
    }

    /// Overwrite this order with `other`, reusing the existing allocation
    /// when it is large enough (the allocation-free counterpart of
    /// `*self = other.clone()` for best-so-far tracking in hot loops).
    pub fn copy_from(&mut self, other: &JoinOrder) {
        self.0.clone_from(&other.0);
    }

    /// Overwrite this order with a raw relation slice, reusing the
    /// existing allocation. The slice must be duplicate-free (verified in
    /// debug builds, like [`JoinOrder::new`]).
    pub fn copy_from_rels(&mut self, rels: &[RelId]) {
        debug_assert!(
            {
                let mut sorted = rels.to_vec();
                sorted.sort_unstable();
                sorted.windows(2).all(|w| w[0] != w[1])
            },
            "join order contains duplicate relations"
        );
        self.0.clear();
        self.0.extend_from_slice(rels);
    }
}

impl fmt::Display for JoinOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, r) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<RelId>> for JoinOrder {
    fn from(v: Vec<RelId>) -> Self {
        JoinOrder::new(v)
    }
}

/// The leaf orders of a complete query evaluation plan for (possibly
/// disconnected) queries.
///
/// A plan is one join tree ([`crate::BushyTree`]) per connected component
/// of the join graph; each *segment* here is its tree's leaves from left
/// to right, which for an outer linear tree is its join order. Segments
/// are combined left to right with cross products — the paper's heuristic
/// of postponing cross products as late as possible means each component
/// is fully reduced before any cross product happens. Segment order is
/// chosen by the driver (ascending estimated result size).
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Per-component join orders, in cross-product application order.
    pub segments: Vec<JoinOrder>,
}

impl Plan {
    /// Total number of relations across all segments.
    pub fn n_relations(&self) -> usize {
        self.segments.iter().map(JoinOrder::len).sum()
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.segments.iter().enumerate() {
            if i > 0 {
                write!(f, " × ")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<RelId> {
        v.iter().map(|&i| RelId(i)).collect()
    }

    #[test]
    fn display_permutation_notation() {
        let o = JoinOrder::new(ids(&[2, 0, 1]));
        assert_eq!(o.to_string(), "(R2 R0 R1)");
    }

    #[test]
    fn reinsert_moves_relation() {
        let mut o = JoinOrder::new(ids(&[0, 1, 2, 3]));
        o.reinsert(3, 0);
        assert_eq!(o.rels(), &ids(&[3, 0, 1, 2])[..]);
        o.reinsert(0, 2);
        assert_eq!(o.rels(), &ids(&[0, 1, 3, 2])[..]);
    }

    #[test]
    fn position_lookup() {
        let o = JoinOrder::new(ids(&[5, 3, 1]));
        assert_eq!(o.position(RelId(3)), Some(1));
        assert_eq!(o.position(RelId(9)), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate")]
    fn duplicates_panic_in_debug() {
        let _ = JoinOrder::new(ids(&[1, 2, 1]));
    }

    #[test]
    fn plan_size_and_display() {
        let p = Plan {
            segments: vec![JoinOrder::new(ids(&[1, 0])), JoinOrder::new(ids(&[3, 2]))],
        };
        assert_eq!(p.n_relations(), 4);
        assert_eq!(p.to_string(), "(R1 R0) × (R3 R2)");
    }
}
