//! Join trees: the one shape of every plan segment.

use std::fmt;

use ljqo_catalog::{CompiledQuery, JoinGraph, Query, RelId};

use crate::btree::TreePlan;

/// A join tree over base relations, outer linear or bushy.
///
/// Every plan segment is one: the linear search's orders enter as
/// [`BushyTree::left_deep`], the tree search's results as they are. The
/// tree is stored flat, in the arena numbering of [`TreePlan`]:
///
/// * the leaves, left to right, are nodes `0..k`;
/// * the `k − 1` joins are nodes `k..2k−1`, listed in post-order (the
///   outer operand's joins, then the inner's, then the join itself), and
///   join `i` names the (outer, inner) children of node `k + i`.
///
/// That join list is the tree's [`shape`](BushyTree::shape). It holds no
/// relation labels, so a plan cache can store it next to the leaves'
/// canonical order unchanged. The post-order is canonical: two trees are
/// equal exactly when they join the same relations in the same shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BushyTree {
    leaves: Vec<RelId>,
    joins: Vec<(u32, u32)>,
}

/// One node of a [`BushyTree`], by arena id.
enum Node {
    Leaf(RelId),
    Join(u32, u32),
}

impl BushyTree {
    /// A single base relation.
    pub fn leaf(rel: RelId) -> Self {
        BushyTree {
            leaves: vec![rel],
            joins: Vec::new(),
        }
    }

    /// The outer linear (left-deep) tree of a join order: the shape that
    /// embeds a [`crate::JoinOrder`] into the tree space.
    ///
    /// Panics on an empty sequence.
    pub fn left_deep(rels: &[RelId]) -> Self {
        assert!(!rels.is_empty(), "empty join order");
        let k = rels.len() as u32;
        BushyTree {
            leaves: rels.to_vec(),
            joins: (1..k)
                .map(|i| (if i == 1 { 0 } else { k + i - 2 }, i))
                .collect(),
        }
    }

    /// The join of `outer` (the probe side) with `inner` (the build side).
    pub fn join(outer: BushyTree, inner: BushyTree) -> Self {
        let (ko, ki) = (outer.n_leaves() as u32, inner.n_leaves() as u32);
        let k = ko + ki;
        // Renumber both operands into the joined arena: the outer's
        // leaves keep their ids and its joins move up past the inner's
        // leaves; the inner's leaves follow the outer's and its joins
        // follow the outer's joins.
        let outer_id = |id: u32| if id < ko { id } else { id - ko + k };
        let inner_id = |id: u32| {
            if id < ki {
                id + ko
            } else {
                id - ki + k + ko - 1
            }
        };
        let mut joins = Vec::with_capacity(k as usize - 1);
        joins.extend(outer.joins.iter().map(|&(l, r)| (outer_id(l), outer_id(r))));
        joins.extend(inner.joins.iter().map(|&(l, r)| (inner_id(l), inner_id(r))));
        joins.push((outer_id(outer.root()), inner_id(inner.root())));
        let mut leaves = outer.leaves;
        leaves.extend(inner.leaves);
        BushyTree { leaves, joins }
    }

    /// Rebuild a tree from its leaves and [`shape`](BushyTree::shape).
    /// `None` unless `shape` is the canonical post-order join list of one
    /// binary tree over exactly `leaves.len()` leaves (the leaves' labels
    /// are not checked).
    pub fn from_shape(leaves: Vec<RelId>, shape: Vec<(u32, u32)>) -> Option<Self> {
        let k = leaves.len() as u32;
        if k == 0 || shape.len() + 1 != leaves.len() {
            return None;
        }
        // Replay the post-order: leaves enter left to right as the joins
        // reach them, and each join consumes the two subtrees on top of
        // the stack, outer below inner.
        let mut stack = Vec::with_capacity(leaves.len());
        let mut next_leaf = 0u32;
        for (i, &(l, r)) in shape.iter().enumerate() {
            if r < k {
                if r < next_leaf {
                    return None;
                }
                stack.extend(next_leaf..=r);
                next_leaf = r + 1;
            }
            if stack.pop() != Some(r) || stack.pop() != Some(l) {
                return None;
            }
            stack.push(k + i as u32);
        }
        stack.extend(next_leaf..k);
        (stack.len() == 1).then_some(BushyTree {
            leaves,
            joins: shape,
        })
    }

    /// The leaves, left to right. For a left-deep tree this is the join
    /// order it was built from.
    pub fn leaves(&self) -> &[RelId] {
        &self.leaves
    }

    /// The post-order join list over leaf positions (see [`BushyTree`]).
    pub fn shape(&self) -> &[(u32, u32)] {
        &self.joins
    }

    /// Number of base relations in the tree.
    pub fn n_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Whether the tree is outer linear (every inner operand is a leaf).
    pub fn is_linear(&self) -> bool {
        let k = self.n_leaves() as u32;
        self.joins
            .iter()
            .zip(1..)
            .all(|(&(l, r), i)| r == i && l == if i == 1 { 0 } else { k + i - 2 })
    }

    fn root(&self) -> u32 {
        (2 * self.n_leaves() - 2) as u32
    }

    fn node(&self, id: u32) -> Node {
        let k = self.n_leaves();
        match (id as usize).checked_sub(k) {
            None => Node::Leaf(self.leaves[id as usize]),
            Some(j) => Node::Join(self.joins[j].0, self.joins[j].1),
        }
    }

    /// The tree with `label` naming each leaf, e.g. `((a ⋈ b) ⋈ (c ⋈ d))`.
    pub fn render(&self, mut label: impl FnMut(RelId) -> String) -> String {
        let mut out = String::new();
        self.render_into(self.root(), &mut label, &mut out);
        out
    }

    fn render_into(&self, id: u32, label: &mut impl FnMut(RelId) -> String, out: &mut String) {
        match self.node(id) {
            Node::Leaf(r) => out.push_str(&label(r)),
            Node::Join(l, r) => {
                out.push('(');
                self.render_into(l, label, out);
                out.push_str(" ⋈ ");
                self.render_into(r, label, out);
                out.push(')');
            }
        }
    }

    /// Whether every join has a join predicate between its operands (no
    /// cross products). For a left-deep tree this is the validity of its
    /// order ([`crate::validity::is_valid`]).
    pub fn is_cross_product_free(&self, graph: &JoinGraph) -> bool {
        let spans = Spans::new(self, graph.n_relations());
        (0..self.joins.len()).all(|j| spans.joined(graph, j))
    }

    /// Multi-line EXPLAIN rendering with relation names from `query`,
    /// root first and operands indented below it (outer, then inner).
    /// Each join is a `HashJoin` when a predicate connects its operands
    /// and a `CrossProduct` otherwise, and names its inner operand.
    pub fn explain(&self, query: &Query) -> String {
        let spans = Spans::new(self, query.n_relations());
        let mut out = String::new();
        self.explain_into(query, &spans, self.root(), 0, &mut out);
        out
    }

    fn explain_into(&self, query: &Query, spans: &Spans, id: u32, depth: usize, out: &mut String) {
        use fmt::Write as _;
        let pad = "  ".repeat(depth);
        match self.node(id) {
            Node::Leaf(r) => {
                let rel = query.relation(r);
                let _ = writeln!(
                    out,
                    "{pad}Scan {} (card={})",
                    rel.name,
                    rel.cardinality() as u64
                );
            }
            Node::Join(l, r) => {
                let j = id as usize - self.n_leaves();
                let op = if spans.joined(query.graph(), j) {
                    "HashJoin"
                } else {
                    "CrossProduct"
                };
                let mut inner = String::new();
                self.render_into(r, &mut |rel| query.relation(rel).name.clone(), &mut inner);
                let _ = writeln!(out, "{pad}{op} (inner={inner})");
                self.explain_into(query, spans, l, depth + 1, out);
                self.explain_into(query, spans, r, depth + 1, out);
            }
        }
    }

    /// Flatten into an arena [`TreePlan`] (same numbering). Requires
    /// `compiled` to cover at most
    /// [`BlockMask::CAPACITY`](ljqo_catalog::BlockMask::CAPACITY)
    /// relations.
    pub fn to_plan(&self, compiled: &CompiledQuery) -> TreePlan {
        TreePlan::from_tree(compiled, self)
    }

    /// The tree an arena plan currently holds.
    pub fn from_plan(plan: &TreePlan) -> BushyTree {
        fn build(plan: &TreePlan, id: u32) -> BushyTree {
            let n = plan.node(id);
            if n.is_leaf() {
                BushyTree::leaf(n.rel)
            } else {
                BushyTree::join(build(plan, n.left), build(plan, n.right))
            }
        }
        build(plan, plan.root())
    }
}

impl fmt::Display for BushyTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(|r| r.to_string()))
    }
}

/// Each node's leaf positions and each relation's position: a subtree's
/// leaves are a contiguous run `lo..hi` of the tree's leaf order.
struct Spans<'t> {
    tree: &'t BushyTree,
    span: Vec<(u32, u32)>,
    /// Leaf position of each relation (`u32::MAX` when absent).
    pos: Vec<u32>,
}

impl<'t> Spans<'t> {
    fn new(tree: &'t BushyTree, n_relations: usize) -> Self {
        let mut pos = vec![u32::MAX; n_relations];
        let mut span = Vec::with_capacity(2 * tree.n_leaves() - 1);
        for (i, r) in tree.leaves.iter().enumerate() {
            pos[r.index()] = i as u32;
            span.push((i as u32, i as u32 + 1));
        }
        for &(l, r) in &tree.joins {
            span.push((span[l as usize].0, span[r as usize].1));
        }
        Spans { tree, span, pos }
    }

    /// Whether a predicate connects the two operands of join `j`: an
    /// edge from the inner's relations into the outer's leaf run.
    fn joined(&self, graph: &JoinGraph, j: usize) -> bool {
        let (l, r) = self.tree.joins[j];
        let (outer, inner) = (self.span[l as usize], self.span[r as usize]);
        let inner = &self.tree.leaves[inner.0 as usize..inner.1 as usize];
        inner.iter().any(|&rel| {
            graph.incident(rel).iter().any(|&eid| {
                let other = graph.edge(eid).other(rel);
                other.is_some_and(|o| (outer.0..outer.1).contains(&self.pos[o.index()]))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ljqo_catalog::QueryBuilder;

    fn ids(v: &[u32]) -> Vec<RelId> {
        v.iter().map(|&i| RelId(i)).collect()
    }

    fn leaf(i: u32) -> BushyTree {
        BushyTree::leaf(RelId(i))
    }

    #[test]
    fn left_deep_shape() {
        let t = BushyTree::left_deep(&ids(&[0, 1, 2]));
        assert_eq!(t.to_string(), "((R0 ⋈ R1) ⋈ R2)");
        assert_eq!(t.n_leaves(), 3);
        assert_eq!(t.leaves(), ids(&[0, 1, 2]));
        assert_eq!(t.shape(), [(0, 1), (3, 2)]);
        assert!(t.is_linear());
        assert_eq!(
            t,
            BushyTree::join(BushyTree::join(leaf(0), leaf(1)), leaf(2))
        );
    }

    #[test]
    fn single_leaf() {
        let t = BushyTree::left_deep(&ids(&[4]));
        assert_eq!(t, leaf(4));
        assert_eq!(t.n_leaves(), 1);
        assert!(t.is_linear());
        assert_eq!(t.to_string(), "R4");
    }

    #[test]
    fn join_renumbers_both_operands() {
        let t = BushyTree::join(
            BushyTree::join(leaf(0), leaf(1)),
            BushyTree::join(leaf(2), leaf(3)),
        );
        assert_eq!(t.to_string(), "((R0 ⋈ R1) ⋈ (R2 ⋈ R3))");
        assert_eq!(t.shape(), [(0, 1), (2, 3), (4, 5)]);
        assert!(!t.is_linear());
        let right_deep = BushyTree::join(leaf(0), BushyTree::join(leaf(1), leaf(2)));
        assert_eq!(right_deep.shape(), [(1, 2), (0, 3)]);
        assert_eq!(right_deep.to_string(), "(R0 ⋈ (R1 ⋈ R2))");
    }

    #[test]
    fn from_shape_accepts_only_canonical_post_orders() {
        let leaves = ids(&[0, 1, 2, 3]);
        let ok = |shape: &[(u32, u32)]| BushyTree::from_shape(leaves.clone(), shape.to_vec());
        assert!(ok(&[(0, 1), (2, 3), (4, 5)]).is_some());
        assert!(ok(&[(0, 1), (4, 2), (5, 3)]).is_some());
        // Operands out of order, reused, or never joined.
        assert!(ok(&[(1, 0), (2, 3), (4, 5)]).is_none());
        assert!(ok(&[(2, 3), (0, 1), (5, 4)]).is_none());
        assert!(ok(&[(0, 1), (4, 1), (5, 3)]).is_none());
        assert!(ok(&[(0, 1), (2, 3)]).is_none());
        assert!(ok(&[(0, 1), (2, 3), (4, 6)]).is_none());
        assert!(BushyTree::from_shape(Vec::new(), Vec::new()).is_none());
        assert_eq!(BushyTree::from_shape(ids(&[7]), Vec::new()), Some(leaf(7)));
    }

    fn abc() -> Query {
        QueryBuilder::new()
            .relation("a", 10)
            .relation("b", 20)
            .relation("c", 30)
            .join("a", "b", 0.1)
            .build()
            .unwrap()
    }

    #[test]
    fn explain_output_is_pinned_with_cross_product() {
        // The left-deep rendering every linear plan has always had,
        // including the cross-product classification for the unjoined
        // relation.
        let t = BushyTree::left_deep(&ids(&[0, 1, 2]));
        let expected = "CrossProduct (inner=c)\n\
                        \x20 HashJoin (inner=b)\n\
                        \x20   Scan a (card=10)\n\
                        \x20   Scan b (card=20)\n\
                        \x20 Scan c (card=30)\n";
        assert_eq!(t.explain(&abc()), expected);
        assert!(!t.is_cross_product_free(abc().graph()));
    }

    #[test]
    fn explain_names_a_subtree_inner() {
        let t = BushyTree::join(leaf(2), BushyTree::join(leaf(0), leaf(1)));
        let expected = "CrossProduct (inner=(a ⋈ b))\n\
                        \x20 Scan c (card=30)\n\
                        \x20 HashJoin (inner=b)\n\
                        \x20   Scan a (card=10)\n\
                        \x20   Scan b (card=20)\n";
        assert_eq!(t.explain(&abc()), expected);
        assert!(BushyTree::join(leaf(0), leaf(1)).is_cross_product_free(abc().graph()));
    }
}
