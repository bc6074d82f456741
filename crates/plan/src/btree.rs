//! Mutable arena-backed bushy join trees and their local-search moves.
//!
//! The linear search space is a permutation ([`crate::JoinOrder`]); the
//! bushy space is a binary tree whose internal nodes may join two
//! intermediates. [`TreePlan`] stores such a tree as a flat arena of
//! [`TreeNode`]s indexed by `u32` — no `Box` recursion — so moves mutate a
//! few indices, undo is a snapshot restore, and the cost evaluator can
//! memoize per-node results in parallel arrays.
//!
//! # Arena layout
//!
//! For `k` leaves the arena holds exactly `2k − 1` nodes: leaves at
//! indices `0..k`, internal joins at `k..2k−1`. Every move preserves this
//! arity split (moves relink and relabel nodes, never allocate), which is
//! what makes the steady-state propose → eval → commit loop allocation
//! free.
//!
//! # Validity masks
//!
//! Each node carries two one-block bitsets over relations
//! ([`BlockMask`], a `Copy` `[u64; 4]`, so trees cover queries of up to
//! [`BlockMask::CAPACITY`] = 256 relations while masks stay registers):
//!
//! * `set` — the relations below the node;
//! * `nbr` — the union of [`CompiledQuery::neighbor_block_mask`] over
//!   `set`.
//!
//! A join is cross-product free iff `left.nbr` intersects `right.set`,
//! and two subtrees are disjoint iff `a.set` and `b.set` are — both
//! `O(1)` branch-free block kernels.
//!
//! # Moves
//!
//! [`TreeMove`] lists the four tree perturbations (leaf swap, subtree
//! swap, rotate, reinsert). Application is speculative: the touched paths
//! are snapshotted into an undo log first, masks are refreshed upward, and
//! validity is re-checked along the affected paths; an invalid result is
//! rolled back in `O(path)`. The undo log doubles as the *dirty set* the
//! tree evaluator re-costs — by construction it contains every node whose
//! subtree (and therefore cardinality or accumulated cost) changed,
//! because each move snapshots the full path from every touched node to
//! the root.
//!
//! [`CompiledQuery::neighbor_block_mask`]: ljqo_catalog::CompiledQuery::neighbor_block_mask

use rand::Rng;

use ljqo_catalog::{BlockMask, CompiledQuery, RelId};

use crate::tree::BushyTree;

/// Sentinel index for "no node" (absent parent/children).
pub const NO_NODE: u32 = u32::MAX;

/// One arena slot: a leaf (`left == NO_NODE`) or an internal join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeNode {
    /// Left (outer) child, or [`NO_NODE`] for a leaf.
    pub left: u32,
    /// Right (inner) child, or [`NO_NODE`] for a leaf.
    pub right: u32,
    /// Parent node, or [`NO_NODE`] for the root.
    pub parent: u32,
    /// The base relation (meaningful for leaves only).
    pub rel: RelId,
    /// Bitset of relations in this subtree.
    pub set: BlockMask,
    /// Union of the compiled neighbor masks of the relations in `set`.
    pub nbr: BlockMask,
}

impl TreeNode {
    /// Whether this node is a base-relation leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.left == NO_NODE
    }

    /// Number of relations in this subtree.
    #[inline]
    pub fn width(&self) -> u32 {
        self.set.count_ones()
    }
}

/// One bushy-tree perturbation, in applied form (indices refer to the
/// arena of the [`TreePlan`] it was proposed on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeMove {
    /// Exchange the relations of two leaves (tree shape unchanged).
    LeafSwap {
        /// First leaf index.
        a: u32,
        /// Second leaf index.
        b: u32,
    },
    /// Exchange two disjoint subtrees (neither may be the root).
    SubtreeSwap {
        /// First subtree root.
        a: u32,
        /// Second subtree root.
        b: u32,
    },
    /// Rotate at an internal node: left means `(A, (B, C)) → ((A, B), C)`,
    /// right means `((A, B), C) → (A, (B, C))`. Changes the association
    /// only; the node's own relation set is unchanged.
    Rotate {
        /// The internal node rotated at.
        node: u32,
        /// `true` for a left rotation (right child must be internal),
        /// `false` for a right rotation (left child must be internal).
        left: bool,
    },
    /// Splice subtree `s` out (its former sibling replaces its parent)
    /// and re-join it directly with subtree `t` elsewhere in the tree.
    /// The generalization of the linear space's relation reinsertion.
    Reinsert {
        /// The subtree being moved.
        subtree: u32,
        /// The subtree it is re-joined with.
        dest: u32,
        /// Whether `subtree` becomes the left (outer) operand.
        subtree_left: bool,
    },
}

/// Sampling weights over the tree move kinds (normalized on use).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeMoveSet {
    /// Weight of [`TreeMove::LeafSwap`].
    pub leaf_swap: f64,
    /// Weight of [`TreeMove::SubtreeSwap`].
    pub subtree_swap: f64,
    /// Weight of [`TreeMove::Rotate`].
    pub rotate: f64,
    /// Weight of [`TreeMove::Reinsert`].
    pub reinsert: f64,
}

impl Default for TreeMoveSet {
    fn default() -> Self {
        TreeMoveSet {
            leaf_swap: 0.3,
            subtree_swap: 0.25,
            rotate: 0.2,
            reinsert: 0.25,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TreeMoveKind {
    LeafSwap,
    SubtreeSwap,
    Rotate,
    Reinsert,
}

impl TreeMoveSet {
    fn sample_kind<R: Rng + ?Sized>(&self, rng: &mut R) -> TreeMoveKind {
        let total = self.leaf_swap + self.subtree_swap + self.rotate + self.reinsert;
        debug_assert!(total > 0.0, "all tree move weights are zero");
        let mut x = rng.gen::<f64>() * total;
        x -= self.leaf_swap;
        if x < 0.0 {
            return TreeMoveKind::LeafSwap;
        }
        x -= self.subtree_swap;
        if x < 0.0 {
            return TreeMoveKind::SubtreeSwap;
        }
        x -= self.rotate;
        if x < 0.0 {
            return TreeMoveKind::Rotate;
        }
        TreeMoveKind::Reinsert
    }
}

/// A mutable bushy join tree over one join-graph component.
///
/// See the [module docs](self) for the arena layout and the move
/// protocol. The expected usage loop is
/// [`propose`](TreePlan::propose) → evaluate (via the cost crate's tree
/// evaluator) → [`accept`](TreePlan::accept) or
/// [`undo_last`](TreePlan::undo_last).
#[derive(Debug, Clone)]
pub struct TreePlan {
    nodes: Vec<TreeNode>,
    root: u32,
    n_leaves: usize,
    /// Snapshot log of the pending (applied, unresolved) move:
    /// `(index, pre-move node)` pairs, plus the pre-move root. Restoring
    /// in reverse order is duplicate-safe.
    undo: Vec<(u32, TreeNode)>,
    undo_root: u32,
    /// Scratch for [`TreePlan::dirty_nodes`].
    dirty: Vec<u32>,
    max_retries: usize,
}

impl TreePlan {
    /// Build the left-deep tree for a join order: the embedding of the
    /// linear space into the bushy one, so any linear search result can
    /// seed (or fall back from) a tree search.
    ///
    /// Panics on an empty order; trees require `compiled` to cover at
    /// most [`BlockMask::CAPACITY`] relations (one-block bitsets,
    /// debug-asserted).
    pub fn from_order(compiled: &CompiledQuery, rels: &[RelId]) -> TreePlan {
        BushyTree::left_deep(rels).to_plan(compiled)
    }

    /// The arena holding `tree`, in the same numbering: its leaves fill
    /// slots `0..k` and its joins `k..2k−1` (see [`BushyTree`], whose
    /// constructors guarantee a well-formed shape). Reached through
    /// [`BushyTree::to_plan`].
    pub(crate) fn from_tree(compiled: &CompiledQuery, tree: &BushyTree) -> TreePlan {
        debug_assert!(
            compiled.n_relations() <= BlockMask::CAPACITY,
            "tree plans require <= {} relations",
            BlockMask::CAPACITY
        );
        let (leaves, joins) = (tree.leaves(), tree.shape());
        let k = leaves.len();
        let mut nodes = Vec::with_capacity(2 * k - 1);
        for &r in leaves {
            nodes.push(TreeNode {
                left: NO_NODE,
                right: NO_NODE,
                parent: NO_NODE,
                rel: r,
                set: BlockMask::singleton(r.index()),
                nbr: compiled.neighbor_block_mask(r),
            });
        }
        for (i, &(l, r)) in joins.iter().enumerate() {
            let id = (k + i) as u32;
            let set = nodes[l as usize].set.union(&nodes[r as usize].set);
            let nbr = nodes[l as usize].nbr.union(&nodes[r as usize].nbr);
            nodes.push(TreeNode {
                left: l,
                right: r,
                parent: NO_NODE,
                rel: leaves[0], // internal nodes carry no relation
                set,
                nbr,
            });
            nodes[l as usize].parent = id;
            nodes[r as usize].parent = id;
        }
        Self::finish_build(nodes, (2 * k - 2) as u32, k)
    }

    fn finish_build(nodes: Vec<TreeNode>, root: u32, k: usize) -> TreePlan {
        let n_nodes = nodes.len();
        TreePlan {
            nodes,
            root,
            n_leaves: k,
            undo: Vec::with_capacity(4 * n_nodes + 4),
            undo_root: root,
            dirty: Vec::with_capacity(n_nodes),
            max_retries: 64.max(4 * k),
        }
    }

    /// Number of base relations (leaves).
    #[inline]
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// Total arena size (`2·n_leaves − 1`).
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The root node index.
    #[inline]
    pub fn root(&self) -> u32 {
        self.root
    }

    /// The node at `id`.
    #[inline]
    pub fn node(&self, id: u32) -> &TreeNode {
        &self.nodes[id as usize]
    }

    /// Whether a move is currently applied but unresolved.
    #[inline]
    pub fn has_pending(&self) -> bool {
        !self.undo.is_empty()
    }

    /// Overwrite this plan with `other`'s state, reusing buffers
    /// (both must be resolved — no pending move).
    pub fn copy_from(&mut self, other: &TreePlan) {
        debug_assert!(self.undo.is_empty() && other.undo.is_empty());
        self.nodes.clone_from(&other.nodes);
        self.root = other.root;
        self.n_leaves = other.n_leaves;
        self.undo_root = other.undo_root;
        self.max_retries = other.max_retries;
    }

    /// The leaves left to right — the in-order relation sequence. For a
    /// left-deep tree this is exactly the join order it was built from.
    pub fn leaves(&self) -> Vec<RelId> {
        BushyTree::from_plan(self).leaves().to_vec()
    }

    /// Whether every internal join has at least one join edge crossing
    /// its operands (no cross products). `O(n)` using the masks.
    pub fn is_cross_product_free(&self) -> bool {
        self.nodes.iter().all(|n| {
            n.is_leaf()
                || self.nodes[n.left as usize]
                    .nbr
                    .intersects(&self.nodes[n.right as usize].set)
        })
    }

    /// Full structural audit for tests and debug assertions: parent/child
    /// links are mutually consistent, the arity split (leaves `0..k`) is
    /// intact, every node is reachable from the root exactly once, and
    /// the `set`/`nbr` masks equal a from-scratch bottom-up recompute.
    pub fn audit(&self, compiled: &CompiledQuery) -> Result<(), String> {
        let k = self.n_leaves;
        if self.nodes.len() != 2 * k - 1 {
            return Err(format!(
                "arena has {} nodes, want {}",
                self.nodes.len(),
                2 * k - 1
            ));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            let is_leaf_slot = i < k;
            if n.is_leaf() != is_leaf_slot {
                return Err(format!("node {i}: arity does not match its arena slot"));
            }
            if n.is_leaf() != (n.right == NO_NODE) {
                return Err(format!("node {i}: half-leaf (one child set)"));
            }
            if !n.is_leaf() {
                for c in [n.left, n.right] {
                    if self.nodes[c as usize].parent != i as u32 {
                        return Err(format!("node {i}: child {c} does not point back"));
                    }
                }
            }
            if n.parent == NO_NODE && i as u32 != self.root {
                return Err(format!("node {i}: orphan that is not the root"));
            }
        }
        if self.nodes[self.root as usize].parent != NO_NODE {
            return Err("root has a parent".into());
        }
        // Reachability + mask recompute, children before parents.
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.root];
        let mut post = Vec::with_capacity(self.nodes.len());
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id as usize], true) {
                return Err(format!("node {id} reachable twice (cycle or diamond)"));
            }
            post.push(id);
            let n = &self.nodes[id as usize];
            if !n.is_leaf() {
                stack.push(n.left);
                stack.push(n.right);
            }
        }
        if !seen.iter().all(|&s| s) {
            return Err("unreachable arena nodes".into());
        }
        for &id in post.iter().rev() {
            let n = &self.nodes[id as usize];
            let (set, nbr) = if n.is_leaf() {
                (
                    BlockMask::singleton(n.rel.index()),
                    compiled.neighbor_block_mask(n.rel),
                )
            } else {
                let l = &self.nodes[n.left as usize];
                let r = &self.nodes[n.right as usize];
                (l.set.union(&r.set), l.nbr.union(&r.nbr))
            };
            if n.set != set || n.nbr != nbr {
                return Err(format!("node {id}: stale masks"));
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Move application internals
    // ------------------------------------------------------------------

    /// Snapshot `id` and every ancestor into the undo log. Every move
    /// calls this for each node it touches *before* mutating, which both
    /// enables rollback and over-approximates the evaluator's dirty set
    /// (cost totals accumulate upward, so ancestors always need
    /// re-costing even when their masks are unchanged).
    fn snapshot_path(&mut self, mut id: u32) {
        while id != NO_NODE {
            self.undo.push((id, self.nodes[id as usize]));
            id = self.nodes[id as usize].parent;
        }
    }

    /// Recompute `set`/`nbr` from `id` up to the root. Where two changed
    /// paths share ancestors, refresh the paths one after the other: the
    /// second pass sees the first path's final values.
    fn refresh_up(&mut self, mut id: u32) {
        while id != NO_NODE {
            let n = self.nodes[id as usize];
            if !n.is_leaf() {
                let l = &self.nodes[n.left as usize];
                let (ls, ln) = (l.set, l.nbr);
                let r = &self.nodes[n.right as usize];
                let (rs, rn) = (r.set, r.nbr);
                let m = &mut self.nodes[id as usize];
                m.set = ls.union(&rs);
                m.nbr = ln.union(&rn);
            }
            id = n.parent;
        }
    }

    /// Whether every join from `id` up to the root is cross-product free.
    /// Must run after all mask refreshes of the move.
    fn path_valid(&self, mut id: u32) -> bool {
        while id != NO_NODE {
            let n = &self.nodes[id as usize];
            if !n.is_leaf()
                && !self.nodes[n.left as usize]
                    .nbr
                    .intersects(&self.nodes[n.right as usize].set)
            {
                return false;
            }
            id = n.parent;
        }
        true
    }

    fn replace_child(&mut self, parent: u32, old: u32, new: u32) {
        let p = &mut self.nodes[parent as usize];
        if p.left == old {
            p.left = new;
        } else {
            debug_assert_eq!(p.right, old);
            p.right = new;
        }
    }

    fn apply_leaf_swap(&mut self, a: u32, b: u32) -> bool {
        self.undo_root = self.root;
        self.snapshot_path(a);
        self.snapshot_path(b);
        {
            // Split the borrow to swap the relation payloads in place.
            let (lo, hi) = (a.min(b) as usize, a.max(b) as usize);
            let (head, tail) = self.nodes.split_at_mut(hi);
            let (x, y) = (&mut head[lo], &mut tail[0]);
            std::mem::swap(&mut x.rel, &mut y.rel);
            std::mem::swap(&mut x.set, &mut y.set);
            std::mem::swap(&mut x.nbr, &mut y.nbr);
        }
        let pa = self.nodes[a as usize].parent;
        let pb = self.nodes[b as usize].parent;
        self.refresh_up(pa);
        self.refresh_up(pb);
        self.path_valid(pa) && self.path_valid(pb)
    }

    fn apply_subtree_swap(&mut self, a: u32, b: u32) -> bool {
        self.undo_root = self.root;
        self.snapshot_path(a);
        self.snapshot_path(b);
        let pa = self.nodes[a as usize].parent;
        let pb = self.nodes[b as usize].parent;
        if pa == pb {
            // Siblings: exchanging outer and inner. Masks are unchanged
            // everywhere; only the parent's operand roles (and thus its
            // cost) change.
            let p = &mut self.nodes[pa as usize];
            std::mem::swap(&mut p.left, &mut p.right);
            return true;
        }
        self.replace_child(pa, a, b);
        self.replace_child(pb, b, a);
        self.nodes[a as usize].parent = pb;
        self.nodes[b as usize].parent = pa;
        self.refresh_up(pa);
        self.refresh_up(pb);
        self.path_valid(pa) && self.path_valid(pb)
    }

    fn apply_rotate(&mut self, node: u32, left: bool) -> bool {
        self.undo_root = self.root;
        // The whole path to the root is cost-dirty (totals accumulate),
        // even though masks above `node` are unchanged.
        self.snapshot_path(node);
        let n = self.nodes[node as usize];
        if left {
            // (A, m=(B, C)) → (m'=(A, B), C), reusing m's arena slot.
            let m = n.right;
            let (a, mn) = (n.left, self.nodes[m as usize]);
            let (b, c) = (mn.left, mn.right);
            self.undo.push((m, mn));
            self.undo.push((a, self.nodes[a as usize]));
            self.undo.push((c, self.nodes[c as usize]));
            {
                let nn = &mut self.nodes[node as usize];
                nn.left = m;
                nn.right = c;
            }
            {
                let mm = &mut self.nodes[m as usize];
                mm.left = a;
                mm.right = b;
            }
            self.nodes[a as usize].parent = m;
            self.nodes[c as usize].parent = node;
            // b keeps parent m; m keeps parent node.
            self.refresh_up(m);
            self.path_valid(m)
        } else {
            // (m=(A, B), C) → (A, m'=(B, C)).
            let m = n.left;
            let (c, mn) = (n.right, self.nodes[m as usize]);
            let (a, b) = (mn.left, mn.right);
            self.undo.push((m, mn));
            self.undo.push((a, self.nodes[a as usize]));
            self.undo.push((c, self.nodes[c as usize]));
            {
                let nn = &mut self.nodes[node as usize];
                nn.left = a;
                nn.right = m;
            }
            {
                let mm = &mut self.nodes[m as usize];
                mm.left = b;
                mm.right = c;
            }
            self.nodes[a as usize].parent = node;
            self.nodes[c as usize].parent = m;
            self.refresh_up(m);
            self.path_valid(m)
        }
    }

    fn apply_reinsert(&mut self, s: u32, t: u32, s_on_left: bool) -> bool {
        self.undo_root = self.root;
        // Pre-move paths from both touched subtrees cover every node that
        // loses or gains `s` (the insertion point's pre-move ancestors are
        // exactly its post-move ones, minus the spliced-out parent).
        self.snapshot_path(s);
        self.snapshot_path(t);
        let p = self.nodes[s as usize].parent;
        let pn = self.nodes[p as usize];
        let sib = if pn.left == s { pn.right } else { pn.left };
        self.undo.push((sib, self.nodes[sib as usize]));
        let g = pn.parent;
        // Splice p (and with it, s) out: sib takes p's place.
        self.nodes[sib as usize].parent = g;
        if g == NO_NODE {
            self.root = sib;
        } else {
            self.replace_child(g, p, sib);
        }
        // Re-insert p above t. Read t's parent *after* the splice: when
        // t == sib its parent just changed.
        let tp = self.nodes[t as usize].parent;
        if tp == NO_NODE {
            self.nodes[p as usize].parent = NO_NODE;
            self.root = p;
        } else {
            self.replace_child(tp, t, p);
            self.nodes[p as usize].parent = tp;
        }
        {
            let pm = &mut self.nodes[p as usize];
            if s_on_left {
                pm.left = s;
                pm.right = t;
            } else {
                pm.left = t;
                pm.right = s;
            }
        }
        self.nodes[t as usize].parent = p;
        debug_assert_eq!(self.nodes[s as usize].parent, p);
        // Two-pass refresh: the splice side first, then the insertion
        // side (which re-fixes any shared ancestors).
        if g != NO_NODE {
            self.refresh_up(g);
        }
        self.refresh_up(p);
        (g == NO_NODE || self.path_valid(g)) && self.path_valid(p)
    }

    /// Roll back the pending move, restoring every snapshotted node and
    /// the root pointer. No-op when nothing is pending.
    pub fn undo_last(&mut self) {
        while let Some((id, node)) = self.undo.pop() {
            self.nodes[id as usize] = node;
        }
        self.root = self.undo_root;
    }

    /// Resolve the pending move as accepted (clears the undo log).
    pub fn accept(&mut self) {
        self.undo.clear();
    }

    /// The nodes whose memoized cardinality or accumulated cost may have
    /// changed under the pending move, deduplicated and ordered children
    /// before parents (by subtree width — a strict topological order,
    /// since a child's relation set is a strict subset of its parent's).
    ///
    /// Only meaningful between a successful [`TreePlan::propose`] and the
    /// resolving [`accept`](TreePlan::accept) /
    /// [`undo_last`](TreePlan::undo_last).
    pub fn dirty_nodes(&mut self) -> &[u32] {
        self.dirty.clear();
        for &(id, _) in &self.undo {
            self.dirty.push(id);
        }
        let nodes = &self.nodes;
        self.dirty
            .sort_unstable_by_key(|&id| (nodes[id as usize].width(), id));
        self.dirty.dedup();
        &self.dirty
    }

    /// Sample, apply and validate one random move. Invalid proposals
    /// (cross products, structural preconditions) are undone internally
    /// and retried up to `max(64, 4·n_leaves)` times. On success the move
    /// is left **applied but pending** — the caller evaluates it and then
    /// calls [`accept`](TreePlan::accept) or
    /// [`undo_last`](TreePlan::undo_last).
    ///
    /// Returns the move and the number of sampling attempts (≥ 1), so
    /// budgets can charge for the rejected proposals exactly like the
    /// linear [`MoveGenerator::propose_counted`] path does. `None` when
    /// the component has no perturbable neighborhood (fewer than two
    /// leaves) or every retry failed.
    ///
    /// [`MoveGenerator::propose_counted`]: crate::MoveGenerator::propose_counted
    pub fn propose<R: Rng + ?Sized>(
        &mut self,
        moves: &TreeMoveSet,
        rng: &mut R,
    ) -> Option<(TreeMove, u32)> {
        debug_assert!(self.undo.is_empty(), "unresolved pending move");
        if self.n_leaves < 2 {
            return None;
        }
        let k = self.n_leaves as u32;
        let n_nodes = self.nodes.len() as u32;
        for attempt in 1..=self.max_retries as u32 {
            let applied = match moves.sample_kind(rng) {
                TreeMoveKind::LeafSwap => {
                    let a = rng.gen_range(0..k);
                    let mut b = rng.gen_range(0..k - 1);
                    if b >= a {
                        b += 1;
                    }
                    Some((TreeMove::LeafSwap { a, b }, self.apply_leaf_swap(a, b)))
                }
                TreeMoveKind::SubtreeSwap => {
                    let a = rng.gen_range(0..n_nodes);
                    let b = rng.gen_range(0..n_nodes);
                    if a == b
                        || a == self.root
                        || b == self.root
                        || self.nodes[a as usize]
                            .set
                            .intersects(&self.nodes[b as usize].set)
                    {
                        None
                    } else {
                        Some((
                            TreeMove::SubtreeSwap { a, b },
                            self.apply_subtree_swap(a, b),
                        ))
                    }
                }
                TreeMoveKind::Rotate => {
                    if k < 3 {
                        None
                    } else {
                        let node = k + rng.gen_range(0..k - 1);
                        let left = rng.gen::<bool>();
                        let n = &self.nodes[node as usize];
                        let pivot = if left { n.right } else { n.left };
                        if self.nodes[pivot as usize].is_leaf() {
                            None
                        } else {
                            Some((
                                TreeMove::Rotate { node, left },
                                self.apply_rotate(node, left),
                            ))
                        }
                    }
                }
                TreeMoveKind::Reinsert => {
                    let s = rng.gen_range(0..n_nodes);
                    let t = rng.gen_range(0..n_nodes);
                    let s_on_left = rng.gen::<bool>();
                    if s == self.root
                        || t == s
                        || self.nodes[s as usize]
                            .set
                            .intersects(&self.nodes[t as usize].set)
                    {
                        None
                    } else {
                        Some((
                            TreeMove::Reinsert {
                                subtree: s,
                                dest: t,
                                subtree_left: s_on_left,
                            },
                            self.apply_reinsert(s, t, s_on_left),
                        ))
                    }
                }
            };
            match applied {
                Some((mv, true)) => return Some((mv, attempt)),
                Some((_, false)) => self.undo_last(),
                None => {} // precondition failed before any mutation
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ljqo_catalog::{Query, QueryBuilder};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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

    fn ids(v: &[u32]) -> Vec<RelId> {
        v.iter().map(|&i| RelId(i)).collect()
    }

    #[test]
    fn from_order_builds_a_left_deep_tree() {
        let q = chain_query();
        let compiled = CompiledQuery::new(&q);
        let t = TreePlan::from_order(&compiled, &ids(&[0, 1, 2, 3, 4]));
        assert_eq!(t.n_leaves(), 5);
        assert_eq!(t.n_nodes(), 9);
        assert_eq!(t.leaves(), ids(&[0, 1, 2, 3, 4]));
        assert!(t.is_cross_product_free());
        t.audit(&compiled).unwrap();
    }

    #[test]
    fn a_bushy_tree_enters_the_arena() {
        let q = QueryBuilder::new()
            .relation("a", 10)
            .relation("b", 20)
            .relation("c", 30)
            .relation("d", 40)
            .join("a", "b", 0.1)
            .join("b", "c", 0.1)
            .join("c", "d", 0.1)
            .build()
            .unwrap();
        let compiled = CompiledQuery::new(&q);
        // ((a ⋈ b) ⋈ (c ⋈ d))
        let tree = BushyTree::from_shape(ids(&[0, 1, 2, 3]), vec![(0, 1), (2, 3), (4, 5)]).unwrap();
        let t = tree.to_plan(&compiled);
        assert_eq!(BushyTree::from_plan(&t), tree);
        assert_eq!(t.leaves(), ids(&[0, 1, 2, 3]));
        assert!(t.is_cross_product_free());
        t.audit(&compiled).unwrap();
        assert!(!t.node(t.root()).is_leaf());
    }

    #[test]
    fn singleton_tree_has_no_moves() {
        let q = chain_query();
        let compiled = CompiledQuery::new(&q);
        let mut t = TreePlan::from_order(&compiled, &ids(&[2]));
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(t.propose(&TreeMoveSet::default(), &mut rng).is_none());
        assert_eq!(t.leaves(), ids(&[2]));
    }

    #[test]
    fn moves_preserve_invariants_and_undo_restores() {
        let q = chain_query();
        let compiled = CompiledQuery::new(&q);
        let mut t = TreePlan::from_order(&compiled, &ids(&[0, 1, 2, 3, 4]));
        let mut rng = SmallRng::seed_from_u64(0xbee);
        let moves = TreeMoveSet::default();
        let mut leaves_sorted = t.leaves();
        leaves_sorted.sort_unstable();
        for i in 0..500 {
            let before = t.clone();
            let Some((mv, attempts)) = t.propose(&moves, &mut rng) else {
                panic!("no move proposable at iteration {i}");
            };
            assert!(attempts >= 1);
            // The applied state is structurally sound and CP-free.
            let dirty: Vec<u32> = t.dirty_nodes().to_vec();
            assert!(!dirty.is_empty(), "{mv:?} dirtied nothing");
            assert!(dirty.contains(&t.root()), "{mv:?} did not dirty the root");
            t.accept();
            t.audit(&compiled).unwrap_or_else(|e| panic!("{mv:?}: {e}"));
            assert!(t.is_cross_product_free(), "{mv:?} broke validity");
            let mut ls = t.leaves();
            ls.sort_unstable();
            assert_eq!(ls, leaves_sorted, "{mv:?} lost a leaf");
            // Undo on a fresh copy restores the original exactly.
            let mut u = before.clone();
            let mv2 = u.propose(&moves, &mut SmallRng::seed_from_u64(0xf00d + i));
            if mv2.is_some() {
                u.undo_last();
                assert_eq!(u.leaves(), before.leaves());
                u.audit(&compiled).unwrap();
            }
        }
    }

    #[test]
    fn sibling_subtree_swap_flips_operands() {
        let q = chain_query();
        let compiled = CompiledQuery::new(&q);
        let mut t = TreePlan::from_order(&compiled, &ids(&[0, 1, 2]));
        // Root (id 6? no: k=3 → nodes 0..5, root=4) joins node 3 and leaf 2.
        let root = t.root();
        let (l, r) = (t.node(root).left, t.node(root).right);
        assert!(t.apply_subtree_swap(l, r));
        assert_eq!(t.node(root).left, r);
        assert_eq!(t.node(root).right, l);
        t.accept();
        t.audit(&compiled).unwrap();
    }

    #[test]
    fn rotate_changes_association_only() {
        let q = chain_query();
        let compiled = CompiledQuery::new(&q);
        // Left-deep ((a b) c): rotate right at the root gives (a (b c)).
        let mut t = TreePlan::from_order(&compiled, &ids(&[0, 1, 2]));
        let root = t.root();
        let set_before = t.node(root).set;
        assert!(t.apply_rotate(root, false));
        t.accept();
        assert_eq!(t.node(root).set, set_before);
        t.audit(&compiled).unwrap();
        assert!(t.is_cross_product_free());
    }

    #[test]
    fn cross_product_moves_are_rejected() {
        // Chain a-b-c: putting a next to c is a cross product; propose
        // must never return such a state.
        let q = QueryBuilder::new()
            .relation("a", 10)
            .relation("b", 20)
            .relation("c", 30)
            .join("a", "b", 0.1)
            .join("b", "c", 0.1)
            .build()
            .unwrap();
        let compiled = CompiledQuery::new(&q);
        let mut t = TreePlan::from_order(&compiled, &ids(&[0, 1, 2]));
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..200 {
            if t.propose(&TreeMoveSet::default(), &mut rng).is_some() {
                assert!(t.is_cross_product_free());
                t.accept();
            }
        }
    }
}
