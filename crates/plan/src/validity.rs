//! Validity of join orders: no cross products within a component.
//!
//! A join order is *valid* when every relation after the first joins (via
//! at least one join predicate) with some relation placed earlier. The
//! paper restricts all search to the space of valid join trees; the move
//! set and the random state generator both rely on these checks.

use ljqo_catalog::bitset::{self, BLOCK_WORDS};
use ljqo_catalog::{CompiledQuery, JoinGraph, RelId};

/// Whether `order` is a valid join order under `graph`.
///
/// An empty order and a singleton order are trivially valid.
pub fn is_valid(graph: &JoinGraph, order: &[RelId]) -> bool {
    first_invalid_position(graph, order).is_none()
}

/// The first position `i >= 1` whose relation joins with no earlier
/// relation, or `None` if the order is valid.
///
/// Runs in O(Σ deg) using a placement bitmap, with no allocation beyond the
/// bitmap itself.
pub fn first_invalid_position(graph: &JoinGraph, order: &[RelId]) -> Option<usize> {
    let mut placed = vec![false; graph.n_relations()];
    let mut iter = order.iter();
    if let Some(&first) = iter.next() {
        placed[first.index()] = true;
    }
    for (off, &r) in iter.enumerate() {
        let connects = graph
            .incident(r)
            .iter()
            .any(|&eid| graph.edge(eid).other(r).is_some_and(|o| placed[o.index()]));
        if !connects {
            return Some(off + 1);
        }
        placed[r.index()] = true;
    }
    None
}

/// Reusable validity checker that amortizes the placement bitmap across
/// many checks (the optimizers call this in their innermost loop).
#[derive(Debug)]
pub struct ValidityChecker {
    placed: Vec<bool>,
    touched: Vec<usize>,
}

impl ValidityChecker {
    /// Create a checker for graphs with up to `n_relations` relations.
    pub fn new(n_relations: usize) -> Self {
        ValidityChecker {
            placed: vec![false; n_relations],
            touched: Vec::with_capacity(n_relations),
        }
    }

    /// Equivalent to [`is_valid`] but reuses the internal bitmap.
    pub fn is_valid(&mut self, graph: &JoinGraph, order: &[RelId]) -> bool {
        debug_assert!(self.placed.len() >= graph.n_relations());
        let mut ok = true;
        let mut iter = order.iter();
        if let Some(&first) = iter.next() {
            self.placed[first.index()] = true;
            self.touched.push(first.index());
        }
        for &r in iter {
            let connects = graph.incident(r).iter().any(|&eid| {
                graph
                    .edge(eid)
                    .other(r)
                    .is_some_and(|o| self.placed[o.index()])
            });
            if !connects {
                ok = false;
                break;
            }
            self.placed[r.index()] = true;
            self.touched.push(r.index());
        }
        for &t in &self.touched {
            self.placed[t] = false;
        }
        self.touched.clear();
        ok
    }
}

/// Bitset-backed validity checker over a [`CompiledQuery`].
///
/// Equivalent to [`ValidityChecker`] but represents the placed set as a
/// blocked multi-word bitset (stride per [`bitset::mask_stride`]), so each
/// position's connectivity test is a branch-light word-AND against the
/// relation's precompiled neighbor row instead of an `O(deg)` edge chase.
/// Every check dispatches once on the stride tier — one word (N ≤ 64, a
/// single register), one block (N ≤ 256, a stack `[u64; 4]`), or the
/// general chunked kernel — and stays on that tier for the whole scan.
/// The checker allocates its words once and never again.
///
/// On top of the full check it offers [`BitsetChecker::window_valid`], a
/// *windowed* re-check for move filtering: a move permutes relations only
/// within `[first_touched(), last_touched()]`, and a position's validity
/// depends only on the **set** of relations placed before it — so when the
/// pre-move order was valid, revalidating the window alone is exact, making
/// move filtering `O(window · n/64)` instead of `O(Σ deg)`.
///
/// For proposal loops that revalidate many windows of the *same* slowly
/// evolving base order there is a third, faster form:
/// [`BitsetChecker::window_valid_primed`] serves the pre-window placed set
/// from a cached prefix-mask table, removing the `O(lo)` prefix fill that
/// otherwise dominates at large `N`.
#[derive(Debug)]
pub struct BitsetChecker {
    /// Scratch placed-set words, `stride` long.
    placed: Vec<u64>,
    /// Mask stride (1, or a multiple of [`BLOCK_WORDS`]).
    stride: usize,
    /// Prefix-mask table for the primed path: entry `i` (words
    /// `i·stride ..< (i+1)·stride`) is the placed mask of `order[..i]`.
    /// Only the first `prefix_valid` entries are meaningful.
    prefix: Vec<u64>,
    /// Number of valid prefix entries (entry 0, the empty mask, is always
    /// valid).
    prefix_valid: usize,
}

impl BitsetChecker {
    /// Create a checker for graphs with up to `n_relations` relations.
    pub fn new(n_relations: usize) -> Self {
        let stride = bitset::stride_for_relations(n_relations);
        BitsetChecker {
            placed: vec![0u64; stride],
            stride,
            prefix: vec![0u64; (n_relations + 1) * stride],
            prefix_valid: 1,
        }
    }

    /// Equivalent to [`is_valid`]: whether `order` is a valid join order.
    pub fn is_valid(&mut self, compiled: &CompiledQuery, order: &[RelId]) -> bool {
        debug_assert_eq!(self.stride, compiled.mask_stride());
        match self.stride {
            1 => {
                // ≤ 64 relations: the whole placed set lives in one register.
                let mut placed = 0u64;
                let mut iter = order.iter();
                if let Some(&first) = iter.next() {
                    placed |= 1u64 << first.index();
                }
                for &r in iter {
                    if compiled.neighbor_word(r) & placed == 0 {
                        return false;
                    }
                    placed |= 1u64 << r.index();
                }
                true
            }
            BLOCK_WORDS => {
                // ≤ 256 relations: one stack block, no heap traffic.
                let mut placed = [0u64; BLOCK_WORDS];
                let mut iter = order.iter();
                if let Some(&first) = iter.next() {
                    bitset::set_bit(&mut placed, first.index());
                }
                for &r in iter {
                    if !block_connects(compiled, r, &placed) {
                        return false;
                    }
                    bitset::set_bit(&mut placed, r.index());
                }
                true
            }
            _ => {
                self.placed.fill(0);
                let mut iter = order.iter();
                if let Some(&first) = iter.next() {
                    compiled.set_placed(&mut self.placed, first);
                }
                for &r in iter {
                    if !compiled.connects_blocks(r, &self.placed) {
                        return false;
                    }
                    compiled.set_placed(&mut self.placed, r);
                }
                true
            }
        }
    }

    /// Whether `order` — known to be valid *before* a move that only
    /// permuted positions `lo..=hi` — is still valid, by revalidating the
    /// window alone.
    ///
    /// Exact under that precondition: positions before `lo` see an
    /// unchanged prefix, and positions after `hi` see the same *set* of
    /// earlier relations (the move is a permutation of the window), which
    /// is all their connectivity test depends on. Callers perturbing an
    /// order of unknown validity must use [`BitsetChecker::is_valid`].
    pub fn window_valid(
        &mut self,
        compiled: &CompiledQuery,
        order: &[RelId],
        lo: usize,
        hi: usize,
    ) -> bool {
        debug_assert_eq!(self.stride, compiled.mask_stride());
        debug_assert!(hi < order.len());
        let start = lo.max(1);
        match self.stride {
            1 => {
                // ≤ 64 relations: one register, no memory traffic at all.
                let mut placed = 0u64;
                for &r in &order[..start] {
                    placed |= 1u64 << r.index();
                }
                for &r in &order[start..=hi] {
                    if compiled.neighbor_word(r) & placed == 0 {
                        return false;
                    }
                    placed |= 1u64 << r.index();
                }
                true
            }
            BLOCK_WORDS => {
                let mut placed = [0u64; BLOCK_WORDS];
                for &r in &order[..start] {
                    bitset::set_bit(&mut placed, r.index());
                }
                for &r in &order[start..=hi] {
                    if !block_connects(compiled, r, &placed) {
                        return false;
                    }
                    bitset::set_bit(&mut placed, r.index());
                }
                true
            }
            _ => {
                self.placed.fill(0);
                for &r in &order[..start] {
                    compiled.set_placed(&mut self.placed, r);
                }
                for &r in &order[start..=hi] {
                    if !compiled.connects_blocks(r, &self.placed) {
                        return false;
                    }
                    compiled.set_placed(&mut self.placed, r);
                }
                true
            }
        }
    }

    // ------------------------------------------------------------------
    // Primed (prefix-cached) windowed checks
    // ------------------------------------------------------------------

    /// Invalidate the entire prefix cache (the base order changed
    /// arbitrarily — a restart, a different component, a new order).
    pub fn reset_prefix(&mut self) {
        self.prefix_valid = 1;
    }

    /// Invalidate prefix entries past position `pos`: after an accepted
    /// move whose [`first_touched`](crate::Move::first_touched) is `pos`,
    /// entries `0..=pos` (which depend only on positions `< pos`) remain
    /// valid.
    #[inline]
    pub fn truncate_prefix(&mut self, pos: usize) {
        self.prefix_valid = self.prefix_valid.min(pos + 1);
    }

    /// As [`BitsetChecker::window_valid`], but the placed set at `lo`
    /// comes from a cached prefix-mask table instead of an `O(lo)` refill,
    /// making each check `O(window)` — the kernel the large-N proposal
    /// loop runs on.
    ///
    /// Additional precondition on top of `window_valid`'s: between calls,
    /// the positions *before* each call's `lo` must be unchanged since the
    /// cache was last valid — callers must report base-order changes via
    /// [`BitsetChecker::truncate_prefix`] (accepted move) or
    /// [`BitsetChecker::reset_prefix`] (arbitrary change). The move
    /// generator enforces this protocol; debug builds cross-check every
    /// result against the uncached check.
    #[inline]
    pub fn window_valid_primed(
        &mut self,
        compiled: &CompiledQuery,
        order: &[RelId],
        lo: usize,
        hi: usize,
    ) -> bool {
        debug_assert_eq!(self.stride, compiled.mask_stride());
        debug_assert!(hi < order.len());
        debug_assert!((order.len() + 1) * self.stride <= self.prefix.len());
        // Extend the cache up to entry `lo`. Entries ≤ lo depend only on
        // positions < lo, which the currently applied move (touching
        // `lo..=hi`) did not change, so caching them is safe even if the
        // move is later undone.
        while self.prefix_valid <= lo {
            let i = self.prefix_valid;
            let (head, tail) = self.prefix.split_at_mut(i * self.stride);
            let prev = &head[(i - 1) * self.stride..];
            bitset::copy_mask(&mut tail[..self.stride], &prev[..self.stride]);
            bitset::set_bit(&mut tail[..self.stride], order[i - 1].index());
            self.prefix_valid = i + 1;
        }
        let start = lo.max(1);
        let row = &self.prefix[lo * self.stride..(lo + 1) * self.stride];
        match self.stride {
            1 => {
                let mut placed = row[0];
                for &r in &order[lo..start] {
                    placed |= 1u64 << r.index();
                }
                for &r in &order[start..=hi] {
                    if compiled.neighbor_word(r) & placed == 0 {
                        return false;
                    }
                    placed |= 1u64 << r.index();
                }
                true
            }
            BLOCK_WORDS => {
                let mut placed = [row[0], row[1], row[2], row[3]];
                for &r in &order[lo..start] {
                    bitset::set_bit(&mut placed, r.index());
                }
                for &r in &order[start..=hi] {
                    if !block_connects(compiled, r, &placed) {
                        return false;
                    }
                    bitset::set_bit(&mut placed, r.index());
                }
                true
            }
            _ => {
                let (prefix, placed) = (&self.prefix, &mut self.placed);
                placed.copy_from_slice(&prefix[lo * self.stride..(lo + 1) * self.stride]);
                for &r in &order[lo..start] {
                    compiled.set_placed(placed, r);
                }
                for &r in &order[start..=hi] {
                    if !compiled.connects_blocks(r, placed) {
                        return false;
                    }
                    compiled.set_placed(placed, r);
                }
                true
            }
        }
    }
}

/// One-block connectivity test: `rel`'s neighbor row against a stack
/// block, branch-free.
#[inline]
fn block_connects(compiled: &CompiledQuery, rel: RelId, placed: &[u64; BLOCK_WORDS]) -> bool {
    let nb = compiled.neighbor_blocks(rel);
    ((nb[0] & placed[0]) | (nb[1] & placed[1]) | (nb[2] & placed[2]) | (nb[3] & placed[3])) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use ljqo_catalog::JoinEdge;

    fn chain_graph(n: usize) -> JoinGraph {
        JoinGraph::new(
            n,
            (1..n)
                .map(|i| JoinEdge::from_distincts(i - 1, i, 10.0, 10.0))
                .collect(),
        )
    }

    fn ids(v: &[u32]) -> Vec<RelId> {
        v.iter().map(|&i| RelId(i)).collect()
    }

    #[test]
    fn chain_orders() {
        let g = chain_graph(4);
        assert!(is_valid(&g, &ids(&[0, 1, 2, 3])));
        assert!(is_valid(&g, &ids(&[2, 1, 3, 0])));
        assert!(is_valid(&g, &ids(&[1, 2, 0, 3])));
        // 0 and 2 are not joined, so (0 2 ...) is invalid.
        assert!(!is_valid(&g, &ids(&[0, 2, 1, 3])));
        assert_eq!(first_invalid_position(&g, &ids(&[0, 2, 1, 3])), Some(1));
    }

    #[test]
    fn empty_and_singleton_valid() {
        let g = chain_graph(3);
        assert!(is_valid(&g, &[]));
        assert!(is_valid(&g, &ids(&[2])));
    }

    #[test]
    fn star_orders() {
        // 0 is the hub joined to 1..4.
        let g = JoinGraph::new(
            5,
            (1..5)
                .map(|i| JoinEdge::from_distincts(0u32, i as u32, 10.0, 10.0))
                .collect(),
        );
        assert!(is_valid(&g, &ids(&[0, 3, 1, 4, 2])));
        assert!(is_valid(&g, &ids(&[3, 0, 1, 4, 2])));
        // Two spokes first is a cross product.
        assert!(!is_valid(&g, &ids(&[3, 1, 0, 4, 2])));
    }

    #[test]
    fn checker_matches_free_function_and_resets() {
        let g = chain_graph(5);
        let mut c = ValidityChecker::new(5);
        let good = ids(&[2, 3, 1, 0, 4]);
        let bad = ids(&[2, 4, 3, 1, 0]);
        for _ in 0..3 {
            assert!(c.is_valid(&g, &good));
            assert!(!c.is_valid(&g, &bad));
        }
    }

    #[test]
    fn bitset_checker_matches_free_function() {
        let g = chain_graph(5);
        let cards = vec![10.0; 5];
        let cq = CompiledQuery::from_graph(&g, cards);
        let mut c = BitsetChecker::new(5);
        for order in [
            ids(&[0, 1, 2, 3, 4]),
            ids(&[2, 3, 1, 0, 4]),
            ids(&[2, 4, 3, 1, 0]),
            ids(&[0, 2, 1, 3, 4]),
            ids(&[4]),
            ids(&[]),
        ] {
            assert_eq!(c.is_valid(&cq, &order), is_valid(&g, &order), "{order:?}");
        }
    }

    #[test]
    fn window_valid_matches_full_check_after_window_moves() {
        // Star with hub 0 — most permutations of a window are invalid.
        let g = JoinGraph::new(
            6,
            (1..6)
                .map(|i| JoinEdge::from_distincts(0u32, i as u32, 10.0, 10.0))
                .collect(),
        );
        let cq = CompiledQuery::from_graph(&g, vec![10.0; 6]);
        let mut c = BitsetChecker::new(6);
        let valid = ids(&[2, 0, 1, 4, 3, 5]);
        for i in 0..6 {
            for j in 0..6 {
                if i == j {
                    continue;
                }
                let mut perturbed = valid.clone();
                perturbed.swap(i, j);
                let (lo, hi) = (i.min(j), i.max(j));
                assert_eq!(
                    c.window_valid(&cq, &perturbed, lo, hi),
                    is_valid(&g, &perturbed),
                    "swap {i} <-> {j}"
                );
            }
        }
    }

    #[test]
    fn suborder_over_component_checked_in_isolation() {
        // Disconnected graph: component {0,1}, component {2,3}.
        let g = JoinGraph::new(
            4,
            vec![
                JoinEdge::from_distincts(0u32, 1u32, 5.0, 5.0),
                JoinEdge::from_distincts(2u32, 3u32, 5.0, 5.0),
            ],
        );
        assert!(is_valid(&g, &ids(&[1, 0])));
        assert!(is_valid(&g, &ids(&[3, 2])));
        // Mixing components forces a cross product -> invalid as one order.
        assert!(!is_valid(&g, &ids(&[0, 1, 2, 3])));
    }
}
