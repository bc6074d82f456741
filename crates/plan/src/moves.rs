//! The move set: perturbations between adjacent states.
//!
//! Swami & Gupta (SIGMOD 1988) search the valid join-tree space with random
//! perturbations of the permutation. We implement a configurable move set:
//! adjacent swaps, arbitrary swaps, 3-cycles, and single-relation
//! reinsertions, each chosen with a configurable probability, and each
//! filtered so that only *valid* neighbors (no cross products) are
//! produced. The default is SG88-style swaps only. Two states are adjacent
//! when one move transforms one into the other.

use std::sync::Arc;

use rand::Rng;

use ljqo_catalog::{CompiledQuery, JoinGraph, RelId};

use crate::order::JoinOrder;
use crate::validity::BitsetChecker;
#[cfg(debug_assertions)]
use crate::validity::ValidityChecker;

/// The kinds of perturbation in the move set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MoveKind {
    /// Swap two neighboring positions.
    AdjacentSwap,
    /// Swap two arbitrary positions.
    Swap,
    /// Rotate the relations at three positions.
    ThreeCycle,
    /// Remove one relation and reinsert it elsewhere.
    Reinsert,
}

/// A concrete, reversible perturbation of a [`JoinOrder`].
///
/// # Example
///
/// ```
/// use ljqo_catalog::RelId;
/// use ljqo_plan::{JoinOrder, Move};
///
/// let mut order = JoinOrder::new(vec![RelId(0), RelId(1), RelId(2), RelId(3)]);
/// let mv = Move::Reinsert { from: 3, to: 1 };
/// mv.apply(&mut order);
/// assert_eq!(order.rels(), &[RelId(0), RelId(3), RelId(1), RelId(2)]);
///
/// // Moves are reversible.
/// mv.undo(&mut order);
/// assert_eq!(order.rels(), &[RelId(0), RelId(1), RelId(2), RelId(3)]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Exchange positions `i` and `j`.
    Swap {
        /// First position.
        i: usize,
        /// Second position.
        j: usize,
    },
    /// Rotate: the relation at `i` moves to `j`, `j`'s to `k`, `k`'s to `i`.
    ThreeCycle {
        /// First position.
        i: usize,
        /// Second position.
        j: usize,
        /// Third position.
        k: usize,
    },
    /// Remove the relation at `from` and reinsert it at `to`.
    Reinsert {
        /// Source position.
        from: usize,
        /// Destination position (in the resulting order).
        to: usize,
    },
}

impl Move {
    /// Apply the move in place.
    #[inline(always)]
    pub fn apply(&self, order: &mut JoinOrder) {
        match *self {
            Move::Swap { i, j } => order.rels_mut().swap(i, j),
            Move::ThreeCycle { i, j, k } => {
                // i -> j -> k -> i
                let rels = order.rels_mut();
                let tmp = rels[k];
                rels[k] = rels[j];
                rels[j] = rels[i];
                rels[i] = tmp;
            }
            Move::Reinsert { from, to } => order.reinsert(from, to),
        }
    }

    /// Undo the move (apply the inverse).
    #[inline]
    pub fn undo(&self, order: &mut JoinOrder) {
        self.inverse().apply(order);
    }

    /// The inverse move.
    #[inline]
    pub fn inverse(&self) -> Move {
        match *self {
            Move::Swap { i, j } => Move::Swap { i, j },
            Move::ThreeCycle { i, j, k } => Move::ThreeCycle { i: k, j, k: i },
            Move::Reinsert { from, to } => Move::Reinsert { from: to, to: from },
        }
    }

    /// The first (lowest) position whose relation can change.
    ///
    /// Positions before `first_touched()` hold exactly the same relations
    /// before and after the move, which is what makes incremental
    /// (prefix-memoized) cost evaluation possible: the cost of the prefix
    /// `[0, first_touched())` is unaffected by the move.
    #[inline]
    pub fn first_touched(&self) -> usize {
        match *self {
            Move::Swap { i, j } => i.min(j),
            Move::ThreeCycle { i, j, k } => i.min(j).min(k),
            Move::Reinsert { from, to } => from.min(to),
        }
    }

    /// The last (highest) position whose relation can change.
    ///
    /// Every move permutes relations only within the *window*
    /// `[first_touched(), last_touched()]`; positions after the window
    /// keep both their relation and — because the set of earlier
    /// relations is unchanged — their join statistics.
    #[inline]
    pub fn last_touched(&self) -> usize {
        match *self {
            Move::Swap { i, j } => i.max(j),
            Move::ThreeCycle { i, j, k } => i.max(j).max(k),
            Move::Reinsert { from, to } => from.max(to),
        }
    }

    /// All swap moves over an order of length `len`, for exhaustive
    /// neighborhood enumeration in tests and the DP validation harness.
    pub fn all_swaps(len: usize) -> impl Iterator<Item = Move> {
        (0..len).flat_map(move |i| (i + 1..len).map(move |j| Move::Swap { i, j }))
    }
}

/// Probability weights over [`MoveKind`]s.
///
/// The default follows SG88's simple perturbation scheme: swaps only
/// (mostly arbitrary, some adjacent). The richer 3-cycle and reinsertion
/// moves are available as an *extension* — they make iterative improvement
/// markedly stronger, which also flattens the differences the paper
/// observes between methods; the `ablation_moves` bench quantifies this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoveSet {
    /// Weight of adjacent swaps.
    pub adjacent_swap: f64,
    /// Weight of arbitrary swaps.
    pub swap: f64,
    /// Weight of 3-cycles.
    pub three_cycle: f64,
    /// Weight of reinsertions.
    pub reinsert: f64,
}

impl Default for MoveSet {
    fn default() -> Self {
        MoveSet {
            adjacent_swap: 0.3,
            swap: 0.7,
            three_cycle: 0.0,
            reinsert: 0.0,
        }
    }
}

impl MoveSet {
    /// A move set consisting only of swaps (used by the ablation bench).
    pub fn swaps_only() -> Self {
        MoveSet {
            adjacent_swap: 0.3,
            swap: 0.7,
            three_cycle: 0.0,
            reinsert: 0.0,
        }
    }

    /// Sample a move kind according to the weights.
    pub fn sample_kind<R: Rng + ?Sized>(&self, rng: &mut R) -> MoveKind {
        self.kind_at(rng.gen::<f64>())
    }

    /// The kind a unit draw `u ∈ [0, 1)` selects.
    fn kind_at(&self, u: f64) -> MoveKind {
        let total = self.adjacent_swap + self.swap + self.three_cycle + self.reinsert;
        debug_assert!(total > 0.0, "move set has no positive weight");
        let mut x = u * total;
        x -= self.adjacent_swap;
        if x < 0.0 {
            return MoveKind::AdjacentSwap;
        }
        x -= self.swap;
        if x < 0.0 {
            return MoveKind::Swap;
        }
        x -= self.three_cycle;
        if x < 0.0 {
            return MoveKind::ThreeCycle;
        }
        MoveKind::Reinsert
    }

    /// Sample a random move over an order of length `len >= 2` from this
    /// distribution, ignoring validity. [`MoveGenerator`] filters these
    /// draws; tests replay the same draws against reference filters.
    pub fn sample_move<R: Rng + ?Sized>(&self, len: usize, rng: &mut R) -> Move {
        Self::move_of_kind(self.sample_kind(rng), len, rng)
    }

    /// Draw the positions of a move of `kind` over an order of length
    /// `len >= 2`.
    #[inline]
    fn move_of_kind<R: Rng + ?Sized>(kind: MoveKind, len: usize, rng: &mut R) -> Move {
        debug_assert!(len >= 2);
        match kind {
            MoveKind::AdjacentSwap => {
                let i = rng.gen_range(0..len - 1);
                Move::Swap { i, j: i + 1 }
            }
            MoveKind::Swap => {
                let i = rng.gen_range(0..len);
                // Skip over `i` without a branch: the draw is uniform
                // over the other `len - 1` positions either way.
                let mut j = rng.gen_range(0..len - 1);
                j += usize::from(j >= i);
                Move::Swap {
                    i: i.min(j),
                    j: i.max(j),
                }
            }
            MoveKind::ThreeCycle if len >= 3 => {
                let i = rng.gen_range(0..len);
                let mut j = rng.gen_range(0..len - 1);
                if j >= i {
                    j += 1;
                }
                let mut k = rng.gen_range(0..len - 2);
                for bound in [i.min(j), i.max(j)] {
                    if k >= bound {
                        k += 1;
                    }
                }
                Move::ThreeCycle { i, j, k }
            }
            MoveKind::ThreeCycle => {
                // Degenerates to a swap when only two positions exist.
                Move::Swap { i: 0, j: 1 }
            }
            MoveKind::Reinsert => {
                let from = rng.gen_range(0..len);
                let mut to = rng.gen_range(0..len - 1);
                if to >= from {
                    to += 1;
                }
                Move::Reinsert { from, to }
            }
        }
    }
}

/// [`MoveSet::sample_kind`] as integer compares. A kind draw is one word
/// whose top 53 bits `m` become `u = m·2⁻⁵³`, and each step of
/// `u·total − w₀ − w₁ − …` is monotone in `m`, so the kind is a step
/// function of `m`: three cuts found once by bisection replace the float
/// arithmetic, with the same draw and the same kind for every word.
#[derive(Debug, Clone, Copy)]
struct KindCuts([u64; 3]);

impl KindCuts {
    fn new(set: &MoveSet) -> Self {
        let index_at = |m: u64| set.kind_at(m as f64 * (1.0 / (1u64 << 53) as f64)) as usize;
        let mut cuts = [0u64; 3];
        for (k, cut) in cuts.iter_mut().enumerate() {
            // The smallest `m` whose kind comes after kind `k`.
            let (mut lo, mut hi) = (0u64, 1u64 << 53);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if index_at(mid) > k {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            *cut = lo;
        }
        KindCuts(cuts)
    }

    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> MoveKind {
        let m = rng.next_u64() >> 11;
        if m < self.0[0] {
            MoveKind::AdjacentSwap
        } else if m < self.0[1] {
            MoveKind::Swap
        } else if m < self.0[2] {
            MoveKind::ThreeCycle
        } else {
            MoveKind::Reinsert
        }
    }
}

/// Generates random *valid* moves: proposes perturbations and filters out
/// those that would introduce a cross product.
///
/// Filtering runs a [`BitsetChecker`] over a [`CompiledQuery`] and
/// revalidates only the move's touched window `[first_touched(),
/// last_touched()]` — exact because the generator only ever perturbs orders
/// it has itself kept valid (see [`BitsetChecker::window_valid`]) — and is
/// allocation-free per proposal.
#[derive(Debug)]
pub struct MoveGenerator {
    /// The move set's kind draw, as integer cuts.
    kinds: KindCuts,
    compiled: Arc<CompiledQuery>,
    bitset: BitsetChecker,
    /// Scalar reference scan that debug builds run on every kept
    /// proposal; it never filters.
    #[cfg(debug_assertions)]
    scalar: ValidityChecker,
    /// Acceptance probe for the prefix-mask cache: position and pre-move
    /// relation at `first_touched()` of the last returned proposal. At the
    /// next call, `order[pos] != rel` means the caller kept the move (the
    /// cache is truncated at `pos`); equality means it was undone (every
    /// move changes the relation at its first touched position, so the
    /// probe distinguishes the two exactly).
    probe: Option<(usize, RelId)>,
    /// Give up after this many invalid proposals (the state is then treated
    /// as having no available move — practically unreachable for connected
    /// graphs with more than two relations).
    max_retries: usize,
}

impl MoveGenerator {
    /// Create a generator that filters proposals with windowed bitset
    /// checks against `compiled`.
    ///
    /// The caller must only hand `propose`/`propose_counted` orders that
    /// are already valid (both start from a valid order and preserve
    /// validity on every accepted move, so this holds inductively for the
    /// II/SA loops).
    pub fn with_compiled(compiled: Arc<CompiledQuery>, move_set: MoveSet) -> Self {
        let n_relations = compiled.n_relations();
        MoveGenerator {
            kinds: KindCuts::new(&move_set),
            compiled,
            bitset: BitsetChecker::new(n_relations),
            #[cfg(debug_assertions)]
            scalar: ValidityChecker::new(n_relations),
            probe: None,
            max_retries: 64.max(4 * n_relations),
        }
    }

    /// Notify the generator that the base order changed in a way it could
    /// not observe — a restart from a different order, a rollback to an
    /// earlier state, or switching to another component. Invalidates the
    /// windowed checker's prefix-mask cache.
    ///
    /// Not needed for the regular propose → accept/undo loop: the
    /// generator detects both outcomes of its own proposals.
    pub fn reset(&mut self) {
        self.probe = None;
        self.bitset.reset_prefix();
    }

    /// Propose a random valid neighbor of `order`.
    ///
    /// On success the move has been **applied** to `order` (so the caller
    /// can cost the new state immediately) and is returned so the caller
    /// can [`Move::undo`] it if the new state is rejected. Returns `None`
    /// when the order is too short to perturb or no valid move was found
    /// within the retry budget.
    pub fn propose<R: Rng + ?Sized>(
        &mut self,
        graph: &JoinGraph,
        order: &mut JoinOrder,
        rng: &mut R,
    ) -> Option<Move> {
        self.propose_counted(graph, order, rng).map(|(mv, _)| mv)
    }

    /// As [`MoveGenerator::propose`], additionally reporting how many
    /// proposals were *tried* (1 = first proposal was valid).
    ///
    /// Each rejected proposal performed an `O(N)` validity check — real
    /// work that the paper's wall-clock time limits paid for. Budgeted
    /// optimizers charge `attempts − 1` extra units so that searching
    /// heavily constrained spaces (e.g. star join graphs, where most swaps
    /// are invalid) is costlier, as it was on the paper's hardware.
    ///
    /// Filtering reads only the compiled snapshot; `graph` (the graph it
    /// was compiled from) feeds the scalar reference check that debug
    /// builds run on every kept proposal.
    pub fn propose_counted<R: Rng + ?Sized>(
        &mut self,
        #[cfg_attr(not(debug_assertions), allow(unused_variables))] graph: &JoinGraph,
        order: &mut JoinOrder,
        rng: &mut R,
    ) -> Option<(Move, u32)> {
        let len = order.len();
        if len < 2 {
            return None;
        }
        // Resolve the previous proposal's fate: if the caller kept it, the
        // relation at its first touched position changed, and the prefix
        // cache past that position is stale.
        if let Some((pos, rel)) = self.probe.take() {
            if pos < len && order.at(pos) != rel {
                self.bitset.truncate_prefix(pos);
            }
        }
        for attempt in 1..=self.max_retries {
            let mv = MoveSet::move_of_kind(self.kinds.sample(rng), len, rng);
            let (lo, hi) = (mv.first_touched(), mv.last_touched());
            let pre = order.at(lo);
            mv.apply(order);
            let cq = &*self.compiled;
            let valid = self.bitset.window_valid_primed(cq, order.rels(), lo, hi);
            debug_assert_eq!(
                valid,
                self.bitset.window_valid(cq, order.rels(), lo, hi),
                "primed windowed validity must agree with the uncached check \
                 (was the generator told about a base-order change?)"
            );
            #[cfg(debug_assertions)]
            assert_eq!(
                valid,
                self.scalar.is_valid(graph, order.rels()),
                "windowed validity must agree with the scalar full scan \
                 (was the input order valid, and compiled from this graph?)"
            );
            if valid {
                self.probe = Some((lo, pre));
                return Some((mv, attempt as u32));
            }
            mv.undo(order);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validity::is_valid;
    use ljqo_catalog::{JoinEdge, RelId};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ids(v: &[u32]) -> Vec<RelId> {
        v.iter().map(|&i| RelId(i)).collect()
    }

    fn chain_graph(n: usize) -> JoinGraph {
        JoinGraph::new(
            n,
            (1..n)
                .map(|i| JoinEdge::from_distincts(i - 1, i, 10.0, 10.0))
                .collect(),
        )
    }

    fn generator(g: &JoinGraph, move_set: MoveSet) -> MoveGenerator {
        let cq = CompiledQuery::from_graph(g, vec![10.0; g.n_relations()]);
        MoveGenerator::with_compiled(Arc::new(cq), move_set)
    }

    /// Scalar reference for `propose_counted`: the same raw draws and
    /// retry limit, filtered by a full `is_valid` scan of the perturbed
    /// order.
    fn scalar_propose(
        move_set: &MoveSet,
        g: &JoinGraph,
        order: &mut JoinOrder,
        rng: &mut SmallRng,
    ) -> Option<(Move, u32)> {
        if order.len() < 2 {
            return None;
        }
        for attempt in 1..=64.max(4 * g.n_relations()) {
            let mv = move_set.sample_move(order.len(), rng);
            mv.apply(order);
            if is_valid(g, order.rels()) {
                return Some((mv, attempt as u32));
            }
            mv.undo(order);
        }
        None
    }

    #[test]
    fn moves_are_reversible() {
        let moves = [
            Move::Swap { i: 1, j: 4 },
            Move::ThreeCycle { i: 0, j: 2, k: 4 },
            Move::Reinsert { from: 4, to: 1 },
            Move::Reinsert { from: 0, to: 3 },
        ];
        for mv in moves {
            let mut o = JoinOrder::new(ids(&[0, 1, 2, 3, 4]));
            let orig = o.clone();
            mv.apply(&mut o);
            assert_ne!(o, orig, "{mv:?} must change the order");
            mv.undo(&mut o);
            assert_eq!(o, orig, "{mv:?} undo must restore the order");
        }
    }

    #[test]
    fn three_cycle_rotates() {
        let mut o = JoinOrder::new(ids(&[10, 11, 12]));
        Move::ThreeCycle { i: 0, j: 1, k: 2 }.apply(&mut o);
        // i->j->k->i: value at 0 goes to 1, 1 to 2, 2 to 0.
        assert_eq!(o.rels(), &ids(&[12, 10, 11])[..]);
    }

    #[test]
    fn all_swaps_enumerates_n_choose_2() {
        let swaps: Vec<_> = Move::all_swaps(5).collect();
        assert_eq!(swaps.len(), 10);
    }

    #[test]
    fn proposals_stay_valid() {
        let g = chain_graph(8);
        let mut gen = generator(&g, MoveSet::default());
        let mut order = JoinOrder::new(ids(&[0, 1, 2, 3, 4, 5, 6, 7]));
        let mut rng = SmallRng::seed_from_u64(42);
        let mut changed = 0;
        for _ in 0..500 {
            let before = order.clone();
            if let Some(mv) = gen.propose(&g, &mut order, &mut rng) {
                assert!(is_valid(&g, order.rels()));
                assert_ne!(order, before, "move {mv:?} should perturb the state");
                changed += 1;
            }
        }
        assert!(changed > 400, "most proposals should succeed on a chain");
    }

    #[test]
    fn propose_on_tiny_order_is_none() {
        let g = chain_graph(2);
        let mut gen = generator(&g, MoveSet::default());
        let mut order = JoinOrder::new(ids(&[0]));
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(gen.propose(&g, &mut order, &mut rng).is_none());
    }

    #[test]
    fn two_relation_order_swaps() {
        let g = chain_graph(2);
        let mut gen = generator(&g, MoveSet::default());
        let mut order = JoinOrder::new(ids(&[0, 1]));
        let mut rng = SmallRng::seed_from_u64(1);
        let mv = gen.propose(&g, &mut order, &mut rng).unwrap();
        assert_eq!(mv, Move::Swap { i: 0, j: 1 });
        assert_eq!(order.rels(), &ids(&[1, 0])[..]);
    }

    #[test]
    fn touched_window_bounds_all_changes() {
        let mut rng = SmallRng::seed_from_u64(99);
        let moves = MoveSet {
            adjacent_swap: 1.0,
            swap: 1.0,
            three_cycle: 1.0,
            reinsert: 1.0,
        };
        let before = JoinOrder::new(ids(&[0, 1, 2, 3, 4, 5, 6, 7, 8]));
        for _ in 0..500 {
            let mv = moves.sample_move(9, &mut rng);
            let mut after = before.clone();
            mv.apply(&mut after);
            let (lo, hi) = (mv.first_touched(), mv.last_touched());
            for p in 0..9 {
                if p < lo || p > hi {
                    assert_eq!(
                        after.at(p),
                        before.at(p),
                        "{mv:?}: position {p} outside [{lo}, {hi}] must not change"
                    );
                }
            }
        }
    }

    #[test]
    fn kind_cuts_match_the_float_draw() {
        let sets = [
            MoveSet::default(),
            MoveSet {
                adjacent_swap: 0.25,
                swap: 0.35,
                three_cycle: 0.2,
                reinsert: 0.2,
            },
            MoveSet {
                adjacent_swap: 0.0,
                swap: 1.0,
                three_cycle: 0.0,
                reinsert: 3.0,
            },
            MoveSet {
                adjacent_swap: 1e-9,
                swap: 0.1,
                three_cycle: 7.0,
                reinsert: 0.0,
            },
        ];
        let mut rng = SmallRng::seed_from_u64(3);
        for set in sets {
            let cuts = KindCuts::new(&set);
            // Words on both sides of every cut, the extremes, and random
            // words.
            let mut words: Vec<u64> = vec![0, 1 << 11, u64::MAX];
            for &cut in &cuts.0 {
                for m in [cut.saturating_sub(1), cut, cut + 1] {
                    words.push(m.min((1 << 53) - 1) << 11);
                }
            }
            words.extend((0..2_000).map(|_| rng.gen::<u64>()));
            for w in words {
                let want = set.kind_at((w >> 11) as f64 * (1.0 / (1u64 << 53) as f64));
                let mut one = std::iter::once(w);
                let got = cuts.sample(&mut StepRng(&mut one));
                assert_eq!(got, want, "{set:?} word {w:#x}");
            }
        }
    }

    /// Replays given words.
    struct StepRng<'a>(&'a mut dyn Iterator<Item = u64>);

    impl rand::RngCore for StepRng<'_> {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("scripted word")
        }
    }

    #[test]
    fn sample_kind_respects_zero_weights() {
        let ms = MoveSet::swaps_only();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..200 {
            let k = ms.sample_kind(&mut rng);
            assert!(matches!(k, MoveKind::AdjacentSwap | MoveKind::Swap));
        }
    }

    #[test]
    fn compiled_proposals_stay_valid_and_match_distribution() {
        // Same seed through the scalar reference and the compiled
        // generator must yield the same accepted move sequence: the
        // windowed filter is exact, so it consumes randomness identically.
        let g = chain_graph(8);
        let moves = MoveSet {
            adjacent_swap: 0.25,
            swap: 0.35,
            three_cycle: 0.2,
            reinsert: 0.2,
        };
        let mut compiled = generator(&g, moves);
        let mut order_a = JoinOrder::new(ids(&[0, 1, 2, 3, 4, 5, 6, 7]));
        let mut order_b = order_a.clone();
        let mut rng_a = SmallRng::seed_from_u64(0xbeef);
        let mut rng_b = SmallRng::seed_from_u64(0xbeef);
        for _ in 0..500 {
            let a = scalar_propose(&moves, &g, &mut order_a, &mut rng_a);
            let b = compiled.propose_counted(&g, &mut order_b, &mut rng_b);
            assert_eq!(a, b);
            assert_eq!(order_a, order_b);
            assert!(is_valid(&g, order_b.rels()));
        }
    }

    #[test]
    fn star_proposals_never_lead_with_two_spokes() {
        // Star with hub 0: valid orders keep the hub in the first two
        // positions.
        let g = JoinGraph::new(
            6,
            (1..6)
                .map(|i| JoinEdge::from_distincts(0u32, i as u32, 10.0, 10.0))
                .collect(),
        );
        let mut gen = generator(&g, MoveSet::default());
        let mut order = JoinOrder::new(ids(&[0, 1, 2, 3, 4, 5]));
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..300 {
            gen.propose(&g, &mut order, &mut rng);
            let hub_pos = order.position(RelId(0)).unwrap();
            assert!(hub_pos <= 1, "hub must stay within the first two slots");
        }
    }
}
