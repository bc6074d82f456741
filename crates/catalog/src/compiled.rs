//! Compiled query snapshots: flat, cache-friendly encodings of a query.
//!
//! The optimizer's inner loops — validity filtering of proposed moves,
//! static selectivity folds, frontier scans — walk the join graph millions
//! of times per run. [`crate::JoinGraph`] stores one `Vec<EdgeId>` per
//! relation and one [`crate::JoinEdge`] struct per edge, so every walk
//! chases two pointer indirections and re-derives "which endpoint is the
//! other one" per edge. [`CompiledQuery`] is built **once** per
//! [`Query`] and flattens everything the hot loops touch:
//!
//! * **CSR adjacency** — one flat slot array plus per-relation offsets.
//!   Slot `s` of relation `r` carries the *other* endpoint and the edge
//!   selectivity, pre-resolved so the loop body is branch-light array
//!   reads. Slots preserve exactly the
//!   per-relation edge order of [`crate::JoinGraph::incident`], which is
//!   what keeps compiled selectivity folds bit-identical to the
//!   edge-chasing reference (`f64` multiplication is not associative, so
//!   the fold order is part of the contract).
//! * **Structure-of-arrays stats** — per-relation effective cardinalities
//!   and per-edge endpoint/selectivity arrays.
//! * **Neighbor bitsets** — one `⌈n/64⌉`-word mask per relation marking
//!   its distinct neighbors, so "does `r` join the placed set?" becomes a
//!   handful of word-ANDs ([`CompiledQuery::connects`]) instead of an
//!   `O(deg)` edge chase.
//!
//! The snapshot is immutable and self-contained (it copies the statistics
//! it needs), so optimizers share one instance behind an `Arc` across
//! workers, move generators, and incremental evaluators.
//!
//! # Bit-identical contract
//!
//! Everything derivable from a `CompiledQuery` must equal what the
//! uncompiled `Query`/`JoinGraph` walk produces **bit for bit**: same
//! incident-edge iteration order, same statistics values (copied, not
//! recomputed). The differential property suites in `ljqo-plan` and
//! `ljqo-cost` assert this over random catalogs.

use crate::bitset::{self, BlockMask, BLOCK_WORDS};
use crate::graph::{EdgeId, JoinGraph};
use crate::query::Query;
use crate::relation::RelId;

/// One CSR slot's hot statistics, packed into a single record so the
/// selectivity folds of the size walker touch one contiguous stream per
/// relation instead of parallel arrays (the "blocked CSR" layout:
/// at N = 1000 the per-relation records span a handful of cachelines and
/// stay resident across the walk).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotRec {
    /// Selectivity of the slot's edge.
    pub sel: f64,
    /// The *other* endpoint of the slot's edge.
    pub other: RelId,
}

/// An immutable, flattened snapshot of a [`Query`] for the optimizer's
/// hot loops: CSR adjacency, structure-of-arrays statistics, and
/// per-relation neighbor bitsets.
///
/// # Example
///
/// ```
/// use ljqo_catalog::{CompiledQuery, QueryBuilder, RelId};
///
/// let query = QueryBuilder::new()
///     .relation("a", 100)
///     .relation("b", 200)
///     .relation("c", 300)
///     .join("a", "b", 0.01)
///     .join("b", "c", 0.05)
///     .build()
///     .unwrap();
/// let cq = CompiledQuery::new(&query);
///
/// // CSR slots mirror JoinGraph::incident, with the other endpoint and
/// // the selectivity pre-resolved.
/// let slots = cq.slot_records(RelId(1));
/// assert_eq!(slots.len(), 2);
/// assert_eq!(slots[0].other, RelId(0));
///
/// // Connectivity against a placed set is a word-AND.
/// let mut placed = vec![0u64; cq.words_per_rel()];
/// assert!(!cq.connects(RelId(2), &placed));
/// placed[0] |= 1 << 1; // place b
/// assert!(cq.connects(RelId(2), &placed));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledQuery {
    n_relations: usize,
    n_edges: usize,
    words_per_rel: usize,
    /// Storage stride of each neighbor-mask row: `words_per_rel` rounded
    /// up per [`bitset::mask_stride`], with the padding words zero.
    mask_stride: usize,

    /// CSR offsets: slots of relation `r` are
    /// `slot_offsets[r] .. slot_offsets[r + 1]`.
    slot_offsets: Vec<u32>,
    /// Packed hot statistics of each slot (other endpoint, selectivity),
    /// in [`JoinGraph::incident`] order.
    slot_recs: Vec<SlotRec>,

    /// Per-edge SoA: endpoint `a`.
    edge_a: Vec<RelId>,
    /// Per-edge SoA: endpoint `b`.
    edge_b: Vec<RelId>,
    /// Per-edge SoA: selectivity.
    edge_sel: Vec<f64>,

    /// Effective cardinality per relation.
    cardinality: Vec<f64>,
    /// Distinct-neighbor count per relation (`deg(k)` in the paper).
    degree: Vec<u32>,
    /// Flattened neighbor bitsets: `mask_stride` words per relation, the
    /// first `words_per_rel` logical and the rest zero padding (so the
    /// blocked kernels can scan whole rows without a remainder loop).
    neighbor_words: Vec<u64>,
}

impl CompiledQuery {
    /// Compile `query` into the flat hot-loop representation. `O(V + E)`.
    pub fn new(query: &Query) -> Self {
        let cardinality = query.rel_ids().map(|r| query.cardinality(r)).collect();
        Self::from_graph(query.graph(), cardinality)
    }

    /// Compile from a graph plus explicit per-relation cardinalities
    /// (callers without a full [`Query`], e.g. tests over raw graphs).
    ///
    /// Panics if `cardinality.len() != graph.n_relations()`.
    pub fn from_graph(graph: &JoinGraph, cardinality: Vec<f64>) -> Self {
        let n = graph.n_relations();
        assert_eq!(
            cardinality.len(),
            n,
            "one cardinality per relation required"
        );
        let n_edges = graph.edges().len();
        let words_per_rel = n.div_ceil(64).max(1);
        let mask_stride = bitset::mask_stride(words_per_rel);

        let n_slots = 2 * n_edges;
        let mut slot_offsets = Vec::with_capacity(n + 1);
        let mut slot_recs = Vec::with_capacity(n_slots);
        let mut neighbor_words = vec![0u64; n * mask_stride];
        let mut degree = Vec::with_capacity(n);

        for r in 0..n {
            let rel = RelId(r as u32);
            slot_offsets.push(slot_recs.len() as u32);
            let base = r * mask_stride;
            for &eid in graph.incident(rel) {
                let e = graph.edge(eid);
                // Self-loops are rejected at graph construction, so the
                // other endpoint always exists.
                let other = if e.a == rel { e.b } else { e.a };
                slot_recs.push(SlotRec {
                    sel: e.selectivity,
                    other,
                });
                neighbor_words[base + other.index() / 64] |= 1u64 << (other.index() % 64);
            }
            degree.push(
                neighbor_words[base..base + words_per_rel]
                    .iter()
                    .map(|w| w.count_ones())
                    .sum(),
            );
        }
        slot_offsets.push(slot_recs.len() as u32);

        let mut edge_a = Vec::with_capacity(n_edges);
        let mut edge_b = Vec::with_capacity(n_edges);
        let mut edge_sel = Vec::with_capacity(n_edges);
        for e in graph.edges() {
            edge_a.push(e.a);
            edge_b.push(e.b);
            edge_sel.push(e.selectivity);
        }

        CompiledQuery {
            n_relations: n,
            n_edges,
            words_per_rel,
            mask_stride,
            slot_offsets,
            slot_recs,
            edge_a,
            edge_b,
            edge_sel,
            cardinality,
            degree,
            neighbor_words,
        }
    }

    /// Number of relations.
    #[inline]
    pub fn n_relations(&self) -> usize {
        self.n_relations
    }

    /// Number of join edges.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Words per relation in the neighbor bitsets (`⌈n/64⌉`, at least 1).
    /// Placed-set masks handed to [`CompiledQuery::connects`] must have
    /// exactly this length.
    #[inline]
    pub fn words_per_rel(&self) -> usize {
        self.words_per_rel
    }

    /// Storage stride, in words, of the blocked neighbor-mask rows
    /// ([`crate::bitset::mask_stride`] of [`CompiledQuery::words_per_rel`]).
    /// Placed-set masks handed to [`CompiledQuery::connects_blocks`] must
    /// have exactly this length; the words past `words_per_rel` are zero.
    #[inline]
    pub fn mask_stride(&self) -> usize {
        self.mask_stride
    }

    /// The CSR slot range of `rel`: one slot per incident edge, in
    /// exactly the order of [`JoinGraph::incident`].
    #[inline]
    pub fn slot_range(&self, rel: RelId) -> std::ops::Range<usize> {
        let r = rel.index();
        self.slot_offsets[r] as usize..self.slot_offsets[r + 1] as usize
    }

    /// The packed hot records of `rel`'s CSR slots, in exactly the order
    /// of [`JoinGraph::incident`]: one contiguous stream the selectivity
    /// folds walk instead of parallel arrays.
    #[inline]
    pub fn slot_records(&self, rel: RelId) -> &[SlotRec] {
        &self.slot_recs[self.slot_range(rel)]
    }

    /// Endpoint `a` of edge `eid`.
    #[inline]
    pub fn edge_a(&self, eid: EdgeId) -> RelId {
        self.edge_a[eid.index()]
    }

    /// Endpoint `b` of edge `eid`.
    #[inline]
    pub fn edge_b(&self, eid: EdgeId) -> RelId {
        self.edge_b[eid.index()]
    }

    /// Selectivity of edge `eid`.
    #[inline]
    pub fn edge_selectivity(&self, eid: EdgeId) -> f64 {
        self.edge_sel[eid.index()]
    }

    /// Effective cardinality of `rel` (identical to
    /// [`Query::cardinality`]).
    #[inline]
    pub fn cardinality(&self, rel: RelId) -> f64 {
        self.cardinality[rel.index()]
    }

    /// Distinct-neighbor count of `rel` (identical to
    /// [`JoinGraph::degree`]).
    #[inline]
    pub fn degree(&self, rel: RelId) -> usize {
        self.degree[rel.index()] as usize
    }

    /// The neighbor bitset of `rel`: `words_per_rel` words, bit `i` of
    /// word `i / 64` set iff some join predicate links `rel` and
    /// relation `i`.
    #[inline]
    pub fn neighbor_mask(&self, rel: RelId) -> &[u64] {
        let base = rel.index() * self.mask_stride;
        &self.neighbor_words[base..base + self.words_per_rel]
    }

    /// The blocked neighbor row of `rel`: [`CompiledQuery::mask_stride`]
    /// words, the first [`CompiledQuery::words_per_rel`] logical and the
    /// rest zero. Kernel-tier callers scan this row with
    /// [`crate::bitset::intersects`]; the zero padding makes the result
    /// identical to a scan of the logical mask.
    #[inline]
    pub fn neighbor_blocks(&self, rel: RelId) -> &[u64] {
        let base = rel.index() * self.mask_stride;
        &self.neighbor_words[base..base + self.mask_stride]
    }

    /// The neighbor mask of `rel` as a one-block [`BlockMask`] — only
    /// callable when [`CompiledQuery::mask_stride`] is at most
    /// [`BLOCK_WORDS`] (≤ [`BlockMask::CAPACITY`] relations), the regime
    /// plan-tree nodes operate in.
    #[inline]
    pub fn neighbor_block_mask(&self, rel: RelId) -> BlockMask {
        debug_assert!(
            self.mask_stride <= BLOCK_WORDS,
            "neighbor_block_mask requires <= {} relations",
            BlockMask::CAPACITY
        );
        BlockMask::from_words(self.neighbor_blocks(rel))
    }

    /// Whether `rel` joins any relation marked in `placed` (a
    /// [`CompiledQuery::words_per_rel`]-word bitset): a branch-light
    /// word-AND scan, the compiled form of the validity connectivity
    /// test.
    #[inline]
    pub fn connects(&self, rel: RelId, placed: &[u64]) -> bool {
        debug_assert_eq!(placed.len(), self.words_per_rel);
        let mask = self.neighbor_mask(rel);
        let mut hit = 0u64;
        for (m, p) in mask.iter().zip(placed) {
            hit |= m & p;
        }
        hit != 0
    }

    /// Blocked form of [`CompiledQuery::connects`]: `placed` is a
    /// [`CompiledQuery::mask_stride`]-word bitset (padding words zero)
    /// and the test runs through the word-count-specialized
    /// [`crate::bitset::intersects`] kernel.
    #[inline]
    pub fn connects_blocks(&self, rel: RelId, placed: &[u64]) -> bool {
        debug_assert_eq!(placed.len(), self.mask_stride);
        bitset::intersects(self.neighbor_blocks(rel), placed)
    }

    /// Set `rel`'s bit in a placed-set mask.
    #[inline]
    pub fn set_placed(&self, placed: &mut [u64], rel: RelId) {
        placed[rel.index() / 64] |= 1u64 << (rel.index() % 64);
    }

    /// The single neighbor-mask word of `rel` — only callable when
    /// [`CompiledQuery::words_per_rel`] is 1 (≤ 64 relations), where the
    /// whole placed set fits one register and the validity hot loop can
    /// keep it out of memory entirely (the single-word fast path of the
    /// bitset validity checker; [`CompiledQuery::connects`] is the
    /// general form).
    #[inline]
    pub fn neighbor_word(&self, rel: RelId) -> u64 {
        debug_assert_eq!(self.words_per_rel, 1);
        self.neighbor_words[rel.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;
    use crate::predicate::JoinEdge;

    fn triangle_plus() -> Query {
        QueryBuilder::new()
            .relation("a", 100)
            .relation("b", 200)
            .relation("c", 50)
            .relation("d", 10)
            .join_on_distincts("a", "b", 40.0, 80.0)
            .join_on_distincts("b", "c", 30.0, 20.0)
            .join_on_distincts("a", "c", 10.0, 15.0)
            .join_on_distincts("a", "b", 5.0, 7.0) // parallel edge
            .build()
            .unwrap()
    }

    #[test]
    fn slots_mirror_incident_order_and_stats() {
        let q = triangle_plus();
        let cq = CompiledQuery::new(&q);
        let g = q.graph();
        assert_eq!(std::mem::size_of::<SlotRec>(), 16);
        for r in q.rel_ids() {
            let recs = cq.slot_records(r);
            let incident = g.incident(r);
            assert_eq!(recs.len(), incident.len());
            assert_eq!(cq.slot_range(r).len(), incident.len());
            for (rec, &eid) in recs.iter().zip(incident) {
                let e = g.edge(eid);
                assert_eq!(rec.other, e.other(r).unwrap());
                assert_eq!(rec.sel.to_bits(), e.selectivity.to_bits());
            }
        }
    }

    #[test]
    fn edge_soa_and_cardinalities_match() {
        let q = triangle_plus();
        let cq = CompiledQuery::new(&q);
        for (i, e) in q.graph().edges().iter().enumerate() {
            let eid = EdgeId(i as u32);
            assert_eq!(cq.edge_a(eid), e.a);
            assert_eq!(cq.edge_b(eid), e.b);
            assert_eq!(cq.edge_selectivity(eid).to_bits(), e.selectivity.to_bits());
        }
        for r in q.rel_ids() {
            assert_eq!(cq.cardinality(r).to_bits(), q.cardinality(r).to_bits());
            assert_eq!(cq.degree(r), q.graph().degree(r));
        }
    }

    #[test]
    fn neighbor_bitsets_match_joined() {
        let q = triangle_plus();
        let cq = CompiledQuery::new(&q);
        for a in q.rel_ids() {
            for b in q.rel_ids() {
                let bit = cq.neighbor_mask(a)[b.index() / 64] & (1u64 << (b.index() % 64)) != 0;
                assert_eq!(bit, q.graph().joined(a, b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn connects_matches_scalar_membership() {
        let q = triangle_plus();
        let cq = CompiledQuery::new(&q);
        let mut placed = vec![0u64; cq.words_per_rel()];
        assert!(!cq.connects(RelId(0), &placed));
        cq.set_placed(&mut placed, RelId(3)); // isolated relation
        assert!(!cq.connects(RelId(0), &placed));
        cq.set_placed(&mut placed, RelId(2));
        assert!(cq.connects(RelId(0), &placed));
        assert!(cq.connects(RelId(1), &placed));
        assert!(!cq.connects(RelId(3), &placed), "d has no neighbors");
    }

    #[test]
    fn blocked_rows_are_padded_with_zeros_and_agree_with_logical() {
        for n in [3usize, 63, 64, 65, 127, 129, 256, 257, 300] {
            let edges: Vec<JoinEdge> = (1..n)
                .map(|i| JoinEdge::from_distincts(0u32, i as u32, 10.0, 10.0))
                .collect();
            let g = JoinGraph::new(n, edges);
            let cq = CompiledQuery::from_graph(&g, vec![100.0; n]);
            assert_eq!(
                cq.mask_stride(),
                crate::bitset::stride_for_relations(n),
                "n = {n}"
            );
            let mut placed_logical = vec![0u64; cq.words_per_rel()];
            let mut placed_blocks = vec![0u64; cq.mask_stride()];
            for probe in [0usize, 1, n / 2, n - 1] {
                cq.set_placed(&mut placed_logical, RelId(probe as u32));
                cq.set_placed(&mut placed_blocks, RelId(probe as u32));
            }
            for r in 0..n {
                let rel = RelId(r as u32);
                let row = cq.neighbor_blocks(rel);
                assert_eq!(row[..cq.words_per_rel()], *cq.neighbor_mask(rel));
                assert!(
                    row[cq.words_per_rel()..].iter().all(|&w| w == 0),
                    "padding words must stay zero (n = {n}, rel {r})"
                );
                assert_eq!(
                    cq.connects(rel, &placed_logical),
                    cq.connects_blocks(rel, &placed_blocks),
                    "n = {n}, rel {r}"
                );
            }
            if n <= 256 {
                let bm = cq.neighbor_block_mask(RelId(0));
                for b in 0..n {
                    assert_eq!(bm.test(b), g.joined(RelId(0), RelId(b as u32)));
                }
            }
        }
    }

    #[test]
    fn wide_graphs_span_multiple_words() {
        // 130 relations: a star around relation 0, so bitsets need 3 words.
        let n = 130usize;
        let edges: Vec<JoinEdge> = (1..n)
            .map(|i| JoinEdge::from_distincts(0u32, i as u32, 10.0, 10.0))
            .collect();
        let g = JoinGraph::new(n, edges);
        let cq = CompiledQuery::from_graph(&g, vec![100.0; n]);
        assert_eq!(cq.words_per_rel(), 3);
        assert_eq!(cq.degree(RelId(0)), n - 1);
        let mut placed = vec![0u64; 3];
        cq.set_placed(&mut placed, RelId(129));
        assert!(cq.connects(RelId(0), &placed));
        assert!(!cq.connects(RelId(64), &placed), "spokes are not joined");
        cq.set_placed(&mut placed, RelId(0));
        assert!(cq.connects(RelId(64), &placed));
    }
}
