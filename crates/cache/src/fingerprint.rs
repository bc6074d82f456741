//! Canonical query fingerprints.
//!
//! A fingerprint identifies the *equivalence class* a query belongs to
//! for plan-reuse purposes. Two queries share a fingerprint when their
//! join graphs are isomorphic **and** the per-relation / per-edge
//! statistics agree after log-scale quantization (see
//! [`ljqo_catalog::quant`]). The first property makes the fingerprint
//! invariant under relabeling of relation ids; the second collapses
//! cardinality detail the join order is robust to (the Simpli-Squared
//! observation), so near-identical queries hit the same cache entry.
//!
//! # Canonicalization
//!
//! Relation ids are arbitrary, so the fingerprint is computed over a
//! *canonical* ordering of the relations:
//!
//! 1. every relation gets a color from its quantized statistics (effective
//!    cardinality bucket, degree, sorted incident-edge signatures);
//! 2. colors are refined Weisfeiler–Lehman style — each round rehashes a
//!    relation's color with the sorted multiset of `(edge signature,
//!    neighbor color)` pairs — until the partition stabilizes;
//! 3. each join-graph component is encoded by a breadth-first traversal
//!    whose frontier is expanded in (color, edge-signature,
//!    placed-adjacency) order, rooted at each minimal-color relation in
//!    turn; the lexicographically smallest encoding wins (this also
//!    resolves root ties);
//! 4. component encodings are sorted and concatenated.
//!
//! WL colors alone cannot break every tie (color-tied relations need not
//! be automorphic — the classic Weisfeiler–Lehman limitation on regular
//! substructures), and input relation ids must never decide one, or the
//! encoding would vary under relabeling. The frontier therefore re-keys
//! its remaining candidates after every placement by their *placed-
//! adjacency signature* — a hash of each candidate's edges into the
//! already-built canonical prefix, by canonical index. Relations still
//! tied on all three keys are indistinguishable by any statistic or
//! placement the fingerprint can observe, so either order yields the
//! same encoding; among such interchangeable relations the input id is
//! used as a final deterministic fallback (it cannot affect the
//! encoding at that point, only which of the equivalent canonical
//! mappings is produced).
//!
//! The full canonical encoding is retained as the cache key — a 64-bit
//! digest is kept alongside for shard routing, but equality always
//! compares the encodings, so digest collisions can never alias two
//! different equivalence classes onto one cache entry.

use std::hash::{Hash, Hasher};

use ljqo_catalog::{quant::log_bucket, EdgeId, Query, RelId};

/// Configuration for [`fingerprint`]: how aggressively statistics are
/// collapsed before canonicalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FingerprintConfig {
    /// Log-scale buckets per factor of ten, for cardinalities,
    /// selectivities, and distinct counts. Fewer buckets collapse more
    /// queries onto one fingerprint (more reuse, coarser plans); `0` is
    /// treated as 1.
    pub buckets_per_decade: u32,
}

impl Default for FingerprintConfig {
    /// Four buckets per decade: statistics agreeing within a factor of
    /// `10^(1/4) ≈ 1.78` can share a bucket.
    fn default() -> Self {
        FingerprintConfig {
            buckets_per_decade: 4,
        }
    }
}

/// A canonical query fingerprint: the cache key.
///
/// Cheap to clone relative to a cold optimization; hashes via a
/// precomputed 64-bit digest but compares by full encoding.
#[derive(Debug, Clone)]
pub struct QueryFingerprint {
    encoding: Box<[u64]>,
    digest: u64,
}

impl QueryFingerprint {
    /// The 64-bit digest (used for shard routing).
    #[inline]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Length of the canonical encoding in 64-bit words (used for cache
    /// byte accounting).
    #[inline]
    pub fn encoding_words(&self) -> usize {
        self.encoding.len()
    }
}

impl PartialEq for QueryFingerprint {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest && self.encoding == other.encoding
    }
}

impl Eq for QueryFingerprint {}

impl Hash for QueryFingerprint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

/// A query's fingerprint together with the canonical relabeling that
/// produced it, so cached plans (stored in canonical coordinates) can be
/// rehydrated into this query's relation ids.
#[derive(Debug, Clone)]
pub struct Fingerprinted {
    fingerprint: QueryFingerprint,
    /// `rel_of_canon[c]` is the relation holding canonical index `c`.
    rel_of_canon: Vec<RelId>,
    /// `canon_of_rel[r.index()]` is the canonical index of relation `r`.
    canon_of_rel: Vec<u32>,
}

impl Fingerprinted {
    /// The fingerprint (cache key).
    #[inline]
    pub fn fingerprint(&self) -> &QueryFingerprint {
        &self.fingerprint
    }

    /// Number of relations in the fingerprinted query.
    #[inline]
    pub fn n_relations(&self) -> usize {
        self.rel_of_canon.len()
    }

    /// Translate a join order over this query's relation ids into
    /// canonical coordinates (for storing a plan in the cache).
    pub fn canonize_order(&self, rels: &[RelId]) -> Vec<u32> {
        rels.iter().map(|r| self.canon_of_rel[r.index()]).collect()
    }

    /// Translate a canonical-coordinate order back into this query's
    /// relation ids. Returns `None` if any index is out of range (a
    /// corrupt or foreign cache entry).
    pub fn rehydrate_order(&self, canon: &[u32]) -> Option<Vec<RelId>> {
        canon
            .iter()
            .map(|&c| self.rel_of_canon.get(c as usize).copied())
            .collect()
    }
}

/// 64-bit mixer (splitmix64 finalizer). Deterministic across processes,
/// which keeps fingerprints stable for snapshots and logs.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Fold `v` into running digest `h`.
#[inline]
fn fold(h: u64, v: u64) -> u64 {
    mix(h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// ZigZag-map a signed bucket index into an unsigned token.
#[inline]
fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

/// Quantized, orientation-aware signature of edge `e` as seen from `v`.
fn edge_sig(query: &Query, v: RelId, e: EdgeId, bpd: u32) -> u64 {
    let edge = query.graph().edge(e);
    let sel = zigzag(edge.selectivity_bucket(bpd));
    let near = zigzag(log_bucket(edge.distinct_on(v).unwrap_or(1.0), bpd));
    let other = edge.other(v).unwrap_or(v);
    let far = zigzag(log_bucket(edge.distinct_on(other).unwrap_or(1.0), bpd));
    fold(fold(fold(0x5eed, sel), near), far)
}

/// Compute the canonical fingerprint of `query` under `cfg`.
///
/// The query is assumed validated (`Query::new` / `Query::validate`):
/// every statistic finite and positive. Unvalidated statistics degrade to
/// the quantizer's sentinel bucket — the fingerprint stays well-defined,
/// it just lumps all degenerate values together.
pub fn fingerprint(query: &Query, cfg: &FingerprintConfig) -> Fingerprinted {
    let n = query.n_relations();
    let g = query.graph();
    let bpd = cfg.buckets_per_decade.max(1);

    // Per-relation quantized statistics.
    let card_bucket: Vec<i64> = query
        .relations()
        .iter()
        .map(|r| r.cardinality_bucket(bpd))
        .collect();

    // Initial colors: cardinality bucket + degree + sorted incident edge
    // signatures.
    let mut colors: Vec<u64> = (0..n)
        .map(|i| {
            let v = RelId(i as u32);
            let mut sigs: Vec<u64> = g
                .incident(v)
                .iter()
                .map(|&e| edge_sig(query, v, e, bpd))
                .collect();
            sigs.sort_unstable();
            let mut h = fold(fold(0xc0_1035, zigzag(card_bucket[i])), sigs.len() as u64);
            for s in sigs {
                h = fold(h, s);
            }
            h
        })
        .collect();

    // Weisfeiler–Lehman refinement until the partition stabilizes (at
    // most n rounds: each productive round splits at least one class).
    let class_count = |cs: &[u64]| {
        let mut sorted = cs.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.len()
    };
    let mut classes = class_count(&colors);
    for _ in 0..n {
        if classes == n {
            break;
        }
        let next: Vec<u64> = (0..n)
            .map(|i| {
                let v = RelId(i as u32);
                let mut neigh: Vec<u64> = g
                    .incident(v)
                    .iter()
                    .map(|&e| {
                        let o = g.edge(e).other(v).unwrap_or(v);
                        fold(edge_sig(query, v, e, bpd), colors[o.index()])
                    })
                    .collect();
                neigh.sort_unstable();
                let mut h = fold(0x9e1f, colors[i]);
                for x in neigh {
                    h = fold(h, x);
                }
                h
            })
            .collect();
        let next_classes = class_count(&next);
        if next_classes == classes {
            break;
        }
        colors = next;
        classes = next_classes;
    }

    // Canonicalize each component independently.
    struct CompCanon {
        encoding: Vec<u64>,
        order: Vec<RelId>,
    }
    let mut comps: Vec<CompCanon> = g
        .components()
        .iter()
        .map(|comp| {
            let min_color = comp
                .iter()
                .map(|r| colors[r.index()])
                .min()
                .expect("components are non-empty");
            let mut best: Option<CompCanon> = None;
            for &root in comp.iter().filter(|r| colors[r.index()] == min_color) {
                let cand = canonical_bfs(query, root, comp, &colors, &card_bucket, bpd);
                let better = match &best {
                    None => true,
                    Some(b) => cand.0 < b.encoding,
                };
                if better {
                    best = Some(CompCanon {
                        encoding: cand.0,
                        order: cand.1,
                    });
                }
            }
            best.expect("every component has at least one minimal-color root")
        })
        .collect();

    // Component order: lexicographic by encoding, so enumeration order of
    // equal-sized components cannot leak input labels into the key.
    comps.sort_by(|a, b| a.encoding.cmp(&b.encoding));

    let mut encoding: Vec<u64> = Vec::new();
    let mut rel_of_canon: Vec<RelId> = Vec::with_capacity(n);
    encoding.push(comps.len() as u64);
    for comp in &comps {
        encoding.push(comp.encoding.len() as u64);
        encoding.extend_from_slice(&comp.encoding);
        rel_of_canon.extend_from_slice(&comp.order);
    }
    let mut canon_of_rel = vec![0u32; n];
    for (c, &r) in rel_of_canon.iter().enumerate() {
        canon_of_rel[r.index()] = c as u32;
    }
    let digest = encoding
        .iter()
        .fold(0x1705_cace_f00d_5eed_u64, |h, &v| fold(h, v));

    Fingerprinted {
        fingerprint: QueryFingerprint {
            encoding: encoding.into_boxed_slice(),
            digest,
        },
        rel_of_canon,
        canon_of_rel,
    }
}

/// Signature of `o`'s attachment to the already-placed canonical prefix:
/// the sorted multiset of `(canonical index, edge signature)` over edges
/// from `o` to placed relations, folded into one hash. Canonical indices
/// are label-independent by construction, so this key may break WL-color
/// ties without leaking input labels into the encoding.
fn placed_sig(query: &Query, o: RelId, canon: &[u32], bpd: u32) -> u64 {
    let g = query.graph();
    let mut toks: Vec<(u32, u64)> = Vec::new();
    for &e in g.incident(o) {
        if let Some(p) = g.edge(e).other(o) {
            if canon[p.index()] != u32::MAX {
                toks.push((canon[p.index()], edge_sig(query, o, e, bpd)));
            }
        }
    }
    toks.sort_unstable();
    let mut h = 0x0091_aced_u64;
    for (c, s) in toks {
        h = fold(fold(h, c as u64), s);
    }
    h
}

/// BFS over `comp` from `root`, expanding the frontier in (color,
/// edge-signature, placed-adjacency) order, producing the component's
/// token encoding and the visit order.
fn canonical_bfs(
    query: &Query,
    root: RelId,
    comp: &[RelId],
    colors: &[u64],
    card_bucket: &[i64],
    bpd: u32,
) -> (Vec<u64>, Vec<RelId>) {
    let g = query.graph();
    let n = query.n_relations();
    let mut canon = vec![u32::MAX; n];
    let mut order: Vec<RelId> = Vec::with_capacity(comp.len());
    canon[root.index()] = 0;
    order.push(root);
    let mut head = 0usize;
    while head < order.len() {
        let v = order[head];
        head += 1;
        // Unvisited neighbors of v; parallel edges fold into one
        // order-independent signature per neighbor.
        let mut raw: Vec<(RelId, u64)> = Vec::new();
        for &e in g.incident(v) {
            if let Some(o) = g.edge(e).other(v) {
                if canon[o.index()] == u32::MAX {
                    raw.push((o, edge_sig(query, o, e, bpd)));
                }
            }
        }
        raw.sort_unstable();
        let mut cands: Vec<(RelId, u64)> = Vec::new();
        for (o, sig) in raw {
            match cands.iter_mut().find(|(r, _)| *r == o) {
                Some((_, combined)) => *combined = fold(*combined, sig),
                None => cands.push((o, sig)),
            }
        }
        // Sequential selection: each pick re-keys the remaining
        // candidates by (color, folded edge signature, placed-adjacency
        // signature). The third key hashes a candidate's edges into the
        // already-built canonical prefix — *positions*, not input labels
        // — so WL-color ties are broken by how a relation attaches to
        // what has been placed so far, and each placement sharpens the
        // keys of the rest. Input labels only decide as the last resort,
        // when candidates are indistinguishable by every statistic and
        // placement the fingerprint can observe — there either pick
        // yields the same encoding, and the `RelId` fallback keeps the
        // canonical *mapping* deterministic for such interchangeable
        // relations.
        while !cands.is_empty() {
            let mut best = 0usize;
            let mut best_key = (
                colors[cands[0].0.index()],
                cands[0].1,
                placed_sig(query, cands[0].0, &canon, bpd),
                cands[0].0,
            );
            for (i, &(o, combined)) in cands.iter().enumerate().skip(1) {
                let key = (
                    colors[o.index()],
                    combined,
                    placed_sig(query, o, &canon, bpd),
                    o,
                );
                if key < best_key {
                    best = i;
                    best_key = key;
                }
            }
            let (o, _) = cands.swap_remove(best);
            canon[o.index()] = order.len() as u32;
            order.push(o);
        }
    }

    // Tokens: per-node cardinality buckets in canonical order, then the
    // sorted quantized edge list in canonical coordinates.
    let mut tokens: Vec<u64> = Vec::with_capacity(order.len() + 1);
    tokens.push(order.len() as u64);
    for &r in &order {
        tokens.push(zigzag(card_bucket[r.index()]));
    }
    let mut edge_tokens: Vec<[u64; 5]> = Vec::new();
    let mut seen_edges = std::collections::HashSet::new();
    for &r in &order {
        for &e in g.incident(r) {
            if !seen_edges.insert(e) {
                continue;
            }
            let edge = g.edge(e);
            let (ca, cb) = (canon[edge.a.index()], canon[edge.b.index()]);
            let (lo, lo_rel, hi_rel) = if ca <= cb {
                (ca, edge.a, edge.b)
            } else {
                (cb, edge.b, edge.a)
            };
            let hi = ca.max(cb);
            edge_tokens.push([
                lo as u64,
                hi as u64,
                zigzag(edge.selectivity_bucket(bpd)),
                zigzag(log_bucket(edge.distinct_on(lo_rel).unwrap_or(1.0), bpd)),
                zigzag(log_bucket(edge.distinct_on(hi_rel).unwrap_or(1.0), bpd)),
            ]);
        }
    }
    edge_tokens.sort_unstable();
    tokens.push(edge_tokens.len() as u64);
    for t in edge_tokens {
        tokens.extend_from_slice(&t);
    }
    (tokens, order)
}

/// Coarse structural shape of a join graph, from relabel-invariant
/// degree/edge counts alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShapeClass {
    /// Acyclic with maximum degree ≤ 2 (a path), or trivially small.
    Chain,
    /// Acyclic with one hub adjacent to every other relation.
    Star,
    /// Any other forest (snowflakes, general trees).
    Tree,
    /// Cyclic but sparse (average degree ≤ 3).
    SparseCyclic,
    /// Cyclic and dense (average degree > 3).
    DenseCyclic,
}

impl ShapeClass {
    /// Stable lower-case name, used in labels.
    pub fn name(self) -> &'static str {
        match self {
            ShapeClass::Chain => "chain",
            ShapeClass::Star => "star",
            ShapeClass::Tree => "tree",
            ShapeClass::SparseCyclic => "sparse",
            ShapeClass::DenseCyclic => "dense",
        }
    }
}

/// A coarse, relabel-invariant bucket of queries: many fingerprints
/// share one class. The server breaks its per-producer win counts down
/// by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryClass {
    /// Structural shape of the join graph.
    pub shape: ShapeClass,
    /// `⌊log₂ N⌋` of the relation count.
    pub n_bucket: u8,
    /// Join-graph component count, saturated at 3.
    pub components: u8,
    /// `⌊2m/N⌋` (integer average degree), saturated at 3.
    pub density_bucket: u8,
}

impl QueryClass {
    /// Human-readable label, e.g. `star/n3/c1/d1` — used in `/stats`.
    pub fn label(&self) -> String {
        format!(
            "{}/n{}/c{}/d{}",
            self.shape.name(),
            self.n_bucket,
            self.components,
            self.density_bucket
        )
    }
}

/// Compute the [`QueryClass`] of a query. Every feature is a function
/// of the degree multiset, edge count, and component structure of the
/// join graph — the structural quantities the fingerprint's color
/// refinement consumes, coarsened — so the class is invariant under
/// relation relabeling by construction (the property suite re-checks
/// this with the fingerprint's permutation harness).
pub fn classify(query: &Query) -> QueryClass {
    let g = query.graph();
    let n = g.n_relations().max(1);
    let m = g.edges().len();
    let comps = g.components().len().max(1);
    let max_deg = (0..n).map(|i| g.degree(RelId(i as u32))).max().unwrap_or(0);
    // A forest has exactly n - comps edges; parallel edges push m above.
    let forest = m + comps <= n;
    let shape = if n <= 2 {
        ShapeClass::Chain
    } else if forest {
        if max_deg <= 2 {
            ShapeClass::Chain
        } else if max_deg == n - 1 {
            ShapeClass::Star
        } else {
            ShapeClass::Tree
        }
    } else if 2 * m <= 3 * n {
        ShapeClass::SparseCyclic
    } else {
        ShapeClass::DenseCyclic
    };
    QueryClass {
        shape,
        n_bucket: (usize::BITS - 1 - n.leading_zeros()) as u8,
        components: comps.min(3) as u8,
        density_bucket: ((2 * m) / n).min(3) as u8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ljqo_catalog::{JoinEdge, QueryBuilder, Relation};

    fn chain() -> Query {
        QueryBuilder::new()
            .relation("a", 1000)
            .relation("b", 50)
            .relation("c", 7000)
            .join("a", "b", 0.01)
            .join("b", "c", 0.001)
            .build()
            .unwrap()
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let q = chain();
        let cfg = FingerprintConfig::default();
        let a = fingerprint(&q, &cfg);
        let b = fingerprint(&q, &cfg);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint().digest(), b.fingerprint().digest());
    }

    #[test]
    fn canonical_mapping_is_a_permutation() {
        let q = chain();
        let f = fingerprint(&q, &FingerprintConfig::default());
        assert_eq!(f.n_relations(), 3);
        let mut seen = [false; 3];
        for c in 0..3u32 {
            let r = f.rehydrate_order(&[c]).unwrap()[0];
            assert!(!seen[r.index()]);
            seen[r.index()] = true;
            assert_eq!(f.canonize_order(&[r]), vec![c]);
        }
    }

    #[test]
    fn rehydrate_rejects_out_of_range_indices() {
        let q = chain();
        let f = fingerprint(&q, &FingerprintConfig::default());
        assert!(f.rehydrate_order(&[0, 1, 7]).is_none());
    }

    #[test]
    fn different_structures_have_different_fingerprints() {
        let chain_q = chain();
        let star_q = QueryBuilder::new()
            .relation("a", 1000)
            .relation("b", 50)
            .relation("c", 7000)
            .join("a", "b", 0.01)
            .join("a", "c", 0.001)
            .build()
            .unwrap();
        let cfg = FingerprintConfig::default();
        // A 3-chain and a 3-star rooted at a 1000-tuple hub differ:
        // degrees (1,2,1) vs (2,1,1) attach to different card buckets.
        assert_ne!(
            fingerprint(&chain_q, &cfg).fingerprint(),
            fingerprint(&star_q, &cfg).fingerprint()
        );
    }

    #[test]
    fn coarser_buckets_collapse_more_queries() {
        // Statistics chosen so that every derived stat (cards, selectivity,
        // and the 1/sel-derived distinct counts) agrees at one bucket per
        // decade but the cardinalities split at 16 buckets per decade.
        let a = QueryBuilder::new()
            .relation("x", 1000)
            .relation("y", 50)
            .join("x", "y", 0.02)
            .build()
            .unwrap();
        let b = QueryBuilder::new()
            .relation("x", 1400)
            .relation("y", 55)
            .join("x", "y", 0.03)
            .build()
            .unwrap();
        let coarse = FingerprintConfig {
            buckets_per_decade: 1,
        };
        let fine = FingerprintConfig {
            buckets_per_decade: 16,
        };
        assert_eq!(
            fingerprint(&a, &coarse).fingerprint(),
            fingerprint(&b, &coarse).fingerprint()
        );
        assert_ne!(
            fingerprint(&a, &fine).fingerprint(),
            fingerprint(&b, &fine).fingerprint()
        );
    }

    fn query_of(n: usize, edges: &[(u32, u32)]) -> Query {
        let relations: Vec<Relation> = (0..n)
            .map(|i| Relation::new(format!("r{i}"), 1000 + i as u64))
            .collect();
        let edges: Vec<JoinEdge> = edges
            .iter()
            .map(|&(a, b)| JoinEdge::new(a, b, 0.01, 10.0, 10.0))
            .collect();
        Query::new(relations, edges).unwrap()
    }

    #[test]
    fn classify_separates_the_basic_shapes() {
        let chain = query_of(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let star = query_of(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let tree = query_of(6, &[(0, 1), (0, 2), (1, 3), (1, 4), (4, 5)]);
        let cycle = query_of(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(classify(&chain).shape, ShapeClass::Chain);
        assert_eq!(classify(&star).shape, ShapeClass::Star);
        assert_eq!(classify(&tree).shape, ShapeClass::Tree);
        assert_eq!(classify(&cycle).shape, ShapeClass::SparseCyclic);
        assert_eq!(classify(&chain).n_bucket, 2); // ⌊log₂ 5⌋
        assert_eq!(classify(&chain).components, 1);
    }
}
