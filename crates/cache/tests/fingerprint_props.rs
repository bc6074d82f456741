//! Property-style tests for the query fingerprint.
//!
//! The repository builds offline, so instead of a property-testing crate
//! these are seeded-RNG loops (the same idiom as the workspace's other
//! `*_props.rs` suites): each case derives its own deterministic seed, so
//! failures reproduce exactly.
//!
//! The three properties under test are the fingerprint's contract:
//!
//! 1. relabeling the relations of a query NEVER changes its fingerprint
//!    (nor its coarse `classify` class);
//! 2. perturbing one cardinality beyond one log-bucket width ALWAYS
//!    changes it;
//! 3. perturbing one cardinality within its log bucket NEVER changes it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ljqo_cache::{classify, fingerprint, FingerprintConfig};
use ljqo_catalog::quant::log_bucket;
use ljqo_catalog::{JoinEdge, Query, RelId, Relation};
use ljqo_workload::{generate_query, Benchmark};

const CASES: u64 = 64;
const BPDS: [u32; 3] = [1, 4, 16];

/// A random connected query with explicit edge statistics, so that
/// perturbing a relation's cardinality changes *only* that cardinality
/// (the `QueryBuilder::join` shorthand derives distinct counts from
/// cardinalities, which would couple the statistics).
fn random_query(rng: &mut SmallRng) -> Query {
    let n = rng.gen_range(3usize..10);
    let relations: Vec<Relation> = (0..n)
        .map(|i| Relation::new(format!("r{i}"), rng.gen_range(10u64..1_000_000)))
        .collect();
    let mut edges = Vec::new();
    for i in 1..n {
        let j = rng.gen_range(0..i) as u32;
        edges.push(JoinEdge::new(
            j,
            i as u32,
            10f64.powf(rng.gen_range(-4.0..-0.3)),
            rng.gen_range(2.0..1000.0f64).floor(),
            rng.gen_range(2.0..1000.0f64).floor(),
        ));
    }
    // A few extra (possibly parallel) edges to exercise cyclic graphs.
    for _ in 0..rng.gen_range(0usize..3) {
        let a = rng.gen_range(0..n) as u32;
        let b = rng.gen_range(0..n) as u32;
        if a != b {
            edges.push(JoinEdge::new(
                a,
                b,
                10f64.powf(rng.gen_range(-3.0..-0.5)),
                rng.gen_range(2.0..500.0f64).floor(),
                rng.gen_range(2.0..500.0f64).floor(),
            ));
        }
    }
    Query::new(relations, edges).unwrap()
}

/// Rebuild `query` with its relations re-indexed by `perm`
/// (`perm[old] = new`), edges remapped accordingly.
fn permuted(query: &Query, perm: &[usize]) -> Query {
    let n = query.n_relations();
    let mut relations: Vec<Option<Relation>> = vec![None; n];
    for (old, r) in query.relations().iter().enumerate() {
        relations[perm[old]] = Some(r.clone());
    }
    let relations: Vec<Relation> = relations.into_iter().map(Option::unwrap).collect();
    let edges: Vec<JoinEdge> = query
        .graph()
        .edges()
        .iter()
        .map(|e| JoinEdge {
            a: RelId(perm[e.a.index()] as u32),
            b: RelId(perm[e.b.index()] as u32),
            ..*e
        })
        .collect();
    Query::new(relations, edges).unwrap()
}

/// Rebuild `query` with one relation's base cardinality replaced.
fn with_cardinality(query: &Query, rel: usize, card: u64) -> Query {
    let mut relations = query.relations().to_vec();
    relations[rel].base_cardinality = card;
    Query::new(relations, query.graph().edges().to_vec()).unwrap()
}

fn shuffled_identity(n: usize, rng: &mut SmallRng) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    perm
}

#[test]
fn relabeling_never_changes_the_fingerprint() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xf19e_0001 ^ case);
        let q = random_query(&mut rng);
        let perm = shuffled_identity(q.n_relations(), &mut rng);
        let p = permuted(&q, &perm);
        for bpd in BPDS {
            let cfg = FingerprintConfig {
                buckets_per_decade: bpd,
            };
            let fq = fingerprint(&q, &cfg);
            let fp = fingerprint(&p, &cfg);
            assert_eq!(
                fq.fingerprint(),
                fp.fingerprint(),
                "case {case} bpd {bpd}: permutation changed the fingerprint"
            );
        }
    }
}

/// Relabeling the relations of a query never changes its coarse
/// [`classify`] class either.
#[test]
fn class_assignment_is_relabel_invariant() {
    /// A random connected graph with uniform edge statistics, plus a few
    /// extra edges for cycles: only the shape matters to the class.
    fn random_graph(rng: &mut SmallRng) -> Query {
        let n = rng.gen_range(3usize..12);
        let relations: Vec<Relation> = (0..n)
            .map(|i| Relation::new(format!("r{i}"), rng.gen_range(10u64..1_000_000)))
            .collect();
        let mut edges = Vec::new();
        for i in 1..n {
            let j = rng.gen_range(0..i) as u32;
            edges.push(JoinEdge::new(j, i as u32, 0.01, 10.0, 10.0));
        }
        for _ in 0..rng.gen_range(0usize..4) {
            let a = rng.gen_range(0..n) as u32;
            let b = rng.gen_range(0..n) as u32;
            if a != b {
                edges.push(JoinEdge::new(a, b, 0.02, 5.0, 5.0));
            }
        }
        Query::new(relations, edges).unwrap()
    }

    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x0b5e_000a ^ case);
        let q = random_graph(&mut rng);
        let perm = shuffled_identity(q.n_relations(), &mut rng);
        assert_eq!(
            classify(&q),
            classify(&permuted(&q, &perm)),
            "case {case}: relabeling changed the query class"
        );
    }
}

#[test]
fn relabeling_generated_benchmark_queries_is_invariant() {
    // Same property over the paper's own workload generator, which
    // produces correlated statistics the hand-rolled generator does not.
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xf19e_0002 ^ case);
        let q = generate_query(
            &Benchmark::Default.spec(),
            rng.gen_range(4usize..14),
            case.wrapping_mul(0x9e37),
        );
        let perm = shuffled_identity(q.n_relations(), &mut rng);
        let p = permuted(&q, &perm);
        let cfg = FingerprintConfig::default();
        assert_eq!(
            fingerprint(&q, &cfg).fingerprint(),
            fingerprint(&p, &cfg).fingerprint(),
            "case {case}: permutation changed the fingerprint"
        );
    }
}

/// Uniform-statistics catalogs of `n` relations with heavy structural
/// symmetry: every relation shares one cardinality and every edge one
/// selectivity, so WL colors tie across whole orbits and the canonical
/// BFS must break every tie without consulting input labels.
fn symmetric_query(kind: usize, n: usize) -> Query {
    let relations: Vec<Relation> = (0..n)
        .map(|i| Relation::new(format!("r{i}"), 1000))
        .collect();
    let edge = |a: usize, b: usize| JoinEdge::new(a as u32, b as u32, 0.01, 10.0, 10.0);
    let mut edges = Vec::new();
    match kind {
        // A star: n-1 interchangeable leaves.
        0 => {
            for i in 1..n {
                edges.push(edge(0, i));
            }
        }
        // A circulant C_n(1, 2): 4-regular, vertex-transitive, every
        // color ties with every other.
        1 => {
            for i in 0..n {
                edges.push(edge(i, (i + 1) % n));
                edges.push(edge(i, (i + 2) % n));
            }
        }
        // A 10 x (n/10) grid: corner/border/interior orbits, plus
        // reflection symmetries within each.
        _ => {
            let w = 10usize;
            let h = n / w;
            for r in 0..h {
                for c in 0..w {
                    let v = r * w + c;
                    if c + 1 < w {
                        edges.push(edge(v, v + 1));
                    }
                    if r + 1 < h {
                        edges.push(edge(v, v + w));
                    }
                }
            }
        }
    }
    Query::new(relations, edges).unwrap()
}

#[test]
fn relabeling_is_invariant_at_n100_under_heavy_symmetry() {
    // The large-N stress of the relabeling property: at N = 100 with
    // uniform statistics, WL refinement leaves large color-tied orbits,
    // and the BFS placed-adjacency tie-break is all that stands between
    // the encoding and the input labels. Several random permutations per
    // structure.
    for kind in 0..3usize {
        let q = symmetric_query(kind, 100);
        let cfg = FingerprintConfig::default();
        let base = fingerprint(&q, &cfg);
        for round in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(0xf19e_0100 ^ (kind as u64) << 8 ^ round);
            let perm = shuffled_identity(q.n_relations(), &mut rng);
            let p = permuted(&q, &perm);
            let fp = fingerprint(&p, &cfg);
            assert_eq!(
                base.fingerprint(),
                fp.fingerprint(),
                "kind {kind} round {round}: permutation changed the N=100 fingerprint"
            );
            // The canonical mapping must remain a permutation at this
            // size (every relation reachable, none duplicated).
            let mut seen = vec![false; q.n_relations()];
            for c in 0..q.n_relations() as u32 {
                let r = fp.rehydrate_order(&[c]).unwrap()[0];
                assert!(
                    !seen[r.index()],
                    "kind {kind}: canonical index {c} duplicated"
                );
                seen[r.index()] = true;
            }
        }
    }
}

#[test]
fn perturbing_cardinality_beyond_one_bucket_always_changes() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xf19e_0003 ^ case);
        let q = random_query(&mut rng);
        let rel = rng.gen_range(0..q.n_relations());
        for bpd in BPDS {
            let cfg = FingerprintConfig {
                buckets_per_decade: bpd,
            };
            let old = q.relations()[rel].base_cardinality;
            // Two full bucket widths up: strictly beyond one width, so
            // the bucket index must move regardless of where in its
            // bucket `old` sits.
            let new = (old as f64 * 10f64.powf(2.0 / bpd as f64)).ceil() as u64;
            assert_ne!(
                log_bucket(old as f64, bpd),
                log_bucket(new as f64, bpd),
                "test premise: buckets must differ"
            );
            let p = with_cardinality(&q, rel, new);
            assert_ne!(
                fingerprint(&q, &cfg).fingerprint(),
                fingerprint(&p, &cfg).fingerprint(),
                "case {case} bpd {bpd}: {old} -> {new} did not change the fingerprint"
            );
        }
    }
}

#[test]
fn perturbing_cardinality_within_a_bucket_never_changes() {
    let mut tested = 0u32;
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xf19e_0004 ^ case);
        let q = random_query(&mut rng);
        let rel = rng.gen_range(0..q.n_relations());
        for bpd in BPDS {
            let cfg = FingerprintConfig {
                buckets_per_decade: bpd,
            };
            let old = q.relations()[rel].base_cardinality;
            // Nudge up by one tuple at a time while staying in the same
            // bucket; wide buckets (cards ≥ 10) almost always admit one.
            let Some(new) = (old + 1..old + 16)
                .find(|&c| log_bucket(c as f64, bpd) == log_bucket(old as f64, bpd))
            else {
                continue; // old sat at the very top of its bucket
            };
            let p = with_cardinality(&q, rel, new);
            assert_eq!(
                fingerprint(&q, &cfg).fingerprint(),
                fingerprint(&p, &cfg).fingerprint(),
                "case {case} bpd {bpd}: within-bucket {old} -> {new} changed the fingerprint"
            );
            tested += 1;
        }
    }
    assert!(tested > CASES as u32, "too many cases skipped: {tested}");
}

#[test]
fn perturbing_selectivity_across_a_bucket_changes() {
    // Companion property on the edge statistics: a selectivity moved two
    // bucket widths must change the fingerprint too.
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xf19e_0005 ^ case);
        let q = random_query(&mut rng);
        let edge = rng.gen_range(0..q.graph().edges().len());
        let cfg = FingerprintConfig::default();
        let mut edges = q.graph().edges().to_vec();
        let old = edges[edge].selectivity;
        let new = (old * 10f64.powf(2.0 / cfg.buckets_per_decade as f64)).min(1.0);
        if log_bucket(new, cfg.buckets_per_decade) == log_bucket(old, cfg.buckets_per_decade) {
            continue; // clamped into the same bucket at the top of (0, 1]
        }
        edges[edge].selectivity = new;
        let p = Query::new(q.relations().to_vec(), edges).unwrap();
        assert_ne!(
            fingerprint(&q, &cfg).fingerprint(),
            fingerprint(&p, &cfg).fingerprint(),
            "case {case}: selectivity {old} -> {new} did not change the fingerprint"
        );
    }
}
