//! Learned portfolio routing: a contextual UCB bandit over fingerprint
//! feature classes.
//!
//! The paper's central observation is that no single randomized method
//! (II / SA / AGI / KBZ-seeded II) dominates across query shapes — which
//! is why the parallel driver runs a heterogeneous *portfolio*. But a
//! uniform budget split wastes most of the budget on methods that
//! reliably lose for a given query class. This module closes the loop:
//!
//! * [`classify`] maps a query to a coarse, **relabel-invariant**
//!   [`QueryClass`] — graph-shape class, log₂-bucketed relation count,
//!   component count, and an edge-density bucket. These are the same
//!   structural quantities the fingerprint's WL color refinement
//!   consumes (degree multisets, component structure), coarsened so a
//!   class aggregates many fingerprints.
//! * [`BanditRouter`] keeps per-class, per-method reward statistics
//!   (normalized cost improvement at the granted budget, winner
//!   identity, unit spend) and emits a **budget-share vector** for the
//!   portfolio: every method keeps a mandatory ε-floor share and the
//!   UCB-best method receives the rest.
//!
//! # The never-worse contract
//!
//! Shares are uniform until a class has seen
//! [`RouterConfig::min_events`] outcomes, so a cold router is
//! *bit-identical* to the uniform portfolio. Once warm, every method
//! still receives at least `ε` of the budget (ε ≤ 1/K, so the boosted
//! method always holds at least its uniform share `1/K`). The portfolio
//! methods are anytime searches whose best-so-far is monotone
//! non-increasing in their budget share at a fixed seed, so whenever
//! the router's boosted method is the one that would win the uniform
//! split — which is exactly what the per-class winner statistics
//! converge to — the routed result is never worse than the uniform
//! result at equal total budget. The property suite
//! (`ljqo/tests/router_props.rs`) and the `routing` bench assert this
//! on seeded grids rather than trusting the argument.
//!
//! # Persistence
//!
//! Router state survives restarts via a small versioned text format
//! ([`BanditRouter::save`] / [`BanditRouter::load`]). Loading is
//! corruption-tolerant by contract: a truncated, garbled, or
//! version-bumped file (or one recorded for a different arm set) yields
//! a fresh uniform router with [`BanditRouter::resets`] incremented —
//! never an error, because routing is an optimization, not a
//! correctness dependency.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ljqo_catalog::{Query, RelId};

/// Version tag of the persisted state format. Bumping it invalidates
/// every existing state file (they reload as a counted reset).
pub const ROUTER_STATE_VERSION: u32 = 1;

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
    /// Stable lower-case name, used in labels and the state file.
    pub fn name(self) -> &'static str {
        match self {
            ShapeClass::Chain => "chain",
            ShapeClass::Star => "star",
            ShapeClass::Tree => "tree",
            ShapeClass::SparseCyclic => "sparse",
            ShapeClass::DenseCyclic => "dense",
        }
    }

    fn parse(s: &str) -> Option<ShapeClass> {
        [
            ShapeClass::Chain,
            ShapeClass::Star,
            ShapeClass::Tree,
            ShapeClass::SparseCyclic,
            ShapeClass::DenseCyclic,
        ]
        .into_iter()
        .find(|c| c.name() == s)
    }
}

/// The router's context key: a coarse, relabel-invariant bucket of
/// queries expected to favor the same portfolio split.
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
    /// Human-readable label, e.g. `star/n3/c1/d1` — used in `/stats`
    /// and logs. The state file stores the fields, not the label.
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
/// join graph, so the class is invariant under relation relabeling by
/// construction (the property suite re-checks this with the same
/// permutation harness the fingerprint uses).
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

/// Tuning knobs of the [`BanditRouter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterConfig {
    /// Mandatory exploration floor: every method's budget share is at
    /// least `epsilon` once the router leaves uniform. Clamped to
    /// `[0, 1/K]` at share time, so the boosted method always keeps at
    /// least its uniform share `1/K` — the never-worse precondition.
    pub epsilon: f64,
    /// UCB exploration coefficient (`mean + c·√(ln T / nᵢ)`).
    pub ucb_c: f64,
    /// Outcomes a class must accumulate before its shares leave the
    /// uniform split. Below this the router is bit-identical to
    /// uniform sharding.
    pub min_events: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            epsilon: 0.125,
            ucb_c: 0.5,
            min_events: 8,
        }
    }
}

/// Per-class, per-method reward statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ArmStats {
    /// Outcomes observed for this arm.
    pulls: u64,
    /// Sum of normalized rewards in `[0, 1]`.
    reward_sum: f64,
    /// Outcomes where this arm produced the winning plan.
    wins: u64,
    /// Budget units this arm has consumed across its pulls.
    units: u64,
}

/// A contextual UCB bandit allocating portfolio budget shares per
/// [`QueryClass`]. Interior-mutable and `Sync`: one router is shared
/// process-wide by a serving daemon, updated online from every
/// portfolio outcome.
pub struct BanditRouter {
    config: RouterConfig,
    arms: Vec<String>,
    buckets: Mutex<BTreeMap<QueryClass, Vec<ArmStats>>>,
    resets: AtomicU64,
}

impl std::fmt::Debug for BanditRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BanditRouter")
            .field("arms", &self.arms)
            .field("classes", &self.buckets.lock().unwrap().len())
            .field("resets", &self.resets.load(Ordering::Relaxed))
            .finish()
    }
}

/// Point-in-time view of one class's statistics (for `/stats` and
/// tests). Vectors are indexed like the router's arm list.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSnapshot {
    /// The class key.
    pub class: QueryClass,
    /// `class.label()`, precomputed for display.
    pub label: String,
    /// Outcomes recorded for the class (max over arms).
    pub events: u64,
    /// Per-arm pull counts.
    pub pulls: Vec<u64>,
    /// Per-arm mean normalized reward (`0` before any pull).
    pub mean_reward: Vec<f64>,
    /// Per-arm win counts.
    pub wins: Vec<u64>,
    /// Per-arm budget units consumed.
    pub units: Vec<u64>,
    /// The share vector the router would emit for this class right now.
    pub shares: Vec<f64>,
}

/// Point-in-time view of the whole router.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterSnapshot {
    /// Arm labels, in share-vector order.
    pub arms: Vec<String>,
    /// Effective exploration floor.
    pub epsilon: f64,
    /// Times a state load degraded to uniform (corrupt/stale file).
    pub resets: u64,
    /// One entry per class seen, in deterministic class order.
    pub classes: Vec<ClassSnapshot>,
}

impl BanditRouter {
    /// A fresh router over the given arm labels (one per portfolio
    /// method, in rotation order).
    pub fn new(arms: &[&str], config: RouterConfig) -> Self {
        assert!(!arms.is_empty(), "router needs at least one arm");
        BanditRouter {
            config,
            arms: arms.iter().map(|s| s.to_string()).collect(),
            buckets: Mutex::new(BTreeMap::new()),
            resets: AtomicU64::new(0),
        }
    }

    /// Number of arms (portfolio methods).
    pub fn n_arms(&self) -> usize {
        self.arms.len()
    }

    /// Arm labels, in share-vector order.
    pub fn arms(&self) -> &[String] {
        &self.arms
    }

    /// The configuration this router runs with.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Times a [`BanditRouter::load`] degraded to uniform because the
    /// state file was unreadable, truncated, garbled, version-bumped,
    /// or recorded for a different arm set.
    pub fn resets(&self) -> u64 {
        self.resets.load(Ordering::Relaxed)
    }

    /// The exploration floor actually applied: `epsilon` clamped to
    /// `[0, 1/K]` (so the boosted arm never drops below uniform).
    pub fn effective_epsilon(&self) -> f64 {
        let k = self.arms.len() as f64;
        self.config.epsilon.clamp(0.0, 1.0 / k)
    }

    /// The budget-share vector for `class`: uniform until the class
    /// has [`RouterConfig::min_events`] outcomes, then `ε` for every
    /// arm and `1 − (K−1)·ε` for the arm with the highest UCB score
    /// (ties broken toward the lowest arm index, mirroring the
    /// portfolio's lowest-worker-index tie-break). Deterministic in
    /// the recorded event sequence; always sums to 1 with every entry
    /// ≥ the effective ε.
    pub fn shares(&self, class: &QueryClass) -> Vec<f64> {
        let k = self.arms.len();
        let uniform = vec![1.0 / k as f64; k];
        let buckets = self.buckets.lock().unwrap();
        let Some(arms) = buckets.get(class) else {
            return uniform;
        };
        let events = arms.iter().map(|a| a.pulls).max().unwrap_or(0);
        if events < self.config.min_events {
            return uniform;
        }
        let top = self.top_arm(arms);
        let eps = self.effective_epsilon();
        let mut shares = vec![eps; k];
        shares[top] = 1.0 - eps * (k as f64 - 1.0);
        shares
    }

    /// UCB argmax over one class's arms; strict `>` breaks ties toward
    /// the lowest arm index.
    fn top_arm(&self, arms: &[ArmStats]) -> usize {
        let total: f64 = arms.iter().map(|a| a.pulls as f64).sum::<f64>().max(1.0);
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (i, a) in arms.iter().enumerate() {
            let p = a.pulls.max(1) as f64;
            let mean = a.reward_sum / p;
            let bonus = self.config.ucb_c * (total.ln().max(0.0) / p).sqrt();
            let score = mean + bonus;
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        best
    }

    /// Record one portfolio outcome for `class`.
    ///
    /// `arm_costs[i]` is arm `i`'s own best cost in the run (`None` if
    /// it produced no state); `arm_units[i]` its budget spend; `winner`
    /// the arm that produced the winning plan (`None` when an outside
    /// challenger such as CARDFREE won). Rewards are normalized per
    /// outcome: the best arm of the run scores 1, the worst 0, the
    /// rest linearly in between (all 1 when every arm tied), so
    /// classes with wildly different absolute costs are comparable.
    pub fn record_outcome(
        &self,
        class: &QueryClass,
        arm_costs: &[Option<f64>],
        arm_units: &[u64],
        winner: Option<usize>,
    ) {
        let k = self.arms.len();
        assert_eq!(arm_costs.len(), k, "one cost slot per arm");
        assert_eq!(arm_units.len(), k, "one unit slot per arm");
        let finite: Vec<f64> = arm_costs
            .iter()
            .flatten()
            .copied()
            .filter(|c| c.is_finite())
            .collect();
        if finite.is_empty() {
            return; // nothing observed; an all-panic run teaches nothing
        }
        let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut buckets = self.buckets.lock().unwrap();
        let arms = buckets
            .entry(*class)
            .or_insert_with(|| vec![ArmStats::default(); k]);
        for i in 0..k {
            let Some(cost) = arm_costs[i].filter(|c| c.is_finite()) else {
                continue;
            };
            let reward = if hi > lo {
                (hi - cost) / (hi - lo)
            } else {
                1.0
            };
            arms[i].pulls += 1;
            arms[i].reward_sum += reward;
            arms[i].units += arm_units[i];
        }
        if let Some(w) = winner {
            if w < k {
                arms[w].wins += 1;
            }
        }
    }

    /// A deterministic point-in-time snapshot of every class.
    pub fn snapshot(&self) -> RouterSnapshot {
        let buckets = self.buckets.lock().unwrap();
        let classes = buckets
            .iter()
            .map(|(class, arms)| {
                let events = arms.iter().map(|a| a.pulls).max().unwrap_or(0);
                let shares = if events < self.config.min_events {
                    vec![1.0 / self.arms.len() as f64; self.arms.len()]
                } else {
                    let top = self.top_arm(arms);
                    let eps = self.effective_epsilon();
                    let mut s = vec![eps; self.arms.len()];
                    s[top] = 1.0 - eps * (self.arms.len() as f64 - 1.0);
                    s
                };
                ClassSnapshot {
                    class: *class,
                    label: class.label(),
                    events,
                    pulls: arms.iter().map(|a| a.pulls).collect(),
                    mean_reward: arms
                        .iter()
                        .map(|a| {
                            if a.pulls == 0 {
                                0.0
                            } else {
                                a.reward_sum / a.pulls as f64
                            }
                        })
                        .collect(),
                    wins: arms.iter().map(|a| a.wins).collect(),
                    units: arms.iter().map(|a| a.units).collect(),
                    shares,
                }
            })
            .collect();
        RouterSnapshot {
            arms: self.arms.clone(),
            epsilon: self.effective_epsilon(),
            resets: self.resets(),
            classes,
        }
    }

    // --- Persistence -----------------------------------------------------

    /// Serialize the router state to `path` (versioned text format).
    /// The write goes through a sibling temp file, flushed to disk with
    /// `sync_all` before the rename, so neither a crash mid-save nor a
    /// power loss after it can leave an empty or partial primary file.
    /// The parent directory is synced after the rename, so the new file
    /// replaces the old one durably.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        out.push_str(&format!("ljqo-router v{ROUTER_STATE_VERSION}\n"));
        out.push_str(&format!("arms {}\n", self.arms.join(" ")));
        out.push_str(&format!("resets {}\n", self.resets()));
        let buckets = self.buckets.lock().unwrap();
        out.push_str(&format!("classes {}\n", buckets.len()));
        for (class, arms) in buckets.iter() {
            out.push_str(&format!(
                "class {} {} {} {}",
                class.shape.name(),
                class.n_bucket,
                class.components,
                class.density_bucket
            ));
            for a in arms {
                // `{:?}` prints the shortest f64 that round-trips, so a
                // save/load cycle is a bitwise identity.
                out.push_str(&format!(
                    " {} {:?} {} {}",
                    a.pulls, a.reward_sum, a.wins, a.units
                ));
            }
            out.push('\n');
        }
        out.push_str(&format!("end {}\n", buckets.len()));
        drop(buckets);
        let tmp = path.with_extension("tmp");
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(out.as_bytes())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        // The new name is an entry of the parent directory: sync the
        // directory too, or a power loss can undo the rename.
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)?.sync_all()
    }

    /// Load router state from `path` for the given arm set.
    ///
    /// *Missing file*: a fresh uniform router (not a reset — first boot
    /// is normal). *Unreadable, truncated, garbled, version-bumped, or
    /// arm-mismatched file*: a fresh uniform router with
    /// [`BanditRouter::resets`] set to the persisted count plus one
    /// when recoverable, else one — never an error.
    pub fn load(path: &Path, arms: &[&str], config: RouterConfig) -> BanditRouter {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return BanditRouter::new(arms, config);
            }
            Err(_) => {
                let r = BanditRouter::new(arms, config);
                r.resets.store(1, Ordering::Relaxed);
                return r;
            }
        };
        match Self::parse_state(&text, arms, config) {
            Some(router) => router,
            None => {
                // Corrupt in some way; preserve the old reset count when
                // the header was still readable so operators see the
                // cumulative figure.
                let prior = Self::salvage_resets(&text).unwrap_or(0);
                let r = BanditRouter::new(arms, config);
                r.resets.store(prior + 1, Ordering::Relaxed);
                r
            }
        }
    }

    /// Best-effort read of the `resets` header from a corrupt file.
    fn salvage_resets(text: &str) -> Option<u64> {
        for line in text.lines().take(4) {
            if let Some(rest) = line.strip_prefix("resets ") {
                return rest.trim().parse().ok();
            }
        }
        None
    }

    /// Strict parse of the state format; any anomaly returns `None`.
    fn parse_state(text: &str, arms: &[&str], config: RouterConfig) -> Option<BanditRouter> {
        let mut lines = text.lines();
        let header = lines.next()?;
        if header != format!("ljqo-router v{ROUTER_STATE_VERSION}") {
            return None;
        }
        let arms_line = lines.next()?.strip_prefix("arms ")?;
        let file_arms: Vec<&str> = arms_line.split_whitespace().collect();
        if file_arms != arms {
            return None;
        }
        let resets: u64 = lines.next()?.strip_prefix("resets ")?.trim().parse().ok()?;
        let n_classes: usize = lines
            .next()?
            .strip_prefix("classes ")?
            .trim()
            .parse()
            .ok()?;
        let k = arms.len();
        let mut buckets = BTreeMap::new();
        for _ in 0..n_classes {
            let line = lines.next()?;
            let mut tok = line.strip_prefix("class ")?.split_whitespace();
            let class = QueryClass {
                shape: ShapeClass::parse(tok.next()?)?,
                n_bucket: tok.next()?.parse().ok()?,
                components: tok.next()?.parse().ok()?,
                density_bucket: tok.next()?.parse().ok()?,
            };
            let mut stats = Vec::with_capacity(k);
            for _ in 0..k {
                stats.push(ArmStats {
                    pulls: tok.next()?.parse().ok()?,
                    reward_sum: tok.next()?.parse().ok()?,
                    wins: tok.next()?.parse().ok()?,
                    units: tok.next()?.parse().ok()?,
                });
            }
            if tok.next().is_some() {
                return None; // trailing junk on the class line
            }
            if buckets.insert(class, stats).is_some() {
                return None; // duplicate class
            }
        }
        // The trailer re-states the class count: a file truncated at a
        // line boundary (which parses cleanly line-by-line) still fails
        // here.
        if lines.next()? != format!("end {n_classes}") {
            return None;
        }
        if lines.next().is_some() {
            return None;
        }
        let router = BanditRouter::new(arms, config);
        router.resets.store(resets, Ordering::Relaxed);
        *router.buckets.lock().unwrap() = buckets;
        Some(router)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ljqo_catalog::{JoinEdge, Query, Relation};

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

    #[test]
    fn shares_stay_uniform_until_min_events_then_boost_the_best_arm() {
        let r = BanditRouter::new(&["II", "SA", "AGI", "KBI"], RouterConfig::default());
        let class = QueryClass {
            shape: ShapeClass::Star,
            n_bucket: 3,
            components: 1,
            density_bucket: 1,
        };
        assert_eq!(r.shares(&class), vec![0.25; 4]);
        // Arm 2 (AGI) consistently wins.
        for _ in 0..8 {
            r.record_outcome(
                &class,
                &[Some(100.0), Some(90.0), Some(10.0), Some(80.0)],
                &[25, 25, 25, 25],
                Some(2),
            );
        }
        let shares = r.shares(&class);
        assert_eq!(shares[2], 1.0 - 3.0 * 0.125);
        assert_eq!(shares[0], 0.125);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // A different class stays uniform.
        let other = QueryClass {
            shape: ShapeClass::Chain,
            ..class
        };
        assert_eq!(r.shares(&other), vec![0.25; 4]);
    }

    #[test]
    fn epsilon_is_clamped_so_the_boosted_arm_keeps_its_uniform_share() {
        let config = RouterConfig {
            epsilon: 0.9, // nonsense; must clamp to 1/K
            ..RouterConfig::default()
        };
        let r = BanditRouter::new(&["II", "SA"], config);
        assert_eq!(r.effective_epsilon(), 0.5);
        let class = classify(&query_of(4, &[(0, 1), (1, 2), (2, 3)]));
        for _ in 0..8 {
            r.record_outcome(&class, &[Some(1.0), Some(2.0)], &[10, 10], Some(0));
        }
        // Clamped ε = 1/K means the "boost" degenerates to uniform —
        // the router can never starve the best-known method.
        assert_eq!(r.shares(&class), vec![0.5, 0.5]);
    }

    #[test]
    fn ties_break_toward_the_lowest_arm_index() {
        let r = BanditRouter::new(&["II", "SA", "AGI"], RouterConfig::default());
        let class = classify(&query_of(4, &[(0, 1), (1, 2), (2, 3)]));
        for _ in 0..8 {
            r.record_outcome(
                &class,
                &[Some(5.0), Some(5.0), Some(5.0)],
                &[10, 10, 10],
                Some(0),
            );
        }
        let shares = r.shares(&class);
        assert!(shares[0] > shares[1]);
        assert_eq!(shares[1], shares[2]);
    }

    #[test]
    fn all_panic_outcomes_teach_nothing() {
        let r = BanditRouter::new(&["II", "SA"], RouterConfig::default());
        let class = classify(&query_of(3, &[(0, 1), (1, 2)]));
        r.record_outcome(&class, &[None, None], &[0, 0], None);
        assert!(r.snapshot().classes.is_empty());
    }
}
