//! The experiment grid: queries × methods × time limits, run in parallel.

use std::sync::Mutex;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use ljqo::eval::{mean_scaled_cost, per_query_best};
use ljqo::{Method, MethodRunner};
use ljqo_cost::{CostModel, DiskCostModel, Evaluator, MemoryCostModel, TimeLimit};
use ljqo_heuristics::{AugmentationCriterion, AugmentationHeuristic, KbzHeuristic, MstWeight};
use ljqo_workload::{generate_query, Benchmark};

/// Which cost model to evaluate under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Main-memory hash-join model (the paper's default).
    Memory,
    /// Disk-based hash-join model (paper §6.2).
    Disk,
}

impl ModelKind {
    /// Instantiate the model with default parameters.
    pub fn model(self) -> Box<dyn CostModel + Send> {
        match self {
            ModelKind::Memory => Box::new(MemoryCostModel::default()),
            ModelKind::Disk => Box::new(DiskCostModel::default()),
        }
    }
}

/// A column of the experiment: either one of the paper's nine methods, or
/// a *pure heuristic* run repeatedly over its finite set of states (used
/// by Tables 1 and 2, which compare heuristic variations in isolation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HeuristicKind {
    /// One of the nine composite methods.
    Method(Method),
    /// Pure augmentation with the given `chooseNext` criterion.
    Augmentation(AugmentationCriterion),
    /// Pure KBZ with the given spanning-tree weight.
    Kbz(MstWeight),
}

impl HeuristicKind {
    /// Display label.
    pub fn label(&self) -> String {
        match self {
            HeuristicKind::Method(m) => m.name().to_string(),
            HeuristicKind::Augmentation(c) => format!("aug-{}", c.number()),
            HeuristicKind::Kbz(w) => format!("kbz-{}", w.criterion_number()),
        }
    }
}

/// Specification of one experiment grid.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Columns to compare.
    pub columns: Vec<HeuristicKind>,
    /// Join counts; each gets `queries_per_n` distinct queries.
    pub ns: Vec<usize>,
    /// Queries per join count (paper: 50).
    pub queries_per_n: usize,
    /// Replicates per query, averaged (paper: 2).
    pub replicates: usize,
    /// Time-limit multipliers `τ`, ascending; the last is the scaling
    /// reference (paper: 9).
    pub taus: Vec<f64>,
    /// Budget units per `N²`.
    pub kappa: f64,
    /// Benchmark generating the queries.
    pub benchmark: Benchmark,
    /// Cost model.
    pub model: ModelKind,
    /// Base RNG seed; every (query, replicate) derives its own.
    pub base_seed: u64,
    /// Method parameters.
    pub runner: MethodRunner,
    /// Extra columns (run at the final τ only) folded into the scaling
    /// reference but not reported — Tables 1 and 2 scale heuristic results
    /// against the best the *methods* can do.
    pub reference_methods: Vec<Method>,
}

impl GridSpec {
    /// A spec with the paper's Figure 4 defaults (except scaled-down query
    /// counts; see [`GridSpec::paper_scale`]).
    pub fn new(columns: Vec<HeuristicKind>) -> Self {
        GridSpec {
            columns,
            ns: vec![10, 20, 30, 40, 50],
            queries_per_n: 5,
            replicates: 1,
            taus: vec![0.3, 0.6, 0.9, 1.5, 3.0, 6.0, 9.0],
            kappa: 5.0,
            benchmark: Benchmark::Default,
            model: ModelKind::Memory,
            base_seed: 0x5eed,
            runner: MethodRunner::default(),
            reference_methods: Vec::new(),
        }
    }

    /// Upgrade to the paper's full scale: 50 queries per N, 2 replicates.
    #[must_use]
    pub fn paper_scale(mut self) -> Self {
        self.queries_per_n = 50;
        self.replicates = 2;
        self
    }

    /// Total number of queries in the grid.
    pub fn n_queries(&self) -> usize {
        self.ns.len() * self.queries_per_n
    }
}

/// Results: `costs[col][query][tau]` = best cost found by column `col` on
/// query `query` within time limit `taus[tau]` (replicates already
/// averaged), plus the per-query scaling reference.
#[derive(Debug, Clone)]
pub struct CostMatrix {
    /// Column labels.
    pub labels: Vec<String>,
    /// Time-limit multipliers.
    pub taus: Vec<f64>,
    /// Join count of each query.
    pub query_ns: Vec<usize>,
    /// Raw best costs per column/query/tau.
    pub costs: Vec<Vec<Vec<f64>>>,
    /// Per-query scaling reference (best cost at the final tau across all
    /// columns and reference methods).
    pub reference: Vec<f64>,
}

impl CostMatrix {
    /// Mean scaled cost of column `col` at tau index `t` (outliers coerced
    /// to 10), the paper's reported statistic.
    pub fn mean_scaled(&self, col: usize, t: usize) -> f64 {
        let costs: Vec<f64> = self.costs[col].iter().map(|q| q[t]).collect();
        mean_scaled_cost(&costs, &self.reference)
    }

    /// The full mean-scaled table: `[col][tau]`.
    pub fn mean_scaled_table(&self) -> Vec<Vec<f64>> {
        (0..self.labels.len())
            .map(|c| {
                (0..self.taus.len())
                    .map(|t| self.mean_scaled(c, t))
                    .collect()
            })
            .collect()
    }

    /// Standard error of the mean scaled cost of column `col` at tau
    /// index `t` — the statistic SG88's methodology companion reports
    /// alongside the mean. NaN with fewer than two queries.
    pub fn scaled_stderr(&self, col: usize, t: usize) -> f64 {
        let scaled: Vec<f64> = self.costs[col]
            .iter()
            .zip(&self.reference)
            .map(|(q, &r)| ljqo::eval::scaled_cost(q[t], r))
            .collect();
        let n = scaled.len() as f64;
        if n < 2.0 {
            return f64::NAN;
        }
        let mean = scaled.iter().sum::<f64>() / n;
        let var = scaled.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1.0);
        (var / n).sqrt()
    }

    /// Mean scaled cost of column `col` at tau index `t`, broken down by
    /// join count: `(n, mean over that n's queries)`, ascending in `n`.
    /// Exposes whether an aggregate ranking is driven by the easy small-N
    /// queries or holds across sizes.
    pub fn mean_scaled_by_n(&self, col: usize, t: usize) -> Vec<(usize, f64)> {
        let mut ns: Vec<usize> = self.query_ns.clone();
        ns.sort_unstable();
        ns.dedup();
        ns.into_iter()
            .map(|n| {
                let mut sum = 0.0;
                let mut count = 0usize;
                for (qi, &qn) in self.query_ns.iter().enumerate() {
                    if qn == n {
                        sum += ljqo::eval::scaled_cost(self.costs[col][qi][t], self.reference[qi]);
                        count += 1;
                    }
                }
                (n, sum / count as f64)
            })
            .collect()
    }
}

/// One run: a column on one query with checkpoints at every tau.
/// Returns the best cost at each tau.
fn run_curve(
    column: HeuristicKind,
    query: &ljqo_catalog::Query,
    model: &dyn CostModel,
    runner: &MethodRunner,
    taus: &[f64],
    kappa: f64,
    seed: u64,
) -> Vec<f64> {
    let n = query.n_joins().max(1);
    let components = query.graph().components();
    assert_eq!(
        components.len(),
        1,
        "benchmark queries are connected by construction"
    );
    let component = &components[0];
    let checkpoints: Vec<u64> = taus
        .iter()
        .map(|&t| TimeLimit::of(t).units(n, kappa))
        .collect();
    let budget = *checkpoints.last().unwrap();
    let mut ev = Evaluator::with_budget(query, model, budget);
    ev.set_checkpoints(checkpoints);
    let mut rng = SmallRng::seed_from_u64(seed);

    match column {
        HeuristicKind::Method(m) => runner.run(m, &mut ev, component, &mut rng),
        HeuristicKind::Augmentation(criterion) => {
            // Pure augmentation: generate one state per first relation (in
            // increasing-size order) until states or budget run out. The
            // heuristic "cannot take advantage of additional time".
            let aug = AugmentationHeuristic::new(criterion);
            for first in AugmentationHeuristic::first_relations(query, component) {
                if ev.exhausted() {
                    break;
                }
                ev.charge(component.len() as u64);
                let order = aug.generate(query, component, first);
                ev.cost(&order);
            }
        }
        HeuristicKind::Kbz(weight) => {
            let kbz = KbzHeuristic::new(weight);
            let _ = kbz.generate(&mut ev, component);
        }
    }
    let (_, final_best, snaps) = ev.finish();
    let mut out: Vec<f64> = snaps.iter().map(|s| s.best_cost).collect();
    if let Some(last) = out.last_mut() {
        // The final checkpoint equals the budget; prefer the true final
        // best over the off-by-one-eval snapshot.
        *last = (*last).min(final_best);
    }
    out
}

/// Run a full grid, parallelized over queries with scoped threads.
pub fn run_grid(spec: &GridSpec) -> CostMatrix {
    // Synthesize the query list.
    let mut queries = Vec::with_capacity(spec.n_queries());
    let mut query_ns = Vec::with_capacity(spec.n_queries());
    let bench_spec = spec.benchmark.spec();
    for &n in &spec.ns {
        for qi in 0..spec.queries_per_n {
            let seed = spec
                .base_seed
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add((n as u64) << 32 | qi as u64);
            queries.push(generate_query(&bench_spec, n, seed));
            query_ns.push(n);
        }
    }

    let model = spec.model.model();
    let n_cols = spec.columns.len();
    let n_taus = spec.taus.len();
    let n_queries = queries.len();

    // costs[col][query][tau]; reference extras [query].
    let costs = Mutex::new(vec![vec![vec![f64::INFINITY; n_taus]; n_queries]; n_cols]);
    let ref_extra = Mutex::new(vec![f64::INFINITY; n_queries]);

    let n_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n_queries.max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..n_threads {
            scope.spawn(|| loop {
                let qi = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if qi >= n_queries {
                    break;
                }
                let query = &queries[qi];
                for (ci, &column) in spec.columns.iter().enumerate() {
                    let mut acc = vec![0.0f64; n_taus];
                    for rep in 0..spec.replicates {
                        let seed = spec
                            .base_seed
                            .wrapping_add(0xabcd)
                            .wrapping_mul(1 + qi as u64)
                            .wrapping_add(((ci as u64) << 20) | rep as u64);
                        let curve = run_curve(
                            column,
                            query,
                            model.as_ref(),
                            &spec.runner,
                            &spec.taus,
                            spec.kappa,
                            seed,
                        );
                        for (a, c) in acc.iter_mut().zip(&curve) {
                            *a += c / spec.replicates as f64;
                        }
                    }
                    let mut lock = costs.lock().unwrap();
                    lock[ci][qi] = acc;
                }
                // Reference-only methods run at the final tau.
                for (mi, &m) in spec.reference_methods.iter().enumerate() {
                    let seed = spec
                        .base_seed
                        .wrapping_add(0xdead)
                        .wrapping_mul(1 + qi as u64)
                        .wrapping_add(mi as u64);
                    let curve = run_curve(
                        HeuristicKind::Method(m),
                        query,
                        model.as_ref(),
                        &spec.runner,
                        &spec.taus[spec.taus.len() - 1..],
                        spec.kappa,
                        seed,
                    );
                    let mut lock = ref_extra.lock().unwrap();
                    lock[qi] = lock[qi].min(curve[0]);
                }
            });
        }
    });

    let costs = costs.into_inner().expect("worker thread panicked");
    let ref_extra = ref_extra.into_inner().expect("worker thread panicked");

    // Reference: best at the final tau across columns, folded with the
    // reference-only methods.
    let final_rows: Vec<Vec<f64>> = costs
        .iter()
        .map(|col| col.iter().map(|q| q[n_taus - 1]).collect())
        .collect();
    let mut reference = per_query_best(&final_rows);
    for (r, &e) in reference.iter_mut().zip(&ref_extra) {
        if e < *r {
            *r = e;
        }
    }

    CostMatrix {
        labels: spec.columns.iter().map(HeuristicKind::label).collect(),
        taus: spec.taus.clone(),
        query_ns,
        costs,
        reference,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(columns: Vec<HeuristicKind>) -> GridSpec {
        let mut s = GridSpec::new(columns);
        s.ns = vec![10];
        s.queries_per_n = 2;
        s.taus = vec![1.0, 3.0];
        s.kappa = 5.0;
        s
    }

    #[test]
    fn grid_produces_finite_monotone_curves() {
        let spec = tiny_spec(vec![
            HeuristicKind::Method(Method::Ii),
            HeuristicKind::Method(Method::Iai),
        ]);
        let m = run_grid(&spec);
        assert_eq!(m.labels, vec!["II", "IAI"]);
        for col in &m.costs {
            for q in col {
                assert_eq!(q.len(), 2);
                assert!(q.iter().all(|c| c.is_finite()));
                assert!(q[1] <= q[0], "more budget cannot hurt: {q:?}");
            }
        }
        // Scaled costs are >= 1 - epsilon by construction and capped at 10.
        for c in 0..2 {
            for t in 0..2 {
                let s = m.mean_scaled(c, t);
                assert!((1.0..=10.0).contains(&s), "scaled {s}");
            }
        }
    }

    #[test]
    fn reference_is_per_query_min_at_final_tau() {
        let spec = tiny_spec(vec![
            HeuristicKind::Method(Method::Ii),
            HeuristicKind::Method(Method::Agi),
        ]);
        let m = run_grid(&spec);
        for qi in 0..m.reference.len() {
            let min = m
                .costs
                .iter()
                .map(|c| c[qi][1])
                .fold(f64::INFINITY, f64::min);
            assert_eq!(m.reference[qi], min);
        }
    }

    #[test]
    fn heuristic_columns_run() {
        let spec = tiny_spec(vec![
            HeuristicKind::Augmentation(AugmentationCriterion::MinSelectivity),
            HeuristicKind::Kbz(MstWeight::Selectivity),
        ]);
        let m = run_grid(&spec);
        assert_eq!(m.labels, vec!["aug-3", "kbz-3"]);
        assert!(m.costs.iter().flatten().flatten().all(|c| c.is_finite()));
    }

    #[test]
    fn reference_methods_tighten_the_reference() {
        let mut spec = tiny_spec(vec![HeuristicKind::Augmentation(
            AugmentationCriterion::MinCardinality,
        )]);
        spec.reference_methods = vec![Method::Iai];
        let with_ref = run_grid(&spec);
        let mut spec2 = spec.clone();
        spec2.reference_methods.clear();
        let without = run_grid(&spec2);
        for qi in 0..with_ref.reference.len() {
            assert!(with_ref.reference[qi] <= without.reference[qi] + 1e-9);
        }
    }

    #[test]
    fn stderr_and_per_n_breakdown() {
        let mut spec = tiny_spec(vec![HeuristicKind::Method(Method::Ii)]);
        spec.ns = vec![10, 15];
        let m = run_grid(&spec);
        let se = m.scaled_stderr(0, 1);
        assert!(se.is_finite() && se >= 0.0);
        let by_n = m.mean_scaled_by_n(0, 1);
        assert_eq!(by_n.len(), 2);
        assert_eq!(by_n[0].0, 10);
        assert_eq!(by_n[1].0, 15);
        // The overall mean is the query-weighted mean of the per-N means
        // (equal counts per N here).
        let overall = m.mean_scaled(0, 1);
        let avg = (by_n[0].1 + by_n[1].1) / 2.0;
        assert!((overall - avg).abs() < 1e-12);
        for (_, v) in by_n {
            assert!((1.0..=10.0).contains(&v));
        }
    }

    #[test]
    fn determinism() {
        let spec = tiny_spec(vec![HeuristicKind::Method(Method::Sa)]);
        let a = run_grid(&spec);
        let b = run_grid(&spec);
        assert_eq!(a.costs, b.costs);
        assert_eq!(a.reference, b.reference);
    }
}
