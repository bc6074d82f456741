//! Per-layer timings for the traced run: each function times one crate's
//! public entry point from outside, on the workload's own queries. Nothing
//! inside the program is instrumented; every number here is a replay of
//! the work a request or solve does in that layer.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use ljqo::{optimize_cached, try_optimize, MethodRunner, OptimizerConfig};
use ljqo_cache::{fingerprint, FingerprintConfig, PlanCache, PlanCacheConfig};
use ljqo_catalog::{CompiledQuery, Query, RelId};
use ljqo_cli::QueryFile;
use ljqo_cost::{CostModel, Evaluator};
use ljqo_heuristics::AugmentationHeuristic;
use ljqo_json::Value;
use ljqo_plan::{random_valid_order, BitsetChecker, JoinOrder, Move, MoveGenerator};
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};

use crate::report::{mean, time_per_call, Outcome};

/// How long each micro-timing loop runs.
const BUDGET: Duration = Duration::from_millis(400);

/// Moves per pool in the move-level timings.
const MOVE_POOL: usize = 512;

/// The `Optimize` request payload a client puts on the wire.
pub fn request_payload(id: u64, file: &QueryFile) -> String {
    Value::Object(vec![
        ("id".to_string(), Value::from(id)),
        ("query".to_string(), file.to_json()),
    ])
    .to_string_compact()
}

/// The server's decode of one request payload, step for step: parse the
/// frame, re-serialize the query member, read it as a query file, build
/// the catalog.
pub fn decode_request(payload: &str) -> Option<Query> {
    let doc = ljqo_json::parse(payload).ok()?;
    let text = doc.get("query")?.to_string_compact();
    QueryFile::from_json(&text)
        .and_then(QueryFile::into_query)
        .ok()
}

/// `json.request_encode_us_mean`: `QueryFile::from_query` plus request
/// serialization, in µs.
pub fn encode_us(queries: &[Query]) -> f64 {
    time_per_call(BUDGET, 1e-6, |i| {
        let file = QueryFile::from_query(&queries[i % queries.len()]);
        black_box(request_payload(i as u64, &file));
    })
}

/// `json.request_decode_us_mean`: the server-side decode, in µs.
pub fn decode_us(queries: &[Query]) -> f64 {
    let payloads: Vec<String> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| request_payload(i as u64, &QueryFile::from_query(q)))
        .collect();
    time_per_call(BUDGET, 1e-6, |i| {
        black_box(decode_request(&payloads[i % payloads.len()]));
    })
}

/// `cache.fingerprint_us_mean`, in µs.
pub fn fingerprint_us(queries: &[Query], fp: &FingerprintConfig) -> f64 {
    time_per_call(BUDGET, 1e-6, |i| {
        black_box(fingerprint(&queries[i % queries.len()], fp));
    })
}

/// `cache.hit_us_mean`: `optimize_cached` against a cache primed with
/// every query, in µs. Returns `None` if a primed lookup missed.
pub fn cache_hit_us(
    queries: &[Query],
    model: &dyn CostModel,
    config: &OptimizerConfig,
    fp: &FingerprintConfig,
) -> Option<f64> {
    let cache = PlanCache::new(PlanCacheConfig::with_entries(4 * queries.len()));
    for q in queries {
        optimize_cached(q, model, config, &cache, fp).ok()?;
    }
    let mut all_hits = true;
    let us = time_per_call(BUDGET, 1e-6, |i| {
        let served = optimize_cached(&queries[i % queries.len()], model, config, &cache, fp);
        all_hits &= matches!(&served, Ok((_, outcome)) if outcome.is_hit());
        black_box(served.ok());
    });
    all_hits.then_some(us)
}

/// The core layer's view of a set of solves.
#[derive(Default)]
pub struct CoreStats {
    pub solve_ms_mean: f64,
    pub units_per_s: f64,
    pub evals_per_solve: f64,
    pub degraded_share: f64,
}

impl CoreStats {
    /// Summarize `(wall seconds, units, evals, degraded)` per solve.
    pub fn of(solves: &[(f64, u64, u64, bool)]) -> CoreStats {
        if solves.is_empty() {
            return CoreStats::default();
        }
        let n = solves.len() as f64;
        let secs: f64 = solves.iter().map(|s| s.0).sum();
        CoreStats {
            solve_ms_mean: secs / n * 1e3,
            units_per_s: solves.iter().map(|s| s.1 as f64).sum::<f64>() / secs,
            evals_per_solve: solves.iter().map(|s| s.2 as f64).sum::<f64>() / n,
            degraded_share: solves.iter().filter(|s| s.3).count() as f64 / n,
        }
    }
}

/// `core.*`: `try_optimize` once per query with the workload's config.
/// Returns `None` if a solve fails.
pub fn core(
    queries: &[Query],
    model: &dyn CostModel,
    config: &OptimizerConfig,
) -> Option<CoreStats> {
    let mut solves = Vec::with_capacity(queries.len());
    for q in queries {
        let start = std::time::Instant::now();
        let r = try_optimize(q, model, config).ok()?;
        let secs = start.elapsed().as_secs_f64();
        solves.push((secs, r.units_used, r.n_evals, r.degradation.is_degraded()));
    }
    Some(CoreStats::of(&solves))
}

/// `catalog.compile_us_mean`: `CompiledQuery::new`, in µs.
pub fn compile_us(queries: &[Query]) -> f64 {
    time_per_call(BUDGET, 1e-6, |i| {
        black_box(CompiledQuery::new(&queries[i % queries.len()]));
    })
}

/// The largest join-graph component of `q`.
fn largest_component(q: &Query) -> Vec<RelId> {
    q.graph()
        .components()
        .into_iter()
        .max_by_key(Vec::len)
        .unwrap_or_default()
}

/// `heuristics.seed_us_mean`: one augmentation-heuristic seed order (the
/// start states IAI descends from), averaged over every first relation
/// the method tries, in µs.
pub fn seed_us(queries: &[Query], runner: &MethodRunner) -> f64 {
    let jobs: Vec<(&Query, Vec<RelId>, RelId)> = queries
        .iter()
        .flat_map(|q| {
            let comp = largest_component(q);
            AugmentationHeuristic::first_relations(q, &comp)
                .into_iter()
                .map(move |first| (q, comp.clone(), first))
        })
        .collect();
    time_per_call(BUDGET, 1e-6, |i| {
        let (q, comp, first) = &jobs[i % jobs.len()];
        black_box(runner.augmentation.generate(q, comp, *first));
    })
}

/// Move-level numbers of the plan and cost layers.
#[derive(Default)]
pub struct MoveStats {
    pub filter_adjacent_ns: f64,
    pub filter_arbitrary_ns: f64,
    pub valid_share: f64,
    pub eval_ns: f64,
}

/// Random adjacent and arbitrary swaps over an order of length `n`.
fn swap_pools(n: usize, rng: &mut SmallRng) -> (Vec<Move>, Vec<Move>) {
    let adjacent = (0..MOVE_POOL)
        .map(|_| {
            let i = rng.gen_range(0..n - 1);
            Move::Swap { i, j: i + 1 }
        })
        .collect();
    let arbitrary = (0..MOVE_POOL)
        .map(|_| {
            let i = rng.gen_range(0..n);
            let mut j = rng.gen_range(0..n - 1);
            if j >= i {
                j += 1;
            }
            Move::Swap {
                i: i.min(j),
                j: i.max(j),
            }
        })
        .collect();
    (adjacent, arbitrary)
}

/// `plan.*` and `cost.eval_ns_per_move` on a random valid order of each
/// query (the orders the search walks), averaged over the queries:
///
/// * filtering: the primed windowed `BitsetChecker` check of one applied
///   swap, then its undo — the proposal loop's steady state;
/// * valid share: proposals the compiled `MoveGenerator` keeps ÷ proposals
///   it draws, under the optimizer's default move set;
/// * evaluation: `Evaluator::cost_move` of one valid move on an
///   incremental evaluator, with the apply and rollback around it.
pub fn moves(queries: &[Query], model: &dyn CostModel, seed: u64) -> MoveStats {
    let mut rng = SmallRng::seed_from_u64(seed);
    let move_set = MethodRunner::default().ii.move_set;
    let (mut adj, mut arb, mut eval) = (Vec::new(), Vec::new(), Vec::new());
    let (mut kept, mut drawn) = (0u64, 0u64);
    let budget = BUDGET / queries.len().max(1) as u32;
    for q in queries {
        let comp = largest_component(q);
        if comp.len() < 3 {
            continue;
        }
        let base = random_valid_order(q.graph(), &comp, &mut rng);
        let compiled = Arc::new(CompiledQuery::new(q));
        let (adjacent, arbitrary) = swap_pools(base.len(), &mut rng);
        for (pool, out) in [(&adjacent, &mut adj), (&arbitrary, &mut arb)] {
            let mut checker = BitsetChecker::new(q.n_relations());
            let mut order = base.clone();
            out.push(time_per_call(budget, 1e-9, |i| {
                let mv = pool[i % pool.len()];
                mv.apply(&mut order);
                black_box(checker.window_valid_primed(
                    &compiled,
                    order.rels(),
                    mv.first_touched(),
                    mv.last_touched(),
                ));
                mv.undo(&mut order);
            }));
        }

        // Valid moves relative to `base`, drawn by the generator itself.
        let mut gen = MoveGenerator::with_compiled(Arc::clone(&compiled), move_set);
        let mut order = base.clone();
        let mut valid: Vec<Move> = Vec::with_capacity(MOVE_POOL);
        while valid.len() < MOVE_POOL {
            let Some((mv, attempts)) = gen.propose_counted(q.graph(), &mut order, &mut rng) else {
                break;
            };
            kept += 1;
            drawn += u64::from(attempts);
            mv.undo(&mut order);
            valid.push(mv);
        }
        if valid.is_empty() {
            continue;
        }
        let mut ev = Evaluator::new(q, model);
        let mut inc = ev.begin_incremental(JoinOrder::new(base.rels().to_vec()));
        eval.push(time_per_call(budget, 1e-9, |i| {
            let mv = valid[i % valid.len()];
            mv.apply(inc.order_mut());
            black_box(ev.cost_move(&mut inc, &mv));
            inc.rollback();
        }));
    }
    MoveStats {
        filter_adjacent_ns: mean(&adj),
        filter_arbitrary_ns: mean(&arb),
        valid_share: if drawn == 0 {
            0.0
        } else {
            kept as f64 / drawn as f64
        },
        eval_ns: mean(&eval),
    }
}

/// Every per-layer metric of a traced run. Layers a workload does not
/// exercise stay 0.
#[derive(Default)]
pub struct LayerReport {
    /// End-to-end throughput of the traced window (compare with the
    /// untraced runs for the tracing overhead).
    pub throughput_qps: f64,
    /// End-to-end median latency of the traced window.
    pub latency_p50_ms: f64,
    pub client_ms_mean: f64,
    pub reply_ms_mean: f64,
    pub reply_ms_p50: f64,
    pub wire_ms_mean: f64,
    pub batch_size_mean: f64,
    pub wait_ms_mean: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    pub fingerprint_us: f64,
    pub hit_us: f64,
    pub hit_ratio: f64,
    pub evictions_per_s: f64,
    pub dedup_share: f64,
    pub core: CoreStats,
    pub compile_us: f64,
    pub seed_us: f64,
    pub moves: MoveStats,
}

impl LayerReport {
    pub fn push_into(&self, out: &mut Outcome) {
        out.push("trace.throughput_qps", self.throughput_qps, "1/s");
        out.push("trace.latency_p50_ms", self.latency_p50_ms, "ms");
        out.push("server.client_ms_mean", self.client_ms_mean, "ms");
        out.push("server.reply_ms_mean", self.reply_ms_mean, "ms");
        out.push("server.reply_ms_p50", self.reply_ms_p50, "ms");
        out.push("server.wire_ms_mean", self.wire_ms_mean, "ms");
        out.push("server.batch_size_mean", self.batch_size_mean, "count");
        out.push("server.wait_ms_mean", self.wait_ms_mean, "ms");
        out.push("json.request_encode_us_mean", self.encode_us, "us");
        out.push("json.request_decode_us_mean", self.decode_us, "us");
        out.push("cache.fingerprint_us_mean", self.fingerprint_us, "us");
        out.push("cache.hit_us_mean", self.hit_us, "us");
        out.push("cache.hit_ratio", self.hit_ratio, "ratio");
        out.push("cache.evictions_per_s", self.evictions_per_s, "1/s");
        out.push("cache.dedup_share", self.dedup_share, "ratio");
        out.push("core.solve_ms_mean", self.core.solve_ms_mean, "ms");
        out.push("core.units_per_s", self.core.units_per_s, "1/s");
        out.push("core.evals_per_solve", self.core.evals_per_solve, "count");
        out.push("core.degraded_share", self.core.degraded_share, "ratio");
        out.push("catalog.compile_us_mean", self.compile_us, "us");
        out.push("heuristics.seed_us_mean", self.seed_us, "us");
        out.push(
            "plan.filter_ns_per_move.adjacent",
            self.moves.filter_adjacent_ns,
            "ns",
        );
        out.push(
            "plan.filter_ns_per_move.arbitrary",
            self.moves.filter_arbitrary_ns,
            "ns",
        );
        out.push("plan.valid_share", self.moves.valid_share, "ratio");
        out.push("cost.eval_ns_per_move", self.moves.eval_ns, "ns");
    }
}
