//! The two serving workloads: an in-process `ljqo-server` driven over
//! TCP by `ljqo_server::Client` from two closed-loop connections.
//!
//! * `serve_warm` rotates through 64 query classes that the set-up has
//!   already put in the plan cache, so every request is a cache hit.
//! * `serve_cold` sends a distinct pre-generated query every time; the
//!   set-up fills the cache to capacity first, so every request pays a
//!   cold solve, an insert and an eviction.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ljqo::bound::{bound_report, BoundReport};
use ljqo::{MethodRunner, OptimizerConfig};
use ljqo_cache::FingerprintConfig;
use ljqo_catalog::Query;
use ljqo_cli::QueryFile;
use ljqo_cost::MemoryCostModel;
use ljqo_json::Value;
use ljqo_plan::{JoinOrder, Plan};
use ljqo_server::{Client, Server, ServerConfig, ServerHandle};
use ljqo_workload::{generate_job_query, JobShape, JobSpec};

use crate::layers::{self, LayerReport};
use crate::report::{mean, percentile, repeat_setup, sorted, Latency, Outcome};
use crate::{check_plan, mix};

/// Joins per query (21 relations: the 1-word bitset tier).
const N_JOINS: usize = 20;
/// Query classes in the warm pool.
const WARM_CLASSES: usize = 64;
/// Distinct queries in the cold stream; each connection walks its half,
/// wrapping around. Far more than the cache holds, so a wrapped query has
/// long been evicted and is still a miss.
const COLD_POOL: usize = 4096;
/// Plan-cache capacity: the warm pool fits, the cold stream overflows it.
const CACHE_ENTRIES: usize = 512;
/// Closed-loop client connections (one client thread each).
const CONNECTIONS: usize = 2;
/// Set-up repetitions (at least this many, over at least `SETUP_SECS`);
/// `setup_s` is their median.
const SETUPS: usize = 3;
const SETUP_SECS: f64 = 3.0;
/// Tail percentile reported for the serve workloads, and the latency
/// slice that leaves ten samples beyond it. A p99 over 1000-request
/// slices moved by a third between runs on the shared host this runs on;
/// p90 over 100-request slices moves far less.
const TAIL_Q: f64 = 0.9;
const LATENCY_SLICE: usize = 100;
/// Requests per throughput slice.
const THROUGHPUT_SLICE: usize = 500;
/// The host slows in bursts of a fraction of a second to minutes. Each
/// timing is read from the calmer part of the window: latencies at the
/// lower quartile over slices, throughput at the upper quartile.
const CALM_LATENCY_Q: f64 = 0.25;
const CALM_RATE_Q: f64 = 0.75;
/// Queries replayed per layer in the traced run.
const REPLAY_QUERIES: usize = 64;

/// The server configuration both serve workloads use: one batch worker
/// (one core serves, the other runs the clients) and a cache the warm
/// pool fits in and the cold stream overflows.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        cache_entries: CACHE_ENTRIES,
        ..ServerConfig::default()
    }
}

/// The optimizer configuration the server derives from [`server_config`].
pub fn optimizer_config() -> OptimizerConfig {
    let c = server_config();
    OptimizerConfig::new(c.method)
        .with_time_limit(c.tau)
        .with_kappa(c.kappa)
        .with_seed(c.seed)
}

/// Query `k` of a stream: shapes rotate star, snowflake, cyclic.
fn job_file(stream: u64, k: usize) -> QueryFile {
    let spec = JobSpec::new(JobShape::ALL[k % JobShape::ALL.len()]);
    QueryFile::from_query(&generate_job_query(
        &spec,
        N_JOINS,
        mix(stream ^ mix(k as u64)),
    ))
}

struct Running {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<Value>,
}

impl Running {
    fn start() -> Running {
        let server = Server::bind(server_config()).expect("bind the benchmark server");
        let addr = server.local_addr().expect("server address");
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Running {
            addr,
            handle,
            thread,
        }
    }

    /// Drain the server and wait for it to exit.
    fn stop(self) {
        self.handle.shutdown();
        self.thread.join().expect("server thread panicked");
    }
}

/// Everything a serve run needs: the running server, the queries, and
/// what each answer is checked against.
struct Setup {
    server: Running,
    /// What the clients send, indexed by pool position.
    files: Vec<QueryFile>,
    /// Each file as the server reads it (`QueryFile::into_query`; the
    /// wire's JSON numbers round-trip exactly) and its lower bound.
    checks: Vec<(Query, BoundReport)>,
}

/// One request of the measured window. Answers are checked as they
/// arrive and only this summary is kept, so the benchmark's own memory
/// barely grows with throughput.
struct Sample {
    latency_ms: f64,
    /// Completion time, in seconds since the window opened.
    done_s: f64,
    /// Whether a reply arrived (the connection did not fail).
    answered: bool,
    /// The checked answer, or why the request failed or its answer is wrong.
    result: Result<Checked, String>,
}

/// What the end-to-end and traced metrics read from a correct answer.
struct Checked {
    /// Cost over the certified lower bound.
    ratio: f64,
    hit: bool,
    /// Admission to reply, as the server measured it.
    server_ms: f64,
}

/// Check one reply against the query that was sent: `ok`, the echoed id,
/// the segments' relation names, then [`check_plan`].
fn check_reply(
    reply: &Value,
    id: u64,
    query: &Query,
    bound: &BoundReport,
) -> Result<Checked, String> {
    if reply.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("not ok: {reply}"));
    }
    if reply.get("id").and_then(Value::as_u64) != Some(id) {
        return Err(format!("reply to request {id} carries another id"));
    }
    let number = |key: &str| {
        reply
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("reply has no {key}"))
    };
    let mut segments = Vec::new();
    for seg in reply
        .get("segments")
        .and_then(Value::as_array)
        .ok_or("reply has no segments")?
    {
        let mut order = Vec::new();
        for name in seg.as_array().ok_or("segment is not an array")? {
            let name = name.as_str().ok_or("relation name is not a string")?;
            let rel = query
                .rel_ids()
                .find(|&r| query.relation(r).name == name)
                .ok_or_else(|| format!("unknown relation {name}"))?;
            order.push(rel);
        }
        segments.push(JoinOrder::new(order));
    }
    Ok(Checked {
        ratio: check_plan(query, &Plan { segments }, number("cost")?, bound)?,
        hit: matches!(
            reply.get("outcome").and_then(Value::as_str),
            Some("hit" | "hit_recosted")
        ),
        server_ms: number("latency_us")? / 1e3,
    })
}

/// Send `files` once each over [`CONNECTIONS`] closed-loop connections.
/// Panics on any failure: a set-up that cannot prime the server leaves
/// nothing worth measuring.
fn send_all(addr: SocketAddr, files: &[QueryFile]) {
    std::thread::scope(|scope| {
        for c in 0..CONNECTIONS {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect for set-up");
                for (i, file) in files.iter().enumerate().skip(c).step_by(CONNECTIONS) {
                    let reply = client.optimize(i as u64, file).expect("set-up request");
                    assert_eq!(
                        reply.get("ok").and_then(Value::as_bool),
                        Some(true),
                        "set-up request failed: {reply}"
                    );
                }
            });
        }
    });
}

fn setup(cold: bool, seed: u64) -> Setup {
    let stream = mix(seed ^ if cold { 0xC01D } else { 0x3A43 });
    let n = if cold { COLD_POOL } else { WARM_CLASSES };
    let files: Vec<QueryFile> = (0..n).map(|k| job_file(stream, k)).collect();
    let model = MemoryCostModel::default();
    let checks = files
        .iter()
        .map(|f| {
            let q = f.clone().into_query().expect("generated queries are valid");
            let b = bound_report(&q, &model);
            (q, b)
        })
        .collect();
    let server = Running::start();
    if cold {
        // Fill the cache to capacity with queries never sent again, so
        // the window starts in the steady state: every miss evicts.
        let filler: Vec<QueryFile> = (0..CACHE_ENTRIES)
            .map(|k| job_file(mix(stream ^ 0xF111), k))
            .collect();
        send_all(server.addr, &filler);
    } else {
        send_all(server.addr, &files);
    }
    Setup {
        server,
        files,
        checks,
    }
}

/// The measured closed loop: each connection sends, waits for the reply,
/// checks it, and sends again until `seconds` have passed. Returns the
/// samples in completion order and the wall time of the whole window.
fn drive(setup: &Setup, seconds: u64) -> (Vec<Sample>, f64) {
    let start = Instant::now();
    let end = start + Duration::from_secs(seconds);
    let mut samples = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut client = match Client::connect(setup.server.addr) {
                        Ok(client) => client,
                        Err(e) => {
                            out.push(Sample {
                                latency_ms: 0.0,
                                done_s: 0.0,
                                answered: false,
                                result: Err(format!("connect: {e}")),
                            });
                            return out;
                        }
                    };
                    let mut i = 0usize;
                    while Instant::now() < end {
                        let k = (i * CONNECTIONS + c) % setup.files.len();
                        let id = ((c as u64) << 32) | i as u64;
                        let sent = Instant::now();
                        let reply = client.optimize(id, &setup.files[k]);
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        let done_s = start.elapsed().as_secs_f64();
                        let answered = reply.is_ok();
                        let (query, bound) = &setup.checks[k];
                        out.push(Sample {
                            latency_ms,
                            done_s,
                            answered,
                            result: reply
                                .map_err(|e| format!("connection failed: {e}"))
                                .and_then(|r| check_reply(&r, id, query, bound)),
                        });
                        if !answered {
                            break;
                        }
                        i += 1;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    samples.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    (samples, start.elapsed().as_secs_f64())
}

/// The server's `/stats` counters the traced run differences.
struct Counters {
    batches: f64,
    batched_queries: f64,
    evictions: f64,
    dedup_reuses: f64,
    queries: f64,
}

impl Counters {
    fn read(handle: &ServerHandle) -> Counters {
        let stats = handle.stats_json();
        let at = |block: &str, key: &str| {
            stats
                .get(block)
                .and_then(|b| b.get(key))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        Counters {
            batches: at("batches", "count"),
            batched_queries: at("batches", "queries"),
            evictions: at("cache", "evictions"),
            dedup_reuses: at("serving", "dedup_reuses"),
            queries: at("serving", "queries"),
        }
    }
}

/// Run one serve workload and report its metrics.
pub fn run(cold: bool, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let (setup, setup_s) = repeat_setup(
        SETUPS,
        SETUP_SECS,
        || setup(cold, seed),
        |s| s.server.stop(),
    );
    println!(
        "setup: {} queries, {} generated per set-up, cache capacity {CACHE_ENTRIES}, median set-up {setup_s:.3} s",
        if cold { "distinct cold" } else { "warm-pool" },
        setup.files.len()
    );

    let before = Counters::read(&setup.server.handle);
    let (samples, window_s) = drive(&setup, seconds);
    let after = Counters::read(&setup.server.handle);
    let peak_rss_mb = crate::report::peak_rss_mb();
    setup.server.stop();

    let ok: Vec<(&Sample, &Checked)> = samples
        .iter()
        .filter_map(|s| s.result.as_ref().ok().map(|c| (s, c)))
        .collect();
    let failed = (samples.len() - ok.len()) as u64;
    match samples.iter().find_map(|s| s.result.as_ref().err()) {
        Some(e) => println!(
            "check: {failed} of {} answers failed; first: {e}",
            samples.len()
        ),
        None => println!("check: all {} answers valid and re-priced", samples.len()),
    }

    // Every answered request counts toward latency, failed ones included.
    let answered: Vec<f64> = samples
        .iter()
        .filter(|s| s.answered)
        .map(|s| s.latency_ms)
        .collect();
    let latency = Latency::of(&answered, TAIL_Q, LATENCY_SLICE, CALM_LATENCY_Q);
    println!("latency: {}", latency.describe());
    // Throughput is the completion rate over slices of `THROUGHPUT_SLICE`
    // requests, read like latency; a short window falls back to the whole
    // window.
    let done: Vec<f64> = ok.iter().map(|(s, _)| s.done_s).collect();
    let rates: Vec<f64> = done
        .chunks_exact(THROUGHPUT_SLICE)
        .enumerate()
        .map(|(k, slice)| {
            let from = if k == 0 {
                0.0
            } else {
                done[k * THROUGHPUT_SLICE - 1]
            };
            THROUGHPUT_SLICE as f64 / (slice[THROUGHPUT_SLICE - 1] - from)
        })
        .collect();
    let throughput = if rates.is_empty() {
        ok.len() as f64 / window_s
    } else {
        percentile(&sorted(rates), CALM_RATE_Q)
    };
    let error_rate = failed as f64 / samples.len().max(1) as f64;
    println!(
        "window: {window_s:.3} s, {} completed, error rate {error_rate}",
        ok.len()
    );

    let mut out = Outcome {
        attempted: samples.len() as u64,
        failed,
        metrics: Vec::new(),
    };
    if !trace {
        out.push("throughput_qps", throughput, "1/s");
        out.push("latency_p50_ms", latency.p50, "ms");
        out.push("latency_tail_ms", latency.tail, "ms");
        let ratios: Vec<f64> = ok.iter().map(|(_, c)| c.ratio).collect();
        out.push("plan_cost_ratio", mean(&ratios), "ratio");
        out.push("setup_s", setup_s, "s");
        out.push("peak_rss_mb", peak_rss_mb, "MiB");
        return out;
    }

    // Traced run: server-side timings carried by each reply, `/stats`
    // deltas over the window, then a replay of each layer's public calls
    // on the same queries.
    let reply_ms: Vec<f64> = ok.iter().map(|(_, c)| c.server_ms).collect();
    let client_ms: Vec<f64> = ok.iter().map(|(s, _)| s.latency_ms).collect();
    let hits = ok.iter().filter(|(_, c)| c.hit).count() as f64;
    // The first queries of the pool are the first ones sent.
    let replay: Vec<Query> = setup
        .checks
        .iter()
        .take(REPLAY_QUERIES)
        .map(|(q, _)| q.clone())
        .collect();
    let model = MemoryCostModel::default();
    let config = optimizer_config();
    let fp = FingerprintConfig {
        buckets_per_decade: server_config().fp_buckets,
    };
    let mut layer = LayerReport {
        throughput_qps: throughput,
        latency_p50_ms: latency.p50,
        client_ms_mean: mean(&client_ms),
        reply_ms_mean: mean(&reply_ms),
        reply_ms_p50: percentile(&sorted(reply_ms), 0.5),
        batch_size_mean: (after.batched_queries - before.batched_queries)
            / (after.batches - before.batches).max(1.0),
        encode_us: layers::encode_us(&replay),
        decode_us: layers::decode_us(&replay),
        fingerprint_us: layers::fingerprint_us(&replay, &fp),
        hit_ratio: hits / ok.len().max(1) as f64,
        evictions_per_s: (after.evictions - before.evictions) / window_s,
        dedup_share: (after.dedup_reuses - before.dedup_reuses)
            / (after.queries - before.queries).max(1.0),
        compile_us: layers::compile_us(&replay),
        seed_us: layers::seed_us(&replay, &MethodRunner::default()),
        moves: layers::moves(&replay, &model, mix(seed ^ 0x5EED)),
        ..LayerReport::default()
    };
    match layers::cache_hit_us(&replay, &model, &config, &fp) {
        Some(us) => layer.hit_us = us,
        None => {
            out.failed += 1;
            println!("check: a primed cache lookup missed");
        }
    }
    match layers::core(&replay, &model, &config) {
        Some(core) => layer.core = core,
        None => {
            out.failed += 1;
            println!("check: a replayed solve failed");
        }
    }
    reconcile(&mut layer);
    layer.push_into(&mut out);
    out
}

/// Split the client-observed mean into stages and print them. A request's
/// reply time covers its whole batch's work, so per-request work is scaled
/// by the mean batch size; the wait (queue, linger, reply encoding) is what
/// remains of the reply time. A negative remainder is a measurement error
/// and is reported as one, not clamped.
fn reconcile(l: &mut LayerReport) {
    l.wire_ms_mean = l.client_ms_mean - l.reply_ms_mean;
    let per_request_ms = l.hit_ratio * l.hit_us / 1e3
        + (1.0 - l.hit_ratio) * (l.fingerprint_us / 1e3 + l.core.solve_ms_mean);
    let work = l.batch_size_mean * per_request_ms;
    l.wait_ms_mean = l.reply_ms_mean - work;
    println!("stages (mean ms per request, traced window):");
    println!(
        "  wire: client send to reply, minus server time   {:>10.4}",
        l.wire_ms_mean
    );
    println!(
        "    of which request encode + server decode       {:>10.4}",
        (l.encode_us + l.decode_us) / 1e3
    );
    println!(
        "  server work: {:.3} per batch x {per_request_ms:.4} ms ({:.1}% hits) {work:>10.4}",
        l.batch_size_mean,
        l.hit_ratio * 100.0
    );
    println!(
        "  wait: queue + linger + reply encode (remainder) {:>10.4}",
        l.wait_ms_mean
    );
    println!(
        "  sum of stages                                   {:>10.4}",
        l.wire_ms_mean + work + l.wait_ms_mean
    );
    println!(
        "  client-observed mean                            {:>10.4}",
        l.client_ms_mean
    );
    if l.wait_ms_mean < 0.0 || l.wire_ms_mean < 0.0 {
        println!("  measurement error: a stage remainder is negative");
    }
}
