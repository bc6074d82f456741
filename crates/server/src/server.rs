//! The daemon: accept loop, admission control, request batching, and
//! graceful drain.
//!
//! # Request lifecycle
//!
//! ```text
//! accept ── handshake ──> reader thread ── admit ──> queue ── linger ──> batch worker
//!   │                        │ (parse, validate,        │                    │
//!   │  "GET /stats" ──> HTTP │  draining/overload       │  Optimizer::solve_batch_with
//!   └──────────────────> reply  checks)                 │    (fingerprint dedup +
//!                                                      │     shared PlanCache)
//!                                                      └──<── each reply written as
//!                                                             its answer is ready
//! ```
//!
//! Every connection gets a reader thread that parses frames and either
//! answers immediately (stats, rejections) or enqueues the request.
//! Batch workers pull from the single shared queue. A request that
//! wakes an idle worker starts a batch that lingers: the worker takes
//! more until `--batch-max` requests are in hand or `--batch-linger-ms`
//! has passed, so concurrent duplicates land in one
//! [`Optimizer::solve_batch_with`] call and dedup to a single cold
//! solve. A request that queued while every worker was busy never
//! lingers: the next free worker dispatches it at once with everything
//! else queued, so a busy server adds no idle time. The worker settles
//! the counters for each answer and writes its reply as soon as the
//! answer is ready, not after the whole batch. Each worker charges its
//! time to idle, linger or busy, and each answer its queue and service
//! time, for the `workers` and `stages` blocks of `/stats`. All workers
//! share one [`PlanCache`], so a plan solved for any connection warms
//! every later request in the process.
//!
//! # Drain
//!
//! [`ServerHandle::shutdown`] (wired to SIGTERM by the binary) flips the
//! drain flag: the accept loop stops, readers answer further `Optimize`
//! frames with code `"draining"`, and [`Server::run`] returns once every
//! admitted request has been answered — never dropping accepted work —
//! with a final stats document.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ljqo::serving::DEGRADATION_LABELS;
use ljqo::{
    win_labels, win_slot, BatchOptions, Method, OptError, Optimized, Optimizer, OptimizerConfig,
    ServedVia, ServingCounters,
};
use ljqo_cache::{classify, FingerprintConfig, PlanCache, PlanCacheConfig};
use ljqo_catalog::Query;
use ljqo_cli::QueryFile;
use ljqo_cost::{CostModel, DiskCostModel, MemoryCostModel, MultiMethodCostModel};
use ljqo_json::Value;

use crate::protocol::{codes, read_error_code, read_frame, write_frame, FrameType, MAGIC, VERSION};
use crate::stats::{LatencyHistogram, ServerStats, WorkerClock};

/// Everything the daemon needs to start. `Default` gives a local,
/// single-worker server with the paper's generous `τ = 9` budget —
/// see `docs/SERVING.md` for per-flag guidance.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7411`; port `0` picks a free one.
    pub addr: String,
    /// Optimization method for cold solves.
    pub method: Method,
    /// Cost model name: `memory`, `disk`, or `multi`.
    pub model: String,
    /// Time-limit multiplier `τ` (budget `τ·N²`).
    pub tau: f64,
    /// Budget calibration `κ` (units per `N²`).
    pub kappa: f64,
    /// Base RNG seed; per-query seeds derive deterministically from it.
    pub seed: u64,
    /// Optional per-query wall-clock deadline, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Batch worker threads (each runs its own batch solve).
    pub workers: usize,
    /// Largest batch a worker will assemble before dispatching.
    pub batch_max: usize,
    /// How long a request that reaches an idle worker waits for
    /// companions to batch with. A request that queued while every
    /// worker was busy does not wait.
    pub batch_linger: Duration,
    /// Admission bound: requests queued beyond this are rejected with
    /// code `"overload"` instead of growing the queue without bound.
    pub max_queue: usize,
    /// Per-frame payload cap, in bytes.
    pub max_frame_bytes: usize,
    /// Plan-cache entry capacity.
    pub cache_entries: usize,
    /// Plan-cache shard count.
    pub cache_shards: usize,
    /// Fingerprint statistic-bucketing resolution (buckets per decade).
    pub fp_buckets: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7411".to_string(),
            method: Method::Iai,
            model: "memory".to_string(),
            tau: 9.0,
            kappa: 5.0,
            seed: 0,
            deadline_ms: None,
            workers: 1,
            batch_max: 64,
            batch_linger: Duration::from_millis(2),
            max_queue: 1024,
            max_frame_bytes: crate::protocol::DEFAULT_MAX_FRAME_BYTES,
            cache_entries: 4096,
            cache_shards: 8,
            fp_buckets: FingerprintConfig::default().buckets_per_decade,
        }
    }
}

fn model_for(name: &str) -> Option<Box<dyn CostModel + Send>> {
    match name {
        "memory" => Some(Box::new(MemoryCostModel::default())),
        "disk" => Some(Box::new(DiskCostModel::default())),
        "multi" => Some(Box::new(MultiMethodCostModel::default())),
        _ => None,
    }
}

/// The write half of a connection, shared between the reader thread
/// (rejections, stats) and batch workers (responses).
struct ConnShared {
    writer: Mutex<TcpStream>,
}

/// Where and when to answer one admitted request.
struct ReplyTo {
    conn: Arc<ConnShared>,
    /// The client's `"id"`, echoed verbatim in the response.
    id: Value,
    admitted: Instant,
}

/// One admitted request waiting for (or undergoing) optimization.
struct Pending {
    reply: ReplyTo,
    query: Query,
}

/// The shared admission queue: a mutex-guarded deque plus a condvar so
/// idle workers sleep instead of spinning.
struct Queue<T> {
    items: Mutex<VecDeque<T>>,
    cond: Condvar,
}

impl<T> Queue<T> {
    fn new() -> Self {
        Queue {
            items: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
        }
    }

    fn len(&self) -> usize {
        self.items.lock().unwrap().len()
    }

    fn push(&self, p: T) {
        self.items.lock().unwrap().push_back(p);
        self.cond.notify_one();
    }

    /// Block until a request arrives, charging the wait to `clock` as
    /// idle time, and say whether the queue was empty when asked.
    /// `None` once `stop` is set and the queue is empty (so setting
    /// `stop` never abandons queued work).
    fn pop_first(&self, stop: &AtomicBool, clock: &mut WorkerClock) -> Option<(T, bool)> {
        let mut items = self.items.lock().unwrap();
        let mut waited = false;
        loop {
            if let Some(p) = items.pop_front() {
                return Some((p, waited));
            }
            if stop.load(Ordering::SeqCst) {
                return None;
            }
            waited = true;
            let (guard, _) = self
                .cond
                .wait_timeout(items, Duration::from_millis(50))
                .unwrap();
            items = guard;
            clock.idle();
        }
    }

    /// Pop one more request if any arrives before `deadline`.
    fn pop_until(&self, deadline: Instant) -> Option<T> {
        let mut items = self.items.lock().unwrap();
        loop {
            if let Some(p) = items.pop_front() {
                return Some(p);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self.cond.wait_timeout(items, deadline - now).unwrap();
            items = guard;
        }
    }

    fn drain_remaining(&self) -> Vec<T> {
        self.items.lock().unwrap().drain(..).collect()
    }

    /// Block for the first request, then take companions up to
    /// `batch_max`. Only a request that woke an idle worker lingers, for
    /// up to `linger` from the pop; one that queued while the worker was
    /// busy leaves at once with whatever else is queued, since every
    /// companion that could join it has queued too. The wait for the
    /// first request is charged to `clock` as idle time, the rest as
    /// linger. `None` once `stop` is set and the queue is empty.
    fn next_batch(
        &self,
        stop: &AtomicBool,
        batch_max: usize,
        linger: Duration,
        clock: &mut WorkerClock,
    ) -> Option<Vec<T>> {
        let (first, woke) = self.pop_first(stop, clock)?;
        let deadline = Instant::now() + if woke { linger } else { Duration::ZERO };
        let mut batch = vec![first];
        while batch.len() < batch_max {
            match self.pop_until(deadline) {
                Some(p) => batch.push(p),
                None => break,
            }
        }
        clock.linger();
        Some(batch)
    }
}

/// State shared by the accept loop, reader threads, and batch workers.
struct Inner {
    config: ServerConfig,
    opt_config: OptimizerConfig,
    model: Box<dyn CostModel + Send>,
    cache: PlanCache,
    fp_config: FingerprintConfig,
    serving: ServingCounters,
    /// Per-class win counts, keyed by [`ljqo_cache::QueryClass`] label
    /// with slots aligned to [`win_labels`] — the per-class view of the
    /// global `method_wins` table.
    class_wins: Mutex<BTreeMap<String, Vec<u64>>>,
    stats: ServerStats,
    queue: Queue<Pending>,
    draining: AtomicBool,
    workers_stop: AtomicBool,
    started: Instant,
    /// Clones of the currently-open streams keyed by connection id, so
    /// drain can unblock reader threads parked in `read` by shutting
    /// the sockets down. Each entry is removed (dropping the clone and
    /// its fd) when the connection's reader thread finishes — otherwise
    /// a finished connection would never deliver EOF to its peer.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
}

/// A bound, not-yet-running server. [`Server::run`] consumes it and
/// blocks until a [`ServerHandle::shutdown`] drain completes.
pub struct Server {
    inner: Arc<Inner>,
    listener: TcpListener,
}

/// Cloneable remote control for a running [`Server`] — the binary hands
/// one to its signal watcher; tests use it to trigger drains.
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<Inner>,
}

impl ServerHandle {
    /// Begin a graceful drain: stop accepting connections, reject new
    /// requests with code `"draining"`, finish everything already
    /// admitted, then let [`Server::run`] return. Idempotent.
    pub fn shutdown(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// The live stats document — identical to what `/stats` serves.
    pub fn stats_json(&self) -> Value {
        stats_json(&self.inner)
    }
}

impl Server {
    /// Bind the listen socket and build all shared state (cache,
    /// counters, queue). Fails on an unbindable address, an unknown
    /// cost-model name, a `τ` or `κ` that is not finite and positive (an
    /// infinite budget would pin a worker forever), or a zero
    /// `max_queue` (every request would be rejected as overload).
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
        let model = model_for(&config.model).ok_or_else(|| {
            invalid(format!(
                "unknown cost model `{}` (memory|disk|multi)",
                config.model
            ))
        })?;
        for (name, v) in [("tau", config.tau), ("kappa", config.kappa)] {
            if !(v.is_finite() && v > 0.0) {
                return Err(invalid(format!(
                    "{name} must be finite and positive, got {v}"
                )));
            }
        }
        if config.max_queue == 0 {
            return Err(invalid("max_queue must be at least 1".to_string()));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let mut cache_config = PlanCacheConfig::with_entries(config.cache_entries);
        cache_config.shards = config.cache_shards;
        let fp_config = FingerprintConfig {
            buckets_per_decade: config.fp_buckets,
        };
        let opt_config = OptimizerConfig::new(config.method)
            .with_time_limit(config.tau)
            .with_kappa(config.kappa)
            .with_seed(config.seed);
        let inner = Arc::new(Inner {
            opt_config,
            model,
            cache: PlanCache::new(cache_config),
            fp_config,
            serving: ServingCounters::new(),
            class_wins: Mutex::new(BTreeMap::new()),
            stats: ServerStats::new(),
            queue: Queue::new(),
            draining: AtomicBool::new(false),
            workers_stop: AtomicBool::new(false),
            started: Instant::now(),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            config,
        });
        Ok(Server { inner, listener })
    }

    /// The bound address (resolves port `0` to the actual port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A remote control for this server.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Serve until a drain completes. Returns the final stats document
    /// (the last `/stats` any client could have observed, plus whatever
    /// the drain itself finished).
    pub fn run(self) -> Value {
        let inner = self.inner;
        let mut workers = Vec::with_capacity(inner.config.workers.max(1));
        for _ in 0..inner.config.workers.max(1) {
            let inner = Arc::clone(&inner);
            workers.push(std::thread::spawn(move || batch_worker(inner)));
        }

        self.listener
            .set_nonblocking(true)
            .expect("listener nonblocking");
        let mut readers = Vec::new();
        while !inner.draining.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nodelay(true).ok();
                    // Accepted streams are re-blocking: only the accept
                    // loop polls.
                    stream.set_nonblocking(false).ok();
                    let conn_id = inner.next_conn_id.fetch_add(1, Ordering::Relaxed);
                    if let Ok(clone) = stream.try_clone() {
                        inner.conns.lock().unwrap().insert(conn_id, clone);
                    }
                    let inner = Arc::clone(&inner);
                    readers.push(std::thread::spawn(move || {
                        handle_conn(inner, conn_id, stream)
                    }));
                    // Drop the handles of readers whose connection has
                    // closed: an exited thread keeps its stack until its
                    // handle is joined or dropped.
                    readers.retain(|r| !r.is_finished());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        drop(self.listener);

        // Drain: every admitted request must be answered before workers
        // stop. Readers reject new work once `draining` is set, so this
        // converges.
        loop {
            if inner.queue.len() == 0 && inner.stats.in_flight.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        inner.workers_stop.store(true, Ordering::SeqCst);
        inner.queue.cond.notify_all();
        for w in workers {
            w.join().expect("batch worker panicked");
        }
        // Belt and braces: a request admitted in the instant between the
        // emptiness check and worker exit still gets served.
        let leftovers = inner.queue.drain_remaining();
        if !leftovers.is_empty() {
            serve_batch(&inner, leftovers);
        }

        // Unblock reader threads parked in `read` and collect them.
        for conn in inner.conns.lock().unwrap().values() {
            conn.shutdown(Shutdown::Both).ok();
        }
        for r in readers {
            r.join().ok();
        }
        stats_json(&inner)
    }
}

fn handle_conn(inner: Arc<Inner>, conn_id: u64, stream: TcpStream) {
    inner.stats.conns_accepted.fetch_add(1, Ordering::Relaxed);
    inner.stats.conns_active.fetch_add(1, Ordering::Relaxed);
    let _ = serve_conn(&inner, stream);
    // Drop the drain registry's clone, or the peer never sees EOF (and
    // the fd would leak for the life of the process).
    inner.conns.lock().unwrap().remove(&conn_id);
    inner.stats.conns_active.fetch_sub(1, Ordering::Relaxed);
}

/// Sniff the first four bytes: the binary magic starts a framed
/// session, anything else is given to the HTTP handler.
fn serve_conn(inner: &Arc<Inner>, mut stream: TcpStream) -> io::Result<()> {
    let mut first = [0u8; 4];
    let mut got = 0;
    while got < first.len() {
        match stream.read(&mut first[got..]) {
            Ok(0) => return Ok(()), // closed before saying anything
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if first == MAGIC {
        let mut version = [0u8; 1];
        stream.read_exact(&mut version)?;
        let conn = Arc::new(ConnShared {
            writer: Mutex::new(stream.try_clone()?),
        });
        if version[0] != VERSION {
            inner.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            send_payload(
                inner,
                &conn,
                FrameType::Error,
                error_body(
                    codes::UNSUPPORTED_VERSION,
                    &format!(
                        "server speaks version {VERSION}, client sent {}",
                        version[0]
                    ),
                ),
            );
            return Ok(());
        }
        serve_binary(inner, &conn, stream)
    } else {
        serve_http(inner, first, stream)
    }
}

fn serve_binary(
    inner: &Arc<Inner>,
    conn: &Arc<ConnShared>,
    mut stream: TcpStream,
) -> io::Result<()> {
    loop {
        let frame = match read_frame(&mut stream, inner.config.max_frame_bytes) {
            Ok(Some(f)) => f,
            Ok(None) => return Ok(()), // clean close between frames
            Err(e) => {
                inner.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                send_payload(
                    inner,
                    conn,
                    FrameType::Error,
                    error_body(read_error_code(&e), &e.to_string()),
                );
                return Ok(());
            }
        };
        match frame.kind {
            FrameType::Optimize => handle_optimize(inner, conn, &frame.payload),
            FrameType::Stats => {
                inner.stats.stats_requests.fetch_add(1, Ordering::Relaxed);
                send_payload(inner, conn, FrameType::StatsResponse, stats_json(inner));
            }
            _ => {
                inner.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                send_payload(
                    inner,
                    conn,
                    FrameType::Error,
                    error_body(codes::PROTOCOL_ERROR, "unexpected server-side frame type"),
                );
                return Ok(());
            }
        }
    }
}

/// Parse, validate, and admit (or reject) one `Optimize` request.
fn handle_optimize(inner: &Arc<Inner>, conn: &Arc<ConnShared>, payload: &[u8]) {
    inner
        .stats
        .requests_received
        .fetch_add(1, Ordering::Relaxed);
    let doc = std::str::from_utf8(payload)
        .ok()
        .and_then(|s| ljqo_json::parse(s).ok());
    let Some(doc) = doc else {
        inner.stats.rejected_invalid.fetch_add(1, Ordering::Relaxed);
        reject(
            inner,
            conn,
            Value::Null,
            codes::BAD_REQUEST,
            "payload is not valid JSON",
        );
        return;
    };
    let id = doc.get("id").cloned().unwrap_or(Value::Null);
    let Some(query_value) = doc.get("query") else {
        inner.stats.rejected_invalid.fetch_add(1, Ordering::Relaxed);
        reject(
            inner,
            conn,
            id,
            codes::BAD_REQUEST,
            "missing \"query\" field",
        );
        return;
    };
    let query = QueryFile::from_value(query_value).and_then(QueryFile::into_query);
    let query = match query {
        Ok(q) => q,
        Err(e) => {
            inner.stats.rejected_invalid.fetch_add(1, Ordering::Relaxed);
            reject(inner, conn, id, codes::INVALID_QUERY, &e.to_string());
            return;
        }
    };
    if inner.draining.load(Ordering::SeqCst) {
        inner
            .stats
            .rejected_draining
            .fetch_add(1, Ordering::Relaxed);
        reject(
            inner,
            conn,
            id,
            codes::DRAINING,
            "server is draining; retry elsewhere",
        );
        return;
    }
    if inner.queue.len() >= inner.config.max_queue {
        inner
            .stats
            .rejected_overload
            .fetch_add(1, Ordering::Relaxed);
        reject(
            inner,
            conn,
            id,
            codes::OVERLOAD,
            "admission queue is full; back off and retry",
        );
        return;
    }
    inner.stats.admitted.fetch_add(1, Ordering::Relaxed);
    inner.stats.in_flight.fetch_add(1, Ordering::SeqCst);
    inner.queue.push(Pending {
        reply: ReplyTo {
            conn: Arc::clone(conn),
            id,
            admitted: Instant::now(),
        },
        query,
    });
}

/// Pull batches off the queue until told to stop (and the queue is dry),
/// charging the worker's time to idle, linger and busy as it goes.
fn batch_worker(inner: Arc<Inner>) {
    let (max, linger) = (inner.config.batch_max, inner.config.batch_linger);
    let mut clock = WorkerClock::start(&inner.stats.workers);
    while let Some(batch) = inner
        .queue
        .next_batch(&inner.workers_stop, max, linger, &mut clock)
    {
        serve_batch(&inner, batch);
        clock.busy();
    }
}

/// One batch solve. Each reply is written as soon as its answer is
/// ready, not after the whole batch.
fn serve_batch(inner: &Inner, batch: Vec<Pending>) {
    let dispatched = Instant::now();
    inner.stats.record_batch(batch.len());
    let (replies, queries): (Vec<ReplyTo>, Vec<Query>) =
        batch.into_iter().map(|p| (p.reply, p.query)).unzip();
    let options = BatchOptions {
        // Workers are already the parallelism; keep each batch solve
        // single-threaded so `--workers N` bounds total CPU use.
        threads: 1,
        per_query_deadline: inner.config.deadline_ms.map(Duration::from_millis),
    };
    Optimizer::new(&*inner.model, &inner.opt_config)
        .with_cache(&inner.cache, inner.fp_config)
        .with_batch(options)
        .solve_batch_with(&queries, |i, result, via, reused| {
            answer(
                inner,
                &replies[i],
                dispatched,
                &queries[i],
                result,
                via,
                reused,
            )
        });
}

/// Settle the counters for one answer, then write its reply, so a
/// client that reads `/stats` right after its reply sees the request
/// done. Drain still answers it: `run` joins the worker before it
/// closes any socket.
fn answer(
    inner: &Inner,
    reply: &ReplyTo,
    dispatched: Instant,
    query: &Query,
    result: &Result<Optimized, OptError>,
    via: &ServedVia,
    reused: bool,
) {
    inner.serving.record(result, via, reused);
    let latency_us = reply.admitted.elapsed().as_micros() as u64;
    let body = match result {
        Ok(r) => {
            // Per-class producer credit, aligned with the global
            // `method_wins` table (which also credits only answers).
            let label = classify(query).label();
            let mut class_wins = inner.class_wins.lock().unwrap();
            let slots = class_wins
                .entry(label)
                .or_insert_with(|| vec![0; win_labels().len()]);
            slots[win_slot(via.producer)] += 1;
            drop(class_wins);
            inner.stats.completed.fetch_add(1, Ordering::Relaxed);
            ok_body(reply, query, r, via, latency_us)
        }
        Err(e) => {
            inner.stats.failed.fetch_add(1, Ordering::Relaxed);
            let code = match e {
                OptError::Catalog(_) => codes::INVALID_QUERY,
                _ => codes::OPTIMIZER_FAILED,
            };
            reject_body(reply.id.clone(), code, &e.to_string())
        }
    };
    let queue_us = (dispatched - reply.admitted).as_micros() as u64;
    inner.stats.record_answer(latency_us, queue_us);
    inner.stats.in_flight.fetch_sub(1, Ordering::SeqCst);
    send_payload(inner, &reply.conn, FrameType::Response, body);
}

/// Build an object from borrowed keys (the `json!` macro cannot nest
/// computed sub-objects, so stats blocks are assembled with this).
fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn error_body(code: &str, message: &str) -> Value {
    obj(vec![
        ("code", Value::from(code)),
        ("error", Value::from(message)),
    ])
}

/// Answer a request with `"ok": false` directly from the reader thread.
fn reject(inner: &Inner, conn: &ConnShared, id: Value, code: &str, message: &str) {
    send_payload(
        inner,
        conn,
        FrameType::Response,
        reject_body(id, code, message),
    );
}

fn reject_body(id: Value, code: &str, message: &str) -> Value {
    obj(vec![
        ("id", id),
        ("ok", Value::Bool(false)),
        ("code", Value::from(code)),
        ("error", Value::from(message)),
    ])
}

fn ok_body(
    reply: &ReplyTo,
    query: &Query,
    r: &Optimized,
    via: &ServedVia,
    latency_us: u64,
) -> Value {
    let segments: Vec<Value> = r
        .plan
        .segments
        .iter()
        .map(|seg| {
            Value::Array(
                seg.rels()
                    .iter()
                    .map(|&rid| Value::from(query.relation(rid).name.as_str()))
                    .collect(),
            )
        })
        .collect();
    obj(vec![
        ("id", reply.id.clone()),
        ("ok", Value::Bool(true)),
        ("cost", Value::from(r.cost)),
        ("segments", Value::Array(segments)),
        ("outcome", Value::from(via.outcome.name())),
        ("producer", Value::from(via.producer)),
        ("degradation", Value::from(r.degradation.label())),
        ("deadline_expired", Value::Bool(r.deadline_expired)),
        ("units_used", Value::from(r.units_used)),
        ("latency_us", Value::from(latency_us)),
    ])
}

/// Send one frame on a connection; write failures are counted, never
/// propagated (the client owning the socket may simply be gone).
fn send_payload(inner: &Inner, conn: &ConnShared, kind: FrameType, body: Value) -> bool {
    let bytes = body.to_string_compact().into_bytes();
    let mut writer = conn.writer.lock().unwrap();
    match write_frame(&mut *writer, kind, &bytes) {
        Ok(()) => true,
        Err(_) => {
            inner.stats.send_failures.fetch_add(1, Ordering::Relaxed);
            false
        }
    }
}

/// Minimal HTTP/1.1 for observability: `GET /stats` and `GET /healthz`,
/// one request per connection (`Connection: close`).
fn serve_http(inner: &Arc<Inner>, prefix: [u8; 4], mut stream: TcpStream) -> io::Result<()> {
    inner.stats.http_requests.fetch_add(1, Ordering::Relaxed);
    let mut head = prefix.to_vec();
    let mut chunk = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 8192 {
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            break;
        }
        head.extend_from_slice(&chunk[..n]);
    }
    let text = String::from_utf8_lossy(&head);
    let request_line = text.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            error_body(codes::BAD_REQUEST, "only GET is supported"),
        )
    } else {
        match path {
            "/stats" => ("200 OK", stats_json(inner)),
            "/healthz" => (
                "200 OK",
                obj(vec![
                    ("ok", Value::Bool(true)),
                    (
                        "draining",
                        Value::Bool(inner.draining.load(Ordering::SeqCst)),
                    ),
                ]),
            ),
            _ => (
                "404 Not Found",
                error_body(codes::BAD_REQUEST, "unknown path; try /stats or /healthz"),
            ),
        }
    };
    let body = body.to_string_pretty() + "\n";
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// Assemble the `/stats` document. Schema documented field-by-field in
/// `docs/SERVING.md` and pinned by `tests/stats_schema_golden.rs`.
fn stats_json(inner: &Inner) -> Value {
    let load = |a: &std::sync::atomic::AtomicU64| Value::from(a.load(Ordering::Relaxed));
    let s = &inner.stats;
    let cache = inner.cache.stats();
    let serving = inner.serving.snapshot();
    let c = &inner.config;

    let server = obj(vec![
        ("name", Value::from("ljqo-server")),
        ("protocol_version", Value::from(VERSION)),
        (
            "uptime_ms",
            Value::from(inner.started.elapsed().as_millis() as u64),
        ),
        (
            "draining",
            Value::Bool(inner.draining.load(Ordering::SeqCst)),
        ),
        ("method", Value::from(c.method.name())),
        ("model", Value::from(c.model.as_str())),
        ("tau", Value::from(c.tau)),
        ("kappa", Value::from(c.kappa)),
        ("seed", Value::from(c.seed)),
        (
            "deadline_ms",
            c.deadline_ms.map(Value::from).unwrap_or(Value::Null),
        ),
        ("workers", Value::from(c.workers)),
        ("batch_max", Value::from(c.batch_max)),
        (
            "batch_linger_ms",
            Value::from(c.batch_linger.as_secs_f64() * 1e3),
        ),
        ("max_queue", Value::from(c.max_queue)),
        ("max_frame_bytes", Value::from(c.max_frame_bytes)),
    ]);
    let connections = obj(vec![
        ("accepted", load(&s.conns_accepted)),
        ("active", load(&s.conns_active)),
    ]);
    let requests = obj(vec![
        ("received", load(&s.requests_received)),
        ("admitted", load(&s.admitted)),
        ("completed", load(&s.completed)),
        ("failed", load(&s.failed)),
        ("rejected_overload", load(&s.rejected_overload)),
        ("rejected_draining", load(&s.rejected_draining)),
        ("rejected_invalid", load(&s.rejected_invalid)),
        ("protocol_errors", load(&s.protocol_errors)),
        ("send_failures", load(&s.send_failures)),
        ("stats_requests", load(&s.stats_requests)),
        ("http_requests", load(&s.http_requests)),
        ("in_flight", load(&s.in_flight)),
        ("queued", Value::from(inner.queue.len())),
    ]);
    let batches_count = s.batches.load(Ordering::Relaxed);
    let batches = obj(vec![
        ("count", Value::from(batches_count)),
        ("queries", load(&s.batched_queries)),
        ("max_size", load(&s.max_batch)),
        (
            "mean_size",
            Value::from(if batches_count == 0 {
                0.0
            } else {
                s.batched_queries.load(Ordering::Relaxed) as f64 / batches_count as f64
            }),
        ),
    ]);
    let histogram = |h: &LatencyHistogram| {
        let snap = h.snapshot();
        obj(vec![
            ("count", Value::from(snap.count)),
            ("mean", Value::from(snap.mean_us)),
            ("p50", Value::from(snap.p50_us)),
            ("p90", Value::from(snap.p90_us)),
            ("p95", Value::from(snap.p95_us)),
            ("p99", Value::from(snap.p99_us)),
            ("max", Value::from(snap.max_us)),
        ])
    };
    let stages = obj(vec![
        ("queue_us", histogram(&s.queue)),
        ("service_us", histogram(&s.service)),
    ]);
    let micros = |a: &AtomicU64| Value::from(a.load(Ordering::Relaxed) / 1000);
    let workers = obj(vec![
        ("busy_us", micros(&s.workers.busy_ns)),
        ("linger_us", micros(&s.workers.linger_ns)),
        ("idle_us", micros(&s.workers.idle_ns)),
    ]);
    let cache_block = obj(vec![
        ("hits", Value::from(cache.hits)),
        ("misses", Value::from(cache.misses)),
        ("inserts", Value::from(cache.inserts)),
        ("evictions", Value::from(cache.evictions)),
        ("resident_entries", Value::from(cache.entries)),
        ("resident_bytes", Value::from(cache.bytes)),
        ("capacity_entries", Value::from(c.cache_entries)),
        ("shards", Value::from(c.cache_shards)),
        ("fp_buckets", Value::from(c.fp_buckets)),
    ]);
    let serving_block = obj(vec![
        ("queries", Value::from(serving.queries)),
        ("cold_solves", Value::from(serving.cold_solves)),
        ("cache_hits", Value::from(serving.cache_hits)),
        ("dedup_reuses", Value::from(serving.dedup_reuses)),
        ("failed", Value::from(serving.failed)),
        ("degraded", Value::from(serving.degraded)),
        ("deadline_expired", Value::from(serving.deadline_expired)),
        ("units_used", Value::from(serving.units_used)),
        // The batch counts live in `ServerStats`, next to the
        // `batches` block; both render the one pair of counters.
        ("batches", load(&s.batches)),
        ("max_batch", load(&s.max_batch)),
    ]);
    let degradation = obj(DEGRADATION_LABELS
        .iter()
        .zip(serving.degradation.iter())
        .map(|(&label, &count)| (label, Value::from(count)))
        .collect());
    let wins = obj(serving
        .method_wins
        .iter()
        .map(|&(name, count)| (name, Value::from(count)))
        .collect());
    // Per-class wins as an array of objects: class labels are dynamic,
    // so keeping them in array elements (not object keys) keeps the
    // golden key-path schema stable across workloads.
    let labels = win_labels();
    let wins_by_class = Value::Array(
        inner
            .class_wins
            .lock()
            .unwrap()
            .iter()
            .map(|(class, slots)| {
                obj(vec![
                    ("class", Value::from(class.as_str())),
                    (
                        "wins",
                        obj(labels
                            .iter()
                            .zip(slots)
                            .map(|(&name, &count)| (name, Value::from(count)))
                            .collect()),
                    ),
                ])
            })
            .collect(),
    );
    obj(vec![
        ("server", server),
        ("connections", connections),
        ("requests", requests),
        ("batches", batches),
        ("workers", workers),
        ("latency_us", histogram(&s.latency)),
        ("stages", stages),
        ("cache", cache_block),
        ("serving", serving_block),
        ("degradation", degradation),
        ("method_wins", wins),
        ("method_wins_by_class", wins_by_class),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::WorkerTime;

    /// Queue items that are just their admission times.
    fn batch_of(q: &Queue<Instant>, stop: &AtomicBool, linger: Duration) -> Option<Vec<Instant>> {
        let time = WorkerTime::default();
        q.next_batch(stop, 64, linger, &mut WorkerClock::start(&time))
    }

    #[test]
    fn a_request_that_waited_its_linger_leaves_at_once_with_the_queue() {
        let linger = Duration::from_millis(200);
        let q = Queue::new();
        let stop = AtomicBool::new(false);
        let first = Instant::now()
            .checked_sub(linger)
            .expect("the clock reaches back one linger");
        let (second, third) = (Instant::now(), Instant::now());
        for admitted in [first, second, third] {
            q.push(admitted);
        }
        let started = Instant::now();
        let batch = batch_of(&q, &stop, linger).expect("a batch");
        assert!(
            started.elapsed() < linger / 4,
            "dispatched after {:?}",
            started.elapsed()
        );
        assert_eq!(batch, [first, second, third]);
        stop.store(true, Ordering::SeqCst);
        assert_eq!(batch_of(&q, &stop, linger), None);
    }

    #[test]
    fn a_request_queued_while_no_worker_waits_leaves_at_once() {
        let linger = Duration::from_secs(1);
        let q = Queue::new();
        let stop = AtomicBool::new(false);
        let admitted = Instant::now();
        q.push(admitted);
        let started = Instant::now();
        let batch = batch_of(&q, &stop, linger).expect("a batch");
        assert!(
            started.elapsed() < linger / 4,
            "dispatched after {:?}",
            started.elapsed()
        );
        assert_eq!(batch, [admitted]);
    }

    #[test]
    fn a_request_that_finds_the_queue_empty_waits_its_linger_for_companions() {
        let linger = Duration::from_millis(400);
        let q = Queue::new();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let batch = batch_of(&q, &stop, linger).expect("a batch");
                (batch, Instant::now())
            });
            // Give the worker time to park on the empty queue, so the
            // first request is the one that wakes it.
            std::thread::sleep(linger / 8);
            let first = Instant::now();
            q.push(first);
            std::thread::sleep(linger / 4);
            let second = Instant::now();
            q.push(second);
            let (batch, dispatched) = worker.join().expect("worker");
            assert_eq!(batch, [first, second]);
            assert!(
                dispatched >= first + linger,
                "dispatched {:?} after the first admission",
                dispatched - first
            );
        });
    }
}
