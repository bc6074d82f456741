//! End-to-end integration tests: a real server on an ephemeral port,
//! driven over real sockets.
//!
//! The centerpiece pins the serving layer's core claim: a pipelined
//! batch of *relabeled duplicates* (the same query with its relation
//! listing rotated) dedups to **exactly one** cold solve — asserted on
//! the `/stats` counters, not inferred from timing — and every copy
//! receives a bit-identical cost.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use ljqo_cache::classify;
use ljqo_cli::QueryFile;
use ljqo_json::Value;
use ljqo_server::protocol::{read_frame, DEFAULT_MAX_FRAME_BYTES};
use ljqo_server::{fetch_stats_http, Client, FrameType, Server, ServerConfig};
use ljqo_workload::{generate_job_query, JobShape, JobSpec};

fn start(
    config: ServerConfig,
) -> (
    std::net::SocketAddr,
    ljqo_server::ServerHandle,
    std::thread::JoinHandle<Value>,
) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..config
    })
    .expect("bind on an ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

/// The same query with its relation *listing* rotated by `k`: different
/// relation ids, identical structure and statistics. The fingerprint is
/// relabel-invariant, so the server must treat all rotations as one
/// equivalence class.
fn rotated(base: &QueryFile, k: usize) -> QueryFile {
    let mut q = base.clone();
    let n = q.relations.len();
    q.relations.rotate_left(k % n);
    q
}

/// Block until the server's one batch worker has parked on the empty
/// queue, so the next request wakes it and lingers for companions. An
/// idle worker charges its wait to `workers.idle_us` every 50 ms, so a
/// rise shows it waiting.
fn wait_until_parked(addr: std::net::SocketAddr) {
    let idle_us = || {
        let stats = fetch_stats_http(addr).expect("stats over HTTP");
        get(&stats, &["workers", "idle_us"]).as_u64().unwrap()
    };
    let before = idle_us();
    while idle_us() == before {
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn get<'v>(value: &'v Value, path: &[&str]) -> &'v Value {
    let mut v = value;
    for p in path {
        v = v.get(p).unwrap_or_else(|| panic!("missing key {path:?}"));
    }
    v
}

#[test]
fn relabeled_duplicates_cost_one_cold_solve_and_answer_bit_identically() {
    const COPIES: usize = 6;
    let (addr, handle, join) = start(ServerConfig {
        // A generous linger so the whole pipelined burst lands in one
        // batch (the dedup assertions below hold even if it splits —
        // later copies become cache hits — but one batch is the
        // interesting path).
        batch_linger: Duration::from_millis(300),
        batch_max: COPIES * 2,
        workers: 1,
        ..ServerConfig::default()
    });

    let base = QueryFile::from_query(&generate_job_query(&JobSpec::new(JobShape::Star), 14, 42));
    let mut client = Client::connect(addr).expect("client connects");
    for i in 0..COPIES {
        client
            .send_optimize(i as u64, &rotated(&base, i))
            .expect("pipelined send");
    }
    let mut replies: Vec<Value> = (0..COPIES)
        .map(|_| {
            let (kind, v) = client.recv().expect("response arrives");
            assert_eq!(kind, FrameType::Response);
            v
        })
        .collect();
    replies.sort_by_key(|r| get(r, &["id"]).as_u64().unwrap());

    // Every copy answered OK, bit-identical cost, identical join order
    // (segments are name lists, so relabeling must not leak through).
    let reference_cost = get(&replies[0], &["cost"]).as_f64().unwrap();
    let reference_segments = get(&replies[0], &["segments"]).clone();
    assert!(reference_cost.is_finite() && reference_cost > 0.0);
    for (i, reply) in replies.iter().enumerate() {
        assert_eq!(
            get(reply, &["ok"]).as_bool(),
            Some(true),
            "copy {i}: {reply}"
        );
        assert_eq!(get(reply, &["id"]).as_u64(), Some(i as u64));
        let cost = get(reply, &["cost"]).as_f64().unwrap();
        assert_eq!(
            cost.to_bits(),
            reference_cost.to_bits(),
            "copy {i} cost {cost} != reference {reference_cost}"
        );
        assert_eq!(
            get(reply, &["segments"]),
            &reference_segments,
            "copy {i} join order differs"
        );
        assert_eq!(get(reply, &["degradation"]).as_str(), Some("none"));
        assert_eq!(get(reply, &["producer"]).as_str(), Some("IAI"));
    }
    // Exactly one representative paid the cold search.
    let miss_count = replies
        .iter()
        .filter(|r| get(r, &["outcome"]).as_str() == Some("miss"))
        .count();
    let hit_count = replies
        .iter()
        .filter(|r| get(r, &["outcome"]).as_str() == Some("hit"))
        .count();
    assert_eq!(miss_count, 1, "exactly one cold representative");
    assert_eq!(hit_count, COPIES - 1, "all other copies reuse its plan");

    // Counter-assert against /stats: the server-side view must agree.
    let stats = client.stats().expect("stats frame");
    assert_eq!(
        get(&stats, &["serving", "cold_solves"]).as_u64(),
        Some(1),
        "one cold solve across {COPIES} relabeled copies: {stats}"
    );
    assert_eq!(
        get(&stats, &["serving", "queries"]).as_u64(),
        Some(COPIES as u64)
    );
    let dedup = get(&stats, &["serving", "dedup_reuses"]).as_u64().unwrap();
    let cache_hits = get(&stats, &["serving", "cache_hits"]).as_u64().unwrap();
    assert_eq!(dedup + cache_hits, (COPIES - 1) as u64);
    assert_eq!(
        get(&stats, &["requests", "completed"]).as_u64(),
        Some(COPIES as u64)
    );
    assert_eq!(
        get(&stats, &["method_wins", "IAI"]).as_u64(),
        Some(COPIES as u64)
    );

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn replies_stream_out_as_each_answer_is_ready() {
    // `batch_max = 2` closes each batch as its second request lands; the
    // long linger only makes sure the two pipelined requests share it.
    // Each pair is sent to a parked worker: a request that finds the
    // worker still busy would leave without lingering for its partner.
    let (addr, handle, join) = start(ServerConfig {
        batch_linger: Duration::from_secs(5),
        batch_max: 2,
        workers: 1,
        ..ServerConfig::default()
    });
    let small = QueryFile::from_query(&generate_job_query(&JobSpec::new(JobShape::Star), 8, 3));
    let large = QueryFile::from_query(&generate_job_query(&JobSpec::new(JobShape::Cyclic), 40, 11));
    let mut client = Client::connect(addr).unwrap();
    let reply = |client: &mut Client| {
        let (kind, v) = client.recv().expect("response arrives");
        assert_eq!(kind, FrameType::Response);
        assert_eq!(get(&v, &["ok"]).as_bool(), Some(true), "{v}");
        (v, fetch_stats_http(addr).expect("stats over HTTP"))
    };
    let done = |stats: &Value| {
        (
            get(stats, &["requests", "completed"]).as_u64().unwrap(),
            get(stats, &["serving", "queries"]).as_u64().unwrap(),
        )
    };

    // Warm the cache: one cold solve and its dedup reuse.
    wait_until_parked(addr);
    client.send_optimize(0, &small).unwrap();
    client.send_optimize(1, &small).unwrap();
    for _ in 0..2 {
        reply(&mut client);
    }

    // One batch: a cache hit first, then a large cold query. The pool
    // answers in order, and the hit's reply must not wait for the solve.
    wait_until_parked(addr);
    client.send_optimize(2, &small).unwrap();
    client.send_optimize(3, &large).unwrap();
    let (hit, after_hit) = reply(&mut client);
    assert_eq!(get(&hit, &["id"]).as_u64(), Some(2));
    assert_eq!(get(&hit, &["outcome"]).as_str(), Some("hit"));
    let (c, q) = done(&after_hit);
    assert!(
        c >= 3 && q >= 3,
        "the hit is counted before its reply: {after_hit}"
    );
    let (cold, after_cold) = reply(&mut client);
    assert_eq!(get(&cold, &["id"]).as_u64(), Some(3));
    assert_eq!(get(&cold, &["outcome"]).as_str(), Some("miss"));
    assert_eq!(done(&after_cold), (4, 4), "{after_cold}");
    let latency = |v: &Value| get(v, &["latency_us"]).as_u64().unwrap();
    assert!(
        latency(&hit) < latency(&cold),
        "the hit ({} us) was written before the cold solve ({} us) finished",
        latency(&hit),
        latency(&cold)
    );
    assert_eq!(get(&after_cold, &["batches", "count"]).as_u64(), Some(2));
    assert_eq!(
        get(&after_cold, &["serving", "cold_solves"]).as_u64(),
        Some(2)
    );

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn a_request_queued_behind_a_busy_worker_does_not_wait_out_the_linger() {
    // The two copies wake the idle worker and close its batch at once
    // (`batch_max = 2`); the star query queues while the worker solves
    // them, so it must leave as soon as the worker is free, not after
    // the 5 s linger.
    let linger = Duration::from_secs(5);
    let (addr, handle, join) = start(ServerConfig {
        batch_linger: linger,
        batch_max: 2,
        workers: 1,
        ..ServerConfig::default()
    });
    let large = QueryFile::from_query(&generate_job_query(&JobSpec::new(JobShape::Cyclic), 40, 11));
    let small = QueryFile::from_query(&generate_job_query(&JobSpec::new(JobShape::Star), 8, 3));
    let mut client = Client::connect(addr).unwrap();
    client.send_optimize(0, &large).unwrap();
    client.send_optimize(1, &large).unwrap();
    client.send_optimize(2, &small).unwrap();
    let mut replies: Vec<Value> = (0..3)
        .map(|_| {
            let (kind, v) = client.recv().expect("response arrives");
            assert_eq!(kind, FrameType::Response);
            assert_eq!(get(&v, &["ok"]).as_bool(), Some(true), "{v}");
            v
        })
        .collect();
    replies.sort_by_key(|r| get(r, &["id"]).as_u64().unwrap());
    let latency_us = get(&replies[2], &["latency_us"]).as_u64().unwrap();
    assert!(
        latency_us < linger.as_micros() as u64 / 2,
        "the queued request waited {latency_us} us"
    );

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn stage_times_and_worker_times_reconcile_after_a_burst() {
    let (addr, handle, join) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    // Two connections pipeline a mix of repeated and distinct queries,
    // so some requests wake an idle worker and some queue behind a
    // busy one.
    let query = |seed: u64| generate_job_query(&JobSpec::new(JobShape::Star), 10, seed);
    std::thread::scope(|scope| {
        for c in 0..2u64 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..12u64 {
                    let q = query(100 + c * 6 + i % 6);
                    client.send_optimize(i, &QueryFile::from_query(&q)).unwrap();
                }
                for _ in 0..12 {
                    let (kind, v) = client.recv().expect("response arrives");
                    assert_eq!(kind, FrameType::Response);
                    assert_eq!(get(&v, &["ok"]).as_bool(), Some(true), "{v}");
                }
            });
        }
    });
    let stats = loop {
        let stats = fetch_stats_http(addr).expect("stats over HTTP");
        let idle = |key: &str| get(&stats, &["requests", key]).as_u64() == Some(0);
        if idle("in_flight") && idle("queued") {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let num = |path: &[&str]| get(&stats, path).as_f64().unwrap();

    let latency = num(&["latency_us", "mean"]);
    let stages = num(&["stages", "queue_us", "mean"]) + num(&["stages", "service_us", "mean"]);
    assert!(
        (stages - latency).abs() <= 1e-9 * latency,
        "stage means add up to {stages} us, latency mean is {latency} us"
    );
    for stage in ["queue_us", "service_us"] {
        assert_eq!(
            num(&["stages", stage, "count"]),
            num(&["latency_us", "count"])
        );
    }

    let workers = num(&["server", "workers"]);
    let lifetime_us = workers * num(&["server", "uptime_ms"]) * 1e3;
    let accounted_us = ["busy_us", "linger_us", "idle_us"]
        .iter()
        .map(|key| num(&["workers", key]))
        .sum::<f64>();
    assert!(
        (accounted_us - lifetime_us).abs() <= workers * 60e3 + 0.02 * lifetime_us,
        "workers account for {accounted_us} us of {lifetime_us} us: {stats}"
    );
    assert!(num(&["workers", "busy_us"]) > 0.0, "{stats}");

    let requests = |key: &str| num(&["requests", key]);
    assert_eq!(requests("admitted"), 24.0);
    assert_eq!(
        requests("admitted"),
        requests("completed") + requests("failed")
    );

    // Every answer is credited once, to its producer and to the class of
    // a query that was sent: the per-class table sums to `method_wins`.
    let sent: Vec<String> = (100..112)
        .map(|seed| classify(&query(seed)).label())
        .collect();
    let wins = get(&stats, &["method_wins"]).as_object().unwrap();
    let mut summed = vec![0u64; wins.len()];
    for class in get(&stats, &["method_wins_by_class"]).as_array().unwrap() {
        let label = get(class, &["class"]).as_str().unwrap();
        assert!(sent.iter().any(|s| s == label), "unsent class {label}");
        for (slot, (producer, _)) in wins.iter().enumerate() {
            summed[slot] += get(class, &["wins", producer.as_str()]).as_u64().unwrap();
        }
    }
    let totals: Vec<u64> = wins.iter().map(|(_, v)| v.as_u64().unwrap()).collect();
    assert_eq!(summed, totals, "{stats}");
    assert_eq!(totals.iter().sum::<u64>(), 24);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn warm_cache_serves_across_connections() {
    let (addr, handle, join) = start(ServerConfig::default());
    let query = QueryFile::from_query(&generate_job_query(
        &JobSpec::new(JobShape::Snowflake),
        10,
        7,
    ));

    let first = Client::connect(addr).unwrap().optimize(1, &query).unwrap();
    assert_eq!(get(&first, &["outcome"]).as_str(), Some("miss"));

    // A different connection must see the shared cache.
    let second = Client::connect(addr).unwrap().optimize(2, &query).unwrap();
    assert_eq!(get(&second, &["outcome"]).as_str(), Some("hit"));
    assert_eq!(
        get(&second, &["cost"]).as_f64().unwrap().to_bits(),
        get(&first, &["cost"]).as_f64().unwrap().to_bits(),
        "warm hit is bit-identical to the cold solve"
    );

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn malformed_and_invalid_requests_get_typed_errors() {
    let (addr, handle, join) = start(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();

    // Not JSON at all.
    client.send_raw_optimize(b"this is not json").unwrap();
    let (_, reply) = client.recv().unwrap();
    assert_eq!(get(&reply, &["ok"]).as_bool(), Some(false));
    assert_eq!(get(&reply, &["code"]).as_str(), Some("bad_request"));

    // Valid JSON, no query field.
    client.send_raw_optimize(br#"{"id": 3}"#).unwrap();
    let (_, reply) = client.recv().unwrap();
    assert_eq!(get(&reply, &["id"]).as_u64(), Some(3));
    assert_eq!(get(&reply, &["code"]).as_str(), Some("bad_request"));

    // Structurally valid, semantically broken catalog (join references
    // an unknown relation).
    client
        .send_raw_optimize(
            br#"{"id": 4, "query": {
                "relations": [{"name": "a", "cardinality": 10}],
                "joins": [{"left": "a", "right": "ghost", "selectivity": 0.1}]
            }}"#,
        )
        .unwrap();
    let (_, reply) = client.recv().unwrap();
    assert_eq!(get(&reply, &["id"]).as_u64(), Some(4));
    assert_eq!(get(&reply, &["code"]).as_str(), Some("invalid_query"));

    // The connection survived all three rejections.
    let stats = client.stats().unwrap();
    assert_eq!(
        get(&stats, &["requests", "rejected_invalid"]).as_u64(),
        Some(3)
    );
    assert_eq!(get(&stats, &["requests", "admitted"]).as_u64(), Some(0));

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn malformed_query_members_keep_their_error_text() {
    let (addr, handle, join) = start(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    let cases: [(&[u8], &str); 3] = [
        (
            br#"{"id": 1, "query": {"joins": []}}"#,
            r#"invalid query JSON: top level needs a "relations" array"#,
        ),
        (
            br#"{"id": 2, "query": {
                "relations": [{"name": "a", "cardinality": 10}, {"name": "b", "cardinality": 5}],
                "joins": [{"left": "b", "right": "ghost", "selectivity": 0.1}]
            }}"#,
            r#"unknown relation "ghost""#,
        ),
        (
            br#"{"id": 3, "query": {
                "relations": [{"name": "a", "cardinality": 10}, {"name": "b", "cardinality": 2.5}],
                "joins": []
            }}"#,
            r#"invalid query JSON: relation #1: "cardinality" must be a non-negative integer"#,
        ),
    ];
    for (i, (payload, error)) in cases.iter().enumerate() {
        client.send_raw_optimize(payload).unwrap();
        let (_, reply) = client.recv().unwrap();
        assert_eq!(get(&reply, &["id"]).as_u64(), Some(i as u64 + 1));
        assert_eq!(get(&reply, &["ok"]).as_bool(), Some(false));
        assert_eq!(get(&reply, &["code"]).as_str(), Some("invalid_query"));
        assert_eq!(get(&reply, &["error"]).as_str(), Some(*error));
    }
    let stats = client.stats().unwrap();
    assert_eq!(
        get(&stats, &["requests", "rejected_invalid"]).as_u64(),
        Some(3)
    );
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn unsupported_version_gets_an_error_frame() {
    let (addr, handle, join) = start(ServerConfig::default());
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"LJQO\x63").unwrap(); // version 99
    let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES)
        .unwrap()
        .expect("server answers before closing");
    assert_eq!(frame.kind, FrameType::Error);
    let body = ljqo_json::parse(std::str::from_utf8(&frame.payload).unwrap()).unwrap();
    assert_eq!(get(&body, &["code"]).as_str(), Some("unsupported_version"));
    // And then the server closes.
    assert!(read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES)
        .unwrap()
        .is_none());
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn oversized_frames_are_rejected_without_allocation() {
    let (addr, handle, join) = start(ServerConfig {
        max_frame_bytes: 1024,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"LJQO\x01").unwrap();
    // Header declaring a 256 MiB payload; no payload follows.
    let mut header = vec![0x01u8];
    header.extend_from_slice(&(256u32 << 20).to_be_bytes());
    stream.write_all(&header).unwrap();
    let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES)
        .unwrap()
        .expect("error frame before close");
    assert_eq!(frame.kind, FrameType::Error);
    let body = ljqo_json::parse(std::str::from_utf8(&frame.payload).unwrap()).unwrap();
    assert_eq!(get(&body, &["code"]).as_str(), Some("frame_too_large"));
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn http_routes_serve_stats_health_and_404() {
    let (addr, handle, join) = start(ServerConfig::default());

    let stats = fetch_stats_http(addr).expect("GET /stats");
    assert!(stats.get("server").is_some());
    assert_eq!(
        get(&stats, &["server", "name"]).as_str(),
        Some("ljqo-server")
    );

    // /healthz
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    use std::io::Read;
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("\"ok\": true"));

    // Unknown path.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn drain_answers_every_admitted_request_and_rejects_new_ones() {
    const BURST: usize = 8;
    let (addr, handle, join) = start(ServerConfig {
        // Batches of two: the burst takes four batch solves, so
        // requests are still queued or in flight when the drain starts.
        batch_linger: Duration::from_millis(150),
        batch_max: 2,
        workers: 1,
        ..ServerConfig::default()
    });

    let mut client = Client::connect(addr).unwrap();
    let queries: Vec<QueryFile> = (0..BURST)
        .map(|i| {
            QueryFile::from_query(&generate_job_query(
                &JobSpec::new(JobShape::Cyclic),
                12,
                1000 + i as u64,
            ))
        })
        .collect();
    for (i, q) in queries.iter().enumerate() {
        client.send_optimize(i as u64, q).unwrap();
    }
    // A Stats frame is processed by the same reader *after* all the
    // Optimize frames, so once its reply arrives every request above
    // has been admitted. Responses may interleave before it.
    client
        .send_frame(FrameType::Stats, b"")
        .expect("stats frame");
    let mut answered = Vec::new();
    loop {
        let (kind, value) = client.recv().unwrap();
        match kind {
            FrameType::StatsResponse => {
                assert_eq!(
                    get(&value, &["requests", "admitted"]).as_u64(),
                    Some(BURST as u64),
                    "all requests admitted before the drain begins"
                );
                break;
            }
            FrameType::Response => answered.push(value),
            other => panic!("unexpected frame {other:?}"),
        }
    }

    // Drain with work still queued.
    handle.shutdown();

    // Every admitted request is still answered, with a real plan.
    while answered.len() < BURST {
        let (kind, value) = client.recv().unwrap();
        assert_eq!(kind, FrameType::Response);
        answered.push(value);
    }
    for reply in &answered {
        assert_eq!(get(reply, &["ok"]).as_bool(), Some(true), "{reply}");
    }

    // A request sent during the drain is rejected with code "draining"
    // (if the reader answers before sockets close) or the connection is
    // simply gone — never silently dropped with the connection alive.
    let late = client.send_optimize(999, &queries[0]);
    if late.is_ok() {
        match client.recv() {
            Ok((FrameType::Response, reply)) => {
                assert_eq!(get(&reply, &["ok"]).as_bool(), Some(false));
                assert_eq!(get(&reply, &["code"]).as_str(), Some("draining"));
            }
            Ok((other, _)) => panic!("unexpected frame {other:?}"),
            Err(_) => {} // server already closed the socket
        }
    }

    let final_stats = join.join().unwrap();
    assert_eq!(
        get(&final_stats, &["requests", "completed"]).as_u64(),
        Some(BURST as u64)
    );
    let count = |key: &str| get(&final_stats, &["requests", key]).as_u64().unwrap();
    assert_eq!(count("admitted"), count("completed") + count("failed"));
    assert_eq!(
        get(&final_stats, &["serving", "queries"]).as_u64(),
        Some(BURST as u64)
    );
    assert_eq!(
        get(&final_stats, &["requests", "in_flight"]).as_u64(),
        Some(0)
    );
    assert_eq!(get(&final_stats, &["requests", "queued"]).as_u64(), Some(0));
    assert_eq!(
        get(&final_stats, &["server", "draining"]).as_bool(),
        Some(true)
    );
}

#[test]
fn bind_rejects_out_of_range_budgets_and_an_empty_queue() {
    let bad = [
        ServerConfig {
            tau: f64::INFINITY,
            ..ServerConfig::default()
        },
        ServerConfig {
            tau: 0.0,
            ..ServerConfig::default()
        },
        ServerConfig {
            kappa: f64::INFINITY,
            ..ServerConfig::default()
        },
        ServerConfig {
            kappa: f64::NAN,
            ..ServerConfig::default()
        },
        ServerConfig {
            max_queue: 0,
            ..ServerConfig::default()
        },
    ];
    for config in bad {
        let err = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..config.clone()
        })
        .err()
        .unwrap_or_else(|| panic!("bind accepted {config:?}"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{config:?}");
    }
}

#[test]
fn a_linger_beyond_the_duration_range_is_a_usage_error() {
    for linger in ["inf", "1e30"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ljqo-server"))
            .args(["--addr", "127.0.0.1:0", "--batch-linger-ms", linger])
            .output()
            .expect("server binary runs");
        assert_eq!(out.status.code(), Some(2), "--batch-linger-ms {linger}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("--batch-linger-ms"));
    }
}

/// Shorthand for injecting raw (possibly malformed) `Optimize` payloads.
trait RawClient {
    fn send_raw_optimize(&mut self, payload: &[u8]) -> std::io::Result<()>;
}

impl RawClient for Client {
    fn send_raw_optimize(&mut self, payload: &[u8]) -> std::io::Result<()> {
        self.send_frame(FrameType::Optimize, payload)
    }
}
