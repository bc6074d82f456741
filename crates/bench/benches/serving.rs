//! End-to-end serving latency and throughput through `ljqo-server`.
//!
//! For every cell of a {shape} x {workers} grid, an in-process server
//! is started on an ephemeral port and driven by `ljqo-loadgen`'s
//! closed-loop client twice:
//!
//! * **cold** — every request is structurally unique (`classes = 0`),
//!   so each one pays a full optimizer solve. This is the price of an
//!   empty (or defeated) plan cache.
//! * **warm** — requests rotate through a small pool of query classes
//!   after a cache-populating warmup, so the measurement window is
//!   served almost entirely from the shared [`PlanCache`].
//!
//! The report records client-observed p50/p95/p99 and throughput per
//! cell, and asserts the acceptance bar: the warm p50 must beat the
//! cold p50 in every cell (the serving layer's whole reason to exist).
//!
//! Writes `BENCH_serving.json` (see [`ljqo_bench::snapshot`] for
//! `BENCH_OUT_DIR` and the seconds-long `BENCH_SMOKE` run).

use std::time::Duration;

use ljqo_json::Value;
use ljqo_loadgen::{run_load, LoadReport, LoadSpec};
use ljqo_server::{Server, ServerConfig};
use ljqo_workload::JobShape;

fn json_num(x: f64) -> Value {
    Value::Number((x * 1000.0).round() / 1000.0)
}

/// Build a JSON object from computed values (the `json!` macro only
/// takes literals).
fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn report_json(r: &LoadReport) -> Value {
    obj(vec![
        ("completed", Value::from(r.completed)),
        ("throughput_qps", json_num(r.throughput)),
        ("latency_us_p50", Value::from(r.latency.p50_us)),
        ("latency_us_p95", Value::from(r.latency.p95_us)),
        ("latency_us_p99", Value::from(r.latency.p99_us)),
        ("latency_us_mean", json_num(r.latency.mean_us)),
        (
            "outcomes",
            Value::Object(
                r.outcomes
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::from(*v)))
                    .collect(),
            ),
        ),
    ])
}

fn main() {
    let smoke = ljqo_bench::snapshot::smoke();
    let (n_joins, connections, classes, cold_s, warmup_s, warm_s, worker_grid): (
        usize,
        usize,
        usize,
        f64,
        f64,
        f64,
        Vec<usize>,
    ) = if smoke {
        (8, 2, 8, 0.5, 0.4, 0.5, vec![1, 2])
    } else {
        (12, 4, 16, 1.5, 1.0, 1.5, vec![1, 2, 4])
    };
    let shapes = [JobShape::Star, JobShape::Snowflake, JobShape::Cyclic];

    let mut cells = Vec::new();
    for shape in shapes {
        for &workers in &worker_grid {
            let server = Server::bind(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers,
                ..ServerConfig::default()
            })
            .expect("bind ephemeral serving port");
            let addr = server.local_addr().expect("bound address").to_string();
            let handle = server.handle();
            let running = std::thread::spawn(move || server.run());

            // Cold: unique query per request, no warmup, cache defeated.
            let cold = run_load(&LoadSpec {
                addr: addr.clone(),
                connections,
                duration: Duration::from_secs_f64(cold_s),
                warmup: Duration::ZERO,
                classes: 0,
                shape,
                n_joins,
                seed: 0xC01D,
                ..LoadSpec::default()
            })
            .expect("cold load run");
            assert!(cold.completed > 0, "cold run must complete requests");
            assert_eq!(cold.io_errors, 0, "cold run must not lose connections");

            // Warm: a small class pool, warmed up, then measured.
            let warm = run_load(&LoadSpec {
                addr: addr.clone(),
                connections,
                duration: Duration::from_secs_f64(warm_s),
                warmup: Duration::from_secs_f64(warmup_s),
                classes,
                shape,
                n_joins,
                seed: 0x3A97,
                ..LoadSpec::default()
            })
            .expect("warm load run");
            assert!(warm.completed > 0, "warm run must complete requests");
            assert_eq!(warm.io_errors, 0, "warm run must not lose connections");
            assert!(
                warm.latency.p50_us < cold.latency.p50_us,
                "acceptance: warm p50 ({} us) must beat cold p50 ({} us) \
                 for shape={} workers={workers}",
                warm.latency.p50_us,
                cold.latency.p50_us,
                shape.name(),
            );

            handle.shutdown();
            let final_stats = running.join().expect("server drains cleanly");
            let cold_solves = final_stats
                .get("serving")
                .and_then(|s| s.get("cold_solves"))
                .and_then(Value::as_u64)
                .unwrap_or(0);

            println!(
                "{}/w{}: cold p50 {} us ({:.0} qps) | warm p50 {} us ({:.0} qps) | {:.0}x",
                shape.name(),
                workers,
                cold.latency.p50_us,
                cold.throughput,
                warm.latency.p50_us,
                warm.throughput,
                cold.latency.p50_us as f64 / warm.latency.p50_us.max(1) as f64,
            );
            cells.push(obj(vec![
                ("shape", Value::from(shape.name())),
                ("workers", Value::from(workers as u64)),
                (
                    "p50_speedup",
                    json_num(cold.latency.p50_us as f64 / warm.latency.p50_us.max(1) as f64),
                ),
                ("server_cold_solves", Value::from(cold_solves)),
                ("cold", report_json(&cold)),
                ("warm", report_json(&warm)),
            ]));
        }
    }

    let report = obj(vec![
        ("bench", Value::from("serving")),
        (
            "description",
            Value::from(
                "End-to-end ljqo-server latency/throughput: cold (unique queries) vs \
                 warm (class pool through the shared plan cache), per shape and worker count",
            ),
        ),
        ("smoke", Value::Bool(smoke)),
        (
            "spec",
            obj(vec![
                ("n_joins", Value::from(n_joins as u64)),
                ("connections", Value::from(connections as u64)),
                ("warm_classes", Value::from(classes as u64)),
                ("cold_duration_s", json_num(cold_s)),
                ("warm_duration_s", json_num(warm_s)),
                ("warmup_s", json_num(warmup_s)),
                ("pacing", Value::from("closed-loop")),
            ]),
        ),
        ("cells", Value::Array(cells)),
    ]);

    ljqo_bench::snapshot::write_snapshot("BENCH_serving.json", &report);
}
