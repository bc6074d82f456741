//! # ljqo-server — the LJQO optimizer as a long-running daemon
//!
//! Everything below `ljqo-core` optimizes one query per process
//! invocation. This crate turns the stack into a service: a TCP daemon
//! that accepts catalogs and queries over a length-prefixed binary
//! protocol (with minimal HTTP/1.1 on the same port for `curl /stats`),
//! admission-controls and batches concurrent requests through
//! a cached [`ljqo::Optimizer::solve_batch`] — so structurally-equal queries
//! arriving together dedup to one cold solve — and shares one
//! [`PlanCache`](ljqo_cache::PlanCache) across every connection.
//!
//! * [`protocol`] — the wire format: magic + version handshake, then
//!   `[type u8][len u32 BE][JSON payload]` frames.
//! * [`server`] — [`Server`] / [`ServerConfig`] / [`ServerHandle`]: the
//!   accept loop, batch workers, `/stats`, and graceful drain.
//! * [`client`] — a blocking [`Client`] with pipelining, plus
//!   [`fetch_stats_http`].
//! * [`stats`] — the lock-free [`stats::ServerStats`] counters and
//!   log-bucketed [`stats::LatencyHistogram`] behind `/stats`.
//!
//! Operator documentation (flags, `/stats` schema, capacity planning,
//! troubleshooting) lives in `docs/SERVING.md`.
//!
//! ## In-process round trip
//!
//! ```
//! use ljqo_cli::QueryFile;
//! use ljqo_server::{Client, Server, ServerConfig};
//!
//! let config = ServerConfig {
//!     addr: "127.0.0.1:0".to_string(), // pick any free port
//!     ..ServerConfig::default()
//! };
//! let server = Server::bind(config).unwrap();
//! let addr = server.local_addr().unwrap();
//! let handle = server.handle();
//! let running = std::thread::spawn(move || server.run());
//!
//! let query = QueryFile::from_json(
//!     r#"{
//!         "relations": [
//!             {"name": "orders", "cardinality": 100000},
//!             {"name": "customers", "cardinality": 10000}
//!         ],
//!         "joins": [{"left": "orders", "right": "customers", "selectivity": 0.0001}]
//!     }"#,
//! )
//! .unwrap();
//! let mut client = Client::connect(addr).unwrap();
//! let reply = client.optimize(1, &query).unwrap();
//! assert_eq!(reply.get("ok").and_then(|v| v.as_bool()), Some(true));
//! assert!(reply.get("cost").and_then(|v| v.as_f64()).unwrap() > 0.0);
//!
//! handle.shutdown();
//! let final_stats = running.join().unwrap();
//! let served = final_stats.get("serving").and_then(|s| s.get("queries"));
//! assert_eq!(served.and_then(|v| v.as_u64()), Some(1));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod stats;

pub use client::{fetch_stats_http, Client};
pub use protocol::{Frame, FrameType, DEFAULT_MAX_FRAME_BYTES, MAGIC, VERSION};
pub use server::{Server, ServerConfig, ServerHandle};
pub use stats::{LatencyHistogram, LatencySnapshot, ServerStats};
