//! Profiling target for the cold solve the optimizer service runs on a
//! cache miss: IAI with the server's default `τ`, `κ` and seed on 20-join
//! JOB-shaped queries (star, snowflake and cyclic in rotation), solved in
//! one thread with nothing else in the process.
//!
//! ```sh
//! cargo build --release -p ljqo-bench --bin solve_profile
//! target/release/solve_profile 300    # solves (default 300)
//! ```
//!
//! Prints the mean and fastest solve times and a checksum over every
//! plan's cost bits, units and evaluations. An exact kernel change must
//! leave the checksum unchanged; run the binary under a sampling
//! profiler to see where a solve's time goes (EXPERIMENTS.md, "Profiling
//! the cold solve").

use std::time::Instant;

use ljqo::{Optimizer, OptimizerConfig};
use ljqo_cost::MemoryCostModel;
use ljqo_server::ServerConfig;
use ljqo_workload::{generate_job_query, JobShape, JobSpec};

fn main() {
    let solves: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("solves must be a positive integer"))
        .unwrap_or(300);
    let server = ServerConfig::default();
    let config = OptimizerConfig::new(server.method)
        .with_time_limit(server.tau)
        .with_kappa(server.kappa)
        .with_seed(server.seed);
    let model = MemoryCostModel::default();
    let queries: Vec<_> = (0..60u64)
        .map(|k| {
            let shape = JobShape::ALL[k as usize % JobShape::ALL.len()];
            generate_job_query(&JobSpec::new(shape), 20, 1_000 + k)
        })
        .collect();

    let mut checksum = 0u64;
    let (mut total, mut fastest) = (0.0f64, f64::INFINITY);
    for i in 0..solves {
        let start = Instant::now();
        let r = Optimizer::new(&model, &config)
            .solve(&queries[i % queries.len()])
            .expect("a connected JOB query always yields a plan")
            .0;
        let secs = start.elapsed().as_secs_f64();
        total += secs;
        fastest = fastest.min(secs);
        for word in [r.cost.to_bits(), r.units_used, r.n_evals] {
            checksum = checksum.rotate_left(5) ^ word;
        }
    }
    println!(
        "solves={solves} mean_ms={:.4} fastest_ms={:.4} checksum={checksum:016x}",
        total / solves as f64 * 1e3,
        fastest * 1e3
    );
}
