//! # ljqo-perfbench — the optimizer service benchmark
//!
//! One command runs one workload against the public entry points and
//! prints every metric by name and unit; the last line of standard output
//! is the result object
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_warm --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (each in its own process; inputs are generated during set-up
//! from `--seed`):
//!
//! * `serve_warm` — `ljqo_server::Server` with one batch worker, driven by
//!   two closed-loop `ljqo_server::Client` connections rotating through 64
//!   cached 20-join JOB-shaped query classes: no search, so the time is the
//!   server's framing, admission, queue and batch linger plus the cache hit.
//! * `serve_cold` — the same server and loop, but every request is a
//!   distinct query: each pays a cold IAI solve at τ = 9, an insert and an
//!   eviction.
//! * `plan_large` — `ljqo::try_optimize` (II, τ = 1, `nlogn:256`) over 50
//!   random-graph queries with 200 joins, one solve per thread on two
//!   threads: the search loop alone, in the 4-word bitset tier.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs the same
//! window, then times each crate's public calls on the same queries and
//! reports the per-layer metrics and a stage reconciliation.
//!
//! Seeds 1–10 are the development seeds; seed 9001 is held out for
//! checking a claim made on them.

mod layers;
mod plan_large;
mod report;
mod serve;

use std::process::ExitCode;

use ljqo::bound::BoundReport;
use ljqo::recost_plan;
use ljqo_catalog::Query;
use ljqo_cost::MemoryCostModel;
use ljqo_plan::validity::is_valid;
use ljqo_plan::Plan;
use report::{commit, quote};

const USAGE: &str = "usage: ljqo-perfbench --workload <serve_warm|serve_cold|plan_large> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// splitmix64 finalizer: spreads the run seed over per-query seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Check an answer against the query it answers: every relation appears
/// exactly once, each segment is a valid join order, and the reported
/// cost re-prices within 1e-9 relative. Returns the cost over the
/// certified lower bound.
fn check_plan(query: &Query, plan: &Plan, cost: f64, bound: &BoundReport) -> Result<f64, String> {
    let mut seen = vec![false; query.n_relations()];
    for seg in &plan.segments {
        for rel in seg.rels() {
            if std::mem::replace(&mut seen[rel.index()], true) {
                return Err(format!(
                    "relation {} appears twice",
                    query.relation(*rel).name
                ));
            }
        }
        if !is_valid(query.graph(), seg.rels()) {
            return Err("segment is not a valid join order".to_string());
        }
    }
    if !seen.iter().all(|&s| s) {
        return Err("plan does not cover every relation".to_string());
    }
    let recost = recost_plan(query, &MemoryCostModel::default(), plan);
    if (recost - cost).abs() > 1e-9 * recost.abs().max(cost.abs()) {
        return Err(format!("reported cost {cost} re-prices to {recost}"));
    }
    BoundReport::ratio(bound.linear, cost).ok_or_else(|| "no lower bound".to_string())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["serve_warm", "serve_cold", "plan_large"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let config = match args.workload.as_str() {
        "plan_large" => format!("{:?}", plan_large::optimizer_config()),
        _ => format!(
            "{:?} {:?}",
            serve::server_config(),
            serve::optimizer_config()
        ),
    };
    println!(
        "{{\"host\": {{\"cores\": {cores}, \"rustc\": {}, \"commit\": {}}}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"config\": {}}}",
        quote(env!("PERFBENCH_RUSTC")),
        quote(&commit()),
        quote(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        quote(&config),
    );
    let outcome = match args.workload.as_str() {
        "serve_warm" => serve::run(false, args.seed, args.seconds, args.trace),
        "serve_cold" => serve::run(true, args.seed, args.seconds, args.trace),
        _ => plan_large::run(args.seed, args.seconds, args.trace),
    };
    outcome.print();
    ExitCode::SUCCESS
}
