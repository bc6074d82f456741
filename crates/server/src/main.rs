//! `ljqo-server` — run the LJQO optimizer as a daemon.
//!
//! ```text
//! ljqo-server [--addr HOST:PORT] [--method IAI] [--model memory|disk|multi]
//!             [--tau F] [--kappa F] [--seed N] [--deadline-ms N]
//!             [--workers N] [--batch-max N] [--batch-linger-ms F]
//!             [--max-queue N] [--max-frame-bytes N]
//!             [--cache-entries N] [--cache-shards N] [--fp-buckets N]
//! ```
//!
//! The daemon prints one `listening on ADDR` line once the socket is
//! bound (scripts block on it), serves until SIGTERM or SIGINT, then
//! drains gracefully — stops accepting, answers everything already
//! admitted — and prints the final stats document to stdout before
//! exiting 0. `--batch-linger-ms` is how long a request that reaches an
//! idle worker waits for companions to batch with; a request that
//! queued while every worker was busy does not wait. See
//! `docs/SERVING.md` for the protocol and the meaning of every flag.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use ljqo::Method;
use ljqo_server::{Server, ServerConfig};

/// Async-signal-safe termination flag: the handler only stores, the
/// watcher thread polls.
static TERMINATE: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    use super::TERMINATE;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        TERMINATE.store(true, Ordering::SeqCst);
    }

    // libc is always linked on unix targets; declaring `signal` directly
    // avoids an external crate dependency. The handler address and the
    // returned previous handler are both pointer-sized.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    /// Non-unix builds rely on the process being killed outright.
    pub fn install() {}
}

fn usage() -> ! {
    eprintln!(
        "usage: ljqo-server [--addr HOST:PORT] [--method IAI] [--model memory|disk|multi]\n\
         \x20                  [--tau F] [--kappa F] [--seed N] [--deadline-ms N]\n\
         \x20                  [--workers N] [--batch-max N] [--batch-linger-ms F]\n\
         \x20                  [--max-queue N] [--max-frame-bytes N]\n\
         \x20                  [--cache-entries N] [--cache-shards N] [--fp-buckets N]\n\n\
         --batch-linger-ms F is how long a request that reaches an idle worker\n\
         waits for companions (default 2); one queued behind busy workers does not.\n\
         docs/SERVING.md describes every flag."
    );
    std::process::exit(2);
}

fn parse_config() -> ServerConfig {
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    let value_for = |flag: &str, args: &mut dyn Iterator<Item = String>| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("error: {flag} needs a value");
            usage();
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = value_for("--addr", &mut args),
            "--method" => {
                let v = value_for("--method", &mut args);
                config.method = Method::parse(&v).unwrap_or_else(|| {
                    eprintln!("error: unknown method `{v}`");
                    usage();
                });
            }
            "--model" => config.model = value_for("--model", &mut args),
            "--tau" => config.tau = parse_num("--tau", &value_for("--tau", &mut args)),
            "--kappa" => config.kappa = parse_num("--kappa", &value_for("--kappa", &mut args)),
            "--seed" => config.seed = parse_int("--seed", &value_for("--seed", &mut args)),
            "--deadline-ms" => {
                config.deadline_ms = Some(parse_int(
                    "--deadline-ms",
                    &value_for("--deadline-ms", &mut args),
                ));
            }
            "--workers" => {
                config.workers =
                    parse_int("--workers", &value_for("--workers", &mut args)) as usize;
            }
            "--batch-max" => {
                config.batch_max = (parse_int("--batch-max", &value_for("--batch-max", &mut args))
                    as usize)
                    .max(1);
            }
            "--batch-linger-ms" => {
                let ms = parse_num(
                    "--batch-linger-ms",
                    &value_for("--batch-linger-ms", &mut args),
                );
                config.batch_linger = Duration::try_from_secs_f64((ms / 1e3).max(0.0))
                    .unwrap_or_else(|_| {
                        eprintln!("error: --batch-linger-ms is out of range, got `{ms}`");
                        usage();
                    });
            }
            "--max-queue" => {
                config.max_queue =
                    parse_int("--max-queue", &value_for("--max-queue", &mut args)) as usize;
            }
            "--max-frame-bytes" => {
                config.max_frame_bytes = parse_int(
                    "--max-frame-bytes",
                    &value_for("--max-frame-bytes", &mut args),
                ) as usize;
            }
            "--cache-entries" => {
                config.cache_entries =
                    parse_int("--cache-entries", &value_for("--cache-entries", &mut args)) as usize;
            }
            "--cache-shards" => {
                config.cache_shards =
                    (parse_int("--cache-shards", &value_for("--cache-shards", &mut args)) as usize)
                        .max(1);
            }
            "--fp-buckets" => {
                config.fp_buckets =
                    parse_int("--fp-buckets", &value_for("--fp-buckets", &mut args)) as u32;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown flag `{other}`");
                usage();
            }
        }
    }
    config
}

fn parse_num(flag: &str, v: &str) -> f64 {
    v.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} expects a number, got `{v}`");
        usage();
    })
}

fn parse_int(flag: &str, v: &str) -> u64 {
    v.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} expects an integer, got `{v}`");
        usage();
    })
}

fn main() -> ExitCode {
    let config = parse_config();
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    sig::install();
    let handle = server.handle();
    std::thread::spawn(move || loop {
        if TERMINATE.load(Ordering::SeqCst) {
            handle.shutdown();
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });

    println!("listening on {addr}");
    let final_stats = server.run();
    println!("{}", final_stats.to_string_pretty());
    ExitCode::SUCCESS
}
