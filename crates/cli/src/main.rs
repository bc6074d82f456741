//! `ljqo-opt` — optimize a join query described in JSON.
//!
//! ```text
//! ljqo-opt [QUERY.json] [--method IAI] [--model memory|disk|multi]
//!          [--space linear|bushy]
//!          [--tau 9] [--kappa 5] [--seed 0] [--deadline-ms N]
//!          [--budget-schedule quadratic|capped:T|nlogn:T]
//!          [--workers N] [--portfolio]
//!          [--cache-entries N] [--cache-shards N] [--fp-buckets N]
//!          [--workload-shape star|snowflake|cyclic] [--workload-joins N]
//!          [--qerror F] [--qerror-mode independent|correlated]
//!          [--json] [--all-methods]
//! ```
//!
//! With `--json` the plan is emitted as machine-readable JSON; otherwise
//! an EXPLAIN-style tree of the whole plan is printed: the segment trees
//! joined by their late cross products, in either search space. `--all-methods` optimizes with all
//! nine methods and prints a comparison table. `--deadline-ms` bounds the
//! wall-clock time of the search; when it (or a fault in the search)
//! forces a fallback plan, the degradation is reported in the output.
//!
//! Search space: `--space bushy` lifts the paper's outer-linear
//! restriction and searches mutable bushy trees with incremental
//! path-to-root re-costing (`--method BUSHYII` or `BUSHYSA` pick the
//! descent; the nine linear method names map onto the matching tree
//! search). It runs through the same `Optimizer` solve and the same
//! writers as the linear space, and its trees cache and replay like
//! linear plans (`--cache-entries`, `--qerror`). The `"space"` key is
//! always present in `--json` output, and `"bushy"` reports whether any
//! emitted segment is genuinely bushy. Bushy search is single-threaded:
//! parallel search (`--workers`, `--portfolio`) shards the
//! linear search loop and the optimizer refuses it, and the CLI refuses
//! `--all-methods`, whose table compares the paper's nine linear methods.
//! Neither is a limit of the plan type. Each refusal is a usage error
//! (exit 2).
//!
//! Large-N regime: `--budget-schedule` decides how the work budget grows
//! with query size — `quadratic` is the paper's `τ·N²·κ` rule (default),
//! `capped:T` freezes the budget at `T` joins, `nlogn:T` switches to
//! `N·log N` growth past `T` (see `ljqo_cost::BudgetSchedule`). The
//! always-present `"largen"` JSON block reports the schedule, the
//! allotted budget, and the bitset-kernel tier the query size selects;
//! the always-present `"bound"` block reports the LP-style cost lower
//! bounds (`ljqo::bound`) and the plan's `cost / lower_bound` quality
//! ratio (`0` when no positive bound exists for the model).
//!
//! Workload generation: instead of a query file, `--workload-shape`
//! generates a JOB-shaped query (star, snowflake, or cyclic around a
//! fact table) with `--workload-joins` joins (default 12), seeded by
//! `--seed`. Exactly one of the positional file and `--workload-shape`
//! must be given.
//!
//! Robustness study: `--qerror F` (F > 1) perturbs the catalog by a
//! log-uniform factor of up to `F` per statistic before optimizing —
//! the optimizer sees the *observed* (distorted) catalog, and the
//! emitted plan and cost refer to it. The always-present `"robustness"`
//! JSON block then reports the plan's cost re-priced under the *true*
//! catalog (wired through the plan cache's re-costing path), the
//! perfect-information reference cost, and the regret
//! `max(0, true/reference − 1)`. `--qerror-mode` picks independent
//! per-statistic factors or per-relation correlated ones. `--method
//! CARDFREE` selects the cardinality-free structural ordering, which
//! ignores statistics entirely and is therefore immune to the
//! perturbation.
//!
//! Parallel search: `--workers N` fans each component's budget out over
//! `N` worker threads (same total budget, wall-clock speedup only);
//! `--portfolio` rotates the workers through the heterogeneous
//! II/SA/AGI/KBI portfolio instead of cloning one method. Workers share
//! nothing, so a run is bit-deterministic in `(--seed, --workers)`.
//!
//! Plan cache: `--cache-entries N` (N > 0) routes the query through the
//! plan-cache serving path — fingerprint, lookup, validity re-check, and
//! fall-through to the cold search on a miss — exactly as a long-running
//! service would. A fresh process starts with an empty cache, so a single
//! invocation always reports a miss; the flags exist so scripts and tests
//! can exercise and snapshot the serving path. `--cache-shards` and
//! `--fp-buckets` tune the cache geometry and the log-scale statistic
//! bucketing of the fingerprint. Cache stats are always present in
//! `--json` output (with `"enabled": false` when caching is off).
//!
//! Exit codes distinguish the error classes so scripts can react:
//!
//! | code | meaning                                   |
//! |------|-------------------------------------------|
//! | 0    | success (possibly with a degraded plan)   |
//! | 2    | usage error                               |
//! | 3    | input file could not be read              |
//! | 4    | input is not valid query JSON             |
//! | 5    | catalog statistics failed validation      |
//! | 6    | optimizer could not produce any plan      |
//! | 7    | standard output could not be written      |
//!
//! A closed standard output (`ljqo-opt … | head`) exits with code 7
//! without a message; any other write error is reported on stderr.

use std::io::{self, Write};
use std::process::ExitCode;
use std::time::Duration;

use ljqo::prelude::*;
use ljqo::robust::{regret_under, RegretSample};
use ljqo_cli::QueryFile;
use ljqo_cost::MultiMethodCostModel;
use ljqo_workload::{generate_job_query, JobShape, JobSpec, PerturbMode, Perturbation};

/// Exit code for unreadable input files.
const EXIT_IO: u8 = 3;
/// Exit code for malformed query JSON.
const EXIT_JSON: u8 = 4;
/// Exit code for catalogs that fail validation.
const EXIT_CATALOG: u8 = 5;
/// Exit code for total optimizer failure (no plan at all).
const EXIT_OPTIMIZER: u8 = 6;
/// Exit code for output that could not be written (including a closed
/// pipe).
const EXIT_OUTPUT: u8 = 7;

struct Options {
    input: String,
    method: Method,
    model: String,
    space: SearchSpace,
    tau: f64,
    kappa: f64,
    schedule: BudgetSchedule,
    seed: u64,
    deadline_ms: Option<u64>,
    workers: usize,
    portfolio: bool,
    cache_entries: usize,
    cache_shards: usize,
    fp_buckets: u32,
    workload_shape: Option<JobShape>,
    workload_joins: usize,
    qerror: f64,
    qerror_mode: PerturbMode,
    json: bool,
    all_methods: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: ljqo-opt [QUERY.json] [--method II|SA|SAA|SAK|IAI|IKI|IAL|AGI|KBI|CARDFREE\n\
         \x20                                   |BUSHYII|BUSHYSA]\n\
         \x20                         [--model memory|disk|multi] [--space linear|bushy]\n\
         \x20                         [--tau F] [--kappa F]\n\
         \x20                         [--budget-schedule quadratic|capped:T|nlogn:T]\n\
         \x20                         [--seed U64] [--deadline-ms U64] [--workers N]\n\
         \x20                         [--portfolio] [--cache-entries N]\n\
         \x20                         [--cache-shards N] [--fp-buckets N]\n\
         \x20                         [--workload-shape star|snowflake|cyclic]\n\
         \x20                         [--workload-joins N] [--qerror F]\n\
         \x20                         [--qerror-mode independent|correlated]\n\
         \x20                         [--json] [--all-methods]\n\
         exactly one of QUERY.json and --workload-shape is required"
    );
    std::process::exit(2);
}

/// Parse a budget multiplier (`--tau`, `--kappa`): it must be finite
/// and positive, or the budget saturates and the search never ends.
fn positive(flag: &str, v: &str) -> f64 {
    let x: f64 = v.parse().unwrap_or_else(|_| usage());
    if !(x.is_finite() && x > 0.0) {
        eprintln!("error: {flag} must be a finite value > 0");
        usage()
    }
    x
}

/// Parse a count flag (`--workers`, `--cache-shards`, …) that must be at
/// least 1.
fn at_least_one<T: std::str::FromStr + PartialEq + From<u8>>(flag: &str, v: &str) -> T {
    let n: T = v.parse().unwrap_or_else(|_| usage());
    if n == T::from(0) {
        eprintln!("error: {flag} must be at least 1");
        usage()
    }
    n
}

fn parse_args() -> Options {
    let mut opts = Options {
        input: String::new(),
        method: Method::Iai,
        model: "memory".into(),
        space: SearchSpace::Linear,
        tau: 9.0,
        kappa: 5.0,
        schedule: BudgetSchedule::Quadratic,
        seed: 0,
        deadline_ms: None,
        workers: 1,
        portfolio: false,
        cache_entries: 0,
        cache_shards: 8,
        fp_buckets: 4,
        workload_shape: None,
        workload_joins: 12,
        qerror: 1.0,
        qerror_mode: PerturbMode::Independent,
        json: false,
        all_methods: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {name} requires a value");
                usage()
            })
        };
        match arg.as_str() {
            "--method" => {
                let v = value("--method");
                opts.method = Method::parse(&v).unwrap_or_else(|| {
                    eprintln!("error: unknown method {v:?}");
                    usage()
                });
            }
            "--model" => opts.model = value("--model"),
            "--space" => {
                let v = value("--space");
                opts.space = SearchSpace::parse(&v).unwrap_or_else(|| {
                    eprintln!("error: unknown search space {v:?} (expected linear or bushy)");
                    usage()
                });
            }
            "--tau" => opts.tau = positive("--tau", &value("--tau")),
            "--kappa" => opts.kappa = positive("--kappa", &value("--kappa")),
            "--budget-schedule" => {
                let v = value("--budget-schedule");
                opts.schedule = v.parse().unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    usage()
                });
            }
            "--seed" => opts.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--deadline-ms" => {
                opts.deadline_ms = Some(value("--deadline-ms").parse().unwrap_or_else(|_| usage()));
            }
            "--workers" => opts.workers = at_least_one("--workers", &value("--workers")),
            "--portfolio" => opts.portfolio = true,
            "--cache-entries" => {
                opts.cache_entries = value("--cache-entries").parse().unwrap_or_else(|_| usage());
            }
            "--cache-shards" => {
                opts.cache_shards = at_least_one("--cache-shards", &value("--cache-shards"));
            }
            "--fp-buckets" => {
                opts.fp_buckets = at_least_one("--fp-buckets", &value("--fp-buckets"))
            }
            "--workload-shape" => {
                let v = value("--workload-shape");
                opts.workload_shape = Some(JobShape::parse(&v).unwrap_or_else(|| {
                    eprintln!("error: unknown workload shape {v:?}");
                    usage()
                }));
            }
            "--workload-joins" => {
                opts.workload_joins = at_least_one("--workload-joins", &value("--workload-joins"));
            }
            "--qerror" => {
                opts.qerror = value("--qerror").parse().unwrap_or_else(|_| usage());
                if !opts.qerror.is_finite() || opts.qerror < 1.0 {
                    eprintln!("error: --qerror must be a finite value >= 1");
                    usage()
                }
            }
            "--qerror-mode" => {
                let v = value("--qerror-mode");
                opts.qerror_mode = PerturbMode::parse(&v).unwrap_or_else(|| {
                    eprintln!("error: unknown q-error mode {v:?}");
                    usage()
                });
            }
            "--json" => opts.json = true,
            "--all-methods" => opts.all_methods = true,
            "--help" | "-h" => usage(),
            other if opts.input.is_empty() && !other.starts_with('-') => {
                opts.input = other.to_string();
            }
            other => {
                eprintln!("error: unexpected argument {other:?}");
                usage()
            }
        }
    }
    if opts.input.is_empty() == opts.workload_shape.is_none() {
        // Neither (nothing to optimize) or both (ambiguous source).
        eprintln!("error: give exactly one of QUERY.json and --workload-shape");
        usage();
    }
    if opts.space == SearchSpace::Bushy && opts.all_methods {
        // The table compares the paper's nine linear methods; the
        // optimizer refuses the bushy space's other linear-only feature,
        // parallel search, itself (`OptError::Unsupported`). Refuse
        // loudly rather than silently fall back to a linear solve.
        eprintln!("error: --all-methods requires the linear search space (drop --space bushy)");
        usage();
    }
    opts
}

fn model_for(name: &str) -> Box<dyn CostModel> {
    match name {
        "memory" => Box::new(MemoryCostModel::default()),
        "disk" => Box::new(DiskCostModel::default()),
        "multi" => Box::new(MultiMethodCostModel::default()),
        other => {
            eprintln!("error: unknown cost model {other:?}");
            usage()
        }
    }
}

/// The always-present `"cache"` object of `--json` output. When caching
/// is off every stat is zero and `outcome` is `"off"`, so the schema is
/// identical either way and scripts can key on `enabled`.
fn cache_json(cache: Option<(&PlanCache, CacheOutcome)>, opts: &Options) -> ljqo_json::Value {
    let stats = cache.map(|(c, _)| c.stats()).unwrap_or_default();
    ljqo_json::json!({
        "enabled": cache.is_some(),
        "outcome": cache.map_or("off", |(_, o)| o.name()),
        "entries": opts.cache_entries as u64,
        "shards": opts.cache_shards as u64,
        "fp_buckets": opts.fp_buckets as u64,
        "hits": stats.hits,
        "misses": stats.misses,
        "inserts": stats.inserts,
        "evictions": stats.evictions,
        "resident_entries": stats.entries as u64,
        "resident_bytes": stats.bytes as u64,
    })
}

/// The always-present `"robustness"` object of `--json` output. When no
/// q-error is injected every measurement is zero and `replay` is
/// `"off"`, so the schema is identical either way and scripts can key on
/// `enabled` — the same contract as the cache block.
fn robustness_json(sample: Option<&RegretSample>, opts: &Options) -> ljqo_json::Value {
    ljqo_json::json!({
        "enabled": sample.is_some(),
        "qerror": opts.qerror,
        "mode": opts.qerror_mode.name(),
        "workload_shape": opts.workload_shape.map(|s| s.name()).unwrap_or("file"),
        "observed_cost": sample.map(|s| s.observed_cost).unwrap_or(0.0),
        "true_cost": sample.map(|s| s.true_cost).unwrap_or(0.0),
        "reference_cost": sample.map(|s| s.reference_cost).unwrap_or(0.0),
        "regret": sample.map(|s| s.regret).unwrap_or(0.0),
        "replay": sample.map(|s| s.replay.name()).unwrap_or("off"),
        "solve_degradation": sample.map(|s| s.degradation.label()).unwrap_or("none"),
    })
}

/// The always-present `"largen"` object of `--json` output: the budget
/// schedule actually applied and the bitset-kernel tier the query size
/// selects (`mask_words` of 1 = single-register fast path, 4 = one
/// stack block, larger = blocked general path).
fn largen_json(query: &Query, config: &OptimizerConfig) -> ljqo_json::Value {
    let n = query.n_relations();
    ljqo_json::json!({
        "schedule": config.schedule.to_string(),
        "budget_allotted": config.budget_units(query.n_joins().max(1)),
        "n_relations": n as u64,
        "mask_words": ljqo::catalog::bitset::stride_for_relations(n) as u64,
    })
}

/// The always-present `"bound"` object of `--json` output: the LP-style
/// cost lower bounds and the emitted plan's quality ratio against the
/// bound for its search space (`linear` or `tree`). A ratio of `0` means
/// no positive bound exists (degenerate query, or a model without a
/// monotone cost surface).
fn bound_json(
    query: &Query,
    model: &dyn CostModel,
    cost: f64,
    space: SearchSpace,
) -> ljqo_json::Value {
    let b = bound_report(query, model);
    let denom = match space {
        SearchSpace::Linear => b.linear,
        SearchSpace::Bushy => b.tree,
    };
    ljqo_json::json!({
        "linear": b.linear,
        "tree": b.tree,
        "ratio": BoundReport::ratio(denom, cost).unwrap_or(0.0),
    })
}

fn exit_for(err: &OptError) -> ExitCode {
    match err {
        OptError::Catalog(_) => ExitCode::from(EXIT_CATALOG),
        OptError::NoValidPlan { .. }
        | OptError::ComponentTooLarge { .. }
        | OptError::DisconnectedComponent { .. } => ExitCode::from(EXIT_OPTIMIZER),
        // A flag combination the optimizer does not support: usage error.
        OptError::Unsupported { .. } => ExitCode::from(2),
    }
}

fn run(opts: &Options, out: &mut impl Write) -> io::Result<ExitCode> {
    // The TRUE catalog: read from the file, or generated JOB-shaped.
    let truth = if let Some(shape) = opts.workload_shape {
        generate_job_query(&JobSpec::new(shape), opts.workload_joins, opts.seed)
    } else {
        let text = match std::fs::read_to_string(&opts.input) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", opts.input);
                return Ok(ExitCode::from(EXIT_IO));
            }
        };
        let file = match QueryFile::from_json(&text) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: {e}");
                return Ok(ExitCode::from(EXIT_JSON));
            }
        };
        match file.into_query() {
            Ok(q) => q,
            Err(e) => {
                eprintln!("error: {e}");
                return Ok(ExitCode::from(EXIT_CATALOG));
            }
        }
    };
    // The catalog the optimizer sees: q-error-distorted when requested.
    let perturbation =
        (opts.qerror > 1.0).then(|| Perturbation::new(opts.qerror, opts.qerror_mode, opts.seed));
    let observed = perturbation.as_ref().map(|p| p.observed(&truth));
    let query = observed.clone().unwrap_or_else(|| truth.clone());
    let model = model_for(&opts.model);

    let config_for = |method: Method| {
        let mut config = OptimizerConfig::new(method)
            .with_time_limit(opts.tau)
            .with_kappa(opts.kappa)
            .with_schedule(opts.schedule)
            .with_seed(opts.seed)
            .with_space(opts.space);
        if let Some(ms) = opts.deadline_ms {
            config = config.with_deadline(Duration::from_millis(ms));
        }
        config
    };

    if opts.all_methods {
        writeln!(
            out,
            "{:>6} {:>16} {:>12} {:>10} {:>12}",
            "method", "cost", "evals", "units", "degradation"
        )?;
        for method in Method::ALL {
            match Optimizer::new(model.as_ref(), &config_for(method)).solve(&query) {
                Ok((r, _)) => writeln!(
                    out,
                    "{:>6} {:>16.6e} {:>12} {:>10} {:>12}",
                    method.name(),
                    r.cost,
                    r.n_evals,
                    r.units_used,
                    r.degradation.label()
                )?,
                Err(e) => {
                    eprintln!("error: {}: {e}", method.name());
                    return Ok(exit_for(&e));
                }
            }
        }
        return Ok(ExitCode::SUCCESS);
    }

    let parallel = opts.workers > 1 || opts.portfolio;
    let cache_enabled = opts.cache_entries > 0;
    let cache = cache_enabled.then(|| {
        PlanCache::new(PlanCacheConfig {
            max_entries: opts.cache_entries,
            shards: opts.cache_shards,
            ..PlanCacheConfig::default()
        })
    });
    let fp_config = FingerprintConfig {
        buckets_per_decade: opts.fp_buckets,
    };
    let parallelism = parallel.then(|| {
        if opts.portfolio {
            Parallelism::portfolio(opts.workers)
        } else {
            Parallelism::workers(opts.workers)
        }
    });
    let config = config_for(opts.method);
    let mut optimizer = Optimizer::new(model.as_ref(), &config);
    if let Some(par) = &parallelism {
        optimizer = optimizer.with_parallelism(par);
    }
    if let Some(cache) = &cache {
        optimizer = optimizer.with_cache(cache, fp_config);
    }
    let (result, via) = match optimizer.solve(&query) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(exit_for(&e));
        }
    };
    // The robustness measurement: optimize against the observed catalog,
    // replay against the truth, compare with perfect information.
    let sample: Option<RegretSample> = if perturbation.is_some() {
        match regret_under(&truth, &query, &optimizer) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("error: robustness study failed: {e}");
                return Ok(exit_for(&e));
            }
        }
    } else {
        None
    };
    if opts.json {
        let cache_stats_json = cache_json(cache.as_ref().map(|c| (c, via.outcome)), opts);
        let robustness = robustness_json(sample.as_ref(), opts);
        let order: Vec<Vec<String>> = result
            .plan
            .segments
            .iter()
            .map(|seg| {
                seg.rels()
                    .iter()
                    .map(|&r| query.relation(r).name.clone())
                    .collect()
            })
            .collect();
        let segments: Vec<ljqo_json::Value> =
            order.into_iter().map(ljqo_json::Value::from).collect();
        // Every segment rendered as a tree (linear ones left-deep), so
        // both spaces share the schema key for key.
        let trees: Vec<String> = result
            .trees
            .iter()
            .map(|t| t.render(|r| query.relation(r).name.clone()))
            .collect();
        let doc = ljqo_json::json!({
            "method": opts.method.name(),
            "model": opts.model.clone(),
            "space": opts.space.name(),
            "bushy": result.is_bushy(),
            "cost": result.cost,
            "segments": segments,
            "trees": trees,
            "evaluations": result.n_evals,
            "budget_units": result.units_used,
            "degradation": result.degradation.label(),
            "degraded": result.degradation.is_degraded(),
            "deadline_expired": result.deadline_expired,
            "workers": opts.workers as u64,
            "portfolio": opts.portfolio,
            "workers_failed": result.workers_failed as u64,
            "largen": largen_json(&query, &config),
            "bound": bound_json(&query, model.as_ref(), result.cost, opts.space),
            "cache": cache_stats_json,
            "robustness": robustness,
        });
        writeln!(out, "{}", doc.to_string_pretty())?;
    } else {
        writeln!(
            out,
            "method {} under the {} cost model (τ = {}N², κ = {}){}",
            opts.method.name(),
            opts.model,
            opts.tau,
            opts.kappa,
            match opts.space {
                SearchSpace::Linear => "",
                SearchSpace::Bushy => ", bushy search space",
            }
        )?;
        if opts.schedule != BudgetSchedule::Quadratic {
            writeln!(out, "budget schedule: {}", opts.schedule)?;
        }
        writeln!(out, "estimated cost: {:.6e}", result.cost)?;
        writeln!(
            out,
            "search effort: {} evaluations / {} budget units",
            result.n_evals, result.units_used
        )?;
        if parallel {
            writeln!(
                out,
                "parallel search: {} workers{}",
                opts.workers,
                if opts.portfolio {
                    " (II/SA/AGI/KBI portfolio)"
                } else {
                    ""
                }
            )?;
        }
        if let Some(cache) = &cache {
            let s = cache.stats();
            writeln!(
                out,
                "plan cache: {} ({} entries / {} shards, {} hits / {} misses)",
                via.outcome.name(),
                s.entries,
                cache.n_shards(),
                s.hits,
                s.misses
            )?;
        }
        if let Some(s) = &sample {
            writeln!(
                out,
                "robustness: q-error {} ({}) injected — believed cost {:.6e}, \
                 true cost {:.6e}, perfect-information reference {:.6e}",
                opts.qerror,
                opts.qerror_mode.name(),
                s.observed_cost,
                s.true_cost,
                s.reference_cost
            )?;
            writeln!(
                out,
                "regret: {:.4} (cache replay: {})",
                s.regret,
                s.replay.name()
            )?;
        }
        if result.workers_failed > 0 {
            writeln!(
                out,
                "notice: {} worker(s) failed and were isolated",
                result.workers_failed
            )?;
        }
        if opts.space == SearchSpace::Bushy && !result.is_bushy() {
            writeln!(out, "notice: the best tree found is outer linear")?;
        }
        if result.deadline_expired {
            writeln!(out, "notice: wall-clock deadline expired during the search")?;
        }
        if result.degradation.is_degraded() {
            writeln!(
                out,
                "notice: plan degraded to the {} fallback — treat its cost as a rough bound",
                result.degradation.label()
            )?;
        }
        writeln!(out)?;
        write!(out, "{}", result.explain(&query))?;
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let opts = parse_args();
    let mut out = io::stdout().lock();
    match run(&opts, &mut out).and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        Err(e) => {
            // A reader that went away (`| head`) is not an error worth
            // a message; anything else is.
            if e.kind() != io::ErrorKind::BrokenPipe {
                eprintln!("error: cannot write output: {e}");
            }
            ExitCode::from(EXIT_OUTPUT)
        }
    }
}
