//! `ljqo-opt` — optimize a join query described in JSON.
//!
//! ```text
//! ljqo-opt [QUERY.json] [--method IAI] [--model memory|disk|multi]
//!          [--space linear|bushy]
//!          [--tau 9] [--kappa 5] [--seed 0] [--deadline-ms N]
//!          [--budget-schedule quadratic|capped:T|nlogn:T]
//!          [--workers N] [--cooperate] [--portfolio]
//!          [--router uniform|ucb] [--router-state PATH] [--router-epsilon F]
//!          [--cache-entries N] [--cache-shards N] [--fp-buckets N]
//!          [--workload-shape star|snowflake|cyclic] [--workload-joins N]
//!          [--qerror F] [--qerror-mode independent|correlated]
//!          [--json] [--all-methods]
//! ```
//!
//! With `--json` the plan is emitted as machine-readable JSON; otherwise
//! an EXPLAIN-style tree is printed. `--all-methods` optimizes with all
//! nine methods and prints a comparison table. `--deadline-ms` bounds the
//! wall-clock time of the search; when it (or a fault in the search)
//! forces a fallback plan, the degradation is reported in the output.
//!
//! Search space: `--space bushy` lifts the paper's outer-linear
//! restriction and searches mutable bushy trees with incremental
//! path-to-root re-costing (`--method BUSHYII` or `BUSHYSA` pick the
//! descent; the nine linear method names map onto the matching tree
//! search). The `"space"` key is always present in `--json` output, and
//! `"bushy"` reports whether any emitted segment is genuinely bushy.
//! Bushy search is a plain single-threaded solve: it rejects the plan
//! cache, parallel/portfolio/cooperate, `--qerror`, and `--all-methods`
//! flags (usage error), which are all wired to the linear plan type.
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
//! II/SA/AGI/KBI portfolio instead of cloning one method; `--cooperate`
//! switches the workers from isolated (bit-deterministic) search to
//! shared best-cost pruning, which is timing-dependent but never worse
//! in plan quality at equal budget.
//!
//! Learned routing: `--router ucb` (requires `--portfolio`) splits each
//! portfolio solve's budget by the contextual-bandit shares learned for
//! the query's fingerprint class instead of uniformly — see
//! `ljqo_cache::BanditRouter`. `--router-state PATH` loads the bandit
//! state from `PATH` before the solve and saves it back afterwards, so
//! repeated invocations keep learning; a missing file is a fresh start
//! and a corrupt one degrades to uniform with a counted reset.
//! `--router-epsilon F` sets the exploration floor (clamped to `1/K`).
//! The always-present `"router"` JSON block reports the mode, the
//! query's class label, and the share vector applied.
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

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use ljqo::cache::{classify, BanditRouter, RouterConfig};
use ljqo::parallel::PORTFOLIO;
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

struct Options {
    input: String,
    method: Method,
    model: String,
    space: String,
    tau: f64,
    kappa: f64,
    schedule: BudgetSchedule,
    seed: u64,
    deadline_ms: Option<u64>,
    workers: usize,
    cooperate: bool,
    portfolio: bool,
    router: String,
    router_state: Option<String>,
    router_epsilon: f64,
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
         \x20                         [--cooperate] [--portfolio]\n\
         \x20                         [--router uniform|ucb] [--router-state PATH]\n\
         \x20                         [--router-epsilon F] [--cache-entries N]\n\
         \x20                         [--cache-shards N] [--fp-buckets N]\n\
         \x20                         [--workload-shape star|snowflake|cyclic]\n\
         \x20                         [--workload-joins N] [--qerror F]\n\
         \x20                         [--qerror-mode independent|correlated]\n\
         \x20                         [--json] [--all-methods]\n\
         exactly one of QUERY.json and --workload-shape is required"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        input: String::new(),
        method: Method::Iai,
        model: "memory".into(),
        space: "linear".into(),
        tau: 9.0,
        kappa: 5.0,
        schedule: BudgetSchedule::Quadratic,
        seed: 0,
        deadline_ms: None,
        workers: 1,
        cooperate: false,
        portfolio: false,
        router: "uniform".into(),
        router_state: None,
        router_epsilon: RouterConfig::default().epsilon,
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
                if v != "linear" && v != "bushy" {
                    eprintln!("error: unknown search space {v:?} (expected linear or bushy)");
                    usage()
                }
                opts.space = v;
            }
            "--tau" => opts.tau = value("--tau").parse().unwrap_or_else(|_| usage()),
            "--kappa" => opts.kappa = value("--kappa").parse().unwrap_or_else(|_| usage()),
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
            "--workers" => {
                opts.workers = value("--workers").parse().unwrap_or_else(|_| usage());
                if opts.workers == 0 {
                    eprintln!("error: --workers must be at least 1");
                    usage()
                }
            }
            "--cooperate" => opts.cooperate = true,
            "--portfolio" => opts.portfolio = true,
            "--router" => {
                let v = value("--router");
                if v != "uniform" && v != "ucb" {
                    eprintln!("error: unknown router {v:?} (expected uniform or ucb)");
                    usage()
                }
                opts.router = v;
            }
            "--router-state" => opts.router_state = Some(value("--router-state")),
            "--router-epsilon" => {
                opts.router_epsilon = value("--router-epsilon")
                    .parse()
                    .unwrap_or_else(|_| usage());
                if !opts.router_epsilon.is_finite() || opts.router_epsilon < 0.0 {
                    eprintln!("error: --router-epsilon must be a finite value >= 0");
                    usage()
                }
            }
            "--cache-entries" => {
                opts.cache_entries = value("--cache-entries").parse().unwrap_or_else(|_| usage());
            }
            "--cache-shards" => {
                opts.cache_shards = value("--cache-shards").parse().unwrap_or_else(|_| usage());
                if opts.cache_shards == 0 {
                    eprintln!("error: --cache-shards must be at least 1");
                    usage()
                }
            }
            "--fp-buckets" => {
                opts.fp_buckets = value("--fp-buckets").parse().unwrap_or_else(|_| usage());
                if opts.fp_buckets == 0 {
                    eprintln!("error: --fp-buckets must be at least 1");
                    usage()
                }
            }
            "--workload-shape" => {
                let v = value("--workload-shape");
                opts.workload_shape = Some(JobShape::parse(&v).unwrap_or_else(|| {
                    eprintln!("error: unknown workload shape {v:?}");
                    usage()
                }));
            }
            "--workload-joins" => {
                opts.workload_joins = value("--workload-joins")
                    .parse()
                    .unwrap_or_else(|_| usage());
                if opts.workload_joins == 0 {
                    eprintln!("error: --workload-joins must be at least 1");
                    usage()
                }
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
    if opts.router == "ucb" && !opts.portfolio {
        // The bandit splits the *portfolio* budget; without heterogeneous
        // arms there is nothing to route between.
        eprintln!("error: --router ucb requires --portfolio");
        usage();
    }
    if opts.router_state.is_some() && opts.router == "uniform" {
        eprintln!("error: --router-state requires --router ucb");
        usage();
    }
    if opts.space == "bushy" {
        // Everything downstream of these flags — the plan cache, the
        // parallel search, the regret replay, the nine-method table —
        // is wired to the linear `Plan` type. Refuse loudly rather
        // than silently fall back to a linear solve.
        let conflict = [
            (opts.workers > 1, "--workers"),
            (opts.portfolio, "--portfolio"),
            (opts.cooperate, "--cooperate"),
            (opts.router != "uniform", "--router"),
            (opts.cache_entries > 0, "--cache-entries"),
            (opts.qerror > 1.0, "--qerror"),
            (opts.all_methods, "--all-methods"),
        ]
        .into_iter()
        .find_map(|(on, flag)| on.then_some(flag));
        if let Some(flag) = conflict {
            eprintln!("error: {flag} requires the linear search space (drop --space bushy)");
            usage();
        }
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

/// The always-present `"router"` object of `--json` output: the routing
/// mode, the query's fingerprint class, and the budget-share vector the
/// portfolio applied. With `--router uniform` (the default) the shares
/// are the uniform split, so the schema is identical either way and
/// scripts can key on `enabled` — the same contract as the cache block.
fn router_json(router: Option<&BanditRouter>, query: &Query, opts: &Options) -> ljqo_json::Value {
    let class = classify(query);
    let shares = match router {
        Some(r) => r.shares(&class),
        None => vec![1.0 / PORTFOLIO.len() as f64; PORTFOLIO.len()],
    };
    ljqo_json::json!({
        "enabled": router.is_some(),
        "mode": opts.router.clone(),
        "epsilon": router.map(|r| r.effective_epsilon()).unwrap_or(0.0),
        "resets": router.map(|r| r.resets()).unwrap_or(0),
        "state_persisted": opts.router_state.is_some(),
        "class": class.label(),
        "arms": ljqo_json::Value::from(
            PORTFOLIO.iter().map(|m| m.name().to_string()).collect::<Vec<_>>()
        ),
        "shares": ljqo_json::Value::Array(
            shares.into_iter().map(ljqo_json::Value::Number).collect()
        ),
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
    linear_space: bool,
) -> ljqo_json::Value {
    let b = bound_report(query, model);
    let denom = if linear_space { b.linear } else { b.tree };
    ljqo_json::json!({
        "linear": b.linear,
        "tree": b.tree,
        "ratio": BoundReport::ratio(denom, cost).unwrap_or(0.0),
    })
}

/// Render a join tree with relation names, e.g. `((A ⋈ B) ⋈ (C ⋈ D))`.
fn render_tree(tree: &BushyTree, query: &Query) -> String {
    match tree {
        BushyTree::Leaf(r) => query.relation(*r).name.clone(),
        BushyTree::Join(l, r) => {
            format!("({} ⋈ {})", render_tree(l, query), render_tree(r, query))
        }
    }
}

/// The `--space bushy` solve: a plain single-threaded bushy-tree search,
/// reported through the same JSON schema as the linear path (with the
/// linear-only blocks present but disabled).
fn run_bushy(
    query: &Query,
    model: &dyn CostModel,
    config: &OptimizerConfig,
    opts: &Options,
) -> ExitCode {
    let result = match try_optimize_bushy(query, model, config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return exit_for(&e);
        }
    };
    if opts.json {
        let segments: Vec<ljqo_json::Value> = result
            .trees
            .iter()
            .map(|tree| {
                let names: Vec<String> = tree
                    .leaves()
                    .iter()
                    .map(|&r| query.relation(r).name.clone())
                    .collect();
                ljqo_json::Value::from(names)
            })
            .collect();
        let trees: Vec<String> = result.trees.iter().map(|t| render_tree(t, query)).collect();
        let out = ljqo_json::json!({
            "method": opts.method.name(),
            "model": opts.model.clone(),
            "space": "bushy",
            "bushy": result.is_bushy(),
            "cost": result.cost,
            "segments": segments,
            "trees": trees,
            "evaluations": result.n_evals,
            "budget_units": result.units_used,
            "degradation": result.degradation.label(),
            "degraded": result.degradation.is_degraded(),
            "deadline_expired": result.deadline_expired,
            "workers": 1u64,
            "portfolio": false,
            "cooperate": false,
            "workers_failed": 0u64,
            "largen": largen_json(query, config),
            "bound": bound_json(query, model, result.cost, false),
            "cache": cache_json(None, opts),
            "robustness": robustness_json(None, opts),
            "router": router_json(None, query, opts),
        });
        println!("{}", out.to_string_pretty());
    } else {
        println!(
            "method {} under the {} cost model (τ = {}N², κ = {}), bushy search space",
            opts.method.name(),
            opts.model,
            opts.tau,
            opts.kappa
        );
        if opts.schedule != BudgetSchedule::Quadratic {
            println!("budget schedule: {}", opts.schedule);
        }
        println!("estimated cost: {:.6e}", result.cost);
        println!(
            "search effort: {} evaluations / {} budget units",
            result.n_evals, result.units_used
        );
        if !result.is_bushy() {
            println!("notice: the best tree found is outer linear");
        }
        if result.deadline_expired {
            println!("notice: wall-clock deadline expired during the search");
        }
        if result.degradation.is_degraded() {
            println!(
                "notice: plan degraded to the {} fallback — treat its cost as a rough bound",
                result.degradation.label()
            );
        }
        println!();
        for (tree, cost) in result.trees.iter().zip(&result.segment_costs) {
            println!("{}  [segment cost {:.6e}]", render_tree(tree, query), cost);
        }
    }
    ExitCode::SUCCESS
}

fn exit_for(err: &OptError) -> ExitCode {
    match err {
        OptError::Catalog(_) => ExitCode::from(EXIT_CATALOG),
        OptError::NoValidPlan { .. }
        | OptError::ComponentTooLarge { .. }
        | OptError::DisconnectedComponent { .. } => ExitCode::from(EXIT_OPTIMIZER),
    }
}

fn main() -> ExitCode {
    let opts = parse_args();
    // The TRUE catalog: read from the file, or generated JOB-shaped.
    let truth = if let Some(shape) = opts.workload_shape {
        generate_job_query(&JobSpec::new(shape), opts.workload_joins, opts.seed)
    } else {
        let text = match std::fs::read_to_string(&opts.input) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", opts.input);
                return ExitCode::from(EXIT_IO);
            }
        };
        let file = match QueryFile::from_json(&text) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(EXIT_JSON);
            }
        };
        match file.into_query() {
            Ok(q) => q,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(EXIT_CATALOG);
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
            .with_seed(opts.seed);
        if let Some(ms) = opts.deadline_ms {
            config = config.with_deadline(Duration::from_millis(ms));
        }
        config
    };

    if opts.space == "bushy" {
        return run_bushy(&query, model.as_ref(), &config_for(opts.method), &opts);
    }

    if opts.all_methods {
        println!(
            "{:>6} {:>16} {:>12} {:>10} {:>12}",
            "method", "cost", "evals", "units", "degradation"
        );
        for method in Method::ALL {
            match Optimizer::new(model.as_ref(), &config_for(method)).solve(&query) {
                Ok((r, _)) => println!(
                    "{:>6} {:>16.6e} {:>12} {:>10} {:>12}",
                    method.name(),
                    r.cost,
                    r.n_evals,
                    r.units_used,
                    r.degradation.label()
                ),
                Err(e) => {
                    eprintln!("error: {}: {e}", method.name());
                    return exit_for(&e);
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    let parallel = opts.workers > 1 || opts.portfolio || opts.cooperate;
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
    let router = (opts.router == "ucb").then(|| {
        let arms: Vec<&str> = PORTFOLIO.iter().map(|m| m.name()).collect();
        let config = RouterConfig {
            epsilon: opts.router_epsilon,
            ..RouterConfig::default()
        };
        Arc::new(match &opts.router_state {
            Some(path) => BanditRouter::load(std::path::Path::new(path), &arms, config),
            None => BanditRouter::new(&arms, config),
        })
    });
    let parallelism = parallel.then(|| {
        let mut parallelism = if opts.portfolio {
            Parallelism::portfolio(opts.workers)
        } else {
            Parallelism::workers(opts.workers)
        };
        if opts.cooperate {
            parallelism = parallelism.with_cooperation(Cooperation::SharedBest);
        }
        if let Some(router) = &router {
            parallelism = parallelism.with_router(Arc::clone(router));
        }
        parallelism
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
            return exit_for(&e);
        }
    };
    // The routed solve has recorded its outcome in the bandit;
    // persist the updated state so the next invocation keeps learning.
    if let (Some(router), Some(path)) = (&router, &opts.router_state) {
        if let Err(e) = router.save(std::path::Path::new(path)) {
            eprintln!("warning: could not save router state to {path}: {e}");
        }
    }
    // The robustness measurement: optimize against the observed catalog,
    // replay against the truth, compare with perfect information.
    let sample: Option<RegretSample> = if perturbation.is_some() {
        match regret_under(&truth, &query, &optimizer) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("error: robustness study failed: {e}");
                return exit_for(&e);
            }
        }
    } else {
        None
    };
    if opts.json {
        let cache_stats_json = cache_json(cache.as_ref().map(|c| (c, via.outcome)), &opts);
        let robustness = robustness_json(sample.as_ref(), &opts);
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
        // Linear segments rendered as (left-deep) trees, so the schema
        // matches the bushy space key for key.
        let trees: Vec<String> = result
            .plan
            .segments
            .iter()
            .map(|seg| render_tree(&BushyTree::left_deep(seg.rels()), &query))
            .collect();
        let out = ljqo_json::json!({
            "method": opts.method.name(),
            "model": opts.model.clone(),
            "space": "linear",
            "bushy": false,
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
            "cooperate": opts.cooperate,
            "workers_failed": result.workers_failed as u64,
            "largen": largen_json(&query, &config),
            "bound": bound_json(&query, model.as_ref(), result.cost, true),
            "cache": cache_stats_json,
            "robustness": robustness,
            "router": router_json(router.as_deref(), &query, &opts),
        });
        println!("{}", out.to_string_pretty());
    } else {
        println!(
            "method {} under the {} cost model (τ = {}N², κ = {})",
            opts.method.name(),
            opts.model,
            opts.tau,
            opts.kappa
        );
        if opts.schedule != BudgetSchedule::Quadratic {
            println!("budget schedule: {}", opts.schedule);
        }
        println!("estimated cost: {:.6e}", result.cost);
        println!(
            "search effort: {} evaluations / {} budget units",
            result.n_evals, result.units_used
        );
        if parallel {
            println!(
                "parallel search: {} workers{}{}",
                opts.workers,
                if opts.portfolio {
                    " (II/SA/AGI/KBI portfolio)"
                } else {
                    ""
                },
                if opts.cooperate {
                    ", cooperative shared-best pruning"
                } else {
                    ""
                }
            );
        }
        if let Some(router) = &router {
            let class = classify(&query);
            let shares: Vec<String> = router
                .shares(&class)
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect();
            println!(
                "learned routing: class {} → shares [{}] (ε = {}, {} reset(s))",
                class.label(),
                shares.join(", "),
                router.effective_epsilon(),
                router.resets()
            );
        }
        if let Some(cache) = &cache {
            let s = cache.stats();
            println!(
                "plan cache: {} ({} entries / {} shards, {} hits / {} misses)",
                via.outcome.name(),
                s.entries,
                cache.n_shards(),
                s.hits,
                s.misses
            );
        }
        if let Some(s) = &sample {
            println!(
                "robustness: q-error {} ({}) injected — believed cost {:.6e}, \
                 true cost {:.6e}, perfect-information reference {:.6e}",
                opts.qerror,
                opts.qerror_mode.name(),
                s.observed_cost,
                s.true_cost,
                s.reference_cost
            );
            println!(
                "regret: {:.4} (cache replay: {})",
                s.regret,
                s.replay.name()
            );
        }
        if result.workers_failed > 0 {
            println!(
                "notice: {} worker(s) failed and were isolated",
                result.workers_failed
            );
        }
        if result.deadline_expired {
            println!("notice: wall-clock deadline expired during the search");
        }
        if result.degradation.is_degraded() {
            println!(
                "notice: plan degraded to the {} fallback — treat its cost as a rough bound",
                result.degradation.label()
            );
        }
        println!();
        print!("{}", result.plan.to_tree().explain(&query));
    }
    ExitCode::SUCCESS
}
