//! Compiled hot-path microbenchmarks: the gains of the `CompiledQuery`
//! snapshot over the pointer-chasing slow paths it replaces.
//!
//! Measures, per query size N ∈ {20, 50, 100}:
//!
//! * **validity** — one full validity check of a valid order: the
//!   edge-chasing [`ValidityChecker`] scan vs the [`BitsetChecker`]'s
//!   neighbor-bitset walk over the compiled snapshot.
//! * **move filtering** — the filter step of `propose_counted` (apply a
//!   raw move + validity-check + undo): the scalar [`ValidityChecker`]
//!   scan of the whole perturbed order vs the primed windowed
//!   [`BitsetChecker`] check the move generator runs, which revalidates
//!   only the move's touched window.
//! * **move evaluation** — apply a pre-sampled valid move, cost it, undo:
//!   a from-scratch full walk over the compiled snapshot vs the
//!   incremental evaluator (`eval_move` + `rollback`), each evaluation
//!   from a state that has not evaluated that swap yet; a third arm
//!   re-evaluates the pool from one state, which the evaluator's swap
//!   memo answers.
//! * **end-to-end II** — a complete `IterativeImprovement::run` at a
//!   fixed unit budget.
//! * **II descent on JOB shapes** — `IterativeImprovement::run` at the
//!   serving workload's size (20 joins, 21 relations) and budget
//!   (`τ = 9`, `κ = 5`): ns per budget unit, with the evaluations, move
//!   draws and memo hits behind them.
//!
//! Writes the snapshot consumed by EXPERIMENTS.md to
//! `BENCH_compiled.json` (see [`ljqo_bench::snapshot`] for
//! `BENCH_OUT_DIR` and the seconds-long `BENCH_SMOKE` run).

use std::sync::Arc;

use ljqo_bench::timing::{bench_ns, black_box};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use ljqo::IterativeImprovement;
use ljqo_catalog::CompiledQuery;
use ljqo_cost::estimate::SizeWalker;
use ljqo_cost::{Evaluator, IncrementalEvaluator, MemoryCostModel, OrderCost};
use ljqo_plan::validity::ValidityChecker;
use ljqo_plan::{random_valid_order, BitsetChecker, Move, MoveGenerator, MoveSet};
use ljqo_workload::{generate_job_query, generate_query, Benchmark, JobShape, JobSpec};

const MOVE_POOL: usize = 256;

fn json_num(x: f64) -> ljqo_json::Value {
    ljqo_json::Value::Number((x * 1000.0).round() / 1000.0)
}

fn main() {
    let smoke = ljqo_bench::snapshot::smoke();
    let (sizes, ii_budget): (Vec<usize>, u64) = if smoke {
        (vec![12], 2_000)
    } else {
        (vec![20, 50, 100], 40_000)
    };

    let model = MemoryCostModel::default();
    let mut validity_rows: Vec<ljqo_json::Value> = Vec::new();
    let mut filter_rows: Vec<ljqo_json::Value> = Vec::new();
    let mut eval_rows: Vec<ljqo_json::Value> = Vec::new();
    let mut e2e_rows: Vec<ljqo_json::Value> = Vec::new();
    let mut descent_rows: Vec<ljqo_json::Value> = Vec::new();

    for &n in &sizes {
        let query = generate_query(&Benchmark::Default.spec(), n, 3);
        let compiled = Arc::new(CompiledQuery::new(&query));
        let comp: Vec<_> = query.rel_ids().collect();
        let mut rng = SmallRng::seed_from_u64(21);
        let order = random_valid_order(query.graph(), &comp, &mut rng);

        // --- Validity: full check, scalar scan vs compiled bitsets -----
        let mut scalar = ValidityChecker::new(query.n_relations());
        let scalar_ns = bench_ns(&format!("validity/scalar/{n}"), || {
            black_box(scalar.is_valid(query.graph(), order.rels()))
        });
        let mut bitset = BitsetChecker::new(query.n_relations());
        let bitset_ns = bench_ns(&format!("validity/bitset/{n}"), || {
            black_box(bitset.is_valid(&compiled, order.rels()))
        });
        let validity_speedup = scalar_ns / bitset_ns;
        println!("validity/speedup/{n}{:>38.2}x", validity_speedup);
        validity_rows.push(ljqo_json::json!({
            "n": n,
            "scalar_ns_per_check": json_num(scalar_ns),
            "bitset_ns_per_check": json_num(bitset_ns),
            "speedup": json_num(validity_speedup),
        }));

        // --- Move filtering: scalar full scan vs primed window ---------
        // The work `propose_counted` does per sampled move: apply it, test
        // the perturbed order, undo. Raw (unfiltered) moves from the II/SA
        // swap distribution, so the pool mixes valid and invalid
        // perturbations exactly like the proposal loop sees them. Both
        // arms filter the *same* pool against the *same* valid base order,
        // which is the windowed filter's precondition. Every move is
        // undone, so the primed prefix cache stays warm — the steady
        // state of the proposal loop.
        let mut raw_rng = SmallRng::seed_from_u64(33);
        let raw_pool: Vec<Move> = (0..MOVE_POOL)
            .map(|_| {
                use rand::Rng as _;
                let i = raw_rng.gen_range(0..n);
                let mut j = raw_rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                Move::Swap {
                    i: i.min(j),
                    j: i.max(j),
                }
            })
            .collect();
        let mut scalar_checker = ValidityChecker::new(query.n_relations());
        let mut scalar_order = order.clone();
        let mut k = 0usize;
        let scalar_ns = bench_ns(&format!("filter/scalar/{n}"), || {
            let mv = raw_pool[k % MOVE_POOL];
            k += 1;
            mv.apply(&mut scalar_order);
            let ok = scalar_checker.is_valid(query.graph(), scalar_order.rels());
            mv.undo(&mut scalar_order);
            black_box(ok)
        });
        let mut window_checker = BitsetChecker::new(query.n_relations());
        let mut window_order = order.clone();
        let mut l = 0usize;
        let windowed_ns = bench_ns(&format!("filter/windowed/{n}"), || {
            let mv = raw_pool[l % MOVE_POOL];
            l += 1;
            mv.apply(&mut window_order);
            let ok = window_checker.window_valid_primed(
                &compiled,
                window_order.rels(),
                mv.first_touched(),
                mv.last_touched(),
            );
            mv.undo(&mut window_order);
            black_box(ok)
        });
        let filter_speedup = scalar_ns / windowed_ns;
        println!("filter/speedup/{n}{:>40.2}x", filter_speedup);
        filter_rows.push(ljqo_json::json!({
            "n": n,
            "scalar_ns_per_move": json_num(scalar_ns),
            "windowed_ns_per_move": json_num(windowed_ns),
            "speedup": json_num(filter_speedup),
        }));

        // --- Move evaluation: full walk vs compiled incremental --------
        let mut pool_order = order.clone();
        let mut gen = MoveGenerator::with_compiled(Arc::clone(&compiled), MoveSet::default());
        let mut pool: Vec<Move> = Vec::with_capacity(MOVE_POOL);
        while pool.len() < MOVE_POOL {
            if let Some((mv, _)) = gen.propose_counted(query.graph(), &mut pool_order, &mut rng) {
                mv.undo(&mut pool_order);
                pool.push(mv);
            }
        }
        let mut walker = SizeWalker::with_compiled(Arc::clone(&compiled));
        let mut i = 0usize;
        let mut full_order = order.clone();
        let full_ns = bench_ns(&format!("move_eval/full/{n}"), || {
            let mv = pool[i % MOVE_POOL];
            i += 1;
            mv.apply(&mut full_order);
            let c = model.order_cost_with(&mut walker, full_order.rels());
            mv.undo(&mut full_order);
            black_box(c)
        });
        let mut inc = IncrementalEvaluator::with_compiled(
            &query,
            &model,
            order.clone(),
            Arc::clone(&compiled),
        );
        // Every evaluation must walk its window, not hit the swap memo:
        // the arm cycles through the distinct swaps of the pool, and
        // after each pass commits one swap twice, which leaves the order
        // as it was but starts a new state.
        let mut distinct = pool.clone();
        distinct.sort_by_key(|mv| (mv.first_touched(), mv.last_touched()));
        distinct.dedup_by_key(|mv| (mv.first_touched(), mv.last_touched()));
        let mut j = 0usize;
        let inc_ns = bench_ns(&format!("move_eval/compiled/{n}"), || {
            let mv = distinct[j % distinct.len()];
            j += 1;
            if j.is_multiple_of(distinct.len()) {
                for _ in 0..2 {
                    inc.eval_move(&distinct[0]);
                    inc.commit();
                }
            }
            let c = inc.eval_move(&mv);
            inc.rollback();
            black_box(c)
        });
        let mut h = 0usize;
        let hit_ns = bench_ns(&format!("move_eval/memo_hit/{n}"), || {
            let mv = pool[h % MOVE_POOL];
            h += 1;
            let c = inc.eval_move(&mv);
            inc.rollback();
            black_box(c)
        });
        let eval_speedup = full_ns / inc_ns;
        println!("move_eval/speedup/{n}{:>37.2}x", eval_speedup);
        eval_rows.push(ljqo_json::json!({
            "n": n,
            "full_ns_per_move": json_num(full_ns),
            "compiled_ns_per_move": json_num(inc_ns),
            "memo_hit_ns_per_move": json_num(hit_ns),
            "speedup": json_num(eval_speedup),
        }));
    }

    // --- End-to-end II: one complete run at a fixed unit budget -------
    let ii = IterativeImprovement::default();
    for &n in &sizes {
        let query = generate_query(&Benchmark::Default.spec(), n, 3);
        let comp: Vec<_> = query.rel_ids().collect();
        let run_ns = bench_ns(&format!("ii_run/{n}"), || {
            let mut ev = Evaluator::with_budget(&query, &model, ii_budget);
            let mut run_rng = SmallRng::seed_from_u64(7);
            ii.run(&mut ev, &comp, &mut run_rng);
            black_box(ev.best_cost())
        });
        e2e_rows.push(ljqo_json::json!({
            "n": n,
            "budget_units": ii_budget,
            "ns_per_run": json_num(run_ns),
        }));
    }

    // --- II descent at the serving workload's size and budget ----------
    let descent_budget: u64 = if smoke { 2_000 } else { 18_000 };
    for shape in JobShape::ALL {
        let query = generate_job_query(&JobSpec::new(shape), 20, 1);
        let comp: Vec<_> = query.rel_ids().collect();
        let run = || {
            let mut ev = Evaluator::with_budget(&query, &model, descent_budget);
            let mut run_rng = SmallRng::seed_from_u64(7);
            ii.run(&mut ev, &comp, &mut run_rng);
            ev
        };
        let run_ns = bench_ns(&format!("ii_descent/{}", shape.name()), || {
            black_box(run().best_cost())
        });
        // The run is seeded, so one more run yields its exact counts.
        let ev = run();
        let descents = ev.n_evals() - ev.n_inc_evals();
        descent_rows.push(ljqo_json::json!({
            "shape": shape.name(),
            "n_relations": query.n_relations(),
            "budget_units": descent_budget,
            "units_used": ev.used(),
            "ns_per_unit": json_num(run_ns / ev.used() as f64),
            "descents": descents,
            "evaluations": ev.n_inc_evals(),
            "draws": ev.used() - descents,
            "memo_hits": ev.n_memo_hits(),
        }));
    }

    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    let report = ljqo_json::json!({
        "bench": "hot_path",
        "description": "Compiled query snapshot vs the scalar reference paths: validity checks, move filtering, move evaluation; plus end-to-end II and the II descent per budget unit on JOB shapes",
        "model": "memory",
        "workload": "Benchmark::Default (random graphs), MoveSet::default(); ii_descent: JOB star/snowflake/cyclic, 20 joins, seed 1",
        "units": "ns (mean over the timing shim's batches)",
        "host": ljqo_json::json!({
            "cores": std::thread::available_parallelism().map_or(0, |n| n.get()),
            "os": std::env::consts::OS,
            "arch": std::env::consts::ARCH,
            "rustc": rustc,
        }),
        "smoke": smoke,
        "validity": ljqo_json::Value::Array(validity_rows),
        "move_filtering": ljqo_json::Value::Array(filter_rows),
        "move_evaluation": ljqo_json::Value::Array(eval_rows),
        "end_to_end_ii": ljqo_json::Value::Array(e2e_rows),
        "ii_descent": ljqo_json::Value::Array(descent_rows),
    });

    ljqo_bench::snapshot::write_snapshot("BENCH_compiled.json", &report);
}
