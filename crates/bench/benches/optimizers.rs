//! Microbenchmarks of the optimizers at fixed small budgets, plus the
//! System-R dynamic-programming baseline — showing concretely why the
//! paper rules DP out beyond ~14 joins (its time doubles per relation)
//! while the randomized methods scale by the budget alone.

use ljqo_bench::timing::bench;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use ljqo::dp::optimal_dp;
use ljqo::{IterativeImprovement, Method, MethodRunner, SearchSpace, SimulatedAnnealing};
use ljqo_cost::{Evaluator, MemoryCostModel};
use ljqo_workload::{generate_query, Benchmark};

fn bench_descent() {
    let model = MemoryCostModel::default();
    for &n in &[10usize, 50] {
        let query = generate_query(&Benchmark::Default.spec(), n, 31);
        let comp: Vec<_> = query.rel_ids().collect();
        let ii = IterativeImprovement::default();
        bench(&format!("ii_budgeted_run/{n}"), || {
            let mut ev = Evaluator::with_budget(&query, &model, 2_000);
            let mut rng = SmallRng::seed_from_u64(3);
            ii.run(&mut ev, &comp, &mut rng);
            ev.best_cost()
        });
    }
}

fn bench_sa_chain() {
    let model = MemoryCostModel::default();
    let query = generate_query(&Benchmark::Default.spec(), 50, 37);
    let comp: Vec<_> = query.rel_ids().collect();
    let sa = SimulatedAnnealing::default();
    bench("sa_budgeted_run/n50_2000units", || {
        let mut ev = Evaluator::with_budget(&query, &model, 2_000);
        let mut rng = SmallRng::seed_from_u64(5);
        sa.run(&mut ev, &comp, &mut rng);
        ev.best_cost()
    });
}

fn bench_methods_end_to_end() {
    let model = MemoryCostModel::default();
    let query = generate_query(&Benchmark::Default.spec(), 20, 41);
    let comp: Vec<_> = query.rel_ids().collect();
    let runner = MethodRunner::default();
    for m in [Method::Iai, Method::Agi, Method::Ii, Method::Sa] {
        bench(&format!("method_9n2_n20/{}", m.name()), || {
            // 9N²·κ at N=20, κ=5.
            let mut ev = Evaluator::with_budget(&query, &model, 18_000);
            let mut rng = SmallRng::seed_from_u64(7);
            runner.run(m, &mut ev, &comp, &mut rng);
            ev.best_cost()
        });
    }
}

fn bench_dp() {
    let model = MemoryCostModel::default();
    for &n in &[10usize, 14, 18] {
        let query = generate_query(&Benchmark::Default.spec(), n, 43);
        let comp: Vec<_> = query.rel_ids().collect();
        bench(&format!("dp_exact/{n}"), || {
            optimal_dp(&query, &comp, &model, SearchSpace::Linear)
        });
    }
}

fn main() {
    bench_descent();
    bench_sa_chain();
    bench_methods_end_to_end();
    bench_dp();
}
