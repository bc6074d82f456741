//! Microbenchmarks of move generation and validity checking, across the
//! graph shapes the paper's benchmark variations produce (random, star,
//! chain) — star graphs reject most proposals, chains reject many, so the
//! per-valid-move cost differs sharply by shape.

use std::sync::Arc;

use ljqo_bench::timing::{bench, black_box};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use ljqo_catalog::CompiledQuery;
use ljqo_plan::validity::{is_valid, ValidityChecker};
use ljqo_plan::{random_valid_order, JoinOrder, MoveGenerator, MoveSet};
use ljqo_workload::{generate_query, Benchmark};

fn bench_validity() {
    for &n in &[10usize, 50, 100] {
        let query = generate_query(&Benchmark::Default.spec(), n, 3);
        let order = JoinOrder::identity(&query);
        bench(&format!("validity/is_valid/{n}"), || {
            is_valid(query.graph(), black_box(order.rels()))
        });
        let mut checker = ValidityChecker::new(query.n_relations());
        bench(&format!("validity/checker/{n}"), || {
            checker.is_valid(query.graph(), black_box(order.rels()))
        });
    }
}

fn bench_propose() {
    for benchmark in [
        Benchmark::Default,
        Benchmark::GraphStar,
        Benchmark::GraphChain,
    ] {
        let query = generate_query(&benchmark.spec(), 50, 11);
        let comp: Vec<_> = query.rel_ids().collect();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut order = random_valid_order(query.graph(), &comp, &mut rng);
        let compiled = Arc::new(CompiledQuery::new(&query));
        let mut gen = MoveGenerator::with_compiled(compiled, MoveSet::default());
        bench(
            &format!("propose_valid_move/n50/{}", benchmark.name()),
            || {
                if let Some((mv, attempts)) =
                    gen.propose_counted(query.graph(), &mut order, &mut rng)
                {
                    mv.undo(&mut order);
                    black_box(attempts);
                }
            },
        );
    }
}

fn bench_random_state() {
    for &n in &[10usize, 50, 100] {
        let query = generate_query(&Benchmark::Default.spec(), n, 17);
        let comp: Vec<_> = query.rel_ids().collect();
        let mut rng = SmallRng::seed_from_u64(1);
        bench(&format!("random_valid_order/{n}"), || {
            random_valid_order(query.graph(), &comp, &mut rng)
        });
    }
}

fn main() {
    bench_validity();
    bench_propose();
    bench_random_state();
}
