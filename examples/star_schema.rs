//! Star-schema workload: one fact table joined to many dimensions — the
//! "star-like join graph" the paper's benchmark variation 8 singles out
//! as a stress test (it enlarges the search space because only orders
//! that reach the hub early are valid).
//!
//! Compares the paper's five surviving methods at several time limits and
//! shows what the constructive heuristics propose on their own.
//!
//! ```sh
//! cargo run --release --example star_schema
//! ```

use ljqo::prelude::*;

fn build_star(n_dims: usize) -> Query {
    let mut b = QueryBuilder::new().relation("fact", 10_000_000);
    for i in 0..n_dims {
        // Dimension sizes spread over three orders of magnitude.
        let card = 50 * (i as u64 % 7 + 1) * 10u64.pow(i as u32 % 3 + 1);
        let name = format!("dim{i:02}");
        b = b.relation(&name, card);
        let d = card as f64 * 0.8;
        b = b.join_on_distincts("fact", &name, d, d);
    }
    b.build().expect("star query is well-formed")
}

fn main() {
    let query = build_star(20);
    println!(
        "star query: fact(10M) + {} dimensions, {} joins\n",
        query.n_relations() - 1,
        query.n_joins()
    );
    let model = MemoryCostModel::default();

    // What do the constructive heuristics propose?
    let comp: Vec<RelId> = query.rel_ids().collect();
    let aug = AugmentationHeuristic::default();
    let firsts = AugmentationHeuristic::first_relations(&query, &comp);
    let mut ev = Evaluator::new(&query, &model);
    let aug_order = aug.generate(&query, &comp, firsts[0]);
    let aug_cost = ev.cost(&aug_order);
    println!("augmentation (crit 3, smallest-first): cost {aug_cost:.3e}");

    let kbz = KbzHeuristic::default();
    let kbz_order = kbz.generate(&mut ev, &comp).expect("kbz completes");
    let kbz_cost = model.order_cost(&query, kbz_order.rels());
    println!("KBZ (selectivity MST):                 cost {kbz_cost:.3e}\n");

    // The five methods at increasing time limits.
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "limit", "IAI", "IAL", "AGI", "KBI", "II"
    );
    for tau in [0.3, 1.5, 9.0] {
        print!("{:>7.1}N²", tau);
        for method in Method::TOP_FIVE {
            let config = OptimizerConfig::new(method)
                .with_time_limit(tau)
                .with_seed(7);
            let result = Optimizer::new(&model, &config).solve(&query).unwrap().0;
            print!(" {:>12.4e}", result.cost);
        }
        println!();
    }

    let best = Optimizer::new(&model, &OptimizerConfig::new(Method::Iai).with_seed(7))
        .solve(&query)
        .unwrap()
        .0;
    println!("\nbest IAI plan:\n{}", best.explain(&query));
}
