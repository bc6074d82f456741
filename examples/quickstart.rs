//! Quickstart: describe a query, optimize it, print the plan.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ljqo::prelude::*;

fn main() {
    // A 12-join snowflake-ish query: orders fan out to customers,
    // lineitems, parts, suppliers and their dimension tables.
    let query = QueryBuilder::new()
        .relation("orders", 1_500_000)
        .relation_with_selection("customers", 150_000, 0.2)
        .relation("lineitems", 6_000_000)
        .relation("parts", 200_000)
        .relation("suppliers", 10_000)
        .relation("nations", 25)
        .relation("regions", 5)
        .relation_with_selection("clerks", 1_000, 0.5)
        .relation("shipmodes", 7)
        .relation("warehouses", 100)
        .relation("carriers", 50)
        .relation("promos", 365)
        .relation("returns", 90_000)
        .join_on_distincts("orders", "customers", 150_000.0, 150_000.0)
        .join_on_distincts("orders", "lineitems", 1_500_000.0, 1_500_000.0)
        .join_on_distincts("lineitems", "parts", 200_000.0, 200_000.0)
        .join_on_distincts("lineitems", "suppliers", 10_000.0, 10_000.0)
        .join_on_distincts("suppliers", "nations", 25.0, 25.0)
        .join_on_distincts("nations", "regions", 5.0, 5.0)
        .join_on_distincts("orders", "clerks", 1_000.0, 1_000.0)
        .join_on_distincts("lineitems", "shipmodes", 7.0, 7.0)
        .join_on_distincts("lineitems", "warehouses", 100.0, 100.0)
        .join_on_distincts("lineitems", "carriers", 50.0, 50.0)
        .join_on_distincts("orders", "promos", 365.0, 365.0)
        .join_on_distincts("orders", "returns", 90_000.0, 90_000.0)
        .build()
        .expect("query is well-formed");

    println!(
        "query: {} relations, {} joins, {} join predicates\n",
        query.n_relations(),
        query.n_joins(),
        query.graph().edges().len()
    );

    let model = MemoryCostModel::default();

    // The paper's recommendation: IAI at a generous time limit.
    let config = OptimizerConfig::new(Method::Iai).with_seed(42);
    let result = Optimizer::new(&model, &config).solve(&query).unwrap().0;

    println!("IAI plan (cost {:.3e}):", result.cost);
    println!("{}", result.plan.to_tree().explain(&query));
    println!(
        "search effort: {} plan evaluations in {} budget units",
        result.n_evals, result.units_used
    );

    // Compare against the naive left-to-right order.
    let naive = JoinOrder::identity(&query);
    let naive_cost = model.order_cost(&query, naive.rels());
    println!(
        "\nnaive order costs {:.3e} — {}x the optimized plan",
        naive_cost,
        (naive_cost / result.cost).round()
    );
}
