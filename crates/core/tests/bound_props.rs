//! Soundness of the LP-style lower-bound certifier (`ljqo::bound`).
//!
//! The certifier's one obligation is admissibility: on every instance,
//! `linear ≤` the exact left-deep DP optimum and `tree ≤` the exact
//! bushy DP optimum. These tests check that obligation against 200
//! seeded random catalogs per model — chains, stars, and random trees
//! with one to four components — at sizes where the DPs are exact
//! (`N ≤ 14` linear, `N ≤ 18` bushy... kept smaller per-case so 200
//! cases stay fast; a few pinned cases exercise the upper sizes).
//!
//! Offline property-test idiom: seeded-RNG loops, one derived seed per
//! case, failures reproduce exactly.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ljqo::cost::MultiMethodCostModel;
use ljqo::prelude::*;

const CASES: u64 = 200;

/// A connected random query of `n` relations: a random spanning tree
/// plus a few chords, selectivities spanning five orders of magnitude.
fn random_query(rng: &mut SmallRng, n: usize) -> Query {
    let mut b = QueryBuilder::new();
    for i in 0..n {
        b = b.relation(format!("r{i}"), rng.gen_range(1u64..1_000_000));
    }
    for i in 1..n {
        let j = rng.gen_range(0..i);
        b = b.join(
            &format!("r{j}"),
            &format!("r{i}"),
            10f64.powf(rng.gen_range(-5.0..0.0)),
        );
    }
    // Chords make some subsets see several selectivities at once — the
    // case where the "multiply ALL shrinking selectivities" relaxation
    // actually under-shoots.
    let chords = rng.gen_range(0..=n / 3);
    for _ in 0..chords {
        let a = rng.gen_range(0..n);
        let c = rng.gen_range(0..n);
        if a != c {
            b = b.join(
                &format!("r{a}"),
                &format!("r{c}"),
                10f64.powf(rng.gen_range(-5.0..0.0)),
            );
        }
    }
    b.build().unwrap()
}

fn models() -> Vec<(&'static str, Box<dyn CostModel>)> {
    vec![
        ("memory", Box::new(MemoryCostModel::default())),
        ("disk", Box::new(DiskCostModel::default())),
        ("multi", Box::new(MultiMethodCostModel::default())),
    ]
}

fn assert_sound(tag: &str, q: &Query, model: &dyn CostModel) {
    for comp in q.graph().components() {
        let b = component_bound(q, model, &comp);
        if let Some((order, dp_cost)) = optimal_order_dp(q, &comp, model) {
            assert!(
                b.linear <= dp_cost * (1.0 + 1e-12) + 1e-9,
                "{tag}: linear bound {} exceeds linear DP optimum {dp_cost} (order {order:?})",
                b.linear
            );
        }
        if comp.len() <= 18 {
            if let Ok(Some((tree, dp_cost))) = optimal_bushy_dp(q, &comp, model) {
                // Compare against the arena re-costing (the same fold the
                // searches use); the DP's own fold may differ in the last
                // bits.
                let recost = recost_trees(q, model, std::slice::from_ref(&tree));
                let optimum = dp_cost.min(recost);
                assert!(
                    b.tree <= optimum * (1.0 + 1e-12) + 1e-9,
                    "{tag}: tree bound {} exceeds bushy DP optimum {optimum}",
                    b.tree
                );
                // A bushy bound must also hold on the *linear* optimum.
                if let Some((_, lin)) = optimal_order_dp(q, &comp, model) {
                    assert!(
                        b.tree <= lin * (1.0 + 1e-12) + 1e-9,
                        "{tag}: tree bound {} exceeds linear optimum {lin}",
                        b.tree
                    );
                }
            }
        }
    }
}

#[test]
fn bound_is_admissible_on_200_random_catalogs() {
    for (name, model) in models() {
        for case in 0..CASES {
            let mut rng = SmallRng::seed_from_u64(0xb0cd_0001 ^ (case << 8));
            let n = rng.gen_range(2usize..=10);
            let q = random_query(&mut rng, n);
            assert_sound(&format!("{name}/case{case}/n{n}"), &q, model.as_ref());
        }
    }
}

#[test]
fn bound_is_admissible_at_dp_size_limits() {
    // The largest sizes the exact DPs handle comfortably: N = 14 linear,
    // N = 18 bushy (bushy only priced when the component is ≤ 18).
    for (name, model) in models() {
        for (case, n) in [(0u64, 14usize), (1, 16), (2, 18)] {
            let mut rng = SmallRng::seed_from_u64(0x0b0c_da11 ^ case);
            let q = random_query(&mut rng, n);
            assert_sound(&format!("{name}/limit/n{n}"), &q, model.as_ref());
        }
    }
}

#[test]
fn bound_is_admissible_on_multi_component_catalogs() {
    let model = MemoryCostModel::default();
    for case in 0..50u64 {
        let mut rng = SmallRng::seed_from_u64(0x00b0_cdc0 ^ (case << 4));
        let n_components = rng.gen_range(1usize..=4);
        let mut b = QueryBuilder::new();
        let mut names: Vec<Vec<String>> = Vec::new();
        for c in 0..n_components {
            let size = rng.gen_range(1usize..6);
            let mut comp = Vec::new();
            for i in 0..size {
                let name = format!("c{c}_r{i}");
                b = b.relation(&name, rng.gen_range(10u64..100_000));
                comp.push(name);
            }
            names.push(comp);
        }
        for comp in &names {
            for i in 1..comp.len() {
                let j = rng.gen_range(0..i);
                b = b.join(&comp[j], &comp[i], 10f64.powf(rng.gen_range(-4.0..-0.5)));
            }
        }
        let q = b.build().unwrap();
        assert_sound(&format!("multi/case{case}"), &q, &model);

        // The whole-query report must also stay below any end-to-end
        // plan the driver produces (cross products only add cost).
        let whole = bound_report(&q, &model);
        let opt = Optimizer::new(&model, &OptimizerConfig::new(Method::Ii).with_seed(case))
            .solve(&q)
            .expect("driver must produce a plan")
            .0;
        assert!(
            whole.linear <= opt.cost * (1.0 + 1e-12) + 1e-9,
            "multi/case{case}: whole-query bound {} exceeds driver cost {}",
            whole.linear,
            opt.cost
        );
    }
}
