//! Soundness of the LP-style lower-bound certifier (`ljqo::bound`).
//!
//! The certifier's one obligation is admissibility: on every instance,
//! `linear ≤` the exact DP's left-deep optimum and `tree ≤` its bushy
//! optimum. These tests check that obligation against 200 seeded random
//! catalogs per model — chains, stars, and random trees with one to four
//! components — at sizes where the DP is exact (kept small per case so
//! 200 cases stay fast; a few pinned cases exercise the upper sizes).
//! Each optimum must also be the price of its own tree.
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

/// The DP's optimum in `space`, checked to be the price of its own tree.
fn priced_optimum(
    tag: &str,
    q: &Query,
    comp: &[RelId],
    model: &dyn CostModel,
    space: SearchSpace,
) -> Option<f64> {
    let (tree, dp_cost) = optimal_dp(q, comp, model, space).ok()??;
    let priced = recost_trees(q, model, std::slice::from_ref(&tree));
    assert!(
        (dp_cost - priced).abs() <= priced * 1e-12,
        "{tag}: {} DP reports {dp_cost} for a tree that prices at {priced}",
        space.name()
    );
    Some(dp_cost)
}

fn assert_sound(tag: &str, q: &Query, model: &dyn CostModel) {
    for comp in q.graph().components() {
        let b = component_bound(q, model, &comp);
        let linear = priced_optimum(tag, q, &comp, model, SearchSpace::Linear);
        if let Some(lin) = linear {
            assert!(
                b.linear <= lin * (1.0 + 1e-12) + 1e-9,
                "{tag}: linear bound {} exceeds linear DP optimum {lin}",
                b.linear
            );
        }
        // A bushy bound must hold on both optima.
        let bushy = priced_optimum(tag, q, &comp, model, SearchSpace::Bushy);
        for optimum in [bushy, linear].into_iter().flatten() {
            assert!(
                b.tree <= optimum * (1.0 + 1e-12) + 1e-9,
                "{tag}: tree bound {} exceeds DP optimum {optimum}",
                b.tree
            );
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
    // The largest sizes the exact DP handles comfortably, up to its
    // bushy-space limit of 18 relations.
    for (name, model) in models() {
        for (case, n) in [(0u64, 14usize), (1, 16), (2, 18)] {
            let mut rng = SmallRng::seed_from_u64(0x0b0c_da11 ^ case);
            let q = random_query(&mut rng, n);
            assert_sound(&format!("{name}/limit/n{n}"), &q, model.as_ref());
        }
        // A chain whose relations multiply past the 1e120 cardinality
        // clamp while every real intermediate stays at 1e8 rows: a
        // subset's cardinality must come from join steps, not from the
        // product of its base cardinalities.
        let mut b = QueryBuilder::new();
        for i in 0..18 {
            b = b.relation(format!("r{i}"), 100_000_000);
        }
        for i in 1..18 {
            b = b.join(&format!("r{}", i - 1), &format!("r{i}"), 1e-8);
        }
        assert_sound(
            &format!("{name}/limit/chain18"),
            &b.build().unwrap(),
            model.as_ref(),
        );
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
