//! Zero-allocation guarantee for the steady-state move-evaluation loop.
//!
//! The compiled hot path (bitset-filtered move proposals + incremental
//! cost evaluation with reusable scratch state) is designed so that after
//! the evaluator and generator are constructed, a propose → evaluate →
//! commit/rollback cycle performs **no heap allocation at all**. This test
//! wires a counting `#[global_allocator]` around the real loop and asserts
//! exactly that.
//!
//! The counter is per-thread (other test threads must not bleed into the
//! measurement) and counts allocation *events* — `alloc`, `alloc_zeroed`
//! and growing `realloc` all bump it, so a single `Vec` regrowth anywhere
//! in the loop fails the test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use ljqo_catalog::{CompiledQuery, Query, QueryBuilder, RelId};
use ljqo_cost::{Evaluator, IncrementalEvaluator, MemoryCostModel, TreeEvaluator};
use ljqo_plan::{random_valid_order, MoveGenerator, MoveSet, TreeMoveSet, TreePlan};

struct CountingAlloc;

thread_local! {
    /// Allocation events observed on this thread. `const` init so reading
    /// the counter never itself triggers lazy initialization mid-count.
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn bump() {
    // `try_with` instead of `with`: the allocator is called during TLS
    // destruction at thread exit, when the key is no longer accessible.
    let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get() + 1));
}

fn alloc_events() -> u64 {
    ALLOC_EVENTS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// A 12-relation chain with a few extra edges: large enough that moves hit
/// reused tails, recomputed tails, cross-product rejections and multi-edge
/// selectivity folds.
fn test_query() -> Query {
    let mut b = QueryBuilder::new();
    let cards = [3000u64, 12, 700, 55, 1400, 9, 250, 8000, 33, 510, 77, 2600];
    for (i, card) in cards.iter().enumerate() {
        b = b.relation(format!("r{i}"), *card);
    }
    for i in 1..cards.len() {
        b = b.join(
            &format!("r{}", i - 1),
            &format!("r{i}"),
            0.003 + 0.01 * i as f64,
        );
    }
    // Extra edges so the graph is not a pure chain (cycles + a star-ish hub).
    b = b.join("r0", "r5", 0.02);
    b = b.join("r3", "r9", 0.004);
    b = b.join("r3", "r11", 0.05);
    b.build().unwrap()
}

/// A 200-relation chain with periodic chords: big enough that every
/// bitset in the hot loop is multi-word (stride 4 — one full block),
/// so the steady-state guarantee covers the large-N kernel tier, not
/// just the single-word fast path the 12-relation query exercises.
fn large_query() -> Query {
    const N: usize = 200;
    let mut b = QueryBuilder::new();
    for i in 0..N {
        b = b.relation(format!("r{i}"), 10 + ((i as u64 * 37) % 5000));
    }
    for i in 1..N {
        b = b.join(
            &format!("r{}", i - 1),
            &format!("r{i}"),
            0.001 + 0.0004 * (i % 17) as f64,
        );
    }
    // Chords every 13 relations so neighbor rows span several words.
    for i in (13..N).step_by(13) {
        b = b.join(&format!("r{}", i - 13), &format!("r{i}"), 0.01);
    }
    b.build().unwrap()
}

fn all_kinds() -> MoveSet {
    MoveSet {
        adjacent_swap: 0.25,
        swap: 0.35,
        three_cycle: 0.2,
        reinsert: 0.2,
    }
}

/// Allocation events per `ITERS` steady-state iterations of the raw
/// propose → eval → commit/rollback loop on the compiled path.
fn steady_state_events_on(q: &Query, seed: u64) -> u64 {
    const WARMUP: usize = 64;
    const ITERS: usize = 512;

    let model = MemoryCostModel::default();
    let compiled = Arc::new(CompiledQuery::new(q));
    let comp: Vec<RelId> = q.rel_ids().collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let order = random_valid_order(q.graph(), &comp, &mut rng);
    let mut inc = IncrementalEvaluator::with_compiled(q, &model, order, Arc::clone(&compiled));
    let mut gen = MoveGenerator::with_compiled(compiled, all_kinds());
    let mut current = inc.current_cost();
    let graph = q.graph();

    let mut before = 0u64;
    for iter in 0..WARMUP + ITERS {
        if iter == WARMUP {
            before = alloc_events();
        }
        if let Some((mv, _attempts)) = gen.propose_counted(graph, inc.order_mut(), &mut rng) {
            let candidate = inc.eval_applied(&mv);
            if candidate < current {
                inc.commit();
                current = candidate;
            } else {
                inc.rollback();
            }
        }
    }
    alloc_events() - before
}

/// The static-estimator hot loop is allocation-free at steady state — in
/// debug and release builds alike (its debug assertions stay on the
/// pre-sized scratch buffers).
#[test]
fn static_move_loop_is_allocation_free() {
    let events = steady_state_events_on(&test_query(), 0xa110c);
    assert_eq!(
        events, 0,
        "static steady-state move loop performed {events} heap allocations"
    );
}

/// At N = 200 every mask is one full 4-word block: the windowed
/// validity kernel, the prefix-mask cache and the evaluator's scratch
/// state must still run allocation-free at steady state — in debug and
/// release builds alike. This is the load-bearing guarantee of the
/// large-N regime: proposal cost stays O(window), with no hidden heap
/// traffic as N grows.
#[test]
fn static_move_loop_is_allocation_free_at_n200() {
    let events = steady_state_events_on(&large_query(), 0xa110c + 3);
    assert_eq!(
        events, 0,
        "static N=200 steady-state move loop performed {events} heap allocations"
    );
}

/// The bushy tree-evaluator loop (propose → `eval_pending` →
/// commit/rollback with path-to-root re-costing) is allocation-free at
/// steady state, in debug and release builds alike: the candidate/memo
/// arrays, the dirty list and the plan's undo log all reuse their
/// warmed-up capacity.
#[test]
fn tree_evaluator_move_loop_is_allocation_free() {
    const WARMUP: usize = 64;
    const ITERS: usize = 512;

    let q = test_query();
    let model = MemoryCostModel::default();
    let compiled = Arc::new(CompiledQuery::new(&q));
    let comp: Vec<RelId> = q.rel_ids().collect();
    let mut rng = SmallRng::seed_from_u64(0xa110c + 2);
    let order = random_valid_order(q.graph(), &comp, &mut rng);
    let plan = TreePlan::from_order(&compiled, order.rels());
    let mut te = TreeEvaluator::new(&model, Arc::clone(&compiled), plan);
    let moves = TreeMoveSet::default();
    let mut current = te.current_cost();
    let mut committed = 0u64;

    let mut before = 0u64;
    for iter in 0..WARMUP + ITERS {
        if iter == WARMUP {
            before = alloc_events();
        }
        if te.propose(&moves, &mut rng).is_some() {
            let candidate = te.eval_pending();
            if candidate < current {
                te.commit();
                current = candidate;
                committed += 1;
            } else {
                te.rollback();
            }
        }
    }
    let events = alloc_events() - before;
    // The loop must have genuinely exercised both resolutions.
    assert!(committed > 0, "no move was ever committed");
    assert_eq!(
        events, 0,
        "tree-evaluator steady-state move loop performed {events} heap allocations"
    );
}

/// The budgeted loop II and SA run (`Evaluator::cost_move` with
/// best-order tracking) is allocation-free at steady state, in debug and
/// release builds alike: a new best order is copied from the
/// `JoinOrder` the evaluator already holds into the existing buffer.
#[test]
fn evaluator_cost_move_is_allocation_free() {
    const WARMUP: usize = 64;
    const ITERS: usize = 512;

    let q = test_query();
    let model = MemoryCostModel::default();
    let mut ev = Evaluator::new(&q, &model);
    let comp: Vec<RelId> = q.rel_ids().collect();
    let mut rng = SmallRng::seed_from_u64(0xa110c + 1);
    let order = random_valid_order(q.graph(), &comp, &mut rng);
    let mut gen = MoveGenerator::with_compiled(ev.compiled().clone(), all_kinds());
    let mut inc = ev.begin_incremental(order);
    let mut current = inc.current_cost();
    let graph = q.graph();

    let mut before = 0u64;
    for iter in 0..WARMUP + ITERS {
        if iter == WARMUP {
            before = alloc_events();
        }
        if let Some((mv, attempts)) = gen.propose_counted(graph, inc.order_mut(), &mut rng) {
            ev.charge(u64::from(attempts) - 1);
            let candidate = ev.cost_move(&mut inc, &mv);
            if candidate < current {
                inc.commit();
                current = candidate;
            } else {
                inc.rollback();
            }
        }
    }
    let events = alloc_events() - before;
    assert!(ev.n_inc_evals() > 0);
    assert_eq!(
        events, 0,
        "Evaluator::cost_move steady-state loop performed {events} heap allocations"
    );
}
