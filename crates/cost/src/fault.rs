//! Fault-injecting cost model wrapper for robustness tests.
//!
//! Cost models consume catalog statistics that may be stale, extreme, or
//! plain wrong, and third-party models can have bugs of their own. The
//! optimizer driver therefore treats a model as an untrusted component:
//! non-finite costs are saturated by the [`crate::Evaluator`] and panics
//! are isolated per component / worker in `ljqo-core`. [`FaultyCostModel`]
//! exists to test exactly those paths: it wraps any inner model and
//! injects a deterministic fault on the k-th join step it prices.
//!
//! The fault lives in [`CostModel::join_cost`], the one hook that both a
//! full walk ([`crate::Evaluator::cost`]) and an incremental move
//! evaluation ([`crate::Evaluator::cost_move`]) call, so fault-injection
//! tests run on the same search loop production runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;

use ljqo_catalog::{Query, RelId};

use crate::model::{CostModel, JoinCtx};

/// What the wrapper injects, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Panic on exactly the k-th join step priced (1-based); all other
    /// steps pass through.
    PanicOnKth(u64),
    /// Return `NaN` for the k-th join step priced (1-based); all other
    /// steps pass through. The step is summed into its plan's cost, so
    /// that plan prices as saturated ([`f64::MAX`]).
    NanOnKth(u64),
    /// Panic on every join step priced by any thread other than the
    /// first thread to price one. Under a parallel multi-start run this
    /// deterministically kills all workers but one, which is the
    /// worst-case input for per-worker panic isolation.
    PanicOnAllButFirstThread,
}

/// A [`CostModel`] wrapper that injects one deterministic fault.
///
/// Join steps are counted across threads with an atomic counter, so the
/// k-th step is well-defined (if racy in *which* order triggers it)
/// even under a parallel worker pool. The wrapper is written for tests: it panics
/// or emits `NaN` so the robustness of the surrounding machinery —
/// saturation in the evaluator, `catch_unwind` isolation in the driver —
/// can be asserted.
pub struct FaultyCostModel<M> {
    inner: M,
    mode: FaultMode,
    evals: AtomicU64,
    first_thread: Mutex<Option<ThreadId>>,
}

impl<M: CostModel> FaultyCostModel<M> {
    /// Wrap `inner`, injecting according to `mode`.
    pub fn new(inner: M, mode: FaultMode) -> Self {
        FaultyCostModel {
            inner,
            mode,
            evals: AtomicU64::new(0),
            first_thread: Mutex::new(None),
        }
    }

    /// Number of join steps priced so far (including the faulted one).
    /// A plan evaluation prices one step per relation after the first; an
    /// incremental move evaluation prices only the steps it re-costs.
    pub fn evals(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }

    fn register_step(&self) -> u64 {
        self.evals.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Whether the calling thread is the first thread ever to evaluate
    /// through this wrapper (claiming the slot if unclaimed).
    fn is_first_thread(&self) -> bool {
        let me = std::thread::current().id();
        let mut slot = self.first_thread.lock().expect("fault-model lock");
        match *slot {
            Some(first) => first == me,
            None => {
                *slot = Some(me);
                true
            }
        }
    }
}

impl<M: CostModel> CostModel for FaultyCostModel<M> {
    fn join_cost(&self, ctx: &JoinCtx) -> f64 {
        let n = self.register_step();
        match self.mode {
            FaultMode::PanicOnKth(k) if n == k => {
                panic!("injected cost-model fault: panic on join step {k}")
            }
            FaultMode::NanOnKth(k) if n == k => f64::NAN,
            FaultMode::PanicOnAllButFirstThread if !self.is_first_thread() => {
                panic!("injected cost-model fault: panic on non-first worker thread")
            }
            _ => self.inner.join_cost(ctx),
        }
    }

    fn name(&self) -> &'static str {
        "faulty"
    }

    fn lower_bound(&self, query: &Query, component: &[RelId]) -> f64 {
        self.inner.lower_bound(query, component)
    }

    /// A model that panics or emits `NaN` mid-stream has no meaningful
    /// monotone cost surface; opting out keeps the `ljqo::bound`
    /// certifier from deriving a "lower bound" out of injected faults.
    fn monotone_join_cost(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryCostModel;
    use crate::model::OrderCost;
    use ljqo_catalog::QueryBuilder;

    fn q() -> Query {
        QueryBuilder::new()
            .relation("a", 100)
            .relation("b", 200)
            .join("a", "b", 0.01)
            .build()
            .unwrap()
    }

    #[test]
    fn passes_through_until_the_fault() {
        // Faults count join steps, not plan evaluations: each walk of a
        // three-relation chain prices two steps, so step 3 is the first
        // step of the second walk.
        let query = QueryBuilder::new()
            .relation("a", 100)
            .relation("b", 200)
            .relation("c", 300)
            .join("a", "b", 0.01)
            .join("b", "c", 0.02)
            .build()
            .unwrap();
        let order: Vec<RelId> = query.rel_ids().collect();
        let clean = MemoryCostModel::default().order_cost(&query, &order);
        let faulty = FaultyCostModel::new(MemoryCostModel::default(), FaultMode::NanOnKth(3));
        assert_eq!(faulty.order_cost(&query, &order), clean);
        assert_eq!(faulty.evals(), 2);
        // The NaN step poisons its walk's sum, which whole-order costing
        // saturates like any non-finite total.
        assert_eq!(faulty.order_cost(&query, &order), f64::MAX);
        assert_eq!(faulty.order_cost(&query, &order), clean);
        assert_eq!(faulty.evals(), 6);
    }

    #[test]
    fn panic_mode_panics_exactly_on_kth() {
        let query = q();
        let order: Vec<RelId> = query.rel_ids().collect();
        let faulty = FaultyCostModel::new(MemoryCostModel::default(), FaultMode::PanicOnKth(2));
        let _ = faulty.order_cost(&query, &order);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            faulty.order_cost(&query, &order)
        }));
        assert!(caught.is_err());
        let _ = faulty.order_cost(&query, &order);
        assert!(faulty.evals() >= 2, "the fault never fired");
    }

    #[test]
    fn first_thread_survives_thread_fault_mode() {
        let query = q();
        let order: Vec<RelId> = query.rel_ids().collect();
        let faulty = FaultyCostModel::new(
            MemoryCostModel::default(),
            FaultMode::PanicOnAllButFirstThread,
        );
        // This thread claims the first-evaluator slot...
        let c = faulty.order_cost(&query, &order);
        assert!(c.is_finite());
        // ...so another thread must panic.
        let caught = std::thread::scope(|s| {
            s.spawn(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    faulty.order_cost(&query, &order)
                }))
            })
            .join()
            .expect("probe thread itself must not die")
        });
        assert!(caught.is_err());
        // The first thread keeps working.
        assert_eq!(faulty.order_cost(&query, &order), c);
        assert!(faulty.evals() >= 3, "the probe thread never priced a step");
    }
}
