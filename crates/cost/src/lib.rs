//! # ljqo-cost — cost models, size estimation, and budgeted evaluation
//!
//! The paper evaluates join orders under two cost models:
//!
//! * a **main-memory** model in the spirit of Swami's validated
//!   main-memory cost model \[Swa89a\] — see [`MemoryCostModel`];
//! * a **disk-based** model similar to Bratbergsengen's hash-join cost
//!   analysis \[Bra84\] — see [`DiskCostModel`].
//!
//! Both consume per-join statistics produced by the shared cardinality
//! estimator ([`estimate`]), which uses the classical independence /
//! uniformity assumptions: `|R ⋈ S| = |R|·|S|·J` with the join selectivity
//! `J` taken from the catalog, multiplying the selectivities of all join
//! predicates that connect the new inner relation to the relations already
//! joined.
//!
//! The [`Evaluator`] wraps a query + model behind a **deterministic work
//! budget**. The paper allots CPU time proportional to `N²`; wall-clock
//! time is machine-dependent, so we charge one *budget unit* per plan cost
//! evaluation (an `O(N)` operation — heuristics charge proportionally for
//! their own `O(N)`-sized work, see `ljqo-heuristics`) and express the
//! paper's time limit `τ·N²` as `⌊τ·N²·κ⌋` units. The evaluator also
//! tracks the best state seen and snapshots it at configurable checkpoint
//! budgets, which is how the experiment harness extracts "solution quality
//! at time limit t" curves from a single run.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod deadline;
mod disk;
pub mod estimate;
mod evaluator;
mod fault;
pub mod incremental;
mod memory;
mod model;
mod multi;
pub mod propagate;
mod shared;
mod tree_eval;

pub use deadline::Deadline;
pub use disk::DiskCostModel;
pub use evaluator::{Evaluator, Snapshot};
pub use fault::{FaultMode, FaultyCostModel};
pub use incremental::{costs_agree, Estimator, IncrementalEvaluator};
pub use memory::MemoryCostModel;
pub use model::{CostModel, JoinCtx, OrderCost};
pub use multi::{JoinMethod, MultiMethodCostModel};
pub use shared::SharedBest;
pub use tree_eval::TreeEvaluator;

/// Intermediate cardinalities are clamped to this value so that products of
/// many large relations cannot overflow `f64` and so that cost comparisons
/// remain total. Any plan that reaches the clamp is astronomically bad and
/// will never survive optimization.
pub const CARD_CLAMP: f64 = 1e120;

/// Saturate a cost to a finite value: `NaN` and `±∞` become [`f64::MAX`].
///
/// Cost models are treated as untrusted components — stale statistics or a
/// buggy model can emit non-finite costs, and `NaN` in particular breaks
/// best-so-far tracking (`c < best` is false for every `NaN`) and the
/// methods' accept/reject comparisons. The [`Evaluator`] applies this to
/// every model output, so optimizer code downstream only ever sees finite
/// costs; a saturated plan is simply astronomically bad and loses every
/// comparison it should lose.
#[inline]
pub fn sanitize_cost(c: f64) -> f64 {
    if c.is_finite() {
        c
    } else {
        f64::MAX
    }
}

/// Time limits proportional to `N²`, as used throughout the paper
/// ("`1.5N²`", "`9N²`", ...).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeLimit {
    /// The multiplier `τ` in `τ·N²`.
    pub tau: f64,
}

impl TimeLimit {
    /// A time limit of `τ·N²`.
    pub fn of(tau: f64) -> Self {
        TimeLimit { tau }
    }

    /// Budget units for a query with `n` joins under calibration constant
    /// `kappa` (units per `N²`).
    pub fn units(&self, n_joins: usize, kappa: f64) -> u64 {
        let n = n_joins as f64;
        (self.tau * n * n * kappa).max(1.0) as u64
    }
}

/// How the work budget grows with query size.
///
/// The paper works at `N ≤ 100`, where its `τ·N²` CPU allotment is
/// affordable. At `N = 1000` the same rule hands the optimizer 100× the
/// budget of an `N = 100` query — minutes of planning for one query. The
/// schedule decouples *per-unit* calibration (still [`TimeLimit`]'s `τ`
/// and the driver's `κ`) from the *growth curve*:
///
/// * [`Quadratic`](BudgetSchedule::Quadratic) — the paper's rule,
///   `⌊τ·N²·κ⌋`, bit-identical to [`TimeLimit::units`]. The default.
/// * [`Capped`](BudgetSchedule::Capped) — quadratic up to a threshold
///   `t`, then frozen at `⌊τ·t²·κ⌋`: a hard ceiling on planning work no
///   matter how large the query grows.
/// * [`NlogN`](BudgetSchedule::NlogN) — quadratic up to `t`, then
///   `τ·κ·t·N·log₂N ⁄ log₂t`: keeps growing (bigger queries *do* deserve
///   more work — their neighborhoods are larger) but only
///   quasi-linearly. Continuous at the threshold: both branches give
///   `τ·κ·t²` at `N = t`.
///
/// All three floor at one unit, like [`TimeLimit::units`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetSchedule {
    /// The paper's `τ·N²·κ` rule (default; bit-identical to
    /// [`TimeLimit::units`]).
    #[default]
    Quadratic,
    /// `τ·min(N, t)²·κ` — quadratic until `t` joins, constant beyond.
    Capped {
        /// Join count `t` at which the budget stops growing.
        threshold: usize,
    },
    /// Quadratic until `t` joins, then `τ·κ·t·N·log₂N ⁄ log₂t`.
    NlogN {
        /// Join count `t` at which growth switches to `N·log N`
        /// (must be ≥ 2 for the `log₂t` divisor to be positive;
        /// enforced by clamping).
        threshold: usize,
    },
}

impl BudgetSchedule {
    /// Budget units for a query with `n` joins, combining the schedule's
    /// growth curve with `limit`'s per-`N²` multiplier `τ` and the
    /// calibration constant `kappa`.
    pub fn units(&self, limit: &TimeLimit, n_joins: usize, kappa: f64) -> u64 {
        match *self {
            BudgetSchedule::Quadratic => limit.units(n_joins, kappa),
            BudgetSchedule::Capped { threshold } => limit.units(n_joins.min(threshold), kappa),
            BudgetSchedule::NlogN { threshold } => {
                let t = threshold.max(2);
                if n_joins <= t {
                    limit.units(n_joins, kappa)
                } else {
                    let n = n_joins as f64;
                    let tf = t as f64;
                    (limit.tau * kappa * tf * n * n.log2() / tf.log2()).max(1.0) as u64
                }
            }
        }
    }
}

impl std::fmt::Display for BudgetSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            BudgetSchedule::Quadratic => write!(f, "quadratic"),
            BudgetSchedule::Capped { threshold } => write!(f, "capped:{threshold}"),
            BudgetSchedule::NlogN { threshold } => write!(f, "nlogn:{threshold}"),
        }
    }
}

impl std::str::FromStr for BudgetSchedule {
    type Err = String;

    /// Parses `quadratic`, `capped:<t>`, or `nlogn:<t>` (the [`Display`]
    /// format, so round-trips).
    ///
    /// [`Display`]: std::fmt::Display
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parse_threshold = |v: &str| {
            v.parse::<usize>()
                .map_err(|_| format!("bad schedule threshold {v:?} (want a positive integer)"))
        };
        match s.split_once(':') {
            None if s == "quadratic" => Ok(BudgetSchedule::Quadratic),
            Some(("capped", v)) => Ok(BudgetSchedule::Capped {
                threshold: parse_threshold(v)?,
            }),
            Some(("nlogn", v)) => Ok(BudgetSchedule::NlogN {
                threshold: parse_threshold(v)?,
            }),
            _ => Err(format!(
                "unknown budget schedule {s:?} (want quadratic, capped:<t>, or nlogn:<t>)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_limit_units_scale_quadratically() {
        let t = TimeLimit::of(9.0);
        assert_eq!(t.units(10, 20.0), 18_000);
        assert_eq!(t.units(20, 20.0), 72_000);
    }

    #[test]
    fn time_limit_units_floor_at_one() {
        let t = TimeLimit::of(1e-9);
        assert_eq!(t.units(10, 20.0), 1);
    }

    #[test]
    fn quadratic_schedule_matches_time_limit_exactly() {
        let t = TimeLimit::of(1.5);
        for n in [1usize, 2, 7, 64, 100, 333, 1000] {
            for kappa in [0.5, 20.0, 137.25] {
                assert_eq!(
                    BudgetSchedule::Quadratic.units(&t, n, kappa),
                    t.units(n, kappa),
                    "n={n} kappa={kappa}"
                );
            }
        }
    }

    #[test]
    fn capped_schedule_freezes_at_threshold() {
        let t = TimeLimit::of(9.0);
        let s = BudgetSchedule::Capped { threshold: 100 };
        assert_eq!(s.units(&t, 50, 20.0), t.units(50, 20.0));
        assert_eq!(s.units(&t, 100, 20.0), t.units(100, 20.0));
        assert_eq!(s.units(&t, 250, 20.0), t.units(100, 20.0));
        assert_eq!(s.units(&t, 1000, 20.0), t.units(100, 20.0));
    }

    #[test]
    fn nlogn_schedule_is_continuous_and_subquadratic() {
        let t = TimeLimit::of(9.0);
        let s = BudgetSchedule::NlogN { threshold: 100 };
        // Below/at the threshold: exactly quadratic.
        assert_eq!(s.units(&t, 64, 20.0), t.units(64, 20.0));
        assert_eq!(s.units(&t, 100, 20.0), t.units(100, 20.0));
        // Just past the threshold: no cliff (within integer truncation).
        let at = s.units(&t, 100, 20.0) as f64;
        let past = s.units(&t, 101, 20.0) as f64;
        assert!(past > at && past < at * 1.05, "at={at} past={past}");
        // Far past: strictly between the cap and full quadratic.
        let far = s.units(&t, 1000, 20.0);
        assert!(far > BudgetSchedule::Capped { threshold: 100 }.units(&t, 1000, 20.0));
        assert!(far < BudgetSchedule::Quadratic.units(&t, 1000, 20.0));
    }

    #[test]
    fn schedule_display_round_trips_through_from_str() {
        for s in [
            BudgetSchedule::Quadratic,
            BudgetSchedule::Capped { threshold: 128 },
            BudgetSchedule::NlogN { threshold: 256 },
        ] {
            assert_eq!(s.to_string().parse::<BudgetSchedule>().unwrap(), s);
        }
        assert!("nope".parse::<BudgetSchedule>().is_err());
        assert!("capped:x".parse::<BudgetSchedule>().is_err());
        assert!("capped".parse::<BudgetSchedule>().is_err());
    }

    #[test]
    fn sanitize_cost_saturates_non_finite() {
        assert_eq!(sanitize_cost(f64::NAN), f64::MAX);
        assert_eq!(sanitize_cost(f64::INFINITY), f64::MAX);
        assert_eq!(sanitize_cost(f64::NEG_INFINITY), f64::MAX);
        assert_eq!(sanitize_cost(42.0), 42.0);
        assert_eq!(sanitize_cost(0.0), 0.0);
        assert_eq!(sanitize_cost(f64::MAX), f64::MAX);
    }
}
