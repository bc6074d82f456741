//! # ljqo — large join query optimization
//!
//! A faithful reproduction of Arun Swami's SIGMOD 1989 study
//! *"Optimization of Large Join Queries: Combining Heuristics and
//! Combinatorial Techniques"* (extending Swami & Gupta, SIGMOD 1988): the
//! problem of picking a good join order for queries with 10–100 joins,
//! where System-R-style dynamic programming is infeasible.
//!
//! ## The pieces
//!
//! * [`IterativeImprovement`] — repeated greedy descents from random valid
//!   start states (SG88's best general technique).
//! * [`SimulatedAnnealing`] — the Johnson et al. flavored annealer SG88
//!   found second-best. Each of the two loops is written once and runs
//!   over outer linear orders and, in [`SearchSpace::Bushy`], over bushy
//!   trees.
//! * Heuristics (re-exported from `ljqo-heuristics`): augmentation, KBZ,
//!   and local improvement.
//! * [`Method`] — the paper's nine combinations: **II**, **SA**, **SAA**,
//!   **SAK**, **IAI**, **IKI**, **IAL**, **AGI**, **KBI**. The paper's
//!   headline result: **IAI** (augmentation-seeded iterative improvement)
//!   wins at generous time limits, **AGI** (augmentation first, then
//!   iterative improvement) wins below ≈ `1.8N²`.
//! * [`Optimizer`] — the one entry point: splits the query into
//!   join-graph components, budgets and optimizes each, and joins their
//!   trees ([`BushyTree`](ljqo_plan::BushyTree)) with late cross
//!   products into one priced plan, over outer linear orders or bushy
//!   trees ([`SearchSpace`]). Optional
//!   [`Parallelism`] searches each component with a worker pool, an
//!   optional [`PlanCache`](ljqo_cache::PlanCache) serves repeated
//!   queries, and [`Optimizer::solve_batch`] spreads many queries over a
//!   thread pool.
//! * [`parallel`] — multicore extensions: a fan-out of one method that
//!   is bit-deterministic in `(seed, workers)`, and heterogeneous method
//!   portfolios ([`parallel::PORTFOLIO`]) with an optional structural
//!   challenger.
//! * [`dp`] — exact System-R-style dynamic programming over the
//!   cross-product-free plans of either search space, feasible only for
//!   small `N`; used as a test oracle and a baseline.
//! * [`bushy_search`] — the paper's open problem attacked head-on: the
//!   II/SA loops over arena-backed bushy trees, with path-to-root
//!   incremental re-costing, run by [`Optimizer`] in
//!   [`SearchSpace::Bushy`] and measured against the DP's bushy optimum.
//! * [`eval`] — the paper's scaled-cost statistics (outlying values coerced
//!   to 10).
//!
//! ## Quickstart
//!
//! ```
//! use ljqo::prelude::*;
//!
//! let query = QueryBuilder::new()
//!     .relation("orders", 100_000)
//!     .relation("customers", 10_000)
//!     .relation_with_selection("nations", 25, 0.5)
//!     .join_on_distincts("orders", "customers", 10_000.0, 10_000.0)
//!     .join_on_distincts("customers", "nations", 25.0, 25.0)
//!     .build()
//!     .unwrap();
//!
//! let model = MemoryCostModel::default();
//! let config = OptimizerConfig::new(Method::Iai).with_seed(7);
//! let (result, _) = Optimizer::new(&model, &config).solve(&query).unwrap();
//! assert!(result.cost.is_finite());
//! println!("{}", result.explain(&query));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod analysis;
pub mod bound;
pub mod bushy_search;
mod cached;
pub mod dp;
mod driver;
mod error;
pub mod eval;
mod ii;
mod methods;
mod neighborhood;
mod optimizer;
pub mod parallel;
pub mod prelude;
pub mod robust;
mod sa;
mod sampling;
pub mod serving;
pub mod trace;

pub use bushy_search::bushy_gap_vs_dp;
pub use cached::CacheOutcome;
pub use driver::{Optimized, OptimizerConfig, SearchSpace};
pub use error::{Degradation, OptError};
pub use ii::IterativeImprovement;
pub use methods::{Method, MethodRunner};
pub use optimizer::{
    optimize_cached, try_optimize, BatchOptions, BatchReport, Optimizer, ServedVia,
};
pub use parallel::Parallelism;
pub use robust::{recost_plan, recost_trees, regret_under, RegretSample};
pub use sa::SimulatedAnnealing;
pub use sampling::RandomSampling;
pub use serving::{win_labels, win_slot, ServingCounters, ServingSnapshot};

// Re-export the component crates so downstream users need only `ljqo`.
pub use ljqo_cache as cache;
pub use ljqo_catalog as catalog;
pub use ljqo_cost as cost;
pub use ljqo_heuristics as heuristics;
pub use ljqo_plan as plan;
