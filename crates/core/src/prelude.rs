//! Everything a typical user needs, in one import.
//!
//! ```
//! use ljqo::prelude::*;
//! ```

pub use crate::bound::{bound_report, cardinality_floors, component_bound, BoundReport};
pub use crate::bushy::{optimal_bushy_dp, BushyTree};
pub use crate::bushy_search::{
    bushy_gap_vs_dp, bushy_tree_cost, try_optimize_bushy, BushyIterativeImprovement,
    BushyOptimized, BushySimulatedAnnealing,
};
pub use crate::dp::{optimal_order_dp, optimal_order_exhaustive};
pub use crate::eval::{mean_scaled_cost, per_query_best, scaled_cost, OUTLIER_CAP};
pub use crate::parallel::{
    run_portfolio, shard_budget, Cooperation, ParallelOptions, ParallelResult, Parallelism,
    WorkerReport, PORTFOLIO,
};
pub use crate::robust::{recost_plan, regret_under, RegretSample};
pub use crate::trace::{trace_run, trace_run_scheduled, Trace, TracePoint};
pub use crate::{
    BatchOptions, BatchReport, CacheOutcome, Degradation, OptError, Optimized, Optimizer,
    OptimizerConfig, ServedVia, ServingCounters, ServingSnapshot,
};
pub use crate::{IterativeImprovement, Method, MethodRunner, RandomSampling, SimulatedAnnealing};

pub use ljqo_cache::{
    fingerprint, CacheStats, FingerprintConfig, PlanCache, PlanCacheConfig, QueryFingerprint,
};
pub use ljqo_catalog::{CatalogError, JoinEdge, JoinGraph, Query, QueryBuilder, RelId, Relation};
pub use ljqo_cost::{
    BudgetSchedule, CostModel, Deadline, DiskCostModel, Evaluator, JoinCtx, MemoryCostModel,
    OrderCost, TimeLimit,
};
pub use ljqo_heuristics::{
    AugmentationCriterion, AugmentationHeuristic, KbzHeuristic, LocalImprovement, MstWeight,
};
pub use ljqo_plan::{JoinOrder, JoinTree, Move, MoveGenerator, MoveSet, Plan};
