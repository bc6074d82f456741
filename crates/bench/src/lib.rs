//! # ljqo-bench — the paper's experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§6):
//!
//! | binary   | artifact | what it reproduces |
//! |----------|----------|--------------------|
//! | `table1` | Table 1  | augmentation `chooseNext` criteria 1–5 vs time limit |
//! | `table2` | Table 2  | KBZ spanning-tree weight criteria 3–5 vs time limit |
//! | `fig4`   | Figure 4 | all nine methods, default benchmark, N = 10..50 |
//! | `fig5`   | Figure 5 | top five methods, larger benchmark, N = 10..100 |
//! | `fig6`   | Figure 6 | small time limits (0.3N²..1.8N²) for IAI/AGI/II |
//! | `fig7`   | Figure 7 | five methods under the disk cost model |
//! | `table3` | Table 3  | five methods across the nine benchmark variations |
//!
//! plus ablation binaries (`ablation_moves`, `ablation_kappa`,
//! `ablation_sa`, `ablation_local`, `baseline_dp`) for the design choices
//! called out in `DESIGN.md`.
//!
//! All binaries share the same methodology (paper §6.1): queries are
//! synthesized per benchmark; each method runs **once** per (query,
//! replicate) with the full `9N²` budget while the evaluator snapshots the
//! best cost at every intermediate time limit; costs are scaled by the
//! per-query best at `9N²`, outliers coerced to 10, and averaged.
//!
//! Defaults are scaled down for laptop runtimes; pass `--paper-scale` for
//! the full 50-queries-per-N, 2-replicate configuration.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cli;
pub mod grid;
pub mod propagate;
pub mod report;
pub mod snapshot;
pub mod timing;

pub use cli::Args;
pub use grid::{run_grid, CostMatrix, GridSpec, HeuristicKind, ModelKind};
pub use report::{render_curve_table, write_json, Report};
