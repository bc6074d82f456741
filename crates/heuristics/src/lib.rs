//! # ljqo-heuristics — the paper's three heuristic families
//!
//! Section 4 of the paper studies three heuristics for large join query
//! optimization:
//!
//! * **Augmentation** ([`augmentation`]) — grow a permutation one relation
//!   at a time, choosing the next relation by one of five criteria
//!   (Table 1 of the paper compares them; criterion 3, minimum join
//!   selectivity, wins).
//! * **KBZ** ([`kbz`]) — the Krishnamurthy/Boral/Zaniolo `O(N²)` algorithm:
//!   algorithm **G** picks a minimum spanning tree of the join graph,
//!   algorithm **T** tries every root, and algorithm **R** produces the
//!   rank-optimal order for each rooted tree (Table 2 compares the
//!   spanning-tree weight criteria).
//! * **Local improvement** ([`local`]) — exhaustive search inside sliding
//!   clusters of size `c` with overlap `o`, repeated until fixpoint.
//!
//! A fourth, post-paper family backs the robustness work:
//!
//! * **Cardinality-free** ([`cardfree`]) — order by join-graph structure
//!   only (after Simpli-Squared, arxiv 2111.00163). It reads no
//!   statistics at all, so it is immune to estimation error; the
//!   optimizer offers it as a method and uses it as a degradation rung
//!   when statistics are missing or corrupt. Like augmentation, one
//!   generated order is charged `N` budget units.
//!
//! Augmentation and KBZ are *constructive*: they generate orders from the
//! catalog statistics alone and are pure functions of the query. The
//! optimizer layer (crate `ljqo`) charges the deterministic work budget
//! for them: one budget unit is `O(N)` elementary operations, so
//! generating one augmentation order costs `N` units and one KBZ run costs
//! `N` units per root plus `N` for the spanning tree — reproducing the
//! paper's observation that KBZ pays `O(N²)` for a *single* state while
//! augmentation gets `N+1` states for the same price. Local improvement
//! consumes budget through the [`ljqo_cost::Evaluator`] it is given, one
//! unit per candidate cluster permutation evaluated.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod augmentation;
pub mod cardfree;
pub mod kbz;
pub mod local;

pub use augmentation::{AugmentationCriterion, AugmentationHeuristic};
pub use cardfree::CardFreeHeuristic;
pub use kbz::{KbzHeuristic, MstWeight};
pub use local::LocalImprovement;
