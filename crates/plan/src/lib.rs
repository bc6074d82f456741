//! # ljqo-plan — the solution space of outer linear join trees
//!
//! The paper restricts the search to *outer linear join trees*: every join
//! has a base relation as its inner operand, so a tree is equivalent to a
//! permutation of the joining relations. This crate provides:
//!
//! * [`JoinOrder`] — a permutation of (a subset of) the query's relations,
//! * [`BushyTree`] — a join tree, outer linear or bushy: the shape of
//!   every plan segment, with its EXPLAIN rendering,
//! * [`Plan`] — the leaf orders of a full query plan: one segment per
//!   connected component of the join graph, with late cross products
//!   between components (the paper's "postpone cross-products"
//!   heuristic),
//! * validity checking ([`validity`]) — an order is *valid* when every
//!   relation after the first joins with at least one earlier relation, so
//!   no cross product is needed inside a component,
//! * the move set ([`moves`]) used by iterative improvement and simulated
//!   annealing, following Swami & Gupta (SIGMOD 1988): adjacent swaps,
//!   arbitrary swaps, 3-cycles, and single-relation reinsertions, all
//!   filtered for validity,
//! * a random valid state generator ([`random`]),
//! * the **bushy** search space ([`btree`]) that lifts the paper's
//!   linear-tree restriction: arena-backed mutable trees ([`TreePlan`])
//!   with their own move catalog ([`TreeMove`]), validity-checked through
//!   the same compiled bitset masks.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod btree;
pub mod moves;
mod order;
pub mod random;
mod tree;
pub mod validity;

pub use btree::{TreeMove, TreeMoveSet, TreeNode, TreePlan, NO_NODE};
pub use moves::{Move, MoveGenerator, MoveKind, MoveSet};
pub use order::{JoinOrder, Plan};
pub use random::random_valid_order;
pub use tree::BushyTree;
pub use validity::BitsetChecker;
