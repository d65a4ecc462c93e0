//! Stabilizer-tableau fast path for measurement patterns.
//!
//! This crate is the engine behind the `pauli` backend: an
//! Aaronson–Gottesman tableau ([`Tableau`] over bit-packed
//! [`PauliString`] rows) plus a pattern executor ([`PatternRun`]) that
//! runs the Clifford bulk of a compiled QAOA pattern in `O(N²)` bit
//! operations per measurement and opens weighted branches only at the
//! few non-Clifford measurements — exact Born weights, expectation
//! values bit-comparable to the dense statevector backends, and cost
//! capped by the non-Clifford *count* instead of `2^n`. `N` is the live
//! width, not the pattern's qubit count: every Pauli-measured column is
//! reset and reused, so a run needs at most the pattern's `max_live`
//! plus one pinned column per non-Clifford measurement
//! ([`PatternRun::width`]).
//!
//! Conventions (phases, conjugation signs, the deterministic-
//! measurement rule, column recycling, branch-tree semantics) are
//! documented in [`conventions`], whose examples double as doctests.

pub mod executor;
pub mod pauli;
pub mod tableau;

pub use executor::{
    branch_tree_expectation, Branch, BranchTree, OutcomePolicy, PatternRun, MAX_MAGIC_EXPECTATION,
    MAX_MAGIC_SAMPLING, MAX_MAGIC_TREE,
};
pub use pauli::PauliString;
pub use tableau::{MeasResult, Tableau};

/// The crate's conventions note, `docs/TABLEAU.md`, compiled as
/// doctests so the documented sign rules cannot drift from the code.
#[doc = include_str!("../../../docs/TABLEAU.md")]
pub mod conventions {}
