//! **Measurement-based quantum approximate optimization** — the paper's
//! primary contribution as a library.
//!
//! This crate compiles QAOA — for arbitrary depth `p`, arbitrary
//! parameters, any QUBO/PUBO cost function (Sec. III, Eq. 12), the
//! constraint-preserving MIS ansatz (Sec. IV) and XY mixers (Sec. V) —
//! into *deterministic measurement patterns* executable on the one-way
//! model runtime of `mbqao-mbqc`:
//!
//! * [`byproduct::ByproductTracker`] — the GF(2) Pauli-frame that
//!   mechanizes the paper's `m`/`n`/`P_u` signal bookkeeping: pushing
//!   byproducts through CZs yields exactly the neighbourhood parities of
//!   Eq. (11–12), and folding them into measurement bases yields the
//!   adapted angles `(−1)^{m}β`, `γ + mπ`.
//! * [`gadgets::PatternBuilder`] — the measurement-pattern gadget library:
//!   J-steps, multi-qubit phase gadgets (Eqs. 7–8), single-qubit rotations
//!   (Eqs. 9–10), generic Pauli rotations, and the controlled partial
//!   mixer of Sec. IV.
//! * [`compiler`] — the end-to-end QAOA_p → pattern compiler with
//!   parameterized angles (γ, β bound at run time, as in the paper).
//! * [`resources`] — exact resource counts vs. the paper's Sec. III-A
//!   bounds and the gate-model comparison.
//! * [`verify`] — equivalence of the compiled pattern against the
//!   gate-model ansatz (state fidelity per branch + determinism).
//! * [`engine`] — the unified execution layer: a [`Backend`] trait with
//!   [`GateBackend`] / [`PatternBackend`] / [`ZxBackend`] /
//!   [`PauliBackend`]
//!   implementations and a batched, rayon-parallel [`Executor`] shared
//!   by the optimizers, landscape scans, verification and the benchmark
//!   tables.
//! * [`engine::shard`] — the multi-process scaling layer: sweeps
//!   partition into self-describing [`Shard`]s whose results merge
//!   commutatively/associatively back into the exact monolithic output,
//!   carried across process boundaries by the bit-exact JSON of
//!   [`engine::wire`].
//! * [`pauli_backend`] — the stabilizer-tableau backend: patterns whose
//!   adapted angles are (mostly) Clifford execute as Aaronson–Gottesman
//!   tableau updates with a bounded non-Clifford branch expansion,
//!   scaling to hundreds of qubits; generic angles fall back to the
//!   statevector path.
//! * [`zx_backend`] — the ZX-simplified backend: compiled patterns are
//!   exported to ZX (symbolically in γ/β), simplified to a fixpoint,
//!   re-extracted and executed, with a [`SimplifyReport`] quantifying
//!   the rewriting.
//! * [`cache`] — process-wide, LRU-bounded memoization of compiled
//!   patterns keyed by `(cost, p, mixer)` so backend-rebuilding sweeps
//!   never recompile.
//! * [`walkthrough`] — the documented derivation pipeline: the worked
//!   triangle-MaxCut example embedded (and kept fresh by a test) in
//!   `docs/PIPELINE.md`.

pub mod byproduct;
pub mod cache;
pub mod compiler;
pub mod engine;
pub mod gadgets;
pub mod pauli_backend;
pub mod resources;
pub mod verify;
pub mod walkthrough;
pub mod zx_backend;
pub mod zx_bridge;

pub use cache::{cache_lens, pattern_cache_stats, zx_cache_stats, CacheStats, CACHE_CAPACITY};
pub use compiler::{compile_qaoa, CompileOptions, CompiledQaoa, MixerKind};
pub use engine::shard::{Merger, Provenance, Shard, ShardError, ShardResult};
pub use engine::{Backend, Executor, GateBackend, PatternBackend, PauliBackend, ZxBackend};
pub use gadgets::PatternBuilder;
pub use resources::{gate_model_resources, paper_bounds, PaperBounds};
pub use verify::{
    verify_equivalence, verify_equivalence_three_way, EquivalenceReport, ThreeWayReport,
};
pub use zx_backend::SimplifyReport;
