//! The unified execution engine: one [`Backend`] abstraction over the
//! gate-model simulator and the compiled measurement-pattern runtime,
//! plus a batched, parallel [`Executor`] every consumer shares.
//!
//! The paper's central claim is that the two computational models are
//! interchangeable; this module makes that operational (in the spirit of
//! MB-VQE, Ferguson et al., arXiv:2010.13940, where circuit and pattern
//! execution are backends of one variational loop):
//!
//! * [`GateBackend`] prepares `|γβ⟩` by running the
//!   [`mbqao_qaoa::QaoaAnsatz`] circuit,
//! * [`PatternBackend`] prepares it by executing the compiled
//!   measurement pattern — just-in-time scheduled so qubits are reused
//!   and the live register (and therefore the statevector) stays small,
//! * [`ZxBackend`] (re-exported from [`crate::zx_backend`]) routes the
//!   compiled pattern through ZX-calculus simplification and executes
//!   the re-extracted pattern — same semantics, machine-checked,
//! * [`Executor`] wraps any of them and adds the batched entry points
//!   the classical outer loop hammers: [`Executor::expectation_batch`]
//!   fans a parameter sweep out over all cores, and the
//!   [`BatchObjective`] implementation plugs the same batching into
//!   every optimizer in [`mbqao_qaoa::optimize`].
//!
//! Pattern compilation is memoized process-wide (see [`crate::cache`]):
//! sweeps that rebuild backends for the same `(cost, p, mixer)` reuse
//! the compiled artifacts instead of recompiling.
//!
//! One process is not the ceiling: the [`shard`] module partitions whole
//! sweeps (landscape scans, grid searches, bench tables, disorder
//! averages) into self-describing [`shard::Shard`]s whose partial
//! results merge commutatively and associatively back into the exact
//! monolithic output, and [`wire`] carries them across process
//! boundaries bit-for-bit.

pub mod shard;
pub mod wire;

use crate::cache;
use crate::compiler::{CompileOptions, CompiledQaoa};
pub use crate::pauli_backend::PauliBackend;
pub use crate::zx_backend::ZxBackend;
use mbqao_mbqc::simulate::{run_with_input, Branch, PatternRunner};
use mbqao_problems::ZPoly;
use mbqao_qaoa::landscape::{scan_p1_with, Landscape};
use mbqao_qaoa::optimize::{BatchObjective, Objective, OptResult};
use mbqao_qaoa::{QaoaAnsatz, QaoaRunner};
use mbqao_sim::{QubitId, State};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// A QAOA execution backend: anything that can prepare `|γβ⟩`, estimate
/// `⟨C⟩` and draw corrected samples for a parameter vector
/// `[γ₁…γ_p, β₁…β_p]`.
///
/// Implementations must be `Send + Sync`: the [`Executor`] evaluates
/// parameter batches from worker threads.
pub trait Backend: Send + Sync {
    /// Human-readable backend name (for tables and logs).
    fn name(&self) -> &'static str;

    /// Number of problem variables (qubits of the logical register).
    fn n(&self) -> usize;

    /// Number of QAOA layers.
    fn p(&self) -> usize;

    /// Length of the parameter vector (`2p`).
    fn n_params(&self) -> usize {
        2 * self.p()
    }

    /// The diagonal cost Hamiltonian.
    fn cost(&self) -> &ZPoly;

    /// The qubit ids carrying variable `v` in the *prepared* state, in
    /// variable order (alignment order for [`Backend::prepare`]).
    fn variable_wires(&self) -> Vec<QubitId>;

    /// Prepares `|γβ⟩` over [`Backend::variable_wires`].
    fn prepare(&self, params: &[f64]) -> State;

    /// `⟨γβ|C|γβ⟩` (including the Hamiltonian's constant).
    fn expectation(&self, params: &[f64]) -> f64;

    /// Draws `shots` bitstrings (bit `v` = variable `v`, lsb-first as in
    /// [`ZPoly::value`]) from the Born distribution of `|γβ⟩`,
    /// deterministically in `seed`.
    ///
    /// # Panics
    /// A shot holds at most 64 variables; implementations that can
    /// reach more (the tableau backend) panic instead of aliasing
    /// variable `v ≥ 64` onto another bit.
    fn sample(&self, params: &[f64], shots: usize, seed: u64) -> Vec<u64>;

    /// Whether [`Executor::sample`] should fan shots out as parallel
    /// blocks. `true` when each shot re-executes the backend (the
    /// pattern runtime re-runs the whole measurement sequence per
    /// shot), `false` when one `sample` call amortizes an expensive
    /// preparation across all shots (the gate backend prepares the
    /// statevector once and then drawing is cheap — splitting it into
    /// blocks would repeat the preparation per block).
    fn prefers_block_sampling(&self) -> bool {
        true
    }
}

impl Backend for Box<dyn Backend> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn n(&self) -> usize {
        (**self).n()
    }

    fn p(&self) -> usize {
        (**self).p()
    }

    fn cost(&self) -> &ZPoly {
        (**self).cost()
    }

    fn variable_wires(&self) -> Vec<QubitId> {
        (**self).variable_wires()
    }

    fn prepare(&self, params: &[f64]) -> State {
        (**self).prepare(params)
    }

    fn expectation(&self, params: &[f64]) -> f64 {
        (**self).expectation(params)
    }

    fn sample(&self, params: &[f64], shots: usize, seed: u64) -> Vec<u64> {
        (**self).sample(params, shots, seed)
    }

    fn prefers_block_sampling(&self) -> bool {
        (**self).prefers_block_sampling()
    }
}

// ---------------------------------------------------------------- gate

/// The gate-model backend: wraps a [`QaoaRunner`] (circuit execution on
/// the statevector simulator with a cached cost vector).
#[derive(Debug, Clone)]
pub struct GateBackend {
    runner: QaoaRunner,
}

impl GateBackend {
    /// Wraps an ansatz.
    pub fn new(ansatz: QaoaAnsatz) -> Self {
        GateBackend {
            runner: QaoaRunner::new(ansatz),
        }
    }

    /// Standard QAOA (`|+⟩` start, transverse mixer) for `cost`.
    pub fn standard(cost: ZPoly, p: usize) -> Self {
        GateBackend::new(QaoaAnsatz::standard(cost, p))
    }

    /// The wrapped runner.
    pub fn runner(&self) -> &QaoaRunner {
        &self.runner
    }
}

impl Backend for GateBackend {
    fn name(&self) -> &'static str {
        "gate"
    }

    fn n(&self) -> usize {
        self.runner.ansatz().n()
    }

    fn p(&self) -> usize {
        self.runner.ansatz().p
    }

    fn cost(&self) -> &ZPoly {
        &self.runner.ansatz().cost
    }

    fn variable_wires(&self) -> Vec<QubitId> {
        self.runner.ansatz().qubit_order()
    }

    fn prepare(&self, params: &[f64]) -> State {
        self.runner.state(params)
    }

    fn expectation(&self, params: &[f64]) -> f64 {
        self.runner.expectation(params)
    }

    fn sample(&self, params: &[f64], shots: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        self.runner.sample(params, shots, &mut rng)
    }

    /// One `QaoaRunner::sample` call prepares the statevector once and
    /// draws all shots from it; block fan-out would repeat the
    /// preparation per block.
    fn prefers_block_sampling(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------- pattern

/// Samples `shots` corrected readouts from a sampling-form compiled
/// pattern (the single implementation behind [`PatternBackend::sample`]
/// and `mbqao_bench::sample_pattern`).
///
/// # Panics
/// Panics when `compiled` is not in sampling form.
pub fn sample_compiled(
    compiled: &CompiledQaoa,
    params: &[f64],
    shots: usize,
    seed: u64,
) -> Vec<u64> {
    std::thread_local! {
        /// Per-thread execution context: every shot re-runs the whole
        /// measurement sequence, so the register's amplitude buffers are
        /// the hot allocation — shared across the shots and blocks one
        /// thread runs: across calls on a calling thread, for the one
        /// fan-out on a fan-out thread.
        static RUNNER: std::cell::RefCell<PatternRunner> =
            std::cell::RefCell::new(PatternRunner::new());
    }
    assert!(!compiled.readout.is_empty(), "need a sampling-form pattern");
    let mut rng = StdRng::seed_from_u64(seed);
    RUNNER.with(|runner| {
        let mut runner = runner.borrow_mut();
        (0..shots)
            .map(|_| {
                runner.run(&compiled.pattern, params, Branch::Random, &mut rng);
                let mut x = 0u64;
                for (v, m) in compiled.readout.iter().enumerate() {
                    if runner.outcomes()[m.0 as usize] == 1 {
                        x |= 1 << v;
                    }
                }
                x
            })
            .collect()
    })
}

/// The measurement-pattern backend: executes compiled QAOA patterns on
/// the one-way-model runtime.
///
/// Two compiled forms exist: the *state form* (open output wires, for
/// `prepare`/`expectation`) and the *sampling form* (outputs measured,
/// for `sample`). Each is compiled and just-in-time scheduled
/// ([`mbqao_mbqc::schedule::just_in_time`]) **lazily on first use** —
/// a backend that only estimates `⟨C⟩` never compiles the sampling
/// form and vice versa. The JIT schedule is the qubit-reuse
/// compilation that keeps the simulated register near `|V| + 1` live
/// qubits regardless of depth.
#[derive(Debug, Clone)]
pub struct PatternBackend {
    cost: ZPoly,
    p: usize,
    /// Compile options for lazily building forms; `None` for
    /// [`PatternBackend::from_compiled`] backends (verification wraps a
    /// fixed artifact — nothing further may be compiled).
    options: Option<CompileOptions>,
    state_form: std::sync::OnceLock<std::sync::Arc<CompiledQaoa>>,
    sampling_form: std::sync::OnceLock<std::sync::Arc<CompiledQaoa>>,
    /// Dense `2^n` cost vector, built on first `expectation` call —
    /// verification-only backends never pay for it.
    cost_vector: std::sync::OnceLock<Vec<f64>>,
}

impl PatternBackend {
    /// Standard QAOA (`|+⟩` start, transverse mixer) for `cost` at
    /// depth `p`. Compilation happens lazily per form.
    pub fn new(cost: &ZPoly, p: usize) -> Self {
        Self::with_options(cost, p, &CompileOptions::default())
    }

    /// Backend with explicit mixer/initial-state options (the
    /// `measure_outputs` field is ignored — each form is compiled
    /// on first use with the right setting).
    pub fn with_options(cost: &ZPoly, p: usize, options: &CompileOptions) -> Self {
        PatternBackend {
            cost: cost.clone(),
            p,
            options: Some(options.clone()),
            state_form: std::sync::OnceLock::new(),
            sampling_form: std::sync::OnceLock::new(),
            cost_vector: std::sync::OnceLock::new(),
        }
    }

    /// Wraps an already-compiled *state-form* pattern as-is (no
    /// rescheduling — used by the verifier, which must exercise the
    /// compiler's own command order). Sampling is unavailable.
    ///
    /// # Panics
    /// Panics when `compiled` has no output wires.
    pub fn from_compiled(compiled: CompiledQaoa, cost: ZPoly) -> Self {
        assert!(
            !compiled.output_wires.is_empty(),
            "PatternBackend::from_compiled needs the state-form pattern"
        );
        let backend = PatternBackend {
            cost,
            p: compiled.p,
            options: None,
            state_form: std::sync::OnceLock::new(),
            sampling_form: std::sync::OnceLock::new(),
            cost_vector: std::sync::OnceLock::new(),
        };
        backend
            .state_form
            .set(std::sync::Arc::new(compiled))
            .expect("fresh OnceLock is empty");
        backend
    }

    /// Compiles + JIT-schedules a form on demand, through the
    /// process-wide memoization of [`crate::cache`] — rebuilding a
    /// backend for the same `(cost, p, mixer)` shares the artifact.
    fn build_form(&self, measure_outputs: bool) -> std::sync::Arc<CompiledQaoa> {
        let options = self.options.as_ref().expect(
            "this PatternBackend wraps a fixed compiled pattern and cannot build other forms",
        );
        let opts = CompileOptions {
            measure_outputs,
            ..options.clone()
        };
        cache::compile_qaoa_cached(&self.cost, self.p, &opts)
    }

    /// The state-form compiled pattern (compiled on first use).
    pub fn compiled(&self) -> &CompiledQaoa {
        self.state_form.get_or_init(|| self.build_form(false))
    }

    /// The sampling-form compiled pattern (compiled on first use).
    ///
    /// # Panics
    /// Panics for [`PatternBackend::from_compiled`] backends.
    pub fn compiled_sampling(&self) -> &CompiledQaoa {
        self.sampling_form.get_or_init(|| self.build_form(true))
    }

    /// Executes the state-form pattern on the outcome branch drawn by
    /// `seed`, returning the output state and the branch probability.
    /// Determinism of the compiled patterns means every branch yields
    /// the same state (up to global phase).
    pub fn prepare_seeded(&self, params: &[f64], seed: u64) -> (State, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = run_with_input(
            &self.compiled().pattern,
            State::new(),
            params,
            Branch::Random,
            &mut rng,
        );
        (r.state, r.probability)
    }
}

impl Backend for PatternBackend {
    fn name(&self) -> &'static str {
        "pattern"
    }

    fn n(&self) -> usize {
        self.cost.n()
    }

    fn p(&self) -> usize {
        self.p
    }

    fn cost(&self) -> &ZPoly {
        &self.cost
    }

    fn variable_wires(&self) -> Vec<QubitId> {
        self.compiled().output_wires.clone()
    }

    fn prepare(&self, params: &[f64]) -> State {
        self.prepare_seeded(params, 0).0
    }

    fn expectation(&self, params: &[f64]) -> f64 {
        let (state, _) = self.prepare_seeded(params, 0);
        let cost_vector = self.cost_vector.get_or_init(|| self.cost.cost_vector_msb());
        state.expectation_diag(&self.compiled().output_wires, cost_vector)
    }

    fn sample(&self, params: &[f64], shots: usize, seed: u64) -> Vec<u64> {
        sample_compiled(self.compiled_sampling(), params, shots, seed)
    }
}

// ---------------------------------------------------------------- executor

/// Batched, parallel front end over any [`Backend`].
///
/// Single-point calls delegate to the backend; batched calls
/// ([`Executor::expectation_batch`], [`Executor::sample`],
/// [`Executor::scan_p1`]) fan out over all cores with rayon. The
/// [`Objective`]/[`BatchObjective`] implementations make an `Executor`
/// directly consumable by `grid_search`, `NelderMead` and `Spsa` —
/// their inner loops then evaluate whole candidate sets in parallel
/// instead of re-preparing states one point at a time.
#[derive(Debug, Clone)]
pub struct Executor<B: Backend> {
    backend: B,
}

impl<B: Backend> Executor<B> {
    /// Wraps a backend.
    pub fn new(backend: B) -> Self {
        Executor { backend }
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Unwraps.
    pub fn into_inner(self) -> B {
        self.backend
    }

    /// `⟨C⟩` at one parameter point.
    pub fn expectation(&self, params: &[f64]) -> f64 {
        self.backend.expectation(params)
    }

    /// `⟨C⟩` at every point, evaluated in parallel across cores.
    pub fn expectation_batch(&self, points: &[Vec<f64>]) -> Vec<f64> {
        points
            .par_iter()
            .map(|gb| self.backend.expectation(gb))
            .collect()
    }

    /// Shots per parallel work unit in [`Executor::sample`]. Fixed (not
    /// derived from the core count) so the drawn bitstrings are a pure
    /// function of `seed` on every machine.
    const SAMPLE_BLOCK: usize = 64;

    /// Draws `shots` samples, splitting the work into fixed-size blocks
    /// with decorrelated seeds. Deterministic in `seed` — the block
    /// boundaries and per-block seeds do not depend on the thread
    /// count, only the scheduling of blocks onto cores does.
    pub fn sample(&self, params: &[f64], shots: usize, seed: u64) -> Vec<u64> {
        if !self.backend.prefers_block_sampling() {
            return self.backend.sample(params, shots, seed);
        }
        let starts: Vec<usize> = (0..shots).step_by(Self::SAMPLE_BLOCK).collect();
        let blocks: Vec<Vec<u64>> = starts
            .into_par_iter()
            .map(|start| {
                let count = Self::SAMPLE_BLOCK.min(shots - start);
                self.backend.sample(
                    params,
                    count,
                    seed ^ (start as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                )
            })
            .collect();
        blocks.into_iter().flatten().collect()
    }

    /// Mean cost of [`Executor::sample`]'s draw (a shot-based `⟨C⟩`
    /// estimate, as hardware would produce).
    pub fn sampled_expectation(&self, params: &[f64], shots: usize, seed: u64) -> f64 {
        let cost = self.backend.cost();
        let samples = self.sample(params, shots, seed);
        samples.iter().map(|&x| cost.value(x)).sum::<f64>() / shots.max(1) as f64
    }

    /// Dense p=1 `(γ, β)` landscape, every grid point evaluated in
    /// parallel (shares its grid construction with
    /// [`mbqao_qaoa::landscape::scan_p1`]).
    ///
    /// # Panics
    /// Panics unless the backend has `p == 1`.
    pub fn scan_p1(
        &self,
        gamma_range: (f64, f64),
        beta_range: (f64, f64),
        steps: usize,
    ) -> Landscape {
        assert_eq!(self.backend.p(), 1, "landscape scan requires p = 1");
        scan_p1_with(
            |points| self.expectation_batch(points),
            gamma_range,
            beta_range,
            steps,
        )
    }

    /// Grid search over `[lo, hi]^2p` routed through the batched engine.
    pub fn grid_search(&self, lo: &[f64], hi: &[f64], steps: usize) -> OptResult {
        mbqao_qaoa::optimize::grid_search(self, lo, hi, steps)
    }

    /// Nelder–Mead from `x0` routed through the batched engine.
    pub fn nelder_mead(&self, config: &mbqao_qaoa::optimize::NelderMead, x0: &[f64]) -> OptResult {
        config.run(self, x0)
    }

    /// SPSA from `x0` routed through the batched engine.
    pub fn spsa(&self, config: &mbqao_qaoa::optimize::Spsa, x0: &[f64]) -> OptResult {
        config.run(self, x0)
    }
}

impl<B: Backend> Objective for Executor<B> {
    fn eval(&self, params: &[f64]) -> f64 {
        self.backend.expectation(params)
    }

    fn dim(&self) -> usize {
        self.backend.n_params()
    }
}

impl<B: Backend> BatchObjective for Executor<B> {
    fn eval_batch(&self, points: &[Vec<f64>]) -> Vec<f64> {
        self.expectation_batch(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbqao_problems::{generators, maxcut};
    use mbqao_qaoa::optimize::NelderMead;

    fn square_cost() -> ZPoly {
        maxcut::maxcut_zpoly(&generators::square())
    }

    #[test]
    fn backends_agree_on_expectation() {
        let cost = square_cost();
        let gate = GateBackend::standard(cost.clone(), 1);
        let pattern = PatternBackend::new(&cost, 1);
        for params in [[0.0, 0.0], [0.7, 0.4], [1.3, -0.8]] {
            let eg = gate.expectation(&params);
            let ep = pattern.expectation(&params);
            assert!(
                (eg - ep).abs() < 1e-9,
                "gate {eg} vs pattern {ep} at {params:?}"
            );
        }
    }

    #[test]
    fn batch_matches_pointwise() {
        let exec = Executor::new(GateBackend::standard(square_cost(), 1));
        let points: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![0.1 * i as f64, 0.07 * i as f64])
            .collect();
        let batch = exec.expectation_batch(&points);
        for (point, &b) in points.iter().zip(&batch) {
            assert_eq!(b, exec.expectation(point), "batch must be bit-identical");
        }
    }

    #[test]
    fn pattern_prepare_is_branch_independent() {
        let cost = square_cost();
        let pattern = PatternBackend::new(&cost, 1);
        let wires = pattern.variable_wires();
        let (s0, _) = pattern.prepare_seeded(&[0.6, 0.3], 1);
        let (s1, _) = pattern.prepare_seeded(&[0.6, 0.3], 0xDEAD_BEEF);
        assert!((s0.fidelity(&s1, &wires) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn executor_drives_optimizers() {
        let exec = Executor::new(GateBackend::standard(square_cost(), 1));
        let r = exec.nelder_mead(&NelderMead::default(), &[0.4, 0.3]);
        // p=1 optimum on the square is ⟨C⟩ ≈ −3; anything below −2.9
        // means the optimizer ran against the engine objective.
        assert!(r.value < -2.9, "NM through the executor got {}", r.value);
        let pi = std::f64::consts::PI;
        let g = exec.grid_search(&[0.0, 0.0], &[pi, pi], 9);
        assert!(g.value < -2.5, "grid through the executor got {}", g.value);
    }

    #[test]
    fn executor_sampling_is_deterministic_and_unbiased() {
        let exec = Executor::new(GateBackend::standard(square_cost(), 1));
        let params = [0.7, 0.35];
        let a = exec.sample(&params, 501, 9);
        let b = exec.sample(&params, 501, 9);
        assert_eq!(a, b, "same seed must give the same draw");
        let est = exec.sampled_expectation(&params, 4000, 11);
        let exact = exec.expectation(&params);
        assert!((est - exact).abs() < 0.15, "sampled {est} vs exact {exact}");
    }

    #[test]
    fn scan_p1_through_engine_matches_runner_scan() {
        let cost = square_cost();
        let exec = Executor::new(GateBackend::standard(cost.clone(), 1));
        let scan = exec.scan_p1((0.0, 3.0), (0.0, 3.0), 8);
        let runner_scan = mbqao_qaoa::landscape::scan_p1(
            &QaoaRunner::new(QaoaAnsatz::standard(cost, 1)),
            (0.0, 3.0),
            (0.0, 3.0),
            8,
        );
        for (row_a, row_b) in scan.values.iter().zip(&runner_scan.values) {
            for (a, b) in row_a.iter().zip(row_b) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }
}
