//! The stabilizer-tableau execution backend.
//!
//! [`PauliBackend`] is the fourth [`crate::engine::Backend`]: it wraps
//! a [`crate::engine::PatternBackend`] (same process-wide compile
//! cache, same state/sampling forms), but executes the compiled
//! pattern on the Aaronson–Gottesman tableau of `mbqao-tableau`
//! whenever the pattern's non-Clifford measurement count fits the
//! branch budget.
//! The tableau path costs `O(M·N²)` bit operations plus a `3^k`
//! pending-projector expansion (`k` = non-Clifford measurements) —
//! independent of `2^n`, so Clifford-angle instances scale to hundreds
//! of qubits where every statevector backend is memory-bound.
//!
//! Eligibility is decided *before* running anything:
//! [`mbqao_mbqc::classify_pattern`] counts the measurements whose
//! evaluated angle misses every Pauli axis; above
//! [`MAX_MAGIC_EXPECTATION`] (or [`MAX_MAGIC_SAMPLING`] for shots) the
//! backend hands the call to the wrapped `PatternBackend` — generic-
//! angle QAOA keeps working bit for bit, the fast path kicks in exactly
//! when the angles allow it.
//! Signal adaptation `(−1)^s θ + tπ` maps Pauli axes to Pauli axes, so
//! the classification is branch-independent and the pre-check is
//! sound.

use crate::compiler::{CompileOptions, CompiledQaoa};
use crate::engine::{Backend, PatternBackend};
use mbqao_mbqc::classify_pattern;
use mbqao_problems::ZPoly;
use mbqao_sim::{QubitId, State};
use mbqao_tableau::{PatternRun, MAX_MAGIC_EXPECTATION, MAX_MAGIC_SAMPLING};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The stabilizer-tableau backend (see module docs).
#[derive(Debug, Clone)]
pub struct PauliBackend {
    /// Compiles the forms and runs every statevector fallback.
    pattern: PatternBackend,
}

impl PauliBackend {
    /// Standard QAOA (`|+⟩` start, transverse mixer) for `cost` at
    /// depth `p`. Compilation happens lazily per form, shared with the
    /// other pattern backends through [`crate::cache`].
    pub fn new(cost: &ZPoly, p: usize) -> Self {
        Self::with_options(cost, p, &CompileOptions::default())
    }

    /// Backend with explicit mixer/initial-state options (the
    /// `measure_outputs` field is ignored — each form is compiled on
    /// first use with the right setting).
    pub fn with_options(cost: &ZPoly, p: usize, options: &CompileOptions) -> Self {
        PauliBackend {
            pattern: PatternBackend::with_options(cost, p, options),
        }
    }

    /// The state-form compiled pattern (compiled on first use).
    pub fn compiled(&self) -> &CompiledQaoa {
        self.pattern.compiled()
    }

    /// The sampling-form compiled pattern (compiled on first use).
    pub fn compiled_sampling(&self) -> &CompiledQaoa {
        self.pattern.compiled_sampling()
    }

    /// Non-Clifford measurement count of the state-form pattern at
    /// `params` (branch-independent — signal adaptation maps Pauli
    /// axes to Pauli axes).
    pub fn magic_count(&self, params: &[f64]) -> usize {
        classify_pattern(&self.compiled().pattern, params).magic
    }

    /// `true` when [`Backend::expectation`] at `params` takes the
    /// tableau path instead of the statevector fallback.
    pub fn tableau_eligible(&self, params: &[f64]) -> bool {
        self.magic_count(params) <= MAX_MAGIC_EXPECTATION
    }
}

impl Backend for PauliBackend {
    fn name(&self) -> &'static str {
        "pauli"
    }

    fn n(&self) -> usize {
        self.pattern.n()
    }

    fn p(&self) -> usize {
        self.pattern.p()
    }

    fn cost(&self) -> &ZPoly {
        self.pattern.cost()
    }

    fn variable_wires(&self) -> Vec<QubitId> {
        self.pattern.variable_wires()
    }

    /// Dense `|γβ⟩` via the statevector pattern runtime — the
    /// alignment seam the verifier and fidelity tests use. The tableau
    /// never materializes amplitudes, so preparation is always dense
    /// (and therefore bounded by memory like any statevector path);
    /// `expectation` and `sample` are where the fast path lives.
    fn prepare(&self, params: &[f64]) -> State {
        self.pattern.prepare(params)
    }

    fn expectation(&self, params: &[f64]) -> f64 {
        if self.tableau_eligible(params) {
            let compiled = self.compiled();
            let cost = self.cost();
            let run = PatternRun::reference(&compiled.pattern, params);
            if let Some(value) =
                run.diag_expectation(cost.constant(), cost.terms(), &compiled.output_wires)
            {
                return value;
            }
        }
        self.pattern.expectation(params)
    }

    /// Per-shot protocol sampling. On the tableau path every outcome —
    /// Clifford-random and non-Clifford alike — is drawn from its
    /// exact conditional Born probability, so the drawn bitstrings
    /// follow the same distribution as the statevector protocol run
    /// (pinned by the chi-squared differential test).
    fn sample(&self, params: &[f64], shots: usize, seed: u64) -> Vec<u64> {
        let compiled = self.compiled_sampling();
        if classify_pattern(&compiled.pattern, params).magic <= MAX_MAGIC_SAMPLING {
            let mut rng = StdRng::seed_from_u64(seed);
            return (0..shots)
                .map(|_| {
                    let run = PatternRun::sample(&compiled.pattern, params, &mut rng);
                    let mut x = 0u64;
                    for (v, m) in compiled.readout.iter().enumerate() {
                        if run.outcomes()[m.0 as usize] == 1 {
                            x |= 1 << v;
                        }
                    }
                    x
                })
                .collect();
        }
        self.pattern.sample(params, shots, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{GateBackend, PatternBackend};
    use mbqao_problems::{generators, maxcut};
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

    #[test]
    fn pauli_backend_matches_gate_and_pattern_on_the_square() {
        let cost = maxcut::maxcut_zpoly(&generators::square());
        let gate = GateBackend::standard(cost.clone(), 1);
        let pattern = PatternBackend::new(&cost, 1);
        let pauli = PauliBackend::new(&cost, 1);
        for params in [[0.0, 0.0], [FRAC_PI_4, FRAC_PI_4], [0.7, 0.4]] {
            let eg = gate.expectation(&params);
            let ep = pattern.expectation(&params);
            let eq = pauli.expectation(&params);
            assert!((eg - eq).abs() < 1e-9, "gate {eg} vs pauli {eq} {params:?}");
            assert!((ep - eq).abs() < 1e-9, "pattern {ep} vs pauli {eq}");
        }
    }

    #[test]
    fn clifford_angles_take_the_tableau_path() {
        // MaxCut edge weight ½, γ = π/2 → every cost gadget angle
        // −2wγ = −π/2 is a quadrant; β = π/4 → mixer angle −2β = −π/2
        // likewise.
        let cost = maxcut::maxcut_zpoly(&generators::cycle(6));
        let pauli = PauliBackend::new(&cost, 1);
        assert_eq!(pauli.magic_count(&[FRAC_PI_2, FRAC_PI_4]), 0);
        assert!(pauli.tableau_eligible(&[FRAC_PI_2, FRAC_PI_4]));
        // Generic angles exceed any budget on a big enough instance.
        assert!(pauli.magic_count(&[0.7, 0.4]) > 0);
    }

    #[test]
    fn tableau_path_handles_magic_within_budget() {
        // Triangle at p=1, generic γ, Clifford β: 3 magic cost gadgets
        // — well inside MAX_MAGIC_EXPECTATION, so the tableau path runs
        // with pending projectors and must still match the gate model.
        let cost = maxcut::maxcut_zpoly(&generators::triangle());
        let pauli = PauliBackend::new(&cost, 1);
        let gate = GateBackend::standard(cost, 1);
        let params = [0.7, FRAC_PI_4];
        let magic = pauli.magic_count(&params);
        assert!(magic > 0 && magic <= MAX_MAGIC_EXPECTATION);
        let eg = gate.expectation(&params);
        let eq = pauli.expectation(&params);
        assert!((eg - eq).abs() < 1e-9, "gate {eg} vs pauli {eq}");
    }

    #[test]
    fn pauli_backend_is_deterministic() {
        let cost = maxcut::maxcut_zpoly(&generators::cycle(5));
        let pauli = PauliBackend::new(&cost, 1);
        let params = [FRAC_PI_4, FRAC_PI_4];
        assert_eq!(pauli.expectation(&params), pauli.expectation(&params));
        assert_eq!(pauli.sample(&params, 64, 7), pauli.sample(&params, 64, 7));
    }

    #[test]
    fn tableau_sampling_matches_born_frequencies() {
        let cost = maxcut::maxcut_zpoly(&generators::triangle());
        let pauli = PauliBackend::new(&cost, 1);
        let params = [FRAC_PI_2, FRAC_PI_4];
        assert_eq!(
            classify_pattern(&pauli.compiled_sampling().pattern, &params).magic,
            0
        );
        // Exact Born distribution in the lsb-first variable convention.
        let gate = GateBackend::standard(pauli.cost().clone(), 1);
        let st = gate.prepare(&params);
        let order = gate.variable_wires();
        let aligned = st.aligned(&order);
        let n = order.len();
        let mut probs = vec![0.0f64; 1 << n];
        for (msb_idx, amp) in aligned.iter().enumerate() {
            let mut x = 0usize;
            for v in 0..n {
                if (msb_idx >> (n - 1 - v)) & 1 == 1 {
                    x |= 1 << v;
                }
            }
            probs[x] += amp.norm_sqr();
        }
        let shots = 4096usize;
        let samples = pauli.sample(&params, shots, 11);
        let mut counts = vec![0usize; probs.len()];
        for s in samples {
            counts[s as usize] += 1;
        }
        // Loose 5σ multinomial check per outcome.
        for (x, (&c, &q)) in counts.iter().zip(&probs).enumerate() {
            let mean = shots as f64 * q;
            let sd = (shots as f64 * q * (1.0 - q)).sqrt();
            assert!(
                (c as f64 - mean).abs() <= 5.0 * sd + 1.0,
                "outcome {x}: {c} vs expected {mean:.1} ± {sd:.1}"
            );
        }
    }
}
