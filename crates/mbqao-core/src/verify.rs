//! End-to-end equivalence verification: compiled MBQC pattern vs.
//! gate-model QAOA — the referee for the paper's headline claim — plus
//! the three-way mode that adds the ZX-simplified backend to the jury.

use crate::cache;
use crate::compiler::{CompileOptions, CompiledQaoa};
use crate::engine::{with_runner, Backend, ZxBackend};
use mbqao_mbqc::simulate::Branch;
use mbqao_problems::ZPoly;
use mbqao_qaoa::QaoaAnsatz;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of an equivalence check.
#[derive(Debug, Clone)]
pub struct EquivalenceReport {
    /// Fidelity `|⟨ψ_gate|ψ_mbqc⟩|` per random branch tested.
    pub fidelities: Vec<f64>,
    /// Minimum over the tested branches.
    pub min_fidelity: f64,
    /// `true` when every branch matched within tolerance.
    pub equivalent: bool,
}

/// Verifies a compiled pattern against the gate-model ansatz: runs the
/// pattern on `trials` seeded random outcome branches and scores each
/// branch's `|⟨ψ_branch|ψ_gate⟩|`. Determinism means *any* branch must
/// match; testing several random branches exercises distinct correction
/// paths. The compiled pattern is executed with its *own* command order
/// (no rescheduling), so this checks exactly the compiler's artifact;
/// neither artifact is cloned.
///
/// # Panics
/// Panics when `compiled` is in sampling form (no output wires) or the
/// interfaces disagree on the number of variables.
pub fn verify_equivalence(
    compiled: &CompiledQaoa,
    ansatz: &QaoaAnsatz,
    params: &[f64],
    trials: usize,
    tol: f64,
) -> EquivalenceReport {
    assert!(
        !compiled.output_wires.is_empty(),
        "equivalence verification needs the state-form pattern"
    );
    assert_eq!(
        ansatz.n(),
        compiled.output_wires.len(),
        "backends disagree on n"
    );
    let ref_dense = ansatz.prepare(params).aligned(&ansatz.qubit_order());
    let fidelities: Vec<f64> = with_runner(|runner| {
        (0..trials)
            .map(|trial| {
                let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ trial as u64);
                runner.run(&compiled.pattern, params, Branch::Random, &mut rng);
                // Align the pattern's output wires to the variable order.
                dot_abs(&runner.state().aligned(&compiled.output_wires), &ref_dense)
            })
            .collect()
    });
    let min_fidelity = fidelities.iter().copied().fold(f64::INFINITY, f64::min);
    EquivalenceReport {
        equivalent: min_fidelity > 1.0 - tol,
        min_fidelity,
        fidelities,
    }
}

/// `|⟨a|b⟩|` of two dense vectors in the same basis order.
fn dot_abs(a: &[mbqao_math::C64], b: &[mbqao_math::C64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| x.conj() * y)
        .fold(mbqao_math::C64::ZERO, |acc, z| acc + z)
        .abs()
}

/// Result of a three-way equivalence check: gate vs. pattern vs.
/// ZX-simplified pattern.
#[derive(Debug, Clone)]
pub struct ThreeWayReport {
    /// Gate vs. directly compiled pattern, per random outcome branch.
    pub gate_vs_pattern: EquivalenceReport,
    /// Gate vs. ZX-simplified backend (whose preparation is branch-free
    /// postselection, hence a single fidelity).
    pub gate_vs_zx: f64,
    /// Directly compiled pattern vs. ZX-simplified backend.
    pub pattern_vs_zx: f64,
    /// What ZX rewriting did to the pattern on the way.
    pub simplify: crate::zx_backend::SimplifyReport,
    /// `true` when every comparison is within tolerance.
    pub equivalent: bool,
}

/// Three-way verification of the paper's equivalence claim: the
/// gate-model ansatz, the compiled measurement pattern, and the
/// ZX-simplified re-extraction must all prepare the same `|γβ⟩`.
/// `options.mixer` / `options.initial_basis_state` select the ansatz
/// family; the pattern is compiled through the process-wide cache.
///
/// # Panics
/// Panics when `ansatz` disagrees with `cost` on the variable count.
pub fn verify_equivalence_three_way(
    cost: &ZPoly,
    ansatz: &QaoaAnsatz,
    options: &CompileOptions,
    p: usize,
    params: &[f64],
    trials: usize,
    tol: f64,
) -> ThreeWayReport {
    let state_opts = CompileOptions {
        measure_outputs: false,
        ..options.clone()
    };
    let compiled = cache::compile_qaoa_cached(cost, p, &state_opts);
    let zx = ZxBackend::with_options(cost, p, &state_opts);

    // All three states are prepared without cloning the compiled
    // pattern or the ansatz into owning backends.
    let gate_vs_pattern = verify_equivalence(&compiled, ansatz, params, trials, tol);
    let gate_dense = ansatz.prepare(params).aligned(&ansatz.qubit_order());
    let zx_dense = zx.prepare(params).aligned(&zx.variable_wires());
    let pattern_dense = with_runner(|runner| {
        let mut rng = StdRng::seed_from_u64(0);
        runner.run(&compiled.pattern, params, Branch::Random, &mut rng);
        runner.state().aligned(&compiled.output_wires)
    });
    let gate_vs_zx = dot_abs(&gate_dense, &zx_dense);
    let pattern_vs_zx = dot_abs(&pattern_dense, &zx_dense);
    let equivalent =
        gate_vs_pattern.equivalent && gate_vs_zx > 1.0 - tol && pattern_vs_zx > 1.0 - tol;
    ThreeWayReport {
        gate_vs_pattern,
        gate_vs_zx,
        pattern_vs_zx,
        simplify: *zx.report(),
        equivalent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile_qaoa, CompileOptions, MixerKind};
    use mbqao_problems::{generators, maxcut, mis, Qubo};
    use mbqao_qaoa::{InitialState, Mixer};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn maxcut_triangle_p1_equivalence() {
        let g = generators::triangle();
        let cost = maxcut::maxcut_zpoly(&g);
        let compiled = compile_qaoa(&cost, 1, &CompileOptions::default());
        let ansatz = QaoaAnsatz::standard(cost, 1);
        let report = verify_equivalence(&compiled, &ansatz, &[0.7, 0.4], 6, 1e-8);
        assert!(report.equivalent, "{report:?}");
    }

    #[test]
    fn maxcut_square_p3_equivalence_random_params() {
        let g = generators::square();
        let cost = maxcut::maxcut_zpoly(&g);
        let p = 3;
        let compiled = compile_qaoa(&cost, p, &CompileOptions::default());
        let ansatz = QaoaAnsatz::standard(cost, p);
        let mut rng = StdRng::seed_from_u64(1234);
        let params: Vec<f64> = (0..2 * p).map(|_| rng.gen_range(-1.5..1.5)).collect();
        let report = verify_equivalence(&compiled, &ansatz, &params, 4, 1e-8);
        assert!(report.equivalent, "{report:?}");
    }

    #[test]
    fn general_qubo_with_linear_terms_equivalence() {
        let mut rng = StdRng::seed_from_u64(777);
        let qubo = Qubo::random(4, 0.7, &mut rng);
        let cost = qubo.to_zpoly();
        assert!(
            cost.linear_term_count() > 0,
            "want linear terms in this test"
        );
        let p = 2;
        let compiled = compile_qaoa(&cost, p, &CompileOptions::default());
        let ansatz = QaoaAnsatz::standard(cost, p);
        let params: Vec<f64> = (0..2 * p).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let report = verify_equivalence(&compiled, &ansatz, &params, 4, 1e-8);
        assert!(report.equivalent, "{report:?}");
    }

    #[test]
    fn three_way_equivalence_on_maxcut() {
        let g = generators::square();
        let cost = maxcut::maxcut_zpoly(&g);
        let p = 2;
        let ansatz = QaoaAnsatz::standard(cost.clone(), p);
        let mut rng = StdRng::seed_from_u64(99);
        let params: Vec<f64> = (0..2 * p).map(|_| rng.gen_range(-1.5..1.5)).collect();
        let report = verify_equivalence_three_way(
            &cost,
            &ansatz,
            &CompileOptions::default(),
            p,
            &params,
            3,
            1e-8,
        );
        assert!(report.equivalent, "{report:?}");
        assert!(report.simplify.simplify.fusions > 0);
    }

    #[test]
    fn three_way_equivalence_on_mis_ansatz() {
        let g = generators::path(3);
        let cost = mis::mis_objective(&g);
        let initial = mis::greedy_mis(&g);
        let opts = CompileOptions {
            mixer: MixerKind::Mis(g.clone()),
            initial_basis_state: Some(initial),
            measure_outputs: false,
        };
        let ansatz = QaoaAnsatz::mis(&g, 1, initial);
        let report = verify_equivalence_three_way(&cost, &ansatz, &opts, 1, &[0.8, 0.5], 3, 1e-8);
        assert!(report.equivalent, "{report:?}");
    }

    #[test]
    fn mis_constrained_ansatz_equivalence() {
        let g = generators::path(3);
        let cost = mis::mis_objective(&g);
        let initial = mis::greedy_mis(&g);
        let opts = CompileOptions {
            mixer: MixerKind::Mis(g.clone()),
            initial_basis_state: Some(initial),
            measure_outputs: false,
        };
        let compiled = compile_qaoa(&cost, 1, &opts);
        let mut ansatz = QaoaAnsatz::mis(&g, 1, initial);
        ansatz.mixer = Mixer::Mis(g.clone());
        ansatz.initial = InitialState::Computational(initial);
        let report = verify_equivalence(&compiled, &ansatz, &[0.8, 0.5], 3, 1e-8);
        assert!(report.equivalent, "{report:?}");
    }

    #[test]
    fn xy_ring_ansatz_equivalence() {
        let g = generators::cycle(3);
        let cost = maxcut::maxcut_zpoly(&g);
        let opts = CompileOptions {
            mixer: MixerKind::XyRing,
            initial_basis_state: Some(0b001),
            measure_outputs: false,
        };
        let compiled = compile_qaoa(&cost, 1, &opts);
        let mut ansatz = QaoaAnsatz::standard(cost, 1);
        ansatz.mixer = Mixer::XyRing;
        ansatz.initial = InitialState::Computational(0b001);
        let report = verify_equivalence(&compiled, &ansatz, &[0.6, 0.9], 3, 1e-8);
        assert!(report.equivalent, "{report:?}");
    }
}
