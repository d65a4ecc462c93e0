//! E8/E14 (sampling form) — the MBQC protocol as it would actually run:
//! random outcomes, classically-corrected readout, and agreement of the
//! sampled cost distribution with the gate-model Born distribution —
//! here for every backend, through the one Hellinger oracle of
//! `tests/common`.

mod common;

use common::{assert_born, born_distribution, born_fidelity};
use mbqao::mbqc::simulate::{run, Branch};
use mbqao::prelude::*;
use mbqao::problems::{generators, maxcut};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Samples `shots` corrected readouts from the sampling-form pattern.
fn mbqc_samples(compiled: &CompiledQaoa, params: &[f64], shots: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..shots)
        .map(|_| {
            let r = run(&compiled.pattern, params, Branch::Random, &mut rng);
            let mut x = 0u64;
            for (v, &m) in compiled.readout.iter().enumerate() {
                if r.outcomes[m.0 as usize] == 1 {
                    x |= 1 << v;
                }
            }
            x
        })
        .collect()
}

#[test]
fn sampled_cost_mean_matches_gate_model_expectation() {
    let g = generators::square();
    let cost = maxcut::maxcut_zpoly(&g);
    let params = [0.55, 0.31];
    let opts = CompileOptions {
        measure_outputs: true,
        ..Default::default()
    };
    let compiled = compile_qaoa(&cost, 1, &opts);

    let runner = QaoaRunner::new(QaoaAnsatz::standard(cost.clone(), 1));
    let exact = runner.expectation(&params);

    let shots = 3000;
    let samples = mbqc_samples(&compiled, &params, shots, 42);
    let empirical: f64 = samples.iter().map(|&x| cost.value(x)).sum::<f64>() / shots as f64;
    assert!(
        (empirical - exact).abs() < 0.12,
        "MBQC sampling mean {empirical} vs gate ⟨C⟩ {exact}"
    );
}

/// The sampling-form pattern's readout follows the Born law. Passing
/// the Hellinger oracle at these 6000 shots over 8 outcomes bounds the
/// total variation too: TV ≤ √(1 − F) < 0.032.
#[test]
fn bitstring_distributions_agree_in_total_variation() {
    let cost = maxcut::maxcut_zpoly(&generators::triangle());
    let params = [0.8, 0.4];
    let opts = CompileOptions {
        measure_outputs: true,
        ..Default::default()
    };
    let compiled = compile_qaoa(&cost, 1, &opts);
    let born = born_distribution(&GateBackend::standard(cost, 1), &params);
    let samples = mbqc_samples(&compiled, &params, 6000, 7);
    assert_born("sampling-form pattern", &samples, &born);
}

/// The oracle over the backend × family matrix: every backend's samples
/// on the triangle and the square follow the exact Born law, at the
/// point and seed of the per-backend checks.
#[test]
fn every_backend_samples_the_born_law_on_the_triangle_and_the_square() {
    let params = [0.8, 0.4];
    for (family, graph) in [
        ("triangle", generators::triangle()),
        ("square", generators::square()),
    ] {
        let cost = maxcut::maxcut_zpoly(&graph);
        let born = born_distribution(&GateBackend::standard(cost.clone(), 1), &params);
        let backends: [(&str, Box<dyn Backend>); 4] = [
            ("gate", Box::new(GateBackend::standard(cost.clone(), 1))),
            ("pattern", Box::new(PatternBackend::new(&cost, 1))),
            ("zx", Box::new(ZxBackend::new(&cost, 1))),
            ("pauli", Box::new(PauliBackend::new(&cost, 1))),
        ];
        for (name, backend) in backends {
            let samples = backend.sample(&params, 6000, 9);
            assert_born(&format!("{name} on the {family}"), &samples, &born);
        }
    }
}

/// Negative control: samples of the Born law at other angles fail the
/// oracle.
#[test]
fn the_born_law_at_other_angles_fails_the_oracle() {
    let cost = maxcut::maxcut_zpoly(&generators::square());
    let gate = GateBackend::standard(cost, 1);
    let samples = gate.sample(&[0.8, 0.4], 6000, 9);
    for other in [[0.8, 0.5], [0.3, 1.1]] {
        let (fidelity, bound) = born_fidelity(&samples, &born_distribution(&gate, &other));
        assert!(
            fidelity < bound,
            "samples at (0.8, 0.4) pass for {other:?}: fidelity {fidelity} ≥ {bound}"
        );
    }
}

#[test]
fn best_sampled_solution_reaches_the_optimum() {
    let g = generators::square();
    let cost = maxcut::maxcut_zpoly(&g);
    // Decent p=1 parameters found by a coarse scan offline.
    let params = [0.45, 0.35];
    let opts = CompileOptions {
        measure_outputs: true,
        ..Default::default()
    };
    let compiled = compile_qaoa(&cost, 1, &opts);
    let samples = mbqc_samples(&compiled, &params, 400, 3);
    let best = samples
        .iter()
        .map(|&x| g.cut_value(x))
        .max()
        .expect("shots");
    assert_eq!(best, 4, "400 shots should find the max cut of the square");
}
