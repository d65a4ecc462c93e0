//! The unified execution engine, end to end: `GateBackend` and
//! `PatternBackend` are interchangeable — they agree on `⟨C⟩` to 1e-8 on
//! the paper's square graph (Eq. 5 / Appendix A) for p = 1 and p = 2 at
//! random parameters — the batched `Executor` entry points match their
//! point-wise counterparts exactly, and a backend's `⟨C⟩` on the
//! thread's reused pattern runner equals a fresh-register replay bit for
//! bit.

use mbqao::prelude::*;
use mbqao::problems::{generators, maxcut};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn square_cost() -> ZPoly {
    maxcut::maxcut_zpoly(&generators::square())
}

#[test]
fn gate_and_pattern_backends_agree_on_the_square_graph() {
    let cost = square_cost();
    let mut rng = StdRng::seed_from_u64(2403);
    for p in [1usize, 2] {
        let gate = GateBackend::standard(cost.clone(), p);
        let pattern = PatternBackend::new(&cost, p);
        for trial in 0..4 {
            let params: Vec<f64> = (0..2 * p).map(|_| rng.gen_range(-1.5..1.5)).collect();
            let eg = gate.expectation(&params);
            let ep = pattern.expectation(&params);
            assert!(
                (eg - ep).abs() < 1e-8,
                "p={p} trial={trial}: gate {eg} vs pattern {ep} at {params:?}"
            );
        }
    }
}

#[test]
fn expectation_batch_matches_pointwise_expectation() {
    let cost = square_cost();
    let mut rng = StdRng::seed_from_u64(7);
    for p in [1usize, 2] {
        let exec = Executor::new(GateBackend::standard(cost.clone(), p));
        let points: Vec<Vec<f64>> = (0..37)
            .map(|_| (0..2 * p).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect();
        let batch = exec.expectation_batch(&points);
        assert_eq!(batch.len(), points.len());
        for (point, &b) in points.iter().zip(&batch) {
            assert_eq!(
                b,
                exec.expectation(point),
                "batch must equal point-wise eval"
            );
        }
    }
}

#[test]
fn pattern_executor_batch_agrees_with_gate_backend() {
    // The batched path on the *pattern* backend against point-wise gate
    // evaluation: the strongest cross-backend statement about the
    // engine's hot path.
    let cost = square_cost();
    let mut rng = StdRng::seed_from_u64(99);
    let gate = GateBackend::standard(cost.clone(), 1);
    let exec = Executor::new(PatternBackend::new(&cost, 1));
    let points: Vec<Vec<f64>> = (0..8)
        .map(|_| vec![rng.gen_range(-1.5..1.5), rng.gen_range(-1.5..1.5)])
        .collect();
    let batch = exec.expectation_batch(&points);
    for (point, &b) in points.iter().zip(&batch) {
        let eg = gate.expectation(point);
        assert!(
            (b - eg).abs() < 1e-8,
            "pattern batch {b} vs gate {eg} at {point:?}"
        );
    }
}

#[test]
fn optimizers_route_through_the_executor() {
    // All three optimizers consume the Executor directly as a (batch)
    // objective; on the square at p = 1 each must reach the known
    // optimum region ⟨C⟩ ≈ −3.
    let exec = Executor::new(GateBackend::standard(square_cost(), 1));
    let nm = exec.nelder_mead(&NelderMead::default(), &[0.4, 0.3]);
    assert!(nm.value < -2.9, "NelderMead got {}", nm.value);
    let gs = exec.grid_search(&[0.0, 0.0], &[3.2, 3.2], 17);
    assert!(gs.value < -2.8, "grid got {}", gs.value);
    let spsa = exec.spsa(
        &Spsa {
            iterations: 400,
            seed: 3,
            ..Default::default()
        },
        &[0.4, 0.3],
    );
    assert!(spsa.value < -2.5, "SPSA got {}", spsa.value);
}

#[test]
fn engine_landscape_scan_matches_runner_scan() {
    let cost = square_cost();
    let exec = Executor::new(GateBackend::standard(cost.clone(), 1));
    let engine_scan = exec.scan_p1((0.0, 3.0), (0.0, 3.0), 9);
    let runner_scan = mbqao::qaoa::landscape::scan_p1(
        &QaoaRunner::new(QaoaAnsatz::standard(cost, 1)),
        (0.0, 3.0),
        (0.0, 3.0),
        9,
    );
    assert_eq!(engine_scan.values, runner_scan.values);
}

#[test]
fn backend_samples_follow_the_born_distribution_on_both_backends() {
    let cost = square_cost();
    let params = [0.55, 0.31];
    let exact = GateBackend::standard(cost.clone(), 1).expectation(&params);
    for exec in [
        Executor::new(Box::new(GateBackend::standard(cost.clone(), 1)) as Box<dyn Backend>),
        Executor::new(Box::new(PatternBackend::new(&cost, 1)) as Box<dyn Backend>),
    ] {
        let est = exec.sampled_expectation(&params, 3000, 17);
        assert!(
            (est - exact).abs() < 0.2,
            "{}: sampled {est} vs exact {exact}",
            exec.backend().name()
        );
    }
}

/// `⟨C⟩` of a fresh-register replay: `run_with_input` on `State::new()`
/// with seed 0, then the cost readout — the identity perfbench's traced
/// replays check against the backends.
fn replay_expectation(pattern: &Pattern, wires: &[QubitId], params: &[f64], cost: &ZPoly) -> f64 {
    let mut rng = StdRng::seed_from_u64(0);
    let run = run_with_input(pattern, State::new(), params, Branch::Random, &mut rng);
    run.state.expectation_diag(wires, &cost.cost_vector_msb())
}

#[test]
fn backends_on_the_threads_runner_match_a_fresh_register_bit_for_bit() {
    // Every pattern walk on a thread reuses that thread's one runner.
    // Interleaving widths (C8, then Petersen at p = 2, then C8 again on
    // buffers the wider pattern grew) must not move a single bit.
    let c8 = maxcut::maxcut_zpoly(&generators::cycle(8));
    let petersen = maxcut::maxcut_zpoly(&generators::petersen());
    let mut rng = StdRng::seed_from_u64(25);
    for (cost, p) in [(&c8, 1usize), (&petersen, 2), (&c8, 1)] {
        let pattern = PatternBackend::new(cost, p);
        let zx = ZxBackend::new(cost, p);
        assert!(
            zx.report().deterministic,
            "the ZX run draws random branches"
        );
        let (direct, extracted) = (pattern.compiled(), zx.compiled());
        for _ in 0..3 {
            let params: Vec<f64> = (0..2 * p).map(|_| rng.gen_range(-1.5..1.5)).collect();
            let want = replay_expectation(&direct.pattern, &direct.output_wires, &params, cost);
            assert_eq!(pattern.expectation(&params).to_bits(), want.to_bits());
            let want =
                replay_expectation(&extracted.pattern, &extracted.output_wires, &params, cost);
            assert_eq!(zx.expectation(&params).to_bits(), want.to_bits());
        }
    }
}
