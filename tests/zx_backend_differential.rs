//! The cross-backend differential harness: `GateBackend`,
//! `PatternBackend` and `ZxBackend` must be indistinguishable — on
//! expectations (1e-8), on batched evaluation (bit-identical), and on
//! sampling statistics (the Hellinger oracle of `tests/common` against
//! the exact Born distribution). Random problem graphs and random
//! parameter points machine-check the ZX rewrite soundness the paper
//! argues diagrammatically.

mod common;

use common::{assert_born, born_distribution};
use mbqao::core::cache;
use mbqao::prelude::*;
use mbqao::problems::{generators, maxcut, mis, Qubo};
use mbqao_core::{verify_equivalence_three_way, MixerKind, ZxBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn three_backends_agree_on_random_graphs_and_parameters() {
    let mut rng = StdRng::seed_from_u64(271828);
    let graphs = [
        ("triangle", generators::triangle()),
        ("star5", generators::star(5)),
        ("grid2x3", generators::grid(2, 3)),
        ("3reg6", generators::random_regular(6, 3, &mut rng)),
    ];
    for (name, g) in graphs {
        let cost = maxcut::maxcut_zpoly(&g);
        for p in [1usize, 2] {
            let gate = GateBackend::standard(cost.clone(), p);
            let pattern = PatternBackend::new(&cost, p);
            let zx = ZxBackend::new(&cost, p);
            for trial in 0..3 {
                let params: Vec<f64> = (0..2 * p).map(|_| rng.gen_range(-2.0..2.0)).collect();
                let eg = gate.expectation(&params);
                let ep = pattern.expectation(&params);
                let ez = zx.expectation(&params);
                assert!(
                    (eg - ez).abs() < 1e-8 && (ep - ez).abs() < 1e-8,
                    "{name} p={p} trial={trial}: gate {eg} / pattern {ep} / zx {ez}"
                );
            }
        }
    }
}

#[test]
fn three_backends_agree_on_random_qubos_with_linear_terms() {
    // Linear terms exercise the gadget-absorption path where the ZX
    // backend's extracted pattern differs most from the compiled one.
    let mut rng = StdRng::seed_from_u64(31337);
    for trial in 0..3 {
        let cost = Qubo::random(5, 0.7, &mut rng).to_zpoly();
        let p = 1 + trial % 2;
        let gate = GateBackend::standard(cost.clone(), p);
        let zx = ZxBackend::new(&cost, p);
        assert!(
            zx.report().qubit_savings() > 0,
            "trial {trial}: linear terms must save qubits"
        );
        let params: Vec<f64> = (0..2 * p).map(|_| rng.gen_range(-1.5..1.5)).collect();
        let eg = gate.expectation(&params);
        let ez = zx.expectation(&params);
        assert!((eg - ez).abs() < 1e-8, "trial {trial}: {eg} vs {ez}");
    }
}

#[test]
fn three_way_verification_passes_on_constrained_ansatze() {
    // MIS partial mixers (|0⟩ preps, X-corrections, controlled gadgets)
    // and the XY ring mixer (Y-basis conjugation) both survive the
    // ZX roundtrip.
    let mut rng = StdRng::seed_from_u64(12);
    let g = generators::path(4);
    let cost = mis::mis_objective(&g);
    let initial = mis::greedy_mis(&g);
    let opts = CompileOptions {
        mixer: MixerKind::Mis(g.clone()),
        initial_basis_state: Some(initial),
        measure_outputs: false,
    };
    let ansatz = QaoaAnsatz::mis(&g, 1, initial);
    let params: Vec<f64> = (0..2).map(|_| rng.gen_range(-1.2..1.2)).collect();
    let rep = verify_equivalence_three_way(&cost, &ansatz, &opts, 1, &params, 3, 1e-8);
    assert!(rep.equivalent, "MIS: {rep:?}");

    let g = generators::cycle(4);
    let cost = maxcut::maxcut_zpoly(&g);
    let opts = CompileOptions {
        mixer: MixerKind::XyRing,
        initial_basis_state: Some(0b0011),
        measure_outputs: false,
    };
    let mut ansatz = QaoaAnsatz::standard(cost.clone(), 1);
    ansatz.mixer = Mixer::XyRing;
    ansatz.initial = InitialState::Computational(0b0011);
    let params: Vec<f64> = (0..2).map(|_| rng.gen_range(-1.2..1.2)).collect();
    let rep = verify_equivalence_three_way(&cost, &ansatz, &opts, 1, &params, 3, 1e-8);
    assert!(rep.equivalent, "XY ring: {rep:?}");
}

#[test]
fn resynthesized_patterns_are_deterministic_on_random_branches() {
    // The tentpole guarantee of the gflow re-synthesis: every extracted
    // pattern is *strongly deterministic* — any measurement-outcome
    // branch yields the same output state (1e-8) with the uniform
    // probability 2^{−k}. Postselection is gone.
    use mbqao_mbqc::simulate::{run, Branch};

    let mut rng = StdRng::seed_from_u64(4242);
    let cases: Vec<(&str, mbqao::problems::ZPoly, usize)> = vec![
        (
            "triangle-p2",
            maxcut::maxcut_zpoly(&generators::triangle()),
            2,
        ),
        ("square-p1", maxcut::maxcut_zpoly(&generators::square()), 1),
        ("star5-p1", maxcut::maxcut_zpoly(&generators::star(5)), 1),
        (
            "qubo-linear-p1",
            Qubo::random(4, 0.8, &mut rng).to_zpoly(),
            1,
        ),
    ];
    for (name, cost, p) in cases {
        let zx = ZxBackend::new(&cost, p);
        let compiled = zx.compiled();
        assert!(
            compiled.report.deterministic,
            "{name}: extraction must carry gflow corrections"
        );
        let k = compiled.n_measurements;
        let params: Vec<f64> = (0..2 * p).map(|_| rng.gen_range(-1.5..1.5)).collect();
        let wires = &compiled.output_wires;

        let zeros = vec![0u8; k];
        let mut run_rng = StdRng::seed_from_u64(0);
        let reference = run(
            &compiled.pattern,
            &params,
            Branch::Forced(&zeros),
            &mut run_rng,
        );
        let uniform = 0.5f64.powi(k as i32);
        for trial in 0..6 {
            let bits: Vec<u8> = (0..k).map(|_| u8::from(rng.gen_bool(0.5))).collect();
            let mut run_rng = StdRng::seed_from_u64(trial);
            let r = run(
                &compiled.pattern,
                &params,
                Branch::Forced(&bits),
                &mut run_rng,
            );
            let fid = r.state.fidelity(&reference.state, wires);
            assert!(
                (fid - 1.0).abs() < 1e-8,
                "{name} trial {trial}: branch {bits:?} deviates, fidelity {fid}"
            );
            assert!(
                (r.probability / uniform - 1.0).abs() < 1e-6,
                "{name} trial {trial}: branch probability {} ≠ 2^-{k}",
                r.probability
            );
        }
    }
}

#[test]
fn dense_instances_save_qubits_and_stay_correct() {
    // PR 2 reported zero savings on dense MaxCut/SK; the pivot/LC pass
    // must now show strictly positive qubit savings there while the
    // three-way equivalence keeps holding to 1e-8.
    let mut rng = StdRng::seed_from_u64(1123);
    for (name, g) in [
        ("complete4", generators::complete(4)),
        ("complete5", generators::complete(5)),
    ] {
        let cost = maxcut::maxcut_zpoly(&g);
        let p = 1;
        let zx = ZxBackend::new(&cost, p);
        let r = zx.report();
        assert!(
            r.qubit_savings() > 0,
            "{name}: dense instance must save qubits: {r:?}"
        );
        assert!(r.clifford.pivots > 0, "{name}: pivots must fire");
        let ansatz = QaoaAnsatz::standard(cost.clone(), p);
        let params: Vec<f64> = (0..2 * p).map(|_| rng.gen_range(-1.5..1.5)).collect();
        let rep = verify_equivalence_three_way(
            &cost,
            &ansatz,
            &CompileOptions::default(),
            p,
            &params,
            3,
            1e-8,
        );
        assert!(rep.equivalent, "{name}: {rep:?}");
    }
}

#[test]
fn zx_register_is_no_wider_than_the_direct_pattern() {
    // The extraction measures in a width-aware gflow order, so the
    // JIT-scheduled ZX register never outgrows the directly compiled
    // pattern's |V| + 1 (11 on Petersen).
    for fam in mbqao_bench::standard_families(7) {
        for p in [1usize, 2] {
            let r = *ZxBackend::new(&fam.cost, p).report();
            assert!(
                r.zx.max_live <= r.pattern.max_live,
                "{} p={p}: ZX max_live {} > pattern max_live {}",
                fam.name,
                r.zx.max_live,
                r.pattern.max_live
            );
        }
    }
    let petersen = maxcut::maxcut_zpoly(&generators::petersen());
    assert_eq!(ZxBackend::new(&petersen, 2).report().zx.max_live, 11);
}

#[test]
fn zx_expectation_batch_is_bit_identical_to_pointwise() {
    let cost = maxcut::maxcut_zpoly(&generators::square());
    let exec = Executor::new(ZxBackend::new(&cost, 1));
    let points: Vec<Vec<f64>> = (0..24)
        .map(|i| vec![0.13 * i as f64, -0.07 * i as f64])
        .collect();
    let batch = exec.expectation_batch(&points);
    for (point, &b) in points.iter().zip(&batch) {
        assert_eq!(b, exec.expectation(point), "batch must be bit-identical");
    }
}

#[test]
fn zx_sampling_matches_gate_born_distribution_chi_squared() {
    let cost = maxcut::maxcut_zpoly(&generators::triangle());
    let params = [0.8, 0.4];
    let gate = GateBackend::standard(cost.clone(), 1);
    let probs = born_distribution(&gate, &params);

    let exec = Executor::new(ZxBackend::new(&cost, 1));
    let shots = 6000;
    let samples = exec.sample(&params, shots, 9);
    assert_eq!(samples.len(), shots);
    // The bound is the χ²₀.₉₉₉ quantile of the Freeman–Tukey statistic.
    assert_born("zx", &samples, &probs);

    // The same draw drives `sampled_expectation`.
    let est = exec.sampled_expectation(&params, shots, 9);
    let exact = exec.expectation(&params);
    assert!((est - exact).abs() < 0.15, "sampled {est} vs exact {exact}");

    // Determinism in the seed.
    assert_eq!(samples, exec.sample(&params, shots, 9));
}

#[test]
fn compiled_pattern_cache_is_shared_across_backend_rebuilds() {
    // A cost with a weight unique to this test keeps the cache key
    // disjoint from other tests in the process.
    let g = generators::cycle(5);
    let base = maxcut::maxcut_zpoly(&g);
    let cost = ZPoly::new(base.n(), 0.618_033_988, base.terms().to_vec());

    let before = cache::pattern_cache_stats();
    let a = PatternBackend::new(&cost, 2);
    let _ = a.compiled();
    let mid = cache::pattern_cache_stats();
    assert!(mid.misses > before.misses, "first build must compile");

    // Rebuilding the backend (as sweeps do) must hit, not recompile.
    let b = PatternBackend::new(&cost, 2);
    assert!(
        std::ptr::eq(a.compiled() as *const _, b.compiled() as *const _),
        "rebuilt backend must share the compiled artifact"
    );
    let after = cache::pattern_cache_stats();
    assert!(after.hits > mid.hits, "second build must be a cache hit");

    // The ZX extraction is memoized the same way.
    let za = ZxBackend::new(&cost, 2);
    let zb = ZxBackend::new(&cost, 2);
    assert!(std::ptr::eq(
        za.compiled() as *const _,
        zb.compiled() as *const _
    ));
    assert!(cache::zx_cache_stats().hits >= 1);
}
