//! The four-way differential harness for the stabilizer-tableau
//! backend: `GateBackend`, `PatternBackend`, `ZxBackend` and
//! `PauliBackend` must be indistinguishable — on expectations (1e-8)
//! across the standard families (MaxCut, SK, QUBO, MIS mixer, XY
//! mixer) at p ∈ {1, 2}, on batched evaluation (bit-identical), and on
//! sampling statistics (the Hellinger oracle of `tests/common` against
//! the exact Born distribution) — on *both* sides of the magic budget: the tableau
//! fast path at Clifford-rich parameters and the statevector fallback
//! at generic ones. It also pins the tableau's own width (live
//! register plus pinned magic columns) and the branch-tree average.

mod common;

use common::{assert_born, born_distribution};
use mbqao::mbqc::resources;
use mbqao::prelude::*;
use mbqao::problems::{generators, maxcut, mis, Qubo};
use mbqao_tableau::{branch_tree_expectation, PatternRun, MAX_MAGIC_EXPECTATION, MAX_MAGIC_TREE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

/// A unit-weight cycle on `n` vertices plus two golden-ratio chords:
/// at π/4-lattice points with odd γ every cycle gadget is Clifford and
/// only the two chords are magic.
fn cycle_with_chords(n: usize) -> ZPoly {
    let phi = 1.618_033_988_749_895f64;
    let mut terms: Vec<(Vec<usize>, f64)> = (0..n).map(|v| (vec![v, (v + 1) % n], 1.0)).collect();
    terms.push((vec![0, n / 2], phi));
    terms.push((vec![n / 4, 3 * n / 4], phi * phi));
    ZPoly::new(n, 0.0, terms)
}

#[test]
fn four_backends_agree_on_standard_families() {
    let mut rng = StdRng::seed_from_u64(271828);
    let sk5 = generators::sherrington_kirkpatrick_gaussian(5, &mut rng).to_zpoly();
    let costs = [
        ("triangle", maxcut::maxcut_zpoly(&generators::triangle())),
        ("star5", maxcut::maxcut_zpoly(&generators::star(5))),
        ("grid2x3", maxcut::maxcut_zpoly(&generators::grid(2, 3))),
        ("sk5", sk5),
        ("qubo5", Qubo::random(5, 0.7, &mut rng).to_zpoly()),
    ];
    for (name, cost) in costs {
        for p in [1usize, 2] {
            let gate = GateBackend::standard(cost.clone(), p);
            let pattern = PatternBackend::new(&cost, p);
            let zx = ZxBackend::new(&cost, p);
            let pauli = PauliBackend::new(&cost, p);
            // Parameter points on both sides of the budget: generic
            // random angles (statevector fallback at p=2, tableau with
            // pending projectors when the count fits), γ-Clifford mixes,
            // and the all-Clifford point γ = π-ish multiples.
            let mut points: Vec<Vec<f64>> = (0..2)
                .map(|_| (0..2 * p).map(|_| rng.gen_range(-2.0..2.0)).collect())
                .collect();
            let mut clifford_point = vec![0.0; 2 * p];
            for i in 0..p {
                clifford_point[i] = FRAC_PI_2 * (1 + i % 2) as f64;
                clifford_point[p + i] = FRAC_PI_4;
            }
            points.push(clifford_point);
            let mut half = vec![FRAC_PI_4; 2 * p];
            half[p..].fill(0.35);
            points.push(half);
            for params in points {
                let eg = gate.expectation(&params);
                let ep = pattern.expectation(&params);
                let ez = zx.expectation(&params);
                let eq = pauli.expectation(&params);
                assert!(
                    (eg - eq).abs() < 1e-8 && (ep - eq).abs() < 1e-8 && (ez - eq).abs() < 1e-8,
                    "{name} p={p} {params:?}: gate {eg} / pattern {ep} / zx {ez} / pauli {eq} \
                     (magic {})",
                    pauli.magic_count(&params)
                );
            }
        }
    }
}

#[test]
fn pauli_agrees_on_constrained_ansatze() {
    // MIS partial mixers (|0⟩ preps, X-corrections, controlled gadgets)
    // and the XY ring mixer (Y-basis conjugation) run through the same
    // compiled patterns; the pauli backend must match the pattern
    // backend on them — fallback or not.
    let mut rng = StdRng::seed_from_u64(12);
    let g = generators::path(4);
    let cost = mis::mis_objective(&g);
    let initial = mis::greedy_mis(&g);
    let opts = CompileOptions {
        mixer: MixerKind::Mis(g.clone()),
        initial_basis_state: Some(initial),
        measure_outputs: false,
    };
    for _ in 0..2 {
        let params: Vec<f64> = (0..2).map(|_| rng.gen_range(-1.2..1.2)).collect();
        let pattern = PatternBackend::with_options(&cost, 1, &opts);
        let pauli = PauliBackend::with_options(&cost, 1, &opts);
        let ep = pattern.expectation(&params);
        let eq = pauli.expectation(&params);
        assert!((ep - eq).abs() < 1e-8, "MIS: pattern {ep} vs pauli {eq}");
    }

    let g = generators::cycle(4);
    let cost = maxcut::maxcut_zpoly(&g);
    let opts = CompileOptions {
        mixer: MixerKind::XyRing,
        initial_basis_state: Some(0b0011),
        measure_outputs: false,
    };
    for params in [[0.9, -0.7], [FRAC_PI_2, FRAC_PI_4]] {
        let pattern = PatternBackend::with_options(&cost, 1, &opts);
        let pauli = PauliBackend::with_options(&cost, 1, &opts);
        let ep = pattern.expectation(&params);
        let eq = pauli.expectation(&params);
        assert!(
            (ep - eq).abs() < 1e-8,
            "XY ring: pattern {ep} vs pauli {eq}"
        );
    }
}

#[test]
fn tableau_path_is_exercised_on_both_branch_kinds() {
    // Guard against silently testing only the fallback: the square at
    // (generic γ, Clifford β) has 4 pending projectors — inside the
    // budget — while grid2x3 at p=2 generic angles is far outside.
    let square = maxcut::maxcut_zpoly(&generators::square());
    let pauli = PauliBackend::new(&square, 1);
    let magic = pauli.magic_count(&[0.8, FRAC_PI_4]);
    assert!(magic > 0 && magic <= MAX_MAGIC_EXPECTATION, "magic {magic}");
    assert!(pauli.tableau_eligible(&[0.8, FRAC_PI_4]));
    assert_eq!(pauli.magic_count(&[FRAC_PI_2, FRAC_PI_4]), 0);

    let grid = maxcut::maxcut_zpoly(&generators::grid(2, 3));
    let pauli = PauliBackend::new(&grid, 2);
    assert!(
        pauli.magic_count(&[0.8, 0.9, 0.3, 0.4]) > MAX_MAGIC_EXPECTATION,
        "generic p=2 grid must overflow the budget (fallback coverage)"
    );
}

#[test]
fn pauli_expectation_batch_is_bit_identical_to_pointwise() {
    let cost = maxcut::maxcut_zpoly(&generators::square());
    let exec = Executor::new(PauliBackend::new(&cost, 1));
    let points: Vec<Vec<f64>> = (0..24)
        .map(|i| vec![0.13 * i as f64, FRAC_PI_4 * (i % 3) as f64])
        .collect();
    let batch = exec.expectation_batch(&points);
    for (point, &b) in points.iter().zip(&batch) {
        assert_eq!(b, exec.expectation(point), "batch must be bit-identical");
    }
}

#[test]
fn pauli_sampling_matches_gate_born_distribution_chi_squared() {
    let cost = maxcut::maxcut_zpoly(&generators::triangle());
    // One point per sampling regime: all-Clifford (pure tableau), magic
    // within the sampling budget (pending-projector conditionals), and
    // generic angles at p=1 on the triangle (3 magic — still tableau).
    for (label, params) in [
        ("clifford", [FRAC_PI_2, FRAC_PI_4]),
        ("magic-within-budget", [0.8, FRAC_PI_4]),
        ("generic", [0.8, 0.4]),
    ] {
        let gate = GateBackend::standard(cost.clone(), 1);
        let probs = born_distribution(&gate, &params);
        let exec = Executor::new(PauliBackend::new(&cost, 1));
        let shots = 6000;
        let samples = exec.sample(&params, shots, 9);
        assert_eq!(samples.len(), shots);
        // The bound is the χ²₀.₉₉₉ quantile of the Freeman–Tukey statistic.
        assert_born(label, &samples, &probs);

        let est = exec.sampled_expectation(&params, shots, 9);
        let exact = exec.expectation(&params);
        assert!(
            (est - exact).abs() < 0.15,
            "{label}: sampled {est} vs exact {exact}"
        );
        assert_eq!(samples, exec.sample(&params, shots, 9), "seed determinism");
    }
}

#[test]
fn fallback_is_bit_identical_to_pattern_backend() {
    // Over budget, the pauli backend must execute the very same
    // statevector path as PatternBackend — equal to the last bit, not
    // just 1e-8.
    let cost = maxcut::maxcut_zpoly(&generators::grid(2, 3));
    let pattern = PatternBackend::new(&cost, 2);
    let pauli = PauliBackend::new(&cost, 2);
    let params = [0.8, 0.9, 0.3, 0.4];
    assert!(!pauli.tableau_eligible(&params));
    assert_eq!(
        pattern.expectation(&params).to_bits(),
        pauli.expectation(&params).to_bits()
    );
    assert_eq!(
        pattern.sample(&params, 128, 5),
        pauli.sample(&params, 128, 5)
    );
}

#[test]
fn clifford_heavy_instance_runs_beyond_statevector_reach() {
    // The acceptance criterion in miniature: a weighted cycle whose
    // golden-ratio chord is the only non-Clifford coupling evaluates at
    // n = 40 — a 2^40 statevector is out of reach, the tableau isn't.
    let n = 40usize;
    let phi = 1.618_033_988_749_895f64;
    let mut terms: Vec<(Vec<usize>, f64)> = (0..n).map(|v| (vec![v, (v + 1) % n], 1.0)).collect();
    terms.push((vec![0, n / 2], phi));
    let cost = ZPoly::new(n, 0.0, terms);
    let pauli = PauliBackend::new(&cost, 1);
    let params = [FRAC_PI_4, FRAC_PI_4];
    // Unit-weight edges are Clifford at γ = π/4; only the φ-chord is
    // magic (one pending projector).
    assert_eq!(pauli.magic_count(&params), 1);
    let value = pauli.expectation(&params);
    assert!(value.is_finite());
    // ⟨C⟩ must respect the spectral range ±(|E| + φ).
    assert!(
        value.abs() <= n as f64 + phi + 1e-9,
        "out of range: {value}"
    );
}

#[test]
#[should_panic(expected = "at most 64 variables")]
fn pauli_sampling_refuses_more_than_64_variables() {
    // A shot is a u64 with bit v = variable v: on 80 variables a shift
    // past bit 63 would alias variables instead of failing.
    let cost = maxcut::maxcut_zpoly(&generators::cycle(80));
    let pauli = PauliBackend::new(&cost, 1);
    pauli.sample(&[FRAC_PI_2, FRAC_PI_4], 4, 1);
}

#[test]
fn branch_tree_weighs_every_magic_branch_like_the_reference() {
    // Strongly deterministic patterns prepare the same state on every
    // non-Clifford branch: 2^k branches of weight 2^-k, each with the
    // reference branch's ⟨C⟩.
    let triangle = maxcut::maxcut_zpoly(&generators::triangle());
    let chords = cycle_with_chords(16);
    for (name, cost, params, k) in [
        ("triangle", &triangle, [0.7, FRAC_PI_4], 3usize),
        ("C16+2 chords", &chords, [3.0 * FRAC_PI_4, FRAC_PI_2], 2),
    ] {
        let pauli = PauliBackend::new(cost, 1);
        assert_eq!(pauli.magic_count(&params), k, "{name}");
        let compiled = pauli.compiled();
        let tree = branch_tree_expectation(
            &compiled.pattern,
            &params,
            cost.constant(),
            cost.terms(),
            &compiled.output_wires,
        )
        .expect("within the tree budget");
        assert_eq!(tree.branches.len(), 1 << k, "{name}");
        assert!(
            (tree.total_weight - 1.0).abs() < 1e-12,
            "{name}: total weight {}",
            tree.total_weight
        );
        let exact = pauli.expectation(&params);
        for b in &tree.branches {
            assert!(
                (b.value - exact).abs() < 1e-12,
                "{name} branch {:b}: {} vs {exact}",
                b.bits,
                b.value
            );
        }
        assert!((tree.value - exact).abs() < 1e-12, "{name}: tree average");
    }

    // Petersen at generic p=1 angles: every gadget and mixer is magic.
    let petersen = maxcut::maxcut_zpoly(&generators::petersen());
    let pauli = PauliBackend::new(&petersen, 1);
    let params = [0.7, 0.4];
    assert!(pauli.magic_count(&params) > MAX_MAGIC_TREE);
    let compiled = pauli.compiled();
    assert!(branch_tree_expectation(
        &compiled.pattern,
        &params,
        petersen.constant(),
        petersen.terms(),
        &compiled.output_wires,
    )
    .is_none());
}

#[test]
fn tableau_is_no_wider_than_the_live_register_plus_magic() {
    // Exact counts on the tableau regime: the JIT register is the n
    // cycle wires plus one gadget qubit, and the two magic chord
    // columns stay pinned. Sizing to every qubit the pattern touches
    // would take 4n + 2 columns (514 at n = 128).
    for (n, want) in [(64usize, 67usize), (128, 131)] {
        let pauli = PauliBackend::new(&cycle_with_chords(n), 1);
        let pattern = &pauli.compiled().pattern;
        let stats = resources::stats(pattern);
        assert_eq!(stats.max_live, n + 1, "C{n}");
        assert_eq!(stats.total_qubits, 4 * n + 2, "C{n}");
        let run = PatternRun::reference(pattern, &[FRAC_PI_4, FRAC_PI_4]);
        assert_eq!(run.magic_measurements, 2, "C{n}");
        assert_eq!(run.width(), want, "C{n}");
    }

    // The bound on every standard family, on both sides of the budget
    // (the walk itself never expands the 3^k readout).
    let mut rng = StdRng::seed_from_u64(31);
    for fam in mbqao_bench::standard_families(7) {
        for p in [1usize, 2] {
            let pauli = PauliBackend::new(&fam.cost, p);
            let pattern = &pauli.compiled().pattern;
            let max_live = resources::stats(pattern).max_live;
            let points = [
                [vec![FRAC_PI_2; p], vec![FRAC_PI_4; p]].concat(),
                [vec![0.7; p], vec![FRAC_PI_4; p]].concat(),
                (0..2 * p).map(|_| rng.gen_range(-2.0..2.0)).collect(),
            ];
            for params in points {
                let run = PatternRun::reference(pattern, &params);
                let magic = pauli.magic_count(&params);
                assert_eq!(run.magic_measurements, magic);
                assert!(
                    run.width() <= max_live + magic,
                    "{} p={p} {params:?}: width {} > max_live {max_live} + magic {magic}",
                    fam.name,
                    run.width()
                );
            }
        }
    }
}
