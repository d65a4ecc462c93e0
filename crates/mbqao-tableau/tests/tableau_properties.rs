//! The property-test wall behind the tableau: every Clifford
//! conjugation rule, the measurement branch logic, the column reset,
//! and the structural invariants are pinned to the dense statevector
//! reference (`mbqao-sim`) on random circuits at n ≤ 6. The
//! `property-deep` CI job reruns these at `PROPTEST_CASES=1024`.

use mbqao_math::C64;
use mbqao_sim::{QubitId, State};
use mbqao_tableau::{PauliString, Tableau};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::f64::consts::FRAC_PI_2;

#[derive(Debug, Clone, Copy)]
enum Op {
    H(usize),
    S(usize),
    Cz(usize, usize),
    X(usize),
    Z(usize),
}

fn random_ops(n: usize, len: usize, rng: &mut StdRng) -> Vec<Op> {
    (0..len)
        .map(|_| {
            let q = rng.gen_range(0..n);
            match rng.gen_range(0..5) {
                0 => Op::H(q),
                1 => Op::S(q),
                2 if n > 1 => {
                    let mut b = rng.gen_range(0..n);
                    while b == q {
                        b = rng.gen_range(0..n);
                    }
                    Op::Cz(q, b)
                }
                3 => Op::X(q),
                _ => Op::Z(q),
            }
        })
        .collect()
}

fn qubits(n: usize) -> Vec<QubitId> {
    (0..n).map(|q| QubitId(q as u64)).collect()
}

fn apply_ops_state(st: &mut State, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::H(q) => st.apply_h(QubitId(q as u64)),
            Op::S(q) => st.apply_phase(QubitId(q as u64), FRAC_PI_2),
            Op::Cz(a, b) => st.apply_cz(QubitId(a as u64), QubitId(b as u64)),
            Op::X(q) => st.apply_x(QubitId(q as u64)),
            Op::Z(q) => st.apply_z(QubitId(q as u64)),
        }
    }
}

/// Applies `U†` for the sequence `U` (reverse order, `S† = phase(−π/2)`,
/// everything else self-inverse).
fn apply_ops_state_dagger(st: &mut State, ops: &[Op]) {
    for op in ops.iter().rev() {
        match *op {
            Op::H(q) => st.apply_h(QubitId(q as u64)),
            Op::S(q) => st.apply_phase(QubitId(q as u64), -FRAC_PI_2),
            Op::Cz(a, b) => st.apply_cz(QubitId(a as u64), QubitId(b as u64)),
            Op::X(q) => st.apply_x(QubitId(q as u64)),
            Op::Z(q) => st.apply_z(QubitId(q as u64)),
        }
    }
}

fn apply_ops_tableau(t: &mut Tableau, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::H(q) => t.h(q),
            Op::S(q) => t.s(q),
            Op::Cz(a, b) => t.cz(a, b),
            Op::X(q) => t.x(q),
            Op::Z(q) => t.z(q),
        }
    }
}

fn conj_ops(p: &mut PauliString, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::H(q) => p.conj_h(q),
            Op::S(q) => p.conj_s(q),
            Op::Cz(a, b) => p.conj_cz(a, b),
            Op::X(q) => p.conj_x(q),
            Op::Z(q) => p.conj_z(q),
        }
    }
}

/// Random Hermitian Pauli of weight ≥ 1 (uniform axis per qubit).
fn random_pauli(n: usize, rng: &mut StdRng) -> PauliString {
    loop {
        let mut p = PauliString::identity(n);
        for q in 0..n {
            match rng.gen_range(0..4) {
                1 => p.mul_assign(&PauliString::x(n, q)),
                2 => p.mul_assign(&PauliString::y(n, q)),
                3 => p.mul_assign(&PauliString::z(n, q)),
                _ => {}
            }
        }
        if !p.is_identity_word() {
            return p;
        }
    }
}

/// Random Hermitian Pauli supported off qubit `skip` (the identity is
/// allowed: on one qubit it is the only such Pauli).
fn random_pauli_off(n: usize, skip: usize, rng: &mut StdRng) -> PauliString {
    let mut p = PauliString::identity(n);
    for q in (0..n).filter(|&q| q != skip) {
        match rng.gen_range(0..4) {
            1 => p.mul_assign(&PauliString::x(n, q)),
            2 => p.mul_assign(&PauliString::y(n, q)),
            3 => p.mul_assign(&PauliString::z(n, q)),
            _ => {}
        }
    }
    p
}

/// A random (non-stabilizer) state for matrix-element probes.
fn random_state(n: usize, rng: &mut StdRng) -> State {
    let mut st = State::zeros(&qubits(n));
    for q in 0..n {
        st.apply_rx(QubitId(q as u64), rng.gen_range(-1.5..1.5));
        st.apply_rz(QubitId(q as u64), rng.gen_range(-1.5..1.5));
    }
    st
}

/// `P` applied to an MSB-first aligned amplitude vector (bit `n−1−q`
/// of the index is qubit `q`): `P|i⟩ = i^phase (−1)^{z·i} |i ⊕ x⟩`.
fn apply_pauli_dense(amps: &[C64], n: usize, p: &PauliString) -> Vec<C64> {
    let phase = [
        C64::new(1.0, 0.0),
        C64::new(0.0, 1.0),
        C64::new(-1.0, 0.0),
        C64::new(0.0, -1.0),
    ][p.phase() as usize];
    let (mut xmask, mut zmask) = (0usize, 0usize);
    for q in 0..n {
        if p.x_bit(q) {
            xmask |= 1 << (n - 1 - q);
        }
        if p.z_bit(q) {
            zmask |= 1 << (n - 1 - q);
        }
    }
    let mut out = vec![C64::new(0.0, 0.0); amps.len()];
    for (i, &a) in amps.iter().enumerate() {
        let sign = if (i & zmask).count_ones() % 2 == 1 {
            -1.0
        } else {
            1.0
        };
        out[i ^ xmask] = phase * a * sign;
    }
    out
}

fn inner(a: &[C64], b: &[C64]) -> C64 {
    a.iter().zip(b).map(|(&x, &y)| x.conj() * y).sum()
}

/// Dual projection of a dense state onto outcome `m` of `P`:
/// `(I + (−1)^m P)/2 · |ψ⟩`, renormalized.
fn project_dense(amps: &[C64], n: usize, p: &PauliString, m: u8) -> Vec<C64> {
    let half = if m == 1 { -0.5 } else { 0.5 };
    let pa = apply_pauli_dense(amps, n, p);
    let v: Vec<C64> = amps
        .iter()
        .zip(&pa)
        .map(|(&a, &b)| a * 0.5 + b * half)
        .collect();
    let norm = inner(&v, &v).re.sqrt();
    assert!(norm > 1e-9, "outcome {m} of {p} has zero Born weight");
    v.iter().map(|&c| c * (1.0 / norm)).collect()
}

proptest! {
    /// Clifford conjugation matches the dense reference on full matrix
    /// elements: `⟨χ|P'|Uφ⟩ = ⟨U†χ|P|φ⟩` for random states φ, χ — the
    /// complex equality (phase included) pins `P' = U P U†` exactly.
    #[test]
    fn prop_conjugation_matches_dense(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1usize..=6);
        let ops = random_ops(n, rng.gen_range(1..=24), &mut rng);
        let p = random_pauli(n, &mut rng);
        let mut p_conj = p.clone();
        conj_ops(&mut p_conj, &ops);
        prop_assert!(p_conj.is_hermitian(), "conjugation must preserve Hermiticity");

        let order = qubits(n);
        let phi = random_state(n, &mut rng);
        let chi = random_state(n, &mut rng);
        let mut u_phi = phi.clone();
        apply_ops_state(&mut u_phi, &ops);
        let mut udg_chi = chi.clone();
        apply_ops_state_dagger(&mut udg_chi, &ops);

        let lhs = inner(&chi.aligned(&order), &apply_pauli_dense(&u_phi.aligned(&order), n, &p_conj));
        let rhs = inner(&udg_chi.aligned(&order), &apply_pauli_dense(&phi.aligned(&order), n, &p));
        prop_assert!(
            (lhs - rhs).abs() < 1e-9,
            "⟨χ|P'U|φ⟩ = {lhs} but ⟨U†χ|PU†·U|φ⟩ = {rhs} for ops {ops:?}, P = {p}"
        );
    }

    /// The tableau state *is* the dense state: after a random Clifford
    /// circuit from |0…0⟩, every random Pauli expectation agrees with
    /// the statevector (including the 0 of non-stabilizer directions),
    /// and the invariants hold.
    #[test]
    fn prop_tableau_expectations_match_dense(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1usize..=6);
        let ops = random_ops(n, rng.gen_range(1..=32), &mut rng);
        let mut tab = Tableau::zeros(n);
        apply_ops_tableau(&mut tab, &ops);
        tab.check_invariants().map_err(TestCaseError::fail)?;

        let order = qubits(n);
        let mut st = State::zeros(&order);
        apply_ops_state(&mut st, &ops);
        let amps = st.aligned(&order);
        for _ in 0..6 {
            let q = random_pauli(n, &mut rng);
            let dense = inner(&amps, &apply_pauli_dense(&amps, n, &q)).re;
            let fast = tab.expectation(&q);
            prop_assert!(
                (dense - fast).abs() < 1e-9,
                "⟨{q}⟩: tableau {fast} vs dense {dense} after {ops:?}"
            );
        }
    }

    /// Measurement matches dual projection: the tableau's
    /// random/deterministic verdict reproduces the Born probability
    /// (½ or 1), and the post-measurement tableau equals the projected,
    /// renormalized dense state on random Pauli probes.
    #[test]
    fn prop_measurement_matches_dual_projection(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1usize..=5);
        let ops = random_ops(n, rng.gen_range(1..=24), &mut rng);
        let mut tab = Tableau::zeros(n);
        apply_ops_tableau(&mut tab, &ops);
        let order = qubits(n);
        let mut st = State::zeros(&order);
        apply_ops_state(&mut st, &ops);

        let p = random_pauli(n, &mut rng);
        let r = tab.measure(&p, None, &mut rng);
        tab.check_invariants().map_err(TestCaseError::fail)?;

        // Born probability of the reported outcome from the dense state:
        // ⟨ψ|Π_m|ψ⟩ with Π_m = (I + (−1)^m P)/2.
        let amps = st.aligned(&order);
        let expect_p = inner(&amps, &apply_pauli_dense(&amps, n, &p)).re;
        let sign = if r.outcome == 1 { -1.0 } else { 1.0 };
        let prob = (1.0 + sign * expect_p) / 2.0;
        if r.random {
            prop_assert!((prob - 0.5).abs() < 1e-9, "random outcome must be fair: {prob}");
        } else {
            prop_assert!((prob - 1.0).abs() < 1e-9, "dictated outcome must be certain: {prob}");
        }

        let projected = project_dense(&amps, n, &p, r.outcome);
        for _ in 0..6 {
            let q = random_pauli(n, &mut rng);
            let dense = inner(&projected, &apply_pauli_dense(&projected, n, &q)).re;
            let fast = tab.expectation(&q);
            prop_assert!(
                (dense - fast).abs() < 1e-9,
                "post-measurement ⟨{q}⟩: tableau {fast} vs dense {dense}"
            );
        }
    }

    /// Forcing both branches of a random measurement: exactly one of
    /// the forced branches survives a deterministic measurement, and
    /// forced random branches land in the `(−1)^m P` eigenspace.
    #[test]
    fn prop_forced_branches_are_consistent(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1usize..=5);
        let ops = random_ops(n, rng.gen_range(1..=24), &mut rng);
        let p = random_pauli(n, &mut rng);
        for m in [0u8, 1u8] {
            let mut tab = Tableau::zeros(n);
            apply_ops_tableau(&mut tab, &ops);
            let r = tab.measure(&p, Some(m), &mut rng);
            if r.annihilated {
                prop_assert!(!r.random);
                prop_assert_eq!(r.outcome, 1 - m, "annihilation reports the dictated bit");
            } else {
                prop_assert_eq!(r.outcome, m);
                // The forced branch is a (−1)^m eigenstate of P.
                let want = if m == 1 { -1.0 } else { 1.0 };
                prop_assert_eq!(tab.expectation(&p), want);
                tab.check_invariants().map_err(TestCaseError::fail)?;
            }
        }
    }

    /// Column recycling: a random qubit measured on a random
    /// `±X/±Y/±Z` axis (free or forced outcome) and then `reset` is in
    /// `|0⟩`, and every Pauli supported off it keeps its
    /// post-measurement expectation, checked against the projected,
    /// renormalized dense state.
    #[test]
    fn prop_reset_returns_measured_qubit_to_zero(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1usize..=6);
        let ops = random_ops(n, rng.gen_range(1..=24), &mut rng);
        let mut tab = Tableau::zeros(n);
        apply_ops_tableau(&mut tab, &ops);
        let order = qubits(n);
        let mut st = State::zeros(&order);
        apply_ops_state(&mut st, &ops);

        let q = rng.gen_range(0..n);
        let mut obs = match rng.gen_range(0..3) {
            0 => PauliString::x(n, q),
            1 => PauliString::y(n, q),
            _ => PauliString::z(n, q),
        };
        if rng.gen_bool(0.5) {
            obs.mul_phase(2);
        }
        let forced = match rng.gen_range(0..3u8) {
            0 => None,
            k => Some(k - 1),
        };
        let r = tab.measure(&obs, forced, &mut rng);
        let projected = project_dense(&st.aligned(&order), n, &obs, r.outcome);

        tab.reset(q, &obs, r.outcome);
        tab.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(
            tab.expectation(&PauliString::z(n, q)),
            1.0,
            "measured {} → outcome {}, reset must leave |0⟩", obs, r.outcome
        );
        for _ in 0..6 {
            let p = random_pauli_off(n, q, &mut rng);
            let dense = inner(&projected, &apply_pauli_dense(&projected, n, &p)).re;
            let fast = tab.expectation(&p);
            prop_assert!(
                (dense - fast).abs() < 1e-9,
                "after reset of {}: ⟨{p}⟩ tableau {fast} vs dense {dense}", obs
            );
        }
    }
}

/// Outcome statistics over many seeds: tableau-random measurements draw
/// a fair coin through the supplied RNG (not a property test — one
/// aggregate over a fixed seed set).
#[test]
fn random_measurements_are_fair_coins() {
    let mut ones = 0usize;
    let trials = 400usize;
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..trials {
        let mut tab = Tableau::zeros(1);
        tab.h(0);
        let r = tab.measure(&PauliString::z(1, 0), None, &mut rng);
        assert!(r.random);
        ones += usize::from(r.outcome == 1);
    }
    let frac = ones as f64 / trials as f64;
    assert!((frac - 0.5).abs() < 0.1, "biased coin: {frac}");
}

/// The RngCore bound is `?Sized`: a `&mut dyn` RNG works.
#[test]
fn measure_accepts_dyn_rng() {
    let mut rng = StdRng::seed_from_u64(3);
    let dyn_rng: &mut dyn RngCore = &mut rng;
    let mut tab = Tableau::zeros(2);
    tab.h(0);
    tab.measure(&PauliString::x(2, 0), None, dyn_rng);
}
