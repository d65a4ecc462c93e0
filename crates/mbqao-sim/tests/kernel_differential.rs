//! Differential tests pinning every rewritten statevector kernel (PR 4:
//! ping-pong scratch buffers, dual-projection measurement, specialized
//! CZ/X/Z kernels, fused teleport/gadget node cycles, permutation-folded
//! expectation) against naive reference implementations computed on raw
//! amplitude vectors.

use mbqao_math::C64;
use mbqao_sim::{Circuit, Gate, MeasBasis, QubitId, State};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 4;

fn q(i: u64) -> QubitId {
    QubitId::new(i)
}

fn order() -> [QubitId; N] {
    [q(0), q(1), q(2), q(3)]
}

/// A random gate on the 4-qubit register.
fn arb_gate() -> impl Strategy<Value = Gate> {
    let n = N as u64;
    prop_oneof![
        (0..n).prop_map(|i| Gate::H(q(i))),
        ((0..n), -10i32..10).prop_map(|(i, k)| Gate::Rz(q(i), f64::from(k) * 0.31)),
        ((0..n), -10i32..10).prop_map(|(i, k)| Gate::Rx(q(i), f64::from(k) * 0.17)),
        ((0..n), -10i32..10).prop_map(|(i, k)| Gate::Phase(q(i), f64::from(k) * 0.19)),
        (0..n, 0..n)
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| Gate::Cz(q(a), q(b))),
        (0..n, 0..n, -10i32..10)
            .prop_filter("distinct", |(a, b, _)| a != b)
            .prop_map(|(a, b, k)| Gate::Rzz(q(a), q(b), f64::from(k) * 0.13)),
    ]
}

/// A random normalized 4-qubit state (random circuit on `|+⟩^4`).
fn arb_state() -> impl Strategy<Value = State> {
    proptest::collection::vec(arb_gate(), 0..16).prop_map(|gs| {
        let mut c = Circuit::new();
        c.extend(gs);
        let mut st = State::plus(&order());
        c.run(&mut st);
        st
    })
}

fn arb_basis() -> impl Strategy<Value = MeasBasis> {
    (-3.1f64..3.1, 0u8..4).prop_map(|(theta, plane)| match plane {
        0 => MeasBasis::xy(theta),
        1 => MeasBasis::yz(theta),
        2 => MeasBasis::xz(theta),
        _ => MeasBasis::computational(),
    })
}

fn assert_close(a: &[C64], b: &[C64], eps: f64) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        prop_assert!(x.approx_eq(*y, eps), "index {i}: {x:?} vs {y:?}");
    }
    Ok(())
}

/// Reference measurement: project `v` (msb-first over `n` qubits) onto
/// outcome `m` of `basis` at register position `k`, returning the
/// renormalized post-state and the branch probability.
fn naive_measure(v: &[C64], n: usize, k: usize, basis: &MeasBasis, m: u8) -> (Vec<C64>, f64) {
    let b = n - 1 - k;
    let half = v.len() / 2;
    let bv = if m == 0 { basis.v0 } else { basis.v1 };
    let (c0, c1) = (bv[0].conj(), bv[1].conj());
    let mut out = vec![C64::ZERO; half];
    for (i, slot) in out.iter_mut().enumerate() {
        let low = i & ((1 << b) - 1);
        let i0 = (i >> b) << (b + 1) | low;
        *slot = c0 * v[i0] + c1 * v[i0 | (1 << b)];
    }
    let p: f64 = out.iter().map(|z| z.norm_sqr()).sum();
    let s = 1.0 / p.sqrt();
    for z in &mut out {
        *z = z.scale(s);
    }
    (out, p)
}

/// Reference tensor growth: `v ⊗ [a0, a1]` (new qubit as lsb).
fn naive_grow(v: &[C64], init: [C64; 2]) -> Vec<C64> {
    let mut out = vec![C64::ZERO; v.len() * 2];
    for (i, &a) in v.iter().enumerate() {
        out[2 * i] = a * init[0];
        out[2 * i + 1] = a * init[1];
    }
    out
}

/// Reference CZ on bit offsets `ba`, `bb` of a dense vector.
fn naive_cz(v: &mut [C64], ba: usize, bb: usize) {
    let mask = (1usize << ba) | (1usize << bb);
    for (i, z) in v.iter_mut().enumerate() {
        if i & mask == mask {
            *z = -*z;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The run-walking CZ kernel equals the naive masked sign flip.
    #[test]
    fn prop_cz_matches_naive(st in arb_state(), a in 0u64..4, b in 0u64..4) {
        prop_assume!(a != b);
        let mut v = st.aligned(&order());
        naive_cz(&mut v, N - 1 - a as usize, N - 1 - b as usize);
        let mut st = st;
        st.apply_cz(q(a), q(b));
        assert_close(&st.aligned(&order()), &v, 0.0)?;
    }

    /// Specialized X/Z kernels equal the generic 2×2 unitary kernel.
    #[test]
    fn prop_x_z_match_generic(st in arb_state(), t in 0u64..4) {
        let mut by_x = st.clone();
        by_x.apply_x(q(t));
        let mut gen_x = st.clone();
        gen_x.apply_u2(q(t), [C64::ZERO, C64::ONE, C64::ONE, C64::ZERO]);
        assert_close(&by_x.aligned(&order()), &gen_x.aligned(&order()), 0.0)?;

        let mut by_z = st.clone();
        by_z.apply_z(q(t));
        let mut gen_z = st;
        gen_z.apply_u2(q(t), [C64::ONE, C64::ZERO, C64::ZERO, -C64::ONE]);
        assert_close(&by_z.aligned(&order()), &gen_z.aligned(&order()), 0.0)?;
    }

    /// The dual-projection `measure_remove` (all three specializations:
    /// butterfly XY, diagonal computational, generic) matches the naive
    /// project-normalize reference on both forced branches.
    #[test]
    fn prop_measure_remove_matches_naive(
        st in arb_state(),
        basis in arb_basis(),
        k in 0usize..4,
        m in 0u8..2,
    ) {
        let v = st.aligned(&order());
        let (expect, p_naive) = naive_measure(&v, N, k, &basis, m);
        prop_assume!(p_naive > 1e-9);
        let mut st = st;
        let mut rng = StdRng::seed_from_u64(1);
        let id = order()[k];
        let (out, p) = st.measure_remove(id, &basis, Some(m), &mut rng);
        prop_assert_eq!(out, m);
        prop_assert!((p - p_naive).abs() < 1e-9, "prob {} vs naive {}", p, p_naive);
        let rest: Vec<QubitId> = order().iter().copied().filter(|&x| x != id).collect();
        assert_close(&st.aligned(&rest), &expect, 1e-9)?;
    }

    /// `add_qubit` (ping-pong grow) and the fused `add_plus_cz` match
    /// the naive tensor-product reference.
    #[test]
    fn prop_grow_matches_naive(st in arb_state(), p in 0u64..4, which in 0u8..2) {
        let v = st.aligned(&order());
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let mut new_order: Vec<QubitId> = order().to_vec();
        new_order.push(q(9));
        let mut st = st;
        let expect = if which == 0 {
            let init = [C64::real(0.6), C64::new(0.0, 0.8)];
            st.add_qubit(q(9), init);
            naive_grow(&v, init)
        } else {
            st.add_plus_cz(q(9), q(p));
            let mut w = naive_grow(&v, [C64::real(s), C64::real(s)]);
            // In the grown 5-qubit space the new qubit is bit 0 and old
            // position k sits at bit offset N−k.
            naive_cz(&mut w, N - p as usize, 0);
            w
        };
        assert_close(&st.aligned(&new_order), &expect, 0.0)?;
    }

    /// The fused J-step (`teleport_measure`) equals the unfused
    /// prep → CZ → measure reference, branch probability ½ included.
    #[test]
    fn prop_teleport_matches_unfused(
        st in arb_state(),
        theta in -3.1f64..3.1,
        kw in 0usize..4,
        m in 0u8..2,
    ) {
        let basis = MeasBasis::xy(theta);
        let v = st.aligned(&order());
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let mut w = naive_grow(&v, [C64::real(s), C64::real(s)]);
        naive_cz(&mut w, N - kw, 0);
        // Wire position kw in the grown 5-qubit register keeps index kw.
        let (expect, p_naive) = naive_measure(&w, N + 1, kw, &basis, m);
        let mut st = st;
        let wire = order()[kw];
        let mut rng = StdRng::seed_from_u64(2);
        let (out, p) = st.teleport_measure(wire, q(9), &basis, Some(m), &mut rng);
        prop_assert_eq!(out, m);
        prop_assert!((p - p_naive).abs() < 1e-9, "prob {} vs naive {}", p, p_naive);
        let mut rest: Vec<QubitId> = order().iter().copied().filter(|&x| x != wire).collect();
        rest.push(q(9));
        assert_close(&st.aligned(&rest), &expect, 1e-9)?;
    }

    /// The fused phase gadget (`gadget_measure`) equals the unfused
    /// prep → CZ… → measure reference on every partner subset.
    #[test]
    fn prop_gadget_matches_unfused(
        st in arb_state(),
        theta in -3.1f64..3.1,
        partner_mask in 1usize..16,
        m in 0u8..2,
    ) {
        let basis = MeasBasis::yz(theta);
        let v = st.aligned(&order());
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let mut w = naive_grow(&v, [C64::real(s), C64::real(s)]);
        let partners: Vec<QubitId> = (0..N)
            .filter(|k| partner_mask >> k & 1 == 1)
            .map(|k| order()[k])
            .collect();
        for k in 0..N {
            if partner_mask >> k & 1 == 1 {
                naive_cz(&mut w, N - k, 0);
            }
        }
        // The ancilla is position N (lsb) of the grown register.
        let (expect, p_naive) = naive_measure(&w, N + 1, N, &basis, m);
        let mut st = st;
        let mut rng = StdRng::seed_from_u64(3);
        let (out, p) = st.gadget_measure(&partners, &basis, Some(m), &mut rng);
        prop_assert_eq!(out, m);
        prop_assert!((p - p_naive).abs() < 1e-9, "prob {} vs naive {}", p, p_naive);
        assert_close(&st.aligned(&order()), &expect, 1e-9)?;
    }

    /// The permutation-folded `expectation_diag` (identity fast path and
    /// general permutation) matches the aligned-then-zip reference.
    #[test]
    fn prop_expectation_diag_matches_naive(
        st in arb_state(),
        cost in proptest::collection::vec(-5.0f64..5.0, 16..17),
        seed in 0u64..24,
    ) {
        // A permutation of the register drawn from the seed.
        let mut perm: Vec<usize> = (0..N).collect();
        let mut x = seed;
        for i in (1..N).rev() {
            perm.swap(i, (x % (i as u64 + 1)) as usize);
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        let ord: Vec<QubitId> = perm.iter().map(|&i| order()[i]).collect();
        let aligned = st.aligned(&ord);
        let reference: f64 = aligned
            .iter()
            .zip(&cost)
            .map(|(z, &c)| z.norm_sqr() * c)
            .sum();
        let got = st.expectation_diag(&ord, &cost);
        prop_assert!((got - reference).abs() < 1e-9, "{} vs {}", got, reference);
    }
}

/// `aligned` in register order is exactly the raw amplitude vector
/// (the identity-permutation fast path).
#[test]
fn aligned_identity_fast_path_is_exact() {
    let mut st = State::plus(&order());
    let mut c = Circuit::new();
    c.extend([
        Gate::Rz(q(0), 0.3),
        Gate::Cz(q(0), q(2)),
        Gate::Rx(q(3), 1.1),
    ]);
    c.run(&mut st);
    let reg: Vec<QubitId> = st.qubit_ids().to_vec();
    assert_eq!(st.aligned(&reg), st.amplitudes());
}

/// Every rewritten kernel on a 13-qubit register (2^13 amplitudes) —
/// the proptest cases above all run 16-amplitude states, so without
/// this test a regression confined to the index arithmetic of high bit
/// positions and long strides would ship green.
#[test]
fn parallel_kernel_branches_match_naive_at_2pow13() {
    const NN: usize = 13;
    let ids: Vec<QubitId> = (0..NN as u64).map(q).collect();
    let mut st = State::plus(&ids);
    let mut c = Circuit::new();
    for i in 0..NN as u64 {
        c.push(Gate::Rz(q(i), 0.21 * i as f64 + 0.13));
        c.push(Gate::Rzz(
            q(i),
            q((i + 3) % NN as u64),
            0.17 * i as f64 - 0.4,
        ));
    }
    c.run(&mut st);

    // CZ run-walk kernel.
    let mut v = st.aligned(&ids);
    naive_cz(&mut v, NN - 1 - 2, NN - 1 - 9);
    st.apply_cz(q(2), q(9));
    assert_eq!(st.aligned(&ids), v, "parallel CZ");

    // Specialized X/Z kernels.
    let mut by_x = st.clone();
    by_x.apply_x(q(5));
    let mut gen_x = st.clone();
    gen_x.apply_u2(q(5), [C64::ZERO, C64::ONE, C64::ONE, C64::ZERO]);
    assert_eq!(by_x.aligned(&ids), gen_x.aligned(&ids), "parallel X");
    let mut by_z = st.clone();
    by_z.apply_z(q(7));
    let mut gen_z = st.clone();
    gen_z.apply_u2(q(7), [C64::ONE, C64::ZERO, C64::ZERO, -C64::ONE]);
    assert_eq!(by_z.aligned(&ids), gen_z.aligned(&ids), "parallel Z");

    // Fused grow (add_plus_cz) and the fused node kernels, all at
    // 2^13 → 2^14 → 2^13 amplitude dimensions.
    let mut grown_order = ids.clone();
    grown_order.push(q(99));
    let s = std::f64::consts::FRAC_1_SQRT_2;
    let before = st.aligned(&ids);
    let mut by_fused = st.clone();
    by_fused.add_plus_cz(q(99), q(4));
    let mut w = naive_grow(&before, [C64::real(s), C64::real(s)]);
    naive_cz(&mut w, NN - 4, 0);
    assert_eq!(by_fused.aligned(&grown_order), w, "parallel add_plus_cz");

    let mut rng = StdRng::seed_from_u64(17);
    for (kw, m, theta) in [(0usize, 0u8, 0.7), (6, 1, -1.2), (NN - 1, 1, 2.3)] {
        let basis = MeasBasis::xy(theta);
        let mut w = naive_grow(&before, [C64::real(s), C64::real(s)]);
        naive_cz(&mut w, NN - kw, 0);
        let (expect, p_naive) = naive_measure(&w, NN + 1, kw, &basis, m);
        let mut by_fused = st.clone();
        let (out, p) = by_fused.teleport_measure(ids[kw], q(99), &basis, Some(m), &mut rng);
        assert_eq!(out, m);
        assert!((p - p_naive).abs() < 1e-9);
        let mut rest: Vec<QubitId> = ids.iter().copied().filter(|&x| x != ids[kw]).collect();
        rest.push(q(99));
        let got = by_fused.aligned(&rest);
        for (x, y) in got.iter().zip(&expect) {
            assert!(x.approx_eq(*y, 1e-9), "parallel teleport kw={kw} m={m}");
        }
    }

    for (partner_mask, m, theta) in [(0b1_0011usize, 0u8, 0.9), (0b10_0100, 1, -0.8)] {
        let basis = MeasBasis::yz(theta);
        let mut w = naive_grow(&before, [C64::real(s), C64::real(s)]);
        let partners: Vec<QubitId> = (0..NN)
            .filter(|k| partner_mask >> k & 1 == 1)
            .map(|k| ids[k])
            .collect();
        for k in 0..NN {
            if partner_mask >> k & 1 == 1 {
                naive_cz(&mut w, NN - k, 0);
            }
        }
        let (expect, p_naive) = naive_measure(&w, NN + 1, NN, &basis, m);
        let mut by_fused = st.clone();
        let (out, p) = by_fused.gadget_measure(&partners, &basis, Some(m), &mut rng);
        assert_eq!(out, m);
        assert!((p - p_naive).abs() < 1e-9);
        let got = by_fused.aligned(&ids);
        for (x, y) in got.iter().zip(&expect) {
            assert!(
                x.approx_eq(*y, 1e-9),
                "parallel gadget mask={partner_mask:b}"
            );
        }
    }

    // Generic dual-projection measure_remove and permutation-folded
    // expectation_diag at 2^13.
    let basis = MeasBasis::xz(0.61);
    let v = st.aligned(&ids);
    let (expect, p_naive) = naive_measure(&v, NN, 3, &basis, 1);
    let mut by_meas = st.clone();
    let (out, p) = by_meas.measure_remove(ids[3], &basis, Some(1), &mut rng);
    assert_eq!(out, 1);
    assert!((p - p_naive).abs() < 1e-9);
    let rest: Vec<QubitId> = ids.iter().copied().filter(|&x| x != ids[3]).collect();
    let got = by_meas.aligned(&rest);
    for (x, y) in got.iter().zip(&expect) {
        assert!(x.approx_eq(*y, 1e-9), "parallel measure_remove");
    }

    let mut perm_order = ids.clone();
    perm_order.swap(0, 8);
    perm_order.swap(3, 11);
    let cost: Vec<f64> = (0..1usize << NN).map(|i| (i % 17) as f64 - 8.0).collect();
    let aligned = st.aligned(&perm_order);
    let reference: f64 = aligned
        .iter()
        .zip(&cost)
        .map(|(z, &cc)| z.norm_sqr() * cc)
        .sum();
    let got = st.expectation_diag(&perm_order, &cost);
    assert!(
        (got - reference).abs() < 1e-9,
        "parallel expectation_diag: {got} vs {reference}"
    );
}

/// `State::reset` + reuse behaves exactly like a fresh register.
#[test]
fn reset_state_equals_fresh() {
    let mut reused = State::plus(&order());
    reused.apply_cz(q(0), q(1));
    let mut rng = StdRng::seed_from_u64(9);
    let _ = reused.measure_remove(q(2), &MeasBasis::xy(0.4), None, &mut rng);
    reused.reset();
    for i in 0..3u64 {
        reused.add_plus(q(i));
    }
    reused.apply_cz(q(0), q(2));
    let mut fresh = State::plus(&[q(0), q(1), q(2)]);
    fresh.apply_cz(q(0), q(2));
    assert_eq!(
        reused.aligned(&[q(0), q(1), q(2)]),
        fresh.aligned(&[q(0), q(1), q(2)])
    );
}
