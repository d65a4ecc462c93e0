//! Property tests for the measurement calculus: standard J-chains are
//! deterministic for arbitrary angles, schedules never change
//! semantics, and gflow-synthesized patterns measure in a valid,
//! reproducible gflow order.

use mbqao_mbqc::determinism::check_determinism;
use mbqao_mbqc::gflow::find_gflow;
use mbqao_mbqc::reimport::{GraphMeasurement, GraphPatternSpec};
use mbqao_mbqc::schedule::{just_in_time, resource_state_first};
use mbqao_mbqc::simulate::{run_with_input, Branch};
use mbqao_mbqc::{Angle, Command, Pattern, Pauli, Plane, Signal};
use mbqao_sim::{QubitId, State};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn q(i: u64) -> QubitId {
    QubitId::new(i)
}

/// The standard 1D-cluster J-chain with flow corrections: measurement `i`
/// at angle `θᵢ` with `s = m_{i−1}`, `t = m_{i−2}`; final X/Z corrections.
fn j_chain(angles: &[f64]) -> Pattern {
    let len = angles.len();
    let mut p = Pattern::new(vec![q(0)], 0);
    let mut prev: Option<mbqao_mbqc::OutcomeId> = None;
    let mut prev_prev: Option<mbqao_mbqc::OutcomeId> = None;
    for (i, &theta) in angles.iter().enumerate() {
        p.prep_plus(q(i as u64 + 1));
        p.entangle(q(i as u64), q(i as u64 + 1));
        let s = prev.map(Signal::var).unwrap_or_default();
        let t = prev_prev.map(Signal::var).unwrap_or_default();
        let m = p.measure(q(i as u64), Plane::XY, Angle::constant(theta), s, t);
        prev_prev = prev;
        prev = Some(m);
    }
    if let Some(m) = prev {
        p.correct(q(len as u64), Pauli::X, Signal::var(m));
    }
    if let Some(m) = prev_prev {
        p.correct(q(len as u64), Pauli::Z, Signal::var(m));
    }
    p.set_outputs(vec![q(len as u64)]);
    p.validate().expect("chain is well-formed");
    p
}

/// Most vertices of a random spec; specs with more than
/// [`MAX_MEASURED`] measured vertices are rejected.
const MAX_NODES: usize = 10;
/// Measured-vertex cap: `check_determinism` enumerates `2^k` branches.
const MAX_MEASURED: usize = 8;

/// Builds a spec on the first `n` vertices: role 0 is an output, roles
/// 1–3 measure in XY / YZ / XZ; pair `(a, b)` is an edge when its bit is
/// set.
fn random_spec(n: usize, roles: &[(u8, f64)], edge_bits: &[bool]) -> GraphPatternSpec {
    let mut edges = Vec::new();
    let mut bit = edge_bits.iter();
    for a in 0..MAX_NODES {
        for b in a + 1..MAX_NODES {
            if *bit.next().expect("one bit per pair") && b < n {
                edges.push((a, b));
            }
        }
    }
    let mut measures = Vec::new();
    let mut outputs = Vec::new();
    for (node, &(role, angle)) in roles[..n].iter().enumerate() {
        let plane = match role {
            0 => {
                outputs.push(node);
                continue;
            }
            1 => Plane::XY,
            2 => Plane::YZ,
            _ => Plane::XZ,
        };
        measures.push(GraphMeasurement {
            node,
            plane,
            angle: Angle::constant(angle),
        });
    }
    GraphPatternSpec {
        nodes: n,
        edges,
        measures,
        outputs,
        n_params: 0,
    }
}

/// Random small specs that admit a gflow.
fn flowing_spec() -> impl Strategy<Value = GraphPatternSpec> {
    (
        2usize..MAX_NODES + 1,
        proptest::collection::vec((0u8..4, -3.1f64..3.1), MAX_NODES..MAX_NODES + 1),
        proptest::collection::vec(
            proptest::bool::ANY,
            MAX_NODES * (MAX_NODES - 1) / 2..MAX_NODES * (MAX_NODES - 1) / 2 + 1,
        ),
    )
        .prop_map(|(n, roles, edge_bits)| random_spec(n, &roles, &edge_bits))
        .prop_filter("a gflow over at most 8 measured vertices", |spec| {
            !spec.outputs.is_empty()
                && spec.measures.len() <= MAX_MEASURED
                && find_gflow(&spec.open_graph()).is_some()
        })
}

proptest! {
    /// A gflow-synthesized pattern measures in a linear extension of the
    /// gflow relation (`u` before every measured `w ∈ (g(u) ∪
    /// Odd(g(u)))∖{u}`), is strongly deterministic, and comes out
    /// byte-identical on every call.
    #[test]
    fn prop_deterministic_pattern_measures_in_a_gflow_order(spec in flowing_spec()) {
        let og = spec.open_graph();
        let flow = find_gflow(&og).expect("filtered for gflow");
        let (p, _) = spec.to_deterministic_pattern().expect("filtered for gflow");

        let position: HashMap<u64, usize> = p
            .commands()
            .iter()
            .filter_map(|c| match c {
                Command::Measure { q, .. } => Some(q.0),
                _ => None,
            })
            .enumerate()
            .map(|(i, q)| (q, i))
            .collect();
        prop_assert_eq!(position.len(), spec.measures.len());
        for (&u, k) in &flow.g {
            let mut owed = og.odd_neighborhood(k);
            for c in k.iter_ones() {
                owed.set(c, true);
            }
            for w in owed.iter_ones().filter(|&w| w != u && !og.outputs().get(w)) {
                prop_assert!(
                    position[&(u as u64)] < position[&(w as u64)],
                    "{u} must be measured before {w}: {spec:?}"
                );
            }
        }

        let report = check_determinism(&p, &State::new(), &[], 1e-8);
        prop_assert!(report.deterministic, "{report:?} for {spec:?}");

        let (again, _) = spec.to_deterministic_pattern().expect("filtered for gflow");
        prop_assert_eq!(format!("{p:?}"), format!("{again:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary-angle J-chains are strongly deterministic.
    #[test]
    fn prop_j_chain_deterministic(
        angles in proptest::collection::vec(-3.1f64..3.1, 1..6),
        rx in -1.5f64..1.5,
    ) {
        let p = j_chain(&angles);
        let mut input = State::zeros(&[q(0)]);
        input.apply_rx(q(0), rx);
        let report = check_determinism(&p, &input, &[], 1e-8);
        prop_assert!(report.deterministic, "{report:?}");
    }

    /// The chain implements the product of J(−θᵢ) maps.
    #[test]
    fn prop_j_chain_semantics(
        angles in proptest::collection::vec(-3.1f64..3.1, 1..5),
        rx in -1.5f64..1.5,
    ) {
        let p = j_chain(&angles);
        let mut input = State::zeros(&[q(0)]);
        input.apply_rx(q(0), rx);

        // Reference: measuring at θ implements J(−θ) = H·Rz(−θ).
        let mut reference = input.clone();
        for &theta in &angles {
            reference.apply_rz(q(0), -theta);
            reference.apply_h(q(0));
        }
        let want = reference.aligned(&[q(0)]);

        let mut rng = StdRng::seed_from_u64(9);
        let r = run_with_input(&p, input, &[], Branch::Random, &mut rng);
        prop_assert!(r.state.approx_eq_up_to_phase(
            &[q(angles.len() as u64)],
            &want,
            1e-8
        ));
    }

    /// JIT and resource-state-first schedules agree with the original on
    /// the all-zero branch.
    #[test]
    fn prop_schedules_preserve_branch0(
        angles in proptest::collection::vec(-3.1f64..3.1, 1..5),
    ) {
        let p = j_chain(&angles);
        let out = q(angles.len() as u64);
        let variants = [just_in_time(&p), resource_state_first(&p)];
        let bits = vec![0u8; angles.len()];
        let mut rng = StdRng::seed_from_u64(1);
        let input = State::zeros(&[q(0)]);
        let base = run_with_input(&p, input.clone(), &[], Branch::Forced(&bits), &mut rng);
        for v in &variants {
            v.validate().expect("schedule output validates");
            let mut rng = StdRng::seed_from_u64(1);
            let r = run_with_input(v, input.clone(), &[], Branch::Forced(&bits), &mut rng);
            let fid = base.state.fidelity(&r.state, &[out]);
            prop_assert!((fid - 1.0).abs() < 1e-9);
        }
    }
}
