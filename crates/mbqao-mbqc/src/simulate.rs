//! Pattern execution on the statevector simulator.

use crate::command::{Command, Pauli, PrepState};
use crate::pattern::Pattern;
use crate::plane::Plane;
use crate::signal::{OutcomeId, Signal};
use mbqao_sim::State;
use rand::Rng;

/// How measurement outcomes are chosen during a run.
#[derive(Debug, Clone, Copy)]
pub enum Branch<'a> {
    /// Sample outcomes from the Born rule.
    Random,
    /// Force the `i`-th measurement to outcome `bits[i]` (branch
    /// enumeration; the run reports the branch's true probability).
    Forced(&'a [u8]),
}

/// Result of executing a pattern.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Final state over the pattern's output qubits.
    pub state: State,
    /// Measurement outcomes, indexed by [`OutcomeId`].
    pub outcomes: Vec<u8>,
    /// Joint probability of the realized branch.
    pub probability: f64,
}

/// Reusable pattern-execution context.
///
/// Holds the register (whose one amplitude buffer is the expensive
/// part) and the outcome bookkeeping, so loops that execute patterns
/// thousands of times amortize every allocation: once the buffer has
/// reached the widest register run so far, a run allocates nothing.
#[derive(Debug, Default)]
pub struct PatternRunner {
    state: State,
    outcomes: Vec<u8>,
    measured: Vec<bool>,
    /// Partners of the phase gadget or J-step being fused.
    partners: Vec<mbqao_sim::QubitId>,
}

impl PatternRunner {
    /// An empty context (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Executes a self-contained pattern (no inputs) in place, reusing
    /// this runner's buffers. Returns the branch's joint probability;
    /// [`PatternRunner::outcomes`] and [`PatternRunner::state`] hold the
    /// rest of the result until the next run.
    ///
    /// # Panics
    /// As [`run_with_input`].
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        pattern: &Pattern,
        params: &[f64],
        branch: Branch<'_>,
        rng: &mut R,
    ) -> f64 {
        self.state.reset();
        self.execute(pattern, params, branch, rng)
    }

    /// As [`PatternRunner::run`], seeding the register from `input`
    /// (copied into the reusable buffers).
    ///
    /// # Panics
    /// As [`run_with_input`].
    pub fn run_with_input<R: Rng + ?Sized>(
        &mut self,
        pattern: &Pattern,
        input: &State,
        params: &[f64],
        branch: Branch<'_>,
        rng: &mut R,
    ) -> f64 {
        self.state.clone_from(input);
        self.execute(pattern, params, branch, rng)
    }

    /// Measurement outcomes of the last run, indexed by [`OutcomeId`].
    pub fn outcomes(&self) -> &[u8] {
        &self.outcomes
    }

    /// Final state of the last run (over the pattern's output qubits).
    pub fn state(&self) -> &State {
        &self.state
    }

    fn execute<R: Rng + ?Sized>(
        &mut self,
        pattern: &Pattern,
        params: &[f64],
        branch: Branch<'_>,
        rng: &mut R,
    ) -> f64 {
        assert!(
            params.len() >= pattern.n_params(),
            "pattern needs {} params, got {}",
            pattern.n_params(),
            params.len()
        );
        {
            let mut have: Vec<_> = self.state.qubit_ids().to_vec();
            let mut want: Vec<_> = pattern.inputs().to_vec();
            have.sort_unstable();
            want.sort_unstable();
            assert_eq!(
                have, want,
                "input state must cover exactly the pattern inputs"
            );
        }

        let state = &mut self.state;
        let n_out = pattern.n_outcomes() as usize;
        self.outcomes.clear();
        self.outcomes.resize(n_out, 0);
        self.measured.clear();
        self.measured.resize(n_out, false);
        let outcomes = &mut self.outcomes;
        let measured = &mut self.measured;
        let mut probability = 1.0f64;
        let mut meas_counter = 0usize;

        let lookup = |outcomes: &[u8], measured: &[bool], sig: &Signal| -> bool {
            sig.eval(&|OutcomeId(i)| {
                assert!(measured[i as usize], "signal reads unmeasured outcome m{i}");
                outcomes[i as usize] == 1
            })
        };

        let commands = pattern.commands();
        let mut ci = 0usize;
        let partners = &mut self.partners;
        while ci < commands.len() {
            let mut c = &commands[ci];
            ci += 1;
            let mut kernel = Kernel::Plain;
            if let Command::Prep {
                q,
                state: PrepState::Plus,
            } = c
            {
                // Fusion peepholes over the canonical MBQC node shapes
                // (all mathematically exact — see the `State` docs of the
                // fused kernels):
                //
                // * `prep a · E(a,p)… · M_YZ(a)` — the phase gadget: one
                //   diagonal in-place pass, the ancilla never enters the
                //   register.
                // * `prep a · E(a,w) · M_XY(w)` — the J-step teleport:
                //   one in-place butterfly pass at constant dimension,
                //   the ancilla takes the wire's register position.
                // * `prep a · E(a,p)` — fused grow+CZ pass.
                let mut j = ci;
                partners.clear();
                while let Some(Command::Entangle { a, b }) = commands.get(j) {
                    let p = if a == q {
                        b
                    } else if b == q {
                        a
                    } else {
                        break;
                    };
                    if !state.contains(*p) {
                        break;
                    }
                    partners.push(*p);
                    j += 1;
                }
                match commands.get(j) {
                    Some(m @ Command::Measure { q: mq, plane, .. })
                        if *plane == Plane::YZ && mq == q =>
                    {
                        (c, kernel, ci) = (m, Kernel::Gadget, j + 1);
                    }
                    Some(m @ Command::Measure { q: mq, plane, .. })
                        if *plane == Plane::XY && partners.len() == 1 && *mq == partners[0] =>
                    {
                        (c, kernel, ci) = (m, Kernel::Teleport(*q), j + 1);
                    }
                    _ if !partners.is_empty() => {
                        state.add_plus_cz(*q, partners[0]);
                        ci += 1;
                        continue;
                    }
                    _ => {}
                }
            }
            match c {
                Command::Prep { q, state: ps } => match ps {
                    PrepState::Plus => state.add_plus(*q),
                    PrepState::Zero => {
                        state.add_qubit(*q, [mbqao_math::C64::ONE, mbqao_math::C64::ZERO])
                    }
                },
                Command::Entangle { a, b } => state.apply_cz(*a, *b),
                Command::Measure {
                    q,
                    plane,
                    angle,
                    s,
                    t,
                    out,
                } => {
                    // The adapted angle `(−1)^s θ + tπ`.
                    let mut theta = angle.eval(params);
                    if lookup(outcomes, measured, s) {
                        theta = -theta;
                    }
                    if lookup(outcomes, measured, t) {
                        theta += std::f64::consts::PI;
                    }
                    let basis = plane.basis(theta);
                    let forced = match branch {
                        Branch::Random => None,
                        Branch::Forced(bits) => Some(bits[meas_counter]),
                    };
                    let (m, pr) = match kernel {
                        Kernel::Plain => state.measure_remove(*q, &basis, forced, rng),
                        Kernel::Gadget => state.gadget_measure(partners, &basis, forced, rng),
                        Kernel::Teleport(anc) => {
                            state.teleport_measure(partners[0], anc, &basis, forced, rng)
                        }
                    };
                    outcomes[out.0 as usize] = m;
                    measured[out.0 as usize] = true;
                    probability *= pr;
                    meas_counter += 1;
                }
                Command::Correct { q, pauli, cond } => {
                    if lookup(outcomes, measured, cond) {
                        match pauli {
                            Pauli::X => state.apply_x(*q),
                            Pauli::Z => state.apply_z(*q),
                        }
                    }
                }
            }
        }
        probability
    }
}

/// The kernel that runs a measurement in [`PatternRunner::execute`]:
/// `measure_remove`, or a fused node cycle that the peephole matched.
enum Kernel {
    /// `measure_remove` of the measured qubit.
    Plain,
    /// `gadget_measure` of the prepared ancilla against its partners.
    Gadget,
    /// `teleport_measure` of the one partner onto this ancilla.
    Teleport(mbqao_sim::QubitId),
}

/// Executes `pattern` starting from `input` (a state over exactly the
/// pattern's input qubits; use [`State::new`] when the pattern has none).
///
/// `params` binds the pattern's free angle parameters (`γ`s and `β`s for
/// QAOA patterns).
///
/// One-shot convenience over [`PatternRunner`] — shot loops should hold
/// a runner instead to amortize the buffer allocations.
///
/// # Panics
/// Panics when the input state doesn't match the pattern's inputs, when
/// `params` is shorter than `n_params`, or when a forced branch has
/// probability ≈ 0.
pub fn run_with_input<R: Rng + ?Sized>(
    pattern: &Pattern,
    input: State,
    params: &[f64],
    branch: Branch<'_>,
    rng: &mut R,
) -> RunResult {
    let mut runner = PatternRunner {
        state: input,
        ..PatternRunner::default()
    };
    let probability = runner.execute(pattern, params, branch, rng);
    RunResult {
        state: runner.state,
        outcomes: runner.outcomes,
        probability,
    }
}

/// Executes a self-contained pattern (no inputs).
pub fn run<R: Rng + ?Sized>(
    pattern: &Pattern,
    params: &[f64],
    branch: Branch<'_>,
    rng: &mut R,
) -> RunResult {
    run_with_input(pattern, State::new(), params, branch, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Angle;
    use crate::plane::Plane;
    use crate::signal::Signal;
    use mbqao_math::C64;
    use mbqao_sim::QubitId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn q(i: u64) -> QubitId {
        QubitId::new(i)
    }

    /// J(θ) = H·Rz(θ): measure input at −θ, X-correct.
    fn j_pattern(theta: f64) -> Pattern {
        let mut p = Pattern::new(vec![q(0)], 0);
        p.prep_plus(q(1));
        p.entangle(q(0), q(1));
        let m = p.measure(
            q(0),
            Plane::XY,
            Angle::constant(-theta),
            Signal::zero(),
            Signal::zero(),
        );
        p.correct(q(1), crate::command::Pauli::X, Signal::var(m));
        p.set_outputs(vec![q(1)]);
        p.validate().expect("valid");
        p
    }

    #[test]
    fn j_step_implements_h_rz_on_both_branches() {
        let theta = 0.731;
        let pattern = j_pattern(theta);
        // Input: arbitrary state a|0⟩+b|1⟩.
        let mk_input = || {
            let mut st = State::zeros(&[q(0)]);
            st.apply_rx(q(0), 0.9);
            st.apply_rz(q(0), -0.4);
            st
        };
        // Reference: J(θ)|ψ⟩ = H Rz(θ) |ψ⟩.
        let mut reference = mk_input();
        reference.apply_rz(q(0), theta);
        reference.apply_h(q(0));
        let ref_dense = reference.aligned(&[q(0)]);

        for branch in [[0u8], [1u8]] {
            let mut rng = StdRng::seed_from_u64(1);
            let r = run_with_input(&pattern, mk_input(), &[], Branch::Forced(&branch), &mut rng);
            assert!(
                r.state.approx_eq_up_to_phase(&[q(1)], &ref_dense, 1e-9),
                "branch {branch:?} does not implement J(θ)"
            );
            assert!((r.probability - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn two_j_steps_compose_rx() {
        // J(β)∘J(0) = H Rz(β) H Rz(0) = Rx(β).
        let beta = 1.234;
        let mut p = Pattern::new(vec![q(0)], 0);
        p.prep_plus(q(1));
        p.entangle(q(0), q(1));
        let m0 = p.measure(
            q(0),
            Plane::XY,
            Angle::constant(0.0),
            Signal::zero(),
            Signal::zero(),
        );
        p.prep_plus(q(2));
        p.entangle(q(1), q(2));
        // Second measurement: base angle −β; X^{m0} byproduct on q1 folds
        // into the s-domain.
        let m1 = p.measure(
            q(1),
            Plane::XY,
            Angle::constant(-beta),
            Signal::var(m0),
            Signal::zero(),
        );
        // Byproducts on the output: X^{m1} and Z^{m0}.
        p.correct(q(2), crate::command::Pauli::X, Signal::var(m1));
        p.correct(q(2), crate::command::Pauli::Z, Signal::var(m0));
        p.set_outputs(vec![q(2)]);
        p.validate().expect("valid");

        let mk_input = || {
            let mut st = State::zeros(&[q(0)]);
            st.apply_rx(q(0), 0.3);
            st.apply_rz(q(0), 1.1);
            st
        };
        let mut reference = mk_input();
        reference.apply_rx(q(0), beta);
        let ref_dense = reference.aligned(&[q(0)]);

        for b0 in 0..2u8 {
            for b1 in 0..2u8 {
                let mut rng = StdRng::seed_from_u64(1);
                let r = run_with_input(&p, mk_input(), &[], Branch::Forced(&[b0, b1]), &mut rng);
                assert!(
                    r.state.approx_eq_up_to_phase(&[q(2)], &ref_dense, 1e-9),
                    "branch ({b0},{b1}) wrong"
                );
                assert!((r.probability - 0.25).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn yz_gadget_implements_zz_rotation() {
        // e^{iγ Z_u Z_v}: ancilla CZ-coupled to u,v measured in YZ(−2γ),
        // Z^m corrections on both wires (DESIGN.md §3.2).
        let gamma = 0.813;
        let mut p = Pattern::new(vec![q(0), q(1)], 0);
        p.prep_plus(q(2));
        p.entangle(q(2), q(0));
        p.entangle(q(2), q(1));
        let m = p.measure(
            q(2),
            Plane::YZ,
            Angle::constant(-2.0 * gamma),
            Signal::zero(),
            Signal::zero(),
        );
        p.correct(q(0), crate::command::Pauli::Z, Signal::var(m));
        p.correct(q(1), crate::command::Pauli::Z, Signal::var(m));
        p.set_outputs(vec![q(0), q(1)]);
        p.validate().expect("valid");

        let mk_input = || {
            let mut st = State::plus(&[q(0), q(1)]);
            st.apply_rz(q(0), 0.37);
            st.apply_rx(q(1), -0.9);
            st
        };
        let mut reference = mk_input();
        reference.apply_exp_zz(&[q(0), q(1)], gamma);
        let ref_dense = reference.aligned(&[q(0), q(1)]);

        for b in 0..2u8 {
            let mut rng = StdRng::seed_from_u64(3);
            let r = run_with_input(&p, mk_input(), &[], Branch::Forced(&[b]), &mut rng);
            assert!(
                r.state
                    .approx_eq_up_to_phase(&[q(0), q(1)], &ref_dense, 1e-9),
                "branch {b} of the ZZ gadget is wrong"
            );
            assert!(
                (r.probability - 0.5).abs() < 1e-9,
                "branch prob not uniform"
            );
        }
    }

    #[test]
    fn parameterized_angle_binding() {
        // Same J pattern but with θ as a parameter.
        let mut p = Pattern::new(vec![q(0)], 1);
        p.prep_plus(q(1));
        p.entangle(q(0), q(1));
        let m = p.measure(
            q(0),
            Plane::XY,
            Angle::param(-1.0, crate::command::ParamId(0)),
            Signal::zero(),
            Signal::zero(),
        );
        p.correct(q(1), crate::command::Pauli::X, Signal::var(m));
        p.set_outputs(vec![q(1)]);

        let theta = 2.02;
        let mut reference = State::zeros(&[q(0)]);
        reference.apply_rz(q(0), theta);
        reference.apply_h(q(0));
        let ref_dense = reference.aligned(&[q(0)]);

        let mut rng = StdRng::seed_from_u64(9);
        let r = run_with_input(
            &p,
            State::zeros(&[q(0)]),
            &[theta],
            Branch::Random,
            &mut rng,
        );
        assert!(r.state.approx_eq_up_to_phase(&[q(1)], &ref_dense, 1e-9));
    }

    #[test]
    #[should_panic(expected = "params")]
    fn missing_params_panics() {
        let mut p = Pattern::new(vec![], 2);
        p.prep_plus(q(0));
        p.set_outputs(vec![q(0)]);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = run(&p, &[0.1], Branch::Random, &mut rng);
    }

    #[test]
    fn run_self_contained_graph_state() {
        // Pattern preparing a 2-qubit graph state |+⟩|+⟩ → CZ.
        let mut p = Pattern::new(vec![], 0);
        p.prep_plus(q(0));
        p.prep_plus(q(1));
        p.entangle(q(0), q(1));
        p.set_outputs(vec![q(0), q(1)]);
        let mut rng = StdRng::seed_from_u64(0);
        let r = run(&p, &[], Branch::Random, &mut rng);
        let h = 0.5;
        let expect = [C64::real(h), C64::real(h), C64::real(h), C64::real(-h)];
        assert!(r.state.approx_eq_up_to_phase(&[q(0), q(1)], &expect, 1e-9));
    }
}
