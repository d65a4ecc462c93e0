//! The Clifford fast-path pattern executor.
//!
//! Runs a compiled measurement pattern with its Clifford bulk — `|+⟩`
//! preparations, CZ entanglers, Pauli corrections, and every
//! measurement whose adapted angle lands on a Pauli axis — as
//! [`Tableau`] updates. The tableau is only as wide as the live
//! register: a qubit takes a column at its `Prep`, and a Pauli
//! measurement resets the column to `|0⟩` ([`Tableau::reset`]) and
//! hands it to the next `Prep`, so `N` is the peak of live plus pinned
//! columns ([`PatternRun::width`]), not the pattern's total qubit
//! count. The few non-Clifford measurements do *not*
//! collapse the representation: because a measured qubit is dead for
//! the rest of the pattern, its projector commutes with everything
//! that follows, so each non-Clifford measurement just parks a rank-1
//! projector
//!
//! ```text
//!     B = ½ · (I + (−1)^m (cos θ · P₁ + sin θ · P₂))
//! ```
//!
//! on the *pending* list (`P₁, P₂` the plane's Pauli axes), and its
//! column stays pinned. Every physical quantity of the projected state
//! is then a ratio of the weighted functionals `R(P) = ⟨Ψ|B₁⋯B_k·P|Ψ⟩`,
//! which expand into at most `3^k` stabilizer Pauli expectations —
//! exact Born weights, no sampling error, cost capped by the
//! non-Clifford count `k` instead of `2^n`. See `docs/TABLEAU.md` for
//! the full semantics, including the deterministic-measurement rule,
//! column recycling and the branch-tree average
//! [`branch_tree_expectation`].

use crate::pauli::PauliString;
use crate::tableau::Tableau;
use mbqao_mbqc::classify::{classify_pattern, Axis, CliffordObs};
use mbqao_mbqc::command::Command;
use mbqao_mbqc::{Pattern, Pauli, Plane, PrepState, Signal};
use mbqao_sim::QubitId;
use rand::{Rng, RngCore};
use std::collections::HashMap;

/// Largest non-Clifford measurement count the expectation path
/// accepts: the pending-projector expansion has `3^k` terms, so `k = 9`
/// caps it at 19 683 stabilizer expectations per functional. Backends
/// fall back to dense statevector execution above this.
pub const MAX_MAGIC_EXPECTATION: usize = 9;

/// Largest non-Clifford count for per-shot tableau sampling (the
/// expansion re-evaluates at every measurement of every shot).
pub const MAX_MAGIC_SAMPLING: usize = 6;

/// Largest non-Clifford count [`branch_tree_expectation`] enumerates
/// (`2^k` branches, each a full pattern walk).
pub const MAX_MAGIC_TREE: usize = 10;

/// One pending non-Clifford projector `½(I + c₁P₁ + c₂P₂)` on a dead
/// qubit (`c` coefficients carry the `(−1)^m` of the recorded outcome).
#[derive(Debug, Clone, Copy)]
struct MagicProj {
    col: usize,
    terms: [MagicTerm; 2],
}

/// A weighted single-qubit Pauli factor (`phase` in ℤ₄, `Y = i·XZ`).
#[derive(Debug, Clone, Copy)]
struct MagicTerm {
    coeff: f64,
    x: bool,
    z: bool,
    phase: u8,
}

fn axis_term(axis: Axis, coeff: f64) -> MagicTerm {
    let (x, z, phase) = match axis {
        Axis::X => (true, false, 0),
        Axis::Y => (true, true, 1),
        Axis::Z => (false, true, 0),
    };
    MagicTerm { coeff, x, z, phase }
}

/// The two Pauli axes spanning a measurement plane: the observable at
/// angle θ is `cos θ · P₁ + sin θ · P₂` (the `mbqao_sim::MeasBasis`
/// conventions).
fn plane_axes(plane: Plane) -> (Axis, Axis) {
    match plane {
        Plane::XY => (Axis::X, Axis::Y),
        Plane::YZ => (Axis::Z, Axis::Y),
        Plane::XZ => (Axis::Z, Axis::X),
    }
}

/// The adapted observable of a Pauli measurement from its base
/// (`s = t = 0`) verdict: `θ' = (−1)^s θ + tπ`, so `s` negates the
/// plane's second axis and `t` negates both.
fn adapted(plane: Plane, base: CliffordObs, s: bool, t: bool) -> CliffordObs {
    let second = plane_axes(plane).1;
    CliffordObs {
        axis: base.axis,
        neg: base.neg ^ (s && base.axis == second) ^ t,
    }
}

/// Columns a walk needs: the peak of live plus pinned qubits. A qubit
/// takes a column at its `Prep` (inputs hold one from the start); a
/// Pauli measurement hands it back, a non-Clifford one pins it.
fn peak_width(pattern: &Pattern, verdicts: &[Option<CliffordObs>]) -> usize {
    let mut held = pattern.inputs().len();
    let mut peak = held;
    let mut verdicts = verdicts.iter();
    for c in pattern.commands() {
        match c {
            Command::Prep { .. } => {
                held += 1;
                peak = peak.max(held);
            }
            Command::Measure { .. } => {
                if verdicts.next().is_some_and(Option::is_some) {
                    held = held.saturating_sub(1);
                }
            }
            Command::Entangle { .. } | Command::Correct { .. } => {}
        }
    }
    peak
}

/// How a [`PatternRun`] chooses measurement outcomes.
pub enum OutcomePolicy<'a, R: RngCore + ?Sized> {
    /// The deterministic-measurement rule: dictated outcomes follow
    /// the state, every *free* outcome (tableau-random Clifford or
    /// non-Clifford) takes `0`. For strongly deterministic patterns
    /// this is one representative branch of many that all prepare the
    /// same state.
    Reference,
    /// Like `Reference`, but the `j`-th non-Clifford measurement takes
    /// the `j`-th bit of the slice — the branch-tree axis.
    ForcedMagic(&'a [u8]),
    /// Protocol sampling: every free outcome is drawn from its *exact*
    /// conditional Born probability given all earlier outcomes
    /// (non-Clifford history included, via the pending expansion).
    Sample(&'a mut R),
}

/// A finished tableau execution of one pattern branch.
#[derive(Debug)]
pub struct PatternRun {
    tab: Tableau,
    /// Column of every live qubit (a measured qubit's column is
    /// recycled, or pinned by its pending projector).
    cols: HashMap<QubitId, usize>,
    /// Columns in `|0⟩`, ready for the next `Prep`.
    free: Vec<usize>,
    pending: Vec<MagicProj>,
    outcomes: Vec<u8>,
    /// Clifford (Pauli) measurement count.
    pub clifford_measurements: usize,
    /// Non-Clifford measurement count (`= pending.len()`).
    pub magic_measurements: usize,
    /// How many Clifford measurements were tableau-random.
    pub random_measurements: usize,
}

impl PatternRun {
    /// The representative branch: every free outcome `0`, dictated
    /// outcomes from the state ([`OutcomePolicy::Reference`]).
    pub fn reference(pattern: &Pattern, params: &[f64]) -> PatternRun {
        Self::execute::<NullRng>(pattern, params, OutcomePolicy::Reference)
    }

    /// The branch with pinned non-Clifford outcome `bits`
    /// ([`OutcomePolicy::ForcedMagic`]).
    pub fn forced(pattern: &Pattern, params: &[f64], bits: &[u8]) -> PatternRun {
        Self::execute::<NullRng>(pattern, params, OutcomePolicy::ForcedMagic(bits))
    }

    /// One protocol-faithful sample: all free outcomes drawn from their
    /// exact conditional Born probabilities ([`OutcomePolicy::Sample`]).
    pub fn sample<R: RngCore + ?Sized>(
        pattern: &Pattern,
        params: &[f64],
        rng: &mut R,
    ) -> PatternRun {
        Self::execute(pattern, params, OutcomePolicy::Sample(rng))
    }

    /// Executes `pattern` at `params` under `policy`.
    ///
    /// The tableau is sized once to the peak of live plus pinned
    /// columns, counted from the same [`classify_pattern`] verdicts the
    /// walk then follows, so a valid pattern never runs out of columns.
    ///
    /// # Panics
    /// Panics on malformed patterns (commands touching unknown qubits)
    /// and when a `ForcedMagic` slice is shorter than the non-Clifford
    /// measurement count.
    pub fn execute<R: RngCore + ?Sized>(
        pattern: &Pattern,
        params: &[f64],
        mut policy: OutcomePolicy<'_, R>,
    ) -> PatternRun {
        let verdicts = classify_pattern(pattern, params).per_measurement;
        let width = peak_width(pattern, &verdicts);
        let mut run = PatternRun {
            tab: Tableau::zeros(width),
            cols: HashMap::with_capacity(width),
            free: (0..width).rev().collect(),
            pending: Vec::new(),
            outcomes: vec![0u8; pattern.n_outcomes() as usize],
            clifford_measurements: 0,
            magic_measurements: 0,
            random_measurements: 0,
        };
        for &q in pattern.inputs() {
            run.take_col(q);
        }
        let mut measured = vec![false; pattern.n_outcomes() as usize];
        let mut verdicts = verdicts.into_iter();
        // No rng in the non-sampling policies: dictated/zero outcomes
        // keep the walk fully deterministic.
        let mut dummy = NullRng;

        for c in pattern.commands() {
            match c {
                Command::Prep { q, state } => {
                    let col = run.take_col(*q);
                    if matches!(state, PrepState::Plus) {
                        run.tab.h(col);
                    }
                }
                Command::Entangle { a, b } => {
                    let (ca, cb) = (run.col(*a), run.col(*b));
                    run.tab.cz(ca, cb);
                }
                Command::Correct { q, pauli, cond } => {
                    if eval_signal(cond, &run.outcomes, &measured) {
                        let col = run.col(*q);
                        match pauli {
                            Pauli::X => run.tab.x(col),
                            Pauli::Z => run.tab.z(col),
                        }
                    }
                }
                Command::Measure {
                    q,
                    plane,
                    angle,
                    s,
                    t,
                    out,
                } => {
                    let s = eval_signal(s, &run.outcomes, &measured);
                    let t = eval_signal(t, &run.outcomes, &measured);
                    let col = run.cols.remove(q).expect("command touches unknown qubit");
                    let m = match verdicts.next().expect("one verdict per measurement") {
                        Some(base) => {
                            let obs = adapted(*plane, base, s, t);
                            run.measure_clifford(col, obs, &mut policy, &mut dummy)
                        }
                        None => {
                            let mut theta = angle.eval(params);
                            if s {
                                theta = -theta;
                            }
                            if t {
                                theta += std::f64::consts::PI;
                            }
                            run.measure_magic(col, *plane, theta, &mut policy)
                        }
                    };
                    run.outcomes[out.0 as usize] = m;
                    measured[out.0 as usize] = true;
                }
            }
        }
        run
    }

    /// The number of tableau columns the run used: the peak of live
    /// plus pinned columns, at most the pattern's `max_live` plus its
    /// non-Clifford count.
    pub fn width(&self) -> usize {
        self.tab.n()
    }

    fn take_col(&mut self, q: QubitId) -> usize {
        let col = self.free.pop().expect("more live qubits than columns");
        self.cols.insert(q, col);
        col
    }

    fn col(&self, q: QubitId) -> usize {
        *self.cols.get(&q).expect("command touches unknown qubit")
    }

    fn measure_clifford<R: RngCore + ?Sized>(
        &mut self,
        col: usize,
        obs: CliffordObs,
        policy: &mut OutcomePolicy<'_, R>,
        dummy: &mut NullRng,
    ) -> u8 {
        self.clifford_measurements += 1;
        let op = self.axis_pauli(col, obs);
        // Peek determinism first: dictated outcomes are policy-free
        // (pending projectors act on other qubits, so they can only
        // scale a dictated branch, never flip it).
        let forced = match policy {
            OutcomePolicy::Reference | OutcomePolicy::ForcedMagic(_) => Some(0u8),
            OutcomePolicy::Sample(rng) => {
                let r0 = self.weighted(None);
                if r0.abs() < 1e-12 {
                    // Numerically dead branch (cannot happen for
                    // deterministic patterns); keep walking on 0s.
                    Some(0)
                } else {
                    let e = self.weighted(Some(&op)) / r0;
                    let p1 = ((1.0 - e) / 2.0).clamp(0.0, 1.0);
                    Some(u8::from(rng.gen_bool(p1)))
                }
            }
        };
        let r = self.tab.measure(&op, forced, dummy);
        if r.random {
            self.random_measurements += 1;
        }
        // When the state dictated an outcome contradicting the forced 0
        // (`r.annihilated`), the tableau was left untouched and the
        // dictated bit comes back — the deterministic-measurement rule.
        // Either way the qubit is now the `+1` eigenstate of
        // `(−1)^m·op`, in a product with the rest, so its column can be
        // recycled.
        self.tab.reset(col, &op, r.outcome);
        self.free.push(col);
        r.outcome
    }

    fn measure_magic<R: RngCore + ?Sized>(
        &mut self,
        col: usize,
        plane: Plane,
        theta: f64,
        policy: &mut OutcomePolicy<'_, R>,
    ) -> u8 {
        let idx = self.magic_measurements;
        self.magic_measurements += 1;
        let (a1, a2) = plane_axes(plane);
        let (c, s) = (theta.cos(), theta.sin());
        let m = match policy {
            OutcomePolicy::Reference => 0,
            OutcomePolicy::ForcedMagic(bits) => {
                assert!(
                    idx < bits.len(),
                    "forced magic branch shorter than the non-Clifford count"
                );
                bits[idx]
            }
            OutcomePolicy::Sample(rng) => {
                let r0 = self.weighted(None);
                if r0.abs() < 1e-12 {
                    0
                } else {
                    let e1 = self.weighted(Some(&self.axis_only(col, a1))) / r0;
                    let e2 = self.weighted(Some(&self.axis_only(col, a2))) / r0;
                    let p1 = ((1.0 - (c * e1 + s * e2)) / 2.0).clamp(0.0, 1.0);
                    u8::from(rng.gen_bool(p1))
                }
            }
        };
        let sign = if m == 1 { -1.0 } else { 1.0 };
        // The column stays pinned: the projector acts on it at readout.
        self.pending.push(MagicProj {
            col,
            terms: [axis_term(a1, sign * c), axis_term(a2, sign * s)],
        });
        m
    }

    fn axis_pauli(&self, col: usize, obs: CliffordObs) -> PauliString {
        let mut p = self.axis_only(col, obs.axis);
        if obs.neg {
            p.mul_phase(2);
        }
        p
    }

    fn axis_only(&self, col: usize, axis: Axis) -> PauliString {
        let n = self.tab.n();
        match axis {
            Axis::X => PauliString::x(n, col),
            Axis::Y => PauliString::y(n, col),
            Axis::Z => PauliString::z(n, col),
        }
    }

    /// Measurement outcomes, indexed by `OutcomeId` (as in the
    /// statevector runtime).
    pub fn outcomes(&self) -> &[u8] {
        &self.outcomes
    }

    /// `3^k` — the term count of one pending-projector expansion.
    pub fn expansion_terms(&self) -> usize {
        3usize.saturating_pow(self.magic_measurements as u32)
    }

    /// The weighted functional `R(P) = ⟨Ψ|B₁⋯B_k·P|Ψ⟩` (`P = I` when
    /// `extra` is `None`): expands the pending projectors into at most
    /// `3^k` Pauli terms, each evaluated on the tableau. All factors
    /// act on pairwise disjoint qubits, so products are exact bit
    /// toggles.
    fn weighted(&self, extra: Option<&PauliString>) -> f64 {
        let mut acc = match extra {
            Some(p) => p.clone(),
            None => PauliString::identity(self.tab.n()),
        };
        self.weighted_rec(0, 1.0, &mut acc)
    }

    fn weighted_rec(&self, level: usize, coeff: f64, acc: &mut PauliString) -> f64 {
        if level == self.pending.len() {
            let v = self.tab.expectation(acc);
            return if v == 0.0 { 0.0 } else { coeff * v };
        }
        let proj = self.pending[level];
        // Identity option of B = ½(I + c₁P₁ + c₂P₂).
        let mut total = self.weighted_rec(level + 1, coeff * 0.5, acc);
        for t in proj.terms {
            if t.coeff == 0.0 {
                continue;
            }
            if t.x {
                acc.toggle_x(proj.col);
            }
            if t.z {
                acc.toggle_z(proj.col);
            }
            acc.mul_phase(t.phase);
            total += self.weighted_rec(level + 1, coeff * 0.5 * t.coeff, acc);
            acc.mul_phase(4 - t.phase);
            if t.x {
                acc.toggle_x(proj.col);
            }
            if t.z {
                acc.toggle_z(proj.col);
            }
        }
        total
    }

    /// The branch's pending norm `R(I)` — proportional to the Born
    /// probability of the recorded non-Clifford outcomes given the
    /// Clifford branch.
    pub fn norm(&self) -> f64 {
        self.weighted(None)
    }

    /// `⟨C⟩` of a diagonal Hamiltonian `C = constant + Σ_S w_S ∏_{v∈S}
    /// Z_v` over the output `wires` (wire `v` carries variable `v`).
    ///
    /// `None` when the branch has zero norm (only possible on forced
    /// branches of non-deterministic patterns).
    pub fn diag_expectation(
        &self,
        constant: f64,
        terms: &[(Vec<usize>, f64)],
        wires: &[QubitId],
    ) -> Option<f64> {
        let r0 = self.weighted(None);
        if r0.abs() < 1e-12 {
            return None;
        }
        let mut value = constant;
        for (support, w) in terms {
            let mut zs = PauliString::identity(self.tab.n());
            for &v in support {
                zs.toggle_z(self.col(wires[v]));
            }
            value += w * self.weighted(Some(&zs)) / r0;
        }
        Some(value)
    }
}

/// One branch of [`branch_tree_expectation`].
#[derive(Debug, Clone, Copy)]
pub struct Branch {
    /// The non-Clifford outcome bits (bit `j` = `j`-th magic
    /// measurement).
    pub bits: u64,
    /// Unnormalized exact Born weight `R_b(I)` of the branch.
    pub weight: f64,
    /// `⟨C⟩` on the branch's output state.
    pub value: f64,
}

/// The full branch tree of a pattern's non-Clifford measurements.
#[derive(Debug, Clone)]
pub struct BranchTree {
    /// Weighted average `Σ w_b·v_b / Σ w_b` — the exact `⟨C⟩` over the
    /// mixture of non-Clifford outcomes.
    pub value: f64,
    /// Sum of unnormalized branch weights.
    pub total_weight: f64,
    /// All surviving (nonzero-weight) branches.
    pub branches: Vec<Branch>,
}

/// Enumerates every non-Clifford outcome branch of `pattern` with its
/// exact Born weight and per-branch `⟨C⟩`, and returns the weighted
/// average. For strongly deterministic patterns every branch prepares
/// the same state, so `value` equals the reference-branch expectation —
/// a cross-check through `2^k` independent executions.
///
/// Returns `None` when the non-Clifford count exceeds
/// [`MAX_MAGIC_TREE`] or every branch dies (non-deterministic pattern
/// with an impossible pinned Clifford branch).
pub fn branch_tree_expectation(
    pattern: &Pattern,
    params: &[f64],
    constant: f64,
    terms: &[(Vec<usize>, f64)],
    wires: &[QubitId],
) -> Option<BranchTree> {
    let magic = mbqao_mbqc::classify::classify_pattern(pattern, params).magic;
    if magic > MAX_MAGIC_TREE {
        return None;
    }
    let mut branches = Vec::new();
    let mut total_weight = 0.0;
    let mut acc = 0.0;
    for bits in 0u64..(1u64 << magic) {
        let forced: Vec<u8> = (0..magic).map(|j| ((bits >> j) & 1) as u8).collect();
        let run = PatternRun::forced(pattern, params, &forced);
        let weight = run.norm();
        if weight.abs() < 1e-12 {
            continue;
        }
        let value = run.diag_expectation(constant, terms, wires)?;
        branches.push(Branch {
            bits,
            weight,
            value,
        });
        total_weight += weight;
        acc += weight * value;
    }
    if total_weight.abs() < 1e-12 {
        return None;
    }
    Some(BranchTree {
        value: acc / total_weight,
        total_weight,
        branches,
    })
}

fn eval_signal(sig: &Signal, outcomes: &[u8], measured: &[bool]) -> bool {
    sig.eval(&|m| {
        debug_assert!(
            measured[m.0 as usize],
            "signal reads outcome {} before its measurement",
            m.0
        );
        outcomes[m.0 as usize] == 1
    })
}

/// A non-RNG for policies that never draw: reaching `next_u64` is a
/// logic error (dictated and forced outcomes are policy-supplied).
struct NullRng;

impl RngCore for NullRng {
    fn next_u64(&mut self) -> u64 {
        unreachable!("non-sampling policy must not draw randomness")
    }
}
