//! The Aaronson–Gottesman stabilizer/destabilizer tableau.
//!
//! A [`Tableau`] over `N` qubits holds `2N` [`PauliString`] rows: `N`
//! destabilizers followed by `N` stabilizer generators, initialized to
//! `(X_i ; Z_i)` — the all-zeros state. Clifford gates conjugate every
//! row in `O(N)`; a Pauli measurement costs `O(N²)` bit operations:
//! one pass to find an anticommuting stabilizer (random outcome) or,
//! failing that, a destabilizer-indexed product of generators whose
//! sign *is* the deterministic outcome. A qubit left in a Pauli
//! eigenstate by a measurement goes back to `|0⟩` in `O(N)`
//! ([`Tableau::reset`]), so its column can host the next qubit. The
//! rules are pinned to a dense-matrix reference (and to `mbqao-sim`'s
//! dual-projection measurement) by `tests/tableau_properties.rs`.

use crate::pauli::PauliString;
use rand::{Rng, RngCore};

/// Result of one Pauli measurement on a tableau.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasResult {
    /// The measured outcome bit.
    pub outcome: u8,
    /// `true` when the outcome was fundamentally random (probability
    /// `1/2` each way); `false` when the state dictated it.
    pub random: bool,
    /// `true` when a *forced* outcome contradicted a deterministic
    /// measurement — the projected branch has probability zero and the
    /// tableau was left untouched.
    pub annihilated: bool,
}

/// Stabilizer state of `N` qubits as destabilizer + stabilizer rows.
#[derive(Debug, Clone)]
pub struct Tableau {
    n: usize,
    /// Rows `0..n` are destabilizers, rows `n..2n` stabilizers.
    rows: Vec<PauliString>,
}

impl Tableau {
    /// The all-zeros state `|0…0⟩`: stabilizers `Z_i`, destabilizers
    /// `X_i`.
    pub fn zeros(n: usize) -> Self {
        let mut rows = Vec::with_capacity(2 * n);
        for i in 0..n {
            rows.push(PauliString::x(n, i));
        }
        for i in 0..n {
            rows.push(PauliString::z(n, i));
        }
        Tableau { n, rows }
    }

    /// Number of qubits.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stabilizer generator `i`.
    pub fn stabilizer(&self, i: usize) -> &PauliString {
        &self.rows[self.n + i]
    }

    /// Destabilizer `i` (phase is bookkeeping only — never read).
    pub fn destabilizer(&self, i: usize) -> &PauliString {
        &self.rows[i]
    }

    // ------------------------------------------------ Clifford gates

    /// Hadamard on qubit `q`.
    pub fn h(&mut self, q: usize) {
        for row in &mut self.rows {
            row.conj_h(q);
        }
    }

    /// Phase gate `S` on qubit `q`.
    pub fn s(&mut self, q: usize) {
        for row in &mut self.rows {
            row.conj_s(q);
        }
    }

    /// Controlled-Z between `a` and `b`.
    pub fn cz(&mut self, a: usize, b: usize) {
        for row in &mut self.rows {
            row.conj_cz(a, b);
        }
    }

    /// Pauli `X` on qubit `q`.
    pub fn x(&mut self, q: usize) {
        for row in &mut self.rows {
            row.conj_x(q);
        }
    }

    /// Pauli `Z` on qubit `q`.
    pub fn z(&mut self, q: usize) {
        for row in &mut self.rows {
            row.conj_z(q);
        }
    }

    // ------------------------------------------------- measurements

    /// Expectation `⟨ψ|O|ψ⟩ ∈ {−1, 0, +1}` of a Hermitian Pauli `obs`.
    ///
    /// Zero when `obs` anticommutes with some stabilizer; otherwise
    /// `±obs` is in the stabilizer group and the sign falls out of the
    /// destabilizer-indexed generator product.
    ///
    /// # Panics
    /// Panics when `obs` is not Hermitian.
    pub fn expectation(&self, obs: &PauliString) -> f64 {
        assert!(obs.is_hermitian(), "Pauli expectation needs Hermitian obs");
        for i in 0..self.n {
            if !self.stabilizer(i).commutes(obs) {
                return 0.0;
            }
        }
        match self.group_sign(obs) {
            0 => 1.0,
            _ => -1.0,
        }
    }

    /// For `obs` commuting with every stabilizer: the phase difference
    /// (`0` or `2`) between the group element with `obs`'s word and
    /// `obs` itself, i.e. `∏ S_j = (−1)^{sign/2}·obs`.
    fn group_sign(&self, obs: &PauliString) -> u8 {
        let mut acc = PauliString::identity(self.n);
        for j in 0..self.n {
            if !self.destabilizer(j).commutes(obs) {
                acc.mul_assign(self.stabilizer(j));
            }
        }
        debug_assert!(
            acc.same_word(obs),
            "centralizer element must reproduce the observable's word"
        );
        let diff = (acc.phase() + 4 - obs.phase()) & 3;
        debug_assert!(diff == 0 || diff == 2, "Hermitian sign must be ±1");
        diff
    }

    /// Measures Hermitian Pauli `obs`: outcome `m` projects onto the
    /// `+1` eigenspace of `(−1)^m·obs`. A `forced` bit pins the
    /// outcome (random case: the tableau follows the forced branch;
    /// deterministic case: a contradicting forced bit reports
    /// [`MeasResult::annihilated`]). Without `forced`, random outcomes
    /// draw a fair coin from `rng`.
    ///
    /// # Panics
    /// Panics when `obs` is not Hermitian.
    pub fn measure<R: RngCore + ?Sized>(
        &mut self,
        obs: &PauliString,
        forced: Option<u8>,
        rng: &mut R,
    ) -> MeasResult {
        assert!(obs.is_hermitian(), "Pauli measurement needs Hermitian obs");
        let pivot_idx = (0..self.n).find(|&i| !self.stabilizer(i).commutes(obs));
        match pivot_idx {
            Some(p) => {
                let outcome = forced.unwrap_or_else(|| u8::from(rng.gen_bool(0.5)));
                let pivot = self.rows[self.n + p].clone();
                for i in 0..2 * self.n {
                    if i != self.n + p && !self.rows[i].commutes(obs) {
                        self.rows[i].mul_assign(&pivot);
                    }
                }
                // The displaced stabilizer becomes the destabilizer
                // partner of the fresh `±obs` generator.
                self.rows[p] = pivot;
                let mut new_stab = obs.clone();
                if outcome == 1 {
                    new_stab.mul_phase(2);
                }
                self.rows[self.n + p] = new_stab;
                MeasResult {
                    outcome,
                    random: true,
                    annihilated: false,
                }
            }
            None => {
                let outcome = self.group_sign(obs) / 2;
                let annihilated = forced.is_some_and(|f| f != outcome);
                MeasResult {
                    outcome,
                    random: false,
                    annihilated,
                }
            }
        }
    }

    /// Returns qubit `q` to `|0⟩` after a measurement of the
    /// single-qubit Pauli `obs` (`±X`, `±Y` or `±Z` on `q`) gave
    /// `outcome`, i.e. while `q` is the `+1` eigenstate of
    /// `(−1)^outcome·obs` in a product with the other qubits.
    ///
    /// One local Clifford per case, no elimination, so `O(rows)`: `H`
    /// for X, `S` then `H` for Y (which lands `+Y` on `−Z`), nothing
    /// for Z, then `X` when the qubit sits on the `−1` side of Z. The
    /// other qubits' state is untouched.
    pub fn reset(&mut self, q: usize, obs: &PauliString, outcome: u8) {
        let (x, z) = (obs.x_bit(q), obs.z_bit(q));
        debug_assert!(
            obs.weight() == 1 && obs.is_hermitian(),
            "reset needs a Hermitian single-qubit Pauli on qubit {q}"
        );
        // `obs = (−1)^neg · axis`; `Y = i·XZ` carries one phase unit.
        let neg = (obs.phase() + 4 - u8::from(x && z)) & 3 == 2;
        let mut minus = neg ^ (outcome == 1);
        match (x, z) {
            (true, false) => self.h(q),
            (true, true) => {
                self.s(q);
                self.h(q);
                minus = !minus;
            }
            _ => {}
        }
        if minus {
            self.x(q);
        }
    }

    /// Structural invariants: stabilizers Hermitian and pairwise
    /// commuting, destabilizer `i` anticommutes with stabilizer `i`
    /// and commutes with every other row — which makes the `2N` rows a
    /// symplectic basis, hence full rank over GF(2).
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.n;
        for i in 0..n {
            if !self.stabilizer(i).is_hermitian() {
                return Err(format!("stabilizer {i} not Hermitian"));
            }
            if self.stabilizer(i).is_identity_word() {
                return Err(format!("stabilizer {i} degenerated to identity"));
            }
        }
        for i in 0..n {
            for j in 0..n {
                if !self.stabilizer(i).commutes(self.stabilizer(j)) {
                    return Err(format!("stabilizers {i},{j} anticommute"));
                }
                if !self.destabilizer(i).commutes(self.destabilizer(j)) {
                    return Err(format!("destabilizers {i},{j} anticommute"));
                }
                let pair = !self.destabilizer(i).commutes(self.stabilizer(j));
                if pair != (i == j) {
                    return Err(format!(
                        "destabilizer {i} vs stabilizer {j}: wrong symplectic pairing"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_state_expectations() {
        let t = Tableau::zeros(3);
        assert_eq!(t.expectation(&PauliString::z(3, 0)), 1.0);
        assert_eq!(t.expectation(&PauliString::x(3, 0)), 0.0);
        let mut zz = PauliString::z(3, 0);
        zz.mul_assign(&PauliString::z(3, 2));
        assert_eq!(t.expectation(&zz), 1.0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn bell_pair_correlations() {
        // H⊗H; CZ; H(1) → (|00⟩+|11⟩)/√2.
        let mut t = Tableau::zeros(2);
        t.h(0);
        t.h(1);
        t.cz(0, 1);
        t.h(1);
        t.check_invariants().unwrap();
        let mut zz = PauliString::z(2, 0);
        zz.mul_assign(&PauliString::z(2, 1));
        let mut xx = PauliString::x(2, 0);
        xx.mul_assign(&PauliString::x(2, 1));
        let mut yy = PauliString::y(2, 0);
        yy.mul_assign(&PauliString::y(2, 1));
        assert_eq!(t.expectation(&zz), 1.0);
        assert_eq!(t.expectation(&xx), 1.0);
        assert_eq!(t.expectation(&yy), -1.0);
        assert_eq!(t.expectation(&PauliString::z(2, 0)), 0.0);

        // Measuring Z₀ is random; afterwards Z₁ is dictated equal.
        let mut rng = StdRng::seed_from_u64(1);
        let r = t.measure(&PauliString::z(2, 0), Some(1), &mut rng);
        assert!(r.random && r.outcome == 1);
        let r1 = t.measure(&PauliString::z(2, 1), None, &mut rng);
        assert!(!r1.random && r1.outcome == 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn forced_contradiction_reports_annihilation() {
        let mut t = Tableau::zeros(1);
        let mut rng = StdRng::seed_from_u64(0);
        let r = t.measure(&PauliString::z(1, 0), Some(1), &mut rng);
        assert!(r.annihilated && !r.random && r.outcome == 0);
        // Tableau untouched: still |0⟩.
        assert_eq!(t.expectation(&PauliString::z(1, 0)), 1.0);
    }

    #[test]
    fn s_gate_turns_plus_into_y_eigenstate() {
        let mut t = Tableau::zeros(1);
        t.h(0);
        assert_eq!(t.expectation(&PauliString::x(1, 0)), 1.0);
        t.s(0);
        assert_eq!(t.expectation(&PauliString::y(1, 0)), 1.0);
        assert_eq!(t.expectation(&PauliString::x(1, 0)), 0.0);
        t.check_invariants().unwrap();
    }
}
