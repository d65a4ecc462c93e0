//! The statevector and its kernels.
//!
//! Every kernel runs on the calling thread, one pass in index order.
//! The parallel level is one up, across independent evaluations:
//! `Executor` batches, shot blocks, forced branches and sweep items. So
//! a value never depends on the thread count, and one point evaluated
//! alone or inside a batch is bit-identical. The cost: a single large
//! register evaluated on its own runs each pass on one core.

use mbqao_math::{Matrix, C64, EPS};
use rand::Rng;

use crate::register::QubitId;

/// An orthonormal single-qubit measurement basis `{|v₀⟩, |v₁⟩}`.
///
/// The constructors cover the three measurement planes used in MBQC
/// (conventions fixed in `DESIGN.md` §3.1) plus the computational basis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasBasis {
    /// Basis vector reported as outcome `0` (amplitudes ⟨0|v⟩, ⟨1|v⟩).
    pub v0: [C64; 2],
    /// Basis vector reported as outcome `1`.
    pub v1: [C64; 2],
}

impl MeasBasis {
    /// Computational basis `{|0⟩, |1⟩}` (a Z measurement).
    pub fn computational() -> Self {
        MeasBasis {
            v0: [C64::ONE, C64::ZERO],
            v1: [C64::ZERO, C64::ONE],
        }
    }

    /// `XY(θ)`: `(|0⟩ ± e^{iθ}|1⟩)/√2`. `xy(0)` is the X basis
    /// `{|+⟩, |−⟩}`, `xy(π/2)` the Y basis.
    pub fn xy(theta: f64) -> Self {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        MeasBasis {
            v0: [C64::real(s), C64::cis(theta).scale(s)],
            v1: [C64::real(s), -C64::cis(theta).scale(s)],
        }
    }

    /// `YZ(θ)`: eigenbasis of `cos θ Z + sin θ Y`. `yz(0)` is the
    /// computational basis.
    pub fn yz(theta: f64) -> Self {
        let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
        MeasBasis {
            v0: [C64::real(c), C64::new(0.0, s)],
            v1: [C64::real(s), C64::new(0.0, -c)],
        }
    }

    /// `XZ(θ)`: eigenbasis of `cos θ Z + sin θ X`. `xz(0)` is the
    /// computational basis, `xz(π/2)` the X basis.
    pub fn xz(theta: f64) -> Self {
        let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
        MeasBasis {
            v0: [C64::real(c), C64::real(s)],
            v1: [C64::real(s), C64::real(-c)],
        }
    }

    /// Checks orthonormality (test/debug helper).
    pub fn is_orthonormal(&self, eps: f64) -> bool {
        let n0 = self.v0[0].norm_sqr() + self.v0[1].norm_sqr();
        let n1 = self.v1[0].norm_sqr() + self.v1[1].norm_sqr();
        let ip = self.v0[0].conj() * self.v1[0] + self.v0[1].conj() * self.v1[1];
        (n0 - 1.0).abs() < eps && (n1 - 1.0).abs() < eps && ip.abs() < eps
    }
}

/// The measurement gather: projects every (`a0`, `a1`) amplitude pair of
/// the measured qubit through `comb` into both branch buffers in a
/// single pass, returning the accumulated squared norm of branch 0 (the
/// Born probability of outcome 0 for a normalized state).
///
/// `b` is the bit offset of the measured qubit; index `i` of the halved
/// space expands to the pair (`i0`, `i0 | 1<<b`) by inserting a zero bit
/// at `b`.
fn dual_pass<F>(amps: &[C64], out0: &mut [C64], out1: &mut [C64], b: usize, comb: F) -> f64
where
    F: Fn(C64, C64) -> (C64, C64) + Copy,
{
    let gather = move |(i, (g0, g1)): (usize, (&mut C64, &mut C64))| -> f64 {
        let low = i & ((1 << b) - 1);
        let i0 = (i >> b) << (b + 1) | low;
        let (r0, r1) = comb(amps[i0], amps[i0 | (1 << b)]);
        *g0 = r0;
        *g1 = r1;
        r0.norm_sqr()
    };
    out0.iter_mut()
        .zip(out1.iter_mut())
        .enumerate()
        .map(gather)
        .sum()
}

/// A fast, allocation-free hasher for [`QubitId`] keys: one odd-constant
/// multiply (Fibonacci hashing) of the raw id. Qubit ids are small and
/// essentially sequential, so this mixes more than enough while costing
/// a few cycles per lookup — the id→position index sits on the
/// per-command MBQC hot path.
#[derive(Debug, Default, Clone, Copy)]
struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type IdIndex = std::collections::HashMap<QubitId, usize, std::hash::BuildHasherDefault<IdHasher>>;

/// An n-qubit pure state over a dynamic register.
///
/// Position 0 in the register is the most significant bit of the amplitude
/// index, matching the `mbqao-math` matrix/embedding conventions.
///
/// The MBQC hot loop (`add_qubit` / `apply_cz` / `measure_remove` per
/// pattern node) is allocation-free in steady state: grow/project
/// kernels write into a reusable ping-pong `scratch` buffer that swaps
/// with `amps`, and qubit lookup goes through a maintained id→position
/// index instead of scanning the register.
#[derive(Debug)]
pub struct State {
    qubits: Vec<QubitId>,
    amps: Vec<C64>,
    /// Maintained id → register-position index (kept in sync by
    /// `add_qubit` / `measure_remove`).
    index: IdIndex,
    /// Ping-pong partner of `amps`: `add_qubit` and `measure_remove`
    /// write their output here, then swap. Its contents are garbage
    /// between calls; only the capacity is meaningful.
    scratch: Vec<C64>,
    /// Second projection target of `measure_remove`'s dual-branch pass
    /// (outcome-1 amplitudes land here while outcome 0 lands in
    /// `scratch`; the chosen one swaps with `amps`).
    scratch2: Vec<C64>,
}

impl Default for State {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for State {
    fn clone(&self) -> Self {
        State {
            qubits: self.qubits.clone(),
            amps: self.amps.clone(),
            index: self.index.clone(),
            scratch: Vec::new(),
            scratch2: Vec::new(),
        }
    }

    /// Clones without discarding `self`'s buffers (shot loops
    /// re-seeding a register from a template state reuse capacity).
    fn clone_from(&mut self, source: &Self) {
        self.qubits.clone_from(&source.qubits);
        self.amps.clone_from(&source.amps);
        self.index.clone_from(&source.index);
        // `scratch` is scratch — keep ours.
    }
}

impl State {
    /// The empty register (a scalar amplitude of 1).
    pub fn new() -> Self {
        State {
            qubits: Vec::new(),
            amps: vec![C64::ONE],
            index: IdIndex::default(),
            scratch: Vec::new(),
            scratch2: Vec::new(),
        }
    }

    /// Resets to the empty register (a scalar amplitude of 1) while
    /// keeping every allocation — the shot-loop alternative to
    /// [`State::new`].
    pub fn reset(&mut self) {
        self.qubits.clear();
        self.index.clear();
        self.amps.clear();
        self.amps.push(C64::ONE);
    }

    /// A register of `ids` all initialized to `|0⟩`.
    pub fn zeros(ids: &[QubitId]) -> Self {
        let mut st = State::new();
        for &id in ids {
            st.add_qubit(id, [C64::ONE, C64::ZERO]);
        }
        st
    }

    /// A register of `ids` all initialized to `|+⟩` — the MBQC resource
    /// preparation and the QAOA initial state.
    pub fn plus(ids: &[QubitId]) -> Self {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let mut st = State::new();
        for &id in ids {
            st.add_qubit(id, [C64::real(s), C64::real(s)]);
        }
        st
    }

    /// Number of live qubits.
    pub fn n_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// Statevector dimension (`2^n`).
    pub fn dim(&self) -> usize {
        self.amps.len()
    }

    /// The live qubit ids, most-significant first.
    pub fn qubit_ids(&self) -> &[QubitId] {
        &self.qubits
    }

    /// Raw amplitudes (msb-first order of [`State::qubit_ids`]).
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Position of a live qubit (via the maintained index).
    ///
    /// # Panics
    /// Panics when `id` is not in the register.
    fn pos(&self, id: QubitId) -> usize {
        *self
            .index
            .get(&id)
            .unwrap_or_else(|| panic!("qubit {id} not in register"))
    }

    /// `true` when `id` is currently allocated.
    pub fn contains(&self, id: QubitId) -> bool {
        self.index.contains_key(&id)
    }

    /// Appends a fresh qubit in state `amp0|0⟩ + amp1|1⟩` as the least
    /// significant position. Grows into the reusable scratch buffer —
    /// no allocation once the buffers have reached the register's peak
    /// size.
    ///
    /// # Panics
    /// Panics when `id` is already allocated.
    pub fn add_qubit(&mut self, id: QubitId, init: [C64; 2]) {
        assert!(!self.contains(id), "qubit {id} already allocated");
        self.scratch.clear();
        self.scratch.resize(self.amps.len() * 2, C64::ZERO);
        let (old, new) = (&self.amps, &mut self.scratch);
        for (i, &a) in old.iter().enumerate() {
            new[2 * i] = a * init[0];
            new[2 * i + 1] = a * init[1];
        }
        std::mem::swap(&mut self.amps, &mut self.scratch);
        self.index.insert(id, self.qubits.len());
        self.qubits.push(id);
    }

    /// Adds a fresh qubit in `|+⟩` (MBQC ancilla preparation).
    pub fn add_plus(&mut self, id: QubitId) {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        self.add_qubit(id, [C64::real(s), C64::real(s)]);
    }

    /// Bit offset (from lsb) of the qubit at register position `k`.
    #[inline]
    fn bit_of_pos(&self, k: usize) -> usize {
        self.qubits.len() - 1 - k
    }

    /// Applies a single-qubit unitary given row-major as `[u00,u01,u10,u11]`.
    pub fn apply_u2(&mut self, id: QubitId, u: [C64; 4]) {
        let b = self.bit_of_pos(self.pos(id));
        let stride = 1usize << b;
        let block = stride * 2;
        let kernel = |chunk: &mut [C64]| {
            for i in 0..stride {
                let a0 = chunk[i];
                let a1 = chunk[i + stride];
                chunk[i] = u[0] * a0 + u[1] * a1;
                chunk[i + stride] = u[2] * a0 + u[3] * a1;
            }
        };
        self.amps.chunks_mut(block).for_each(kernel);
    }

    /// Applies a single-qubit unitary given as a 2×2 [`Matrix`].
    pub fn apply_1q(&mut self, id: QubitId, m: &Matrix) {
        assert_eq!(
            (m.rows(), m.cols()),
            (2, 2),
            "apply_1q expects a 2×2 matrix"
        );
        let d = m.data();
        self.apply_u2(id, [d[0], d[1], d[2], d[3]]);
    }

    /// Pauli X (specialized swap kernel — no complex multiplies).
    pub fn apply_x(&mut self, id: QubitId) {
        let b = self.bit_of_pos(self.pos(id));
        let stride = 1usize << b;
        let kernel = |chunk: &mut [C64]| {
            for i in 0..stride {
                chunk.swap(i, i + stride);
            }
        };
        self.amps.chunks_mut(stride * 2).for_each(kernel);
    }

    /// Pauli Z (specialized sign kernel — touches only the `|1⟩` half).
    pub fn apply_z(&mut self, id: QubitId) {
        let b = self.bit_of_pos(self.pos(id));
        let stride = 1usize << b;
        let kernel = |chunk: &mut [C64]| {
            for amp in &mut chunk[stride..] {
                *amp = -*amp;
            }
        };
        self.amps.chunks_mut(stride * 2).for_each(kernel);
    }

    /// Pauli Y.
    pub fn apply_y(&mut self, id: QubitId) {
        self.apply_u2(id, [C64::ZERO, -C64::I, C64::I, C64::ZERO]);
    }

    /// Hadamard.
    pub fn apply_h(&mut self, id: QubitId) {
        let s = C64::real(std::f64::consts::FRAC_1_SQRT_2);
        self.apply_u2(id, [s, s, s, -s]);
    }

    /// `Rz(θ) = e^{−iθZ/2}`.
    pub fn apply_rz(&mut self, id: QubitId, theta: f64) {
        let m = C64::cis(-theta / 2.0);
        let p = C64::cis(theta / 2.0);
        self.apply_u2(id, [m, C64::ZERO, C64::ZERO, p]);
    }

    /// `Rx(θ) = e^{−iθX/2}`.
    pub fn apply_rx(&mut self, id: QubitId, theta: f64) {
        let c = C64::real((theta / 2.0).cos());
        let s = C64::new(0.0, -(theta / 2.0).sin());
        self.apply_u2(id, [c, s, s, c]);
    }

    /// `diag(1, e^{iθ})`.
    pub fn apply_phase(&mut self, id: QubitId, theta: f64) {
        self.apply_u2(id, [C64::ONE, C64::ZERO, C64::ZERO, C64::cis(theta)]);
    }

    /// CZ between two qubits (symmetric). The kernel walks only the
    /// `|11⟩` quarter of the statevector in contiguous runs instead of
    /// testing a mask on every amplitude — CZ is the entangling step of
    /// every MBQC node, so this pass is on the per-node hot path.
    pub fn apply_cz(&mut self, a: QubitId, b: QubitId) {
        assert_ne!(a, b, "CZ needs two distinct qubits");
        let ba = self.bit_of_pos(self.pos(a));
        let bb = self.bit_of_pos(self.pos(b));
        let (hi, lo) = if ba > bb {
            (1usize << ba, 1usize << bb)
        } else {
            (1usize << bb, 1usize << ba)
        };
        // Within one 2·hi block, the hi bit is set in the upper half;
        // there the lo-bit-set indices form runs of `lo` every 2·lo.
        let kernel = |chunk: &mut [C64]| {
            let mut j = hi + lo;
            while j < 2 * hi {
                for amp in &mut chunk[j..j + lo] {
                    *amp = -*amp;
                }
                j += 2 * lo;
            }
        };
        self.amps.chunks_mut(hi * 2).for_each(kernel);
    }

    /// Appends a fresh qubit in `|+⟩` already CZ-entangled with the live
    /// `partner` — the fused MBQC ancilla preparation (`prep_plus` +
    /// `entangle` in one pass over the grown statevector). Bit-exact
    /// with the unfused pair of calls.
    ///
    /// # Panics
    /// Panics when `id` is live or `partner` is not.
    pub fn add_plus_cz(&mut self, id: QubitId, partner: QubitId) {
        assert!(!self.contains(id), "qubit {id} already allocated");
        let pb = self.bit_of_pos(self.pos(partner));
        let s = C64::real(std::f64::consts::FRAC_1_SQRT_2);
        self.scratch.clear();
        self.scratch.resize(self.amps.len() * 2, C64::ZERO);
        let (old, new) = (&self.amps, &mut self.scratch);
        let fill = |(i, (pair, &a)): (usize, (&mut [C64], &C64))| {
            let v = a * s;
            pair[0] = v;
            pair[1] = if (i >> pb) & 1 == 1 { -v } else { v };
        };
        new.chunks_mut(2).zip(old.iter()).enumerate().for_each(fill);
        std::mem::swap(&mut self.amps, &mut self.scratch);
        self.index.insert(id, self.qubits.len());
        self.qubits.push(id);
    }

    /// CNOT with `control` and `target`.
    pub fn apply_cx(&mut self, control: QubitId, target: QubitId) {
        self.apply_controlled_u2(
            &[(control, true)],
            target,
            [C64::ZERO, C64::ONE, C64::ONE, C64::ZERO],
        );
    }

    /// `e^{−iθ(Z⊗Z)/2}` on two qubits.
    pub fn apply_rzz(&mut self, a: QubitId, b: QubitId, theta: f64) {
        let ba = self.bit_of_pos(self.pos(a));
        let bb = self.bit_of_pos(self.pos(b));
        let minus = C64::cis(-theta / 2.0);
        let plus = C64::cis(theta / 2.0);
        let f = |(i, amp): (usize, &mut C64)| {
            let parity = ((i >> ba) ^ (i >> bb)) & 1;
            *amp *= if parity == 0 { minus } else { plus };
        };
        self.amps.iter_mut().enumerate().for_each(f);
    }

    /// Applies `e^{iθ Z⊗…⊗Z}` over the listed qubits (a multi-qubit
    /// phase-gadget reference; the phase on a basis state is `e^{iθ}` for
    /// even parity and `e^{−iθ}` for odd parity).
    pub fn apply_exp_zz(&mut self, ids: &[QubitId], theta: f64) {
        let mut mask = 0usize;
        for &id in ids {
            mask |= 1usize << self.bit_of_pos(self.pos(id));
        }
        let even = C64::cis(theta);
        let odd = C64::cis(-theta);
        let f = |(i, amp): (usize, &mut C64)| {
            let parity = (i & mask).count_ones() & 1;
            *amp *= if parity == 0 { even } else { odd };
        };
        self.amps.iter_mut().enumerate().for_each(f);
    }

    /// Applies a 1-qubit unitary on `target` controlled on every
    /// `(qubit, polarity)` pair: polarity `true` requires `|1⟩`, `false`
    /// requires `|0⟩`. The MIS partial mixer `Λ_{N(v)}(e^{iβX_v})` is
    /// exactly this with all-false polarities.
    pub fn apply_controlled_u2(
        &mut self,
        controls: &[(QubitId, bool)],
        target: QubitId,
        u: [C64; 4],
    ) {
        let bt = self.bit_of_pos(self.pos(target));
        let stride = 1usize << bt;
        let mut ones_mask = 0usize;
        let mut ctrl_mask = 0usize;
        for &(c, pol) in controls {
            assert_ne!(c, target, "control equals target");
            let b = self.bit_of_pos(self.pos(c));
            ctrl_mask |= 1usize << b;
            if pol {
                ones_mask |= 1usize << b;
            }
        }
        let block = stride * 2;
        let f = |(ci, chunk): (usize, &mut [C64])| {
            let base = ci * block;
            for i in 0..stride {
                let idx0 = base + i;
                if idx0 & ctrl_mask != ones_mask {
                    continue;
                }
                let a0 = chunk[i];
                let a1 = chunk[i + stride];
                chunk[i] = u[0] * a0 + u[1] * a1;
                chunk[i + stride] = u[2] * a0 + u[3] * a1;
            }
        };
        self.amps.chunks_mut(block).enumerate().for_each(f);
    }

    /// Applies a general 2-qubit unitary (row-major 4×4) on `(a, b)` with
    /// `a` the more significant qubit of the gate's basis `|ab⟩`.
    pub fn apply_u4(&mut self, a: QubitId, b: QubitId, u: &Matrix) {
        assert_eq!(
            (u.rows(), u.cols()),
            (4, 4),
            "apply_u4 expects a 4×4 matrix"
        );
        assert_ne!(a, b, "two-qubit gate needs distinct qubits");
        let ba = self.bit_of_pos(self.pos(a));
        let bb = self.bit_of_pos(self.pos(b));
        let d = u.data();
        let dim = self.amps.len();
        let sa = 1usize << ba;
        let sb = 1usize << bb;
        let (hi, lo) = if sa > sb { (sa, sb) } else { (sb, sa) };
        let block = hi * 2;
        let f = |chunk: &mut [C64]| {
            for j in 0..hi {
                if j & lo != 0 {
                    continue;
                }
                // Indices within the chunk of the four basis combinations
                // |a b⟩ = |00⟩,|01⟩,|10⟩,|11⟩ (a = more significant).
                let i00 = j;
                let i01 = j | sb;
                let i10 = j | sa;
                let i11 = j | sa | sb;
                let v = [chunk[i00], chunk[i01], chunk[i10], chunk[i11]];
                for (r, &row_base) in [i00, i01, i10, i11].iter().enumerate() {
                    let mut acc = C64::ZERO;
                    for (c, &vc) in v.iter().enumerate() {
                        acc += d[r * 4 + c] * vc;
                    }
                    chunk[row_base] = acc;
                }
            }
        };
        debug_assert_eq!(dim % block, 0);
        self.amps.chunks_mut(block).for_each(f);
    }

    /// Fused MBQC J-step: `add_plus(anc)` + `apply_cz(wire, anc)` +
    /// `measure_remove(wire, basis, …)` in **one pass at constant
    /// dimension** — the grown `2^{n+1}` intermediate is never
    /// materialized. Requires a *balanced* basis (`|v₀| = |v₁|`
    /// componentwise up to phase, as every `XY(θ)` basis is), for which
    /// both outcomes have Born probability exactly ½ on a normalized
    /// state:
    ///
    /// `out(r, anc) = c₀·ψ(r, w=0) + (−1)^anc · c₁·ψ(r, w=1)`,
    /// `c_α = conj(v_o[α])`, already normalized.
    ///
    /// Returns `(outcome, ½)`.
    ///
    /// # Panics
    /// Panics when `wire` is not live or `anc` is.
    pub fn teleport_measure<R: Rng + ?Sized>(
        &mut self,
        wire: QubitId,
        anc: QubitId,
        basis: &MeasBasis,
        forced: Option<u8>,
        rng: &mut R,
    ) -> (u8, f64) {
        debug_assert!(
            (basis.v0[0].norm_sqr() - basis.v0[1].norm_sqr()).abs() < 1e-12
                && (basis.v1[0].norm_sqr() - basis.v1[1].norm_sqr()).abs() < 1e-12,
            "teleport_measure needs a balanced (XY-plane) basis"
        );
        assert!(!self.contains(anc), "qubit {anc} already allocated");
        let kw = self.pos(wire);
        let bw = self.bit_of_pos(kw);
        let outcome = match forced {
            Some(m) => m,
            None => u8::from(rng.gen::<f64>() >= 0.5),
        };
        let v = if outcome == 0 { &basis.v0 } else { &basis.v1 };
        let c0 = v[0].conj();
        let c1 = v[1].conj();
        let dim = self.amps.len();
        self.scratch.clear();
        self.scratch.resize(dim, C64::ZERO);
        {
            let amps = &self.amps;
            let fill = move |(r, pair): (usize, &mut [C64])| {
                let low = r & ((1 << bw) - 1);
                let i0 = (r >> bw) << (bw + 1) | low;
                let x = c0 * amps[i0];
                let y = c1 * amps[i0 | (1 << bw)];
                pair[0] = x + y;
                pair[1] = x - y;
            };
            self.scratch.chunks_mut(2).enumerate().for_each(fill);
        }
        std::mem::swap(&mut self.amps, &mut self.scratch);
        // Register: `wire` out (positions above shift down), `anc` in as lsb.
        self.qubits.remove(kw);
        self.index.remove(&wire);
        for q in &self.qubits[kw..] {
            *self.index.get_mut(q).expect("indexed qubit") -= 1;
        }
        self.index.insert(anc, self.qubits.len());
        self.qubits.push(anc);
        (outcome, 0.5)
    }

    /// Fused MBQC phase gadget: `add_plus(anc)` + `apply_cz(anc, p)` for
    /// every partner `p` + `measure_remove(anc, basis, …)`, collapsed
    /// into a **diagonal in-place pass** — the ancilla never enters the
    /// register. Requires a basis whose branch multipliers
    /// `c_o0 ± c_o1` both have unit modulus (as every `YZ(θ)` basis
    /// does), for which both outcomes have Born probability exactly ½ on
    /// a normalized state:
    ///
    /// `out(i) = ψ(i) · (c_o0 + (−1)^{parity(i & partners)} c_o1)`.
    ///
    /// Returns `(outcome, ½)`.
    ///
    /// # Panics
    /// Panics when a partner is not live.
    pub fn gadget_measure<R: Rng + ?Sized>(
        &mut self,
        partners: &[QubitId],
        basis: &MeasBasis,
        forced: Option<u8>,
        rng: &mut R,
    ) -> (u8, f64) {
        let outcome = match forced {
            Some(m) => m,
            None => u8::from(rng.gen::<f64>() >= 0.5),
        };
        let v = if outcome == 0 { &basis.v0 } else { &basis.v1 };
        let c0 = v[0].conj();
        let c1 = v[1].conj();
        let (even, odd) = (c0 + c1, c0 - c1);
        debug_assert!(
            (even.norm_sqr() - 1.0).abs() < 1e-9 && (odd.norm_sqr() - 1.0).abs() < 1e-9,
            "gadget_measure needs unit branch multipliers (YZ-plane basis)"
        );
        let mut mask = 0usize;
        for &p in partners {
            // XOR, not OR: a repeated partner means two CZs, which cancel.
            mask ^= 1usize << self.bit_of_pos(self.pos(p));
        }
        let phase = move |(i, amp): (usize, &mut C64)| {
            *amp *= if (i & mask).count_ones() & 1 == 0 {
                even
            } else {
                odd
            };
        };
        self.amps.iter_mut().enumerate().for_each(phase);
        (outcome, 0.5)
    }

    /// Measures qubit `id` in `basis` and removes it from the register.
    ///
    /// * `forced = Some(m)` projects deterministically onto outcome `m`
    ///   (used for branch enumeration); the returned probability is the
    ///   Born probability that branch had.
    /// * `forced = None` samples the outcome from the Born rule with `rng`.
    ///
    /// Returns `(outcome, probability)`.
    ///
    /// # Panics
    /// Panics when the forced branch has probability ≈ 0 (the pattern
    /// tried to walk an impossible branch).
    pub fn measure_remove<R: Rng + ?Sized>(
        &mut self,
        id: QubitId,
        basis: &MeasBasis,
        forced: Option<u8>,
        rng: &mut R,
    ) -> (u8, f64) {
        let k = self.pos(id);
        let b = self.bit_of_pos(k);
        let half = self.amps.len() / 2;

        // One dual-projection gather: both branch projections land in
        // the scratch buffers while the Born weight of branch 0
        // accumulates — each amplitude is read exactly once, nothing is
        // allocated in steady state, and a forced branch never pays for
        // the projection it discards beyond the shared gather.
        self.scratch.clear();
        self.scratch.resize(half, C64::ZERO);
        self.scratch2.clear();
        self.scratch2.resize(half, C64::ZERO);
        let c00 = basis.v0[0].conj();
        let c01 = basis.v0[1].conj();
        let c10 = basis.v1[0].conj();
        let c11 = basis.v1[1].conj();
        let p0: f64 = if c10 == c00 && c11 == -c01 {
            // Butterfly basis (every XY(θ) measurement): one multiply
            // pair yields both branches.
            dual_pass(
                &self.amps,
                &mut self.scratch,
                &mut self.scratch2,
                b,
                move |a0, a1| {
                    let x = c00 * a0;
                    let y = c01 * a1;
                    (x + y, x - y)
                },
            )
        } else if c01 == C64::ZERO && c10 == C64::ZERO {
            // Diagonal basis (computational readout): plain strided
            // selection.
            dual_pass(
                &self.amps,
                &mut self.scratch,
                &mut self.scratch2,
                b,
                move |a0, a1| (c00 * a0, c11 * a1),
            )
        } else {
            dual_pass(
                &self.amps,
                &mut self.scratch,
                &mut self.scratch2,
                b,
                move |a0, a1| (c00 * a0 + c01 * a1, c10 * a0 + c11 * a1),
            )
        };

        let outcome = match forced {
            Some(m) => m,
            None => {
                if rng.gen::<f64>() < p0 {
                    0
                } else {
                    1
                }
            }
        };
        let prob = if outcome == 0 {
            p0
        } else {
            (1.0 - p0).max(0.0)
        };
        assert!(
            prob > 1e-12,
            "measurement branch m={outcome} on {id} has probability ~0 ({prob:.3e})"
        );

        // Renormalize the chosen projection in place (a cheap
        // real-scale pass) and ping-pong it into `amps`.
        let scale = 1.0 / prob.sqrt();
        let chosen = if outcome == 0 {
            &mut self.scratch
        } else {
            &mut self.scratch2
        };
        let renorm = |amp: &mut C64| *amp = amp.scale(scale);
        chosen.iter_mut().for_each(renorm);
        std::mem::swap(&mut self.amps, chosen);

        // Register maintenance: drop `id`, shift later positions down.
        self.qubits.remove(k);
        self.index.remove(&id);
        for q in &self.qubits[k..] {
            *self.index.get_mut(q).expect("indexed qubit") -= 1;
        }
        (outcome, prob)
    }

    /// Squared norm (should stay ≈ 1).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Renormalizes to unit norm.
    pub fn normalize(&mut self) {
        let n = self.norm_sqr().sqrt();
        if n > 0.0 {
            let s = 1.0 / n;
            self.amps.iter_mut().for_each(|z| *z = z.scale(s));
        }
    }

    /// `perm[i]` = current register position of `order[i]`, validated to
    /// be a permutation of the live qubits.
    fn perm_of(&self, order: &[QubitId]) -> Vec<usize> {
        assert_eq!(
            order.len(),
            self.qubits.len(),
            "order must list every live qubit"
        );
        let perm: Vec<usize> = order.iter().map(|&id| self.pos(id)).collect();
        let mut seen = vec![false; perm.len()];
        for &p in &perm {
            assert!(!seen[p], "order repeats a qubit");
            seen[p] = true;
        }
        perm
    }

    /// Returns the amplitudes permuted so the register order matches
    /// `order` (msb-first). `order` must be a permutation of the live ids.
    /// When `order` already matches the register order the bit-gather is
    /// skipped entirely (one memcpy).
    pub fn aligned(&self, order: &[QubitId]) -> Vec<C64> {
        let n = self.qubits.len();
        let perm = self.perm_of(order);
        if perm.iter().enumerate().all(|(i, &p)| p == i) {
            return self.amps.clone();
        }
        let gather = |new_idx: usize| -> C64 {
            let mut old_idx = 0usize;
            for (i, &p) in perm.iter().enumerate() {
                let bit = (new_idx >> (n - 1 - i)) & 1;
                old_idx |= bit << (n - 1 - p);
            }
            self.amps[old_idx]
        };
        (0..self.amps.len()).map(gather).collect()
    }

    /// `|⟨self|other⟩|` with both states aligned to `order`. 1 means the
    /// states are equal up to a global phase.
    pub fn fidelity(&self, other: &State, order: &[QubitId]) -> f64 {
        let a = self.aligned(order);
        let b = other.aligned(order);
        let ip: C64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| x.conj() * y)
            .fold(C64::ZERO, |acc, z| acc + z);
        ip.abs()
    }

    /// Expectation of a diagonal observable: `cost[bits]` where `bits` is
    /// the basis index read off the qubits in `order` (msb-first).
    ///
    /// Never materializes the aligned amplitude vector: the cost lookup
    /// is folded through the index permutation directly, and an
    /// identity-order register short-circuits to a plain zip.
    pub fn expectation_diag(&self, order: &[QubitId], cost: &[f64]) -> f64 {
        assert_eq!(
            cost.len(),
            self.amps.len(),
            "cost vector must have dimension 2^n"
        );
        let perm = self.perm_of(order);
        if perm.iter().enumerate().all(|(i, &p)| p == i) {
            return self
                .amps
                .iter()
                .zip(cost)
                .map(|(z, &c)| z.norm_sqr() * c)
                .sum();
        }
        // (source shift, destination shift) per aligned bit: aligned
        // index bit (n−1−i) is register index bit (n−1−perm[i]).
        let n = self.qubits.len();
        let shifts: Vec<(u32, u32)> = perm
            .iter()
            .enumerate()
            .map(|(i, &p)| ((n - 1 - p) as u32, (n - 1 - i) as u32))
            .collect();
        let term = |(old_idx, z): (usize, &C64)| -> f64 {
            let mut new_idx = 0usize;
            for &(src, dst) in &shifts {
                new_idx |= ((old_idx >> src) & 1) << dst;
            }
            z.norm_sqr() * cost[new_idx]
        };
        self.amps.iter().enumerate().map(term).sum()
    }

    /// Probability of each basis state in the register's own order.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|z| z.norm_sqr()).collect()
    }

    /// Samples a basis state and reports the bits of `order` (msb-first in
    /// the returned integer: bit for `order[0]` is the highest).
    pub fn sample<R: Rng + ?Sized>(&self, order: &[QubitId], rng: &mut R) -> u64 {
        let x: f64 = rng.gen();
        let mut acc = 0.0;
        let mut idx = self.amps.len() - 1;
        for (i, z) in self.amps.iter().enumerate() {
            acc += z.norm_sqr();
            if x < acc {
                idx = i;
                break;
            }
        }
        // Translate the register index into the caller's bit order.
        let n = self.qubits.len();
        let mut out = 0u64;
        for (i, &id) in order.iter().enumerate() {
            let p = self.pos(id);
            let bit = (idx >> (n - 1 - p)) & 1;
            out |= (bit as u64) << (order.len() - 1 - i);
        }
        out
    }

    /// Samples a basis state and reports the bits of `order`
    /// **lsb-first**: bit `i` of the result is the outcome of
    /// `order[i]` — the variable convention of
    /// `mbqao_problems::ZPoly::value`, shared by every backend's
    /// `sample` path.
    pub fn sample_lsb<R: Rng + ?Sized>(&self, order: &[QubitId], rng: &mut R) -> u64 {
        let msb = self.sample(order, rng);
        let n = order.len();
        let mut out = 0u64;
        for v in 0..n {
            if (msb >> (n - 1 - v)) & 1 == 1 {
                out |= 1 << v;
            }
        }
        out
    }

    /// Removes a qubit known to be in a product state with the rest
    /// (projects onto outcome 0 of the computational basis after
    /// verifying the qubit is `|0⟩` up to `eps`). Used by tests.
    pub fn drop_zero_qubit(&mut self, id: QubitId, eps: f64) {
        let k = self.pos(id);
        let b = self.bit_of_pos(k);
        // Verify all amplitude mass is on bit = 0.
        let mass1: f64 = self
            .amps
            .iter()
            .enumerate()
            .filter(|(i, _)| (i >> b) & 1 == 1)
            .map(|(_, z)| z.norm_sqr())
            .sum();
        assert!(mass1 <= eps, "qubit {id} is not |0⟩ (mass {mass1:.3e})");
        let mut rng = rand::rngs::mock::StepRng::new(0, 0);
        let _ = self.measure_remove(id, &MeasBasis::computational(), Some(0), &mut rng);
    }

    /// Asserts the state is normalized within `eps` (debug helper).
    pub fn check_normalized(&self, eps: f64) {
        let n = self.norm_sqr();
        assert!((n - 1.0).abs() < eps, "state norm² = {n}, expected 1");
    }

    /// Global-phase-insensitive equality against a dense vector given in
    /// `order`.
    pub fn approx_eq_up_to_phase(&self, order: &[QubitId], dense: &[C64], eps: f64) -> bool {
        let a = self.aligned(order);
        if a.len() != dense.len() {
            return false;
        }
        let ma = Matrix::from_vec(a.len(), 1, a);
        let mb = Matrix::from_vec(dense.len(), 1, dense.to_vec());
        ma.approx_eq_up_to_scalar(&mb, eps.max(EPS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbqao_math::gates;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn q(i: u64) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn bases_are_orthonormal() {
        for theta in [0.0, 0.3, 1.2, -2.5, std::f64::consts::PI] {
            assert!(MeasBasis::xy(theta).is_orthonormal(1e-12));
            assert!(MeasBasis::yz(theta).is_orthonormal(1e-12));
            assert!(MeasBasis::xz(theta).is_orthonormal(1e-12));
        }
        assert!(MeasBasis::computational().is_orthonormal(1e-12));
    }

    #[test]
    fn hadamard_roundtrip() {
        let mut st = State::zeros(&[q(0)]);
        st.apply_h(q(0));
        st.apply_h(q(0));
        assert!(st.approx_eq_up_to_phase(&[q(0)], &[C64::ONE, C64::ZERO], 1e-12));
    }

    #[test]
    fn bell_state_via_h_cx() {
        let mut st = State::zeros(&[q(0), q(1)]);
        st.apply_h(q(0));
        st.apply_cx(q(0), q(1));
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let expect = [C64::real(s), C64::ZERO, C64::ZERO, C64::real(s)];
        assert!(st.approx_eq_up_to_phase(&[q(0), q(1)], &expect, 1e-12));
    }

    #[test]
    fn cz_matches_matrix() {
        // Random-ish state: apply rotations then compare CZ against embed.
        let mut st = State::plus(&[q(0), q(1), q(2)]);
        st.apply_rz(q(0), 0.3);
        st.apply_rx(q(1), 0.8);
        let mut by_kernel = st.clone();
        by_kernel.apply_cz(q(1), q(2));
        let m = mbqao_math::matrix::embed(3, &[1, 2], &gates::cz());
        let dense = m.apply(&st.aligned(&[q(0), q(1), q(2)]));
        assert!(by_kernel.approx_eq_up_to_phase(&[q(0), q(1), q(2)], &dense, 1e-10));
    }

    #[test]
    fn u4_matches_embed_both_orders() {
        let u = gates::cx();
        for (a, b, targets) in [(q(0), q(2), [0usize, 2]), (q(2), q(0), [2usize, 0])] {
            let mut st = State::plus(&[q(0), q(1), q(2)]);
            st.apply_rz(q(2), 1.1);
            let dense =
                mbqao_math::matrix::embed(3, &targets, &u).apply(&st.aligned(&[q(0), q(1), q(2)]));
            st.apply_u4(a, b, &u);
            assert!(st.approx_eq_up_to_phase(&[q(0), q(1), q(2)], &dense, 1e-10));
        }
    }

    #[test]
    fn rzz_matches_exp() {
        let theta = 0.77;
        let mut st = State::plus(&[q(0), q(1)]);
        st.apply_rz(q(0), 0.2);
        let mut by_gate = st.clone();
        by_gate.apply_rzz(q(0), q(1), theta);
        // rzz(θ) = exp(i(−θ/2)ZZ)
        st.apply_exp_zz(&[q(0), q(1)], -theta / 2.0);
        assert!((st.fidelity(&by_gate, &[q(0), q(1)]) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn controlled_on_zero_rx() {
        // Control must be |0⟩ for the X rotation to fire.
        let mut st = State::zeros(&[q(0), q(1)]);
        // control q0 = |0⟩ → fires.
        st.apply_controlled_u2(&[(q(0), false)], q(1), {
            let g = gates::rx(std::f64::consts::PI);
            [g.data()[0], g.data()[1], g.data()[2], g.data()[3]]
        });
        // q1 should now be (up to phase) |1⟩.
        let probs = st.probabilities();
        assert!((probs[1] - 1.0).abs() < 1e-10, "{probs:?}");

        let mut st = State::zeros(&[q(0), q(1)]);
        st.apply_x(q(0)); // control |1⟩ → does not fire
        st.apply_controlled_u2(&[(q(0), false)], q(1), {
            let g = gates::rx(std::f64::consts::PI);
            [g.data()[0], g.data()[1], g.data()[2], g.data()[3]]
        });
        let probs = st.probabilities();
        assert!((probs[2] - 1.0).abs() < 1e-10, "{probs:?}");
    }

    #[test]
    fn measure_plus_in_x_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut st = State::plus(&[q(0)]);
        let (m, p) = st.measure_remove(q(0), &MeasBasis::xy(0.0), None, &mut rng);
        assert_eq!(m, 0, "|+⟩ measured in X basis must give outcome 0");
        assert!((p - 1.0).abs() < 1e-10);
        assert_eq!(st.n_qubits(), 0);
    }

    #[test]
    fn measure_forced_branches_have_born_probs() {
        // |0⟩ measured in X basis: both outcomes probability 1/2.
        for m in [0u8, 1u8] {
            let mut rng = StdRng::seed_from_u64(1);
            let mut st = State::zeros(&[q(0)]);
            let (_, p) = st.measure_remove(q(0), &MeasBasis::xy(0.0), Some(m), &mut rng);
            assert!((p - 0.5).abs() < 1e-10);
        }
    }

    #[test]
    fn measurement_collapse_entangled_pair() {
        // Bell pair: computational measurement of one qubit collapses the
        // other to the same bit.
        for forced in [0u8, 1u8] {
            let mut rng = StdRng::seed_from_u64(3);
            let mut st = State::zeros(&[q(0), q(1)]);
            st.apply_h(q(0));
            st.apply_cx(q(0), q(1));
            let (m, p) =
                st.measure_remove(q(0), &MeasBasis::computational(), Some(forced), &mut rng);
            assert_eq!(m, forced);
            assert!((p - 0.5).abs() < 1e-10);
            let expect = if forced == 0 {
                [C64::ONE, C64::ZERO]
            } else {
                [C64::ZERO, C64::ONE]
            };
            assert!(st.approx_eq_up_to_phase(&[q(1)], &expect, 1e-10));
        }
    }

    #[test]
    fn aligned_reorders() {
        let mut st = State::zeros(&[q(0), q(1)]);
        st.apply_x(q(1)); // state |01⟩ in (q0,q1) order
        let a = st.aligned(&[q(1), q(0)]);
        // In (q1,q0) order the state is |10⟩ = index 2.
        assert!(a[2].approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn sampling_respects_distribution() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut st = State::zeros(&[q(0), q(1)]);
        st.apply_h(q(0));
        st.apply_cx(q(0), q(1));
        let mut counts = [0usize; 4];
        for _ in 0..2000 {
            counts[st.sample(&[q(0), q(1)], &mut rng) as usize] += 1;
        }
        assert_eq!(counts[1], 0);
        assert_eq!(counts[2], 0);
        assert!(counts[0] > 800 && counts[3] > 800, "{counts:?}");
    }

    #[test]
    fn expectation_diag_ghz() {
        let mut st = State::zeros(&[q(0), q(1)]);
        st.apply_h(q(0));
        st.apply_cx(q(0), q(1));
        // cost = number of ones: ⟨cost⟩ = (0 + 2)/2 = 1.
        let cost = vec![0.0, 1.0, 1.0, 2.0];
        let e = st.expectation_diag(&[q(0), q(1)], &cost);
        assert!((e - 1.0).abs() < 1e-10);
    }

    #[test]
    fn add_and_remove_keeps_normalization() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut st = State::plus(&[q(0), q(1)]);
        st.apply_cz(q(0), q(1));
        st.add_plus(q(7));
        st.apply_cz(q(1), q(7));
        let _ = st.measure_remove(q(7), &MeasBasis::xy(0.4), None, &mut rng);
        st.check_normalized(1e-9);
        assert_eq!(st.n_qubits(), 2);
    }
}
