//! Pattern re-import: graph-state specifications → runnable patterns.
//!
//! Sec. III of the paper derives measurement patterns *from* simplified
//! ZX-diagrams; this module is the runtime half of that arrow. A
//! graph-like diagram (one Z-spider per vertex, Hadamard edges, measured
//! or output vertices) is exactly a graph state with single-qubit
//! measurements, so it re-imports as the pattern
//!
//! ```text
//!     ∏ M_v^{plane_v, θ_v}  ∏_{(u,v)∈E} E_{u,v}  ∏_v N_v(|+⟩)
//! ```
//!
//! Two execution modes exist:
//!
//! * [`GraphPatternSpec::to_pattern`] emits **no corrections**: the
//!   pattern reproduces the diagram's reference branch (every outcome
//!   0), so executors run it with `Branch::Forced(&zeros)` and
//!   renormalize — postselection, not feed-forward.
//! * [`GraphPatternSpec::to_deterministic_pattern`] finds a **gflow** of
//!   the spec's open graph ([`crate::gflow::find_gflow`]) and
//!   re-synthesizes the corrections it certifies: measurements run in a
//!   width-aware gflow order with signal-shifted `s`/`t` domains,
//!   outputs receive explicit `X`/`Z` corrections, and the resulting
//!   pattern is **strongly deterministic** — every outcome branch yields
//!   the same output state, so it is per-shot samplable with no `2^{−k}`
//!   postselection overhead (Browne–Kashefi–Mhalla–Perdrix, refs.
//!   \[32,33\] of the paper).

use crate::command::{Angle, Pauli};
use crate::gflow::{find_gflow, verify_gflow, GFlow};
use crate::opengraph::OpenGraph;
use crate::pattern::Pattern;
use crate::plane::Plane;
use crate::signal::Signal;
use mbqao_sim::QubitId;
use std::collections::HashMap;

/// One measured vertex of a [`GraphPatternSpec`].
#[derive(Debug, Clone)]
pub struct GraphMeasurement {
    /// Vertex index (into the spec's `0..nodes` range).
    pub node: usize,
    /// Measurement plane.
    pub plane: Plane,
    /// Measurement angle (may reference pattern parameters).
    pub angle: Angle,
}

/// A combinatorial pattern specification: the open graph plus per-vertex
/// measurements — what a graph-like ZX-diagram reduces to.
#[derive(Debug, Clone, Default)]
pub struct GraphPatternSpec {
    /// Number of vertices; vertex `i` becomes qubit `i`.
    pub nodes: usize,
    /// Graph-state edges (CZ entanglers).
    pub edges: Vec<(usize, usize)>,
    /// Measurements, one per non-output vertex.
    pub measures: Vec<GraphMeasurement>,
    /// Output vertices in interface order.
    pub outputs: Vec<usize>,
    /// Number of free angle parameters.
    pub n_params: usize,
}

impl GraphPatternSpec {
    /// Builds the reference-branch pattern: prepare every vertex in
    /// `|+⟩`, entangle along the edges, measure the non-output vertices
    /// (no adaptive signals), leave `outputs` open. The caller typically
    /// reorders it with [`crate::schedule::just_in_time`] so the live
    /// register stays small.
    ///
    /// # Panics
    /// Panics when the spec is inconsistent (a vertex measured twice or
    /// both measured and output, an edge out of range) — the built
    /// pattern is validated before being returned.
    pub fn to_pattern(&self) -> Pattern {
        let q = |i: usize| QubitId::new(i as u64);
        let mut p = Pattern::new(vec![], self.n_params);
        for i in 0..self.nodes {
            p.prep_plus(q(i));
        }
        for &(a, b) in &self.edges {
            assert!(
                a < self.nodes && b < self.nodes && a != b,
                "bad edge ({a},{b})"
            );
            p.entangle(q(a), q(b));
        }
        for m in &self.measures {
            assert!(m.node < self.nodes, "measured vertex out of range");
            let _ = p.measure(
                q(m.node),
                m.plane,
                m.angle.clone(),
                crate::signal::Signal::zero(),
                crate::signal::Signal::zero(),
            );
        }
        p.set_outputs(self.outputs.iter().map(|&i| q(i)).collect());
        p.validate().expect("re-imported pattern must validate");
        p
    }

    /// Qubit ids of the outputs, in interface order (matches the pattern
    /// returned by [`GraphPatternSpec::to_pattern`]).
    pub fn output_wires(&self) -> Vec<QubitId> {
        self.outputs
            .iter()
            .map(|&i| QubitId::new(i as u64))
            .collect()
    }

    /// The spec's open graph `(G, I = ∅, O, planes)` — the object gflow
    /// conditions are stated on. Re-imported specs are self-contained,
    /// so the input set is empty.
    pub fn open_graph(&self) -> OpenGraph {
        let planes: Vec<(usize, Plane)> = self.measures.iter().map(|m| (m.node, m.plane)).collect();
        OpenGraph::new(self.nodes, &self.edges, &[], &self.outputs, &planes)
    }

    /// Builds the **strongly deterministic** pattern certified by a gflow
    /// of [`GraphPatternSpec::open_graph`], or `None` when the open graph
    /// admits no gflow (the caller then falls back to reference-branch
    /// postselection).
    ///
    /// Construction (the Browne–Kashefi–Mhalla–Perdrix recipe):
    /// measuring `u` with outcome `m_u` owes byproducts `X^{m_u}` to
    /// every `w ∈ g(u)∖{u}` and `Z^{m_u}` to every `w ∈ Odd(g(u))∖{u}`,
    /// so `u` is measured before every such `w`. Within that order, the
    /// next measurement is always the ready vertex that newly prepares
    /// the fewest qubits (lowest index on ties), which keeps the
    /// just-in-time-scheduled register at the direct pattern's `|V| + 1`
    /// on QAOA extractions. Byproducts owed to a later-measured qubit
    /// are folded into its `s`/`t` domains through the plane's folding
    /// rules ([`Plane::fold_x`]/[`Plane::fold_z`] — signal shifting);
    /// byproducts owed to outputs become explicit `C` commands. On the
    /// all-zero branch every signal vanishes, so the pattern reproduces
    /// the reference branch exactly — and the gflow conditions make every
    /// other branch land on the same state.
    ///
    /// Returns the pattern together with the gflow depth (number of
    /// adaptive layers).
    pub fn to_deterministic_pattern(&self) -> Option<(Pattern, usize)> {
        let og = self.open_graph();
        let flow = find_gflow(&og)?;
        debug_assert!(verify_gflow(&og, &flow), "solver output must verify");

        let meas: HashMap<usize, &GraphMeasurement> =
            self.measures.iter().map(|m| (m.node, m)).collect();
        let q = |i: usize| QubitId::new(i as u64);
        let mut p = Pattern::new(vec![], self.n_params);
        for i in 0..self.nodes {
            p.prep_plus(q(i));
        }
        for &(a, b) in &self.edges {
            assert!(
                a < self.nodes && b < self.nodes && a != b,
                "bad edge ({a},{b})"
            );
            p.entangle(q(a), q(b));
        }

        // Pending byproducts per vertex, accumulated in GF(2).
        let mut sx: Vec<Signal> = vec![Signal::zero(); self.nodes];
        let mut sz: Vec<Signal> = vec![Signal::zero(); self.nodes];
        for u in width_aware_order(&og, &flow) {
            let m = meas.get(&u)?; // measured node without a measurement: bail
            let (x_flips, x_adds_pi) = m.plane.fold_x();
            let (z_flips, z_adds_pi) = m.plane.fold_z();
            let mut s = Signal::zero();
            let mut t = Signal::zero();
            if x_flips {
                s.xor_assign(&sx[u]);
            }
            if x_adds_pi {
                t.xor_assign(&sx[u]);
            }
            if z_flips {
                s.xor_assign(&sz[u]);
            }
            if z_adds_pi {
                t.xor_assign(&sz[u]);
            }
            let out = p.measure(q(u), m.plane, m.angle.clone(), s, t);
            let mu = Signal::var(out);
            let k = &flow.g[&u];
            for w in k.iter_ones() {
                if w != u {
                    sx[w].xor_assign(&mu);
                }
            }
            for w in og.odd_neighborhood(k).iter_ones() {
                if w != u {
                    sz[w].xor_assign(&mu);
                }
            }
        }
        for &o in &self.outputs {
            p.correct(q(o), Pauli::X, sx[o].clone());
            p.correct(q(o), Pauli::Z, sz[o].clone());
        }
        p.set_outputs(self.outputs.iter().map(|&i| q(i)).collect());
        p.validate()
            .expect("gflow-synthesized pattern must validate");
        Some((p, flow.depth()))
    }
}

/// A measurement order for `flow` that keeps the live register narrow.
///
/// Measuring `u` owes byproducts to `(g(u) ∪ Odd(g(u)))∖{u}`, so every
/// measured vertex there must come after `u`; any linear extension of
/// that relation carries the same corrections. Among the vertices whose
/// predecessors are all measured, each step measures the one that newly
/// prepares the fewest qubits: itself if not yet live, plus its
/// unmeasured neighbours that are not yet live (the entanglers its
/// measurement forces, in the order [`crate::schedule::just_in_time`]
/// emits them). Ties go to the lowest vertex index, so the order depends
/// on nothing but the open graph and the flow.
///
/// The gflow's layer order ([`GFlow::measurement_order`]) measures a
/// whole layer before the next, which keeps the next layer's entire
/// neighbourhood alive at once.
pub(crate) fn width_aware_order(og: &OpenGraph, flow: &GFlow) -> Vec<usize> {
    let n = og.n();
    let measured = |w: usize| !og.outputs().get(w);
    let nbrs: Vec<Vec<usize>> = (0..n)
        .map(|u| og.neighbors(u).iter_ones().collect())
        .collect();
    // succ[u]: measured vertices that must follow u; preds[w]: how many
    // unmeasured vertices must still precede w.
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut preds = vec![0usize; n];
    for u in (0..n).filter(|&u| measured(u)) {
        let k = &flow.g[&u];
        let mut owed = og.odd_neighborhood(k);
        for c in k.iter_ones() {
            owed.set(c, true);
        }
        for w in owed.iter_ones().filter(|&w| w != u && measured(w)) {
            succ[u].push(w);
            preds[w] += 1;
        }
    }

    let mut live = vec![false; n];
    let mut done = vec![false; n];
    let mut ready: Vec<usize> = (0..n).filter(|&u| measured(u) && preds[u] == 0).collect();
    let mut order = Vec::with_capacity(flow.g.len());
    while !ready.is_empty() {
        let new_preps = |u: usize| {
            usize::from(!live[u]) + nbrs[u].iter().filter(|&&v| !live[v] && !done[v]).count()
        };
        let i = (0..ready.len())
            .min_by_key(|&i| (new_preps(ready[i]), ready[i]))
            .expect("ready is non-empty");
        let u = ready.swap_remove(i);
        done[u] = true;
        for &v in &nbrs[u] {
            live[v] = !done[v];
        }
        for &w in &succ[u] {
            preds[w] -= 1;
            if preds[w] == 0 {
                ready.push(w);
            }
        }
        order.push(u);
    }
    debug_assert_eq!(order.len(), flow.g.len(), "the gflow relation is acyclic");
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::{run, Branch};
    use mbqao_sim::State;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// J(θ)|+⟩ on the reference branch: vertex 0 measured XY(−θ),
    /// vertex 1 output — must give H·Rz(θ)|+⟩ after renormalization.
    #[test]
    fn single_edge_reference_branch_is_j_on_plus() {
        let theta = 0.731;
        let spec = GraphPatternSpec {
            nodes: 2,
            edges: vec![(0, 1)],
            measures: vec![GraphMeasurement {
                node: 0,
                plane: Plane::XY,
                angle: Angle::constant(-theta),
            }],
            outputs: vec![1],
            n_params: 0,
        };
        let p = spec.to_pattern();
        let mut rng = StdRng::seed_from_u64(0);
        let r = run(&p, &[], Branch::Forced(&[0]), &mut rng);

        let q0 = QubitId::new(0);
        let mut reference = State::plus(&[q0]);
        reference.apply_rz(q0, theta);
        reference.apply_h(q0);
        let want = reference.aligned(&[q0]);
        assert!(
            r.state
                .approx_eq_up_to_phase(&spec.output_wires(), &want, 1e-9),
            "reference branch must implement J(θ) on |+⟩"
        );
    }

    /// The J(θ) spec must synthesize the textbook corrected pattern and
    /// pass exhaustive determinism.
    #[test]
    fn deterministic_single_edge_matches_reference_on_every_branch() {
        let theta = 0.731;
        let spec = GraphPatternSpec {
            nodes: 2,
            edges: vec![(0, 1)],
            measures: vec![GraphMeasurement {
                node: 0,
                plane: Plane::XY,
                angle: Angle::constant(-theta),
            }],
            outputs: vec![1],
            n_params: 0,
        };
        let (p, depth) = spec.to_deterministic_pattern().expect("line has gflow");
        assert_eq!(depth, 1);
        let report = crate::determinism::check_determinism(&p, &State::new(), &[], 1e-9);
        assert!(report.deterministic, "{report:?}");

        // And the common output is the reference branch's state.
        let q0 = QubitId::new(0);
        let mut reference = State::plus(&[q0]);
        reference.apply_rz(q0, theta);
        reference.apply_h(q0);
        let want = reference.aligned(&[q0]);
        let mut rng = StdRng::seed_from_u64(3);
        let r = run(&p, &[], Branch::Random, &mut rng);
        assert!(r
            .state
            .approx_eq_up_to_phase(&spec.output_wires(), &want, 1e-9));
    }

    /// A mixed-plane spec (XY chain + YZ gadget hub) synthesizes a
    /// deterministic pattern: exactly the structure ZX extraction
    /// produces for QAOA.
    #[test]
    fn deterministic_mixed_plane_spec_passes_branch_enumeration() {
        let spec = GraphPatternSpec {
            nodes: 5,
            edges: vec![(0, 1), (1, 2), (3, 0), (3, 2), (3, 4)],
            measures: vec![
                GraphMeasurement {
                    node: 0,
                    plane: Plane::XY,
                    angle: Angle::constant(0.4),
                },
                GraphMeasurement {
                    node: 1,
                    plane: Plane::XY,
                    angle: Angle::constant(-0.9),
                },
                GraphMeasurement {
                    node: 3,
                    plane: Plane::YZ,
                    angle: Angle::constant(1.3),
                },
            ],
            outputs: vec![2, 4],
            n_params: 0,
        };
        let (p, _) = spec.to_deterministic_pattern().expect("spec has gflow");
        let report = crate::determinism::check_determinism(&p, &State::new(), &[], 1e-8);
        assert!(report.deterministic, "{report:?}");

        // Branch 0 of the corrected pattern equals the uncorrected
        // reference-branch pattern's output (corrections vanish there).
        let zeros = [0u8; 3];
        let mut rng = StdRng::seed_from_u64(0);
        let corrected = run(&p, &[], Branch::Forced(&zeros), &mut rng);
        let mut rng = StdRng::seed_from_u64(0);
        let reference = run(&spec.to_pattern(), &[], Branch::Forced(&zeros), &mut rng);
        let wires = spec.output_wires();
        let fid = corrected.state.fidelity(&reference.state, &wires);
        assert!((fid - 1.0).abs() < 1e-9, "branch 0 must match: {fid}");
    }

    /// A spec without gflow (isolated XY-measured vertex) falls back to
    /// `None` instead of producing a bogus pattern.
    #[test]
    fn flowless_spec_returns_none() {
        let spec = GraphPatternSpec {
            nodes: 2,
            edges: vec![],
            measures: vec![GraphMeasurement {
                node: 0,
                plane: Plane::XY,
                angle: Angle::constant(0.2),
            }],
            outputs: vec![1],
            n_params: 0,
        };
        assert!(spec.to_deterministic_pattern().is_none());
    }

    #[test]
    #[should_panic(expected = "bad edge")]
    fn rejects_out_of_range_edges() {
        let spec = GraphPatternSpec {
            nodes: 1,
            edges: vec![(0, 3)],
            measures: vec![],
            outputs: vec![0],
            n_params: 0,
        };
        let _ = spec.to_pattern();
    }

    #[test]
    #[should_panic(expected = "re-imported pattern must validate")]
    fn rejects_measured_outputs() {
        let spec = GraphPatternSpec {
            nodes: 1,
            edges: vec![],
            measures: vec![GraphMeasurement {
                node: 0,
                plane: Plane::XY,
                angle: Angle::constant(0.0),
            }],
            outputs: vec![0],
            n_params: 0,
        };
        let _ = spec.to_pattern();
    }
}
