//! Fixpoint simplification.
//!
//! Two levels of normalization, both exactly semantics-preserving:
//!
//! * [`simplify`] applies the terminating subset of the Fig.-1 rules —
//!   spider fusion, identity removal, self-loop cleanup and Hopf
//!   cancellation (both the plain Z–X form and the parallel-Hadamard
//!   same-colour form) — until no rule fires. This is the normalization
//!   the paper's derivations perform between the labelled steps.
//! * [`clifford_simp`] is the *Clifford-complete* pass (pyzx's
//!   `interior_clifford_simp`): on top of the graph-like normal form it
//!   eliminates every interior proper-Clifford spider by local
//!   complementation ([`rules::try_local_complement`]), every adjacent
//!   interior Pauli pair by pivoting ([`rules::try_pivot`]), and every
//!   interior Pauli spider next to a boundary-carrying Pauli spider by a
//!   *boundary pivot* (identity insertion followed by an ordinary
//!   pivot). This is what removes the phaseless wire spiders left by
//!   `XY(0)` mixer measurements and the phase-gadget hubs that the
//!   Fig.-1 subset cannot touch.

use crate::diagram::{Diagram, EdgeType, NodeId, NodeKind};
use crate::extract::{to_graph_like, GraphLikeStats};
use crate::rules;
use mbqao_math::PhaseExpr;

/// Statistics of a simplification run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimplifyStats {
    /// Spider fusions applied.
    pub fusions: usize,
    /// Identity spiders removed.
    pub identities: usize,
    /// Self-loops cancelled.
    pub self_loops: usize,
    /// Hopf pairs cancelled.
    pub hopf: usize,
    /// Parallel Hadamard-edge pairs cancelled (same-colour Hopf).
    pub parallel_h: usize,
    /// Fixpoint iterations.
    pub passes: usize,
}

impl SimplifyStats {
    /// Total rule applications across all passes.
    pub fn total(&self) -> usize {
        self.fusions + self.identities + self.self_loops + self.hopf + self.parallel_h
    }

    /// Accumulates another run's counts (passes add up too).
    pub fn merge(&mut self, other: &SimplifyStats) {
        self.fusions += other.fusions;
        self.identities += other.identities;
        self.self_loops += other.self_loops;
        self.hopf += other.hopf;
        self.parallel_h += other.parallel_h;
        self.passes += other.passes;
    }
}

/// Simplifies in place to a fixpoint; returns counts of applied rules.
///
/// ```
/// use mbqao_math::{PhaseExpr, Rational};
/// use mbqao_zx::diagram::{Diagram, EdgeType};
/// use mbqao_zx::simplify::simplify;
///
/// // A chain of three Z-rotations fuses into one spider.
/// let mut d = Diagram::new();
/// let i = d.add_input();
/// let o = d.add_output();
/// let mut prev = i;
/// for k in 1..=3 {
///     let z = d.add_z(PhaseExpr::pi_times(Rational::new(1, k)));
///     d.add_edge(prev, z, EdgeType::Plain);
///     prev = z;
/// }
/// d.add_edge(prev, o, EdgeType::Plain);
///
/// let stats = simplify(&mut d);
/// assert_eq!(stats.fusions, 2);
/// assert_eq!(d.internal_node_count(), 1);
/// ```
pub fn simplify(d: &mut Diagram) -> SimplifyStats {
    let mut stats = SimplifyStats::default();
    loop {
        stats.passes += 1;
        let mut changed = false;

        // Self-loops first (fusion can create them).
        for e in d.edge_ids() {
            if rules::try_cancel_self_loop(d, e) {
                stats.self_loops += 1;
                changed = true;
            }
        }
        // Fusion.
        for e in d.edge_ids() {
            if rules::try_fuse(d, e) {
                stats.fusions += 1;
                changed = true;
            }
        }
        // Hopf between every adjacent pair: opposite-colour plain pairs
        // and same-colour parallel-Hadamard pairs.
        let nodes = d.node_ids();
        for &a in &nodes {
            if d.node(a).is_none() {
                continue;
            }
            let neighbors: Vec<_> = d.neighbors(a).into_iter().map(|(_, o, _)| o).collect();
            for b in neighbors {
                if d.node(b).is_none() {
                    continue;
                }
                if rules::try_hopf(d, a, b) {
                    stats.hopf += 1;
                    changed = true;
                }
                if rules::try_parallel_h_cancel(d, a, b) {
                    stats.parallel_h += 1;
                    changed = true;
                }
            }
        }
        // Identity removal.
        for n in d.node_ids() {
            if rules::try_remove_identity(d, n) {
                stats.identities += 1;
                changed = true;
            }
        }

        if !changed {
            break;
        }
        assert!(stats.passes < 10_000, "simplify failed to terminate");
    }
    stats
}

/// Statistics of a [`clifford_simp`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CliffordStats {
    /// Interior proper-Clifford spiders removed by local complementation.
    pub local_complements: usize,
    /// Interior Pauli spider pairs removed by pivoting.
    pub pivots: usize,
    /// Boundary pivots (interior Pauli spider + boundary-carrying Pauli
    /// partner removed; one fresh boundary spider inserted).
    pub boundary_pivots: usize,
    /// Pauli-phased degree-1 leaves copied through their hub (the (c)
    /// rule behind a colour change): leaf and hub removed, the hub's
    /// remaining neighbours gain the leaf's phase.
    pub pauli_leaf_copies: usize,
    /// Rule counts of the interleaved graph-like re-normalizations.
    pub graph_like: GraphLikeStats,
    /// Fixpoint rounds.
    pub rounds: usize,
}

impl CliffordStats {
    /// Total Clifford-structure eliminations (each pivot removes two
    /// spiders, each local complementation one, each boundary pivot one
    /// net of the inserted identity).
    pub fn total(&self) -> usize {
        self.local_complements + self.pivots + self.boundary_pivots + self.pauli_leaf_copies
    }
}

/// `true` when `id` is an internal node (spider or H-box).
fn is_internal(d: &Diagram, id: NodeId) -> bool {
    !matches!(
        d.node(id).expect("live").kind,
        NodeKind::Input(_) | NodeKind::Output(_)
    )
}

/// **Boundary pivot**: an interior Pauli spider `u` H-adjacent to a
/// Pauli spider `v` that carries exactly one boundary leg (its other
/// legs graph-like). The boundary leg is split off onto a fresh
/// phaseless spider by an exact identity insertion — `v —τ— β` becomes
/// `v —H— t —τ′— β` with `τ′` chosen so the Hadamard parity is
/// unchanged — making `v` interior, and the ordinary pivot then removes
/// `u` and `v`. Net effect: one spider fewer, `u` eliminated.
///
/// Returns `false` (diagram untouched) when the preconditions fail.
fn try_boundary_pivot(d: &mut Diagram, u: NodeId, v: NodeId) -> bool {
    // u must be interior Pauli (every leg a single H-edge to an internal
    // Z-spider); v Pauli with exactly one boundary leg.
    if d.node(u).is_none_or(|n| !n.phase.is_pauli())
        || rules::interior_spider_neighbors(d, u).is_none()
        || d.node(v).is_none_or(|n| !n.phase.is_pauli())
        || !matches!(d.node(v).expect("live").kind, NodeKind::Z)
    {
        return false;
    }
    let boundary_legs: Vec<(usize, NodeId, EdgeType)> = d
        .neighbors(v)
        .into_iter()
        .filter(|&(_, o, _)| !is_internal(d, o))
        .collect();
    // Exactly one boundary leg: the pivot then nets one node saved.
    let [(edge, boundary, ty)] = boundary_legs[..] else {
        return false;
    };
    // Check the pivot precondition on the *rest* of v's legs before
    // touching anything: simulate v-interior by requiring every other
    // leg to be a single H-edge to an internal Z-spider.
    let mut seen: Vec<NodeId> = Vec::new();
    for (e, w, t) in d.neighbors(v) {
        if e == edge {
            continue;
        }
        if t != EdgeType::Hadamard
            || w == v
            || !matches!(d.node(w).map(|n| &n.kind), Some(NodeKind::Z))
            || !is_internal(d, w)
            || seen.contains(&w)
        {
            return false;
        }
        seen.push(w);
    }
    if !seen.contains(&u) {
        return false; // u must be adjacent through an H-edge
    }
    // Split the boundary leg off: v —H— t —τ′— boundary.
    let t_new = d.add_z(PhaseExpr::zero());
    let ty2 = match ty {
        EdgeType::Plain => EdgeType::Hadamard,
        EdgeType::Hadamard => EdgeType::Plain,
    };
    d.remove_edge(edge);
    let e1 = d.add_edge(v, t_new, EdgeType::Hadamard);
    let e2 = d.add_edge(t_new, boundary, ty2);
    // `v` is now interior Pauli. The pivot can still refuse (a toggle
    // pair that is not H-simple); *revert the insertion* in that case so
    // a failed attempt restores the live graph and its semantics —
    // otherwise the leftover identity can seed a fire-forever cycle (a
    // later boundary pivot consuming it nets zero nodes and never
    // converges). Indices are not restored: the boundary leg comes back
    // under a fresh edge index, and each failure leaves one dead node
    // slot and three dead edge slots behind.
    if rules::try_pivot(d, u, v) {
        true
    } else {
        d.remove_edge(e1);
        d.remove_edge(e2);
        d.remove_node(t_new);
        d.add_edge(v, boundary, ty);
        false
    }
}

/// **Pauli-leaf copy**: a degree-1 Z-spider `l` with Pauli phase `aπ`
/// H-connected to an internal Z-spider `s` whose every other neighbour
/// is internal. `Z(aπ)` behind a Hadamard is the computational state
/// `√2|a⟩`, so the (c) copy rule fires after a colour change: `l` and
/// `s` disappear and every remaining neighbour of `s` inherits the
/// phase `aπ` (the copies re-fuse in the next graph-like pass). This is
/// the shape pivoting leaves behind when it rewires a phase-gadget leaf
/// onto a π-spider — an XY-measured degree-1 vertex would break gflow,
/// so eliminating it exactly is what keeps extractions deterministic.
fn try_pauli_leaf_copy(d: &mut Diagram, l: NodeId) -> bool {
    let Some(node) = d.node(l) else {
        return false;
    };
    if !matches!(node.kind, NodeKind::Z) || !node.phase.is_pauli() || d.degree(l) != 1 {
        return false;
    }
    let (_, s, ty) = d.neighbors(l)[0];
    if ty != EdgeType::Hadamard
        || s == l
        || !is_internal(d, s)
        || !matches!(d.node(s).expect("live").kind, NodeKind::Z)
    {
        return false;
    }
    // Copying attaches a computational state to every remaining leg of
    // `s`; a boundary leg would turn an open output into a fixed state,
    // so require them all internal.
    if d.neighbors(s)
        .into_iter()
        .any(|(_, w, _)| w != l && !is_internal(d, w))
    {
        return false;
    }
    // Z(aπ) —H— s  ≡  X(aπ) —plain— s: colour change, then (c) copy.
    assert!(rules::color_change(d, l), "leaf is a spider");
    assert!(rules::try_copy(d, l), "copy preconditions were checked");
    true
}

/// Clifford-complete simplification to a fixpoint (pyzx-style
/// `interior_clifford_simp`): establishes the graph-like normal form,
/// then alternates local complementation, interior pivots, boundary
/// pivots and Pauli-leaf copies with graph-like re-normalization until
/// no rule fires. Exact semantics are preserved (every constituent step
/// is).
///
/// Terminates because every successful lcomp/pivot/boundary-pivot
/// strictly decreases the internal node count and the interleaved
/// normalization never increases it.
///
/// ```
/// use mbqao_math::{PhaseExpr, Rational};
/// use mbqao_zx::diagram::{Diagram, EdgeType};
/// use mbqao_zx::simplify::clifford_simp;
///
/// // A phaseless hub H-connected to a phaseless degree-3 wire spider
/// // (the shape XY(0) mixer measurements leave behind): an adjacent
/// // interior Pauli pair, which only a pivot can eliminate — the
/// // Fig.-1 rules alone leave both spiders in place.
/// let mut d = Diagram::new();
/// let hub = d.add_z(PhaseExpr::zero());
/// let wire = d.add_z(PhaseExpr::zero());
/// let leaf = d.add_z(PhaseExpr::pi_times(Rational::new(1, 7)));
/// let w1 = d.add_z(PhaseExpr::pi_times(Rational::new(1, 3)));
/// let w2 = d.add_z(PhaseExpr::pi_times(Rational::new(1, 5)));
/// let w3 = d.add_z(PhaseExpr::pi_times(Rational::new(2, 3)));
/// d.add_edge(hub, wire, EdgeType::Hadamard);
/// d.add_edge(hub, leaf, EdgeType::Hadamard);
/// d.add_edge(hub, w2, EdgeType::Hadamard);
/// d.add_edge(wire, w1, EdgeType::Hadamard);
/// d.add_edge(wire, w3, EdgeType::Hadamard);
/// for w in [w1, w2, w3] {
///     let o = d.add_output();
///     d.add_edge(w, o, EdgeType::Plain);
/// }
/// let n_before = d.internal_node_count();
/// let stats = clifford_simp(&mut d);
/// assert!(stats.pivots >= 1);
/// assert!(d.internal_node_count() < n_before);
/// ```
pub fn clifford_simp(d: &mut Diagram) -> CliffordStats {
    let mut stats = CliffordStats {
        graph_like: to_graph_like(d),
        ..Default::default()
    };
    loop {
        stats.rounds += 1;
        let mut fired = false;

        // Local complementation on every interior proper-Clifford spider.
        for u in d.node_ids() {
            if d.node(u).is_some() && rules::try_local_complement(d, u) {
                stats.local_complements += 1;
                fired = true;
            }
        }
        // Interior pivots on adjacent Pauli pairs.
        for u in d.node_ids() {
            if d.node(u).is_none() {
                continue;
            }
            let nb: Vec<NodeId> = d.neighbors(u).into_iter().map(|(_, o, _)| o).collect();
            for v in nb {
                if d.node(u).is_none() || d.node(v).is_none() {
                    break;
                }
                if rules::try_pivot(d, u, v) {
                    stats.pivots += 1;
                    fired = true;
                    break; // u is gone
                }
            }
        }
        // Boundary pivots: interior Pauli next to a boundary-carrying
        // Pauli spider.
        for u in d.node_ids() {
            if d.node(u).is_none() {
                continue;
            }
            let nb: Vec<NodeId> = d.neighbors(u).into_iter().map(|(_, o, _)| o).collect();
            for v in nb {
                if d.node(u).is_none() || d.node(v).is_none() {
                    break;
                }
                if try_boundary_pivot(d, u, v) {
                    stats.boundary_pivots += 1;
                    fired = true;
                    break; // u is gone
                }
            }
        }
        // Pauli-phased degree-1 leaves copy through their hub.
        for l in d.node_ids() {
            if d.node(l).is_some() && try_pauli_leaf_copy(d, l) {
                stats.pauli_leaf_copies += 1;
                fired = true;
            }
        }

        if !fired {
            break;
        }
        // Re-normalize: phase cancellations can expose identities,
        // fusions and fresh Clifford structure.
        stats.graph_like.merge(&to_graph_like(d));
        assert!(stats.rounds < 10_000, "clifford_simp failed to terminate");
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagram::EdgeType;
    use crate::tensor::equal_exact;
    use mbqao_math::{PhaseExpr, Rational};

    #[test]
    fn chain_of_rotations_fuses_to_one_spider() {
        let mut d = Diagram::new();
        let i = d.add_input();
        let mut prev = i;
        for k in 1..=5 {
            let z = d.add_z(PhaseExpr::pi_times(Rational::new(1, k)));
            d.add_edge(prev, z, EdgeType::Plain);
            prev = z;
        }
        let o = d.add_output();
        d.add_edge(prev, o, EdgeType::Plain);

        let before = d.clone();
        let stats = simplify(&mut d);
        assert_eq!(stats.fusions, 4);
        assert_eq!(d.internal_node_count(), 1);
        assert!(equal_exact(&before, &d, &|_| 0.0, 1e-9));
    }

    #[test]
    fn hh_wire_collapses_to_identity() {
        // i —H— Z(0) —H— o  ⇒  plain wire.
        let mut d = Diagram::new();
        let i = d.add_input();
        let z = d.add_z(PhaseExpr::zero());
        let o = d.add_output();
        d.add_edge(i, z, EdgeType::Hadamard);
        d.add_edge(z, o, EdgeType::Hadamard);
        let before = d.clone();
        simplify(&mut d);
        assert_eq!(d.internal_node_count(), 0);
        assert!(equal_exact(&before, &d, &|_| 0.0, 1e-9));
    }

    #[test]
    fn fusion_induced_loops_cancel() {
        // Two spiders doubly connected (plain): fuse → self-loop → drop.
        let mut d = Diagram::new();
        let i = d.add_input();
        let a = d.add_z(PhaseExpr::pi_times(Rational::new(1, 3)));
        let b = d.add_z(PhaseExpr::pi_times(Rational::new(1, 6)));
        let o = d.add_output();
        d.add_edge(i, a, EdgeType::Plain);
        d.add_edge(a, b, EdgeType::Plain);
        d.add_edge(a, b, EdgeType::Plain);
        d.add_edge(b, o, EdgeType::Plain);
        let before = d.clone();
        let stats = simplify(&mut d);
        assert!(stats.fusions >= 1 && stats.self_loops >= 1);
        assert!(equal_exact(&before, &d, &|_| 0.0, 1e-9));
        assert_eq!(d.internal_node_count(), 1);
    }

    /// A gadget-hub fixture mirroring the QAOA export shape: an interior
    /// phaseless hub H-connected to two phased wire spiders (each with a
    /// boundary leg) and to a phased leaf, plus an interior Pauli wire
    /// spider adjacent to the hub.
    fn hub_fixture() -> Diagram {
        let mut d = Diagram::new();
        let hub = d.add_z(PhaseExpr::zero());
        let wire = d.add_z(PhaseExpr::zero()); // interior Pauli partner
        let w1 = d.add_z(PhaseExpr::pi_times(Rational::new(1, 3)));
        let w2 = d.add_z(PhaseExpr::pi_times(Rational::new(1, 5)));
        let w3 = d.add_z(PhaseExpr::pi_times(Rational::new(2, 3)));
        let leaf = d.add_z(PhaseExpr::pi_times(Rational::new(1, 7)));
        d.add_edge(hub, wire, EdgeType::Hadamard);
        d.add_edge(hub, leaf, EdgeType::Hadamard);
        d.add_edge(hub, w2, EdgeType::Hadamard);
        // wire has degree 3 (like an XY(0) mixer spider between hubs), so
        // plain identity removal cannot touch it.
        d.add_edge(wire, w1, EdgeType::Hadamard);
        d.add_edge(wire, w3, EdgeType::Hadamard);
        for w in [w1, w2, w3] {
            let o = d.add_output();
            d.add_edge(w, o, EdgeType::Plain);
        }
        d
    }

    #[test]
    fn clifford_simp_pivots_out_pauli_pairs() {
        let before = hub_fixture();
        let mut d = before.clone();
        let n_before = d.internal_node_count();
        let stats = clifford_simp(&mut d);
        assert!(stats.pivots >= 1, "hub–wire pair must pivot: {stats:?}");
        assert!(d.internal_node_count() < n_before);
        assert!(equal_exact(&before, &d, &|_| 0.0, 1e-9));
        assert!(crate::extract::is_graph_like(&d));
    }

    #[test]
    fn clifford_simp_removes_proper_clifford_spiders() {
        // out —H— Z(π/4) —H— Z(π/2) —H— Z(π/4) —H— out: the π/2 spider
        // is interior proper Clifford; local complementation removes it.
        let mut d = Diagram::new();
        let o1 = d.add_output();
        let a = d.add_z(PhaseExpr::pi_times(Rational::new(1, 4)));
        let u = d.add_z(PhaseExpr::pi_times(Rational::HALF));
        let b = d.add_z(PhaseExpr::pi_times(Rational::new(1, 4)));
        let o2 = d.add_output();
        d.add_edge(o1, a, EdgeType::Plain);
        d.add_edge(a, u, EdgeType::Hadamard);
        d.add_edge(u, b, EdgeType::Hadamard);
        d.add_edge(b, o2, EdgeType::Plain);
        let before = d.clone();
        let stats = clifford_simp(&mut d);
        assert!(stats.local_complements >= 1, "{stats:?}");
        assert!(d.node(u).is_none(), "π/2 spider must be eliminated");
        assert!(equal_exact(&before, &d, &|_| 0.0, 1e-9));
    }

    #[test]
    fn clifford_simp_is_idempotent_and_graph_like() {
        let mut d = hub_fixture();
        clifford_simp(&mut d);
        let again = clifford_simp(&mut d);
        assert_eq!(again.total(), 0, "second run must be a no-op");
        assert!(crate::extract::is_graph_like(&d));
    }

    #[test]
    fn boundary_pivot_nets_one_node() {
        // Interior Pauli b (degree 3, so identity removal can't touch it)
        // next to a boundary-carrying π-spider a: only the boundary pivot
        // can eliminate the pair.
        let mut d = Diagram::new();
        let o1 = d.add_output();
        let a = d.add_z(PhaseExpr::pi());
        let b = d.add_z(PhaseExpr::zero());
        let c = d.add_z(PhaseExpr::pi_times(Rational::new(1, 4)));
        let c2 = d.add_z(PhaseExpr::pi_times(Rational::new(3, 4)));
        let o2 = d.add_output();
        let o3 = d.add_output();
        d.add_edge(o1, a, EdgeType::Plain);
        d.add_edge(a, b, EdgeType::Hadamard);
        d.add_edge(b, c, EdgeType::Hadamard);
        d.add_edge(b, c2, EdgeType::Hadamard);
        d.add_edge(c, o2, EdgeType::Plain);
        d.add_edge(c2, o3, EdgeType::Plain);
        let before = d.clone();
        let n_before = d.internal_node_count();
        let stats = clifford_simp(&mut d);
        assert!(stats.boundary_pivots >= 1, "{stats:?}");
        assert!(d.internal_node_count() < n_before);
        assert!(equal_exact(&before, &d, &|_| 0.0, 1e-9));
    }

    #[test]
    fn simplify_is_idempotent() {
        let mut d = Diagram::new();
        let i = d.add_input();
        let z = d.add_z(PhaseExpr::pi_times(Rational::new(1, 2)));
        let o = d.add_output();
        d.add_edge(i, z, EdgeType::Plain);
        d.add_edge(z, o, EdgeType::Plain);
        simplify(&mut d);
        let stats = simplify(&mut d);
        assert_eq!(
            stats,
            SimplifyStats {
                passes: 1,
                ..Default::default()
            },
            "second run must be a no-op"
        );
    }
}
