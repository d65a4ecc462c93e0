//! Property tests: every rewrite rule in `rules.rs` preserves the
//! diagram's tensor semantics on random small diagrams, and `simplify` /
//! `to_graph_like` reach a fixpoint (idempotent on their own output).
//! After each of them the diagram's incidence index must still agree
//! with a scan of its edge slots.
//!
//! Random diagrams use constant phases on the π/4 grid plus one bound
//! symbol, so [`mbqao_zx::tensor::evaluate`] — the ground truth — can
//! compare before/after exactly (including the tracked scalar). Case
//! counts follow `ProptestConfig::default()`, which the scheduled CI job
//! scales up via `PROPTEST_CASES`.

use mbqao_math::{PhaseExpr, Rational, Symbol};
use mbqao_zx::diagram::{Diagram, EdgeType, NodeId, NodeKind};
use mbqao_zx::extract::{is_graph_like, to_graph_like};
use mbqao_zx::rules;
use mbqao_zx::simplify::{clifford_simp, simplify};
use mbqao_zx::tensor::evaluate;
use proptest::prelude::*;

/// The one symbol random diagrams may mention, bound to a fixed
/// irrational-ish angle.
const SYM: Symbol = Symbol(0);
const SYM_VALUE: f64 = 0.739_085_133_215_160_6; // the Dottie number

fn bindings(s: Symbol) -> f64 {
    assert_eq!(s, SYM, "random diagrams use a single symbol");
    SYM_VALUE
}

/// A random-diagram recipe: everything needed to deterministically build
/// a small open diagram.
#[derive(Debug, Clone)]
struct Recipe {
    /// Per internal node: `(is_x, phase_numerator/4·π, symbolic?)`.
    nodes: Vec<(bool, i64, bool)>,
    /// Edges as `(a, b, hadamard)` over node indices (wrapped mod len).
    edges: Vec<(usize, usize, bool)>,
    /// Which nodes get an input / output boundary leg.
    inputs: Vec<usize>,
    outputs: Vec<usize>,
}

fn build(recipe: &Recipe) -> Diagram {
    let mut d = Diagram::new();
    let ids: Vec<NodeId> = recipe
        .nodes
        .iter()
        .map(|&(is_x, num, symbolic)| {
            let mut phase = PhaseExpr::pi_times(Rational::new(num, 4));
            if symbolic {
                phase = phase + PhaseExpr::symbol(SYM, Rational::ONE);
            }
            if is_x {
                d.add_x(phase)
            } else {
                d.add_z(phase)
            }
        })
        .collect();
    let n = ids.len();
    for &(a, b, h) in &recipe.edges {
        let ty = if h {
            EdgeType::Hadamard
        } else {
            EdgeType::Plain
        };
        d.add_edge(ids[a % n], ids[b % n], ty);
    }
    for &i in &recipe.inputs {
        let b = d.add_input();
        d.add_edge(b, ids[i % n], EdgeType::Plain);
    }
    for &o in &recipe.outputs {
        let b = d.add_output();
        d.add_edge(ids[o % n], b, EdgeType::Plain);
    }
    d
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    (
        proptest::collection::vec((proptest::bool::ANY, -3i64..5, proptest::bool::ANY), 1..5),
        proptest::collection::vec((0usize..5, 0usize..5, proptest::bool::ANY), 0..7),
        proptest::collection::vec(0usize..5, 0..3),
        proptest::collection::vec(0usize..5, 0..3),
    )
        .prop_map(|(nodes, edges, inputs, outputs)| Recipe {
            nodes,
            edges,
            inputs,
            outputs,
        })
}

/// Asserts `after` has the same tensor semantics as `before` (exact,
/// scalar included).
fn assert_preserved(before: &Diagram, after: &Diagram, what: &str) {
    let a = evaluate(before, &bindings);
    let b = evaluate(after, &bindings);
    assert!(
        a.approx_eq(&b, 1e-9),
        "{what} changed the diagram's semantics"
    );
}

/// Asserts the diagram's incidence index agrees with a scan of its edge
/// slots on every node slot, dead ones included: `incident_edges` (and
/// the edge order of `neighbors`) is the ascending list of live edges
/// touching the slot, and `degree` the scan's count with self-loops
/// counted twice.
fn assert_index_matches_scan(d: &Diagram) {
    // Node slots are handed out in order, so the next id is the count.
    let slots = d.clone().add_z(PhaseExpr::zero());
    let edges: Vec<(usize, NodeId, NodeId)> = d
        .edge_ids()
        .into_iter()
        .map(|e| {
            let (a, b, _) = d.edge(e).expect("live");
            (e, a, b)
        })
        .collect();
    for v in 0..slots {
        let scan: Vec<usize> = edges
            .iter()
            .filter(|&&(_, a, b)| a == v || b == v)
            .map(|&(e, _, _)| e)
            .collect();
        assert_eq!(d.incident_edges(v), scan, "incident edges of slot {v}");
        let via_neighbors: Vec<usize> = d.neighbors(v).into_iter().map(|(e, _, _)| e).collect();
        assert_eq!(via_neighbors, scan, "neighbour edges of slot {v}");
        let degree: usize = edges
            .iter()
            .map(|&(_, a, b)| (a == v) as usize + (b == v) as usize)
            .sum();
        assert_eq!(d.degree(v), degree, "degree of slot {v}");
    }
}

proptest! {
    /// Spider fusion at every matching edge.
    #[test]
    fn fuse_preserves_semantics(recipe in recipe_strategy()) {
        let before = build(&recipe);
        let mut d = before.clone();
        let mut fired = false;
        for e in d.edge_ids() {
            fired |= rules::try_fuse(&mut d, e);
        }
        assert_index_matches_scan(&d);
        if fired {
            assert_preserved(&before, &d, "fusion");
        }
    }

    /// Colour change on every spider (applied twice = identity too).
    #[test]
    fn color_change_preserves_semantics(recipe in recipe_strategy(), which in 0usize..5) {
        let before = build(&recipe);
        let mut d = before.clone();
        let nodes = d.node_ids();
        let target = nodes[which % nodes.len()];
        if rules::color_change(&mut d, target) {
            assert_preserved(&before, &d, "colour change");
            let roundtrip_target = target;
            let mut dd = d.clone();
            assert!(rules::color_change(&mut dd, roundtrip_target));
            assert_preserved(&before, &dd, "double colour change");
            assert_index_matches_scan(&dd);
        }
        assert_index_matches_scan(&d);
    }

    /// Identity removal at every matching node.
    #[test]
    fn identity_removal_preserves_semantics(recipe in recipe_strategy()) {
        let before = build(&recipe);
        let mut d = before.clone();
        let mut fired = false;
        for n in d.node_ids() {
            fired |= rules::try_remove_identity(&mut d, n);
        }
        assert_index_matches_scan(&d);
        if fired {
            assert_preserved(&before, &d, "identity removal");
        }
    }

    /// Self-loop cancellation at every matching edge.
    #[test]
    fn self_loop_cancel_preserves_semantics(recipe in recipe_strategy()) {
        let before = build(&recipe);
        let mut d = before.clone();
        let mut fired = false;
        for e in d.edge_ids() {
            fired |= rules::try_cancel_self_loop(&mut d, e);
        }
        assert_index_matches_scan(&d);
        if fired {
            assert_preserved(&before, &d, "self-loop cancellation");
        }
    }

    /// Hopf (plain Z–X pairs) and parallel-H (same-colour pairs) at
    /// every adjacent pair.
    #[test]
    fn hopf_laws_preserve_semantics(recipe in recipe_strategy()) {
        let before = build(&recipe);
        let mut d = before.clone();
        let mut fired = false;
        for a in d.node_ids() {
            if d.node(a).is_none() {
                continue;
            }
            let nb: Vec<NodeId> = d.neighbors(a).into_iter().map(|(_, o, _)| o).collect();
            for b in nb {
                if d.node(b).is_none() {
                    continue;
                }
                fired |= rules::try_hopf(&mut d, a, b);
                fired |= rules::try_parallel_h_cancel(&mut d, a, b);
            }
        }
        assert_index_matches_scan(&d);
        if fired {
            assert_preserved(&before, &d, "Hopf laws");
        }
    }

    /// π-commutation through a spider with random phase and arity.
    #[test]
    fn pi_commute_preserves_semantics(
        pi_is_x in proptest::bool::ANY,
        num in -3i64..5,
        symbolic in proptest::bool::ANY,
        extra_legs in 1usize..4,
        leg_h in proptest::collection::vec(proptest::bool::ANY, 3..7),
    ) {
        let mut before = Diagram::new();
        let i = before.add_input();
        let mut phase = PhaseExpr::pi_times(Rational::new(num, 4));
        if symbolic {
            phase = phase + PhaseExpr::symbol(SYM, Rational::ONE);
        }
        let (pi_node, spider) = if pi_is_x {
            (before.add_x(PhaseExpr::pi()), before.add_z(phase))
        } else {
            (before.add_z(PhaseExpr::pi()), before.add_x(phase))
        };
        before.add_edge(i, pi_node, EdgeType::Plain);
        before.add_edge(pi_node, spider, EdgeType::Plain);
        for k in 0..extra_legs {
            let o = before.add_output();
            let ty = if leg_h[k % leg_h.len()] {
                EdgeType::Hadamard
            } else {
                EdgeType::Plain
            };
            before.add_edge(spider, o, ty);
        }
        let mut after = before.clone();
        prop_assert!(rules::try_pi_commute(&mut after, pi_node));
        assert_index_matches_scan(&after);
        assert_preserved(&before, &after, "π-commutation");
    }

    /// State copy through a spider with random phase and arity.
    #[test]
    fn copy_preserves_semantics(
        state_is_x in proptest::bool::ANY,
        a in 0i64..2,
        spider_num in -3i64..5,
        legs in 1usize..4,
    ) {
        let mut before = Diagram::new();
        let spider_phase = PhaseExpr::pi_times(Rational::new(spider_num, 1));
        let (state, spider) = if state_is_x {
            (
                before.add_x(PhaseExpr::pi_times(Rational::from_int(a))),
                before.add_z(spider_phase),
            )
        } else {
            (
                before.add_z(PhaseExpr::pi_times(Rational::from_int(a))),
                before.add_x(spider_phase),
            )
        };
        before.add_edge(state, spider, EdgeType::Plain);
        for _ in 0..legs {
            let o = before.add_output();
            before.add_edge(spider, o, EdgeType::Plain);
        }
        let mut after = before.clone();
        prop_assert!(rules::try_copy(&mut after, state));
        assert_index_matches_scan(&after);
        assert_preserved(&before, &after, "state copy");
    }

    /// Bialgebra on the canonical 2+2 instance with random external
    /// edge types.
    #[test]
    fn bialgebra_preserves_semantics(types in proptest::collection::vec(proptest::bool::ANY, 4..5)) {
        let mut before = Diagram::new();
        let z = before.add_z(PhaseExpr::zero());
        let x = before.add_x(PhaseExpr::zero());
        before.add_edge(z, x, EdgeType::Plain);
        let ty = |h: bool| if h { EdgeType::Hadamard } else { EdgeType::Plain };
        for &h in &types[0..2] {
            let i = before.add_input();
            before.add_edge(i, z, ty(h));
        }
        for &h in &types[2..4] {
            let o = before.add_output();
            before.add_edge(x, o, ty(h));
        }
        let mut after = before.clone();
        prop_assert!(rules::try_bialgebra(&mut after, z, x));
        assert_index_matches_scan(&after);
        assert_preserved(&before, &after, "bialgebra");
    }

    /// Local complementation on a random graph-like star: centre with
    /// phase ±π/2, random neighbour phases, a random subset of the
    /// neighbour pairs pre-connected, random boundary legs.
    #[test]
    fn local_complement_preserves_semantics(
        sigma_plus in proptest::bool::ANY,
        phases in proptest::collection::vec((-3i64..5, proptest::bool::ANY), 1..5),
        pair_bits in 0u32..64,
        boundary_bits in 0u32..32,
    ) {
        let mut before = Diagram::new();
        let sigma = if sigma_plus { 1 } else { -1 };
        let u = before.add_z(PhaseExpr::pi_times(Rational::new(sigma, 2)));
        let nb: Vec<NodeId> = phases
            .iter()
            .map(|&(num, symbolic)| {
                let mut phase = PhaseExpr::pi_times(Rational::new(num, 4));
                if symbolic {
                    phase = phase + PhaseExpr::symbol(SYM, Rational::ONE);
                }
                let w = before.add_z(phase);
                before.add_edge(u, w, EdgeType::Hadamard);
                w
            })
            .collect();
        let mut pair = 0;
        for i in 0..nb.len() {
            for j in (i + 1)..nb.len() {
                if (pair_bits >> pair) & 1 == 1 {
                    before.add_edge(nb[i], nb[j], EdgeType::Hadamard);
                }
                pair += 1;
            }
        }
        for (i, &w) in nb.iter().enumerate() {
            if (boundary_bits >> i) & 1 == 1 {
                let o = before.add_output();
                before.add_edge(w, o, EdgeType::Plain);
            }
        }
        let mut after = before.clone();
        prop_assert!(rules::try_local_complement(&mut after, u));
        assert_index_matches_scan(&after);
        prop_assert!(after.node(u).is_none());
        assert_preserved(&before, &after, "local complementation");
    }

    /// Pivot on a random interior Pauli pair: random A/B/C neighbourhood
    /// sizes, random neighbour phases, random pre-existing cross edges,
    /// random boundary legs.
    #[test]
    fn pivot_preserves_semantics(
        a_pi in proptest::bool::ANY,
        b_pi in proptest::bool::ANY,
        sizes in (0usize..3, 0usize..3, 0usize..3),
        phases in proptest::collection::vec(-3i64..5, 9..10),
        cross_bits in 0u32..512,
        boundary_bits in 0u32..512,
    ) {
        let pauli = |on: bool| if on { PhaseExpr::pi() } else { PhaseExpr::zero() };
        let mut before = Diagram::new();
        let u = before.add_z(pauli(a_pi));
        let v = before.add_z(pauli(b_pi));
        before.add_edge(u, v, EdgeType::Hadamard);
        let (ka, kb, kc) = sizes;
        let mk = |k: usize, hosts: &[NodeId], d: &mut Diagram, phase_idx: &mut usize| -> Vec<NodeId> {
            (0..k)
                .map(|_| {
                    let w = d.add_z(PhaseExpr::pi_times(Rational::new(
                        phases[*phase_idx % phases.len()],
                        4,
                    )));
                    *phase_idx += 1;
                    for &h in hosts {
                        d.add_edge(h, w, EdgeType::Hadamard);
                    }
                    w
                })
                .collect()
        };
        let mut pi = 0usize;
        let aa = mk(ka, &[u], &mut before, &mut pi);
        let bb = mk(kb, &[v], &mut before, &mut pi);
        let cc = mk(kc, &[u, v], &mut before, &mut pi);
        let all: Vec<NodeId> = aa.iter().chain(&bb).chain(&cc).copied().collect();
        // Random cross edges between the toggled classes.
        let cross: Vec<(NodeId, NodeId)> = aa
            .iter()
            .flat_map(|&x| bb.iter().map(move |&y| (x, y)))
            .chain(aa.iter().flat_map(|&x| cc.iter().map(move |&y| (x, y))))
            .chain(bb.iter().flat_map(|&x| cc.iter().map(move |&y| (x, y))))
            .collect();
        for (bit, (x, y)) in cross.into_iter().enumerate() {
            if (cross_bits >> (bit % 9)) & 1 == 1 {
                before.add_edge(x, y, EdgeType::Hadamard);
            }
        }
        for (i, &w) in all.iter().enumerate() {
            if (boundary_bits >> (i % 9)) & 1 == 1 {
                let o = before.add_output();
                before.add_edge(w, o, EdgeType::Plain);
            }
        }
        let mut after = before.clone();
        prop_assert!(rules::try_pivot(&mut after, u, v));
        assert_index_matches_scan(&after);
        prop_assert!(after.node(u).is_none() && after.node(v).is_none());
        assert_preserved(&before, &after, "pivot");
    }

    /// The Clifford-complete pass preserves semantics on arbitrary random
    /// diagrams, lands on graph-like form, and is idempotent.
    #[test]
    fn clifford_simp_is_sound_and_idempotent(recipe in recipe_strategy()) {
        let before = build(&recipe);
        let mut d = before.clone();
        clifford_simp(&mut d);
        assert_index_matches_scan(&d);
        assert_preserved(&before, &d, "clifford_simp");
        prop_assert!(is_graph_like(&d));
        let again = clifford_simp(&mut d);
        prop_assert_eq!(again.total(), 0);
        prop_assert_eq!(again.graph_like.simplify.total(), 0);
    }

    /// `simplify` preserves semantics and is idempotent: a second run
    /// fires no rule (fixpoint).
    #[test]
    fn simplify_reaches_a_semantics_preserving_fixpoint(recipe in recipe_strategy()) {
        let before = build(&recipe);
        let mut d = before.clone();
        simplify(&mut d);
        assert_index_matches_scan(&d);
        assert_preserved(&before, &d, "simplify");
        let again = simplify(&mut d);
        prop_assert_eq!(again.total(), 0);
    }

    /// Graph-like normalization preserves semantics, establishes the
    /// invariant, and is idempotent.
    #[test]
    fn to_graph_like_is_sound_and_idempotent(recipe in recipe_strategy()) {
        let before = build(&recipe);
        let mut d = before.clone();
        let first = to_graph_like(&mut d);
        assert_index_matches_scan(&d);
        assert_preserved(&before, &d, "to_graph_like");
        prop_assert!(is_graph_like(&d));
        let again = to_graph_like(&mut d);
        prop_assert_eq!(again.color_changes, 0);
        prop_assert_eq!(again.simplify.total(), 0);
        let _ = first;
    }
}

/// Non-property sanity check: the recipe builder covers spiders of both
/// colours, both edge types and boundaries (so the properties above are
/// not vacuous).
#[test]
fn recipe_builder_exercises_the_full_vocabulary() {
    let recipe = Recipe {
        nodes: vec![(false, 1, true), (true, 2, false), (false, 0, false)],
        edges: vec![(0, 1, true), (1, 2, false), (0, 0, false)],
        inputs: vec![0],
        outputs: vec![2],
    };
    let d = build(&recipe);
    assert_eq!(d.internal_node_count(), 3);
    assert_eq!(d.inputs().len(), 1);
    assert_eq!(d.outputs().len(), 1);
    let kinds: Vec<NodeKind> = d
        .node_ids()
        .into_iter()
        .map(|n| d.node(n).expect("live").kind.clone())
        .collect();
    assert!(kinds.iter().any(|k| matches!(k, NodeKind::Z)));
    assert!(kinds.iter().any(|k| matches!(k, NodeKind::X)));
}
