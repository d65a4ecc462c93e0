//! Generalized flow (gflow) — the structural witness of determinism.
//!
//! A pattern whose open graph admits a gflow can be driven
//! deterministically by correcting byproducts forward (Browne, Kashefi,
//! Mhalla, Perdrix, *Generalized flow and determinism in measurement-based
//! quantum computation*, NJP 2007 — refs. \[32,33\] of the paper). This
//! module implements the layered gflow-finding algorithm over GF(2) for
//! the three measurement planes:
//!
//! For each non-output `u` we look for a correction set
//! `K ⊆ (done ∪ {u}) \ I` with `Odd(K)` confined to `done ∪ {u}` and
//!
//! * XY: `u ∉ K`, `u ∈ Odd(K)`
//! * XZ: `u ∈ K`, `u ∈ Odd(K)`
//! * YZ: `u ∈ K`, `u ∉ Odd(K)`
//!
//! processed backwards from the outputs, one layer at a time.
//!
//! Every candidate of one layer shares the same linear system. With `U`
//! the unmeasured vertices and `C = done \ I`, let `M` be the `U × C`
//! adjacency matrix; `u`'s conditions read `M·x = b_u`, where `b_u`
//! holds `e_u` for XY/XZ plus `N(u)` restricted to `U` when `u ∈ K`
//! (YZ/XZ). So each layer runs **one** Gauss–Jordan elimination of
//! `[M | I]` with leftmost pivots, giving the reduced row echelon form
//! `R = T·M`, and reads every candidate's correction set off `T·b_u`:
//! the system is consistent when `T·b_u` vanishes on the zero rows of
//! `R`, and the solution with every free variable zero puts `(T·b_u)_i`
//! on the pivot column of row `i`. The reduced row echelon form of a
//! matrix is unique, so its pivot columns — and with them the solution
//! whose free variables are zero — do not depend on the order of the
//! rows. A separate solve per candidate, over the same columns with
//! `x_u = 1` as an extra equation, therefore finds the same `K`.
//! Complexity is one `O(|U|²·|C|)` elimination per layer plus
//! `O(|U|·deg u)` per candidate.

use crate::opengraph::{BitVec, OpenGraph};
use crate::plane::Plane;
use std::collections::HashMap;

/// A gflow: correction sets per measured node plus the layer structure
/// (layer 0 is measured **last**, i.e. discovery order; see
/// [`GFlow::measurement_order`]).
#[derive(Debug, Clone)]
pub struct GFlow {
    /// Correction set `g(u)` per measured node.
    pub g: HashMap<usize, BitVec>,
    /// Layers in discovery order (first layer = closest to outputs).
    pub layers: Vec<Vec<usize>>,
}

impl GFlow {
    /// Nodes in a valid measurement order (earliest measured first).
    pub fn measurement_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = Vec::new();
        for layer in self.layers.iter().rev() {
            order.extend(layer.iter().copied());
        }
        order
    }

    /// Number of adaptive layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }
}

/// One Gauss–Jordan elimination over GF(2) that serves many right-hand
/// sides: `A` (rows over `ncols` columns, leftmost pivots) reduced
/// alongside the identity, `[A | I] → [R | T]` with `R = T·A` in reduced
/// row echelon form.
struct Elimination {
    /// `T`: row `i` is the combination of `A`'s rows that gives `R`'s row `i`.
    transform: Vec<BitVec>,
    /// Pivot column of `R`'s row `i`; rows from `pivots.len()` on are zero.
    pivots: Vec<usize>,
    ncols: usize,
}

impl Elimination {
    fn new(mut rows: Vec<BitVec>, ncols: usize) -> Self {
        let nrows = rows.len();
        let mut transform: Vec<BitVec> = (0..nrows)
            .map(|i| {
                let mut t = BitVec::zeros(nrows);
                t.set(i, true);
                t
            })
            .collect();
        let mut pivots: Vec<usize> = Vec::new();
        for c in 0..ncols {
            let r = pivots.len();
            if r == nrows {
                break;
            }
            // Find a pivot for column c at or below row r.
            let Some(p) = (r..nrows).find(|&i| rows[i].get(c)) else {
                continue;
            };
            rows.swap(r, p);
            transform.swap(r, p);
            // Eliminate everywhere else.
            let (pivot_row, pivot_t) = (rows[r].clone(), transform[r].clone());
            for i in 0..nrows {
                if i != r && rows[i].get(c) {
                    rows[i].xor_assign(&pivot_row);
                    transform[i].xor_assign(&pivot_t);
                }
            }
            pivots.push(c);
        }
        Elimination {
            transform,
            pivots,
            ncols,
        }
    }

    /// The solution of `A·x = b` whose free variables are all zero, or
    /// `None` when the system is inconsistent. `b` is given by its
    /// support, the rows whose right-hand side is 1 (a row listed twice
    /// cancels).
    fn solve(&self, b: &[usize]) -> Option<BitVec> {
        // (T·b)_i = parity of T's row i over the support of b.
        let tb = |i: usize| b.iter().filter(|&&j| self.transform[i].get(j)).count() % 2 == 1;
        if (self.pivots.len()..self.transform.len()).any(tb) {
            return None;
        }
        let mut x = BitVec::zeros(self.ncols);
        for (i, &c) in self.pivots.iter().enumerate() {
            x.set(c, tb(i));
        }
        Some(x)
    }
}

/// Attempts to find a gflow for the open graph. Returns `None` when the
/// graph has none (the pattern cannot be uniformly deterministic).
///
/// ```
/// use mbqao_mbqc::gflow::{find_gflow, verify_gflow};
/// use mbqao_mbqc::opengraph::OpenGraph;
/// use mbqao_mbqc::Plane;
///
/// // The 1D cluster wire 0 – 1 – 2 (input 0, output 2) has the classic
/// // causal flow g(0) = {1}, g(1) = {2} — a special case of gflow.
/// let g = OpenGraph::new(
///     3,
///     &[(0, 1), (1, 2)],
///     &[0],
///     &[2],
///     &[(0, Plane::XY), (1, Plane::XY)],
/// );
/// let flow = find_gflow(&g).expect("a line graph always has gflow");
/// assert!(verify_gflow(&g, &flow));
/// assert_eq!(flow.depth(), 2);
/// assert!(flow.g[&0].get(1), "g(0) = {{1}}");
/// ```
pub fn find_gflow(g: &OpenGraph) -> Option<GFlow> {
    let n = g.n();
    // A measured node without a plane has no correction condition.
    if (0..n).any(|u| !g.outputs().get(u) && g.plane(u).is_none()) {
        return None;
    }
    let mut done = g.outputs().clone();
    let mut gmap: HashMap<usize, BitVec> = HashMap::new();
    let mut layers: Vec<Vec<usize>> = Vec::new();
    let nbrs: Vec<Vec<usize>> = (0..n)
        .map(|v| g.neighbors(v).iter_ones().collect())
        .collect();
    loop {
        let unmeasured: Vec<usize> = (0..n).filter(|&w| !done.get(w)).collect();
        if unmeasured.is_empty() {
            break;
        }
        // Rows: for every unmeasured w, the parity of N(w) ∩ K. Columns:
        // the candidates for K \ {u}, c ∈ done \ I.
        let mut row_of: Vec<Option<usize>> = vec![None; n];
        for (wi, &w) in unmeasured.iter().enumerate() {
            row_of[w] = Some(wi);
        }
        let mut col_of: Vec<Option<usize>> = vec![None; n];
        let cols: Vec<usize> = (0..n)
            .filter(|&c| done.get(c) && !g.inputs().get(c))
            .collect();
        for (ci, &c) in cols.iter().enumerate() {
            col_of[c] = Some(ci);
        }
        let rows: Vec<BitVec> = unmeasured
            .iter()
            .map(|&w| {
                let mut row = BitVec::zeros(cols.len());
                for ci in nbrs[w].iter().filter_map(|&c| col_of[c]) {
                    row.set(ci, true);
                }
                row
            })
            .collect();
        let elimination = Elimination::new(rows, cols.len());
        let mut layer: Vec<usize> = Vec::new();
        for (ui, &u) in unmeasured.iter().enumerate() {
            let plane = g.plane(u).expect("checked above");
            let u_in_k = matches!(plane, Plane::XZ | Plane::YZ);
            if u_in_k && g.inputs().get(u) {
                continue; // u ∈ g(u) required but u is an input — impossible.
            }
            // b_u: u's own parity is 1 for XY/XZ; u ∈ K moves N(u) to
            // the right-hand side.
            let mut b: Vec<usize> = Vec::new();
            if matches!(plane, Plane::XY | Plane::XZ) {
                b.push(ui);
            }
            if u_in_k {
                b.extend(nbrs[u].iter().filter_map(|&w| row_of[w]));
            }
            if let Some(x) = elimination.solve(&b) {
                let mut k = BitVec::zeros(n);
                for ci in x.iter_ones() {
                    k.set(cols[ci], true);
                }
                k.set(u, u_in_k);
                gmap.insert(u, k);
                layer.push(u);
            }
        }
        if layer.is_empty() {
            return None;
        }
        for &u in &layer {
            done.set(u, true);
        }
        layers.push(layer);
    }
    Some(GFlow { g: gmap, layers })
}

/// Verifies the gflow conditions directly (used by tests to check the
/// solver's output).
pub fn verify_gflow(g: &OpenGraph, flow: &GFlow) -> bool {
    let n = g.n();
    // position in measurement order; outputs come after everything.
    let order = flow.measurement_order();
    let mut rank = vec![usize::MAX; n];
    for (i, &u) in order.iter().enumerate() {
        rank[u] = i;
    }
    for (&u, k) in &flow.g {
        let plane = match g.plane(u) {
            Some(p) => p,
            None => return false,
        };
        let odd = g.odd_neighborhood(k);
        let (need_in_k, need_in_odd) = match plane {
            Plane::XY => (false, true),
            Plane::XZ => (true, true),
            Plane::YZ => (true, false),
        };
        if k.get(u) != need_in_k || odd.get(u) != need_in_odd {
            return false;
        }
        // K \ {u} ⊆ I^c and strictly in the future of u.
        for c in k.iter_ones() {
            if g.inputs().get(c) {
                return false;
            }
            if c != u && rank[c] != usize::MAX && rank[c] <= rank[u] {
                return false;
            }
        }
        for w in odd.iter_ones() {
            if w != u && rank[w] != usize::MAX && rank[w] <= rank[u] {
                return false;
            }
        }
    }
    // every non-output has a correction set
    (0..n)
        .filter(|&i| !g.outputs().get(i))
        .all(|u| flow.g.contains_key(&u))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// GF(2) linear solver: finds any `x` with `A x = b`, where row `i` of `A`
    /// is `rows[i]` restricted to `ncols` columns. Returns `None` when
    /// inconsistent.
    fn solve_gf2(mut rows: Vec<BitVec>, mut rhs: Vec<bool>, ncols: usize) -> Option<BitVec> {
        let nrows = rows.len();
        let mut pivot_of_col: Vec<Option<usize>> = vec![None; ncols];
        let mut r = 0usize;
        #[allow(clippy::needless_range_loop)]
        for c in 0..ncols {
            // Find a pivot for column c at or below row r.
            let Some(p) = (r..nrows).find(|&i| rows[i].get(c)) else {
                continue;
            };
            rows.swap(r, p);
            rhs.swap(r, p);
            // Eliminate everywhere else.
            for i in 0..nrows {
                if i != r && rows[i].get(c) {
                    let (head, tail) = if i < r {
                        let (a, b) = rows.split_at_mut(r);
                        (&mut a[i], &b[0])
                    } else {
                        let (a, b) = rows.split_at_mut(i);
                        (&mut b[0], &a[r])
                    };
                    head.xor_assign(tail);
                    let v = rhs[r];
                    rhs[i] ^= v;
                }
            }
            pivot_of_col[c] = Some(r);
            r += 1;
            if r == nrows {
                break;
            }
        }
        // Consistency: any zero row with rhs = 1?
        for i in 0..nrows {
            if rhs[i] && rows[i].is_zero() {
                return None;
            }
        }
        // Back-substitute with free variables = 0.
        let mut x = BitVec::zeros(ncols);
        #[allow(clippy::needless_range_loop)]
        for c in 0..ncols {
            if let Some(p) = pivot_of_col[c] {
                x.set(c, rhs[p]);
            }
        }
        Some(x)
    }

    /// The per-candidate reference [`find_gflow`] must reproduce: a
    /// fresh GF(2) solve for every candidate of every layer.
    fn find_gflow_per_candidate(g: &OpenGraph) -> Option<GFlow> {
        let n = g.n();
        let mut done = g.outputs().clone();
        let mut gmap: HashMap<usize, BitVec> = HashMap::new();
        let mut layers: Vec<Vec<usize>> = Vec::new();

        let total_to_measure = (0..n).filter(|&i| !g.outputs().get(i)).count();
        let mut measured = 0usize;

        while measured < total_to_measure {
            let mut layer: Vec<usize> = Vec::new();
            let snapshot = done.clone();
            for u in 0..n {
                // `done` only grows after the layer loop, so within a layer it
                // equals `snapshot`.
                if snapshot.get(u) {
                    continue;
                }
                let Some(plane) = g.plane(u) else {
                    // Measured node without a plane: treat as XY with angle 0
                    // is not safe — reject.
                    return None;
                };
                // Candidate columns: c ∈ (snapshot ∪ {u}) \ I, where `u` is
                // only a candidate for XZ/YZ planes.
                let mut cols: Vec<usize> = (0..n)
                    .filter(|&c| snapshot.get(c) && !g.inputs().get(c))
                    .collect();
                let u_col = if matches!(plane, Plane::XZ | Plane::YZ) && !g.inputs().get(u) {
                    cols.push(u);
                    Some(cols.len() - 1)
                } else {
                    None
                };
                if matches!(plane, Plane::XZ | Plane::YZ) && u_col.is_none() {
                    continue; // u ∈ g(u) required but u is an input — impossible.
                }
                let ncols = cols.len();
                // Rows: for every w ∉ snapshot ∪ {u}: parity of N(w)∩K = 0;
                // for u: parity = 1 (XY, XZ) or 0 (YZ);
                // for u_col (if any): x_u = 1.
                let mut rows: Vec<BitVec> = Vec::new();
                let mut rhs: Vec<bool> = Vec::new();
                for w in 0..n {
                    if w == u || snapshot.get(w) {
                        continue;
                    }
                    let mut row = BitVec::zeros(ncols);
                    for (ci, &c) in cols.iter().enumerate() {
                        if g.neighbors(w).get(c) {
                            row.set(ci, true);
                        }
                    }
                    rows.push(row);
                    rhs.push(false);
                }
                {
                    let mut row = BitVec::zeros(ncols);
                    for (ci, &c) in cols.iter().enumerate() {
                        if g.neighbors(u).get(c) {
                            row.set(ci, true);
                        }
                    }
                    rows.push(row);
                    rhs.push(matches!(plane, Plane::XY | Plane::XZ));
                }
                if let Some(uc) = u_col {
                    let mut row = BitVec::zeros(ncols);
                    row.set(uc, true);
                    rows.push(row);
                    rhs.push(true);
                }
                if let Some(x) = solve_gf2(rows, rhs, ncols) {
                    let mut k = BitVec::zeros(n);
                    for (ci, &c) in cols.iter().enumerate() {
                        if x.get(ci) {
                            k.set(c, true);
                        }
                    }
                    gmap.insert(u, k);
                    layer.push(u);
                }
            }
            if layer.is_empty() {
                return None;
            }
            for &u in &layer {
                done.set(u, true);
            }
            measured += layer.len();
            layers.push(layer);
        }
        Some(GFlow { g: gmap, layers })
    }

    #[test]
    fn line_graph_has_flow() {
        // 0 - 1 - 2 with input 0, output 2: classic causal flow (a special
        // case of gflow) — g(0) = {1}, g(1) = {2}.
        let g = OpenGraph::new(
            3,
            &[(0, 1), (1, 2)],
            &[0],
            &[2],
            &[(0, Plane::XY), (1, Plane::XY)],
        );
        let flow = find_gflow(&g).expect("line graph must have gflow");
        assert!(
            verify_gflow(&g, &flow),
            "solver output fails the definition"
        );
        assert_eq!(flow.depth(), 2);
    }

    #[test]
    fn triangle_all_inputs_outputs_none_needed() {
        // No measured nodes at all: trivial gflow.
        let g = OpenGraph::new(3, &[(0, 1), (1, 2), (0, 2)], &[0, 1, 2], &[0, 1, 2], &[]);
        let flow = find_gflow(&g).expect("nothing to measure");
        assert!(flow.g.is_empty());
        assert!(verify_gflow(&g, &flow));
    }

    #[test]
    fn yz_measured_leaf() {
        // Gadget shape: wire 0 (input+output is illegal, so) — use:
        // nodes 0(in),1(out),2 ancilla attached to both; 2 measured in YZ.
        // K = {2}: Odd({2}) = {0,1}: must be ⊆ done ∪ {2}: 0,1... 1 is an
        // output (in done) but 0 is an unmeasured non-output? 0 must be
        // measured too. Make 0 measured XY, so layering handles it.
        let g = OpenGraph::new(
            4,
            &[(0, 1), (2, 0), (2, 1), (0, 3)],
            &[0],
            &[1, 3],
            &[(0, Plane::XY), (2, Plane::YZ)],
        );
        if let Some(flow) = find_gflow(&g) {
            assert!(verify_gflow(&g, &flow));
        }
        // Simpler certain case: single YZ node hanging off an output.
        let g2 = OpenGraph::new(2, &[(0, 1)], &[], &[1], &[(0, Plane::YZ)]);
        let flow2 = find_gflow(&g2).expect("leaf YZ has gflow: g(0) = {0}");
        assert!(verify_gflow(&g2, &flow2));
        assert!(
            flow2.g[&0].get(0),
            "YZ correction set contains the node itself"
        );
    }

    #[test]
    fn disconnected_measured_node_has_no_xy_gflow() {
        // An isolated XY-measured node can't satisfy u ∈ Odd(K).
        let g = OpenGraph::new(2, &[], &[], &[1], &[(0, Plane::XY)]);
        assert!(find_gflow(&g).is_none());
    }

    #[test]
    fn solve_gf2_simple() {
        // x0 ⊕ x1 = 1; x1 = 1 → x0 = 0.
        let mut r0 = BitVec::zeros(2);
        r0.set(0, true);
        r0.set(1, true);
        let mut r1 = BitVec::zeros(2);
        r1.set(1, true);
        let x = Elimination::new(vec![r0, r1], 2)
            .solve(&[0, 1])
            .expect("solvable");
        assert!(!x.get(0));
        assert!(x.get(1));
    }

    #[test]
    fn solve_gf2_inconsistent() {
        // 0 = 1
        let r0 = BitVec::zeros(1);
        assert!(Elimination::new(vec![r0], 1).solve(&[0]).is_none());
    }

    /// Most vertices of a random open graph.
    const MAX_NODES: usize = 12;

    /// An open graph on the first `n` vertices: role `(input, output,
    /// plane)` per vertex (outputs get no plane), pair `(a, b)` an edge
    /// when its draw is below `density` (out of 4).
    fn random_open_graph(
        n: usize,
        roles: &[(bool, bool, u8)],
        pairs: &[u8],
        density: u8,
    ) -> OpenGraph {
        let mut edges = Vec::new();
        let mut draw = pairs.iter();
        for a in 0..MAX_NODES {
            for b in a + 1..MAX_NODES {
                if *draw.next().expect("one draw per pair") < density && b < n {
                    edges.push((a, b));
                }
            }
        }
        let (mut inputs, mut outputs, mut planes) = (Vec::new(), Vec::new(), Vec::new());
        for (v, &(input, output, plane)) in roles[..n].iter().enumerate() {
            if input {
                inputs.push(v);
            }
            if output {
                outputs.push(v);
            } else {
                planes.push((v, [Plane::XY, Plane::YZ, Plane::XZ][plane as usize]));
            }
        }
        OpenGraph::new(n, &edges, &inputs, &outputs, &planes)
    }

    /// `find_gflow` and the per-candidate reference agree on `g`:
    /// identical correction sets and layers, or no gflow for both.
    /// Returns whether a gflow exists.
    fn assert_matches_reference(g: &OpenGraph) -> bool {
        let (fast, reference) = (find_gflow(g), find_gflow_per_candidate(g));
        match (fast, reference) {
            (None, None) => false,
            (Some(fast), Some(reference)) => {
                assert_eq!(fast.layers, reference.layers);
                assert_eq!(fast.g, reference.g);
                assert!(verify_gflow(g, &fast), "solver output fails the definition");
                true
            }
            (fast, reference) => panic!(
                "find_gflow found {:?}, the reference {:?}",
                fast.is_some(),
                reference.is_some()
            ),
        }
    }

    fn open_graph_strategy() -> impl Strategy<Value = OpenGraph> {
        (
            1usize..MAX_NODES + 1,
            proptest::collection::vec(
                (proptest::bool::ANY, proptest::bool::ANY, 0u8..3),
                MAX_NODES..MAX_NODES + 1,
            ),
            proptest::collection::vec(
                0u8..4,
                MAX_NODES * (MAX_NODES - 1) / 2..MAX_NODES * (MAX_NODES - 1) / 2 + 1,
            ),
            1u8..4,
        )
            .prop_map(|(n, roles, pairs, density)| random_open_graph(n, &roles, &pairs, density))
    }

    proptest! {
        /// The per-layer elimination finds exactly the per-candidate
        /// solver's gflow on random open graphs over all three planes,
        /// with or without a gflow.
        #[test]
        fn per_layer_elimination_matches_per_candidate_solves(g in open_graph_strategy()) {
            assert_matches_reference(&g);
        }
    }

    /// The random open graphs above cover both outcomes, so the property
    /// is not vacuous on either side.
    #[test]
    fn random_open_graphs_cover_gflow_and_no_gflow() {
        let mut runner = TestRunner::deterministic("gflow-coverage");
        let strategy = open_graph_strategy();
        let (mut with, mut without) = (0, 0);
        for _ in 0..256 {
            let g = strategy.sample(&mut runner);
            if assert_matches_reference(&g) {
                with += 1;
            } else {
                without += 1;
            }
        }
        assert!(
            with >= 16 && without >= 16,
            "{with} with a gflow, {without} without"
        );
    }
}
