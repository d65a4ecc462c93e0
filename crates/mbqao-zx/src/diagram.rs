//! ZX-diagrams as open multigraphs.
//!
//! Diagrams are undirected multigraphs — "string diagrams correspond to
//! undirected graphs" (Sec. II-A) — whose internal nodes are Z-/X-spiders
//! (Eqs. 1–2) or ZH H-boxes, and whose boundary nodes mark the open
//! inputs/outputs. Edges are *plain* or *Hadamard* (the paper's special
//! H symbol); phases are symbolic [`PhaseExpr`]s so parameterized circuits
//! (γ, β) stay parameterized through rewriting. Rewrites that produce
//! scalar factors track them exactly in `scalar` / `scalar_phase`.
//!
//! Node and edge slots are never reused, so ids stay stable across
//! removals. Each node slot also keeps the indices of its live incident
//! edges in **ascending order** — the order a scan over the edge slots
//! would visit them — so [`Diagram::incident_edges`],
//! [`Diagram::neighbors`] and [`Diagram::degree`] cost O(deg) rather than
//! a pass over every edge slot ever allocated, while every rewrite that
//! walks a node's legs still visits them, and fires, in slot order.

use mbqao_math::{PhaseExpr, C64};

/// Node index within a diagram (stable across removals).
pub type NodeId = usize;

/// The kind of a diagram node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// Z-spider (Eq. 1) with a phase.
    Z,
    /// X-spider (Eq. 2) with a phase.
    X,
    /// ZH-calculus H-box with a complex label (arity-generic).
    HBox(C64),
    /// Open boundary: diagram input.
    Input(usize),
    /// Open boundary: diagram output.
    Output(usize),
}

/// A node: kind plus phase (phase is ignored for H-boxes/boundaries).
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The node kind.
    pub kind: NodeKind,
    /// Spider phase.
    pub phase: PhaseExpr,
}

/// Edge kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeType {
    /// An ordinary wire.
    Plain,
    /// A wire carrying a Hadamard.
    Hadamard,
}

/// An open ZX multigraph.
#[derive(Debug, Clone)]
pub struct Diagram {
    nodes: Vec<Option<Node>>,
    /// Multi-edges allowed; slots are `None` after removal.
    edges: Vec<Option<(NodeId, NodeId, EdgeType)>>,
    /// Per node slot: the live edge indices touching it, ascending; a
    /// self-loop is listed once.
    incident: Vec<Vec<usize>>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    /// Non-phase part of the tracked global scalar.
    pub scalar: C64,
    /// Phase part: the full scalar is `scalar · e^{i·scalar_phase}`
    /// (kept separate so symbolic phases can appear in it).
    pub scalar_phase: PhaseExpr,
}

impl Default for Diagram {
    fn default() -> Self {
        Self::new()
    }
}

impl Diagram {
    /// An empty diagram with scalar 1.
    pub fn new() -> Self {
        Diagram {
            nodes: Vec::new(),
            edges: Vec::new(),
            incident: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            scalar: C64::ONE,
            scalar_phase: PhaseExpr::zero(),
        }
    }

    /// Adds a Z-spider.
    pub fn add_z(&mut self, phase: PhaseExpr) -> NodeId {
        self.add_node(Node {
            kind: NodeKind::Z,
            phase,
        })
    }

    /// Adds an X-spider.
    pub fn add_x(&mut self, phase: PhaseExpr) -> NodeId {
        self.add_node(Node {
            kind: NodeKind::X,
            phase,
        })
    }

    /// Adds an H-box with the given label.
    pub fn add_hbox(&mut self, label: C64) -> NodeId {
        self.add_node(Node {
            kind: NodeKind::HBox(label),
            phase: PhaseExpr::zero(),
        })
    }

    /// Adds an input boundary node (order of calls = input order).
    pub fn add_input(&mut self) -> NodeId {
        let idx = self.inputs.len();
        let n = self.add_node(Node {
            kind: NodeKind::Input(idx),
            phase: PhaseExpr::zero(),
        });
        self.inputs.push(n);
        n
    }

    /// Adds an output boundary node.
    pub fn add_output(&mut self) -> NodeId {
        let idx = self.outputs.len();
        let n = self.add_node(Node {
            kind: NodeKind::Output(idx),
            phase: PhaseExpr::zero(),
        });
        self.outputs.push(n);
        n
    }

    fn add_node(&mut self, n: Node) -> NodeId {
        self.nodes.push(Some(n));
        self.incident.push(Vec::new());
        self.nodes.len() - 1
    }

    /// Adds an edge; multi-edges and self-loops are representable (rules
    /// deal with them).
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, ty: EdgeType) -> usize {
        assert!(
            self.node(a).is_some() && self.node(b).is_some(),
            "edge endpoint missing"
        );
        self.edges.push(Some((a, b, ty)));
        let idx = self.edges.len() - 1;
        for v in ends(a, b) {
            self.link(v, idx);
        }
        idx
    }

    /// Files edge `idx` in `v`'s list, keeping it ascending.
    fn link(&mut self, v: NodeId, idx: usize) {
        let list = &mut self.incident[v];
        let at = list.binary_search(&idx).expect_err("edge already linked");
        list.insert(at, idx);
    }

    /// Drops edge `idx` from `v`'s list.
    fn unlink(&mut self, v: NodeId, idx: usize) {
        let list = &mut self.incident[v];
        let at = list.binary_search(&idx).expect("edge linked");
        list.remove(at);
    }

    /// The live incident edge indices of `id`, ascending (empty for a
    /// dead or unknown slot).
    fn incident_slice(&self, id: NodeId) -> &[usize] {
        self.incident.get(id).map_or(&[], Vec::as_slice)
    }

    /// The node at `id`, if alive.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id).and_then(|n| n.as_ref())
    }

    /// Mutable node access.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        self.nodes.get_mut(id).and_then(|n| n.as_mut())
    }

    /// Removes a node (its edges must already be gone).
    ///
    /// # Panics
    /// Panics when edges still reference the node or it is a boundary.
    pub fn remove_node(&mut self, id: NodeId) {
        assert!(
            self.incident_slice(id).is_empty(),
            "removing node {id} with live edges"
        );
        if let Some(n) = self.node(id) {
            assert!(
                !matches!(n.kind, NodeKind::Input(_) | NodeKind::Output(_)),
                "cannot remove a boundary node"
            );
        }
        self.nodes[id] = None;
    }

    /// Removes an edge slot.
    pub fn remove_edge(&mut self, edge_idx: usize) {
        if let Some((a, b, _)) = self.edges[edge_idx].take() {
            for v in ends(a, b) {
                self.unlink(v, edge_idx);
            }
        }
    }

    /// The edge at `idx`, if alive.
    pub fn edge(&self, idx: usize) -> Option<(NodeId, NodeId, EdgeType)> {
        self.edges.get(idx).and_then(|e| *e)
    }

    /// Replaces an edge's data in place; a moved edge keeps its index and
    /// is filed under its new endpoints in ascending position.
    pub fn set_edge(&mut self, idx: usize, a: NodeId, b: NodeId, ty: EdgeType) {
        let (old_a, old_b, _) = self.edges[idx].expect("set_edge on a dead slot");
        assert!(
            self.node(a).is_some() && self.node(b).is_some(),
            "edge endpoint missing"
        );
        for v in ends(old_a, old_b).filter(|&v| v != a && v != b) {
            self.unlink(v, idx);
        }
        for v in ends(a, b).filter(|&v| v != old_a && v != old_b) {
            self.link(v, idx);
        }
        self.edges[idx] = Some((a, b, ty));
    }

    /// Live edge indices incident to `id`, ascending (self-loops appear
    /// once).
    pub fn incident_edges(&self, id: NodeId) -> Vec<usize> {
        self.incident_slice(id).to_vec()
    }

    /// Degree counting self-loops twice.
    pub fn degree(&self, id: NodeId) -> usize {
        self.incident_slice(id)
            .iter()
            .map(|&i| {
                let (a, b, _) = self.edge(i).expect("live edge");
                (a == id) as usize + (b == id) as usize
            })
            .sum()
    }

    /// Neighbors of `id` as `(edge_idx, other_end, type)`, ascending by
    /// edge index; self-loops yield the node itself.
    pub fn neighbors(&self, id: NodeId) -> Vec<(usize, NodeId, EdgeType)> {
        self.incident_slice(id)
            .iter()
            .map(|&i| {
                let (a, b, ty) = self.edge(i).expect("live edge");
                (i, if a == id { b } else { a }, ty)
            })
            .collect()
    }

    /// Live node ids.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].is_some())
            .collect()
    }

    /// Live edge indices.
    pub fn edge_ids(&self) -> Vec<usize> {
        (0..self.edges.len())
            .filter(|&i| self.edges[i].is_some())
            .collect()
    }

    /// Number of live internal (non-boundary) nodes.
    pub fn internal_node_count(&self) -> usize {
        self.node_ids()
            .into_iter()
            .filter(|&i| {
                !matches!(
                    self.node(i).expect("live").kind,
                    NodeKind::Input(_) | NodeKind::Output(_)
                )
            })
            .count()
    }

    /// Input boundary nodes in order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Output boundary nodes in order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Multiplies the tracked scalar.
    pub fn multiply_scalar(&mut self, c: C64) {
        self.scalar *= c;
    }

    /// Adds to the scalar's phase part.
    pub fn add_scalar_phase(&mut self, p: PhaseExpr) {
        self.scalar_phase = self.scalar_phase.clone() + p;
    }

    /// The numeric scalar under symbol `bindings`.
    pub fn scalar_value(&self, bindings: &dyn Fn(mbqao_math::Symbol) -> f64) -> C64 {
        self.scalar * C64::cis(self.scalar_phase.eval(bindings))
    }
}

/// The distinct endpoints of edge `(a, b)`: one for a self-loop.
fn ends(a: NodeId, b: NodeId) -> impl Iterator<Item = NodeId> {
    std::iter::once(a).chain((b != a).then_some(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut d = Diagram::new();
        let i = d.add_input();
        let z = d.add_z(PhaseExpr::pi());
        let o = d.add_output();
        d.add_edge(i, z, EdgeType::Plain);
        d.add_edge(z, o, EdgeType::Hadamard);
        assert_eq!(d.degree(z), 2);
        assert_eq!(d.internal_node_count(), 1);
        assert_eq!(d.neighbors(z).len(), 2);
        assert_eq!(d.inputs().len(), 1);
        assert_eq!(d.outputs().len(), 1);
    }

    #[test]
    fn self_loop_counts_twice() {
        let mut d = Diagram::new();
        let z = d.add_z(PhaseExpr::zero());
        d.add_edge(z, z, EdgeType::Plain);
        assert_eq!(d.degree(z), 2);
        assert_eq!(d.incident_edges(z).len(), 1);
    }

    #[test]
    fn removal_bookkeeping() {
        let mut d = Diagram::new();
        let a = d.add_z(PhaseExpr::zero());
        let b = d.add_x(PhaseExpr::zero());
        let e = d.add_edge(a, b, EdgeType::Plain);
        d.remove_edge(e);
        d.remove_node(b);
        assert_eq!(d.node_ids(), vec![a]);
        assert!(d.edge_ids().is_empty());
    }

    #[test]
    fn set_edge_refiles_the_edge_in_ascending_order() {
        let mut d = Diagram::new();
        let a = d.add_z(PhaseExpr::zero());
        let b = d.add_z(PhaseExpr::zero());
        let c = d.add_x(PhaseExpr::zero());
        let ab = d.add_edge(a, b, EdgeType::Plain);
        let bc = d.add_edge(b, c, EdgeType::Plain);
        let cc = d.add_edge(c, c, EdgeType::Hadamard);
        // Move the oldest edge onto `c`: it must sort before `c`'s others.
        d.set_edge(ab, a, c, EdgeType::Hadamard);
        assert_eq!(d.incident_edges(c), vec![ab, bc, cc]);
        assert_eq!(d.incident_edges(b), vec![bc]);
        assert_eq!(d.degree(c), 4);
        d.remove_edge(cc);
        d.remove_edge(cc);
        assert_eq!(d.incident_edges(c), vec![ab, bc]);
        assert_eq!(d.neighbors(a), vec![(ab, c, EdgeType::Hadamard)]);
    }

    #[test]
    #[should_panic(expected = "live edges")]
    fn cannot_remove_connected_node() {
        let mut d = Diagram::new();
        let a = d.add_z(PhaseExpr::zero());
        let b = d.add_x(PhaseExpr::zero());
        d.add_edge(a, b, EdgeType::Plain);
        d.remove_node(a);
    }
}
