//! The ZX-simplified execution backend.
//!
//! [`ZxBackend`] is the third [`crate::engine::Backend`]: it compiles
//! the QAOA pattern exactly like [`crate::engine::PatternBackend`], but
//! before executing anything it routes the pattern through the
//! ZX-calculus — export the reference branch symbolically
//! ([`crate::zx_bridge::pattern_to_symbolic_diagram`]), simplify to a
//! fixpoint with the Fig.-1 rules ([`mbqao_zx::simplify::simplify`]),
//! normalize to graph-like form
//! ([`mbqao_zx::extract::to_graph_like`]), run the Clifford-complete
//! pivot/local-complementation pass
//! ([`mbqao_zx::simplify::clifford_simp`]) and re-extract a runnable
//! pattern ([`crate::zx_bridge::diagram_to_pattern`]) whose corrections
//! are re-synthesized from a gflow of the simplified open graph.
//! Execution runs the corrected pattern on *random* outcome branches —
//! strong determinism makes every branch land on `|γβ⟩` exactly,
//! because every rewrite is semantics-preserving and the gflow
//! certifies the corrections — the machine-checked heart of the paper's
//! claim that diagram rewriting never changes the computed state. (A
//! flowless extraction — never observed for QAOA exports — would fall
//! back to reference-branch postselection, flagged in the report.)
//!
//! The [`SimplifyReport`] quantifies what the rewriting bought: rule
//! applications, diagram-node reduction, and qubit/entangler deltas
//! against the direct pattern compilation. Single-qubit phase gadgets
//! (Eq. 10) collapse into wire rotations, low-degree vertices shed
//! mixer plumbing, and the pivot pass eliminates the `XY(0)` mixer wire
//! spiders together with phase-gadget hubs — so the extraction now beats
//! the paper's Sec. III-A counts on *dense* MaxCut/SK instances too, not
//! just on leafy graphs and linear-term QUBOs.

use crate::cache;
use crate::compiler::CompileOptions;
use crate::engine::{with_runner, Backend};
use crate::zx_bridge::{diagram_to_pattern, pattern_to_symbolic_diagram};
use mbqao_mbqc::resources::{stats, ResourceStats};
use mbqao_mbqc::simulate::{Branch, PatternRunner};
use mbqao_mbqc::Pattern;
use mbqao_problems::ZPoly;
use mbqao_sim::{QubitId, State};
use mbqao_zx::extract::{to_graph_like, GraphLikeStats};
use mbqao_zx::simplify::{clifford_simp, CliffordStats, SimplifyStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// What ZX simplification did to one compiled pattern.
#[derive(Debug, Clone, Copy)]
pub struct SimplifyReport {
    /// Internal nodes of the raw exported diagram.
    pub export_nodes: usize,
    /// Internal nodes after simplify + graph-like normalization.
    pub graph_nodes: usize,
    /// Rule counts of the fixpoint simplification.
    pub simplify: SimplifyStats,
    /// Rule counts of the graph-like normalization pass.
    pub graph_like: GraphLikeStats,
    /// Pivot / local-complementation counts of the Clifford-complete
    /// pass (including its interleaved re-normalizations).
    pub clifford: CliffordStats,
    /// Degree-1 spiders folded back into YZ measurements.
    pub absorbed_leaves: usize,
    /// `true` when the extracted pattern carries gflow-synthesized
    /// corrections (postselection-free, per-shot samplable).
    pub deterministic: bool,
    /// Adaptive-layer count of the gflow (when one was found).
    pub gflow_depth: Option<usize>,
    /// Resources of the directly compiled pattern (same cost/p/mixer).
    pub pattern: ResourceStats,
    /// Resources of the ZX-extracted pattern.
    pub zx: ResourceStats,
}

impl SimplifyReport {
    /// Diagram nodes removed by rewriting.
    pub fn node_savings(&self) -> usize {
        self.export_nodes.saturating_sub(self.graph_nodes)
    }

    /// Qubits saved (positive) or added (negative) by the ZX roundtrip,
    /// vs. the direct pattern compilation.
    pub fn qubit_savings(&self) -> isize {
        self.pattern.total_qubits as isize - self.zx.total_qubits as isize
    }

    /// Entanglers saved (positive) or added (negative).
    pub fn entangler_savings(&self) -> isize {
        self.pattern.entangling as isize - self.zx.entangling as isize
    }
}

/// A memoized ZX extraction: the runnable pattern plus its report.
#[derive(Debug, Clone)]
pub struct ZxCompiled {
    /// The re-extracted, JIT-scheduled reference-branch pattern.
    pub pattern: Pattern,
    /// Qubits carrying the problem variables, in variable order.
    pub output_wires: Vec<QubitId>,
    /// Number of measurements (= forced-branch length).
    pub n_measurements: usize,
    /// What the rewriting accomplished.
    pub report: SimplifyReport,
}

/// The ZX-simplified pattern backend (see module docs).
#[derive(Debug, Clone)]
pub struct ZxBackend {
    cost: ZPoly,
    p: usize,
    options: CompileOptions,
    zx: OnceLock<Arc<ZxCompiled>>,
    /// Dense `2^n` cost vector, built on first `expectation` call.
    cost_vector: OnceLock<Vec<f64>>,
}

impl ZxBackend {
    /// Standard QAOA (`|+⟩` start, transverse mixer) for `cost` at depth
    /// `p`. Export + simplify + extraction happen lazily on first use
    /// and are memoized process-wide (see [`crate::cache`]).
    pub fn new(cost: &ZPoly, p: usize) -> Self {
        Self::with_options(cost, p, &CompileOptions::default())
    }

    /// Backend with explicit mixer/initial-state options (the
    /// `measure_outputs` field is ignored — the ZX path always works on
    /// the state form and samples from the prepared state).
    pub fn with_options(cost: &ZPoly, p: usize, options: &CompileOptions) -> Self {
        ZxBackend {
            cost: cost.clone(),
            p,
            options: options.clone(),
            zx: OnceLock::new(),
            cost_vector: OnceLock::new(),
        }
    }

    /// The memoized ZX extraction (built on first use).
    pub fn compiled(&self) -> &ZxCompiled {
        self.zx
            .get_or_init(|| {
                cache::zx_compiled_cached(&self.cost, self.p, &self.options, || {
                    build_zx_compiled(&self.cost, self.p, &self.options)
                })
            })
            .as_ref()
    }

    /// The simplification report (forces compilation).
    pub fn report(&self) -> &SimplifyReport {
        &self.compiled().report
    }

    /// Runs the extracted pattern on `runner` and returns the prepared
    /// state. With gflow-synthesized corrections (the normal case) the
    /// branch is drawn *randomly* (seed 0): strong determinism makes
    /// every branch prepare the same `|γβ⟩`, a postselection-free
    /// protocol run. A flowless extraction falls back to forcing the
    /// all-zero reference branch and renormalizing.
    fn run<'r>(&self, runner: &'r mut PatternRunner, params: &[f64]) -> &'r State {
        let zx = self.compiled();
        let mut rng = StdRng::seed_from_u64(0);
        if zx.report.deterministic {
            runner.run(&zx.pattern, params, Branch::Random, &mut rng);
        } else {
            let zeros = vec![0u8; zx.n_measurements];
            runner.run(&zx.pattern, params, Branch::Forced(&zeros), &mut rng);
        }
        runner.state()
    }
}

/// Export → simplify → graph-like → extract, with resource accounting.
fn build_zx_compiled(cost: &ZPoly, p: usize, options: &CompileOptions) -> ZxCompiled {
    let state_opts = CompileOptions {
        measure_outputs: false,
        ..options.clone()
    };
    let compiled = cache::compile_qaoa_cached(cost, p, &state_opts);
    let pattern_stats = stats(&compiled.pattern);

    let sym = pattern_to_symbolic_diagram(&compiled.pattern);
    let mut d = sym.diagram.clone();
    let export_nodes = d.internal_node_count();
    let simplify_stats = mbqao_zx::simplify::simplify(&mut d);
    let graph_like = to_graph_like(&mut d);
    let clifford = clifford_simp(&mut d);
    let graph_nodes = d.internal_node_count();

    let ext = diagram_to_pattern(&d, &sym.atoms, compiled.pattern.n_params());
    let zx_stats = stats(&ext.pattern);
    let n_measurements = ext.spec.measures.len();
    ZxCompiled {
        pattern: ext.pattern,
        output_wires: ext.output_wires,
        n_measurements,
        report: SimplifyReport {
            export_nodes,
            graph_nodes,
            simplify: simplify_stats,
            graph_like,
            clifford,
            absorbed_leaves: ext.absorbed_leaves,
            deterministic: ext.deterministic,
            gflow_depth: ext.gflow_depth,
            pattern: pattern_stats,
            zx: zx_stats,
        },
    }
}

impl Backend for ZxBackend {
    fn name(&self) -> &'static str {
        "zx"
    }

    fn n(&self) -> usize {
        self.cost.n()
    }

    fn p(&self) -> usize {
        self.p
    }

    fn cost(&self) -> &ZPoly {
        &self.cost
    }

    fn variable_wires(&self) -> Vec<QubitId> {
        self.compiled().output_wires.clone()
    }

    fn prepare(&self, params: &[f64]) -> State {
        with_runner(|runner| self.run(runner, params).clone())
    }

    fn expectation(&self, params: &[f64]) -> f64 {
        let cost_vector = self.cost_vector.get_or_init(|| self.cost.cost_vector_msb());
        let wires = &self.compiled().output_wires;
        with_runner(|runner| {
            self.run(runner, params)
                .expectation_diag(wires, cost_vector)
        })
    }

    /// Prepares once and draws all shots from the Born distribution of
    /// the prepared state (like the gate backend — the ZX pattern's
    /// reference branch is a *state* preparation, not a per-shot
    /// protocol).
    fn sample(&self, params: &[f64], shots: usize, seed: u64) -> Vec<u64> {
        let order = &self.compiled().output_wires;
        let mut rng = StdRng::seed_from_u64(seed);
        with_runner(|runner| {
            let state = self.run(runner, params);
            (0..shots)
                .map(|_| state.sample_lsb(order, &mut rng))
                .collect()
        })
    }

    /// One `sample` call amortizes the forced-branch preparation across
    /// all shots, exactly like the gate backend.
    fn prefers_block_sampling(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{GateBackend, PatternBackend};
    use mbqao_problems::{generators, maxcut, Qubo};
    use rand::Rng;

    #[test]
    fn zx_backend_matches_gate_and_pattern_on_the_square() {
        let cost = maxcut::maxcut_zpoly(&generators::square());
        let gate = GateBackend::standard(cost.clone(), 1);
        let pattern = PatternBackend::new(&cost, 1);
        let zx = ZxBackend::new(&cost, 1);
        for params in [[0.0, 0.0], [0.7, 0.4], [1.3, -0.8]] {
            let eg = gate.expectation(&params);
            let ep = pattern.expectation(&params);
            let ez = zx.expectation(&params);
            assert!((eg - ez).abs() < 1e-9, "gate {eg} vs zx {ez} at {params:?}");
            assert!((ep - ez).abs() < 1e-9, "pattern {ep} vs zx {ez}");
        }
    }

    #[test]
    fn linear_term_gadgets_collapse_into_wire_phases() {
        // A QUBO with linear terms: the ZX roundtrip absorbs every
        // single-qubit phase-gadget ancilla into a wire rotation, so the
        // extracted pattern must be strictly smaller.
        let mut rng = StdRng::seed_from_u64(42);
        let cost = Qubo::random(4, 0.8, &mut rng).to_zpoly();
        assert!(cost.linear_term_count() > 0);
        let p = 2;
        let zx = ZxBackend::new(&cost, p);
        let report = zx.report();
        assert!(
            report.qubit_savings() >= (p * cost.linear_term_count()) as isize,
            "expected ≥ {} saved qubits, report: {report:?}",
            p * cost.linear_term_count()
        );

        // And the savings don't cost correctness.
        let gate = GateBackend::standard(cost.clone(), p);
        let params: Vec<f64> = (0..2 * p).map(|_| rng.gen_range(-1.5..1.5)).collect();
        assert!((gate.expectation(&params) - zx.expectation(&params)).abs() < 1e-8);
    }

    #[test]
    fn leafy_graphs_shed_mixer_plumbing() {
        // Star graph: every leaf vertex's wire spider is a phaseless
        // degree-2 node after fusion — identity removal deletes it.
        let cost = maxcut::maxcut_zpoly(&generators::star(5));
        let zx = ZxBackend::new(&cost, 1);
        let report = zx.report();
        assert!(
            report.qubit_savings() > 0,
            "star graph must save qubits: {report:?}"
        );
        let gate = GateBackend::standard(cost, 1);
        assert!((gate.expectation(&[0.8, 0.3]) - zx.expectation(&[0.8, 0.3])).abs() < 1e-8);
    }

    #[test]
    fn dense_maxcut_saves_qubits_via_pivots() {
        // PR 2's fuse/id/Hopf set reported zero savings on dense
        // instances; the pivot pass eliminates the XY(0) mixer wire
        // spiders together with the phase-gadget hubs, so dense MaxCut
        // must now come in strictly below the compiled pattern.
        for (name, g) in [
            ("triangle", generators::triangle()),
            ("square", generators::square()),
            ("complete5", generators::complete(5)),
        ] {
            let cost = maxcut::maxcut_zpoly(&g);
            let zx = ZxBackend::new(&cost, 1);
            let r = zx.report();
            assert!(r.clifford.pivots > 0, "{name}: pivots must fire: {r:?}");
            assert!(
                r.qubit_savings() > 0,
                "{name}: dense instance must save qubits: {r:?}"
            );
            assert!(r.deterministic, "{name}: extraction must carry a gflow");
            let gate = GateBackend::standard(cost, 1);
            let params = [0.8, 0.3];
            assert!(
                (gate.expectation(&params) - zx.expectation(&params)).abs() < 1e-8,
                "{name}: savings must not cost correctness"
            );
        }
    }

    #[test]
    fn extraction_is_postselection_free_with_gflow_depth() {
        let cost = maxcut::maxcut_zpoly(&generators::cycle(4));
        for p in [1usize, 2] {
            let zx = ZxBackend::new(&cost, p);
            let r = zx.report();
            assert!(r.deterministic);
            let depth = r.gflow_depth.expect("deterministic ⇒ depth");
            assert!(
                depth >= 1 && depth <= r.zx.measurements,
                "implausible gflow depth {depth}"
            );
        }
    }

    #[test]
    fn report_is_consistent() {
        let cost = maxcut::maxcut_zpoly(&generators::triangle());
        let zx = ZxBackend::new(&cost, 1);
        let r = zx.report();
        assert!(r.simplify.fusions > 0);
        assert!(r.export_nodes > r.graph_nodes);
        assert_eq!(
            r.zx.total_qubits,
            zx.compiled().n_measurements + cost.n(),
            "every extracted qubit is measured or an output"
        );
    }

    #[test]
    fn zx_backend_is_deterministic() {
        let cost = maxcut::maxcut_zpoly(&generators::cycle(5));
        let zx = ZxBackend::new(&cost, 1);
        let params = [0.62, -0.41];
        assert_eq!(zx.expectation(&params), zx.expectation(&params));
        assert_eq!(zx.sample(&params, 64, 7), zx.sample(&params, 64, 7));
    }
}
