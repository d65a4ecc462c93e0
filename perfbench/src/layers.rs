//! One traced wrapper per public layer call, so the workload replays
//! and the layer census name their spans identically.
//!
//! Each wrapper calls exactly one public function of the program inside
//! one span; the replays compose them in the order the backends do.

use crate::trace::Trace;
use mbqao_core::compiler::{compile_qaoa, CompileOptions, CompiledQaoa};
use mbqao_core::zx_bridge::{diagram_to_pattern, pattern_to_symbolic_diagram};
use mbqao_mbqc::resources::stats;
use mbqao_mbqc::schedule::just_in_time;
use mbqao_mbqc::simulate::{run, run_with_input, Branch};
use mbqao_mbqc::{Command, Pattern};
use mbqao_sim::{QubitId, State};
use mbqao_zx::extract::to_graph_like;
use mbqao_zx::simplify::{clifford_simp, simplify, SimplifyStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `compiler::compile_qaoa` followed by `schedule::just_in_time` — the
/// work a compile-cache miss does.
pub fn compile_and_schedule(
    tr: &mut Trace,
    cost: &mbqao_problems::ZPoly,
    p: usize,
    opts: &CompileOptions,
) -> CompiledQaoa {
    let mut compiled = tr.span("compiler.compile", |_| compile_qaoa(cost, p, opts));
    compiled.pattern = tr.span("schedule.jit", |_| just_in_time(&compiled.pattern));
    compiled
}

/// `simulate::run_with_input` on the reference seed — the state-form
/// execution `PatternBackend::expectation` performs.
pub fn run_state(tr: &mut Trace, pattern: &Pattern, params: &[f64]) -> State {
    tr.span("simulate.run", |_| {
        let mut rng = StdRng::seed_from_u64(0);
        run_with_input(pattern, State::new(), params, Branch::Random, &mut rng).state
    })
}

/// `State::expectation_diag` — the cost readout.
pub fn readout(tr: &mut Trace, state: &State, wires: &[QubitId], cost_vector: &[f64]) -> f64 {
    tr.span("readout", |_| state.expectation_diag(wires, cost_vector))
}

/// A ZX extraction replayed through the public pipeline.
pub struct ZxReplay {
    /// The runnable re-extracted pattern.
    pub pattern: Pattern,
    /// Variable wires of the extracted pattern.
    pub output_wires: Vec<QubitId>,
    /// Whether the extraction carries gflow corrections.
    pub deterministic: bool,
    /// Measurements of the extracted pattern.
    pub n_measurements: usize,
    /// Rule applications over all three rewrite passes.
    pub rewrites: usize,
}

fn simplify_rules(s: &SimplifyStats) -> usize {
    s.fusions + s.identities + s.self_loops + s.hopf + s.parallel_h
}

/// Export → simplify → graph-like → Clifford pass → extract, in the
/// order `ZxBackend` runs them, each in its own span.
pub fn zx_pipeline(tr: &mut Trace, state_form: &Pattern) -> ZxReplay {
    let sym = tr.span("zx.export", |_| pattern_to_symbolic_diagram(state_form));
    let mut d = sym.diagram.clone();
    let simp = tr.span("zx.simplify", |_| simplify(&mut d));
    let graph_like = tr.span("zx.graph_like", |_| to_graph_like(&mut d));
    let clifford = tr.span("zx.clifford", |_| clifford_simp(&mut d));
    let ext = tr.span("zx.extract", |_| {
        diagram_to_pattern(&d, &sym.atoms, state_form.n_params())
    });
    let rewrites = simplify_rules(&simp)
        + graph_like.color_changes
        + simplify_rules(&graph_like.simplify)
        + clifford.local_complements
        + clifford.pivots
        + clifford.boundary_pivots
        + clifford.pauli_leaf_copies
        + clifford.graph_like.color_changes
        + simplify_rules(&clifford.graph_like.simplify);
    ZxReplay {
        n_measurements: ext.spec.measures.len(),
        pattern: ext.pattern,
        output_wires: ext.output_wires,
        deterministic: ext.deterministic,
        rewrites,
    }
}

/// The state preparation `ZxBackend::prepare` performs on an extraction.
pub fn zx_run(tr: &mut Trace, zx: &ZxReplay, params: &[f64]) -> State {
    tr.span("zx.run", |_| {
        let mut rng = StdRng::seed_from_u64(0);
        if zx.deterministic {
            run(&zx.pattern, params, Branch::Random, &mut rng).state
        } else {
            let zeros = vec![0u8; zx.n_measurements];
            run(&zx.pattern, params, Branch::Forced(&zeros), &mut rng).state
        }
    })
}

/// Records the scheduled pattern's width and entanglers.
pub fn count_schedule(tr: &mut Trace, pattern: &Pattern) {
    let s = stats(pattern);
    tr.max("schedule.max_live", s.max_live as f64);
    tr.add("schedule.entanglers", s.entangling as f64);
}

/// Records the extracted pattern's width, entanglers and rewrites.
pub fn count_zx(tr: &mut Trace, zx: &ZxReplay) {
    let s = stats(&zx.pattern);
    tr.max("zx.max_live", s.max_live as f64);
    tr.add("zx.entanglers", s.entangling as f64);
    tr.add("zx.rewrites", zx.rewrites as f64);
}

/// Computed amplitude touches of one state-form execution: the sum over
/// the pattern's commands of `2^live`, the live register's width after
/// the command (before kernel fusion).
pub fn amp_touches(pattern: &Pattern) -> f64 {
    let mut live = pattern.inputs().len();
    let mut touches = 0.0;
    for c in pattern.commands() {
        match c {
            Command::Prep { .. } => live += 1,
            Command::Measure { .. } => live = live.saturating_sub(1),
            Command::Entangle { .. } | Command::Correct { .. } => {}
        }
        touches += 2f64.powi(live as i32);
    }
    touches
}
