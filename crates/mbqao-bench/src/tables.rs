//! Item-indexed generation of the resource and equivalence tables.
//!
//! Each table is a pure function of a small, wire-serializable spec:
//! the spec enumerates its items (one per table row), and every row is
//! derived from its item index alone — per-row random parameters come
//! from a per-item seeded RNG, not from RNG state threaded across rows.
//! That independence is what makes the tables shardable: any slice of
//! the item space can be rendered by any worker, and concatenating the
//! rows in item order reproduces the monolithic table byte-for-byte
//! (see [`crate::sweep`]).
//!
//! The row renderers also carry the tables' machine-checked claims (the
//! Sec. III-A bounds, gflow determinism, three-way equivalence), so a
//! sharded table run re-verifies them on every worker.

use crate::{mis_families, standard_families, FamilyInstance, MisInstance};
use mbqao_core::{
    compile_qaoa, gate_model_resources, paper_bounds, verify_equivalence_three_way, Backend,
    CompileOptions, PatternBackend, PauliBackend, ThreeWayReport, ZxBackend,
};
use mbqao_mbqc::resources::stats;
use mbqao_mbqc::schedule::just_in_time;
use mbqao_problems::Qubo;
use mbqao_qaoa::QaoaAnsatz;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Decorrelates a per-item RNG seed from a base seed (splitmix-style
/// multiply; items must not share RNG streams or rows would couple).
pub fn item_seed(base: u64, item: usize) -> u64 {
    (item as u64)
        .wrapping_add(1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ base
}

// ------------------------------------------------------------ resources

/// Spec for the E10 resource table: which families (by generator seed
/// and size cap) at which depths.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourcesSpec {
    /// Seed for [`standard_families`].
    pub family_seed: u64,
    /// Families with more than this many vertices are skipped.
    pub max_n: usize,
    /// QAOA depths swept per family.
    pub depths: Vec<usize>,
}

impl ResourcesSpec {
    /// The committed full-table configuration (every standard family,
    /// depths 1/2/4/8 — what `table_resources` prints).
    pub fn full() -> Self {
        ResourcesSpec {
            family_seed: 7,
            max_n: 64,
            depths: vec![1, 2, 4, 8],
        }
    }

    /// The selected families, in table order.
    pub fn families(&self) -> Vec<FamilyInstance> {
        standard_families(self.family_seed)
            .into_iter()
            .filter(|f| f.graph.n() <= self.max_n)
            .collect()
    }

    /// Number of rows (items): families × depths, family-major.
    pub fn item_count(&self) -> usize {
        self.families().len() * self.depths.len()
    }

    /// The table header lines.
    pub fn header(&self) -> String {
        concat!(
            "# E10: resource estimates (Sec. III-A)\n\n",
            "| graph | |V| | |E| | p | N_Q | bound N_Q | N_E | bound N_E | rounds | gate qubits | gate CX (2p|E|) | max_live (reuse) | zx max_live | zx N_E | zx N_Q | zx saved | zx pivots+lc | zx determinism |\n",
            "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|"
        )
        .to_string()
    }

    /// Renders the rows of items `start..end` (the shard-sized unit:
    /// the family list is resolved once for the whole slice).
    ///
    /// # Panics
    /// Panics under the same conditions as [`ResourcesSpec::row`].
    pub fn rows(&self, start: usize, end: usize) -> Vec<TableRow> {
        let families = self.families();
        (start..end)
            .map(|item| self.render_row(&families, item))
            .collect()
    }

    /// Renders row `item`, re-checking the paper bounds and the gflow
    /// determinism certificate for that instance.
    ///
    /// # Panics
    /// Panics when `item` is out of range — or when a machine-checked
    /// claim fails (bounds violated, extraction not deterministic, ZX
    /// needing more qubits or a wider live register than the direct
    /// compilation).
    pub fn row(&self, item: usize) -> TableRow {
        self.render_row(&self.families(), item)
    }

    fn render_row(&self, families: &[FamilyInstance], item: usize) -> TableRow {
        let fam = &families[item / self.depths.len()];
        let p = self.depths[item % self.depths.len()];
        let g = &fam.graph;
        let cost = &fam.cost;
        let compiled = compile_qaoa(cost, p, &CompileOptions::default());
        let s = stats(&compiled.pattern);
        let b = paper_bounds(cost, p);
        let gate = gate_model_resources(cost, p);
        let jit = stats(&just_in_time(&compiled.pattern));
        assert!(s.total_qubits <= b.total_qubits && s.entangling <= b.entangling);
        let zx = ZxBackend::new(cost, p);
        let r = zx.report();
        assert!(
            r.zx.total_qubits <= s.total_qubits,
            "ZX extraction must never need more qubits than the direct compilation"
        );
        assert!(
            r.deterministic,
            "{} p={p}: every QAOA extraction must admit a gflow",
            fam.name
        );
        assert!(
            r.zx.max_live <= jit.max_live,
            "{} p={p}: the ZX register ({} live) must be no wider than the JIT-scheduled pattern's ({})",
            fam.name,
            r.zx.max_live,
            jit.max_live
        );
        // Dense = complete graph (K_n MaxCut and the SK instances, which
        // live on K_n too) — detected structurally, not by name.
        let dense = g.m() == g.n() * (g.n() - 1) / 2;
        let dense_saving = if dense { r.qubit_savings() } else { 0 };
        let text = format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | gflow, {} layers |",
            fam.name,
            g.n(),
            g.m(),
            p,
            s.total_qubits,
            b.total_qubits,
            s.entangling,
            b.entangling,
            s.rounds,
            gate.qubits,
            gate.entangling_cx,
            jit.max_live,
            r.zx.max_live,
            r.zx.entangling,
            r.zx.total_qubits,
            r.qubit_savings(),
            r.clifford.pivots + r.clifford.local_complements + r.clifford.boundary_pivots,
            r.gflow_depth.expect("deterministic"),
        );
        TableRow {
            text,
            dense_saving: dense_saving as i64,
        }
    }

    /// The table footer (after the summed dense-savings check).
    pub fn footer(&self) -> String {
        concat!(
            "\nbounds met on every instance (MaxCut and SK); gate model needs\n",
            "|V| qubits / 2p|E| CX (fewer circuit resources, as the paper states).\n",
            "The zx columns re-derive the counts by exporting each pattern to a\n",
            "ZX-diagram, simplifying (fuse/id/Hopf, then pivot + local\n",
            "complementation to a fixpoint) and re-extracting with\n",
            "gflow-synthesized corrections: the extraction is strongly\n",
            "deterministic (no 2^-k postselection) and now undercuts the\n",
            "Sec. III-A counts on *dense* MaxCut/SK instances too — the pivot\n",
            "pass eliminates the XY(0) mixer wire spiders together with the\n",
            "phase-gadget hubs that the fuse/id/Hopf set could not touch.\n",
            "The extraction measures in a width-aware gflow order, so its live\n",
            "register (zx max_live) never exceeds the JIT-scheduled pattern's\n",
            "(asserted on every row)."
        )
        .to_string()
    }

    /// Whether the spec covers an instance whose pivot/LC pass is
    /// expected to save qubits (a dense graph on ≥ 4 vertices) — the
    /// condition under which the summed dense savings must be positive.
    pub fn expects_dense_savings(&self) -> bool {
        self.families()
            .iter()
            .any(|f| f.graph.n() >= 4 && f.graph.m() == f.graph.n() * (f.graph.n() - 1) / 2)
    }
}

/// One rendered table row plus the cross-row accounting it contributes
/// (summed at assembly in canonical item order).
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// The formatted markdown row.
    pub text: String,
    /// This row's contribution to the dense qubit-savings check
    /// (resource table; 0 elsewhere).
    pub dense_saving: i64,
}

// ---------------------------------------------------------- equivalence

/// Spec for the E8/E9 three-way equivalence table.
#[derive(Debug, Clone, PartialEq)]
pub struct EquivalenceSpec {
    /// Seed for [`standard_families`].
    pub family_seed: u64,
    /// Seed from which per-item parameter/QUBO seeds are derived.
    pub param_seed: u64,
    /// Families with more than this many vertices are skipped.
    pub max_n: usize,
    /// Depths swept per family (QUBO items cycle through these too).
    pub depths: Vec<usize>,
    /// Number of random-QUBO items.
    pub qubos: usize,
    /// Whether the constraint-preserving MIS items are included.
    pub include_mis: bool,
}

impl EquivalenceSpec {
    /// The committed full-table configuration.
    pub fn full() -> Self {
        EquivalenceSpec {
            family_seed: 7,
            param_seed: 2403,
            max_n: 8,
            depths: vec![1, 2],
            qubos: 4,
            include_mis: true,
        }
    }

    /// The selected families, in table order.
    pub fn families(&self) -> Vec<FamilyInstance> {
        standard_families(self.family_seed)
            .into_iter()
            .filter(|f| f.graph.n() <= self.max_n)
            .collect()
    }

    fn mis_items(&self) -> Vec<MisInstance> {
        if self.include_mis {
            mis_families()
        } else {
            Vec::new()
        }
    }

    /// Number of rows: families × depths, then QUBOs, then MIS.
    pub fn item_count(&self) -> usize {
        self.families().len() * self.depths.len() + self.qubos + self.mis_items().len()
    }

    /// The table header lines.
    pub fn header(&self) -> String {
        concat!(
            "# E8/E9: equivalence of the compiled patterns (Sec. III)\n\n",
            "| instance | n | p | params | branches | min fidelity | zx fidelity | zx saved | zx determinism | pauli Δ | pass |\n",
            "|---|---|---|---|---|---|---|---|---|---|---|"
        )
        .to_string()
    }

    /// Renders the rows of items `start..end` (the shard-sized unit:
    /// family and MIS lists are resolved once for the whole slice).
    ///
    /// # Panics
    /// Panics under the same conditions as [`EquivalenceSpec::row`].
    pub fn rows(&self, start: usize, end: usize) -> Vec<TableRow> {
        let families = self.families();
        let mis = self.mis_items();
        (start..end)
            .map(|item| self.render_row(&families, &mis, item))
            .collect()
    }

    /// Renders row `item`, asserting three-way equivalence and
    /// postselection-freedom for that instance.
    ///
    /// # Panics
    /// Panics when `item` is out of range or the equivalence check
    /// fails.
    pub fn row(&self, item: usize) -> TableRow {
        self.render_row(&self.families(), &self.mis_items(), item)
    }

    fn render_row(
        &self,
        families: &[FamilyInstance],
        mis: &[MisInstance],
        item: usize,
    ) -> TableRow {
        let mut rng = StdRng::seed_from_u64(item_seed(self.param_seed, item));
        let fam_items = families.len() * self.depths.len();
        let (name, n, p, rep, cost, opts, params) = if item < fam_items {
            // MaxCut families and SK spin glasses.
            let fam = &families[item / self.depths.len()];
            let p = self.depths[item % self.depths.len()];
            let params: Vec<f64> = (0..2 * p).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let ansatz = QaoaAnsatz::standard(fam.cost.clone(), p);
            let opts = CompileOptions::default();
            let rep = verify_equivalence_three_way(&fam.cost, &ansatz, &opts, p, &params, 3, 1e-8);
            (
                fam.name.clone(),
                fam.graph.n(),
                p,
                rep,
                fam.cost.clone(),
                opts,
                params,
            )
        } else if item < fam_items + self.qubos {
            // General QUBOs with linear terms (Eq. 12) — where the ZX
            // backend's gadget absorption actually saves ancillae.
            let i = item - fam_items;
            let q = Qubo::random(5, 0.6, &mut rng);
            let cost = q.to_zpoly();
            let p = self.depths[i % self.depths.len()];
            let params: Vec<f64> = (0..2 * p).map(|_| rng.gen_range(-1.5..1.5)).collect();
            let ansatz = QaoaAnsatz::standard(cost.clone(), p);
            let opts = CompileOptions::default();
            let rep = verify_equivalence_three_way(&cost, &ansatz, &opts, p, &params, 3, 1e-8);
            (format!("qubo-rand-{i}"), 5, p, rep, cost, opts, params)
        } else {
            // Constraint-preserving MIS ansätze (Sec. IV).
            let inst = &mis[item - fam_items - self.qubos];
            let opts = inst.compile_options();
            let ansatz = QaoaAnsatz::mis(&inst.graph, 1, inst.initial);
            let params: Vec<f64> = (0..2).map(|_| rng.gen_range(-1.5..1.5)).collect();
            let rep = verify_equivalence_three_way(&inst.cost, &ansatz, &opts, 1, &params, 3, 1e-8);
            (
                inst.name.clone(),
                inst.graph.n(),
                1,
                rep,
                inst.cost.clone(),
                opts,
                params,
            )
        };
        // Fourth backend: the stabilizer tableau must reproduce the
        // pattern expectation at the row's random parameters (tableau
        // path when the magic budget allows, statevector fallback
        // otherwise — both are asserted to 1e-8 either way).
        let pauli = PauliBackend::with_options(&cost, p, &opts);
        let pattern = PatternBackend::with_options(&cost, p, &opts);
        let pauli_delta = (pauli.expectation(&params) - pattern.expectation(&params)).abs();
        TableRow {
            text: equivalence_row_text(&name, n, p, &rep, pauli_delta),
            dense_saving: 0,
        }
    }

    /// The table footer.
    pub fn footer(&self) -> String {
        concat!(
            "\nall minimum fidelities = 1 within 1e-8: the compiled measurement\n",
            "patterns implement QAOA exactly, for arbitrary depth and parameters —\n",
            "and so do their ZX-simplified re-extractions (rewrite soundness,\n",
            "machine-checked across every family). Every extraction runs\n",
            "gflow-corrected: random outcome branches, no postselection. The\n",
            "pauli Δ column pins the stabilizer-tableau backend to the pattern\n",
            "expectation at the same random parameters (1e-8)."
        )
        .to_string()
    }
}

/// Formats one equivalence-table row and asserts its claims.
///
/// # Panics
/// Panics when the report is not equivalent or not postselection-free.
fn equivalence_row_text(
    name: &str,
    n: usize,
    p: usize,
    rep: &ThreeWayReport,
    pauli_delta: f64,
) -> String {
    assert!(rep.equivalent, "{name}: three-way equivalence failed");
    assert!(
        rep.simplify.deterministic,
        "{name}: extraction must be postselection-free"
    );
    assert!(
        pauli_delta < 1e-8,
        "{name}: pauli backend diverged by {pauli_delta:.3e}"
    );
    format!(
        "| {} | {} | {} | random | {} | {:.12} | {:.12} | {} | {} | {:.1e} | {} |",
        name,
        n,
        p,
        rep.gate_vs_pattern.fidelities.len(),
        rep.gate_vs_pattern.min_fidelity,
        rep.gate_vs_zx.min(rep.pattern_vs_zx),
        rep.simplify.qubit_savings(),
        if rep.simplify.deterministic {
            "gflow-corrected"
        } else {
            "postselected"
        },
        pauli_delta,
        if rep.equivalent { "yes" } else { "NO" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resources_rows_are_item_pure() {
        let spec = ResourcesSpec {
            family_seed: 7,
            max_n: 4,
            depths: vec![1, 2],
        };
        assert!(spec.item_count() >= 4, "triangle, square, K4 at two depths");
        // Rendering the same item twice (fresh call, shared cache) is
        // identical — the property sharding depends on.
        let a = spec.row(3);
        let b = spec.row(3);
        assert_eq!(a, b);
        assert!(a.text.starts_with('|'));
    }

    #[test]
    fn equivalence_rows_are_item_pure() {
        let spec = EquivalenceSpec {
            family_seed: 7,
            param_seed: 2403,
            max_n: 4,
            depths: vec![1],
            qubos: 1,
            include_mis: false,
        };
        let last = spec.item_count() - 1;
        assert_eq!(spec.row(last), spec.row(last));
        assert!(spec.row(0).text.contains("| yes |"));
    }
}
