//! E2 — Fig. 2 reproduction: the 3-qubit QAOA circuit with initial-state
//! preparation compiled to basic gates, rendered and verified.

use mbqao_bench::sweep::TableOut;
use mbqao_problems::{generators, maxcut};
use mbqao_qaoa::QaoaAnsatz;
use mbqao_sim::State;
use mbqao_zx::circuit_import::circuit_to_diagram;
use std::io::Write;

fn main() -> std::io::Result<()> {
    mbqao_bench::sweep::table_args("table_fig2", false);
    let mut out = TableOut;
    writeln!(out, "# E2: Fig. 2 — QAOA on 3 qubits\n")?;
    // Fig. 2 shows a line-style interaction: H column, RZ(γ)-coupled
    // phase separator, RX(β) mixer column.
    let g = generators::path(3);
    let cost = maxcut::maxcut_zpoly(&g);
    let ansatz = QaoaAnsatz::standard(cost, 1);
    let params = [0.8, 0.45];
    let circuit = ansatz.full_circuit_from_zero(&params);
    writeln!(out, "{}\n", circuit.to_ascii(&ansatz.qubit_order()))?;

    // Verify against the dense unitary and against |γβ⟩.
    let order = ansatz.qubit_order();
    let mut st = State::zeros(&order);
    circuit.run(&mut st);
    let direct = ansatz.prepare(&params);
    let fid = st.fidelity(&direct, &order);
    writeln!(out, "state preparation fidelity vs. ansatz: {fid:.12}")?;
    assert!((fid - 1.0).abs() < 1e-9);

    // And as a ZX-diagram (Sec. II-A: circuits translate to diagrams).
    let imported = circuit_to_diagram(&circuit, &order);
    let ok = imported
        .to_matrix()
        .approx_eq(&circuit.unitary(&order), 1e-9);
    writeln!(
        out,
        "ZX import: {} internal spiders, semantics exact: {ok}",
        imported.diagram.internal_node_count()
    )?;
    assert!(ok);
    writeln!(
        out,
        "\ngate counts: total {}, entangling {}",
        circuit.len(),
        circuit.entangling_count()
    )?;
    Ok(())
}
