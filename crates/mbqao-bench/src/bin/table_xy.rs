//! E13 — Sec. V XY mixers: the `e^{iβ(XX+YY)}` MBQC gadget vs. the dense
//! matrix, Hamming-weight preservation of the ring mixer, and its
//! compiled resource cost.

use mbqao_bench::sweep::TableOut;
use mbqao_core::{compile_qaoa, verify_equivalence, CompileOptions, MixerKind};
use mbqao_mbqc::resources::stats;
use mbqao_problems::{generators, maxcut};
use mbqao_qaoa::{InitialState, Mixer, QaoaAnsatz, QaoaRunner};
use std::io::Write;

fn main() -> std::io::Result<()> {
    mbqao_bench::sweep::table_args("table_xy", false);
    let mut out = TableOut;
    writeln!(out, "# E13: XY mixers (Sec. V)\n")?;

    // Equivalence of the compiled XY-ring ansatz with the gate model.
    writeln!(out, "| graph | p | init | min fidelity | pass |")?;
    writeln!(out, "|---|---|---|---|---|")?;
    for (name, g, init) in [
        ("C3", generators::cycle(3), 0b001u64),
        ("C4", generators::cycle(4), 0b0001),
        ("C5", generators::cycle(5), 0b00001),
    ] {
        let cost = maxcut::maxcut_zpoly(&g);
        let opts = CompileOptions {
            mixer: MixerKind::XyRing,
            initial_basis_state: Some(init),
            measure_outputs: false,
        };
        let compiled = compile_qaoa(&cost, 1, &opts);
        let mut ansatz = QaoaAnsatz::standard(cost.clone(), 1);
        ansatz.mixer = Mixer::XyRing;
        ansatz.initial = InitialState::Computational(init);
        let rep = verify_equivalence(&compiled, &ansatz, &[0.7, 0.45], 3, 1e-8);
        let s = stats(&compiled.pattern);
        writeln!(
            out,
            "| {name} | 1 | one-hot | {:.12} | {} |  (pattern: {s})",
            rep.min_fidelity,
            if rep.equivalent { "yes" } else { "NO" }
        )?;
        assert!(rep.equivalent);
    }

    // Hamming-weight sector preservation under the ring mixer.
    writeln!(
        out,
        "\n## weight-sector preservation (one-hot coloring workload)"
    )?;
    let g = generators::cycle(5);
    let cost = maxcut::maxcut_zpoly(&g);
    let mut ansatz = QaoaAnsatz::standard(cost, 2);
    ansatz.mixer = Mixer::XyRing;
    ansatz.initial = InitialState::Computational(0b00001);
    let runner = QaoaRunner::new(ansatz.clone());
    let st = runner.state(&[0.3, 0.8, 0.5, 0.2]);
    let order = ansatz.qubit_order();
    let aligned = st.aligned(&order);
    let mut leaked = 0.0f64;
    for (idx, amp) in aligned.iter().enumerate() {
        if (idx as u64).count_ones() != 1 {
            leaked += amp.norm_sqr();
        }
    }
    writeln!(
        out,
        "weight-1 sector leakage after 2 XY layers: {leaked:.3e} (must be ~0)"
    )?;
    assert!(leaked < 1e-18);
    writeln!(
        out,
        "\nXY ring mixer preserves the one-hot sector exactly, as Sec. V requires."
    )?;
    Ok(())
}
