//! E11 — the qubit-reuse ablation (\[51\]): maximum simultaneously live
//! qubits under JIT scheduling vs. the full resource state, and the
//! adaptive-round depth.

use mbqao_bench::standard_families;
use mbqao_bench::sweep::TableOut;
use mbqao_core::{compile_qaoa, CompileOptions};
use mbqao_mbqc::resources::stats;
use mbqao_mbqc::schedule::{just_in_time, resource_state_first};
use std::io::Write;

fn main() -> std::io::Result<()> {
    mbqao_bench::sweep::table_args("table_reuse", false);
    let mut out = TableOut;
    writeln!(
        out,
        "# E11: qubit reuse ablation (mid-circuit measurement + reset, [51])\n"
    )?;
    writeln!(out, "| graph | p | N_Q total | live (resource-state-first) | live (JIT reuse) | reduction | rounds |")?;
    writeln!(out, "|---|---|---|---|---|---|---|")?;
    for fam in standard_families(7) {
        for p in [1usize, 4] {
            let compiled = compile_qaoa(&fam.cost, p, &CompileOptions::default());
            let bulk = stats(&resource_state_first(&compiled.pattern));
            let jit = stats(&just_in_time(&compiled.pattern));
            assert_eq!(bulk.total_qubits, jit.total_qubits);
            assert_eq!(bulk.max_live, bulk.total_qubits);
            writeln!(
                out,
                "| {} | {} | {} | {} | {} | {:.1}x | {} |",
                fam.name,
                p,
                bulk.total_qubits,
                bulk.max_live,
                jit.max_live,
                bulk.max_live as f64 / jit.max_live as f64,
                jit.rounds,
            )?;
        }
    }
    writeln!(
        out,
        "\nwith reuse, the live register is ~|V|+1 regardless of depth p —"
    )?;
    writeln!(
        out,
        "the paper's remark that qubit counts can be 'significantly reduced'"
    )?;
    writeln!(out, "by reusing qubits after measurement, quantified.")?;
    Ok(())
}
