//! E8/E9 — the headline equivalence table: MBQC-QAOA ≡ gate-model QAOA
//! across problems, depths and random parameters (fidelity per branch),
//! as the three-way jury: gate vs. compiled pattern vs. the
//! ZX-simplified re-extraction.
//!
//! Rows are generated through the sharded sweep engine
//! (`mbqao_bench::sweep`): every row draws its random parameters from a
//! per-item seed (not RNG state threaded across rows), so any `--shards
//! N` split merges back byte-identical to the monolithic table — and
//! `sweep_shard --workload equivalence` produces the same bytes from
//! worker subprocesses. The three-way equivalence assert runs wherever
//! the row is rendered.

use mbqao_bench::sweep::{run_in_process, table_args, SweepOutput, Workload};
use mbqao_bench::tables::EquivalenceSpec;

fn main() {
    let shards = table_args("table_equivalence", true);
    let workload = Workload::EquivalenceTable(EquivalenceSpec::full());
    let output = run_in_process(&workload, shards);
    let SweepOutput::Table { text, .. } = output else {
        unreachable!("equivalence workload assembles to a table");
    };
    println!("{text}");
}
