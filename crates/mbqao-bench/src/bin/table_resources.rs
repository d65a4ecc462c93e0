//! E10 — the Sec. III-A resource table (the paper's only quantitative
//! "table"): N_Q, N_E, rounds vs. the paper's bounds vs. the gate model,
//! across graph families and depths, with the ZX-simplified backend's
//! re-extracted resources alongside.
//!
//! Rows are generated through the sharded sweep engine
//! (`mbqao_bench::sweep`): each row is a pure function of its item
//! index, so `--shards N` splits the table across N merged shards —
//! byte-identical to the monolithic run by the engine's merge
//! guarantees (and to `sweep_shard --workload resources`, which runs
//! the same workload as worker subprocesses). Per-row asserts (paper
//! bounds, gflow determinism) run wherever the row is rendered.

use mbqao_bench::sweep::{run_in_process, table_args, SweepOutput, Workload};
use mbqao_bench::tables::ResourcesSpec;

fn main() {
    let shards = table_args("table_resources", true);
    let spec = ResourcesSpec::full();
    let expects_savings = spec.expects_dense_savings();
    let workload = Workload::ResourceTable(spec);
    let output = run_in_process(&workload, shards);
    let SweepOutput::Table {
        text,
        dense_savings,
    } = output
    else {
        unreachable!("resource workload assembles to a table");
    };
    assert!(
        !expects_savings || dense_savings > 0,
        "pivot/LC must save qubits on dense instances"
    );
    println!("{text}");
}
