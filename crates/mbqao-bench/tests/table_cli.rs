//! The table binaries' command line: a bad one exits with code 2 and a
//! usage line naming the flag, before any row is computed. The two
//! sharded tables take `[--shards N]`; the other six take nothing.

use std::process::Command;

const TABLES: [&str; 8] = [
    env!("CARGO_BIN_EXE_table_resources"),
    env!("CARGO_BIN_EXE_table_equivalence"),
    env!("CARGO_BIN_EXE_table_depth_scan"),
    env!("CARGO_BIN_EXE_table_fig1_rules"),
    env!("CARGO_BIN_EXE_table_fig2"),
    env!("CARGO_BIN_EXE_table_mis"),
    env!("CARGO_BIN_EXE_table_reuse"),
    env!("CARGO_BIN_EXE_table_xy"),
];

/// Runs every table binary with `args`: each must exit 2 with `flag`
/// and the usage line on stderr.
fn rejects(args: &[&str], flag: &str) {
    for exe in TABLES {
        let out = Command::new(exe).args(args).output().expect("table runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
        assert!(stderr.contains(flag), "{exe} {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{exe} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{exe} {args:?} printed rows");
    }
}

#[test]
fn a_malformed_shard_count_is_rejected() {
    rejects(&["--shards", "x"], "--shards");
}

#[test]
fn an_unknown_flag_is_rejected() {
    rejects(&["--shard", "4"], "--shard");
}

#[test]
fn zero_shards_are_rejected() {
    rejects(&["--shards", "0"], "--shards");
}
