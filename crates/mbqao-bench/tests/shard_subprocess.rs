//! Fault harness for the multi-process shard driver: worker
//! subprocesses that die (panic) or emit truncated JSON must surface as
//! clean errors **naming the shard** — no hang, no partial-merge
//! corruption — and retrying exactly the failed shard must merge into
//! the same bit-identical output as a clean run.
//!
//! Workers are real subprocesses of the `sweep_shard` binary; faults
//! are injected through the job JSON itself (no environment
//! side-channel), so a faulted and a retried job differ only in the
//! fault field.

use mbqao_bench::serve::{run_job, Event, ServeConfig};
use mbqao_bench::sweep::{
    drive_subprocess, job_to_json, monolithic, result_from_json, run_shard_subprocess, BackendKind,
    FamilyRef, Fault, Workload,
};
use mbqao_core::engine::shard::{
    Merger, PoolConfig, PoolJob, RetryPolicy, Shard, ShardError, WorkerCommand, WorkerPool,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_sweep_shard"))
}

/// A small, fully deterministic workload (gate-backend landscape).
fn workload() -> Workload {
    Workload::Landscape {
        family: FamilyRef {
            seed: 7,
            name: "square".into(),
        },
        backend: BackendKind::Gate,
        steps: 4,
        gamma: (0.0, 2.0),
        beta: (0.0, 2.0),
    }
}

#[test]
fn subprocess_drive_matches_monolithic_bit_for_bit() {
    let w = workload();
    let reference = monolithic(&w);
    for shards in [1usize, 3, 5] {
        let driven = drive_subprocess(&worker_exe(), &w, shards, &[])
            .unwrap_or_else(|e| panic!("{shards}-shard drive failed: {e}"));
        assert!(
            driven.bit_identical(&reference),
            "{shards}-shard subprocess drive diverged from monolithic"
        );
    }
}

#[test]
fn panicking_worker_surfaces_a_clean_error_naming_the_shard() {
    let w = workload();
    let err = drive_subprocess(&worker_exe(), &w, 3, &[(1, Fault::Panic)])
        .expect_err("a panicking worker must fail the drive");
    match &err {
        ShardError::Worker { shard, reason } => {
            assert_eq!(*shard, 1, "the error must name the failed shard");
            assert!(
                reason.contains("injected fault"),
                "the worker's panic message must be surfaced, got: {reason}"
            );
        }
        other => panic!("expected ShardError::Worker, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("shard 1"), "display names the shard: {msg}");
}

#[test]
fn truncated_worker_output_surfaces_a_clean_error_naming_the_shard() {
    let w = workload();
    let err = drive_subprocess(&worker_exe(), &w, 4, &[(2, Fault::Truncate)])
        .expect_err("truncated output must fail the drive");
    match &err {
        ShardError::Worker { shard, reason } => {
            assert_eq!(*shard, 2, "the error must name the truncating shard");
            assert!(
                reason.contains("decoding worker output"),
                "truncation is a decode failure: {reason}"
            );
        }
        other => panic!("expected ShardError::Worker, got {other:?}"),
    }
}

#[test]
fn retried_shard_merges_identically() {
    let w = workload();
    let exe = worker_exe();
    let shards = Shard::partition(w.total(), 3);
    let mut merger = Merger::new(w.total());

    // Shards 0 and 2 succeed; shard 1 is faulted and must fail without
    // corrupting what is already merged.
    for &i in &[0usize, 2] {
        let result = run_shard_subprocess(&exe, &w, shards[i], None).expect("healthy shard");
        merger.insert(result).expect("disjoint insert");
    }
    let err = run_shard_subprocess(&exe, &w, shards[1], Some(Fault::Panic))
        .expect_err("faulted shard fails");
    assert!(matches!(err, ShardError::Worker { shard: 1, .. }));
    assert_eq!(merger.len(), 2, "failed shard left the merger untouched");
    assert_eq!(merger.missing(), vec![(shards[1].start, shards[1].end)]);

    // Retry the failed shard without the fault: it merges, and the
    // assembled output is bit-identical to a clean monolithic run.
    let retried = run_shard_subprocess(&exe, &w, shards[1], None).expect("retry succeeds");
    merger.insert(retried).expect("retried shard merges");
    let parts = merger.finish().expect("complete after retry");
    let assembled = mbqao_bench::sweep::assemble(&w, parts);
    assert!(
        assembled.bit_identical(&monolithic(&w)),
        "retried shard must reproduce the monolithic output"
    );
}

/// A worker that fails its first two attempts and succeeds on the third
/// must be carried to completion by the orchestrator's retry policy —
/// with the configured exponential backoff actually applied between
/// attempts — and the merged output must stay bit-identical.
#[test]
fn fail_twice_then_succeed_worker_recovers_under_backoff() {
    let w = workload();
    let policy = RetryPolicy::new(4, Duration::from_millis(40));
    let config = ServeConfig {
        cap: 2,
        retry: policy,
        max_queue: 1,
        ..ServeConfig::default()
    };
    let mut events = Vec::new();
    let started = Instant::now();
    let (output, stats) = run_job(
        &worker_exe(),
        1,
        &w,
        3,
        &[(1, Fault::FailUntil(2))],
        &config,
        &mut |e| events.push(e),
    )
    .expect("retries must carry the flaky shard to completion");
    let elapsed = started.elapsed();

    assert!(
        output.bit_identical(&monolithic(&w)),
        "recovered output must match the monolithic run bit-for-bit"
    );
    assert_eq!(stats.retries, 2, "attempts 0 and 1 fail, attempt 2 lands");
    assert_eq!(stats.repartitions, 0);
    assert_eq!(stats.completed, 3);
    assert!(stats.max_live <= 2, "cap violated: {}", stats.max_live);

    // Backoff honored: the emitted delays follow the policy exactly,
    // and the wall clock proves the sleeps actually happened (sleep is
    // lower-bounded even on a loaded host).
    let backoffs: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::Requeue {
                repartitioned: false,
                backoff_ms,
                ..
            } => Some(*backoff_ms),
            _ => None,
        })
        .collect();
    assert_eq!(
        backoffs,
        vec![
            policy.backoff(1).as_millis() as u64,
            policy.backoff(2).as_millis() as u64,
        ],
        "requeue events must carry the policy's exponential delays"
    );
    assert!(
        elapsed >= Duration::from_millis(backoffs.iter().sum::<u64>()),
        "wall clock {elapsed:?} shorter than the mandated backoff"
    );
}

/// A shard whose retry budget runs out must fail the job with an error
/// naming the shard — never hang or merge a partial sweep.
#[test]
fn exhausted_retry_budget_fails_the_job_naming_the_shard() {
    let w = workload();
    let config = ServeConfig {
        cap: 2,
        retry: RetryPolicy::new(2, Duration::from_millis(5)),
        max_queue: 1,
        ..ServeConfig::default()
    };
    let err = run_job(
        &worker_exe(),
        1,
        &w,
        3,
        &[(2, Fault::FailUntil(99))],
        &config,
        &mut |_| {},
    )
    .expect_err("a shard that always fails must exhaust the budget");
    assert!(
        matches!(err, ShardError::Worker { shard: 2, .. }),
        "error must name the hopeless shard: {err}"
    );
}

/// A stalled worker must be killed at the straggler deadline and its
/// range re-partitioned onto fresh workers — and the halves must merge
/// into the exact same output as an unfaulted run.
#[test]
fn straggler_is_repartitioned_and_merges_bit_identically() {
    let w = workload();
    let config = ServeConfig {
        cap: 2,
        retry: RetryPolicy::new(3, Duration::from_millis(10)),
        straggler_deadline: Some(Duration::from_millis(2_000)),
        max_queue: 1,
        ..ServeConfig::default()
    };
    let mut events = Vec::new();
    let (output, stats) = run_job(
        &worker_exe(),
        1,
        &w,
        3,
        &[(0, Fault::Stall(20_000))],
        &config,
        &mut |e| events.push(e),
    )
    .expect("re-partition must rescue the stalled range");

    assert!(
        output.bit_identical(&monolithic(&w)),
        "re-partitioned output must match the monolithic run bit-for-bit"
    );
    assert!(
        stats.repartitions >= 1,
        "the stalled shard must have been split"
    );
    assert!(events.iter().any(|e| matches!(
        e,
        Event::Requeue {
            repartitioned: true,
            ..
        }
    )));
    // The split halves are extra merges on top of the healthy shards.
    assert!(stats.completed >= 4, "got {} merges", stats.completed);
    assert!(stats.max_live <= 2, "cap violated: {}", stats.max_live);
}

/// Regression for the synchronous-stdin-write spawn bug at the bench
/// level: a job spec far larger than an OS pipe buffer (padded past
/// 256 KiB — unknown fields are ignored by the decoder) must round-trip
/// through a real pool worker without deadlocking the caller, and the
/// payload must be unaffected by the padding.
#[test]
fn oversized_job_spec_reaches_the_worker_without_deadlock() {
    let w = workload();
    let shard = Shard::partition(w.total(), 2)[1];
    let lean = job_to_json(&w, shard, None);
    let mut padded = lean.trim_end().to_string();
    assert_eq!(padded.pop(), Some('}'));
    padded.push_str(&format!(",\"padding\":\"{}\"}}", "x".repeat(300 * 1024)));
    assert!(padded.len() > 256 * 1024);

    let pool = WorkerPool::new(
        WorkerCommand::new(worker_exe(), &["--worker"]),
        PoolConfig::default(),
    );
    let run = |input: &str| {
        let job = PoolJob {
            tag: 0,
            shard_index: shard.index,
            input: input.to_string(),
            cache_key: w.cache_key(),
            delay: Duration::ZERO,
        };
        pool.submit(job).expect("pool accepts");
        pool.recv().expect("supervisor alive").result
    };
    let from_padded = run(&padded).expect("padded job completes");
    let from_lean = run(&lean).expect("lean job completes");
    pool.shutdown();
    let a = result_from_json(&from_padded).expect("padded result decodes");
    let b = result_from_json(&from_lean).expect("lean result decodes");
    assert_eq!(a, b, "padding must not leak into the shard result");
}
