//! Acceptance harness for the supervised persistent worker pool and
//! the crash-safe job journal: workers killed with SIGKILL mid-shard,
//! poison shards quarantined after exactly K kills, corrupted payloads
//! rejected by the merge algebra, interrupted services resumed from
//! their WAL — every recovery path must land on output **bit-identical**
//! to the monolithic run (or a deliberately visible degraded hole).

use mbqao_bench::serve::{
    load_journal, resume_job, run_job_with, spawn_service, Event, JobJournal, JobSpec, ServeConfig,
    SubmitRequest,
};
use mbqao_bench::sweep::{
    corrupt_f64_payload, monolithic, run_shard, run_shard_subprocess, BackendKind, FamilyRef,
    Fault, Workload,
};
use mbqao_core::engine::shard::{Merger, RetryPolicy, Shard, ShardError};
use mbqao_core::engine::wire::{read_frame, write_frame, Value};
use std::cell::Cell;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

fn serve_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_mbqao-serve"))
}

fn shard_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_sweep_shard"))
}

/// A small, fully deterministic workload.
fn workload(backend: BackendKind) -> Workload {
    Workload::Landscape {
        family: FamilyRef {
            seed: 7,
            name: "square".into(),
        },
        backend,
        steps: 4,
        gamma: (0.0, 2.0),
        beta: (0.0, 2.0),
    }
}

/// A fresh scratch directory under the target tmpdir, per test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbqao-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// SIGKILLing live pool workers mid-shard must be recovered by the
/// supervisor (restart + retry) with the final output bit-identical —
/// the merge algebra guarantees a killed shard's re-run is
/// indistinguishable from its first run.
#[test]
fn sigkilled_workers_mid_shard_recover_bit_identically() {
    let w = workload(BackendKind::Gate);
    let config = ServeConfig {
        cap: 2,
        retry: RetryPolicy::new(4, Duration::from_millis(20)),
        ..ServeConfig::default()
    };
    let pool = spawn_service(&serve_exe(), &config);
    let spec = JobSpec {
        id: 1,
        workload: &w,
        shards: 4,
        // One shard stalls briefly so workers are provably mid-shard
        // when the massacre happens.
        faults: &[(3, Fault::Stall(400))],
    };
    let killed = Cell::new(false);
    let mut emit = |event: Event| {
        // On the first landed partial, SIGKILL every live worker: jobs
        // in flight die mid-computation and must be restarted + retried.
        if matches!(event, Event::Partial { .. }) && !killed.get() {
            killed.set(true);
            for pid in pool.live_pids() {
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            }
        }
    };
    let (output, stats) = run_job_with(&pool, &spec, None, &mut emit)
        .expect("SIGKILLed workers must be recovered by the supervisor");
    assert!(killed.get(), "the kill hook must have fired");
    assert!(
        output.bit_identical(&monolithic(&w)),
        "post-massacre output must match the monolithic run bit-for-bit"
    );
    assert!(
        stats.worker_restarts >= 1,
        "killing live workers must be visible as restarts, got {}",
        stats.worker_restarts
    );
    assert!(stats.max_live <= 2, "cap violated: {}", stats.max_live);
    pool.shutdown();
}

/// Affinity routing on a shared pool: a second job with the same cache
/// key lands on the workers that just compiled its patterns, so the
/// per-process compiled-pattern cache hits across **jobs** — the
/// benefit a fresh process per attempt (cold cache every time) could
/// never have.
#[test]
fn affinity_routed_second_job_hits_warm_pattern_caches() {
    let w = workload(BackendKind::Pattern);
    let config = ServeConfig {
        cap: 2,
        ..ServeConfig::default()
    };
    let pool = spawn_service(&serve_exe(), &config);
    let run = |id: u64| {
        let spec = JobSpec {
            id,
            workload: &w,
            shards: 2,
            faults: &[],
        };
        run_job_with(&pool, &spec, None, &mut |_| {}).expect("clean job completes")
    };
    let (out1, _stats1) = run(1);
    let (out2, stats2) = run(2);
    assert!(out1.bit_identical(&monolithic(&w)));
    assert!(out2.bit_identical(&out1), "identical jobs, identical bits");
    assert!(
        stats2.cache_hits > 0,
        "the affinity-routed second job must hit the warm compiled-pattern cache"
    );
    let pstats = pool.stats();
    assert!(
        pstats.affinity_hits > 0,
        "second job's shards must route by cache affinity"
    );
    assert_eq!(
        pstats.restarts, 0,
        "no worker may die during two clean jobs"
    );
    pool.shutdown();
}

/// Poison-shard quarantine at the orchestrator level: a shard that
/// kills `quarantine_after` workers is quarantined, and its
/// `quarantined` frame carries the kill count and the last stderr.
/// With `allow_partial` off the job fails with an error naming the
/// shard; with it on the job completes around a visible hole.
#[test]
fn quarantined_shard_fails_the_job_or_degrades_to_partial_coverage() {
    let w = workload(BackendKind::Gate);
    let base = ServeConfig {
        cap: 2,
        retry: RetryPolicy::new(10, Duration::from_millis(5)),
        quarantine_after: 2,
        ..ServeConfig::default()
    };

    // Named-failure flavour.
    let pool = spawn_service(&serve_exe(), &base);
    let spec = JobSpec {
        id: 5,
        workload: &w,
        shards: 3,
        faults: &[(1, Fault::FailUntil(99))],
    };
    let mut events = Vec::new();
    let err = run_job_with(&pool, &spec, None, &mut |e| events.push(e))
        .expect_err("a shard that kills every worker must fail the job");
    match &err {
        ShardError::Worker { shard, reason } => {
            assert_eq!(*shard, 1, "the quarantine error must name the shard");
            assert!(
                reason.contains("quarantined"),
                "the failure must say quarantine, got: {reason}"
            );
        }
        other => panic!("expected ShardError::Worker, got {other:?}"),
    }
    let quarantined: Vec<(&(usize, usize), &String)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Quarantined {
                id: 5,
                range,
                reason,
            } => Some((range, reason)),
            _ => None,
        })
        .collect();
    assert_eq!(quarantined.len(), 1, "exactly one quarantined frame");
    let (range, reason) = quarantined[0];
    let poisoned = Shard::partition(w.total(), 3)[1];
    assert_eq!(
        *range,
        (poisoned.start, poisoned.end),
        "the frame names shard 1's range"
    );
    assert!(
        reason.contains("shard 1 quarantined after killing 2 workers"),
        "quarantine must trigger after exactly K = 2 kills: {reason}"
    );
    assert!(
        reason.contains("injected fault"),
        "the frame keeps the last stderr excerpt: {reason}"
    );
    pool.shutdown();

    // Partial-coverage flavour: same poison, job completes around it.
    let cfg = ServeConfig {
        allow_partial: true,
        ..base
    };
    let pool = spawn_service(&serve_exe(), &cfg);
    let mut events = Vec::new();
    let (output, stats) = run_job_with(&pool, &spec, None, &mut |e| events.push(e))
        .expect("allow_partial must complete the job around the poisoned range");
    assert_eq!(stats.quarantined, 1);
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::Quarantined { id: 5, .. })),
        "the quarantine must be visible on the event stream"
    );
    assert!(
        !output.bit_identical(&monolithic(&w)),
        "the degraded output must NOT claim to be the full sweep"
    );
    pool.shutdown();
}

/// `Fault::Corrupt` proves the merger's duplicate-mismatch rejection:
/// the same range delivered twice — once clean, once with a single
/// f64 hex digit flipped — must be refused, never silently merged.
#[test]
fn corrupted_duplicate_range_is_rejected_by_the_merger() {
    let w = workload(BackendKind::Gate);
    let shard = Shard::partition(w.total(), 2)[0];
    let clean = run_shard_subprocess(&shard_exe(), &w, shard, None).expect("clean shard");
    let corrupt = run_shard_subprocess(&shard_exe(), &w, shard, Some(Fault::Corrupt))
        .expect("a corrupted payload still decodes — only the bits lie");
    assert_ne!(
        clean.payload, corrupt.payload,
        "the bit-flip must actually change the payload"
    );
    let mut merger = Merger::new(w.total());
    merger.insert(clean).expect("first delivery merges");
    let err = merger
        .insert(corrupt)
        .expect_err("a mismatching duplicate must be rejected");
    assert!(
        matches!(err, ShardError::DuplicateMismatch { .. }),
        "expected DuplicateMismatch, got {err:?}"
    );
}

/// Crash-safe journaling end to end, library flavour: run a journaled
/// job, truncate its WAL to one partial plus a torn half-line (what a
/// crash mid-append leaves), resume — the replay must count one shard,
/// re-run exactly the missing ranges, and finish bit-identical to the
/// uninterrupted output.
#[test]
fn resume_from_truncated_journal_matches_the_uninterrupted_run() {
    let w = workload(BackendKind::Gate);
    let dir = scratch("wal-resume");
    let config = ServeConfig {
        cap: 2,
        ..ServeConfig::default()
    };
    let spec = JobSpec {
        id: 11,
        workload: &w,
        shards: 3,
        faults: &[],
    };
    let mut journal = JobJournal::create(&dir, 11, &w, 3).expect("journal create");
    let path = journal.path().to_path_buf();
    let pool = spawn_service(&serve_exe(), &config);
    let (full, _stats) = run_job_with(&pool, &spec, Some(&mut journal), &mut |_| {})
        .expect("journaled job completes");
    assert!(full.bit_identical(&monolithic(&w)));

    // Truncate: header + first partial survive, plus a torn tail.
    let content = std::fs::read_to_string(&path).expect("journal readable");
    assert!(
        content.lines().count() >= 4,
        "header + 3 partials expected, got:\n{content}"
    );
    let mut prefix: String = content.lines().take(2).map(|l| format!("{l}\n")).collect();
    let torn = content.lines().nth(2).expect("third line");
    prefix.push_str(&torn[..torn.len() / 2]); // crash mid-append
    std::fs::write(&path, prefix).expect("truncate journal");

    let mut events = Vec::new();
    assert!(
        resume_job(&pool, &path, false, &mut |e| events.push(e)),
        "resume completes the job"
    );
    pool.shutdown();
    let Some(Event::Done {
        id,
        output: resumed,
        stats,
        bit_identical: None,
    }) = events.last()
    else {
        panic!("the resumed job must end in an unchecked done frame");
    };
    assert_eq!(*id, 11);
    assert_eq!(stats.replayed, 1, "exactly one intact partial replays");
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::Resumed { replayed: 1, .. })),
        "the replay must be announced on the event stream"
    );
    assert!(
        resumed.bit_identical(&full),
        "resumed output must be bit-identical to the uninterrupted run"
    );

    // The journal kept growing during the resume: a second load now
    // covers the whole sweep (idempotent replay — resuming twice is
    // safe).
    let replay = load_journal(&path).expect("post-resume journal parses");
    let mut merger = Merger::new(w.total());
    for r in replay.results {
        merger.insert(r).expect("disjoint or bit-identical");
    }
    assert!(merger.is_complete(), "post-resume journal covers the sweep");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A resume that fails after the journal header has been read names
/// the job: a WAL whose second partial repeats the first with one
/// payload digit flipped must end the real binary's `--resume` in a
/// `job_error` carrying the header's id 7, and exit 1.
#[test]
fn a_resume_that_fails_after_the_header_names_the_job() {
    let w = workload(BackendKind::Gate);
    let dir = scratch("wal-dup");
    let mut journal = JobJournal::create(&dir, 7, &w, 2).expect("journal create");
    journal
        .append(&run_shard(&w, Shard::partition(w.total(), 2)[0]))
        .expect("journal append");
    let path = journal.path().to_path_buf();
    drop(journal);
    let content = std::fs::read_to_string(&path).expect("journal readable");
    let first = content.lines().nth(1).expect("one partial");
    std::fs::write(&path, format!("{content}{}\n", corrupt_f64_payload(first))).unwrap();

    let out = Command::new(serve_exe())
        .arg("--resume")
        .arg(&path)
        .arg("--quiet")
        .output()
        .expect("resume run");
    assert_eq!(out.status.code(), Some(1), "a failed resume exits 1");
    let mut cursor = std::io::Cursor::new(&out.stdout[..]);
    let frame = read_frame(&mut cursor)
        .expect("one frame")
        .expect("the frame parses");
    assert_eq!(frame.field("type").unwrap().as_str().unwrap(), "job_error");
    assert_eq!(frame.field("id").unwrap().as_uint().unwrap(), 7);
    let reason = frame.field("reason").unwrap().as_str().unwrap();
    assert!(reason.contains("delivered twice"), "{reason}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A hostile journal ends `--resume` in a `job_error`, never a panic: a
/// header whose `shards` is `i64::MAX`, and a real two-shard WAL whose
/// first partial claims to be shard `i64::MAX - 1` of `i64::MAX`. Either
/// once made the resume number a fresh shard past `i64` and panic while
/// encoding its job.
#[test]
fn a_hostile_journal_ends_the_resume_in_a_job_error() {
    let w = workload(BackendKind::Gate);
    let dir = scratch("wal-hostile");
    let mut journal = JobJournal::create(&dir, 9, &w, 2).expect("journal create");
    for shard in Shard::partition(w.total(), 2) {
        journal
            .append(&run_shard(&w, shard))
            .expect("journal append");
    }
    let path = journal.path().to_path_buf();
    drop(journal);
    let content = std::fs::read_to_string(&path).expect("journal readable");
    let header = content.lines().next().expect("a header");
    let huge_header = header.replace("\"shards\":2", "\"shards\":9223372036854775807");
    let huge_index = content.replacen(
        "\"index\":0,\"of\":2",
        "\"index\":9223372036854775806,\"of\":9223372036854775807",
        1,
    );
    assert_ne!(huge_index, content, "the first partial names shard 0 of 2");
    for (name, text, reason) in [
        (
            "header",
            format!("{huge_header}\n"),
            "\"shards\" must be between 1 and",
        ),
        ("index", huge_index, "past the bound"),
    ] {
        let hostile = dir.join(format!("{name}.wal"));
        std::fs::write(&hostile, text).expect("journal written");
        let out = Command::new(serve_exe())
            .arg("--resume")
            .arg(&hostile)
            .arg("--quiet")
            .output()
            .expect("resume run");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{name}: a failed resume exits 1"
        );
        let mut cursor = std::io::Cursor::new(&out.stdout[..]);
        let frame = read_frame(&mut cursor)
            .expect("one frame")
            .expect("the frame parses");
        assert_eq!(frame.field("type").unwrap().as_str().unwrap(), "job_error");
        let got = frame.field("reason").unwrap().as_str().unwrap();
        assert!(got.contains(reason), "{name}: {got}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The chaos acceptance test, binary flavour: one job carrying a
/// panic, a 20 s stall (straggler), a clean worker death
/// (`die_after`), and a first-attempt crash — the serving process is
/// then SIGKILLed mid-run and the job completed by `--resume` from its
/// WAL, bit-identical to the monolithic reference.
#[test]
fn chaos_job_survives_a_service_sigkill_and_resumes_bit_identically() {
    let dir = scratch("wal-chaos");
    let request = SubmitRequest {
        id: 1,
        workload: workload(BackendKind::Gate),
        shards: 4,
        faults: vec![
            (0, Fault::Panic),
            (1, Fault::Stall(20_000)),
            (2, Fault::DieAfter(1)),
            (3, Fault::FailUntil(1)),
        ],
        check: false,
    };
    let mut child = Command::new(serve_exe())
        .args(["--cap", "2", "--retries", "6", "--backoff-ms", "10"])
        .args(["--straggler-ms", "1500", "--quarantine", "4", "--quiet"])
        .arg("--journal")
        .arg(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning mbqao-serve");
    let mut stdin = child.stdin.take().expect("stdin piped");
    write_frame(&mut stdin, &request.to_wire()).unwrap();
    // Keep stdin open: the service must die mid-job, not drain and exit.

    // Read events until two partials landed (each is journaled before
    // it is emitted), then SIGKILL the whole service mid-run.
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = std::io::BufReader::new(stdout);
    let mut partials = 0usize;
    let mut requeues = 0usize;
    while partials < 2 {
        let frame = read_frame(&mut reader)
            .expect("stream must not end before two partials")
            .expect("frames parse");
        match frame.field("type").unwrap().as_str().unwrap() {
            "partial" => partials += 1,
            "requeue" => requeues += 1,
            _ => {}
        }
    }
    assert!(
        requeues >= 1,
        "the injected crashes must be visible as requeues before the kill"
    );
    let _ = Command::new("kill")
        .args(["-9", &child.id().to_string()])
        .status();
    let _ = child.wait();
    drop(stdin);

    // Resume from the WAL the killed service left behind.
    let wal = dir.join("job-1.wal");
    let out = Command::new(serve_exe())
        .arg("--resume")
        .arg(&wal)
        .args(["--check", "--quiet", "--cap", "2"])
        .output()
        .expect("resume run");
    assert!(
        out.status.success(),
        "resume must complete the interrupted job: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let mut frames = Vec::new();
    let mut cursor = std::io::Cursor::new(&out.stdout[..]);
    while let Some(frame) = read_frame(&mut cursor) {
        frames.push(frame.expect("resume frames parse"));
    }
    let field = |v: &Value, k: &str| v.field(k).unwrap().as_uint().unwrap();
    let resumed = frames
        .iter()
        .find(|f| f.field("type").unwrap().as_str().unwrap() == "resumed")
        .expect("a resumed frame announces the replay");
    assert!(
        field(resumed, "replayed") >= 2,
        "both journaled partials must replay"
    );
    let done = frames
        .iter()
        .find(|f| f.field("type").unwrap().as_str().unwrap() == "done")
        .expect("the resumed job must finish");
    assert_eq!(field(done, "id"), 1);
    assert!(
        done.field("bit_identical").unwrap().as_bool().unwrap(),
        "resumed output must be bit-identical to the monolithic reference"
    );
    let stats = done.field("stats").unwrap();
    assert!(field(stats, "max_live") <= 2, "cap violated on resume");
    let _ = std::fs::remove_dir_all(&dir);
}
