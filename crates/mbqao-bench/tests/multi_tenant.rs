//! Multi-tenant scheduler acceptance tests over real processes: two
//! independent jobs interleaved over one persistent worker pool must
//! both complete bit-identically (even with faults and a worker
//! massacre in one), and duplicate job ids must be rejected before they
//! can clobber a live job's WAL. The scheduling policy itself is
//! checked under virtual time in `scheduler_sim.rs`.

use mbqao_bench::serve::{load_journal, serve, ServeConfig, SubmitRequest};
use mbqao_bench::sweep::{BackendKind, FamilyRef, Fault, Workload};
use mbqao_core::engine::shard::RetryPolicy;
use mbqao_core::engine::wire::{read_frame, write_frame, Value};
use std::io::{BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn serve_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_mbqao-serve"))
}

/// A small deterministic workload; distinct seeds give distinct jobs.
fn workload(seed: u64) -> Workload {
    Workload::Landscape {
        family: FamilyRef {
            seed,
            name: "square".into(),
        },
        backend: BackendKind::Gate,
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

/// `Write` sink that survives being moved into `serve`.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn frames(bytes: &[u8]) -> Vec<Value> {
    let mut reader = std::io::Cursor::new(bytes);
    let mut out = Vec::new();
    while let Some(frame) = read_frame(&mut reader) {
        out.push(frame.expect("every emitted frame must parse"));
    }
    out
}

fn frame_type(f: &Value) -> &str {
    f.field("type").unwrap().as_str().unwrap()
}

fn frame_id(f: &Value) -> u64 {
    f.field("id").unwrap().as_uint().unwrap() as u64
}

/// Admission must reject a `submit` reusing the id of a queued or
/// running job **before** any journal work happens: accepting it would
/// shadow the live job and `JobJournal::create` would truncate the
/// original's WAL mid-write. The original job's journal must survive
/// intact and complete.
#[test]
fn duplicate_job_id_is_rejected_and_the_original_wal_survives() {
    let dir = scratch("dup-id");
    let w = workload(7);
    let original = SubmitRequest {
        id: 5,
        workload: w.clone(),
        shards: 3,
        faults: vec![],
        check: true,
    };
    // Same id, different shape: were this accepted, it would truncate
    // job-5.wal and the replay below would see 2 shards, not 3.
    let impostor = SubmitRequest {
        id: 5,
        workload: workload(8),
        shards: 2,
        faults: vec![],
        check: false,
    };
    let mut input = Vec::new();
    write_frame(&mut input, &original.to_wire()).unwrap();
    write_frame(&mut input, &impostor.to_wire()).unwrap();
    write_frame(
        &mut input,
        &Value::obj(vec![("type", Value::Str("shutdown".into()))]),
    )
    .unwrap();

    let sink = SharedBuf::default();
    let config = ServeConfig {
        cap: 2,
        retry: RetryPolicy::new(3, Duration::from_millis(10)),
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let stats = serve(
        std::io::Cursor::new(input),
        sink.clone(),
        &serve_exe(),
        &config,
    );
    assert_eq!(
        (stats.done, stats.failed, stats.rejected),
        (1, 0, 1),
        "the original completes, the impostor is rejected"
    );

    let frames = frames(&sink.0.lock().unwrap());
    let rejected = frames
        .iter()
        .find(|f| frame_type(f) == "rejected")
        .expect("the duplicate submit must be rejected");
    assert_eq!(frame_id(rejected), 5);
    assert!(
        rejected
            .field("reason")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("already queued or running"),
        "rejection must name the duplicate-id cause"
    );
    // Exactly one accepted frame: the impostor never reached admission.
    assert_eq!(
        frames
            .iter()
            .filter(|f| frame_type(f) == "accepted")
            .count(),
        1
    );
    let done = frames
        .iter()
        .find(|f| frame_type(f) == "done")
        .expect("the original job must finish");
    assert!(done.field("bit_identical").unwrap().as_bool().unwrap());

    // The WAL on disk is still the ORIGINAL job's journal: 3-shard
    // header, original workload, full coverage.
    let replay = load_journal(&dir.join("job-5.wal")).expect("original WAL must parse");
    assert_eq!(replay.id, 5);
    assert_eq!(replay.shards, 3, "header must be the original 3-shard job");
    assert_eq!(replay.workload.cache_key(), w.cache_key());
    let covered: usize = replay
        .results
        .iter()
        .map(|r| r.provenance.shard.end - r.provenance.shard.start)
        .sum();
    assert_eq!(covered, w.total(), "journal must cover the whole sweep");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The multi-tenant chaos drill over the real binary: two jobs run
/// concurrently on one pool (`--max-jobs 2`), the slow one carries a
/// stall + a panic fault AND has the live pool workers SIGKILLed from
/// the outside mid-run. Both jobs must still complete bit-identically,
/// their `partial`/`done` frames interleaved by id (the clean fast job
/// finishes FIRST — impossible under serial FIFO), the worker cap is
/// never exceeded, and each job leaves a complete per-job WAL that
/// `--resume` replays to the same bits.
#[test]
fn two_concurrent_jobs_survive_faults_and_a_worker_massacre() {
    let dir = scratch("chaos-mt");
    std::fs::create_dir_all(&dir).unwrap();
    // Three first-attempt stalls: the massacre can kill at most the
    // two live workers, so at least one stall provably runs in full —
    // the slow job stays ≥600 ms behind the fast one no matter which
    // attempts die. A panic shard rides along for retry coverage.
    let slow = SubmitRequest {
        id: 1,
        workload: workload(7),
        shards: 4,
        faults: vec![
            (0, Fault::Stall(600)),
            (1, Fault::Stall(600)),
            (2, Fault::Stall(600)),
            (3, Fault::Panic),
        ],
        check: true,
    };
    let fast = SubmitRequest {
        id: 2,
        workload: workload(11),
        shards: 2,
        faults: vec![],
        check: true,
    };

    let mut child = Command::new(serve_exe())
        .args(["--cap", "2", "--max-jobs", "2", "--quiet", "--journal"])
        .arg(&dir)
        .args(["--retries", "5", "--backoff-ms", "20"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning mbqao-serve");
    let serve_pid = child.id();
    {
        let mut stdin = child.stdin.take().expect("stdin piped");
        write_frame(&mut stdin, &slow.to_wire()).unwrap();
        write_frame(&mut stdin, &fast.to_wire()).unwrap();
        write_frame(
            &mut stdin,
            &Value::obj(vec![("type", Value::Str("shutdown".into()))]),
        )
        .unwrap();
        // stdin drops here; the reader sees EOF after the shutdown.
    }

    // Stream frames as they arrive so the massacre strikes while the
    // slow job's stalled shard is provably in flight.
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut seen: Vec<Value> = Vec::new();
    let mut massacred = false;
    while let Some(frame) = read_frame(&mut stdout) {
        let frame = frame.expect("every frame must parse");
        let ty = frame_type(&frame).to_string();
        seen.push(frame);
        if ty == "partial" && !massacred {
            massacred = true;
            for pid in worker_pids_of(serve_pid) {
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            }
        }
        if ty == "bye" {
            break;
        }
    }
    assert!(massacred, "at least one partial must land pre-massacre");
    assert!(child.wait().expect("service exits").success());

    // Both jobs done, bit-identical, under the cap.
    for (id, w) in [(1u64, workload(7)), (2, workload(11))] {
        let done = seen
            .iter()
            .find(|f| frame_type(f) == "done" && frame_id(f) == id)
            .unwrap_or_else(|| panic!("job {id} must finish"));
        assert!(
            done.field("bit_identical").unwrap().as_bool().unwrap(),
            "job {id} must match its monolithic run bit-for-bit"
        );
        let stats = done.field("stats").unwrap();
        assert!(
            stats.field("max_live").unwrap().as_uint().unwrap() <= 2,
            "worker cap violated for job {id}"
        );
        // The per-job WAL is complete: replaying covers the sweep.
        let replay = load_journal(&dir.join(format!("job-{id}.wal")))
            .unwrap_or_else(|e| panic!("job {id} WAL must parse: {e}"));
        assert_eq!(replay.id, id);
        let covered: usize = replay
            .results
            .iter()
            .map(|r| r.provenance.shard.end - r.provenance.shard.start)
            .sum();
        assert_eq!(covered, w.total(), "job {id} WAL must cover its sweep");
    }

    // True interleaving: the clean fast job (submitted SECOND) finishes
    // before the faulted slow one — serial FIFO could never do this.
    let done_order: Vec<u64> = seen
        .iter()
        .filter(|f| frame_type(f) == "done")
        .map(frame_id)
        .collect();
    assert_eq!(
        done_order,
        vec![2, 1],
        "the fast tenant must overtake the stalled one"
    );
    let first_slow_done = seen
        .iter()
        .position(|f| frame_type(f) == "done" && frame_id(f) == 1)
        .unwrap();
    assert!(
        seen[..first_slow_done]
            .iter()
            .any(|f| frame_type(f) == "partial" && frame_id(f) == 2),
        "the fast job's partials must interleave before the slow job's done"
    );
    // The massacre was real: restarts are visible in somebody's stats.
    let restarts: usize = seen
        .iter()
        .filter(|f| frame_type(f) == "done")
        .map(|f| {
            f.field("stats")
                .unwrap()
                .field("worker_restarts")
                .unwrap()
                .as_uint()
                .unwrap()
        })
        .sum();
    assert!(restarts >= 1, "SIGKILLed workers must show up as restarts");

    // Per-job resume: each WAL independently replays to the same bits
    // through the real `--resume` path.
    for (id, w) in [(1u64, workload(7)), (2, workload(11))] {
        let out = Command::new(serve_exe())
            .args(["--resume"])
            .arg(dir.join(format!("job-{id}.wal")))
            .args(["--check", "--quiet"])
            .output()
            .expect("resume run");
        assert!(out.status.success(), "resume of job {id} must succeed");
        let done = frames(&out.stdout)
            .into_iter()
            .find(|f| frame_type(f) == "done")
            .unwrap_or_else(|| panic!("resume of job {id} must emit done"));
        assert_eq!(frame_id(&done), id);
        assert!(
            done.field("bit_identical").unwrap().as_bool().unwrap(),
            "job {id} resume must reproduce the monolithic bits"
        );
        assert!(
            done.field("stats")
                .unwrap()
                .field("replayed")
                .unwrap()
                .as_uint()
                .unwrap()
                >= 1,
            "resume must replay journaled shards, not re-run {}",
            w.cache_key()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pids of `--worker` children of the serve process, via /proc: the
/// test has no in-process pool handle for a subprocess service.
fn worker_pids_of(parent: u32) -> Vec<u32> {
    let mut pids = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return pids;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // Field 4 of /proc/pid/stat (after the parenthesised comm) is
        // the ppid.
        let Some(rest) = stat.rsplit(')').next() else {
            continue;
        };
        let ppid = rest
            .split_whitespace()
            .nth(1)
            .and_then(|p| p.parse::<u32>().ok());
        if ppid != Some(parent) {
            continue;
        }
        let cmdline = std::fs::read_to_string(format!("/proc/{pid}/cmdline")).unwrap_or_default();
        if cmdline.split('\0').any(|a| a == "--worker") {
            pids.push(pid);
        }
    }
    pids
}
