//! End-to-end tests of the `mbqao-serve` orchestrator — the
//! acceptance harness for the service: a multi-shard job with a panic,
//! a truncation, and a straggler injected must retry/re-partition its
//! way to completion with the merged output **bit-identical** to the
//! monolithic run, while never exceeding the configured worker cap.
//! The stdio loop is driven both in-process (frames through memory
//! buffers) and as a real subprocess of the binary.

use mbqao_bench::serve::{run_job, serve, Event, ServeConfig, SubmitRequest};
use mbqao_bench::sweep::{monolithic, BackendKind, DisorderSpec, FamilyRef, Fault, Workload};
use mbqao_bench::tables::EquivalenceSpec;
use mbqao_core::engine::shard::RetryPolicy;
use mbqao_core::engine::wire::{read_frame, write_frame, Value};
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn serve_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_mbqao-serve"))
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

/// The acceptance criterion of the orchestrator: one job with a panic,
/// a truncated stream, AND a straggler injected across its shards must
/// complete — retries with backoff for the crashes, kill + re-partition
/// for the straggler — with the merged output bit-identical to
/// `monolithic()` and at most `cap` workers ever live.
#[test]
fn faulted_job_completes_bit_identically_under_the_worker_cap() {
    let w = workload();
    let cap = 2;
    let config = ServeConfig {
        cap,
        retry: RetryPolicy::new(4, Duration::from_millis(20)),
        straggler_deadline: Some(Duration::from_millis(2_000)),
        max_queue: 1,
        ..ServeConfig::default()
    };
    let faults = [
        (0, Fault::Panic),
        (1, Fault::Truncate),
        (2, Fault::Stall(20_000)),
    ];
    let mut events = Vec::new();
    let (output, stats) = run_job(&serve_exe(), 1, &w, 4, &faults, &config, &mut |e| {
        events.push(e)
    })
    .expect("the orchestrator must carry a faulted job to completion");

    assert!(
        output.bit_identical(&monolithic(&w)),
        "faulted + recovered output must match the monolithic run bit-for-bit"
    );
    assert!(
        stats.max_live <= cap,
        "at most {cap} workers may ever be live, saw {}",
        stats.max_live
    );
    assert!(stats.retries >= 2, "panic + truncate must both be retried");
    assert!(stats.repartitions >= 1, "the straggler must be split");
    assert_eq!(stats.shards, 4);
    assert!(
        stats.completed >= 5,
        "4 shards with one split into two halves, got {}",
        stats.completed
    );
    assert_eq!(stats.shard_ms.len(), stats.completed);

    // The event stream tells the whole story: accepted first, partials
    // with monotone coverage ending at the full sweep, and a requeue
    // for every recovery action.
    assert!(matches!(
        events.first(),
        Some(Event::Accepted { shards: 4, .. })
    ));
    let coverage: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            Event::Partial { covered, .. } => Some(*covered),
            _ => None,
        })
        .collect();
    assert!(coverage.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(coverage.last(), Some(&w.total()));
    assert!(events.iter().any(|e| matches!(
        e,
        Event::Requeue {
            repartitioned: true,
            ..
        }
    )));
    assert!(events.iter().any(|e| matches!(
        e,
        Event::Requeue {
            repartitioned: false,
            ..
        }
    )));
}

/// `Write` sink that survives being moved into `serve` — the test keeps
/// a handle to read the frames back.
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

/// Drives the full service loop in-process: ping, a checked submit, a
/// malformed frame, and shutdown — the response stream must carry pong,
/// accepted/partials/done (with `bit_identical: true`), one rejection,
/// and a final bye with matching counters.
#[test]
fn serve_loop_answers_a_checked_submit_over_frames() {
    let request = SubmitRequest {
        id: 42,
        workload: workload(),
        shards: 2,
        faults: vec![(1, Fault::Panic)],
        check: true,
    };
    let mut input = Vec::new();
    write_frame(
        &mut input,
        &Value::obj(vec![("type", Value::Str("ping".into()))]),
    )
    .unwrap();
    write_frame(&mut input, &request.to_wire()).unwrap();
    input.extend_from_slice(b"{\"type\":\"no-such-request\"}\n");
    write_frame(
        &mut input,
        &Value::obj(vec![("type", Value::Str("shutdown".into()))]),
    )
    .unwrap();

    let sink = SharedBuf::default();
    let config = ServeConfig {
        cap: 2,
        retry: RetryPolicy::new(3, Duration::from_millis(10)),
        max_queue: 4,
        ..ServeConfig::default()
    };
    let stats = serve(
        std::io::Cursor::new(input),
        sink.clone(),
        &serve_exe(),
        &config,
    );
    assert_eq!((stats.done, stats.failed, stats.rejected), (1, 0, 1));

    let frames = frames(&sink.0.lock().unwrap());
    let types: Vec<String> = frames
        .iter()
        .map(|f| f.field("type").unwrap().as_str().unwrap().to_string())
        .collect();
    assert!(types.contains(&"pong".into()));
    assert!(types.contains(&"accepted".into()));
    assert!(types.contains(&"partial".into()));
    assert!(types.contains(&"requeue".into()));
    assert!(types.contains(&"rejected".into()));
    assert_eq!(types.last(), Some(&"bye".to_string()));

    let done = frames
        .iter()
        .find(|f| f.field("type").unwrap().as_str().unwrap() == "done")
        .expect("the job must finish");
    assert_eq!(done.field("id").unwrap().as_uint().unwrap(), 42);
    assert!(
        done.field("bit_identical").unwrap().as_bool().unwrap(),
        "check mode must verify against the in-process monolithic run"
    );
    let stats_frame = done.field("stats").unwrap();
    assert_eq!(stats_frame.field("shards").unwrap().as_uint().unwrap(), 2);
    assert!(stats_frame.field("retries").unwrap().as_uint().unwrap() >= 1);
}

/// Admission control: with a zero-length queue every submit is rejected
/// immediately — the service must never buffer without bound.
#[test]
fn full_queue_rejects_submits_immediately() {
    let request = SubmitRequest {
        id: 9,
        workload: workload(),
        shards: 2,
        faults: vec![],
        check: false,
    };
    let mut input = Vec::new();
    write_frame(&mut input, &request.to_wire()).unwrap();
    write_frame(
        &mut input,
        &Value::obj(vec![("type", Value::Str("shutdown".into()))]),
    )
    .unwrap();

    let sink = SharedBuf::default();
    let config = ServeConfig {
        max_queue: 0,
        log: false,
        ..ServeConfig::default()
    };
    let stats = serve(
        std::io::Cursor::new(input),
        sink.clone(),
        &serve_exe(),
        &config,
    );
    assert_eq!((stats.done, stats.failed, stats.rejected), (0, 0, 1));
    let frames = frames(&sink.0.lock().unwrap());
    let rejected = frames
        .iter()
        .find(|f| f.field("type").unwrap().as_str().unwrap() == "rejected")
        .expect("the submit must be rejected");
    assert_eq!(rejected.field("id").unwrap().as_uint().unwrap(), 9);
    assert!(rejected
        .field("reason")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("queue full"));
}

/// The real binary end to end: frames over an OS pipe to a spawned
/// `mbqao-serve`, shutdown, and a bit-identical `done` frame back —
/// the same smoke CI runs.
#[test]
fn serve_binary_round_trips_a_job_over_stdio() {
    use std::process::{Command, Stdio};

    let request = SubmitRequest {
        id: 7,
        workload: workload(),
        shards: 2,
        faults: vec![],
        check: true,
    };
    let mut child = Command::new(serve_exe())
        .args(["--cap", "2", "--quiet"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning mbqao-serve");
    {
        let mut stdin = child.stdin.take().expect("stdin piped");
        write_frame(&mut stdin, &request.to_wire()).unwrap();
        write_frame(
            &mut stdin,
            &Value::obj(vec![("type", Value::Str("shutdown".into()))]),
        )
        .unwrap();
    }
    let out = child.wait_with_output().expect("service exits");
    assert!(out.status.success(), "service must exit cleanly");
    let frames = frames(&out.stdout);
    let done = frames
        .iter()
        .find(|f| f.field("type").unwrap().as_str().unwrap() == "done")
        .expect("the job must finish");
    assert_eq!(done.field("id").unwrap().as_uint().unwrap(), 7);
    assert!(done.field("bit_identical").unwrap().as_bool().unwrap());
    assert_eq!(
        frames
            .last()
            .unwrap()
            .field("type")
            .unwrap()
            .as_str()
            .unwrap(),
        "bye"
    );
}

/// Runs the real binary with `args`, feeding it `input` on stdin.
fn run_binary(args: &[&str], input: &[u8]) -> std::process::Output {
    use std::process::{Command, Stdio};

    let mut child = Command::new(serve_exe())
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning mbqao-serve");
    let mut stdin = child.stdin.take().expect("stdin piped");
    stdin.write_all(input).expect("writing requests");
    drop(stdin);
    child.wait_with_output().expect("service exits")
}

fn type_of(frame: &Value) -> &str {
    frame.field("type").unwrap().as_str().unwrap()
}

fn shutdown() -> Value {
    Value::obj(vec![("type", Value::Str("shutdown".into()))])
}

/// A frame nested far deeper than any the protocol writes must not
/// overflow the reader thread's stack, which would abort the service
/// and every tenant's jobs with it: it is `rejected` like any other
/// malformed frame, and the service keeps answering.
#[test]
fn a_too_deep_frame_is_rejected_and_the_service_keeps_answering() {
    let depth = 10_000;
    let mut input = ("[".repeat(depth) + &"]".repeat(depth) + "\n").into_bytes();
    write_frame(
        &mut input,
        &Value::obj(vec![("type", Value::Str("ping".into()))]),
    )
    .unwrap();
    write_frame(&mut input, &shutdown()).unwrap();
    let out = run_binary(&["--cap", "2", "--quiet"], &input);
    assert!(
        out.status.success(),
        "{}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let frames = frames(&out.stdout);
    let types: Vec<&str> = frames.iter().map(type_of).collect();
    assert_eq!(types, ["rejected", "pong", "bye"]);
}

/// Specs that cannot run are refused at decode. Admitted, an unknown
/// family or a disorder `n` below 2 kills a worker on every attempt
/// until the pool's breaker trips for every later job, and landscape
/// `steps` 0 (or a `steps`
/// whose square wraps), an item count past the per-job cap or a
/// partition that cannot be allocated panics or aborts the scheduler. Each bad submit
/// gets exactly one `rejected` naming its field, and a valid job after
/// them on the same connection runs on an untouched pool.
#[test]
fn unrunnable_specs_are_rejected_and_a_valid_job_after_them_runs_clean() {
    let landscape = workload();
    let grid = Workload::Grid {
        family: FamilyRef {
            seed: 7,
            name: "triangle".into(),
        },
        backend: BackendKind::Gate,
        p: 1,
        steps: 3,
        lo: vec![0.0; 2],
        hi: vec![1.0; 2],
    };
    let disorder = Workload::Disorder(DisorderSpec {
        n: 5,
        instances: 2,
        base_seed: 1,
        p: 1,
        grid_steps: 3,
        backend: BackendKind::Gate,
    });
    let equivalence = Workload::EquivalenceTable(EquivalenceSpec {
        max_n: 4,
        depths: vec![1],
        ..EquivalenceSpec::full()
    });
    let bad = [
        (&landscape, "family", Value::Str("nope".into())),
        (&landscape, "steps", Value::Int(0)),
        (&landscape, "steps", Value::Int(1)),
        (&landscape, "steps", Value::Int(1 << 32)),
        (&grid, "steps", Value::Int(1)),
        (&grid, "lo", Value::f64_array(&[0.0; 3])),
        (&grid, "hi", Value::f64_array(&[1.0])),
        (&disorder, "grid_steps", Value::Int(1)),
        (&disorder, "n", Value::Int(0)),
        (&disorder, "n", Value::Int(1)),
        // Past the per-job item cap: an equivalence table whose item
        // count exceeds `i64` (its `accepted` frame cannot encode it),
        // and 2^31 steps (every worker would allocate 2^31-point axes).
        (&equivalence, "qubos", Value::Int(i64::MAX)),
        (&landscape, "steps", Value::Int(1 << 31)),
        // A submit field, not a workload one: the partition itself.
        (&landscape, "shards", Value::Int(1 << 40)),
    ];
    let mut input = Vec::new();
    for (id, (w, key, value)) in (1..).zip(&bad) {
        let Value::Obj(mut fields) = w.to_wire() else {
            unreachable!("workloads encode as objects")
        };
        let mut submit = vec![
            ("type", Value::Str("submit".into())),
            ("id", Value::Int(id)),
        ];
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some(field) => field.1 = value.clone(),
            None => submit.push((*key, value.clone())),
        }
        submit.push(("workload", Value::Obj(fields)));
        let submit = Value::obj(submit);
        write_frame(&mut input, &submit).unwrap();
    }
    let valid = SubmitRequest {
        id: 100,
        workload: workload(),
        shards: 2,
        faults: vec![],
        check: true,
    };
    write_frame(&mut input, &valid.to_wire()).unwrap();
    write_frame(&mut input, &shutdown()).unwrap();
    let out = run_binary(&["--cap", "2", "--quiet"], &input);
    assert!(
        out.status.success(),
        "{}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );

    let frames = frames(&out.stdout);
    let rejected: Vec<&Value> = frames.iter().filter(|f| type_of(f) == "rejected").collect();
    assert_eq!(rejected.len(), bad.len(), "one rejection per bad submit");
    for (id, (frame, (_, key, _))) in (1..).zip(rejected.iter().zip(&bad)) {
        let reason = frame.field("reason").unwrap().as_str().unwrap();
        assert!(reason.contains(&format!("{key:?}")), "{key}: {reason}");
        let named = frame.field("id").and_then(Value::as_uint);
        assert_eq!(named.ok(), Some(id), "{key}: the rejection names its job");
    }
    let accepted: Vec<u64> = frames
        .iter()
        .filter(|f| type_of(f) == "accepted")
        .map(|f| f.field("id").unwrap().as_uint().unwrap() as u64)
        .collect();
    assert_eq!(accepted, [100]);
    let done = frames
        .iter()
        .find(|f| type_of(f) == "done")
        .expect("the valid job must finish");
    assert!(done.field("bit_identical").unwrap().as_bool().unwrap());
    let stats = done.field("stats").unwrap();
    assert_eq!(
        stats.field("worker_restarts").unwrap().as_uint().unwrap(),
        0
    );
}

/// The service runs on the calling thread, the request reader and the
/// pool's driver, plus three pipe pumps per live worker: at most 3
/// threads idle and 9 with two workers. Each read of `Threads:` in
/// `/proc/<pid>/status` follows a frame the service wrote once it was
/// in that state.
#[test]
fn the_service_runs_on_three_threads_plus_three_per_worker() {
    use std::process::{Command, Stdio};

    let mut child = Command::new(serve_exe())
        .args(["--cap", "2", "--quiet"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning mbqao-serve");
    let status = format!("/proc/{}/status", child.id());
    let threads = || -> usize {
        let status = std::fs::read_to_string(&status).expect("the service runs");
        let count = status.lines().find_map(|l| l.strip_prefix("Threads:"));
        count
            .and_then(|n| n.trim().parse().ok())
            .expect("a thread count")
    };
    let mut stdin = child.stdin.take().expect("stdin piped");
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut next = || {
        read_frame(&mut stdout)
            .expect("a frame")
            .expect("it parses")
    };
    let ping = Value::obj(vec![("type", Value::Str("ping".into()))]);
    write_frame(&mut stdin, &ping).unwrap();
    assert_eq!(type_of(&next()), "pong");
    let idle = threads();
    assert!(idle <= 3, "{idle} threads idle");

    let request = SubmitRequest {
        id: 1,
        workload: workload(),
        shards: 2,
        faults: vec![],
        check: false,
    };
    write_frame(&mut stdin, &request.to_wire()).unwrap();
    let done = std::iter::repeat_with(&mut next)
        .find(|f| type_of(f) == "done")
        .expect("the job finishes");
    let stats = done.field("stats").unwrap();
    let count = |key: &str| stats.field(key).unwrap().as_uint().unwrap();
    assert_eq!((count("spawned"), count("worker_restarts")), (2, 0));
    let busy = threads();
    assert!(busy <= 9, "{busy} threads with two live workers");

    write_frame(&mut stdin, &shutdown()).unwrap();
    drop(stdin);
    assert!(child.wait().expect("service exits").success());
}

/// The service CLI rejects what it does not know: the flag that used
/// to select one-shot workers (that lane is gone), a misspelt flag and
/// a malformed value must each exit 2 with a usage line, never be
/// silently ignored.
#[test]
fn serve_binary_rejects_unknown_flags_with_exit_code_2() {
    // Spelt in two parts so a search for leftovers of the removed lane
    // stays empty.
    let removed_flag = concat!("--no", "-pool");
    for args in [
        vec![removed_flag],
        vec!["--straggler-msx", "500"],
        vec!["--cap", "two"],
    ] {
        let out = run_binary(&args, b"");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not serve");
    }
}

/// A shard that kills every worker it touches trips the pool's circuit
/// breaker (more than 8 deaths in 30 s) long before its generous retry
/// and quarantine budgets run out. The job must then end in a
/// `job_error` naming the breaker — nothing re-forks workers on the
/// failing host — and so must a clean job admitted after it, both with
/// the pool core's one text. The WAL the first job leaves must
/// `--resume --check` to the bit-identical output.
#[test]
fn tripped_breaker_fails_the_job_and_its_wal_resumes_bit_identically() {
    let dir = std::env::temp_dir().join(format!("mbqao-breaker-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let request = SubmitRequest {
        id: 1,
        workload: workload(),
        shards: 3,
        faults: vec![(1, Fault::FailUntil(99))],
        check: true,
    };
    let clean = SubmitRequest {
        id: 2,
        faults: vec![],
        check: false,
        ..request.clone()
    };
    let mut input = Vec::new();
    write_frame(&mut input, &request.to_wire()).unwrap();
    write_frame(&mut input, &clean.to_wire()).unwrap();
    write_frame(
        &mut input,
        &Value::obj(vec![("type", Value::Str("shutdown".into()))]),
    )
    .unwrap();
    let args = "--cap 2 --max-jobs 1 --retries 20 --quarantine 20 --backoff-ms 1 --quiet --journal";
    let args: Vec<&str> = args.split(' ').chain(dir.to_str()).collect();
    let out = run_binary(&args, &input);
    assert_eq!(out.status.code(), Some(1), "a failed job exits 1");
    let served = frames(&out.stdout);
    let kind = |f: &Value| f.field("type").unwrap().as_str().unwrap().to_string();
    assert!(
        !served
            .iter()
            .any(|f| kind(f) == "quarantined" || kind(f) == "done"),
        "the breaker must end the job before quarantine or completion"
    );
    let error = served
        .iter()
        .find(|f| kind(f) == "job_error")
        .expect("the job must end in a job_error");
    assert_eq!(error.field("id").unwrap().as_uint().unwrap(), 1);
    let reasons: Vec<(u64, &str)> = served
        .iter()
        .filter(|f| kind(f) == "job_error")
        .map(|f| {
            let id = f.field("id").unwrap().as_uint().unwrap() as u64;
            (id, f.field("reason").unwrap().as_str().unwrap())
        })
        .collect();
    assert_eq!(reasons.iter().map(|r| r.0).collect::<Vec<_>>(), [1, 2]);
    for (id, reason) in reasons {
        assert!(
            reason.contains("worker pool circuit breaker open (> 8 worker deaths within 30s)"),
            "job {id} names the breaker: {reason}"
        );
    }
    let retries = served.iter().filter(|f| kind(f) == "requeue").count();
    assert!(
        (8..19).contains(&retries),
        "the breaker trips after 9 deaths, inside the 20-attempt budget: {retries} retries"
    );

    let wal = dir.join("job-1.wal");
    let args = [
        "--resume",
        wal.to_str().expect("utf-8 path"),
        "--check",
        "--quiet",
    ];
    let out = run_binary(&args, b"");
    assert!(out.status.success(), "resume must complete the job");
    let resumed = frames(&out.stdout);
    let done = resumed
        .iter()
        .find(|f| kind(f) == "done")
        .expect("the resumed job must finish");
    assert_eq!(done.field("id").unwrap().as_uint().unwrap(), 1);
    assert!(
        done.field("bit_identical").unwrap().as_bool().unwrap(),
        "the resumed output must be bit-identical to the monolithic run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
