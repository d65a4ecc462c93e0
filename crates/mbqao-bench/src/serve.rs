//! The always-on sweep orchestrator behind the `mbqao-serve` binary:
//! job specs arrive as newline-delimited wire frames, shards are
//! scheduled onto a **bounded** worker pool, merged partials stream
//! back as they land, and a retry policy (exponential backoff, plus
//! straggler kill + re-partition) turns transient worker failures into
//! completed jobs whose output is still **bit-identical** to the
//! monolithic run — the merge algebra of [`Merger`] is the contract
//! that makes every recovery action safe.
//!
//! Layering:
//!
//! * [`Scheduler`] is the whole job policy, a sans-IO state machine
//!   that a [`Service`]'s driver thread steps with the pool core.
//! * The thread that owns the service journals, checks and writes
//!   frames, so a slow disk or client never stalls the workers'
//!   supervision. [`serve`] feeds it request frames; [`run_job`],
//!   [`run_job_with`], [`resume_job`] and the batch driver
//!   [`crate::sweep::drive_subprocess_capped`] feed it one job.
//! * Every event is one wire frame on the response stream (and
//!   optionally one human-readable line on stderr) — per-shard
//!   latency, attempt counts, retry/re-partition decisions and cache
//!   traffic are all observable per job; [`JobStats`] summarizes them
//!   in the final [`Event::Done`].
//!
//! See `docs/SERVE.md` for the protocol reference.

use crate::scheduler::{Action, Input, JobResult, JournalOp, Scheduler};
use crate::sweep::{monolithic, Fault, Payload, SweepOutput, Workload, MAX_JOB_ITEMS};
#[cfg(doc)]
use mbqao_core::engine::shard::Merger;
use mbqao_core::engine::shard::{
    default_worker_cap, Jobs, PoolConfig, Provenance, RetryPolicy, Shard, ShardError, ShardResult,
    WorkerCommand, WorkerPool,
};
use mbqao_core::engine::wire::{read_frame, write_frame, Value, WireError};
use std::collections::HashMap;
use std::fs;
use std::io::{BufRead, Seek, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

// ---------------------------------------------------------------- config

/// Tuning knobs of the orchestrator.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum simultaneously live worker processes. The bound is
    /// global: every job on a connection shares the one worker pool.
    pub cap: usize,
    /// Per-shard retry policy (attempts + exponential backoff).
    pub retry: RetryPolicy,
    /// Per-shard wall-clock deadline: a worker exceeding it is killed
    /// and its range re-partitioned (halved) onto fresh workers.
    /// `None` disables straggler handling.
    pub straggler_deadline: Option<Duration>,
    /// Admission bound: submits beyond this many queued jobs are
    /// rejected immediately.
    pub max_queue: usize,
    /// Jobs driven concurrently by [`serve`], interleaving their
    /// shards over the shared worker pool. Each in-flight job keeps
    /// its own merger, journal, and retry state; `partial` / `requeue`
    /// / `done` frames interleave by job id. `1` restores strictly
    /// serial job execution.
    pub max_jobs: usize,
    /// Mirror every emitted event as a human-readable stderr line.
    pub log: bool,
    /// Poison-shard threshold: a shard is quarantined after this many
    /// attempts that killed their worker (or found none to spawn),
    /// instead of retried forever.
    pub quarantine_after: u32,
    /// What quarantine does to the job: `true` completes it with the
    /// poisoned range filled by [`crate::sweep::hole_payload`]
    /// placeholders (degraded partial coverage), `false` fails it with
    /// an error naming the shard.
    pub allow_partial: bool,
    /// Write a per-job crash-safe journal (`job-<id>.wal`) into this
    /// directory: a header frame plus one bit-exact `wal_partial`
    /// frame per landed shard. `mbqao-serve --resume <wal>` replays it
    /// and re-runs only the missing ranges.
    pub journal_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cap: default_worker_cap(),
            retry: RetryPolicy::new(3, Duration::from_millis(50)),
            straggler_deadline: None,
            max_queue: 16,
            max_jobs: 4,
            log: false,
            quarantine_after: 3,
            allow_partial: false,
            journal_dir: None,
        }
    }
}

/// Builds a plain persistent worker pool of `exe --worker` processes
/// (the pool extends the command with `--gen N --heartbeat-ms M`). The
/// serve cap and straggler deadline become the pool's cap and per-job
/// deadline.
pub fn spawn_pool(exe: &Path, config: &ServeConfig) -> WorkerPool {
    start(exe, config, mbqao_core::engine::shard::Raw)
}

/// A worker pool whose layer is the job [`Scheduler`].
pub type Service = WorkerPool<Scheduler>;

/// [`spawn_pool`] for a [`Service`] that runs one job at a time,
/// admitted whatever `config`'s queue bound.
pub fn spawn_service(exe: &Path, config: &ServeConfig) -> Service {
    let mut config = config.clone();
    config.max_queue = config.max_queue.max(1);
    start(exe, &config, Scheduler::new(&config))
}

/// Starts a pool of `exe --worker` processes under `jobs`.
fn start<J: Jobs>(exe: &Path, config: &ServeConfig, jobs: J) -> WorkerPool<J> {
    let pool = PoolConfig {
        cap: config.cap,
        job_deadline: config.straggler_deadline,
    };
    WorkerPool::with_jobs(WorkerCommand::new(exe, &["--worker"]), pool, jobs)
}

// ----------------------------------------------------------------- stats

/// Per-job observability counters, reported in [`Event::Done`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Non-empty shards the job was partitioned into.
    pub shards: usize,
    /// Shard executions that merged (sub-shards from re-partitions
    /// included — can exceed `shards`).
    pub completed: usize,
    /// Failed attempts that were retried (with backoff).
    pub retries: usize,
    /// Stragglers killed and split into two sub-shards.
    pub repartitions: usize,
    /// Worker processes spawned over the job's lifetime.
    pub spawned: usize,
    /// Maximum simultaneously live workers ever observed — never
    /// exceeds the configured cap.
    pub max_live: usize,
    /// Compiled-pattern cache hits summed over all worker provenances.
    pub cache_hits: usize,
    /// Compiled-pattern cache misses summed over all worker
    /// provenances.
    pub cache_misses: usize,
    /// Pool workers that died (crash, liveness kill, straggler kill)
    /// and were restarted by the supervisor during this job.
    pub worker_restarts: usize,
    /// Shards abandoned by poison-shard quarantine (partial coverage).
    pub quarantined: usize,
    /// Shards replayed from a crash-safe journal instead of re-run.
    pub replayed: usize,
    /// Per-merged-shard wall-clock latency, in completion order.
    pub shard_ms: Vec<u64>,
}

impl JobStats {
    fn latency_summary(&self) -> (u64, u64, u64) {
        if self.shard_ms.is_empty() {
            return (0, 0, 0);
        }
        let mut sorted = self.shard_ms.clone();
        sorted.sort_unstable();
        (
            sorted[0],
            sorted[sorted.len() / 2],
            sorted[sorted.len() - 1],
        )
    }

    /// Wire encoding (latencies summarized as min/median/max).
    pub fn to_wire(&self) -> Value {
        let (min, median, max) = self.latency_summary();
        Value::obj(vec![
            ("shards", Value::uint(self.shards)),
            ("completed", Value::uint(self.completed)),
            ("retries", Value::uint(self.retries)),
            ("repartitions", Value::uint(self.repartitions)),
            ("spawned", Value::uint(self.spawned)),
            ("max_live", Value::uint(self.max_live)),
            ("cache_hits", Value::uint(self.cache_hits)),
            ("cache_misses", Value::uint(self.cache_misses)),
            ("worker_restarts", Value::uint(self.worker_restarts)),
            ("quarantined", Value::uint(self.quarantined)),
            ("replayed", Value::uint(self.replayed)),
            (
                "latency_ms",
                Value::obj(vec![
                    ("min", Value::uint(min as usize)),
                    ("median", Value::uint(median as usize)),
                    ("max", Value::uint(max as usize)),
                ]),
            ),
        ])
    }
}

// ---------------------------------------------------------------- events

/// One frame on the response stream. Every scheduling decision that
/// affects a job is visible to its submitter.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The job was admitted and partitioned.
    Accepted {
        /// Job id (echoed from the submit frame).
        id: u64,
        /// Items in the sweep.
        total: usize,
        /// Non-empty shards scheduled.
        shards: usize,
    },
    /// A shard's partial result landed and merged (streamed in
    /// completion order, not index order).
    Partial {
        /// Job id.
        id: u64,
        /// The merged shard.
        shard: Shard,
        /// Worker-reported backend label.
        backend: String,
        /// Which attempt produced the result (0 = first try).
        attempt: u32,
        /// Wall-clock of the producing attempt, milliseconds.
        latency_ms: u64,
        /// Compiled-pattern cache hits in the producing worker.
        cache_hits: usize,
        /// Compiled-pattern cache misses in the producing worker.
        cache_misses: usize,
        /// Items covered by the merge so far.
        covered: usize,
        /// Items in the sweep.
        total: usize,
    },
    /// A failed or straggling shard was put back on the queue —
    /// retried with backoff, or split into two sub-shards.
    Requeue {
        /// Job id.
        id: u64,
        /// The affected index range.
        range: (usize, usize),
        /// The attempt number about to run (retry) or 0 (re-partition).
        attempt: u32,
        /// Backoff applied before the next attempt, milliseconds.
        backoff_ms: u64,
        /// `true` when the range was halved instead of retried whole.
        repartitioned: bool,
        /// The failure that triggered the requeue.
        reason: String,
    },
    /// A resumed job's journal was replayed; only the ranges listed
    /// missing will re-run.
    Resumed {
        /// Job id (from the journal header).
        id: u64,
        /// Shard partials replayed from the journal.
        replayed: usize,
        /// Items already covered by the replay.
        covered: usize,
        /// Items in the sweep.
        total: usize,
    },
    /// A poison shard was quarantined after killing repeated workers;
    /// with partial coverage allowed the job continues around the
    /// hole, otherwise it fails with this reason.
    Quarantined {
        /// Job id.
        id: u64,
        /// The abandoned index range.
        range: (usize, usize),
        /// The quarantine verdict (kill count + last stderr excerpt).
        reason: String,
    },
    /// The job completed; the merged output rides in the frame.
    Done {
        /// Job id.
        id: u64,
        /// The assembled sweep output (bit-exact on the wire).
        output: SweepOutput,
        /// Observability counters.
        stats: JobStats,
        /// When the submit asked for `check`: whether the output is
        /// bit-identical to an in-process monolithic run.
        bit_identical: Option<bool>,
    },
    /// The job failed permanently: retry budget exhausted, a
    /// quarantined shard, or the pool's circuit breaker open.
    JobError {
        /// Job id.
        id: u64,
        /// Failure description (names the shard).
        reason: String,
    },
    /// A request was refused (queue full, malformed frame).
    Rejected {
        /// Job id when the frame carried one.
        id: Option<u64>,
        /// Why it was refused.
        reason: String,
    },
    /// Liveness reply to a `ping` frame.
    Pong,
    /// The service is exiting (shutdown frame or input EOF), with the
    /// connection's counts.
    Bye(ServeStats),
}

impl Event {
    /// The terminal frame of job `id`: `done` with its output, stats
    /// and check verdict, or `job_error` naming the failure.
    pub fn finished(id: u64, result: JobResult, bit_identical: Option<bool>) -> Event {
        match result {
            Ok((output, stats)) => Event::Done {
                id,
                output,
                stats,
                bit_identical,
            },
            Err(e) => Event::JobError {
                id,
                reason: e.to_string(),
            },
        }
    }

    /// Wire encoding (one frame).
    pub fn to_wire(&self) -> Value {
        match self {
            Event::Accepted { id, total, shards } => Value::obj(vec![
                ("type", Value::Str("accepted".into())),
                ("id", Value::uint(*id as usize)),
                ("total", Value::uint(*total)),
                ("shards", Value::uint(*shards)),
            ]),
            Event::Partial {
                id,
                shard,
                backend,
                attempt,
                latency_ms,
                cache_hits,
                cache_misses,
                covered,
                total,
            } => Value::obj(vec![
                ("type", Value::Str("partial".into())),
                ("id", Value::uint(*id as usize)),
                ("shard", shard.to_wire()),
                ("backend", Value::Str(backend.clone())),
                ("attempt", Value::uint(*attempt as usize)),
                ("latency_ms", Value::uint(*latency_ms as usize)),
                ("cache_hits", Value::uint(*cache_hits)),
                ("cache_misses", Value::uint(*cache_misses)),
                ("covered", Value::uint(*covered)),
                ("total", Value::uint(*total)),
            ]),
            Event::Requeue {
                id,
                range,
                attempt,
                backoff_ms,
                repartitioned,
                reason,
            } => Value::obj(vec![
                ("type", Value::Str("requeue".into())),
                ("id", Value::uint(*id as usize)),
                ("start", Value::uint(range.0)),
                ("end", Value::uint(range.1)),
                ("attempt", Value::uint(*attempt as usize)),
                ("backoff_ms", Value::uint(*backoff_ms as usize)),
                ("repartitioned", Value::Bool(*repartitioned)),
                ("reason", Value::Str(reason.clone())),
            ]),
            Event::Resumed {
                id,
                replayed,
                covered,
                total,
            } => Value::obj(vec![
                ("type", Value::Str("resumed".into())),
                ("id", Value::uint(*id as usize)),
                ("replayed", Value::uint(*replayed)),
                ("covered", Value::uint(*covered)),
                ("total", Value::uint(*total)),
            ]),
            Event::Quarantined { id, range, reason } => Value::obj(vec![
                ("type", Value::Str("quarantined".into())),
                ("id", Value::uint(*id as usize)),
                ("start", Value::uint(range.0)),
                ("end", Value::uint(range.1)),
                ("reason", Value::Str(reason.clone())),
            ]),
            Event::Done {
                id,
                output,
                stats,
                bit_identical,
            } => {
                let mut entries = vec![
                    ("type", Value::Str("done".into())),
                    ("id", Value::uint(*id as usize)),
                ];
                if let Some(ok) = bit_identical {
                    entries.push(("bit_identical", Value::Bool(*ok)));
                }
                entries.push(("output", output.to_wire()));
                entries.push(("stats", stats.to_wire()));
                Value::obj(entries)
            }
            Event::JobError { id, reason } => Value::obj(vec![
                ("type", Value::Str("job_error".into())),
                ("id", Value::uint(*id as usize)),
                ("reason", Value::Str(reason.clone())),
            ]),
            Event::Rejected { id, reason } => {
                let mut entries = vec![("type", Value::Str("rejected".into()))];
                if let Some(id) = id {
                    entries.push(("id", Value::uint(*id as usize)));
                }
                entries.push(("reason", Value::Str(reason.clone())));
                Value::obj(entries)
            }
            Event::Pong => Value::obj(vec![("type", Value::Str("pong".into()))]),
            Event::Bye(stats) => Value::obj(vec![
                ("type", Value::Str("bye".into())),
                ("done", Value::uint(stats.done)),
                ("failed", Value::uint(stats.failed)),
                ("rejected", Value::uint(stats.rejected)),
            ]),
        }
    }

    /// Compact one-line rendering for the stderr event log.
    pub fn log_line(&self) -> String {
        match self {
            Event::Accepted { id, total, shards } => {
                format!("job {id}: accepted ({total} items, {shards} shards)")
            }
            Event::Partial {
                id,
                shard,
                attempt,
                latency_ms,
                covered,
                total,
                ..
            } => format!(
                "job {id}: shard {}..{} merged (attempt {attempt}, {latency_ms} ms) — {covered}/{total}",
                shard.start, shard.end
            ),
            Event::Requeue {
                id,
                range,
                attempt,
                backoff_ms,
                repartitioned,
                reason,
            } => format!(
                "job {id}: {} {}..{} (attempt {attempt}, backoff {backoff_ms} ms): {reason}",
                if *repartitioned {
                    "re-partitioning straggler"
                } else {
                    "retrying"
                },
                range.0,
                range.1
            ),
            Event::Resumed {
                id,
                replayed,
                covered,
                total,
            } => format!(
                "job {id}: resumed from journal ({replayed} shards replayed, {covered}/{total} covered)"
            ),
            Event::Quarantined { id, range, reason } => format!(
                "job {id}: shard {}..{} QUARANTINED: {reason}",
                range.0, range.1
            ),
            Event::Done { id, stats, .. } => format!(
                "job {id}: done ({} merges, {} retries, {} repartitions, max {} live workers)",
                stats.completed, stats.retries, stats.repartitions, stats.max_live
            ),
            Event::JobError { id, reason } => format!("job {id}: FAILED: {reason}"),
            Event::Rejected { id, reason } => match id {
                Some(id) => format!("job {id}: rejected: {reason}"),
                None => format!("request rejected: {reason}"),
            },
            Event::Pong => "pong".into(),
            Event::Bye(stats) => format!(
                "bye ({} done, {} failed, {} rejected)",
                stats.done, stats.failed, stats.rejected
            ),
        }
    }
}

// -------------------------------------------------------------- requests

/// A `submit` frame: one sweep job.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Client-chosen job id, echoed on every event for this job.
    pub id: u64,
    /// The sweep to run.
    pub workload: Workload,
    /// How many shards to partition into.
    pub shards: usize,
    /// Injected transient faults, `(shard_index, fault)` (tests).
    pub faults: Vec<(usize, Fault)>,
    /// Verify the merged output against an in-process monolithic run
    /// and report `bit_identical` in the `done` frame.
    pub check: bool,
}

impl SubmitRequest {
    /// Wire encoding (what a client sends).
    pub fn to_wire(&self) -> Value {
        let mut entries = vec![
            ("type", Value::Str("submit".into())),
            ("id", Value::uint(self.id as usize)),
            ("shards", Value::uint(self.shards)),
        ];
        if self.check {
            entries.push(("check", Value::Bool(true)));
        }
        if !self.faults.is_empty() {
            entries.push((
                "faults",
                Value::Arr(
                    self.faults
                        .iter()
                        .map(|(shard, fault)| {
                            Value::obj(vec![
                                ("shard", Value::uint(*shard)),
                                ("fault", Value::Str(fault.to_wire_str())),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        entries.push(("workload", self.workload.to_wire()));
        Value::obj(entries)
    }

    /// Wire decoding. `shards` defaults to 2, `check` to false,
    /// `faults` to none.
    pub fn from_wire(v: &Value) -> Result<SubmitRequest, WireError> {
        let id = v.field("id")?.as_uint()? as u64;
        let shards = match v.field("shards") {
            Err(_) => 2,
            Ok(s) => check_shards(s.as_uint()?)?,
        };
        let check = match v.field("check") {
            Err(_) => false,
            Ok(c) => c.as_bool()?,
        };
        let faults = match v.field("faults") {
            Err(_) => Vec::new(),
            Ok(list) => list
                .as_arr()?
                .iter()
                .map(|f| {
                    Ok((
                        f.field("shard")?.as_uint()?,
                        Fault::from_wire_str(f.field("fault")?.as_str()?)?,
                    ))
                })
                .collect::<Result<_, WireError>>()?,
        };
        Ok(SubmitRequest {
            id,
            workload: Workload::from_wire(v.field("workload")?)?,
            shards,
            faults,
            check,
        })
    }
}

/// Checks a partition width read from a submit or a journal header:
/// more shards than items are empty, and past the item cap even the
/// partition could not be built.
fn check_shards(shards: usize) -> Result<usize, WireError> {
    if shards == 0 || shards > MAX_JOB_ITEMS {
        return Err(WireError(format!(
            "\"shards\" must be between 1 and {MAX_JOB_ITEMS}, got {shards}"
        )));
    }
    Ok(shards)
}

/// One request frame.
#[derive(Debug)]
pub enum Request {
    /// Run a job.
    Submit(Box<SubmitRequest>),
    /// Answer with `pong`.
    Ping,
    /// Finish the admitted jobs, then say `bye`.
    Shutdown,
}

/// Decodes a request frame.
pub fn parse_request(v: &Value) -> Result<Request, WireError> {
    match v.field("type")?.as_str()? {
        "submit" => Ok(Request::Submit(Box::new(SubmitRequest::from_wire(v)?))),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(WireError(format!("unknown request type {other:?}"))),
    }
}

// ------------------------------------------------------------- journal

/// A per-job crash-safe write-ahead log: one `wal_job` header frame,
/// then one `wal_partial` frame per landed shard, each appended in the
/// **bit-exact** wire encoding (floats as IEEE-754 bit patterns) and
/// synced before the merge is acknowledged. Replaying any prefix
/// through the idempotent [`Merger`] and re-running the ranges it
/// reports missing reproduces the uninterrupted output bit for bit.
#[derive(Debug)]
pub struct JobJournal {
    path: PathBuf,
    file: fs::File,
}

impl JobJournal {
    /// Creates `dir/job-<id>.wal` (truncating any previous run of the
    /// same id) and writes the header frame.
    pub fn create(
        dir: &Path,
        id: u64,
        workload: &Workload,
        shards: usize,
    ) -> std::io::Result<JobJournal> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("job-{id}.wal"));
        let mut file = fs::File::create(&path)?;
        let header = Value::obj(vec![
            ("type", Value::Str("wal_job".into())),
            ("id", Value::uint(id as usize)),
            ("shards", Value::uint(shards)),
            ("workload", workload.to_wire()),
        ])
        .to_json();
        file.write_all(header.as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_data()?;
        Ok(JobJournal { path, file })
    }

    /// Re-opens an existing journal to append the partials a resumed
    /// run produces. Any torn tail (bytes after the last newline,
    /// from a crash mid-append) is truncated first so the file stays
    /// a clean frame-per-line log.
    pub fn open_append(path: &Path) -> std::io::Result<JobJournal> {
        let content = fs::read(path)?;
        let keep = content
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let mut file = fs::OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(keep as u64)?;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok(JobJournal {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Appends one landed shard result (synced before returning — the
    /// caller may acknowledge the merge once this succeeds).
    pub fn append(&mut self, result: &ShardResult<Payload>) -> std::io::Result<()> {
        let line = Value::obj(vec![
            ("type", Value::Str("wal_partial".into())),
            ("provenance", result.provenance.to_wire()),
            ("payload", result.payload.to_wire()),
        ])
        .to_json();
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.sync_data()
    }

    /// Where the journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// A loaded journal: the job header plus every intact replayed partial.
#[derive(Debug, Clone)]
pub struct JournalReplay {
    /// Job id from the header.
    pub id: u64,
    /// The sweep the job runs.
    pub workload: Workload,
    /// The original partition width (resume numbers fresh shards above
    /// it, like re-partitioning does).
    pub shards: usize,
    /// Replayed shard partials, in append order.
    pub results: Vec<ShardResult<Payload>>,
}

/// Bound on a replayed partial's shard count (`of`), far above real
/// journals (a split or resume adds a few indices per item), so the
/// fresh shards a resume numbers above it never overflow the wire.
const MAX_REPLAYED_SHARDS: usize = 1 << 32;

/// Parses a journal written by [`JobJournal`]. A torn **final** line
/// (crash mid-append) is tolerated — that shard simply re-runs; a
/// malformed line anywhere else is corruption and errors out.
pub fn load_journal(path: &Path) -> Result<JournalReplay, WireError> {
    read_journal(path).map_err(|(_, e)| e)
}

/// [`load_journal`], naming the job in its errors once the header has
/// been read.
fn read_journal(path: &Path) -> Result<JournalReplay, (Option<u64>, WireError)> {
    let content =
        fs::read_to_string(path).map_err(|e| (None, WireError(format!("reading journal: {e}"))))?;
    let lines: Vec<&str> = content
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let mut replay = journal_header(lines.first().copied()).map_err(|e| (None, e))?;
    for (i, line) in lines.iter().enumerate().skip(1) {
        let parsed = Value::parse(line).and_then(|v| {
            if v.field("type")?.as_str()? != "wal_partial" {
                return Err(WireError(format!(
                    "unexpected journal frame type {:?}",
                    v.field("type")?.as_str()?
                )));
            }
            let provenance = Provenance::from_wire(v.field("provenance")?)?;
            let of = provenance.shard.of;
            if of > MAX_REPLAYED_SHARDS {
                let e = format!("shard count {of} past the bound of {MAX_REPLAYED_SHARDS}");
                return Err(WireError(e));
            }
            Ok(ShardResult {
                provenance,
                payload: Payload::from_wire(v.field("payload")?)?,
            })
        });
        match parsed {
            Ok(result) => replay.results.push(result),
            // A torn tail is exactly what a crash mid-append leaves;
            // the un-journaled shard re-runs.
            Err(_) if i == lines.len() - 1 => break,
            Err(e) => {
                let e = WireError(format!("journal line {}: {e}", i + 1));
                return Err((Some(replay.id), e));
            }
        }
    }
    Ok(replay)
}

/// Decodes a journal's `wal_job` header line into an empty replay.
fn journal_header(line: Option<&str>) -> Result<JournalReplay, WireError> {
    let header =
        Value::parse(line.ok_or_else(|| WireError("empty journal (no wal_job header)".into()))?)?;
    if header.field("type")?.as_str()? != "wal_job" {
        return Err(WireError(
            "journal does not start with a wal_job header".into(),
        ));
    }
    Ok(JournalReplay {
        id: header.field("id")?.as_uint()? as u64,
        shards: check_shards(header.field("shards")?.as_uint()?)?,
        workload: Workload::from_wire(header.field("workload")?)?,
        results: Vec::new(),
    })
}

// --------------------------------------------------------------- drivers

/// Splits a straggler's range in half onto two fresh synthetic shard
/// indices. Requires `len >= 2` (a single item cannot be split).
pub(crate) fn split_shard(shard: Shard, next_index: &mut usize) -> [Shard; 2] {
    debug_assert!(shard.len() >= 2);
    let mid = shard.start + shard.len() / 2;
    let mut sub = |start: usize, end: usize| {
        let index = *next_index;
        *next_index += 1;
        Shard::synthetic(index, shard.total, start, end)
    };
    [sub(shard.start, mid), sub(mid, shard.end)]
}

/// One job's identity and work description (bundled so the execution
/// entry points stay small).
#[derive(Debug, Clone, Copy)]
pub struct JobSpec<'a> {
    /// Job id, echoed on every event.
    pub id: u64,
    /// The sweep to run.
    pub workload: &'a Workload,
    /// How many shards to partition into.
    pub shards: usize,
    /// Injected transient faults, `(shard_index, fault)`.
    pub faults: &'a [(usize, Fault)],
}

/// Where a driver journals its jobs.
enum Journals<'a> {
    /// One journal the caller opened (its header is written), or none.
    One(Option<&'a mut JobJournal>),
    /// A `job-<id>.wal` per job in this directory.
    Dir(&'a Path, HashMap<u64, JobJournal>),
}

impl Journals<'_> {
    /// Executes one [`JournalOp`] for job `id`.
    fn run(&mut self, id: u64, op: JournalOp) -> Result<(), String> {
        let done = match (self, op) {
            (Journals::Dir(dir, open), JournalOp::Create(workload, shards)) => {
                JobJournal::create(dir, id, &workload, shards).map(|j| {
                    open.insert(id, j);
                })
            }
            (Journals::Dir(_, open), JournalOp::Append(result)) => {
                open.get_mut(&id).map_or(Ok(()), |j| j.append(&result))
            }
            (Journals::One(Some(j)), JournalOp::Append(result)) => j.append(&result),
            (Journals::One(_), _) => Ok(()),
        };
        done.map_err(|e| e.to_string())
    }
}

/// The owner's loop over `service`'s actions until `report`, which gets
/// the frames and finished jobs, returns `true` or the driver ends;
/// journal operations run on `wal`.
fn own(service: &Service, wal: &mut Journals<'_>, report: &mut dyn FnMut(Action) -> bool) {
    std::thread::scope(|s| {
        while let Some(action) = service.recv() {
            match action {
                Action::Journal(id, op) => {
                    let _ = service.submit(Input::Journaled(id, wal.run(id, op)));
                }
                Action::Check(id, workload, output) => {
                    let send = service.sender();
                    s.spawn(move || {
                        let ok = output.bit_identical(&monolithic(&workload));
                        let _ = send(Input::Checked(id, ok));
                    });
                }
                action => {
                    if let (Action::Finish(id, ..), Journals::Dir(_, open)) = (&action, &mut *wal) {
                        open.remove(id);
                    }
                    if report(action) {
                        return;
                    }
                }
            }
        }
    });
}

/// Runs the one job `start` begins on `service` to its end: every frame
/// but the terminal one goes to `emit`, and the job's result and check
/// verdict come back.
fn run_one(
    service: &Service,
    journal: Option<&mut JobJournal>,
    start: Input,
    emit: &mut dyn FnMut(Event),
) -> (JobResult, Option<bool>) {
    let _ = service.submit(start);
    let mut end = None;
    own(service, &mut Journals::One(journal), &mut |action| {
        match action {
            Action::Emit(event) => emit(event),
            Action::Finish(_, result, bit_identical) => end = Some((result, bit_identical)),
            _ => {}
        }
        end.is_some()
    });
    end.expect("the service finishes every job it took")
}

/// Executes one job end to end with streaming merge, retry + backoff,
/// and straggler re-partition; emits an [`Event`] for every scheduling
/// decision. Runs on a private [`Service`] of `exe --worker`
/// processes. Returns the assembled output (bit-exact vs. the
/// monolithic run — the fault harness and the serve tests pin this)
/// plus the job's counters.
pub fn run_job(
    exe: &Path,
    id: u64,
    workload: &Workload,
    shards: usize,
    faults: &[(usize, Fault)],
    config: &ServeConfig,
    emit: &mut dyn FnMut(Event),
) -> Result<(SweepOutput, JobStats), ShardError> {
    let spec = JobSpec {
        id,
        workload,
        shards,
        faults,
    };
    run_job_with(&spawn_service(exe, config), &spec, None, emit)
}

/// [`run_job`] on a caller-owned [`Service`] — affinity routing then
/// keeps compiled-pattern caches warm **across** jobs — with its
/// configuration, and an optional crash-safe journal, already created,
/// that records every landed partial before it is merged.
pub fn run_job_with(
    service: &Service,
    spec: &JobSpec<'_>,
    journal: Option<&mut JobJournal>,
    emit: &mut dyn FnMut(Event),
) -> Result<(SweepOutput, JobStats), ShardError> {
    let request = SubmitRequest {
        id: spec.id,
        workload: spec.workload.clone(),
        shards: spec.shards,
        faults: spec.faults.to_vec(),
        check: false,
    };
    let start = Input::Request(Ok(Request::Submit(Box::new(request))));
    run_one(service, journal, start, emit).0
}

/// Resumes a crashed or interrupted job from its journal: replays
/// every intact partial through the idempotent [`Merger`], emits
/// [`Event::Resumed`], re-runs **only** the missing ranges (as fresh
/// synthetic shards, like re-partitioning), and keeps appending to the
/// same journal. The final output is bit-identical to the
/// uninterrupted run; `check` verifies that against the monolithic
/// run. Every frame goes to `emit`, the terminal `done` or `job_error`
/// included; a `job_error` names the job once the journal header has
/// been read (0 before). Returns whether the job completed.
pub fn resume_job(
    service: &Service,
    path: &Path,
    check: bool,
    emit: &mut dyn FnMut(Event),
) -> bool {
    let failed = |reason: String| Err(ShardError::Worker { shard: 0, reason });
    let (id, result, bit_identical) = match read_journal(path) {
        Err((id, e)) => {
            let reason = format!("loading journal {}: {e}", path.display());
            (id.unwrap_or(0), failed(reason), None)
        }
        Ok(replay) => match JobJournal::open_append(path) {
            Err(e) => {
                let reason = format!("re-opening journal {}: {e}", path.display());
                (replay.id, failed(reason), None)
            }
            Ok(mut journal) => {
                let (id, start) = (replay.id, Input::Resume(replay, check));
                let (result, bit_identical) = run_one(service, Some(&mut journal), start, emit);
                (id, result, bit_identical)
            }
        },
    };
    let mut event = Event::finished(id, result, bit_identical);
    if let Event::JobError { reason, .. } = &mut event {
        *reason = format!("resume: {reason}");
    }
    let completed = matches!(event, Event::Done { .. });
    emit(event);
    completed
}

// ------------------------------------------------------------ the server

/// Writes `event` as one frame, mirrored on stderr when `log` is set.
pub fn write_event(writer: &mut impl Write, log: bool, event: &Event) {
    if log {
        eprintln!("serve: {}", event.log_line());
    }
    // A vanished client is not an error the service can answer; keep
    // running (remaining events will fail the same way).
    let _ = write_frame(writer, &event.to_wire());
}

/// Connection counters returned by [`serve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Jobs completed.
    pub done: usize,
    /// Jobs permanently failed.
    pub failed: usize,
    /// Requests rejected by admission control or frame validation.
    pub rejected: usize,
}

/// The always-on orchestrator loop: newline-delimited request frames
/// in, event frames out, until a `shutdown` frame or input EOF (then
/// the queue is drained gracefully and a `bye` frame closes the
/// stream).
///
/// A reader thread sends each frame, as it arrives, to the
/// [`Scheduler`], which answers `ping`, admits or rejects a `submit` at
/// once and runs up to `max_jobs` jobs concurrently over one shared
/// pool. The calling thread journals, writes and runs each check on a
/// thread of its own, so a check never holds up another tenant.
pub fn serve<R, W>(mut reader: R, mut writer: W, exe: &Path, config: &ServeConfig) -> ServeStats
where
    R: BufRead + Send,
    W: Write,
{
    let mut journals = match &config.journal_dir {
        Some(dir) => Journals::Dir(dir, HashMap::new()),
        None => Journals::One(None),
    };
    // One persistent pool per connection: affinity routing keeps
    // compiled-pattern caches warm across jobs sharing a cache key. A
    // tripped pool is not respawned into the same systemic failure:
    // every later job fails naming the breaker.
    let service = start(exe, config, Scheduler::new(config));
    let send = service.sender();
    let mut stats = ServeStats::default();
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Some(frame) = read_frame(&mut reader) {
                let request = frame.and_then(|v| parse_request(&v));
                let shutdown = matches!(request, Ok(Request::Shutdown));
                if send(Input::Request(request)).is_err() || shutdown {
                    return;
                }
            }
            let _ = send(Input::Request(Ok(Request::Shutdown)));
        });
        own(&service, &mut journals, &mut |action| {
            let event = match action {
                Action::Emit(event) => event,
                Action::Finish(id, result, bit) => Event::finished(id, result, bit),
                _ => return false,
            };
            if let Event::Bye(counts) = event {
                stats = counts;
            }
            write_event(&mut writer, config.log, &event);
            false
        });
    });
    service.shutdown();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{BackendKind, FamilyRef};

    fn landscape(name: &str) -> Workload {
        Workload::Landscape {
            family: FamilyRef {
                seed: 7,
                name: name.into(),
            },
            backend: BackendKind::Gate,
            steps: 4,
            gamma: (0.0, 2.0),
            beta: (0.0, 2.0),
        }
    }

    fn submit(id: u64, name: &str) -> SubmitRequest {
        SubmitRequest {
            id,
            workload: landscape(name),
            shards: 2,
            faults: vec![],
            check: false,
        }
    }

    #[test]
    fn submit_requests_round_trip_the_wire() {
        let reqs = [
            submit(1, "square"),
            SubmitRequest {
                id: 9,
                workload: landscape("triangle"),
                shards: 5,
                faults: vec![(0, Fault::Panic), (3, Fault::Stall(120))],
                check: true,
            },
        ];
        for req in &reqs {
            let parsed = Value::parse(&req.to_wire().to_json()).unwrap();
            assert_eq!(&SubmitRequest::from_wire(&parsed).unwrap(), req);
        }
    }

    #[test]
    fn zero_shards_is_rejected_at_decode() {
        let mut req = submit(1, "square");
        req.shards = 1;
        let mut v = req.to_wire();
        if let Value::Obj(entries) = &mut v {
            for (k, val) in entries.iter_mut() {
                if k == "shards" {
                    *val = Value::Int(0);
                }
            }
        }
        assert!(SubmitRequest::from_wire(&v).is_err());
    }

    #[test]
    fn split_shard_halves_cover_exactly_with_fresh_indices() {
        let shard = Shard {
            index: 1,
            of: 3,
            total: 10,
            start: 3,
            end: 8,
        };
        let mut next_index = 3;
        let [a, b] = split_shard(shard, &mut next_index);
        assert_eq!((a.start, a.end), (3, 5));
        assert_eq!((b.start, b.end), (5, 8));
        assert_eq!((a.index, b.index), (3, 4));
        assert_eq!(next_index, 5);
        assert!(!a.is_empty() && !b.is_empty());
        // Synthetic sub-shards keep the provenance invariant the wire
        // decoder asserts: index < of.
        assert!(a.index < a.of && b.index < b.of);
    }

    #[test]
    fn stats_latency_summary_is_min_median_max() {
        let stats = JobStats {
            shard_ms: vec![40, 10, 99, 20, 30],
            ..JobStats::default()
        };
        assert_eq!(stats.latency_summary(), (10, 30, 99));
        assert_eq!(JobStats::default().latency_summary(), (0, 0, 0));
    }

    #[test]
    fn events_encode_their_type_tag() {
        let probes = [
            (
                Event::Accepted {
                    id: 1,
                    total: 16,
                    shards: 4,
                },
                "accepted",
            ),
            (Event::Pong, "pong"),
            (
                Event::Rejected {
                    id: None,
                    reason: "queue full".into(),
                },
                "rejected",
            ),
        ];
        for (event, tag) in &probes {
            let v = event.to_wire();
            assert_eq!(v.field("type").unwrap().as_str().unwrap(), *tag);
            // Every event frame must survive the wire as-is.
            assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
        }
    }
}
