//! The always-on sweep orchestrator behind the `mbqao-serve` binary:
//! job specs arrive as newline-delimited wire frames, shards are
//! scheduled onto a **bounded** worker pool, merged partials stream
//! back as they land, and a retry policy (exponential backoff, plus
//! straggler kill + re-partition) turns transient worker failures into
//! completed jobs whose output is still **bit-identical** to the
//! monolithic run — the merge algebra of
//! [`mbqao_core::engine::shard::Merger`] is the contract that makes
//! every recovery action safe.
//!
//! Layering:
//!
//! * [`run_job`] executes one job end to end: partition → submit to a
//!   [`WorkerPool`] capped at `cap` live workers → merge **on readiness**
//!   (streaming a [`Event::Partial`] per landed shard) → retry failed
//!   shards with backoff ([`Event::Requeue`]) → kill and split shards
//!   that exceed the straggler deadline → assemble.
//! * [`serve`] is the long-running loop: a reader thread parses
//!   request frames and applies **admission control** (a bounded job
//!   queue; overload is an immediate [`Event::Rejected`], never
//!   unbounded memory), while the scheduler drains the queue with
//!   **cache-affinity**: among queued jobs it prefers one sharing the
//!   last job's [`Workload::cache_key`], keeping compiled-pattern
//!   caches hot across consecutive jobs.
//! * Every event is one wire frame on the response stream (and
//!   optionally one human-readable line on stderr) — per-shard
//!   latency, attempt counts, retry/re-partition decisions and cache
//!   traffic are all observable per job; [`JobStats`] summarizes them
//!   in the final [`Event::Done`].
//!
//! See `docs/SERVE.md` for the protocol reference.

use crate::sweep::{
    assemble, decode_worker_result, hole_payload, job_to_json_attempt, monolithic, Fault, Payload,
    SweepOutput, Workload,
};
use mbqao_core::engine::shard::{
    default_worker_cap, lock_unpoisoned, Merger, PoolConfig, PoolJob, PoolOutcome, PoolStats,
    Provenance, RetryPolicy, Shard, ShardError, ShardResult, WorkerCommand, WorkerPool,
    AFFINITY_STREAK_BOUND,
};
use mbqao_core::engine::wire::{read_frame, write_frame, Value, WireError};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fs;
use std::io::{BufRead, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
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
    /// Poison-shard threshold: a shard whose job kills this many
    /// successive pool workers is quarantined (dead-lettered) instead
    /// of retried forever.
    pub quarantine_after: u32,
    /// What quarantine does to the job: `true` completes it with the
    /// poisoned range filled by [`hole_payload`] placeholders (degraded
    /// partial coverage), `false` fails it with an error naming the
    /// shard.
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

/// The [`PoolConfig`] a [`ServeConfig`] implies: the serve cap and
/// straggler deadline map onto the pool's cap and per-job deadline,
/// `quarantine_after` passes through, supervision defaults otherwise.
pub fn pool_config(config: &ServeConfig) -> PoolConfig {
    PoolConfig {
        cap: config.cap,
        job_deadline: config.straggler_deadline,
        quarantine_after: config.quarantine_after,
        ..PoolConfig::default()
    }
}

/// Builds the persistent worker pool for a serve connection
/// (re-invokes `exe --worker`, which the pool extends with
/// `--gen N --heartbeat-ms M`).
pub fn spawn_pool(exe: &Path, config: &ServeConfig) -> WorkerPool {
    WorkerPool::new(WorkerCommand::new(exe, &["--worker"]), pool_config(config))
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
    /// A poison shard was dead-lettered after killing repeated
    /// workers; with partial coverage allowed the job continues around
    /// the hole, otherwise it fails with this reason.
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
    /// The service is exiting (shutdown frame or input EOF).
    Bye {
        /// Jobs completed over the connection.
        done: usize,
        /// Jobs permanently failed.
        failed: usize,
        /// Requests rejected.
        rejected: usize,
    },
}

impl Event {
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
            Event::Bye {
                done,
                failed,
                rejected,
            } => Value::obj(vec![
                ("type", Value::Str("bye".into())),
                ("done", Value::uint(*done)),
                ("failed", Value::uint(*failed)),
                ("rejected", Value::uint(*rejected)),
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
            Event::Bye {
                done,
                failed,
                rejected,
            } => format!("bye ({done} done, {failed} failed, {rejected} rejected)"),
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
            Ok(s) => s.as_uint()?,
        };
        if shards == 0 {
            return Err(WireError("shards must be >= 1".into()));
        }
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

enum Request {
    Submit(Box<SubmitRequest>),
    Ping,
    Shutdown,
}

fn parse_request(v: &Value) -> Result<Request, WireError> {
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

/// Parses a journal written by [`JobJournal`]. A torn **final** line
/// (crash mid-append) is tolerated — that shard simply re-runs; a
/// malformed line anywhere else is corruption and errors out.
pub fn load_journal(path: &Path) -> Result<JournalReplay, WireError> {
    let content =
        fs::read_to_string(path).map_err(|e| WireError(format!("reading journal: {e}")))?;
    let lines: Vec<&str> = content
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let header = lines
        .first()
        .ok_or_else(|| WireError("empty journal (no wal_job header)".into()))
        .and_then(|l| Value::parse(l))?;
    if header.field("type")?.as_str()? != "wal_job" {
        return Err(WireError(
            "journal does not start with a wal_job header".into(),
        ));
    }
    let mut replay = JournalReplay {
        id: header.field("id")?.as_uint()? as u64,
        shards: header.field("shards")?.as_uint()?,
        workload: Workload::from_wire(header.field("workload")?)?,
        results: Vec::new(),
    };
    for (i, line) in lines.iter().enumerate().skip(1) {
        let parsed = Value::parse(line).and_then(|v| {
            if v.field("type")?.as_str()? != "wal_partial" {
                return Err(WireError(format!(
                    "unexpected journal frame type {:?}",
                    v.field("type")?.as_str()?
                )));
            }
            Ok(ShardResult {
                provenance: Provenance::from_wire(v.field("provenance")?)?,
                payload: Payload::from_wire(v.field("payload")?)?,
            })
        });
        match parsed {
            Ok(result) => replay.results.push(result),
            // A torn tail is exactly what a crash mid-append leaves;
            // the un-journaled shard re-runs.
            Err(_) if i == lines.len() - 1 => break,
            Err(e) => return Err(WireError(format!("journal line {}: {e}", i + 1))),
        }
    }
    Ok(replay)
}

// ----------------------------------------------------------- job engine

/// A submission in flight on the pool (possibly one of several
/// attempts for its range).
struct InFlight {
    shard: Shard,
    attempt: u32,
    fault: Option<Fault>,
}

/// Splits a straggler's range in half onto two fresh synthetic shard
/// indices. Requires `len >= 2` (a single item cannot be split).
fn split_shard(shard: Shard, next_index: &mut usize) -> [Shard; 2] {
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

/// How long the serve loop waits for a verdict before it re-checks
/// admission, so a fresh submit is picked up within one interval.
const RECV_POLL: Duration = Duration::from_millis(5);

/// Pool shard-index namespace stride. Concurrent jobs both have a
/// shard 0; without an offset their kill counts would alias in the
/// pool's per-shard quarantine ledger and one tenant's poison shard
/// could dead-letter another's. The serve driver offsets each job's
/// indices by a distinct multiple of this stride; the single-job entry
/// points use namespace 0, passing indices through unchanged.
const JOB_NS_STRIDE: usize = 1 << 20;

/// Routes shard attempts from any number of concurrent jobs onto the
/// shared [`WorkerPool`] and demuxes outcomes back to their jobs by
/// tag. Tags are unique for the dispatcher's whole lifetime, so a
/// failed job's late outcomes can never be mistaken for a later job's
/// (the per-job tag counter of the old single-job engine made exactly
/// that collision possible).
struct Dispatcher<'a> {
    pool: &'a WorkerPool,
    /// Tag → (job id, attempt bookkeeping).
    inflight: HashMap<u64, (u64, InFlight)>,
    next_tag: u64,
}

impl<'a> Dispatcher<'a> {
    fn new(pool: &'a WorkerPool) -> Dispatcher<'a> {
        Dispatcher {
            pool,
            inflight: HashMap::new(),
            next_tag: 0,
        }
    }

    /// Submissions not yet resolved, across all jobs.
    fn live(&self) -> usize {
        self.inflight.len()
    }

    /// Hands one attempt to the pool. A pool that refuses it has
    /// tripped its circuit breaker: the job fails with a reason naming
    /// the breaker.
    fn submit(
        &mut self,
        job: &mut JobRun,
        shard: Shard,
        attempt: u32,
        fault: Option<Fault>,
        delay: Duration,
    ) {
        let tag = self.next_tag;
        self.next_tag += 1;
        let submitted = self.pool.submit(PoolJob {
            tag,
            shard_index: job.ns * JOB_NS_STRIDE + shard.index,
            input: job_to_json_attempt(&job.workload, shard, fault, attempt),
            cache_key: job.cache_key.clone(),
            delay,
        });
        if submitted.is_err() {
            job.fail(ShardError::Worker {
                shard: shard.index,
                reason: "worker pool circuit breaker open; the pool takes no further jobs".into(),
            });
            return;
        }
        let flight = InFlight {
            shard,
            attempt,
            fault,
        };
        self.inflight.insert(tag, (job.id, flight));
        job.inflight += 1;
    }

    fn demux(&mut self, outcome: PoolOutcome) -> (u64, InFlight, PoolOutcome) {
        let (job, flight) = self
            .inflight
            .remove(&outcome.tag)
            .expect("every outcome matches a submission");
        (job, flight, outcome)
    }

    /// Next outcome, blocking. `None` means the pool's supervisor died
    /// with jobs in flight — unrecoverable.
    fn recv(&mut self) -> Option<(u64, InFlight, PoolOutcome)> {
        let outcome = self.pool.recv()?;
        Some(self.demux(outcome))
    }

    /// Bounded wait for the next outcome: `None` on timeout. The
    /// multi-job driver interleaves admission checks between waits, so
    /// a fresh submit is picked up within one poll interval.
    fn poll(&mut self, timeout: Duration) -> Option<(u64, InFlight, PoolOutcome)> {
        let outcome = self.pool.recv_timeout(timeout)?;
        Some(self.demux(outcome))
    }
}

/// One in-flight job's complete state: its own [`Merger`], stats,
/// retry/straggler bookkeeping, and the queue of shard attempts not
/// yet handed to the dispatcher. The multi-tenant driver keeps up to
/// `max_jobs` of these live at once over one [`Dispatcher`]; the merge
/// algebra is strictly per-job, so interleaving cannot change any
/// job's output.
struct JobRun {
    id: u64,
    /// Pool shard-index namespace (0 for the single-job entry points).
    ns: usize,
    workload: Workload,
    cache_key: String,
    total: usize,
    merger: Merger<Payload>,
    stats: JobStats,
    next_index: usize,
    abandoned: Vec<Shard>,
    /// Shard attempts awaiting dispatch: `(shard, attempt, fault,
    /// backoff delay)`.
    ready: VecDeque<(Shard, u32, Option<Fault>, Duration)>,
    /// This job's submissions currently in flight.
    inflight: usize,
    /// Pool counters at job start, for per-job deltas at the end.
    pool_base: PoolStats,
    /// Set once the job permanently failed; its remaining in-flight
    /// verdicts are drained and discarded before the error surfaces.
    failed: Option<ShardError>,
}

impl JobRun {
    fn new(
        id: u64,
        ns: usize,
        workload: Workload,
        merger: Merger<Payload>,
        next_index: usize,
        stats: JobStats,
        pool: &WorkerPool,
    ) -> JobRun {
        JobRun {
            id,
            ns,
            cache_key: workload.cache_key(),
            total: workload.total(),
            workload,
            merger,
            stats,
            next_index,
            abandoned: Vec::new(),
            ready: VecDeque::new(),
            inflight: 0,
            pool_base: pool.stats(),
            failed: None,
        }
    }

    /// Nothing in flight and nothing left to dispatch: the job is done
    /// (successfully or not) and can be reaped via [`JobRun::into_result`].
    fn settled(&self) -> bool {
        self.inflight == 0 && self.ready.is_empty()
    }

    fn fail(&mut self, e: ShardError) {
        self.ready.clear();
        if self.failed.is_none() {
            self.failed = Some(e);
        }
    }

    /// Applies one pool outcome for this job: merge (WAL-first), retry
    /// with backoff, straggler split, quarantine, or failure on an
    /// open circuit breaker. Requeued attempts land in `ready`; the
    /// scheduling loop decides when to dispatch them.
    fn on_verdict(
        &mut self,
        config: &ServeConfig,
        flight: InFlight,
        outcome: PoolOutcome,
        journal: Option<&mut JobJournal>,
        emit: &mut dyn FnMut(Event),
    ) {
        self.inflight -= 1;
        if self.failed.is_some() {
            // Already failed: late verdicts drain into the void.
            return;
        }
        let id = self.id;
        let decoded = outcome
            .result
            .and_then(|body| decode_worker_result(flight.shard.index, &body));
        match decoded {
            Ok(result) => {
                // WAL first: the merge is only acknowledged once the
                // partial is durably journaled, so a crash after this
                // point is recoverable bit-exactly.
                if let Some(j) = journal {
                    if let Err(e) = j.append(&result) {
                        self.fail(ShardError::Worker {
                            shard: flight.shard.index,
                            reason: format!("journal append failed: {e}"),
                        });
                        return;
                    }
                }
                let provenance = result.provenance.clone();
                if let Err(e) = self.merger.insert(result) {
                    self.fail(e);
                    return;
                }
                self.stats.completed += 1;
                self.stats.cache_hits += provenance.cache_hits;
                self.stats.cache_misses += provenance.cache_misses;
                let latency_ms = outcome.elapsed.as_millis() as u64;
                self.stats.shard_ms.push(latency_ms);
                let covered = self.total
                    - self
                        .merger
                        .missing()
                        .iter()
                        .map(|(s, e)| e - s)
                        .sum::<usize>();
                emit(Event::Partial {
                    id,
                    shard: flight.shard,
                    backend: provenance.backend,
                    attempt: flight.attempt,
                    latency_ms,
                    cache_hits: provenance.cache_hits,
                    cache_misses: provenance.cache_misses,
                    covered,
                    total: self.total,
                });
            }
            // The pool's restart-rate breaker opened: the host is
            // failing systemically, so the job ends here with the
            // breaker named (its WAL, if any, stays resumable).
            Err(e) if outcome.circuit_open => self.fail(e),
            Err(e) if outcome.quarantined => {
                self.stats.quarantined += 1;
                emit(Event::Quarantined {
                    id,
                    range: (flight.shard.start, flight.shard.end),
                    reason: e.to_string(),
                });
                if config.allow_partial {
                    self.abandoned.push(flight.shard);
                } else {
                    self.fail(e);
                }
            }
            Err(e) if outcome.timed_out && flight.shard.len() >= 2 => {
                // Straggler: its worker is already killed; halve the
                // range onto fresh workers. Sub-shards run clean (the
                // injected-fault map keys on original indices only) and
                // merge into the exact same output — ranges are
                // disjoint and the fold is canonical-order.
                self.stats.repartitions += 1;
                emit(Event::Requeue {
                    id,
                    range: (flight.shard.start, flight.shard.end),
                    attempt: 0,
                    backoff_ms: 0,
                    repartitioned: true,
                    reason: e.to_string(),
                });
                for sub in split_shard(flight.shard, &mut self.next_index) {
                    self.ready.push_back((sub, 0, None, Duration::ZERO));
                }
            }
            Err(e) => {
                let attempt = flight.attempt + 1;
                if attempt >= config.retry.max_attempts {
                    self.fail(e);
                    return;
                }
                self.stats.retries += 1;
                let backoff = config.retry.backoff(attempt);
                emit(Event::Requeue {
                    id,
                    range: (flight.shard.start, flight.shard.end),
                    attempt,
                    backoff_ms: backoff.as_millis() as u64,
                    repartitioned: false,
                    reason: e.to_string(),
                });
                self.ready
                    .push_back((flight.shard, attempt, flight.fault, backoff));
            }
        }
    }

    /// Consumes the settled job: folds the pool's per-job counter
    /// deltas, fills quarantined ranges with [`hole_payload`]
    /// placeholders (`allow_partial`), and assembles the output.
    fn into_result(mut self, pool: &WorkerPool) -> Result<(SweepOutput, JobStats), ShardError> {
        let (now, base) = (pool.stats(), self.pool_base);
        self.stats.spawned += now.spawned.saturating_sub(base.spawned);
        self.stats.worker_restarts += now.restarts.saturating_sub(base.restarts);
        self.stats.max_live = self.stats.max_live.max(now.max_live);
        if let Some(e) = self.failed {
            return Err(e);
        }
        // Quarantined ranges (allow_partial) fill with placeholder
        // payloads so the output keeps its shape; the holes are
        // NaN-valued and the stats carry the quarantine count.
        for shard in std::mem::take(&mut self.abandoned) {
            self.merger.insert(ShardResult {
                provenance: Provenance {
                    shard,
                    backend: "quarantined".into(),
                    cache_hits: 0,
                    cache_misses: 0,
                },
                payload: hole_payload(&self.workload, shard),
            })?;
        }
        let output = assemble(&self.workload, self.merger.finish()?);
        Ok((output, self.stats))
    }
}

/// Executes one job end to end with streaming merge, retry + backoff,
/// and straggler re-partition; emits an [`Event`] for every scheduling
/// decision. Runs on a private one-job [`WorkerPool`] of
/// `exe --worker` processes. Returns the assembled output (bit-exact
/// vs. the monolithic run — the fault harness and the serve tests pin
/// this) plus the job's counters.
pub fn run_job(
    exe: &Path,
    id: u64,
    workload: &Workload,
    shards: usize,
    faults: &[(usize, Fault)],
    config: &ServeConfig,
    emit: &mut dyn FnMut(Event),
) -> Result<(SweepOutput, JobStats), ShardError> {
    let pool = spawn_pool(exe, config);
    let spec = JobSpec {
        id,
        workload,
        shards,
        faults,
    };
    let result = run_job_with(&pool, &spec, config, None, emit);
    pool.shutdown();
    result
}

/// [`run_job`] against a caller-owned (typically connection-scoped)
/// [`WorkerPool`] — affinity routing then keeps compiled-pattern
/// caches warm **across** jobs — and an optional crash-safe journal
/// that records every landed partial before it is acknowledged.
pub fn run_job_with(
    pool: &WorkerPool,
    spec: &JobSpec<'_>,
    config: &ServeConfig,
    journal: Option<&mut JobJournal>,
    emit: &mut dyn FnMut(Event),
) -> Result<(SweepOutput, JobStats), ShardError> {
    let total = spec.workload.total();
    let parts: Vec<Shard> = Shard::partition(total, spec.shards)
        .into_iter()
        .filter(|s| !s.is_empty())
        .collect();
    let stats = JobStats {
        shards: parts.len(),
        ..JobStats::default()
    };
    emit(Event::Accepted {
        id: spec.id,
        total,
        shards: parts.len(),
    });
    let work: Vec<(Shard, Option<Fault>)> = parts
        .iter()
        .map(|part| {
            let fault = spec
                .faults
                .iter()
                .find(|(i, _)| *i == part.index)
                .map(|(_, f)| *f);
            (*part, fault)
        })
        .collect();
    // Synthetic indices for re-partitioned sub-shards start above the
    // original partition so error messages stay unambiguous.
    run_shards(
        pool,
        config,
        spec.id,
        spec.workload,
        work,
        Merger::new(total),
        spec.shards,
        stats,
        journal,
        emit,
    )
}

/// Resumes a crashed or interrupted job from its journal: replays
/// every intact partial through the idempotent [`Merger`], emits
/// [`Event::Resumed`], re-runs **only** the missing ranges (as fresh
/// synthetic shards, like re-partitioning), and keeps appending to the
/// same journal. The final output is bit-identical to the
/// uninterrupted run. Returns `(id, workload, output, stats)` — the
/// workload so the caller can run a `--check` against the monolithic
/// reference.
pub fn resume_job(
    pool: &WorkerPool,
    path: &Path,
    config: &ServeConfig,
    emit: &mut dyn FnMut(Event),
) -> Result<(u64, Workload, SweepOutput, JobStats), ShardError> {
    let JournalReplay {
        id,
        workload,
        shards,
        results,
    } = load_journal(path).map_err(|e| ShardError::Worker {
        shard: 0,
        reason: format!("loading journal {}: {e}", path.display()),
    })?;
    let total = workload.total();
    let mut merger = Merger::new(total);
    let stats = JobStats {
        shards,
        replayed: results.len(),
        ..JobStats::default()
    };
    let mut next_index = shards;
    for result in results {
        next_index = next_index.max(result.provenance.shard.index + 1);
        merger.insert(result)?;
    }
    let covered = total - merger.missing().iter().map(|(s, e)| e - s).sum::<usize>();
    emit(Event::Resumed {
        id,
        replayed: stats.replayed,
        covered,
        total,
    });
    // Missing ranges re-run as fresh synthetic shards with no faults:
    // injected faults are keyed on original indices, and a resume must
    // converge rather than re-trip the same failure. `Shard::synthetic`
    // keeps the `index < of` provenance invariant that the wire decoder
    // asserts (re-runs used to claim "shard 7 of 4").
    let work: Vec<(Shard, Option<Fault>)> = merger
        .missing()
        .into_iter()
        .map(|(start, end)| {
            let index = next_index;
            next_index += 1;
            (Shard::synthetic(index, total, start, end), None)
        })
        .collect();
    let mut journal = JobJournal::open_append(path).map_err(|e| ShardError::Worker {
        shard: 0,
        reason: format!("re-opening journal {}: {e}", path.display()),
    })?;
    let (output, stats) = run_shards(
        pool,
        config,
        id,
        &workload,
        work,
        merger,
        next_index,
        stats,
        Some(&mut journal),
        emit,
    )?;
    Ok((id, workload, output, stats))
}

/// The single-job execution core: drives `work` to completion on the
/// pool via a private [`Dispatcher`] and one [`JobRun`], streaming
/// merges (journaling each landed partial first), retrying with
/// backoff, re-partitioning stragglers, failing on a tripped breaker,
/// and turning quarantined shards into [`hole_payload`] placeholders
/// (`allow_partial`) or a named failure.
/// A permanently failed job drains its remaining in-flight verdicts
/// before the error surfaces, so no stale outcome can leak into a
/// later job on the same pool.
#[allow(clippy::too_many_arguments)]
fn run_shards(
    pool: &WorkerPool,
    config: &ServeConfig,
    id: u64,
    workload: &Workload,
    work: Vec<(Shard, Option<Fault>)>,
    merger: Merger<Payload>,
    next_index: usize,
    stats: JobStats,
    mut journal: Option<&mut JobJournal>,
    emit: &mut dyn FnMut(Event),
) -> Result<(SweepOutput, JobStats), ShardError> {
    let mut d = Dispatcher::new(pool);
    let mut job = JobRun::new(id, 0, workload.clone(), merger, next_index, stats, pool);
    for (shard, fault) in work {
        job.ready.push_back((shard, 0, fault, Duration::ZERO));
    }
    loop {
        while let Some((shard, attempt, fault, delay)) = job.ready.pop_front() {
            d.submit(&mut job, shard, attempt, fault, delay);
        }
        if job.inflight == 0 {
            break;
        }
        let Some((_, flight, outcome)) = d.recv() else {
            job.fail(ShardError::Worker {
                shard: 0,
                reason: "worker scheduler terminated with jobs in flight".into(),
            });
            // The pool's supervisor is dead: nothing further arrives.
            job.inflight = 0;
            break;
        };
        job.on_verdict(config, flight, outcome, journal.as_deref_mut(), emit);
    }
    job.into_result(pool)
}

// ------------------------------------------------------------ the server

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

/// Picks the next job to admit: cache-affinity first (a queued job
/// sharing `last_key` keeps the compiled-pattern caches hot), else
/// FIFO. Affinity is **bounded**: after [`AFFINITY_STREAK_BOUND`]
/// consecutive picks that bypassed the FIFO head, the head runs
/// regardless — a sustained stream of same-key submissions used to
/// starve every other queued job forever. A head pick (affine or not)
/// advances the FIFO and resets the streak.
fn pick_next(
    queue: &mut VecDeque<SubmitRequest>,
    last_key: Option<&str>,
    streak: &mut usize,
) -> Option<SubmitRequest> {
    if let Some(key) = last_key {
        if let Some(pos) = queue.iter().position(|r| r.workload.cache_key() == key) {
            if pos == 0 {
                *streak = 0;
                return queue.pop_front();
            }
            if *streak < AFFINITY_STREAK_BOUND {
                *streak += 1;
                return queue.remove(pos);
            }
        }
    }
    *streak = 0;
    queue.pop_front()
}

/// Admission state shared between the reader thread and the scheduler.
struct Admission {
    queue: VecDeque<SubmitRequest>,
    /// Ids of every queued **or running** job. A submit reusing one is
    /// rejected: admitting it would shadow a live job's event stream
    /// and `JobJournal::create` would truncate the original's WAL,
    /// silently destroying its in-flight crash-safety.
    ids: HashSet<u64>,
    /// Reader saw shutdown/EOF; the scheduler drains and exits.
    done: bool,
}

/// One admitted job the scheduler is driving.
struct ActiveJob {
    run: JobRun,
    journal: Option<JobJournal>,
    check: bool,
}

/// The always-on orchestrator loop: newline-delimited request frames
/// in, event frames out, until a `shutdown` frame or input EOF (then
/// the queue is drained gracefully and a `bye` frame closes the
/// stream).
///
/// A dedicated reader thread keeps admission decisions prompt while
/// jobs are running: `ping` answers immediately, a `submit` beyond
/// `max_queue` queued jobs (or reusing a queued/running id) is
/// rejected the moment it arrives, and the scheduler sleeps on a
/// condvar while idle — the reader's wakeup replaces the old 5 ms
/// polling loop.
///
/// Up to `max_jobs` admitted jobs run **concurrently**: the scheduler
/// feeds their shards to the shared pool round-robin (one shard per
/// job per turn) and demuxes verdicts back per job, so every tenant
/// makes progress while any has work left.
pub fn serve<R, W>(reader: R, writer: W, exe: &Path, config: &ServeConfig) -> ServeStats
where
    R: BufRead + Send,
    W: Write + Send,
{
    let writer = Mutex::new(writer);
    let admission = Mutex::new(Admission {
        queue: VecDeque::new(),
        ids: HashSet::new(),
        done: false,
    });
    let wakeup = Condvar::new();
    let rejected = AtomicUsize::new(0);
    let emit = |event: Event| {
        if config.log {
            eprintln!("serve: {}", event.log_line());
        }
        let mut w = lock_unpoisoned(&writer);
        // A vanished client is not an error the service can answer;
        // keep running (remaining events will fail the same way).
        let _ = write_frame(&mut *w, &event.to_wire());
    };
    let mut stats = ServeStats::default();
    // One persistent pool per connection: affinity routing keeps
    // compiled-pattern caches warm across consecutive jobs sharing a
    // cache key. A tripped pool is not respawned into the same
    // systemic failure: every later job fails naming the breaker.
    let pool = spawn_pool(exe, config);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut reader = reader;
            while let Some(frame) = read_frame(&mut reader) {
                match frame.and_then(|v| parse_request(&v)) {
                    Ok(Request::Ping) => emit(Event::Pong),
                    Ok(Request::Shutdown) => break,
                    Ok(Request::Submit(req)) => {
                        let mut adm = lock_unpoisoned(&admission);
                        if adm.queue.len() >= config.max_queue {
                            drop(adm);
                            rejected.fetch_add(1, Ordering::SeqCst);
                            emit(Event::Rejected {
                                id: Some(req.id),
                                reason: format!(
                                    "admission: queue full ({} jobs waiting)",
                                    config.max_queue
                                ),
                            });
                        } else if adm.ids.contains(&req.id) {
                            drop(adm);
                            rejected.fetch_add(1, Ordering::SeqCst);
                            emit(Event::Rejected {
                                id: Some(req.id),
                                reason: format!(
                                    "admission: job id {} is already queued or running",
                                    req.id
                                ),
                            });
                        } else {
                            adm.ids.insert(req.id);
                            adm.queue.push_back(*req);
                            drop(adm);
                            wakeup.notify_all();
                        }
                    }
                    Err(e) => {
                        rejected.fetch_add(1, Ordering::SeqCst);
                        emit(Event::Rejected {
                            id: None,
                            reason: e.to_string(),
                        });
                    }
                }
            }
            lock_unpoisoned(&admission).done = true;
            wakeup.notify_all();
        });

        let mut dispatcher = Dispatcher::new(&pool);
        let mut active: Vec<ActiveJob> = Vec::new();
        let mut last_key: Option<String> = None;
        let mut streak = 0usize;
        let mut rr = 0usize;
        let mut next_ns = 0usize;
        loop {
            // Admit queued jobs into free slots (affinity-bounded).
            while active.len() < config.max_jobs.max(1) {
                let next = {
                    let mut adm = lock_unpoisoned(&admission);
                    pick_next(&mut adm.queue, last_key.as_deref(), &mut streak)
                };
                let Some(req) = next else { break };
                last_key = Some(req.workload.cache_key());
                let journal = match &config.journal_dir {
                    None => None,
                    Some(dir) => match JobJournal::create(dir, req.id, &req.workload, req.shards) {
                        Ok(j) => Some(j),
                        Err(e) => {
                            stats.failed += 1;
                            emit(Event::JobError {
                                id: req.id,
                                reason: format!("cannot create job journal: {e}"),
                            });
                            lock_unpoisoned(&admission).ids.remove(&req.id);
                            continue;
                        }
                    },
                };
                let total = req.workload.total();
                let parts: Vec<Shard> = Shard::partition(total, req.shards)
                    .into_iter()
                    .filter(|s| !s.is_empty())
                    .collect();
                emit(Event::Accepted {
                    id: req.id,
                    total,
                    shards: parts.len(),
                });
                let mut run = JobRun::new(
                    req.id,
                    next_ns,
                    req.workload.clone(),
                    Merger::new(total),
                    req.shards,
                    JobStats {
                        shards: parts.len(),
                        ..JobStats::default()
                    },
                    &pool,
                );
                next_ns += 1;
                for part in parts {
                    let fault = req
                        .faults
                        .iter()
                        .find(|(i, _)| *i == part.index)
                        .map(|(_, f)| *f);
                    run.ready.push_back((part, 0, fault, Duration::ZERO));
                }
                active.push(ActiveJob {
                    run,
                    journal,
                    check: req.check,
                });
            }
            if active.is_empty() {
                let adm = lock_unpoisoned(&admission);
                if adm.done && adm.queue.is_empty() {
                    break;
                }
                if adm.queue.is_empty() {
                    // Idle: sleep until the reader signals a submit or
                    // shutdown. Both transitions notify under this
                    // mutex, so no wakeup can be lost.
                    drop(wakeup.wait(adm));
                }
                continue;
            }
            // Keep the pool fed round-robin: one shard per ready job
            // per turn, until the dispatch window is full. The window
            // keeps the pool's internal queue shallow so a job
            // admitted late is not stuck behind one tenant's backlog.
            let window = config.cap + active.len();
            while dispatcher.live() < window {
                let mut dispatched = false;
                for off in 0..active.len() {
                    let slot = (rr + off) % active.len();
                    let job = &mut active[slot].run;
                    if let Some((shard, attempt, fault, delay)) = job.ready.pop_front() {
                        dispatcher.submit(job, shard, attempt, fault, delay);
                        rr = (slot + 1) % active.len();
                        dispatched = true;
                        break;
                    }
                }
                if !dispatched {
                    break;
                }
            }
            // One bounded wait for a verdict: fresh submits still get
            // admitted within a poll interval while jobs are running.
            if dispatcher.live() > 0 {
                if let Some((job_id, flight, outcome)) = dispatcher.poll(RECV_POLL) {
                    if let Some(slot) = active.iter_mut().find(|a| a.run.id == job_id) {
                        let mut emit_fn = |event: Event| emit(event);
                        slot.run.on_verdict(
                            config,
                            flight,
                            outcome,
                            slot.journal.as_mut(),
                            &mut emit_fn,
                        );
                    }
                }
            }
            // Reap settled jobs, interleaving `done` frames by job id.
            let mut i = 0;
            while i < active.len() {
                if !active[i].run.settled() {
                    i += 1;
                    continue;
                }
                let done = active.remove(i);
                let id = done.run.id;
                let workload = done.run.workload.clone();
                match done.run.into_result(&pool) {
                    Ok((output, job_stats)) => {
                        let bit_identical = done
                            .check
                            .then(|| output.bit_identical(&monolithic(&workload)));
                        stats.done += 1;
                        emit(Event::Done {
                            id,
                            output,
                            stats: job_stats,
                            bit_identical,
                        });
                    }
                    Err(e) => {
                        stats.failed += 1;
                        emit(Event::JobError {
                            id,
                            reason: e.to_string(),
                        });
                    }
                }
                lock_unpoisoned(&admission).ids.remove(&id);
            }
        }
    });
    pool.shutdown();
    stats.rejected = rejected.load(Ordering::SeqCst);
    emit(Event::Bye {
        done: stats.done,
        failed: stats.failed,
        rejected: stats.rejected,
    });
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
    fn pick_next_prefers_cache_affinity_then_fifo() {
        let mut q: VecDeque<SubmitRequest> = [
            submit(1, "square"),
            submit(2, "triangle"),
            submit(3, "square"),
        ]
        .into_iter()
        .collect();
        let key = landscape("square").cache_key();
        let mut streak = 0;
        // Affinity: job 1 (first matching), then job 3 — job 2 waits.
        assert_eq!(pick_next(&mut q, Some(&key), &mut streak).unwrap().id, 1);
        assert_eq!(pick_next(&mut q, Some(&key), &mut streak).unwrap().id, 3);
        // No match left: FIFO.
        assert_eq!(pick_next(&mut q, Some(&key), &mut streak).unwrap().id, 2);
        assert!(pick_next(&mut q, None, &mut streak).is_none());
    }

    #[test]
    fn pick_next_affinity_streak_cannot_starve_the_fifo_head() {
        // Regression: affinity used to be unbounded, so a sustained
        // stream of same-key jobs starved a different-key head forever.
        let mut q: VecDeque<SubmitRequest> = std::iter::once(submit(100, "triangle"))
            .chain((1..=AFFINITY_STREAK_BOUND as u64 + 2).map(|id| submit(id, "square")))
            .collect();
        let key = landscape("square").cache_key();
        let mut streak = 0;
        let mut order = Vec::new();
        while let Some(req) = pick_next(&mut q, Some(&key), &mut streak) {
            order.push(req.id);
        }
        // Exactly K affinity picks bypass the head, then the head runs.
        let bumped = order
            .iter()
            .position(|&id| id == 100)
            .expect("the head must eventually run");
        assert_eq!(bumped, AFFINITY_STREAK_BOUND);
        // Nothing is lost, and the post-head picks resume affinity.
        assert_eq!(order.len(), AFFINITY_STREAK_BOUND + 3);
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
