//! Sharded sweeps: partition a sweep's index space into self-describing
//! [`Shard`]s, execute them anywhere (threads, subprocesses, other
//! machines), and [`Merger`]-merge the partial results back into the
//! exact monolithic output.
//!
//! The paper's parameter-setting procedure is sweep-shaped all the way
//! down — dense `(γ, β)` landscape scans, grid searches, resource tables
//! across problem families, disorder averages over seeds. Every one of
//! those is a pure function of a totally ordered index space
//! `0..total`, which is the one abstraction this module shards:
//!
//! * [`Shard::partition`] splits `0..total` into contiguous,
//!   near-equal, self-describing ranges;
//! * a worker computes a payload for its range and wraps it in a
//!   [`ShardResult`] with provenance (which shard, which backend,
//!   cache statistics);
//! * [`Merger`] accumulates results **in any arrival order**: merging
//!   is commutative, associative, and idempotent on duplicate shards,
//!   and [`Merger::finish`] hands the parts back in the canonical total
//!   order (ascending range start) — so downstream folds (row
//!   concatenation, argmin selection, averaging) are bit-for-bit
//!   independent of which shard landed first.
//!
//! Process boundaries are crossed by one mechanism, the supervised
//! [`WorkerPool`]: it keeps at most `cap` persistent worker processes
//! alive, sends each [`PoolJob`] to one of them as a [`PoolFrame`] over
//! stdio (see [`super::wire`] — floats travel as exact bit patterns),
//! and returns outcomes in *completion* order, so a straggler shard
//! never delays the verdicts of shards that finished behind it. Its
//! policy is the sans-IO [`PoolCore`], which is given the time with
//! every event and reaches processes only through [`Workers`], so a
//! simulator can run it on virtual time; the pool's one driver thread
//! owns the processes and blocks exactly until the core's next timer.
//! Job frames are written by a dedicated writer thread per worker, so
//! an oversized job can never stall the driver. A worker that
//! dies or emits a truncated stream surfaces as a
//! [`ShardError::Worker`] naming the shard; the merger is never
//! polluted by a failed shard, so retrying just that shard and
//! inserting its result is always safe.
//! [`RetryPolicy`] supplies the exponential backoff the scheduling
//! layers apply between attempts, and an optional per-job deadline
//! ([`PoolConfig::job_deadline`]) lets an orchestrator kill and
//! re-partition stragglers.

use super::wire::{read_frame, PoolFrame, Value, WireError};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One self-describing slice of a sweep: the half-open index range
/// `start..end` of shard `index` out of `of`, over a sweep of `total`
/// items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Which shard this is (`0..of`).
    pub index: usize,
    /// How many shards the sweep was partitioned into.
    pub of: usize,
    /// Total number of items in the sweep (shared by all shards).
    pub total: usize,
    /// First item index covered (inclusive).
    pub start: usize,
    /// One past the last item index covered.
    pub end: usize,
}

impl Shard {
    /// Partitions `0..total` into `shards` contiguous, near-equal
    /// ranges (the first `total % shards` ranges are one longer). More
    /// shards than items yields trailing empty shards — degenerate but
    /// legal, so a fixed shard count works for any sweep.
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    pub fn partition(total: usize, shards: usize) -> Vec<Shard> {
        Shard::parts(total, shards).collect()
    }

    /// [`Shard::partition`], one shard at a time: the empty shards are
    /// the trailing ones, so a caller that wants only the non-empty
    /// shards stops at the first empty one and builds no more.
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    pub fn parts(total: usize, shards: usize) -> impl Iterator<Item = Shard> {
        assert!(shards > 0, "need at least one shard");
        let (base, extra) = (total / shards, total % shards);
        (0..shards).map(move |index| {
            let start = index * base + index.min(extra);
            Shard {
                index,
                of: shards,
                total,
                start,
                end: start + base + usize::from(index < extra),
            }
        })
    }

    /// A synthetic shard for work created *after* the original
    /// partition (straggler re-partitions, resume re-runs). The fresh
    /// `index` numbers above the original width so error messages stay
    /// unambiguous, and `of` is kept consistent as `index + 1` — the
    /// invariant `index < of` holds for every shard ever constructed,
    /// so provenance can never report "shard 7 of 4".
    ///
    /// # Panics
    /// Panics when `start > end` or `end > total`.
    pub fn synthetic(index: usize, total: usize, start: usize, end: usize) -> Shard {
        assert!(start <= end && end <= total, "synthetic shard out of range");
        Shard {
            index,
            of: index + 1,
            total,
            start,
            end,
        }
    }

    /// Number of items this shard covers.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the shard covers no items.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Wire encoding.
    pub fn to_wire(&self) -> Value {
        Value::obj(vec![
            ("index", Value::uint(self.index)),
            ("of", Value::uint(self.of)),
            ("total", Value::uint(self.total)),
            ("start", Value::uint(self.start)),
            ("end", Value::uint(self.end)),
        ])
    }

    /// Wire decoding. Enforces the shard invariants — `index < of` and
    /// `start <= end <= total` — so a corrupt or hand-rolled frame can
    /// never smuggle impossible provenance ("shard 7 of 4") into a
    /// merger or a journal replay.
    pub fn from_wire(v: &Value) -> Result<Shard, WireError> {
        let shard = Shard {
            index: v.field("index")?.as_uint()?,
            of: v.field("of")?.as_uint()?,
            total: v.field("total")?.as_uint()?,
            start: v.field("start")?.as_uint()?,
            end: v.field("end")?.as_uint()?,
        };
        if shard.index >= shard.of {
            return Err(WireError(format!(
                "shard index {} out of range (of {})",
                shard.index, shard.of
            )));
        }
        if shard.start > shard.end || shard.end > shard.total {
            return Err(WireError(format!(
                "shard range {}..{} outside sweep of {} items",
                shard.start, shard.end, shard.total
            )));
        }
        Ok(shard)
    }
}

/// Where a [`ShardResult`] came from: the shard itself plus execution
/// context worth auditing after a distributed run.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// The shard that produced the payload.
    pub shard: Shard,
    /// Backend name (`"gate"` / `"pattern"` / `"zx"`, or a workload
    /// label for sweeps without a backend axis).
    pub backend: String,
    /// Compiled-pattern cache hits observed by the worker process.
    pub cache_hits: usize,
    /// Compiled-pattern cache misses observed by the worker process.
    pub cache_misses: usize,
}

impl Provenance {
    /// Wire encoding.
    pub fn to_wire(&self) -> Value {
        Value::obj(vec![
            ("shard", self.shard.to_wire()),
            ("backend", Value::Str(self.backend.clone())),
            ("cache_hits", Value::uint(self.cache_hits)),
            ("cache_misses", Value::uint(self.cache_misses)),
        ])
    }

    /// Wire decoding.
    pub fn from_wire(v: &Value) -> Result<Provenance, WireError> {
        Ok(Provenance {
            shard: Shard::from_wire(v.field("shard")?)?,
            backend: v.field("backend")?.as_str()?.to_string(),
            cache_hits: v.field("cache_hits")?.as_uint()?,
            cache_misses: v.field("cache_misses")?.as_uint()?,
        })
    }
}

/// A shard's partial result: provenance plus the workload-specific
/// payload (landscape values, a grid-search best, table rows, …).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardResult<P> {
    /// Which shard produced this, on what backend, with what cache use.
    pub provenance: Provenance,
    /// The partial result for `provenance.shard`'s index range.
    pub payload: P,
}

/// Everything that can go wrong between partitioning and the merged
/// result.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardError {
    /// Two accepted shards claim overlapping index ranges.
    Overlap {
        /// Range already in the merger.
        held: (usize, usize),
        /// Conflicting incoming range.
        incoming: (usize, usize),
    },
    /// The same range arrived twice with different payloads — a
    /// non-deterministic worker (or mixed-up sweep), never mergeable.
    DuplicateMismatch {
        /// The twice-delivered range.
        range: (usize, usize),
    },
    /// A shard was produced for a different sweep size.
    TotalMismatch {
        /// The merger's sweep size.
        expected: usize,
        /// The shard's sweep size.
        got: usize,
    },
    /// A shard describes a malformed range (`start > end` or `end >
    /// total`) — a corrupt wire payload or a buggy worker.
    InvalidRange {
        /// The claimed range.
        range: (usize, usize),
        /// The sweep size it must fit in.
        total: usize,
    },
    /// `finish` was called before every index was covered.
    Incomplete {
        /// Uncovered index ranges, ascending.
        missing: Vec<(usize, usize)>,
    },
    /// A worker process failed: died, exited nonzero, or wrote a
    /// stream that does not decode. Always names the shard, so the
    /// caller can retry exactly that slice.
    Worker {
        /// Index of the failed shard.
        shard: usize,
        /// Human-readable failure description.
        reason: String,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Overlap { held, incoming } => write!(
                f,
                "shard ranges overlap: held {}..{} vs incoming {}..{}",
                held.0, held.1, incoming.0, incoming.1
            ),
            ShardError::DuplicateMismatch { range } => write!(
                f,
                "shard {}..{} delivered twice with different payloads",
                range.0, range.1
            ),
            ShardError::TotalMismatch { expected, got } => {
                write!(
                    f,
                    "shard is for a sweep of {got} items, merger holds {expected}"
                )
            }
            ShardError::InvalidRange { range, total } => write!(
                f,
                "shard claims malformed range {}..{} over {total} items",
                range.0, range.1
            ),
            ShardError::Incomplete { missing } => {
                write!(f, "sweep incomplete; missing ranges: ")?;
                for (i, (s, e)) in missing.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{s}..{e}")?;
                }
                Ok(())
            }
            ShardError::Worker { shard, reason } => {
                write!(f, "shard {shard} worker failed: {reason}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// Order-insensitive accumulator of [`ShardResult`]s over one sweep.
///
/// `insert`/`merge` are **commutative and associative** (the state is a
/// keyed union of disjoint ranges) and **idempotent** on re-delivered
/// shards (same range, equal payload — the first arrival's provenance
/// is kept). [`Merger::finish`] returns the parts in the canonical
/// total order — ascending `start` — which is what makes every
/// downstream reduction arrival-order invariant.
#[derive(Debug, Clone)]
pub struct Merger<P> {
    total: usize,
    parts: BTreeMap<usize, ShardResult<P>>,
}

impl<P: PartialEq> Merger<P> {
    /// An empty merger for a sweep of `total` items.
    pub fn new(total: usize) -> Self {
        Merger {
            total,
            parts: BTreeMap::new(),
        }
    }

    /// The sweep size this merger accumulates.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of non-empty shards accepted so far.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether no shard has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Accepts one shard result, in any order. Empty shards are
    /// accepted and dropped; a re-delivered shard must carry an equal
    /// payload (then it is a no-op). On error the merger is unchanged —
    /// a failed or corrupt shard never pollutes accepted state.
    pub fn insert(&mut self, result: ShardResult<P>) -> Result<(), ShardError> {
        let shard = result.provenance.shard;
        if shard.total != self.total {
            return Err(ShardError::TotalMismatch {
                expected: self.total,
                got: shard.total,
            });
        }
        // Wire-decoded shards are attacker-shaped data: validate in
        // release builds too, or a malformed range slips past the
        // overlap checks and corrupts coverage accounting.
        if shard.start > shard.end || shard.end > self.total {
            return Err(ShardError::InvalidRange {
                range: (shard.start, shard.end),
                total: self.total,
            });
        }
        if shard.is_empty() {
            return Ok(());
        }
        // Predecessor (greatest start ≤ incoming start): duplicate or
        // overlap-from-the-left.
        if let Some((_, held)) = self.parts.range(..=shard.start).next_back() {
            let h = held.provenance.shard;
            if h.start == shard.start && h.end == shard.end {
                return if held.payload == result.payload {
                    Ok(()) // idempotent re-delivery
                } else {
                    Err(ShardError::DuplicateMismatch {
                        range: (shard.start, shard.end),
                    })
                };
            }
            if h.end > shard.start {
                return Err(ShardError::Overlap {
                    held: (h.start, h.end),
                    incoming: (shard.start, shard.end),
                });
            }
        }
        // Successor (least start > incoming start): overlap-from-the-right.
        if let Some((_, held)) = self.parts.range(shard.start + 1..).next() {
            let h = held.provenance.shard;
            if shard.end > h.start {
                return Err(ShardError::Overlap {
                    held: (h.start, h.end),
                    incoming: (shard.start, shard.end),
                });
            }
        }
        self.parts.insert(shard.start, result);
        Ok(())
    }

    /// Merges another merger's accepted shards into this one
    /// (set union; same commutativity/associativity as [`Merger::insert`]).
    pub fn merge(mut self, other: Merger<P>) -> Result<Merger<P>, ShardError> {
        if other.total != self.total {
            return Err(ShardError::TotalMismatch {
                expected: self.total,
                got: other.total,
            });
        }
        for (_, part) in other.parts {
            self.insert(part)?;
        }
        Ok(self)
    }

    /// Uncovered index ranges, ascending.
    pub fn missing(&self) -> Vec<(usize, usize)> {
        let mut gaps = Vec::new();
        let mut cursor = 0usize;
        for part in self.parts.values() {
            let s = part.provenance.shard;
            if s.start > cursor {
                gaps.push((cursor, s.start));
            }
            cursor = s.end;
        }
        if cursor < self.total {
            gaps.push((cursor, self.total));
        }
        gaps
    }

    /// Whether every index in `0..total` is covered.
    pub fn is_complete(&self) -> bool {
        self.missing().is_empty()
    }

    /// The accepted parts in canonical total order (ascending range
    /// start) — the one order every downstream reduction folds in.
    ///
    /// # Errors
    /// [`ShardError::Incomplete`] when indices remain uncovered.
    pub fn finish(self) -> Result<Vec<ShardResult<P>>, ShardError> {
        let missing = self.missing();
        if !missing.is_empty() {
            return Err(ShardError::Incomplete { missing });
        }
        Ok(self.parts.into_values().collect())
    }
}

// ------------------------------------------------------- worker processes

/// How to invoke a worker process (the current binary re-invoked with a
/// `--worker`-style flag; [`WorkerPool`] appends its own flags).
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    /// Worker executable.
    pub exe: PathBuf,
    /// Arguments selecting worker mode.
    pub args: Vec<String>,
}

impl WorkerCommand {
    /// Command invoking `exe` with `args`.
    pub fn new(exe: impl Into<PathBuf>, args: &[&str]) -> Self {
        WorkerCommand {
            exe: exe.into(),
            args: args.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// Maximum characters of a failed worker's stderr echoed into the
/// error (half from the head — where the panic message lands — and
/// half from the tail).
const STDERR_EXCERPT: usize = 600;

/// Head + tail excerpt of a failed worker's stderr: the panic message
/// prints first, backtraces print after — keep both ends.
fn stderr_excerpt(stderr: &str) -> String {
    let trimmed = stderr.trim();
    let chars: Vec<char> = trimmed.chars().collect();
    if chars.len() <= STDERR_EXCERPT {
        return trimmed.to_string();
    }
    let half = STDERR_EXCERPT / 2;
    let head: String = chars[..half].iter().collect();
    let tail: String = chars[chars.len() - half..].iter().collect();
    format!("{head} […] {tail}")
}

// ------------------------------------------------------ retry & backoff

/// Exponential-backoff retry policy for failed shards.
///
/// `max_attempts` counts every execution of a shard including the
/// first; [`RetryPolicy::NONE`] (one attempt, no retries) is the
/// batch-driver default. Retried shards are safe by construction: the
/// [`Merger`] rejects a failed shard's partial output outright and is
/// idempotent on duplicate delivery, so re-running any slice any
/// number of times cannot change the merged result (the fault harness
/// in `shard_subprocess.rs` pins this bit-for-bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per shard (≥ 1), the first execution included.
    pub max_attempts: u32,
    /// Delay before the first retry; each further retry doubles it, up
    /// to 64 × `base`.
    pub base: Duration,
}

/// Multiplier [`RetryPolicy::backoff`] applies per further retry.
const BACKOFF_FACTOR: u32 = 2;

/// Ceiling on any single backoff delay, in multiples of the base.
const BACKOFF_CAP: u32 = 64;

impl RetryPolicy {
    /// No retries: every shard gets exactly one attempt.
    pub const NONE: RetryPolicy = RetryPolicy {
        max_attempts: 1,
        base: Duration::ZERO,
    };

    /// `max_attempts` attempts with doubling backoff starting at
    /// `base`, capped at 64 × `base`.
    pub fn new(max_attempts: u32, base: Duration) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base,
        }
    }

    /// The delay before retry number `retry` (1-based: the delay
    /// between the first failure and the second attempt is
    /// `backoff(1) = base`).
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = retry.saturating_sub(1).min(16);
        let mult = BACKOFF_FACTOR.saturating_pow(exp);
        let cap = self.base.saturating_mul(BACKOFF_CAP);
        self.base.saturating_mul(mult).min(cap)
    }
}

/// The default worker cap: the host's available parallelism.
pub fn default_worker_cap() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// Every mutex in this module protects state that stays structurally
/// valid across a panic (a stderr buffer, the published stats, the
/// outcome receiver) — there is no invariant a half-finished critical
/// section could have broken. Propagating the poison would instead
/// cascade one worker's panic across every thread that touches the
/// lock afterwards, which is exactly the blast radius the pool design
/// bounds to a single shard.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------- supervised worker pool

/// Interval at which pool workers beat (passed to each worker as
/// `--heartbeat-ms`).
pub const HEARTBEAT: Duration = Duration::from_millis(100);

/// A worker that sends **no frame at all** (heartbeat or result) for
/// this long is sick — hung, stopped, deadlocked — and is killed and
/// replaced, idle or busy. It comfortably exceeds [`HEARTBEAT`] plus a
/// worker's startup time.
pub const LIVENESS: Duration = Duration::from_secs(5);

/// Circuit breaker: a breaker-relevant death (a crash, a liveness kill
/// or a spawn failure, never a deadline kill) that finds more than this
/// many inside the trailing [`RESTART_WINDOW`], itself included, trips
/// the pool.
pub const MAX_RESTARTS: usize = 8;

/// Sliding window of the circuit breaker.
pub const RESTART_WINDOW: Duration = Duration::from_secs(30);

/// How long a shut-down pool waits for its workers to exit once their
/// stdin is closed before it kills them.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(500);

/// The two settings of a [`WorkerPool`]; the supervision timings are
/// the constants [`HEARTBEAT`], [`LIVENESS`], [`MAX_RESTARTS`] and
/// [`RESTART_WINDOW`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Maximum simultaneously live worker processes.
    pub cap: usize,
    /// Optional per-job straggler deadline: a worker still computing
    /// one job past this is killed and the job reported with
    /// `timed_out = true` (the orchestrator's cue to re-partition).
    /// Distinct from [`LIVENESS`]: a straggler still beats; a sick
    /// worker doesn't.
    pub job_deadline: Option<Duration>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            cap: default_worker_cap(),
            job_deadline: None,
        }
    }
}

/// One job for the pool: an opaque job description for shard
/// `shard_index`, tagged so the submitter can correlate the outcome
/// (the same shard may be in flight more than once across retries),
/// plus the `cache_key` the dispatcher routes on (jobs with the same
/// key prefer the worker that last ran that key, so process-wide
/// compile caches hit cross-shard and cross-job). The pool keeps no
/// per-shard state: retries and quarantine belong to the submitter.
#[derive(Debug, Clone)]
pub struct PoolJob {
    /// Caller's correlation tag, echoed in the outcome.
    pub tag: u64,
    /// Which shard this job computes (named in the outcome's errors).
    pub shard_index: usize,
    /// The job description (one line of JSON, carried as the body of
    /// a [`PoolFrame::Job`]).
    pub input: String,
    /// Affinity routing key (workloads sharing compiled state share a
    /// key).
    pub cache_key: String,
    /// Dispatch delay (retry backoff). The pool holds the job without
    /// blocking a worker.
    pub delay: Duration,
}

/// Verdict for one [`PoolJob`], in completion order.
#[derive(Debug)]
pub struct PoolOutcome {
    /// The caller's tag from the job.
    pub tag: u64,
    /// The shard the job computed.
    pub shard_index: usize,
    /// The worker's raw result body, or the failure naming the shard.
    pub result: Result<String, ShardError>,
    /// Time from dispatch to verdict.
    pub elapsed: Duration,
    /// The worker was killed by the per-job straggler deadline.
    pub timed_out: bool,
    /// The pool's restart-rate circuit breaker is open; the job was
    /// not (fully) attempted, and the pool takes no further work.
    pub circuit_open: bool,
}

/// Pool-lifetime counters (monotonic; safe to snapshot and diff).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker processes ever spawned.
    pub spawned: usize,
    /// Worker deaths that required (or will require) a replacement
    /// spawn — crashes, liveness kills, straggler kills.
    pub restarts: usize,
    /// Peak simultaneously live workers (≤ cap).
    pub max_live: usize,
    /// Frames discarded because their generation didn't match the
    /// slot's live worker (late output from a killed predecessor).
    pub stale_frames: usize,
    /// Heartbeat frames observed.
    pub heartbeats: usize,
    /// Jobs routed to a worker that last ran the same `cache_key`.
    pub affinity_hits: usize,
    /// Jobs completed successfully.
    pub jobs_done: usize,
    /// Whether the circuit breaker has tripped.
    pub tripped: bool,
}

/// One event the [`PoolCore`] reacts to.
#[derive(Debug)]
pub enum PoolInput {
    /// A submitted job.
    Job(PoolJob),
    /// `(slot, gen, frame)`: a frame read from the worker spawned as
    /// generation `gen` into `slot`.
    Frame(usize, u64, PoolFrame),
    /// `(slot, gen, reason)`: that worker's stdout closed, or stopped
    /// decoding.
    Gone(usize, u64, String),
    /// A timer may have run out (see [`PoolCore::next_wake`]).
    Wake,
    /// Fail what has not started, close every worker's stdin and stop
    /// once they are gone.
    Shutdown,
}

/// The worker processes a [`PoolCore`] supervises, one per slot. The
/// core reaches processes only through these four calls: the process
/// driver inside [`WorkerPool`] implements them with real children,
/// pipes and pump threads, and a simulator with virtual workers.
pub trait Workers {
    /// Starts generation `gen` of the worker in `slot`, told to beat
    /// every [`HEARTBEAT`]; its frames and its end come back as
    /// [`PoolInput::Frame`] and [`PoolInput::Gone`].
    fn spawn(&mut self, slot: usize, gen: u64) -> Result<(), String>;
    /// Writes one newline-terminated frame to the worker's stdin.
    fn send(&mut self, slot: usize, line: String);
    /// Closes the worker's stdin, its cue to exit.
    fn close(&mut self, slot: usize);
    /// Kills the worker, waits for it, and returns the excerpt of its
    /// stderr.
    fn kill(&mut self, slot: usize) -> String;
}

/// A live worker as the core sees it.
struct Worker {
    /// Frames carrying any other generation are stale.
    gen: u64,
    /// When the worker was spawned or last sent a frame.
    last_seen: Instant,
    /// `cache_key` of the last job this worker completed.
    last_key: Option<String>,
    /// The job in flight and when it was sent.
    job: Option<(Instant, PoolJob)>,
}

/// Fairness bound of the pool's slot dispatch, the one cache-affinity
/// policy in the stack (jobs are admitted FIFO): at most this many
/// *consecutive* picks may bypass the FIFO head for a warm cache key
/// before the head runs unconditionally. A sustained stream of one key
/// therefore delays any other tenant by at most
/// `AFFINITY_STREAK_BOUND` picks instead of forever; property 13 of
/// `crates/mbqao-bench/tests/scheduler_sim.rs` checks the bound.
pub const AFFINITY_STREAK_BOUND: usize = 4;

/// The pool supervisor's whole policy as a sans-IO state machine: it
/// is given the time with every event, reaches processes only through
/// [`Workers`], and holds no clock, thread, process or pipe.
///
/// * **Dispatch** (once a job's `delay` has run): affinity first,
///   bounded by [`AFFINITY_STREAK_BOUND`]; then a fresh spawn into a
///   vacant slot (never evict a warm cache while capacity remains),
///   whose failure fails the head job; then any idle worker.
/// * **Kills**: a worker silent for [`LIVENESS`] since its spawn or last
///   frame, idle or busy, and a job still running at `job_deadline`
///   (reported `timed_out`), each at that instant.
/// * **Generations**: frames from any but a slot's live generation are
///   dropped and counted in `stale_frames`.
/// * **Breaker**: see [`MAX_RESTARTS`]. A tripped pool kills every
///   worker and fails every queued, delayed, in-flight and later job
///   once, with `circuit_open`.
/// * **Shutdown** fails what has not started, closes every worker's
///   stdin, reaps each on its [`PoolInput::Gone`], and kills what is
///   left after a 500 ms grace.
#[derive(Default)]
pub struct PoolCore {
    config: PoolConfig,
    slots: Vec<Option<Worker>>,
    queue: VecDeque<PoolJob>,
    /// Backoff-delayed jobs by (due, arrival).
    delayed: BTreeMap<(Instant, u64), PoolJob>,
    arrivals: u64,
    /// Consecutive affinity-routed (non-FIFO-head) picks.
    affinity_streak: usize,
    /// Times of the breaker-relevant deaths inside the window.
    breaker: VecDeque<Instant>,
    next_gen: u64,
    live: usize,
    stats: PoolStats,
    /// When the shutdown grace runs out, once shutdown began.
    grace: Option<Instant>,
    outcomes: Vec<PoolOutcome>,
}

impl PoolCore {
    /// An idle pool of `config.cap` vacant slots (at least one).
    pub fn new(config: PoolConfig) -> PoolCore {
        PoolCore {
            slots: (0..config.cap.max(1)).map(|_| None).collect(),
            config,
            ..PoolCore::default()
        }
    }

    /// Takes one event at `now` and returns the verdicts it settles, in
    /// order. Every submitted job gets exactly one verdict.
    pub fn step(
        &mut self,
        now: Instant,
        input: PoolInput,
        workers: &mut dyn Workers,
    ) -> Vec<PoolOutcome> {
        match input {
            PoolInput::Job(job) if self.stats.tripped || self.grace.is_some() => {
                self.fail(job, None, false);
            }
            PoolInput::Job(job) if job.delay.is_zero() => self.queue.push_back(job),
            PoolInput::Job(job) => {
                self.arrivals += 1;
                self.delayed.insert((now + job.delay, self.arrivals), job);
            }
            PoolInput::Frame(slot, gen, frame) => self.on_frame(now, slot, gen, frame, workers),
            PoolInput::Gone(slot, gen, reason)
                if self.slots[slot].as_ref().is_some_and(|w| w.gen == gen) =>
            {
                match self.grace {
                    Some(_) => self.reap(slot, workers),
                    None => self.die(now, slot, &reason, false, workers),
                }
            }
            PoolInput::Gone(..) | PoolInput::Wake => {}
            PoolInput::Shutdown => {
                self.grace.get_or_insert(now + SHUTDOWN_GRACE);
                self.fail_waiting();
                for slot in self.live_slots() {
                    workers.close(slot);
                }
            }
        }
        self.expire(now, workers);
        self.dispatch(now, workers);
        std::mem::take(&mut self.outcomes)
    }

    /// When the next timer runs out: a delayed job's dispatch, a
    /// worker's liveness or job deadline, or the shutdown grace. `None`
    /// when nothing can happen without an event.
    pub fn next_wake(&self) -> Option<Instant> {
        if let Some(grace) = self.grace {
            return (self.live > 0).then_some(grace);
        }
        let workers = self.slots.iter().flatten().flat_map(|w| {
            let deadline = w.job.as_ref().zip(self.config.job_deadline);
            [
                Some(w.last_seen + LIVENESS),
                deadline.map(|((since, _), limit)| *since + limit),
            ]
        });
        let delayed = self.delayed.keys().next().map(|(due, _)| *due);
        workers.flatten().chain(delayed).min()
    }

    /// Snapshot of the pool-lifetime counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Shutdown began and every worker is gone.
    pub fn finished(&self) -> bool {
        self.grace.is_some() && self.live == 0
    }

    fn live_slots(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&slot| self.slots[slot].is_some())
            .collect()
    }

    fn on_frame(
        &mut self,
        now: Instant,
        slot: usize,
        gen: u64,
        frame: PoolFrame,
        workers: &mut dyn Workers,
    ) {
        // Two-level staleness guard: the reader thread tags frames
        // with the generation it was spawned for, and the frame body
        // echoes the generation the worker was told. Either mismatch
        // means a killed predecessor is talking — drop the frame so it
        // can never reach the merger.
        let frame_gen = match &frame {
            PoolFrame::Job { gen, .. }
            | PoolFrame::Heartbeat { gen, .. }
            | PoolFrame::Result { gen, .. } => *gen,
        };
        let current = self.slots[slot].as_mut();
        let Some(w) = current.filter(|w| w.gen == gen && frame_gen == gen) else {
            self.stats.stale_frames += 1;
            return;
        };
        w.last_seen = now;
        match frame {
            PoolFrame::Heartbeat { .. } => self.stats.heartbeats += 1,
            PoolFrame::Result { body, .. } => match w.job.take() {
                Some((since, job)) => {
                    self.stats.jobs_done += 1;
                    self.outcomes.push(PoolOutcome {
                        tag: job.tag,
                        shard_index: job.shard_index,
                        result: Ok(body),
                        elapsed: now.duration_since(since),
                        timed_out: false,
                        circuit_open: false,
                    });
                    w.last_key = Some(job.cache_key);
                }
                // A result with no job in flight is protocol
                // corruption — kill the worker rather than guess.
                None => self.die(now, slot, "unsolicited result frame", false, workers),
            },
            PoolFrame::Job { .. } => self.die(now, slot, "worker sent a job frame", false, workers),
        }
    }

    /// Fires every timer due at `now`: the shutdown grace, delayed
    /// jobs, liveness and job deadlines.
    fn expire(&mut self, now: Instant, workers: &mut dyn Workers) {
        if let Some(grace) = self.grace {
            if now >= grace {
                for slot in self.live_slots() {
                    self.reap(slot, workers);
                }
            }
            return;
        }
        while let Some(entry) = self.delayed.first_entry() {
            if entry.key().0 > now {
                break;
            }
            self.queue.push_back(entry.remove());
        }
        for slot in self.live_slots() {
            let Some(w) = &self.slots[slot] else {
                continue; // killed by a breaker trip earlier in this loop
            };
            let deadline = w.job.as_ref().zip(self.config.job_deadline);
            let overdue = deadline.filter(|((since, _), limit)| now >= *since + *limit);
            if now >= w.last_seen + LIVENESS {
                let reason = format!("no heartbeat within {LIVENESS:?}");
                self.die(now, slot, &reason, false, workers);
            } else if let Some((_, limit)) = overdue {
                let reason = format!("straggler killed after exceeding its {limit:?} deadline");
                self.die(now, slot, &reason, true, workers);
            }
        }
    }

    /// Kills the worker in `slot`: its stderr excerpt and the job it
    /// held.
    fn kill(&mut self, slot: usize, workers: &mut dyn Workers) -> (String, Option<PoolJob>) {
        let w = self.slots[slot].take().expect("a live worker");
        self.live -= 1;
        (workers.kill(slot), w.job.map(|(_, job)| job))
    }

    /// Kills the worker in `slot` after a crash, a liveness kill or (with
    /// `timed_out`) its job's deadline, fails its job naming `reason`
    /// and its stderr, and counts the death; only a deadline kill
    /// spares the breaker.
    fn die(
        &mut self,
        now: Instant,
        slot: usize,
        reason: &str,
        timed_out: bool,
        workers: &mut dyn Workers,
    ) {
        let (excerpt, job) = self.kill(slot, workers);
        self.stats.restarts += 1;
        if let Some(job) = job {
            let reason = match excerpt.as_str() {
                "" => reason.to_string(),
                excerpt => format!("{reason}; stderr: {excerpt}"),
            };
            self.fail(job, Some(reason), timed_out);
        }
        if !timed_out {
            self.breaker_event(now, workers);
        }
    }

    /// Kills the worker in `slot` without counting a death, on a trip or
    /// at shutdown; a job it still held fails.
    fn reap(&mut self, slot: usize, workers: &mut dyn Workers) {
        if let (_, Some(job)) = self.kill(slot, workers) {
            self.fail(job, None, false);
        }
    }

    /// Records one breaker-relevant death; trips the breaker when the
    /// sliding window overflows.
    fn breaker_event(&mut self, now: Instant, workers: &mut dyn Workers) {
        self.breaker.push_back(now);
        while let Some(&first) = self.breaker.front() {
            if now.duration_since(first) <= RESTART_WINDOW {
                break;
            }
            self.breaker.pop_front();
        }
        if self.breaker.len() > MAX_RESTARTS {
            self.stats.tripped = true;
            for slot in self.live_slots() {
                self.reap(slot, workers);
            }
            self.fail_waiting();
        }
    }

    /// Fails every job not yet sent to a worker.
    fn fail_waiting(&mut self) {
        let delayed = std::mem::take(&mut self.delayed).into_values();
        for job in std::mem::take(&mut self.queue).into_iter().chain(delayed) {
            self.fail(job, None, false);
        }
    }

    /// Answers `job` with a failure: `reason`, or with no reason the
    /// open circuit once the breaker has tripped and the shutdown
    /// before.
    fn fail(&mut self, job: PoolJob, reason: Option<String>, timed_out: bool) {
        let circuit_open = reason.is_none() && self.stats.tripped;
        let reason = reason.unwrap_or_else(|| match circuit_open {
            true => format!(
                "worker pool circuit breaker open (> {MAX_RESTARTS} worker deaths within {RESTART_WINDOW:?})"
            ),
            false => "worker pool shut down".into(),
        });
        self.outcomes.push(PoolOutcome {
            tag: job.tag,
            shard_index: job.shard_index,
            result: Err(ShardError::Worker {
                shard: job.shard_index,
                reason,
            }),
            elapsed: Duration::ZERO,
            timed_out,
            circuit_open,
        });
    }

    /// Assigns queued jobs to workers (see the type's docs for the
    /// order).
    fn dispatch(&mut self, now: Instant, workers: &mut dyn Workers) {
        while !self.queue.is_empty() && !self.stats.tripped {
            let mut pick = None;
            // Affinity picks that bypass the FIFO head are bounded: a
            // sustained stream of one cache key must not starve queued
            // work behind it (the head itself matching counts as FIFO).
            if self.affinity_streak < AFFINITY_STREAK_BOUND {
                pick = self.slots.iter().enumerate().find_map(|(slot, w)| {
                    let key = w.as_ref().filter(|w| w.job.is_none())?.last_key.as_ref()?;
                    let j = self.queue.iter().position(|job| job.cache_key == *key)?;
                    Some((slot, j, true))
                });
            }
            if pick.is_none() {
                if let Some(slot) = self.slots.iter().position(Option::is_none) {
                    self.next_gen += 1;
                    if let Err(reason) = workers.spawn(slot, self.next_gen) {
                        // A spawn failure is a pool-level fault: fail the
                        // head job, feed the breaker (a system that can't
                        // exec degrades fast).
                        let job = self.queue.pop_front().expect("the queue is not empty");
                        self.fail(job, Some(reason), false);
                        self.breaker_event(now, workers);
                        continue;
                    }
                    self.slots[slot] = Some(Worker {
                        gen: self.next_gen,
                        last_seen: now,
                        last_key: None,
                        job: None,
                    });
                    self.live += 1;
                    self.stats.spawned += 1;
                    self.stats.max_live = self.stats.max_live.max(self.live);
                    pick = Some((slot, 0, false));
                } else if let Some(slot) = self
                    .slots
                    .iter()
                    .position(|w| w.as_ref().is_some_and(|w| w.job.is_none()))
                {
                    pick = Some((slot, 0, false));
                }
            }
            let Some((slot, j, affinity)) = pick else {
                return; // every worker busy: wait for a verdict
            };
            let mut job = self.queue.remove(j).expect("picked index is in range");
            if affinity {
                self.stats.affinity_hits += 1;
            }
            // Only picks that bypassed the head extend the streak; a
            // head pick (affinity or not) advances the FIFO and resets.
            self.affinity_streak = if affinity && j > 0 {
                self.affinity_streak + 1
            } else {
                0
            };
            let w = self.slots[slot].as_mut().expect("picked slot is live");
            let body = std::mem::take(&mut job.input);
            let mut line = PoolFrame::Job { gen: w.gen, body }.to_wire().to_json();
            line.push('\n'); // frames are newline-delimited
            workers.send(slot, line);
            w.job = Some((now, job));
        }
    }
}

/// Cap on the retained stderr of a live pool worker (only an excerpt
/// is ever reported; an endlessly chatty worker must not grow memory).
const POOL_STDERR_CAP: usize = 64 * 1024;

/// One live worker process and the threads that pump its pipes.
struct Process {
    pid: u32,
    child: Child,
    /// Feeds the stdin writer thread; dropping it closes the worker's
    /// stdin.
    stdin: Option<mpsc::Sender<String>>,
    stderr: Arc<Mutex<Vec<u8>>>,
    pumps: [JoinHandle<()>; 3],
}

/// The process driver's [`Workers`]: real children whose frames, and
/// whose end, its pump threads send back into the driver's channel.
struct Processes {
    cmd: WorkerCommand,
    tx: mpsc::Sender<PoolInput>,
    procs: Vec<Option<Process>>,
}

impl Workers for Processes {
    fn spawn(&mut self, slot: usize, gen: u64) -> Result<(), String> {
        let gen_s = gen.to_string();
        let hb_ms = HEARTBEAT.as_millis().to_string();
        let mut child = Command::new(&self.cmd.exe)
            .args(&self.cmd.args)
            .args(["--gen", gen_s.as_str(), "--heartbeat-ms", hb_ms.as_str()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning pool worker: {e}"))?;
        // A dedicated writer per worker: an oversized job can never
        // stall the driver.
        let (stdin_tx, stdin_rx) = mpsc::channel::<String>();
        let mut stdin = child.stdin.take().expect("stdin was piped");
        let writer = std::thread::spawn(move || {
            for line in stdin_rx {
                if stdin
                    .write_all(line.as_bytes())
                    .and_then(|()| stdin.flush())
                    .is_err()
                {
                    return; // worker gone: its Gone event settles the job
                }
            }
            // Channel closed: dropping stdin EOFs the worker (clean exit).
        });
        let out_pipe = child.stdout.take().expect("stdout was piped");
        let tx = self.tx.clone();
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::new(out_pipe);
            let reason = loop {
                match read_frame(&mut r).map(|v| v.and_then(|v| PoolFrame::from_wire(&v))) {
                    None => break "worker stdout closed".to_string(),
                    Some(Err(e)) => break format!("worker protocol corruption: {e}"),
                    Some(Ok(frame)) => drop(tx.send(PoolInput::Frame(slot, gen, frame))),
                }
            };
            let _ = tx.send(PoolInput::Gone(slot, gen, reason));
        });
        let mut err_pipe = child.stderr.take().expect("stderr was piped");
        let stderr = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&stderr);
        let stderr_pump = std::thread::spawn(move || {
            let mut chunk = [0u8; 4096];
            while let Ok(n) = err_pipe.read(&mut chunk) {
                if n == 0 {
                    return;
                }
                let mut buf = lock_unpoisoned(&sink);
                if buf.len() < POOL_STDERR_CAP {
                    buf.extend_from_slice(&chunk[..n]);
                }
            }
        });
        self.procs[slot] = Some(Process {
            pid: child.id(),
            child,
            stdin: Some(stdin_tx),
            stderr,
            pumps: [writer, reader, stderr_pump],
        });
        Ok(())
    }

    fn send(&mut self, slot: usize, line: String) {
        // A send failure means the writer thread (hence the worker) is
        // already dead; the Gone event settles the job.
        if let Some(stdin) = self.procs[slot].as_ref().and_then(|p| p.stdin.as_ref()) {
            let _ = stdin.send(line);
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(p) = &mut self.procs[slot] {
            p.stdin = None;
        }
    }

    fn kill(&mut self, slot: usize) -> String {
        let Some(mut p) = self.procs[slot].take() else {
            return String::new();
        };
        p.stdin = None; // the writer thread exits on the closed channel
        let _ = p.child.kill();
        let _ = p.child.wait();
        for pump in p.pumps {
            let _ = pump.join();
        }
        let stderr = lock_unpoisoned(&p.stderr);
        stderr_excerpt(&String::from_utf8_lossy(&stderr))
    }
}

/// A supervised pool of **persistent** worker processes — the one way
/// a shard reaches a subprocess.
///
/// The pool keeps up to `cap` workers alive across jobs, speaking
/// [`PoolFrame`]s over stdio, and routes jobs to workers by
/// `cache_key` affinity — so a worker's process-wide compile caches
/// hit cross-shard and cross-job.
///
/// Its policy is a [`PoolCore`]: heartbeats and liveness, straggler
/// deadlines, generations that fence off late output from killed
/// workers, lazy restarts and the circuit breaker. One driver thread
/// owns the core and the processes: it blocks on one channel (jobs,
/// frames read by each worker's pump thread, worker ends, shutdown)
/// until the core's next timer, reads the clock once, steps the core,
/// publishes a [`PoolStats`] snapshot and sends the verdicts.
///
/// The pool tells jobs apart only by tag: retries, quarantine and
/// merging belong to the submitter (`mbqao-bench`'s `Scheduler`).
pub struct WorkerPool {
    tx: mpsc::Sender<PoolInput>,
    /// Behind a mutex so that one thread can wait for outcomes while
    /// another submits.
    outcomes: Mutex<mpsc::Receiver<PoolOutcome>>,
    driver: Option<JoinHandle<()>>,
    /// The stats and live worker pids the driver published last.
    published: Arc<Mutex<(PoolStats, Vec<u32>)>>,
}

impl WorkerPool {
    /// Starts the driver (workers spawn lazily on demand). `cmd` is
    /// the worker invocation *without* the supervision flags — the
    /// pool appends `--gen <g> --heartbeat-ms <ms>`.
    pub fn new(cmd: WorkerCommand, config: PoolConfig) -> WorkerPool {
        let (tx, rx) = mpsc::channel();
        let (out_tx, out_rx) = mpsc::channel();
        let published = Arc::new(Mutex::new((PoolStats::default(), Vec::new())));
        let mut core = PoolCore::new(config);
        let mut workers = Processes {
            cmd,
            tx: tx.clone(),
            procs: core.slots.iter().map(|_| None).collect(),
        };
        let shared = Arc::clone(&published);
        let driver = std::thread::spawn(move || {
            let mut now = Instant::now();
            while !core.finished() {
                // The driver holds a sender itself, so the channel never
                // disconnects.
                let input = match core.next_wake() {
                    None => rx.recv().unwrap_or(PoolInput::Shutdown),
                    Some(at) => rx
                        .recv_timeout(at.saturating_duration_since(now))
                        .unwrap_or(PoolInput::Wake),
                };
                now = Instant::now();
                let outcomes = core.step(now, input, &mut workers);
                // Published before the verdicts go out, so a caller that
                // has a verdict never reads older stats.
                let pids = workers.procs.iter().flatten().map(|p| p.pid).collect();
                *lock_unpoisoned(&shared) = (core.stats(), pids);
                for outcome in outcomes {
                    let _ = out_tx.send(outcome);
                }
            }
        });
        WorkerPool {
            tx,
            outcomes: Mutex::new(out_rx),
            driver: Some(driver),
            published,
        }
    }

    /// Enqueues a job. Returns the job back if the pool cannot take it
    /// (circuit open or driver gone); such a job was not run.
    pub fn submit(&self, job: PoolJob) -> Result<(), PoolJob> {
        if self.stats().tripped {
            return Err(job);
        }
        self.tx.send(PoolInput::Job(job)).map_err(|e| match e.0 {
            PoolInput::Job(job) => job,
            _ => unreachable!("send returns the sent message"),
        })
    }

    /// The next outcome in completion order (blocking). `None` only if
    /// the driver died.
    pub fn recv(&self) -> Option<PoolOutcome> {
        lock_unpoisoned(&self.outcomes).recv().ok()
    }

    /// Snapshot of the pool-lifetime counters.
    pub fn stats(&self) -> PoolStats {
        lock_unpoisoned(&self.published).0
    }

    /// OS pids of the currently live workers (for chaos tests that
    /// kill(-9) a worker mid-shard).
    pub fn live_pids(&self) -> Vec<u32> {
        lock_unpoisoned(&self.published).1.clone()
    }

    /// Stops the driver, shuts every worker down cleanly, and returns
    /// the final counters.
    pub fn shutdown(mut self) -> PoolStats {
        self.join_driver();
        self.stats()
    }

    fn join_driver(&mut self) {
        let _ = self.tx.send(PoolInput::Shutdown);
        if let Some(handle) = self.driver.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.join_driver();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(shard: Shard, payload: Vec<u64>) -> ShardResult<Vec<u64>> {
        ShardResult {
            provenance: Provenance {
                shard,
                backend: "test".into(),
                cache_hits: 0,
                cache_misses: 0,
            },
            payload,
        }
    }

    /// Payload for a range: the item indices themselves.
    fn payload_for(shard: Shard) -> Vec<u64> {
        (shard.start..shard.end).map(|i| i as u64).collect()
    }

    #[test]
    fn partition_covers_exactly() {
        for total in [0usize, 1, 5, 12, 100] {
            for shards in [1usize, 2, 3, 7, 12, 40] {
                let parts = Shard::partition(total, shards);
                assert_eq!(parts.len(), shards);
                let mut cursor = 0;
                for (i, s) in parts.iter().enumerate() {
                    assert_eq!(s.index, i);
                    assert_eq!(s.of, shards);
                    assert_eq!(s.total, total);
                    assert_eq!(s.start, cursor);
                    cursor = s.end;
                }
                assert_eq!(cursor, total);
                let lens: Vec<usize> = parts.iter().map(Shard::len).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "near-equal partition: {lens:?}");
            }
        }
    }

    #[test]
    fn any_arrival_order_completes() {
        let shards = Shard::partition(10, 4);
        for order in [[0usize, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]] {
            let mut m = Merger::new(10);
            for &i in &order {
                m.insert(result(shards[i], payload_for(shards[i]))).unwrap();
            }
            let parts = m.finish().unwrap();
            let flat: Vec<u64> = parts.into_iter().flat_map(|r| r.payload).collect();
            assert_eq!(flat, (0..10u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn duplicate_equal_is_idempotent_mismatch_is_not() {
        let shards = Shard::partition(6, 2);
        let mut m = Merger::new(6);
        m.insert(result(shards[0], payload_for(shards[0]))).unwrap();
        // Same range, same payload: fine.
        m.insert(result(shards[0], payload_for(shards[0]))).unwrap();
        // Same range, different payload: rejected, merger intact.
        let err = m.insert(result(shards[0], vec![9, 9, 9])).unwrap_err();
        assert_eq!(err, ShardError::DuplicateMismatch { range: (0, 3) });
        m.insert(result(shards[1], payload_for(shards[1]))).unwrap();
        assert!(m.is_complete());
    }

    #[test]
    fn overlap_is_rejected() {
        let mut m = Merger::new(10);
        let a = Shard {
            index: 0,
            of: 2,
            total: 10,
            start: 0,
            end: 6,
        };
        let b = Shard {
            index: 1,
            of: 3,
            total: 10,
            start: 4,
            end: 10,
        };
        m.insert(result(a, payload_for(a))).unwrap();
        let err = m.insert(result(b, payload_for(b))).unwrap_err();
        assert_eq!(
            err,
            ShardError::Overlap {
                held: (0, 6),
                incoming: (4, 10)
            }
        );
        // The failed insert left no trace.
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn malformed_ranges_are_rejected_in_release_builds_too() {
        let mut m = Merger::new(10);
        for (start, end) in [(4usize, 2usize), (8, 12), (11, 11)] {
            let bad = Shard {
                index: 0,
                of: 1,
                total: 10,
                start,
                end,
            };
            let err = m.insert(result(bad, vec![])).unwrap_err();
            assert_eq!(
                err,
                ShardError::InvalidRange {
                    range: (start, end),
                    total: 10
                }
            );
            assert!(m.is_empty(), "corrupt shard must not pollute the merger");
        }
    }

    #[test]
    fn missing_ranges_are_reported() {
        let shards = Shard::partition(12, 4);
        let mut m = Merger::new(12);
        m.insert(result(shards[1], payload_for(shards[1]))).unwrap();
        m.insert(result(shards[3], payload_for(shards[3]))).unwrap();
        assert_eq!(m.missing(), vec![(0, 3), (6, 9)]);
        match m.finish() {
            Err(ShardError::Incomplete { missing }) => {
                assert_eq!(missing, vec![(0, 3), (6, 9)]);
            }
            other => panic!("expected Incomplete, got {other:?}"),
        }
    }

    #[test]
    fn empty_shards_merge_away() {
        // More shards than items: trailing empty shards are legal.
        let shards = Shard::partition(3, 7);
        let mut m = Merger::new(3);
        for s in &shards {
            m.insert(result(*s, payload_for(*s))).unwrap();
        }
        assert!(m.is_complete());
        assert_eq!(m.len(), 3, "only the non-empty shards are held");
    }

    #[test]
    fn merge_of_mergers_is_union() {
        let shards = Shard::partition(9, 3);
        let mut a = Merger::new(9);
        a.insert(result(shards[0], payload_for(shards[0]))).unwrap();
        let mut b = Merger::new(9);
        b.insert(result(shards[2], payload_for(shards[2]))).unwrap();
        b.insert(result(shards[1], payload_for(shards[1]))).unwrap();
        let ab = a.clone().merge(b.clone()).unwrap();
        let ba = b.merge(a).unwrap();
        let flat = |m: Merger<Vec<u64>>| -> Vec<u64> {
            m.finish()
                .unwrap()
                .into_iter()
                .flat_map(|r| r.payload)
                .collect()
        };
        assert_eq!(flat(ab), flat(ba), "merge is commutative");
    }

    #[test]
    fn shard_round_trips_the_wire() {
        for s in Shard::partition(17, 5) {
            let v = s.to_wire();
            let parsed = Value::parse(&v.to_json()).unwrap();
            assert_eq!(Shard::from_wire(&parsed).unwrap(), s);
        }
    }

    #[test]
    fn shard_wire_decode_rejects_impossible_provenance() {
        // "shard 7 of 4" and out-of-range slices must never decode —
        // the invariants hold at the wire boundary, not just at
        // construction.
        let bad_index = Shard {
            index: 7,
            of: 4,
            total: 10,
            start: 0,
            end: 5,
        };
        assert!(Shard::from_wire(&bad_index.to_wire()).is_err());
        let bad_range = Shard {
            index: 0,
            of: 1,
            total: 10,
            start: 4,
            end: 14,
        };
        assert!(Shard::from_wire(&bad_range.to_wire()).is_err());
        let inverted = Shard {
            index: 0,
            of: 1,
            total: 10,
            start: 6,
            end: 2,
        };
        assert!(Shard::from_wire(&inverted.to_wire()).is_err());
    }

    #[test]
    fn synthetic_shards_keep_index_below_of() {
        let s = Shard::synthetic(7, 100, 40, 60);
        assert_eq!((s.index, s.of), (7, 8));
        assert_eq!((s.start, s.end, s.total), (40, 60, 100));
        // And they survive the (now validating) wire round trip.
        let parsed = Value::parse(&s.to_wire().to_json()).unwrap();
        assert_eq!(Shard::from_wire(&parsed).unwrap(), s);
    }

    #[test]
    fn retry_backoff_is_exponential_and_capped() {
        let policy = RetryPolicy::new(5, Duration::from_millis(10));
        assert_eq!(policy.backoff(1), Duration::from_millis(10));
        assert_eq!(policy.backoff(2), Duration::from_millis(20));
        assert_eq!(policy.backoff(3), Duration::from_millis(40));
        // Capped at 64 × base regardless of retry number.
        assert_eq!(policy.backoff(30), Duration::from_millis(640));
        assert_eq!(RetryPolicy::NONE.max_attempts, 1);
        assert_eq!(RetryPolicy::NONE.backoff(1), Duration::ZERO);
    }

    #[test]
    fn poisoned_mutex_recovers_instead_of_cascading() {
        let m = Arc::new(Mutex::new(41));
        let holder = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = holder.lock().unwrap();
            panic!("poison the mutex mid-critical-section");
        })
        .join();
        assert!(m.is_poisoned(), "the panicking holder poisoned the lock");
        // The protected value is still structurally valid — one bad
        // shard's panic must not cascade into every later locker.
        let mut guard = lock_unpoisoned(&m);
        *guard += 1;
        assert_eq!(*guard, 42);
    }

    // ---------------------------------------------- pool policy tests
    //
    // The core on virtual time: `Recorder` stands in for the processes
    // and `t0` is an arbitrary origin.

    fn pool_config(cap: usize) -> PoolConfig {
        PoolConfig {
            cap,
            job_deadline: None,
        }
    }

    fn pool_job(tag: u64, shard_index: usize, cache_key: &str) -> PoolJob {
        PoolJob {
            tag,
            shard_index,
            input: "job".into(),
            cache_key: cache_key.into(),
            delay: Duration::ZERO,
        }
    }

    /// Virtual workers that record what the core asks of them.
    #[derive(Default)]
    struct Recorder {
        spawned: Vec<(usize, u64)>,
        /// `(slot, gen)` of every job frame sent.
        sent: Vec<(usize, u64)>,
        killed: Vec<usize>,
    }

    impl Workers for Recorder {
        fn spawn(&mut self, slot: usize, gen: u64) -> Result<(), String> {
            self.spawned.push((slot, gen));
            Ok(())
        }
        fn send(&mut self, slot: usize, line: String) {
            let frame = PoolFrame::from_wire(&Value::parse(&line).unwrap()).unwrap();
            let PoolFrame::Job { gen, .. } = frame else {
                panic!("the core sends only job frames");
            };
            self.sent.push((slot, gen));
        }
        fn close(&mut self, _slot: usize) {}
        fn kill(&mut self, slot: usize) -> String {
            self.killed.push(slot);
            String::new()
        }
    }

    fn result_frame(gen: u64) -> PoolFrame {
        PoolFrame::Result {
            gen,
            body: "ok".into(),
        }
    }

    #[test]
    fn pool_reuses_workers_and_routes_by_cache_affinity() {
        let (t0, mut workers) = (Instant::now(), Recorder::default());
        let mut core = PoolCore::new(pool_config(2));
        let mut slot_of_key = std::collections::HashMap::new();
        for (tag, key) in ["alpha", "beta", "alpha", "beta"].iter().enumerate() {
            let at = t0 + Duration::from_millis(tag as u64);
            let job = PoolInput::Job(pool_job(tag as u64, tag, key));
            assert!(core.step(at, job, &mut workers).is_empty());
            let (slot, gen) = *workers.sent.last().expect("dispatched at once");
            let done = core.step(
                at,
                PoolInput::Frame(slot, gen, result_frame(gen)),
                &mut workers,
            );
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].tag, tag as u64);
            match slot_of_key.get(*key) {
                // Affinity: the same key lands on the same worker, so
                // its in-process caches would hit.
                Some(prev) => assert_eq!(*prev, slot, "key {key} routed to its warm worker"),
                None => {
                    slot_of_key.insert(key.to_string(), slot);
                }
            }
        }
        assert_ne!(
            slot_of_key["alpha"], slot_of_key["beta"],
            "two keys, two workers"
        );
        let stats = core.stats();
        assert_eq!(stats.spawned, 2, "workers persisted across 4 jobs");
        assert_eq!(stats.jobs_done, 4);
        assert_eq!(
            stats.affinity_hits, 2,
            "second job of each key was affinity-routed"
        );
        assert_eq!(stats.max_live, 2);
        assert_eq!(stats.restarts, 0);
    }

    #[test]
    fn silent_worker_is_liveness_killed() {
        let (t0, mut workers) = (Instant::now(), Recorder::default());
        let mut core = PoolCore::new(pool_config(1));
        assert!(core
            .step(t0, PoolInput::Job(pool_job(0, 3, "k")), &mut workers)
            .is_empty());
        assert_eq!(workers.spawned, [(0, 1)]);
        // A beat restarts the liveness clock; silence from then on
        // kills at exactly LIVENESS, busy or not.
        let beat = t0 + Duration::from_secs(1);
        let hb = PoolFrame::Heartbeat { gen: 1, busy: true };
        assert!(core
            .step(beat, PoolInput::Frame(0, 1, hb), &mut workers)
            .is_empty());
        assert_eq!(core.next_wake(), Some(beat + LIVENESS));
        let almost = beat + LIVENESS - Duration::from_millis(1);
        assert!(core.step(almost, PoolInput::Wake, &mut workers).is_empty());
        assert!(workers.killed.is_empty());
        let outcomes = core.step(beat + LIVENESS, PoolInput::Wake, &mut workers);
        match &outcomes[..] {
            [PoolOutcome {
                result: Err(ShardError::Worker { shard: 3, reason }),
                timed_out: false,
                circuit_open: false,
                ..
            }] => assert!(
                reason.contains("no heartbeat"),
                "liveness verdict: {reason}"
            ),
            other => panic!("expected a liveness kill, got {other:?}"),
        }
        assert_eq!(workers.killed, [0]);
        assert_eq!(core.stats().restarts, 1);
    }

    #[test]
    fn circuit_breaker_trips_after_the_restart_budget() {
        let (t0, mut workers) = (Instant::now(), Recorder::default());
        let mut core = PoolCore::new(pool_config(1));
        let jobs = MAX_RESTARTS as u64 + 3;
        for tag in 0..jobs {
            core.step(
                t0,
                PoolInput::Job(pool_job(tag, tag as usize, "k")),
                &mut workers,
            );
        }
        // One crash a second, each worker on its job: the ninth crash
        // inside the window trips the breaker.
        let mut outcomes = Vec::new();
        for death in 1..=MAX_RESTARTS as u64 + 1 {
            assert!(!core.stats().tripped, "tripped before death {death}");
            assert_eq!(workers.sent.last(), Some(&(0, death)));
            let gone = PoolInput::Gone(0, death, "worker stdout closed".into());
            outcomes.extend(core.step(t0 + Duration::from_secs(death), gone, &mut workers));
        }
        assert!(core.stats().tripped);
        assert_eq!(outcomes.len() as u64, jobs, "every job got one verdict");
        assert!(outcomes.iter().all(|o| o.result.is_err()));
        let open: Vec<u64> = outcomes
            .iter()
            .filter(|o| o.circuit_open)
            .map(|o| o.tag)
            .collect();
        assert_eq!(
            open,
            [jobs - 2, jobs - 1],
            "jobs queued past the ninth death fail fast"
        );
        // An open circuit refuses new work at once.
        let refused = core.step(t0, PoolInput::Job(pool_job(99, 9, "k")), &mut workers);
        assert!(refused.len() == 1 && refused[0].circuit_open);
        assert_eq!(core.stats().restarts, MAX_RESTARTS + 1);
    }

    // ---------------------------------------------- worker-pool tests
    //
    // Real processes through the driver. These sh(1) workers speak the
    // pool protocol by hand: the pool appends `--gen <g>
    // --heartbeat-ms <ms>` to the command, and `sh -c '<script>'` binds
    // those as $0..$3, so the worker's generation is `$1`. None of them
    // beat, so each test must finish well inside `LIVENESS`.

    /// Answers every job frame with a result frame carrying the job's
    /// own body: rewriting the frame's type tag keeps its generation
    /// and body byte for byte, at any body size.
    fn echo_body_worker() -> WorkerCommand {
        WorkerCommand::new(
            "sh",
            &["-c", r#"exec sed -u 's/^{"type":"job"/{"type":"result"/'"#],
        )
    }

    /// Reads one job, prints a marker to stderr, and dies.
    fn crashing_worker() -> WorkerCommand {
        WorkerCommand::new("sh", &["-c", "read -r line; echo poisonous >&2; exit 1"])
    }

    #[test]
    fn a_tripped_pool_refuses_submit_synchronously() {
        let pool = WorkerPool::new(crashing_worker(), pool_config(1));
        let jobs = MAX_RESTARTS as u64 + 3;
        let taken = (0..jobs)
            .filter(|&tag| pool.submit(pool_job(tag, tag as usize, "k")).is_ok())
            .count();
        let outcomes: Vec<PoolOutcome> = (0..taken).map(|_| pool.recv().expect("alive")).collect();
        assert!(outcomes.iter().all(|o| o.result.is_err()));
        let crashes = outcomes.iter().filter(|o| !o.circuit_open).count();
        assert_eq!(
            crashes,
            MAX_RESTARTS + 1,
            "the ninth crash trips the breaker"
        );
        assert!(pool.stats().tripped);
        // An open circuit refuses new work synchronously.
        assert!(pool.submit(pool_job(99, 99, "k")).is_err());
        let stats = pool.shutdown();
        assert!(stats.tripped);
        assert_eq!(stats.restarts, MAX_RESTARTS + 1);
    }

    #[test]
    fn dead_worker_failure_names_shard_and_pool_restarts() {
        let pool = WorkerPool::new(crashing_worker(), pool_config(1));
        for (tag, shard_index) in [(0u64, 5usize), (1, 6)] {
            pool.submit(pool_job(tag, shard_index, "k"))
                .expect("pool accepts");
            let outcome = pool.recv().expect("supervisor alive");
            assert!(!outcome.timed_out && !outcome.circuit_open);
            match outcome.result {
                Err(ShardError::Worker { shard, reason }) => {
                    assert_eq!(shard, shard_index);
                    assert!(
                        reason.contains("poisonous"),
                        "stderr excerpt surfaced: {reason}"
                    );
                }
                other => panic!("expected a worker death, got {other:?}"),
            }
        }
        let stats = pool.shutdown();
        assert_eq!(
            stats.spawned, 2,
            "a replacement worker was spawned after the death"
        );
        assert_eq!(stats.restarts, 2);
        assert!(!stats.tripped);
    }

    #[test]
    fn failed_worker_names_shard_in_completion_order_drain() {
        // Both jobs are in flight at once on two workers, so their
        // deaths arrive in whichever order they happen: each outcome,
        // drained as it completes, must still name its own shard.
        let failer = WorkerCommand::new("sh", &["-c", "read -r line; echo boom >&2; exit 3"]);
        let pool = WorkerPool::new(failer, pool_config(2));
        let shard_of_tag = [(0u64, 0usize), (1, 1)];
        for (tag, shard_index) in shard_of_tag {
            pool.submit(pool_job(tag, shard_index, &format!("key{tag}")))
                .expect("pool accepts");
        }
        let mut seen = [false; 2];
        for _ in 0..2 {
            let outcome = pool.recv().expect("supervisor alive");
            let index = shard_of_tag[outcome.tag as usize].1;
            match outcome.result {
                Err(ShardError::Worker { shard, reason }) => {
                    assert_eq!(shard, index);
                    assert!(reason.contains("boom"), "stderr excerpt surfaced: {reason}");
                }
                other => panic!("expected failure, got {other:?}"),
            }
            seen[index] = true;
        }
        assert!(seen.iter().all(|s| *s), "every shard got a verdict");
        let stats = pool.shutdown();
        assert!(stats.max_live <= 2);
        assert!(!stats.tripped);
    }

    #[test]
    fn pool_bounds_live_workers_and_echoes_every_job() {
        let pool = WorkerPool::new(echo_body_worker(), pool_config(2));
        let jobs = 7usize;
        for tag in 0..jobs {
            pool.submit(PoolJob {
                input: format!("job {tag}"),
                ..pool_job(tag as u64, tag, "k")
            })
            .expect("pool accepts");
        }
        let mut seen = vec![false; jobs];
        for _ in 0..jobs {
            let outcome = pool.recv().expect("one outcome per job");
            assert_eq!(
                outcome.result.as_deref().unwrap(),
                format!("job {}", outcome.tag)
            );
            assert!(!outcome.timed_out);
            seen[outcome.tag as usize] = true;
        }
        let stats = pool.shutdown();
        assert!(seen.iter().all(|s| *s), "every job got a verdict");
        assert_eq!(stats.jobs_done, jobs);
        assert!(
            stats.max_live <= 2,
            "cap 2 exceeded: {} live workers observed",
            stats.max_live
        );
    }

    #[test]
    fn oversized_job_spec_round_trips_without_blocking_submit() {
        // 1 MiB ≫ any pipe buffer: the per-worker writer thread makes
        // submission O(1) however long the worker takes to read it.
        let big = "x".repeat(1 << 20);
        let pool = WorkerPool::new(echo_body_worker(), pool_config(2));
        let t0 = Instant::now();
        for tag in 0..3u64 {
            pool.submit(PoolJob {
                input: big.clone(),
                ..pool_job(tag, tag as usize, "k")
            })
            .expect("pool accepts");
        }
        let submit_elapsed = t0.elapsed();
        for _ in 0..3 {
            let outcome = pool.recv().expect("supervisor alive");
            assert_eq!(outcome.result.unwrap().len(), big.len());
        }
        // Submission only enqueues; generous bound to stay jitter-proof.
        assert!(
            submit_elapsed < Duration::from_secs(5),
            "submission must not block on stdin writes"
        );
    }

    #[test]
    fn straggler_deadline_kills_and_flags_timeout() {
        let config = PoolConfig {
            cap: 1,
            job_deadline: Some(Duration::from_millis(50)),
        };
        // Accepts the job, then computes "forever" (exec: the kill
        // reaches the sleeping process itself).
        let sleeper = WorkerCommand::new("sh", &["-c", "read -r line; exec sleep 30"]);
        let pool = WorkerPool::new(sleeper, config);
        pool.submit(pool_job(9, 4, "k")).expect("pool accepts");
        let outcome = pool.recv().expect("supervisor alive");
        assert_eq!(outcome.tag, 9);
        assert!(outcome.timed_out, "deadline must flag the straggler");
        assert!(!outcome.circuit_open);
        match outcome.result {
            Err(ShardError::Worker { shard, reason }) => {
                assert_eq!(shard, 4);
                assert!(
                    reason.contains("straggler"),
                    "reason names the kill: {reason}"
                );
            }
            other => panic!("expected a worker error, got {other:?}"),
        }
        let stats = pool.shutdown();
        assert_eq!(stats.restarts, 1, "the straggler's worker was reaped");
        assert!(!stats.tripped, "a deadline kill does not feed the breaker");
    }
}
