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
//! never delays the verdicts of shards that finished behind it. Job
//! frames are written by a dedicated writer thread per worker, so an
//! oversized job can never stall the scheduling loop. A worker that
//! dies or emits a truncated stream surfaces as a
//! [`ShardError::Worker`] naming the shard; the merger is never
//! polluted by a failed shard, so retrying just that shard and
//! inserting its result is always safe.
//! [`RetryPolicy`] supplies the exponential backoff the scheduling
//! layers apply between attempts, and an optional per-job deadline
//! ([`PoolConfig::job_deadline`]) lets an orchestrator kill and
//! re-partition stragglers.

use super::wire::{read_frame, PoolFrame, Value, WireError};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
        assert!(shards > 0, "need at least one shard");
        let base = total / shards;
        let extra = total % shards;
        let mut start = 0usize;
        (0..shards)
            .map(|index| {
                let len = base + usize::from(index < extra);
                let s = Shard {
                    index,
                    of: shards,
                    total,
                    start,
                    end: start + len,
                };
                start += len;
                s
            })
            .collect()
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
    /// Delay before the first retry.
    pub base: Duration,
    /// Multiplier applied per further retry (exponential backoff).
    pub factor: u32,
    /// Ceiling on any single backoff delay.
    pub max: Duration,
}

impl RetryPolicy {
    /// No retries: every shard gets exactly one attempt.
    pub const NONE: RetryPolicy = RetryPolicy {
        max_attempts: 1,
        base: Duration::ZERO,
        factor: 2,
        max: Duration::ZERO,
    };

    /// `max_attempts` attempts with doubling backoff starting at
    /// `base`, capped at 64 × `base`.
    pub fn new(max_attempts: u32, base: Duration) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base,
            factor: 2,
            max: base.saturating_mul(64),
        }
    }

    /// The delay before retry number `retry` (1-based: the delay
    /// between the first failure and the second attempt is
    /// `backoff(1) = base`).
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = retry.saturating_sub(1).min(16);
        let mult = self.factor.saturating_pow(exp);
        self.base.saturating_mul(mult).min(self.max)
    }
}

/// The default worker cap: the host's available parallelism.
pub fn default_worker_cap() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// Every mutex in this module protects state that stays structurally
/// valid across a panic (a stderr buffer, the pid list, the dead
/// letters) — there is no invariant a half-finished critical section
/// could have broken. Propagating the poison would instead cascade one
/// worker's panic across every thread that touches the lock afterwards,
/// which is exactly the blast radius the pool design bounds to a single
/// shard.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------- supervised worker pool

/// Supervision knobs for a [`WorkerPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Maximum simultaneously live worker processes.
    pub cap: usize,
    /// Interval at which workers are told to beat (passed to the
    /// worker as `--heartbeat-ms`).
    pub heartbeat: Duration,
    /// A worker that produces **no frame at all** (heartbeat or
    /// result) for this long is sick — hung, stopped, deadlocked — and
    /// is killed and restarted. Must comfortably exceed `heartbeat`
    /// plus worker startup time.
    pub liveness: Duration,
    /// Optional per-job straggler deadline: a worker still computing
    /// one job past this is killed and the job reported with
    /// `timed_out = true` (the orchestrator's cue to re-partition).
    /// Distinct from `liveness`: a straggler still beats; a sick
    /// worker doesn't.
    pub job_deadline: Option<Duration>,
    /// Poison-shard quarantine threshold: a shard whose job kills this
    /// many successive workers is dead-lettered instead of retried
    /// forever (a completed job for the shard resets its count).
    pub quarantine_after: u32,
    /// Circuit breaker: more than this many unexpected worker deaths
    /// inside `restart_window` trips the pool — every queued and
    /// in-flight job fails fast with `circuit_open = true` and further
    /// submissions are refused, so a systemically crashing worker
    /// binary fails its jobs fast instead of fork-bombing the host.
    pub max_restarts: usize,
    /// Sliding window for `max_restarts`.
    pub restart_window: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            cap: default_worker_cap(),
            heartbeat: Duration::from_millis(100),
            liveness: Duration::from_secs(5),
            job_deadline: None,
            quarantine_after: 3,
            max_restarts: 8,
            restart_window: Duration::from_secs(30),
        }
    }
}

/// One job for the pool: an opaque job description for shard
/// `shard_index`, tagged so the submitter can correlate the outcome
/// (the same shard may be in flight more than once across retries),
/// plus the `cache_key` the dispatcher routes on (jobs with the same
/// key prefer the worker that last ran that key, so process-wide
/// compile caches hit cross-shard and cross-job).
#[derive(Debug, Clone)]
pub struct PoolJob {
    /// Caller's correlation tag, echoed in the outcome.
    pub tag: u64,
    /// Which shard this job computes (quarantine is keyed on this).
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
    /// Wall-clock from dispatch to verdict.
    pub elapsed: Duration,
    /// The worker was killed by the per-job straggler deadline.
    pub timed_out: bool,
    /// The job's shard hit the poison-shard quarantine threshold; it
    /// is dead-lettered and must not be retried as-is.
    pub quarantined: bool,
    /// The pool's restart-rate circuit breaker is open; the job was
    /// not (fully) attempted, and the pool takes no further work.
    pub circuit_open: bool,
}

/// A quarantined shard's tombstone: which shard, how many workers it
/// killed, and the last corpse's stderr excerpt for diagnosis.
#[derive(Debug, Clone)]
pub struct DeadLetter {
    /// The poisonous shard index.
    pub shard_index: usize,
    /// How many successive workers it killed.
    pub kills: u32,
    /// Stderr excerpt from the final kill.
    pub stderr: String,
}

/// Pool-lifetime counters (monotonic; safe to snapshot and diff).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Shards dead-lettered by quarantine.
    pub quarantined: usize,
    /// Whether the circuit breaker has tripped.
    pub tripped: bool,
}

#[derive(Default)]
struct PoolShared {
    spawned: AtomicUsize,
    restarts: AtomicUsize,
    live: AtomicUsize,
    max_live: AtomicUsize,
    stale_frames: AtomicUsize,
    heartbeats: AtomicUsize,
    affinity_hits: AtomicUsize,
    jobs_done: AtomicUsize,
    quarantined: AtomicUsize,
    tripped: AtomicBool,
    pids: Mutex<Vec<(usize, u32)>>,
    dead_letters: Mutex<Vec<DeadLetter>>,
}

/// Supervisor-loop inbox: everything that can happen to the pool
/// funnels through one channel, so slot state is owned by exactly one
/// thread and needs no locking.
enum SupMsg {
    Job(PoolJob),
    Frame {
        slot: usize,
        gen: u64,
        frame: PoolFrame,
    },
    Gone {
        slot: usize,
        gen: u64,
        reason: String,
    },
    Shutdown,
}

enum SlotState {
    /// No live worker (initial, or after a death/shutdown).
    Vacant,
    /// Worker alive, waiting for a job.
    Idle,
    /// Worker computing `Slot::job`.
    Busy,
}

/// Why a worker is being reaped — decides which counters the death
/// feeds.
#[derive(Clone, Copy, PartialEq, Eq)]
enum DeathKind {
    /// Unexpected exit / protocol corruption: counts toward the
    /// circuit breaker and (if busy) the shard's quarantine tally.
    Crash,
    /// Killed for missing the liveness deadline: same accounting as a
    /// crash — a hung worker is a sick worker.
    Liveness,
    /// Killed by the per-job straggler deadline: a *policy* kill. The
    /// job reports `timed_out` (re-partition cue); the death counts as
    /// a restart but neither trips the breaker nor poisons the shard.
    Deadline,
}

struct Slot {
    /// Generation of the worker currently (or last) occupying the
    /// slot. Frames carrying any other generation are stale.
    gen: u64,
    state: SlotState,
    child: Option<Child>,
    /// Feeds the dedicated stdin writer thread; dropping it closes the
    /// worker's stdin (its cue for a clean exit).
    job_tx: Option<mpsc::Sender<String>>,
    stderr: Arc<Mutex<Vec<u8>>>,
    pumps: Vec<JoinHandle<()>>,
    last_seen: Instant,
    busy_since: Instant,
    /// `cache_key` of the last job this worker completed.
    last_key: Option<String>,
    /// The in-flight job (state == Busy).
    job: Option<PoolJob>,
}

impl Slot {
    fn vacant() -> Slot {
        Slot {
            gen: 0,
            state: SlotState::Vacant,
            child: None,
            job_tx: None,
            stderr: Arc::new(Mutex::new(Vec::new())),
            pumps: Vec::new(),
            last_seen: Instant::now(),
            busy_since: Instant::now(),
            last_key: None,
            job: None,
        }
    }
}

/// Cap on the retained stderr of a live pool worker (only an excerpt
/// is ever reported; an endlessly chatty worker must not grow memory).
const POOL_STDERR_CAP: usize = 64 * 1024;

/// Fairness bound shared by every cache-affinity scheduler in the
/// stack (the pool's slot dispatch and the serve layer's job/shard
/// pickers): at most this many *consecutive* picks may bypass the FIFO
/// head for a warm cache key before the head runs unconditionally. A
/// sustained stream of one key therefore delays any other tenant by at
/// most `AFFINITY_STREAK_BOUND` picks instead of forever.
pub const AFFINITY_STREAK_BOUND: usize = 4;

struct PoolSupervisor {
    cmd: WorkerCommand,
    config: PoolConfig,
    slots: Vec<Slot>,
    queue: VecDeque<PoolJob>,
    delayed: Vec<(Instant, PoolJob)>,
    /// Successive worker kills per shard index (cleared on success),
    /// with the last corpse's stderr excerpt.
    deaths: HashMap<usize, (u32, String)>,
    /// Consecutive affinity-routed (non-FIFO-head) picks; bounded by
    /// [`AFFINITY_STREAK_BOUND`] so a warm cache key can never starve
    /// the rest of the queue.
    affinity_streak: usize,
    /// Timestamps of breaker-relevant deaths inside `restart_window`.
    breaker: VecDeque<Instant>,
    next_gen: u64,
    out_tx: mpsc::Sender<PoolOutcome>,
    sup_tx: mpsc::Sender<SupMsg>,
    shared: Arc<PoolShared>,
}

impl PoolSupervisor {
    fn run(mut self, sup_rx: mpsc::Receiver<SupMsg>) {
        // The tick drives liveness checks, straggler deadlines, and
        // delayed (backoff) dispatch; every worker frame also wakes
        // the loop, so a healthy pool ticks at heartbeat rate anyway.
        let tick = Duration::from_millis(10);
        loop {
            match sup_rx.recv_timeout(tick) {
                Ok(SupMsg::Job(job)) => self.on_job(job),
                Ok(SupMsg::Frame { slot, gen, frame }) => self.on_frame(slot, gen, frame),
                Ok(SupMsg::Gone { slot, gen, reason }) => self.on_gone(slot, gen, &reason),
                Ok(SupMsg::Shutdown) | Err(mpsc::RecvTimeoutError::Disconnected) => break,
                Err(mpsc::RecvTimeoutError::Timeout) => {}
            }
            self.tick_deadlines();
            self.dispatch();
        }
        self.shutdown_workers();
    }

    fn on_job(&mut self, job: PoolJob) {
        if self.shared.tripped.load(Ordering::SeqCst) {
            self.fail_job(job, None, false, true);
        } else if job.delay.is_zero() {
            self.queue.push_back(job);
        } else {
            self.delayed.push((Instant::now() + job.delay, job));
        }
    }

    fn on_frame(&mut self, slot: usize, gen: u64, frame: PoolFrame) {
        let s = &mut self.slots[slot];
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
        if gen != s.gen || frame_gen != s.gen || s.child.is_none() {
            self.shared.stale_frames.fetch_add(1, Ordering::Relaxed);
            return;
        }
        s.last_seen = Instant::now();
        match frame {
            PoolFrame::Heartbeat { .. } => {
                self.shared.heartbeats.fetch_add(1, Ordering::Relaxed);
            }
            PoolFrame::Result { body, .. } => match s.job.take() {
                Some(job) => {
                    s.state = SlotState::Idle;
                    s.last_key = Some(job.cache_key.clone());
                    let elapsed = s.busy_since.elapsed();
                    self.deaths.remove(&job.shard_index);
                    self.shared.jobs_done.fetch_add(1, Ordering::Relaxed);
                    let _ = self.out_tx.send(PoolOutcome {
                        tag: job.tag,
                        shard_index: job.shard_index,
                        result: Ok(body),
                        elapsed,
                        timed_out: false,
                        quarantined: false,
                        circuit_open: false,
                    });
                }
                // A result with no job in flight is protocol
                // corruption — kill the worker rather than guess.
                None => self.reap(slot, DeathKind::Crash, "unsolicited result frame"),
            },
            PoolFrame::Job { .. } => self.reap(slot, DeathKind::Crash, "worker sent a job frame"),
        }
    }

    fn on_gone(&mut self, slot: usize, gen: u64, reason: &str) {
        if self.slots[slot].gen != gen || self.slots[slot].child.is_none() {
            return; // already reaped (or a stale pump's report)
        }
        self.reap(slot, DeathKind::Crash, reason);
    }

    fn tick_deadlines(&mut self) {
        let now = Instant::now();
        for i in 0..self.slots.len() {
            if self.slots[i].child.is_none() {
                continue;
            }
            if now.duration_since(self.slots[i].last_seen) > self.config.liveness {
                let msg = format!("no heartbeat within {:?}", self.config.liveness);
                self.reap(i, DeathKind::Liveness, &msg);
            } else if let (SlotState::Busy, Some(deadline)) =
                (&self.slots[i].state, self.config.job_deadline)
            {
                if self.slots[i].busy_since.elapsed() > deadline {
                    let msg = format!("straggler killed after exceeding its {deadline:?} deadline");
                    self.reap(i, DeathKind::Deadline, &msg);
                }
            }
        }
    }

    /// Kills and reaps the worker in `slot`, settles its in-flight job
    /// per `kind`, and applies restart/breaker/quarantine accounting.
    fn reap(&mut self, slot: usize, kind: DeathKind, reason: &str) {
        let s = &mut self.slots[slot];
        let Some(mut child) = s.child.take() else {
            return;
        };
        s.job_tx = None; // writer thread exits on the closed channel
        let _ = child.kill();
        let _ = child.wait();
        for pump in s.pumps.drain(..) {
            let _ = pump.join();
        }
        let excerpt = stderr_excerpt(&String::from_utf8_lossy(&lock_unpoisoned(&s.stderr)));
        s.state = SlotState::Vacant;
        s.last_key = None;
        let job = s.job.take();
        self.shared.live.fetch_sub(1, Ordering::SeqCst);
        self.shared.restarts.fetch_add(1, Ordering::Relaxed);
        lock_unpoisoned(&self.shared.pids).retain(|(i, _)| *i != slot);
        let reason = if excerpt.is_empty() {
            reason.to_string()
        } else {
            format!("{reason}; stderr: {excerpt}")
        };
        if kind != DeathKind::Deadline {
            self.breaker_event();
        }
        if let Some(job) = job {
            match kind {
                DeathKind::Deadline => self.fail_job(job, Some(&reason), true, false),
                DeathKind::Crash | DeathKind::Liveness => {
                    let entry = self
                        .deaths
                        .entry(job.shard_index)
                        .or_insert((0, String::new()));
                    entry.0 += 1;
                    entry.1 = reason.clone();
                    if entry.0 >= self.config.quarantine_after {
                        self.quarantine(job);
                    } else {
                        self.fail_job(job, Some(&reason), false, false);
                    }
                }
            }
        }
    }

    /// Records one breaker-relevant death; trips the breaker when the
    /// sliding window overflows.
    fn breaker_event(&mut self) {
        let now = Instant::now();
        self.breaker.push_back(now);
        while let Some(front) = self.breaker.front() {
            if now.duration_since(*front) > self.config.restart_window {
                self.breaker.pop_front();
            } else {
                break;
            }
        }
        if self.breaker.len() > self.config.max_restarts {
            self.trip();
        }
    }

    /// Opens the circuit: kills every worker, fails every queued,
    /// delayed, and in-flight job fast with `circuit_open = true`.
    fn trip(&mut self) {
        if self.shared.tripped.swap(true, Ordering::SeqCst) {
            return;
        }
        for i in 0..self.slots.len() {
            let s = &mut self.slots[i];
            if let Some(mut child) = s.child.take() {
                s.job_tx = None;
                let _ = child.kill();
                let _ = child.wait();
                for pump in s.pumps.drain(..) {
                    let _ = pump.join();
                }
                s.state = SlotState::Vacant;
                s.last_key = None;
                self.shared.live.fetch_sub(1, Ordering::SeqCst);
                if let Some(job) = s.job.take() {
                    self.fail_job(job, None, false, true);
                }
            }
        }
        lock_unpoisoned(&self.shared.pids).clear();
        for job in std::mem::take(&mut self.queue) {
            self.fail_job(job, None, false, true);
        }
        for (_, job) in std::mem::take(&mut self.delayed) {
            self.fail_job(job, None, false, true);
        }
    }

    /// Dead-letters `job`'s shard and reports the quarantined outcome.
    fn quarantine(&mut self, job: PoolJob) {
        let (kills, stderr) = self
            .deaths
            .get(&job.shard_index)
            .cloned()
            .unwrap_or((self.config.quarantine_after, String::new()));
        self.shared.quarantined.fetch_add(1, Ordering::Relaxed);
        lock_unpoisoned(&self.shared.dead_letters).push(DeadLetter {
            shard_index: job.shard_index,
            kills,
            stderr: stderr.clone(),
        });
        let reason = format!(
            "shard {} quarantined after killing {kills} workers; last stderr: {stderr}",
            job.shard_index
        );
        let _ = self.out_tx.send(PoolOutcome {
            tag: job.tag,
            shard_index: job.shard_index,
            result: Err(ShardError::Worker {
                shard: job.shard_index,
                reason,
            }),
            elapsed: Duration::ZERO,
            timed_out: false,
            quarantined: true,
            circuit_open: false,
        });
    }

    fn fail_job(&self, job: PoolJob, reason: Option<&str>, timed_out: bool, circuit_open: bool) {
        let reason = match reason {
            Some(r) => r.to_string(),
            None if circuit_open => format!(
                "worker pool circuit breaker open (> {} worker deaths within {:?})",
                self.config.max_restarts, self.config.restart_window
            ),
            None => "worker pool shut down".to_string(),
        };
        let _ = self.out_tx.send(PoolOutcome {
            tag: job.tag,
            shard_index: job.shard_index,
            result: Err(ShardError::Worker {
                shard: job.shard_index,
                reason,
            }),
            elapsed: Duration::ZERO,
            timed_out,
            quarantined: false,
            circuit_open,
        });
    }

    /// Assigns queued jobs to workers: affinity first (an idle worker
    /// whose `last_key` matches a queued job's `cache_key`), then a
    /// fresh spawn into a vacant slot (never evict a warm cache while
    /// capacity remains), then any idle worker.
    fn dispatch(&mut self) {
        // Promote delayed (backoff) jobs whose time has come.
        let now = Instant::now();
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= now {
                let (_, job) = self.delayed.swap_remove(i);
                self.queue.push_back(job);
            } else {
                i += 1;
            }
        }
        loop {
            if self.queue.is_empty() || self.shared.tripped.load(Ordering::SeqCst) {
                return;
            }
            // Already-quarantined shards fail fast instead of
            // re-running a known poison job.
            if let Some(pos) = self.queue.iter().position(|job| {
                self.deaths
                    .get(&job.shard_index)
                    .is_some_and(|(kills, _)| *kills >= self.config.quarantine_after)
            }) {
                let job = self.queue.remove(pos).expect("position is in range");
                self.quarantine(job);
                continue;
            }
            let mut pick = None;
            // Affinity picks that bypass the FIFO head are bounded: a
            // sustained stream of one cache key must not starve queued
            // work behind it (the head itself matching counts as FIFO).
            if self.affinity_streak < AFFINITY_STREAK_BOUND {
                'affinity: for (si, slot) in self.slots.iter().enumerate() {
                    if let (SlotState::Idle, Some(key)) = (&slot.state, &slot.last_key) {
                        if let Some(j) = self.queue.iter().position(|job| job.cache_key == *key) {
                            pick = Some((si, j, true));
                            break 'affinity;
                        }
                    }
                }
            }
            if pick.is_none() {
                if let Some(si) = self
                    .slots
                    .iter()
                    .position(|s| matches!(s.state, SlotState::Vacant))
                {
                    match self.spawn_slot(si) {
                        Ok(()) => pick = Some((si, 0, false)),
                        Err(reason) => {
                            // A spawn failure is a pool-level fault:
                            // fail the head job, feed the breaker (a
                            // system that can't exec degrades fast).
                            let job = self.queue.pop_front().expect("queue non-empty");
                            self.fail_job(job, Some(&reason), false, false);
                            self.breaker_event();
                            continue;
                        }
                    }
                } else if let Some(si) = self
                    .slots
                    .iter()
                    .position(|s| matches!(s.state, SlotState::Idle))
                {
                    pick = Some((si, 0, false));
                }
            }
            let Some((si, j, affinity)) = pick else {
                return; // every worker busy: wait for a verdict
            };
            let job = self.queue.remove(j).expect("picked index is in range");
            if affinity {
                self.shared.affinity_hits.fetch_add(1, Ordering::Relaxed);
            }
            // Only picks that bypassed the head extend the streak; a
            // head pick (affinity or not) advances the FIFO and resets.
            if affinity && j > 0 {
                self.affinity_streak += 1;
            } else {
                self.affinity_streak = 0;
            }
            self.assign(si, job);
        }
    }

    fn assign(&mut self, slot: usize, job: PoolJob) {
        let s = &mut self.slots[slot];
        let mut frame = PoolFrame::Job {
            gen: s.gen,
            body: job.input.clone(),
        }
        .to_wire()
        .to_json();
        frame.push('\n'); // frames are newline-delimited
                          // A send failure means the writer thread (hence worker) is
                          // already dead; leave the slot Busy holding the job — the Gone
                          // event settles it through the normal death path.
        if let Some(tx) = &s.job_tx {
            let _ = tx.send(frame);
        }
        let now = Instant::now();
        s.state = SlotState::Busy;
        s.busy_since = now;
        s.last_seen = now;
        s.job = Some(job);
    }

    /// Spawns a fresh worker generation into `slot`.
    fn spawn_slot(&mut self, slot: usize) -> Result<(), String> {
        self.next_gen += 1;
        let gen = self.next_gen;
        let gen_s = gen.to_string();
        let hb_ms = self.config.heartbeat.as_millis().max(1).to_string();
        let mut child = Command::new(&self.cmd.exe)
            .args(&self.cmd.args)
            .args(["--gen", gen_s.as_str(), "--heartbeat-ms", hb_ms.as_str()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning pool worker: {e}"))?;
        let pid = child.id();
        let (job_tx, job_rx) = mpsc::channel::<String>();
        let mut stdin = child.stdin.take().expect("stdin was piped");
        let writer = std::thread::spawn(move || {
            while let Ok(line) = job_rx.recv() {
                if stdin
                    .write_all(line.as_bytes())
                    .and_then(|()| stdin.flush())
                    .is_err()
                {
                    return; // worker gone: its Gone event handles the job
                }
            }
            // Channel closed: dropping stdin EOFs the worker (clean exit).
        });
        let out_pipe = child.stdout.take().expect("stdout was piped");
        let sup_tx = self.sup_tx.clone();
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::new(out_pipe);
            loop {
                match read_frame(&mut r) {
                    None => {
                        let _ = sup_tx.send(SupMsg::Gone {
                            slot,
                            gen,
                            reason: "worker stdout closed".into(),
                        });
                        return;
                    }
                    Some(Err(e)) => {
                        let _ = sup_tx.send(SupMsg::Gone {
                            slot,
                            gen,
                            reason: format!("worker protocol corruption: {e}"),
                        });
                        return;
                    }
                    Some(Ok(value)) => match PoolFrame::from_wire(&value) {
                        Ok(frame) => {
                            if sup_tx.send(SupMsg::Frame { slot, gen, frame }).is_err() {
                                return;
                            }
                        }
                        Err(e) => {
                            let _ = sup_tx.send(SupMsg::Gone {
                                slot,
                                gen,
                                reason: format!("worker protocol corruption: {e}"),
                            });
                            return;
                        }
                    },
                }
            }
        });
        let mut err_pipe = child.stderr.take().expect("stderr was piped");
        let stderr_buf = Arc::new(Mutex::new(Vec::new()));
        let stderr_sink = Arc::clone(&stderr_buf);
        let stderr = std::thread::spawn(move || {
            let mut chunk = [0u8; 4096];
            while let Ok(n) = err_pipe.read(&mut chunk) {
                if n == 0 {
                    return;
                }
                let mut buf = lock_unpoisoned(&stderr_sink);
                if buf.len() < POOL_STDERR_CAP {
                    buf.extend_from_slice(&chunk[..n]);
                }
            }
        });
        let s = &mut self.slots[slot];
        s.gen = gen;
        s.state = SlotState::Idle;
        s.child = Some(child);
        s.job_tx = Some(job_tx);
        s.stderr = stderr_buf;
        s.pumps = vec![writer, reader, stderr];
        s.last_seen = Instant::now();
        s.last_key = None;
        s.job = None;
        self.shared.spawned.fetch_add(1, Ordering::Relaxed);
        let live = self.shared.live.fetch_add(1, Ordering::SeqCst) + 1;
        self.shared.max_live.fetch_max(live, Ordering::SeqCst);
        lock_unpoisoned(&self.shared.pids).push((slot, pid));
        Ok(())
    }

    /// Clean shutdown: close every worker's stdin (their cue to exit),
    /// give them a grace period, then kill stragglers. In-flight jobs
    /// (there are none in normal operation — callers drain first) fail
    /// with a named shutdown error rather than hanging the caller.
    fn shutdown_workers(&mut self) {
        // Close every worker's stdin (via its writer thread) before
        // waiting on any, so they all exit during one grace period.
        for s in &mut self.slots {
            s.job_tx = None;
        }
        let deadline = Instant::now() + Duration::from_millis(500);
        for i in 0..self.slots.len() {
            let s = &mut self.slots[i];
            let Some(mut child) = s.child.take() else {
                continue;
            };
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() >= deadline => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                    // A worker exits within about a millisecond of its
                    // stdin closing; a coarser poll would dominate the
                    // teardown of a short-lived private pool.
                    Ok(None) => std::thread::sleep(Duration::from_micros(200)),
                    Err(_) => break,
                }
            }
            for pump in s.pumps.drain(..) {
                let _ = pump.join();
            }
            self.shared.live.fetch_sub(1, Ordering::SeqCst);
            if let Some(job) = s.job.take() {
                self.fail_job(job, None, false, false);
            }
        }
        lock_unpoisoned(&self.shared.pids).clear();
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
/// The supervisor thread owns all worker state and provides the
/// robustness layer:
///
/// * **heartbeats & liveness** — workers beat on a side thread even
///   while computing; a worker silent past the liveness deadline is
///   killed and replaced;
/// * **generations** — every spawn gets a fresh generation counter and
///   frames from any other generation are discarded, so late output
///   from a killed worker can never corrupt a result;
/// * **restart + circuit breaker** — dead workers are respawned
///   lazily, but more than `max_restarts` deaths inside
///   `restart_window` opens the circuit and fails everything fast
///   (every outcome carries `circuit_open`, and the circuit stays
///   open);
/// * **poison-shard quarantine** — a shard that kills
///   `quarantine_after` successive workers is dead-lettered
///   ([`WorkerPool::dead_letters`]) instead of retried forever.
pub struct WorkerPool {
    sup_tx: mpsc::Sender<SupMsg>,
    outcomes: mpsc::Receiver<PoolOutcome>,
    supervisor: Option<JoinHandle<()>>,
    shared: Arc<PoolShared>,
}

impl WorkerPool {
    /// Starts the supervisor (workers spawn lazily on demand). `cmd`
    /// is the worker invocation *without* the supervision flags — the
    /// pool appends `--gen <g> --heartbeat-ms <ms>`.
    pub fn new(cmd: WorkerCommand, config: PoolConfig) -> WorkerPool {
        let (sup_tx, sup_rx) = mpsc::channel();
        let (out_tx, out_rx) = mpsc::channel();
        let shared = Arc::new(PoolShared::default());
        let supervisor = PoolSupervisor {
            slots: (0..config.cap.max(1)).map(|_| Slot::vacant()).collect(),
            cmd,
            config,
            queue: VecDeque::new(),
            delayed: Vec::new(),
            deaths: HashMap::new(),
            affinity_streak: 0,
            breaker: VecDeque::new(),
            next_gen: 0,
            out_tx,
            sup_tx: sup_tx.clone(),
            shared: Arc::clone(&shared),
        };
        let handle = std::thread::spawn(move || supervisor.run(sup_rx));
        WorkerPool {
            sup_tx,
            outcomes: out_rx,
            supervisor: Some(handle),
            shared,
        }
    }

    /// Enqueues a job. Returns the job back if the pool cannot take it
    /// (circuit open or supervisor gone); such a job was not run.
    pub fn submit(&self, job: PoolJob) -> Result<(), PoolJob> {
        if self.shared.tripped.load(Ordering::SeqCst) {
            return Err(job);
        }
        match self.sup_tx.send(SupMsg::Job(job)) {
            Ok(()) => Ok(()),
            Err(mpsc::SendError(SupMsg::Job(job))) => Err(job),
            Err(_) => unreachable!("send returns the sent message"),
        }
    }

    /// The next outcome in completion order (blocking). `None` only if
    /// the supervisor died.
    pub fn recv(&self) -> Option<PoolOutcome> {
        self.outcomes.recv().ok()
    }

    /// [`WorkerPool::recv`] with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<PoolOutcome> {
        self.outcomes.recv_timeout(timeout).ok()
    }

    /// Snapshot of the pool-lifetime counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            spawned: self.shared.spawned.load(Ordering::SeqCst),
            restarts: self.shared.restarts.load(Ordering::SeqCst),
            max_live: self.shared.max_live.load(Ordering::SeqCst),
            stale_frames: self.shared.stale_frames.load(Ordering::SeqCst),
            heartbeats: self.shared.heartbeats.load(Ordering::SeqCst),
            affinity_hits: self.shared.affinity_hits.load(Ordering::SeqCst),
            jobs_done: self.shared.jobs_done.load(Ordering::SeqCst),
            quarantined: self.shared.quarantined.load(Ordering::SeqCst),
            tripped: self.shared.tripped.load(Ordering::SeqCst),
        }
    }

    /// OS pids of the currently live workers (for chaos tests that
    /// kill(-9) a worker mid-shard).
    pub fn live_pids(&self) -> Vec<u32> {
        lock_unpoisoned(&self.shared.pids)
            .iter()
            .map(|(_, pid)| *pid)
            .collect()
    }

    /// Tombstones of every quarantined shard so far.
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        lock_unpoisoned(&self.shared.dead_letters).clone()
    }

    /// Whether the restart-rate circuit breaker has opened.
    pub fn is_tripped(&self) -> bool {
        self.shared.tripped.load(Ordering::SeqCst)
    }

    /// Stops the supervisor, shuts every worker down cleanly, and
    /// returns the final counters.
    pub fn shutdown(mut self) -> PoolStats {
        self.join_supervisor();
        self.stats()
    }

    fn join_supervisor(&mut self) {
        let _ = self.sup_tx.send(SupMsg::Shutdown);
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.join_supervisor();
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

    // ---------------------------------------------- worker-pool tests
    //
    // These sh(1) workers speak the pool protocol by hand: the pool
    // appends `--gen <g> --heartbeat-ms <ms>` to the command, and
    // `sh -c '<script>'` binds those as $0..$3, so the worker's
    // generation is `$1`. None of them emit heartbeats, so every test
    // that wants a long-lived worker sets a generous liveness deadline.

    fn quiet_pool_config(cap: usize) -> PoolConfig {
        PoolConfig {
            cap,
            liveness: Duration::from_secs(60),
            ..PoolConfig::default()
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

    /// Replies to every job frame with its own pid, echoing `$1` (its
    /// generation) so the supervisor accepts the frame.
    fn echo_pid_worker() -> WorkerCommand {
        WorkerCommand::new(
            "sh",
            &[
                "-c",
                r#"while read -r line; do printf '{"type":"result","gen":%s,"body":"pid:%s"}\n' "$1" "$$"; done"#,
            ],
        )
    }

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
    fn pool_reuses_workers_and_routes_by_cache_affinity() {
        let pool = WorkerPool::new(echo_pid_worker(), quiet_pool_config(2));
        let mut pid_of_key = std::collections::HashMap::new();
        for (tag, key) in ["alpha", "beta", "alpha", "beta"].iter().enumerate() {
            pool.submit(pool_job(tag as u64, tag, key))
                .expect("pool accepts");
            let outcome = pool.recv().expect("supervisor alive");
            assert_eq!(outcome.tag, tag as u64);
            let pid = outcome.result.expect("echo worker succeeds");
            match pid_of_key.get(*key) {
                // Affinity: the same key lands on the same process, so
                // its in-process caches would hit.
                Some(prev) => assert_eq!(prev, &pid, "key {key} routed to its warm worker"),
                None => {
                    pid_of_key.insert(key.to_string(), pid);
                }
            }
        }
        assert_eq!(pid_of_key.len(), 2, "two keys → two distinct workers");
        let stats = pool.shutdown();
        assert_eq!(stats.spawned, 2, "workers persisted across 4 jobs");
        assert_eq!(stats.jobs_done, 4);
        assert_eq!(
            stats.affinity_hits, 2,
            "second job of each key was affinity-routed"
        );
        assert!(stats.max_live <= 2);
        assert_eq!(stats.restarts, 0);
    }

    #[test]
    fn dead_worker_failure_names_shard_and_pool_restarts() {
        let pool = WorkerPool::new(crashing_worker(), quiet_pool_config(1));
        for (tag, shard_index) in [(0u64, 5usize), (1, 6)] {
            pool.submit(pool_job(tag, shard_index, "k"))
                .expect("pool accepts");
            let outcome = pool.recv().expect("supervisor alive");
            assert!(!outcome.quarantined && !outcome.circuit_open);
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
        let pool = WorkerPool::new(failer, quiet_pool_config(2));
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
    fn quarantine_dead_letters_a_shard_after_exactly_k_kills() {
        let config = PoolConfig {
            quarantine_after: 2,
            ..quiet_pool_config(1)
        };
        let pool = WorkerPool::new(crashing_worker(), config);
        // First kill: a plain failure (the orchestrator may retry).
        pool.submit(pool_job(0, 9, "k")).expect("pool accepts");
        let first = pool.recv().expect("supervisor alive");
        assert!(!first.quarantined, "one kill is below the threshold");
        assert!(first.result.is_err());
        // Second kill of the same shard: quarantined, dead-lettered.
        pool.submit(pool_job(1, 9, "k")).expect("pool accepts");
        let second = pool.recv().expect("supervisor alive");
        assert!(
            second.quarantined,
            "K = 2 successive kills quarantines the shard"
        );
        match &second.result {
            Err(ShardError::Worker { shard, reason }) => {
                assert_eq!(*shard, 9);
                assert!(reason.contains("quarantined"), "named verdict: {reason}");
            }
            other => panic!("expected a quarantine verdict, got {other:?}"),
        }
        let letters = pool.dead_letters();
        assert_eq!(letters.len(), 1);
        assert_eq!(letters[0].shard_index, 9, "dead letter names the shard");
        assert_eq!(letters[0].kills, 2);
        assert!(
            letters[0].stderr.contains("poisonous"),
            "tombstone keeps the last stderr"
        );
        // Third submission fails fast — no fresh worker is sacrificed.
        pool.submit(pool_job(2, 9, "k")).expect("pool accepts");
        let third = pool.recv().expect("supervisor alive");
        assert!(third.quarantined);
        let stats = pool.shutdown();
        assert_eq!(
            stats.spawned, 2,
            "the quarantined shard never got a third worker"
        );
        assert_eq!(
            stats.quarantined, 2,
            "one tombstone + one fail-fast verdict"
        );
    }

    #[test]
    fn circuit_breaker_trips_after_the_restart_budget() {
        let config = PoolConfig {
            max_restarts: 2,
            quarantine_after: 100, // keep quarantine out of this test
            ..quiet_pool_config(1)
        };
        let pool = WorkerPool::new(crashing_worker(), config);
        for tag in 0..5u64 {
            // Distinct shards: every death feeds the breaker, none the
            // quarantine tally.
            pool.submit(pool_job(tag, tag as usize, "k"))
                .expect("pool accepts");
        }
        let outcomes: Vec<PoolOutcome> = (0..5).map(|_| pool.recv().expect("alive")).collect();
        assert!(outcomes.iter().all(|o| o.result.is_err()));
        assert!(
            outcomes.iter().any(|o| o.circuit_open),
            "jobs queued past the third death fail fast with circuit_open"
        );
        assert!(pool.is_tripped());
        // An open circuit refuses new work synchronously: a tripped
        // pool takes no further jobs.
        assert!(pool.submit(pool_job(9, 9, "k")).is_err());
        let stats = pool.shutdown();
        assert!(stats.tripped);
        assert!(
            stats.restarts >= 3,
            "the budget of 2 was exceeded: {stats:?}"
        );
    }

    #[test]
    fn silent_worker_is_liveness_killed() {
        let config = PoolConfig {
            liveness: Duration::from_millis(150),
            heartbeat: Duration::from_millis(25),
            ..quiet_pool_config(1)
        };
        // Accepts the job, then goes catatonic: no heartbeat, no result.
        let catatonic = WorkerCommand::new("sh", &["-c", "read -r line; exec sleep 60"]);
        let pool = WorkerPool::new(catatonic, config);
        pool.submit(pool_job(0, 3, "k")).expect("pool accepts");
        let outcome = pool.recv().expect("supervisor alive");
        match outcome.result {
            Err(ShardError::Worker { shard, reason }) => {
                assert_eq!(shard, 3);
                assert!(
                    reason.contains("no heartbeat"),
                    "liveness verdict: {reason}"
                );
            }
            other => panic!("expected a liveness kill, got {other:?}"),
        }
        let stats = pool.shutdown();
        assert_eq!(stats.restarts, 1);
    }

    #[test]
    fn pool_bounds_live_workers_and_echoes_every_job() {
        let pool = WorkerPool::new(echo_body_worker(), quiet_pool_config(2));
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
        let pool = WorkerPool::new(echo_body_worker(), quiet_pool_config(2));
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
            job_deadline: Some(Duration::from_millis(50)),
            ..quiet_pool_config(1)
        };
        // Accepts the job, then computes "forever" (exec: the kill
        // reaches the sleeping process itself).
        let sleeper = WorkerCommand::new("sh", &["-c", "read -r line; exec sleep 30"]);
        let pool = WorkerPool::new(sleeper, config);
        pool.submit(pool_job(9, 4, "k")).expect("pool accepts");
        let outcome = pool.recv().expect("supervisor alive");
        assert_eq!(outcome.tag, 9);
        assert!(outcome.timed_out, "deadline must flag the straggler");
        assert!(!outcome.quarantined && !outcome.circuit_open);
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
