//! The job scheduler behind every sharded job: one sans-IO state
//! machine that takes events and returns actions. It holds no clock,
//! thread, pipe or file, so one policy drives `mbqao-serve`, the
//! single-job entry points and the batch sweep driver alike, and a
//! simulator checks it under virtual time
//! (`crates/mbqao-bench/tests/scheduler_sim.rs`).
//!
//! It is the [`Jobs`] layer of the service's pool
//! ([`crate::serve::Service`]); its [`Action`]s go to the thread that
//! owns the pool.
//!
//! The policy, stated once:
//!
//! * **Admission** is FIFO: a submit is rejected when `max_queue` jobs
//!   wait or its id is waiting, running or being checked, and takes one
//!   of `max_jobs` job slots once one is free. Cache affinity is the
//!   pool's alone.
//! * **Dispatch** is round-robin, one ready shard per job per turn,
//!   while fewer than `cap` plus the running jobs attempts are in
//!   flight. Retry backoff rides on [`PoolJob::delay`].
//! * **Recovery.** A failed attempt is retried with backoff until the
//!   budget is spent; a straggler killed at its deadline is split in
//!   half; a shard is quarantined, and never dispatched again, after
//!   `quarantine_after` attempts that ended in a pool error that was
//!   neither a deadline kill nor an open breaker (a dead worker, or one
//!   that could not be spawned); an open breaker fails the job.
//! * **WAL before merge.** A result is merged, and its `partial`
//!   emitted, only once its journal append is reported done; a failed
//!   append fails the job.
//! * A failed job stops dispatching, drains its attempts in flight and
//!   reports the lowest-indexed shard among the failures that would
//!   each have ended it.
//! * A `check:true` job's output goes to an [`Action::Check`]; its
//!   `done` waits for the verdict, and its id and job slot stay taken
//!   until then (so at most `max_jobs` checks run at once).

use crate::serve::{split_shard, Event, JobStats, JournalReplay, Request, ServeConfig};
use crate::serve::{ServeStats, SubmitRequest};
use crate::sweep::{
    assemble, decode_worker_result, hole_payload, job_to_json_attempt, Fault, Payload, SweepOutput,
    Workload,
};
use mbqao_core::engine::shard::{
    Jobs, Merger, PoolJob, PoolOutcome, PoolStats, Provenance, Shard, ShardError, ShardResult,
};
use mbqao_core::engine::wire::WireError;
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Duration;

/// How a job ends: its merged output and counters, or its failure.
pub type JobResult = Result<(SweepOutput, JobStats), ShardError>;

/// One event the scheduler reacts to.
#[derive(Debug)]
pub enum Input {
    /// A request frame from the client, or why it did not decode.
    Request(Result<Request, WireError>),
    /// Finish the job of a loaded journal; `true` asks for a check.
    Resume(JournalReplay, bool),
    /// `(id, result)`: how job `id`'s oldest unanswered
    /// [`Action::Journal`] went (`Err` carries the I/O error).
    Journaled(u64, Result<(), String>),
    /// `(id, bit_identical)`: the verdict of job `id`'s [`Action::Check`].
    Checked(u64, bool),
}

/// What the scheduler asks of its owner, in order.
#[derive(Debug)]
pub enum Action {
    /// Write one frame to the client.
    Emit(Event),
    /// Journal job `id`, then answer with [`Input::Journaled`]. A
    /// driver that keeps no journal answers `Ok` at once.
    Journal(u64, JournalOp),
    /// `(id, workload, output)`: compare job `id`'s merged output with
    /// `monolithic(workload)` off the scheduler thread, then answer with
    /// [`Input::Checked`].
    Check(u64, Workload, SweepOutput),
    /// `(id, result, bit_identical)`: job `id` ended, with its merged
    /// output and counters or its failure, and its check verdict when
    /// it asked for one. Every job ends exactly once.
    Finish(u64, JobResult, Option<bool>),
}

/// One journal operation.
#[derive(Debug)]
pub enum JournalOp {
    /// Create the job's journal and write its header: the job's sweep
    /// and its partition width.
    Create(Workload, usize),
    /// Append one landed shard result, synced before it is answered.
    Append(ShardResult<Payload>),
}

/// One attempt at one shard.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    shard: Shard,
    /// 0 for the first try.
    attempt: u32,
    fault: Option<Fault>,
    /// Backoff before dispatch.
    delay: Duration,
}

impl Attempt {
    fn first(shard: Shard, fault: Option<Fault>) -> Attempt {
        Attempt {
            shard,
            attempt: 0,
            fault,
            delay: Duration::ZERO,
        }
    }
}

/// A journal operation waiting for its answer.
enum Unacked {
    /// The header; the job's first attempts wait for it.
    Create(Vec<Attempt>),
    /// A landed result, the attempt that produced it and its latency
    /// in milliseconds.
    Append(Attempt, ShardResult<Payload>, u64),
}

/// What one pool verdict means for its job.
enum Verdict {
    Landed(ShardResult<Payload>),
    Split(ShardError),
    Retry(ShardError),
    Quarantine(ShardError),
    Fail(ShardError),
}

/// One admitted job: its own merger, counters and recovery state.
struct Job {
    id: u64,
    workload: Workload,
    cache_key: String,
    merger: Merger<Payload>,
    stats: JobStats,
    /// Index of the next synthetic shard (splits, resume re-runs).
    next_index: usize,
    ready: VecDeque<Attempt>,
    inflight: usize,
    unacked: VecDeque<Unacked>,
    /// Attempts per shard index that ended in a quarantine-counting
    /// pool error.
    kills: HashMap<usize, u32>,
    /// Quarantined ranges (`allow_partial`), filled with holes.
    abandoned: Vec<Shard>,
    /// The reported failure and its shard index.
    failed: Option<(usize, ShardError)>,
    check: bool,
}

impl Job {
    fn new(id: u64, workload: Workload, next_index: usize, check: bool) -> Job {
        Job {
            id,
            cache_key: workload.cache_key(),
            merger: Merger::new(workload.total()),
            workload,
            stats: JobStats::default(),
            next_index,
            ready: VecDeque::new(),
            inflight: 0,
            unacked: VecDeque::new(),
            kills: HashMap::new(),
            abandoned: Vec::new(),
            failed: None,
            check,
        }
    }

    /// Stops dispatching and keeps the lowest-indexed failure.
    fn fail(&mut self, shard: usize, e: ShardError) {
        self.ready.clear();
        if self.failed.as_ref().is_none_or(|(i, _)| shard < *i) {
            self.failed = Some((shard, e));
        }
    }

    /// Merges a journaled result and emits its `partial`.
    fn merge(
        &mut self,
        at: Attempt,
        result: ShardResult<Payload>,
        latency_ms: u64,
    ) -> Option<Event> {
        let provenance = result.provenance.clone();
        if let Err(e) = self.merger.insert(result) {
            self.fail(at.shard.index, e);
            return None;
        }
        self.stats.completed += 1;
        self.stats.cache_hits += provenance.cache_hits;
        self.stats.cache_misses += provenance.cache_misses;
        self.stats.shard_ms.push(latency_ms);
        Some(Event::Partial {
            id: self.id,
            shard: at.shard,
            backend: provenance.backend,
            attempt: at.attempt,
            latency_ms,
            cache_hits: provenance.cache_hits,
            cache_misses: provenance.cache_misses,
            covered: covered(&self.merger),
            total: self.merger.total(),
        })
    }

    /// The settled job's output, quarantined ranges filled with
    /// [`hole_payload`]s, or its failure.
    fn into_result(mut self) -> JobResult {
        if let Some((_, e)) = self.failed {
            return Err(e);
        }
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

/// Items the merger holds.
fn covered(merger: &Merger<Payload>) -> usize {
    merger.total() - merger.missing().iter().map(|(s, e)| e - s).sum::<usize>()
}

/// The job scheduler: see the module docs for its policy.
#[derive(Default)]
pub struct Scheduler {
    /// The cap, admission bounds and recovery policy (the journal
    /// directory and the log flag belong to the driver).
    config: ServeConfig,
    /// Submits waiting for a job slot, in arrival order.
    waiting: VecDeque<SubmitRequest>,
    /// Ids of every waiting, running or checking job.
    ids: HashSet<u64>,
    running: Vec<Job>,
    /// Outputs waiting for their check verdict.
    checking: HashMap<u64, (SweepOutput, JobStats)>,
    /// Attempts on the pool: tag → (job id, attempt).
    flights: HashMap<u64, (u64, Attempt)>,
    next_tag: u64,
    /// Round-robin cursor over `running`.
    rr: usize,
    shutdown: bool,
    stats: ServeStats,
    /// The pool's counters as of this step, and as of each job's
    /// `accepted` or `resumed` frame (its stats count their growth).
    pool: PoolStats,
    base: HashMap<u64, PoolStats>,
    actions: Vec<Action>,
    /// Attempts for the pool.
    attempts: Vec<PoolJob>,
}

impl Scheduler {
    /// A scheduler with `config`'s cap, admission bounds and recovery
    /// policy.
    pub fn new(config: &ServeConfig) -> Scheduler {
        let config = ServeConfig {
            max_jobs: config.max_jobs.max(1),
            ..config.clone()
        };
        Scheduler {
            config,
            ..Scheduler::default()
        }
    }

    fn emit(&mut self, event: Event) {
        self.actions.push(Action::Emit(event));
    }

    fn reject(&mut self, id: Option<u64>, reason: String) {
        self.stats.rejected += 1;
        self.emit(Event::Rejected { id, reason });
    }

    fn submit(&mut self, req: SubmitRequest) {
        let reason = if self.waiting.len() >= self.config.max_queue {
            format!(
                "admission: queue full ({} jobs waiting)",
                self.config.max_queue
            )
        } else if self.ids.contains(&req.id) {
            format!("admission: job id {} is already queued or running", req.id)
        } else {
            self.ids.insert(req.id);
            self.waiting.push_back(req);
            return;
        };
        self.reject(Some(req.id), reason);
    }

    /// Moves waiting submits into free job slots, FIFO. A job's shards
    /// wait for its journal header.
    fn admit(&mut self) {
        while self.running.len() + self.checking.len() < self.config.max_jobs {
            let Some(req) = self.waiting.pop_front() else {
                return;
            };
            let work: Vec<Attempt> = Shard::parts(req.workload.total(), req.shards)
                .take_while(|s| !s.is_empty())
                .map(|s| {
                    let fault = req.faults.iter().find(|(i, _)| *i == s.index);
                    Attempt::first(s, fault.map(|(_, f)| *f))
                })
                .collect();
            let mut job = Job::new(req.id, req.workload, req.shards, req.check);
            job.stats.shards = work.len();
            let create = JournalOp::Create(job.workload.clone(), req.shards);
            self.actions.push(Action::Journal(req.id, create));
            job.unacked.push_back(Unacked::Create(work));
            self.running.push(job);
        }
    }

    /// Starts a job from its journal: replays every partial, then
    /// re-runs only the missing ranges as fresh synthetic shards with no
    /// faults (a resume must converge rather than re-trip an injected
    /// failure).
    fn resume(&mut self, replay: JournalReplay, check: bool) {
        let id = replay.id;
        let mut job = Job::new(id, replay.workload, replay.shards, check);
        job.stats.shards = replay.shards;
        job.stats.replayed = replay.results.len();
        for result in replay.results {
            let index = result.provenance.shard.index;
            job.next_index = job.next_index.max(index + 1);
            if let Err(e) = job.merger.insert(result) {
                job.fail(index, e);
            }
        }
        if job.failed.is_none() {
            self.emit(Event::Resumed {
                id,
                replayed: job.stats.replayed,
                covered: covered(&job.merger),
                total: job.merger.total(),
            });
            for (start, end) in job.merger.missing() {
                let shard = Shard::synthetic(job.next_index, job.merger.total(), start, end);
                job.next_index += 1;
                job.ready.push_back(Attempt::first(shard, None));
            }
            self.base.insert(id, self.pool);
        }
        self.ids.insert(id);
        self.running.push(job);
    }

    fn on_outcome(&mut self, outcome: PoolOutcome) {
        let Some((id, at)) = self.flights.remove(&outcome.tag) else {
            return;
        };
        let Some(job) = self.running.iter_mut().find(|j| j.id == id) else {
            return;
        };
        job.inflight -= 1;
        let i = at.shard.index;
        let counts = outcome.result.is_err() && !outcome.timed_out && !outcome.circuit_open;
        let verdict = match outcome
            .result
            .and_then(|body| decode_worker_result(i, &body))
        {
            Ok(result) => Verdict::Landed(result),
            Err(e) if outcome.circuit_open => Verdict::Fail(e),
            Err(e) if outcome.timed_out && at.shard.len() >= 2 => Verdict::Split(e),
            Err(e) => {
                let kills = job.kills.entry(i).or_default();
                *kills += u32::from(counts);
                if counts && *kills >= self.config.quarantine_after {
                    // Named with the kill count and the last stderr.
                    let last = match e {
                        ShardError::Worker { reason, .. } => reason,
                        other => other.to_string(),
                    };
                    let reason = format!(
                        "shard {i} quarantined after killing {kills} workers; last stderr: {last}"
                    );
                    Verdict::Quarantine(ShardError::Worker { shard: i, reason })
                } else if at.attempt + 1 >= self.config.retry.max_attempts {
                    Verdict::Fail(e)
                } else {
                    Verdict::Retry(e)
                }
            }
        };
        if job.failed.is_some() {
            // Draining: only a failure that would have ended the job on
            // its own may replace the reported one.
            match verdict {
                Verdict::Fail(e) => job.fail(i, e),
                Verdict::Quarantine(e) if !self.config.allow_partial => job.fail(i, e),
                _ => {}
            }
            return;
        }
        let range = (at.shard.start, at.shard.end);
        let event = match verdict {
            Verdict::Landed(result) => {
                let latency_ms = outcome.elapsed.as_millis() as u64;
                let append = JournalOp::Append(result.clone());
                job.unacked
                    .push_back(Unacked::Append(at, result, latency_ms));
                self.actions.push(Action::Journal(id, append));
                return;
            }
            Verdict::Split(e) => {
                // Sub-shards run clean (faults key on original indices)
                // and merge into the same output: disjoint ranges,
                // canonical-order fold.
                job.stats.repartitions += 1;
                for sub in split_shard(at.shard, &mut job.next_index) {
                    job.ready.push_back(Attempt::first(sub, None));
                }
                Event::Requeue {
                    id,
                    range,
                    attempt: 0,
                    backoff_ms: 0,
                    repartitioned: true,
                    reason: e.to_string(),
                }
            }
            Verdict::Retry(e) => {
                let attempt = at.attempt + 1;
                let delay = self.config.retry.backoff(attempt);
                job.stats.retries += 1;
                job.ready.push_back(Attempt {
                    attempt,
                    delay,
                    ..at
                });
                Event::Requeue {
                    id,
                    range,
                    attempt,
                    backoff_ms: delay.as_millis() as u64,
                    repartitioned: false,
                    reason: e.to_string(),
                }
            }
            Verdict::Quarantine(e) => {
                job.stats.quarantined += 1;
                let reason = e.to_string();
                if self.config.allow_partial {
                    job.abandoned.push(at.shard);
                } else {
                    job.fail(i, e);
                }
                Event::Quarantined { id, range, reason }
            }
            Verdict::Fail(e) => return job.fail(i, e),
        };
        self.emit(event);
    }

    fn on_journaled(&mut self, id: u64, result: Result<(), String>) {
        let Some(job) = self.running.iter_mut().find(|j| j.id == id) else {
            return;
        };
        let event = match (job.unacked.pop_front(), result) {
            (Some(Unacked::Create(work)), Ok(())) => {
                let (total, shards) = (job.merger.total(), work.len());
                job.ready.extend(work);
                self.base.insert(id, self.pool);
                Some(Event::Accepted { id, total, shards })
            }
            (Some(Unacked::Create(_)), Err(e)) => {
                let reason = format!("cannot create job journal: {e}");
                job.fail(0, ShardError::Worker { shard: 0, reason });
                None
            }
            (Some(Unacked::Append(at, _, _)), Err(e)) => {
                let (shard, reason) = (at.shard.index, format!("journal append failed: {e}"));
                job.fail(shard, ShardError::Worker { shard, reason });
                None
            }
            (Some(Unacked::Append(at, result, latency_ms)), Ok(())) if job.failed.is_none() => {
                job.merge(at, result, latency_ms)
            }
            _ => None,
        };
        if let Some(event) = event {
            self.emit(event);
        }
    }

    /// Ends every settled job: a check first when it asked for one.
    fn reap(&mut self) {
        let mut k = 0;
        while k < self.running.len() {
            // Nothing ready, in flight or unanswered: the job has ended.
            let job = &self.running[k];
            if job.inflight > 0 || !job.ready.is_empty() || !job.unacked.is_empty() {
                k += 1;
                continue;
            }
            let job = self.running.remove(k);
            let (id, workload) = (job.id, job.check.then(|| job.workload.clone()));
            match (job.into_result(), workload) {
                (Ok((output, stats)), Some(workload)) => {
                    self.actions
                        .push(Action::Check(id, workload, output.clone()));
                    self.checking.insert(id, (output, stats));
                }
                (result, _) => self.finish(id, result, None),
            }
        }
    }

    fn finish(&mut self, id: u64, mut result: JobResult, bit_identical: Option<bool>) {
        if let (Ok((_, stats)), Some(base)) = (&mut result, self.base.remove(&id)) {
            stats.spawned = self.pool.spawned - base.spawned;
            stats.worker_restarts = self.pool.restarts - base.restarts;
            stats.max_live = self.pool.max_live;
        }
        if result.is_ok() {
            self.stats.done += 1;
        } else {
            self.stats.failed += 1;
        }
        self.ids.remove(&id);
        self.actions.push(Action::Finish(id, result, bit_identical));
    }

    /// Feeds the pool round-robin, one ready shard per job per turn,
    /// until the dispatch window is full. The shallow window keeps the
    /// pool's queue short, so a job admitted late is not stuck behind
    /// another tenant's backlog.
    fn dispatch(&mut self) {
        let window = self.config.cap + self.running.len();
        while self.flights.len() < window {
            let n = self.running.len();
            let Some(slot) = (0..n)
                .map(|k| (self.rr + k) % n)
                .find(|&j| !self.running[j].ready.is_empty())
            else {
                return;
            };
            self.rr = (slot + 1) % n;
            let job = &mut self.running[slot];
            let at = job.ready.pop_front().expect("the slot has a ready attempt");
            job.inflight += 1;
            let tag = self.next_tag;
            self.next_tag += 1;
            self.attempts.push(PoolJob {
                tag,
                shard_index: at.shard.index,
                input: job_to_json_attempt(&job.workload, at.shard, at.fault, at.attempt),
                cache_key: job.cache_key.clone(),
                delay: at.delay,
            });
            self.flights.insert(tag, (job.id, at));
        }
    }
}

impl Jobs for Scheduler {
    type In = Input;
    type Out = Action;

    fn step(
        &mut self,
        input: Result<Input, PoolOutcome>,
        pool: &PoolStats,
        out: &mut Vec<Action>,
    ) -> Vec<PoolJob> {
        self.pool = *pool;
        match input {
            Ok(Input::Request(Ok(Request::Submit(req)))) => self.submit(*req),
            Ok(Input::Request(Ok(Request::Ping))) => self.emit(Event::Pong),
            Ok(Input::Request(Ok(Request::Shutdown))) => self.shutdown = true,
            Ok(Input::Request(Err(e))) => self.reject(None, e.to_string()),
            Ok(Input::Resume(replay, check)) => self.resume(replay, check),
            Ok(Input::Journaled(id, result)) => self.on_journaled(id, result),
            Ok(Input::Checked(id, bit_identical)) => {
                if let Some(done) = self.checking.remove(&id) {
                    self.finish(id, Ok(done), Some(bit_identical));
                }
            }
            Err(outcome) => self.on_outcome(outcome),
        }
        self.reap();
        self.admit();
        self.dispatch();
        if self.finished() {
            self.emit(Event::Bye(self.stats));
        }
        out.append(&mut self.actions);
        std::mem::take(&mut self.attempts)
    }

    /// Shutdown was requested and every job has ended.
    fn finished(&self) -> bool {
        self.shutdown
            && self.waiting.is_empty()
            && self.running.is_empty()
            && self.checking.is_empty()
    }
}
