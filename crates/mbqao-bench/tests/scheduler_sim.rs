//! A seeded simulator of the job scheduler on virtual time.
//!
//! It drives the sans-IO [`Scheduler`] with a fake pool of `cap`
//! virtual workers. The fake pool decodes every attempt with
//! `job_from_json` and computes it with `run_shard`, and it plays the
//! real [`Fault`]s in virtual time: a `Stall` advances the clock
//! instead of sleeping, `Panic` and `FailUntil` become a worker death,
//! and `Corrupt` goes through `corrupt_f64_payload`. On top of those it
//! injects straggler deadline kills, workers that cannot be spawned, a
//! breaker trip, failed journal appends and slow checks, and it sends
//! submits at random times, duplicate ids, queue overflow and shutdown
//! included. Nothing sleeps, so `PROPTEST_CASES` scales the search
//! freely.
//!
//! Every case checks the core's contract:
//!
//! 1. every admitted job ends in exactly one terminal frame: a `done`
//!    bit-identical to `monolithic()` (with holes exactly at its
//!    quarantined ranges under `allow_partial`), or a `job_error`
//!    naming the shard; the `bye` counts match;
//! 2. per job, frames run `accepted` → (`partial` | `requeue` |
//!    `quarantined`)\* → `done`/`job_error`, with `covered` strictly
//!    increasing;
//! 3. every `partial` follows a successful append of its range;
//! 4. no stat is counted twice;
//! 5. a shard is quarantined after exactly K deaths and never
//!    dispatched again;
//! 6. `accepted` frames follow submit order, and a submit that finds a
//!    free job slot is accepted in the same step;
//!
//! and three scenarios pin the rest: two stalled jobs finish within one
//! stall (7), a WAL cut after any append resumes bit-identically and
//! re-runs only the missing ranges (8), and a pending check holds up no
//! other tenant.

use mbqao_bench::scheduler::{Action, Input, JournalOp, Scheduler};
use mbqao_bench::serve::{Event, JournalReplay, Request, ServeConfig, SubmitRequest};
use mbqao_bench::sweep::{
    assemble, corrupt_f64_payload, hole_payload, job_from_json, monolithic, result_to_json,
    run_shard, BackendKind, FamilyRef, Fault, Payload, SweepOutput, Workload,
};
use mbqao_core::engine::shard::{
    PoolJob, PoolOutcome, RetryPolicy, Shard, ShardError, ShardResult,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::time::Duration;

/// Virtual milliseconds one shard's work takes on a worker.
const WORK_MS: u64 = 1;

/// Something that happens at a virtual instant.
enum Ev {
    /// A client request or a resume reaches the scheduler.
    Client(Input),
    /// The worker running attempt `tag` reports.
    Done(u64),
    /// A backoff delay may have run out.
    Wake,
    /// A check verdict comes back.
    Checked(u64, bool),
    /// The pool's circuit breaker trips.
    Trip,
}

/// What the simulation saw, in order.
enum Log {
    /// A submit reached the core at `step`.
    Submit { step: usize, req: SubmitRequest },
    /// A frame the core emitted.
    Frame { step: usize, at: u64, event: Event },
    /// A journal append and whether it succeeded.
    Append {
        id: u64,
        range: (usize, usize),
        ok: bool,
    },
    /// An attempt started on a worker (a job is known by its cache key,
    /// unique per submit here).
    Dispatch {
        key: String,
        shard: usize,
        range: (usize, usize),
    },
    /// An attempt ended in a pool error that counts toward quarantine.
    Death { key: String, shard: usize },
    /// A check started.
    Check { step: usize, id: u64, ok: bool },
}

/// A pool of virtual workers with the real pool's process policy: FIFO
/// dispatch, backoff delays, straggler deadlines, spawn failures and a
/// breaker that fails everything once tripped. Cache affinity is left
/// out: it orders work, and no property depends on that order.
struct FakePool {
    cap: usize,
    deadline: Option<u64>,
    /// Chance that an attempt finds no worker to spawn.
    spawn_fail: f64,
    queue: VecDeque<PoolJob>,
    delayed: Vec<(u64, PoolJob)>,
    /// Attempts on a worker: tag → (job key, the outcome it reports).
    busy: HashMap<u64, (String, PoolOutcome)>,
    tripped: bool,
}

/// How a tripped or refusing pool answers attempt `tag` at `shard`.
fn circuit_open(tag: u64, shard: usize) -> PoolOutcome {
    PoolOutcome {
        tag,
        shard_index: shard,
        result: Err(ShardError::Worker {
            shard,
            reason: "worker pool circuit breaker open".into(),
        }),
        elapsed: Duration::ZERO,
        timed_out: false,
        circuit_open: true,
    }
}

struct Sim {
    rng: StdRng,
    now: u64,
    step: usize,
    seq: u64,
    timeline: BTreeMap<(u64, u64), Ev>,
    core: Scheduler,
    pool: FakePool,
    append_fail: f64,
    /// Check verdicts take up to this many virtual milliseconds…
    max_check_ms: u64,
    /// …or exactly this many.
    check_ms: Option<u64>,
    log: Vec<Log>,
    /// Every successful append per job id, in order.
    wal: HashMap<u64, Vec<ShardResult<Payload>>>,
}

impl Sim {
    fn new(config: &ServeConfig, pool: FakePool, seed: u64) -> Sim {
        Sim {
            rng: StdRng::seed_from_u64(seed),
            now: 0,
            step: 0,
            seq: 0,
            timeline: BTreeMap::new(),
            core: Scheduler::new(config),
            pool,
            append_fail: 0.0,
            max_check_ms: 0,
            check_ms: None,
            log: Vec::new(),
            wal: HashMap::new(),
        }
    }

    fn at(&mut self, t: u64, ev: Ev) {
        self.seq += 1;
        self.timeline.insert((t, self.seq), ev);
    }

    fn submit(&mut self, t: u64, req: SubmitRequest) {
        let request = Request::Submit(Box::new(req));
        self.at(t, Ev::Client(Input::Request(Ok(request))));
    }

    fn shutdown(&mut self, t: u64) {
        self.at(t, Ev::Client(Input::Request(Ok(Request::Shutdown))));
    }

    /// Runs until the core has finished.
    fn run(&mut self) -> Result<(), TestCaseError> {
        while !self.core.finished() {
            let Some(((t, _), ev)) = self.timeline.pop_first() else {
                return Err(TestCaseError::fail(
                    "the scheduler waits for an event that never comes",
                ));
            };
            prop_assert!(self.step < 100_000, "runaway simulation");
            self.now = t;
            self.step += 1;
            match ev {
                Ev::Client(input) => {
                    if let Input::Request(Ok(Request::Submit(req))) = &input {
                        let (step, req) = (self.step, (**req).clone());
                        self.log.push(Log::Submit { step, req });
                    }
                    self.feed(input);
                }
                Ev::Done(tag) => {
                    // Gone when a breaker trip already failed it.
                    if let Some((key, outcome)) = self.pool.busy.remove(&tag) {
                        if outcome.result.is_err() && !outcome.timed_out && !outcome.circuit_open {
                            let shard = outcome.shard_index;
                            self.log.push(Log::Death { key, shard });
                        }
                        self.feed(Input::Outcome(outcome));
                    }
                }
                Ev::Wake => {}
                Ev::Checked(id, bit_identical) => self.feed(Input::Checked(id, bit_identical)),
                Ev::Trip => {
                    self.pool.tripped = true;
                    let queued = self.pool.queue.drain(..);
                    let delayed = self.pool.delayed.drain(..).map(|(_, job)| job);
                    let mut failed: Vec<(u64, usize)> = queued
                        .chain(delayed)
                        .map(|job| (job.tag, job.shard_index))
                        .collect();
                    let busy = self
                        .pool
                        .busy
                        .drain()
                        .map(|(tag, (_, o))| (tag, o.shard_index));
                    failed.extend(busy);
                    failed.sort_unstable();
                    for (tag, shard) in failed {
                        self.feed(Input::Outcome(circuit_open(tag, shard)));
                    }
                }
            }
            self.start_work();
        }
        Ok(())
    }

    /// One step: the input, then every journal answer and pool refusal
    /// at once, as the real driver does.
    fn feed(&mut self, input: Input) {
        let mut answers = VecDeque::from([input]);
        while let Some(input) = answers.pop_front() {
            for action in self.core.step(input) {
                match action {
                    Action::Submit(job) if self.pool.tripped => {
                        answers.push_back(Input::Outcome(circuit_open(job.tag, job.shard_index)));
                    }
                    Action::Submit(job) if job.delay.is_zero() => self.pool.queue.push_back(job),
                    Action::Submit(job) => {
                        let due = self.now + job.delay.as_millis() as u64;
                        self.pool.delayed.push((due, job));
                        self.at(due, Ev::Wake);
                    }
                    Action::Journal(id, op) => {
                        let result = self.journal(id, op);
                        answers.push_back(Input::Journaled(id, result));
                    }
                    Action::Check(id, workload, output) => {
                        let ok = output.bit_identical(&monolithic(&workload));
                        let step = self.step;
                        self.log.push(Log::Check { step, id, ok });
                        let delay = match self.check_ms {
                            Some(ms) => ms,
                            None => self.rng.gen_range(0..=self.max_check_ms),
                        };
                        self.at(self.now + delay, Ev::Checked(id, ok));
                    }
                    Action::Emit(event) => self.frame(event),
                    Action::Finish(id, result, bit) => self.frame(Event::finished(id, result, bit)),
                }
            }
        }
    }

    fn frame(&mut self, event: Event) {
        let (step, at) = (self.step, self.now);
        self.log.push(Log::Frame { step, at, event });
    }

    fn journal(&mut self, id: u64, op: JournalOp) -> Result<(), String> {
        let JournalOp::Append(result) = op else {
            return Ok(());
        };
        let ok = !self.rng.gen_bool(self.append_fail);
        let shard = result.provenance.shard;
        let range = (shard.start, shard.end);
        self.log.push(Log::Append { id, range, ok });
        if !ok {
            return Err("injected: no space left on device".into());
        }
        self.wal.entry(id).or_default().push(result);
        Ok(())
    }

    /// Puts due attempts on free workers.
    fn start_work(&mut self) {
        let now = self.now;
        let (due, later) = std::mem::take(&mut self.pool.delayed)
            .into_iter()
            .partition(|(t, _)| *t <= now);
        self.pool.delayed = later;
        self.pool
            .queue
            .extend(due.into_iter().map(|(_, job): (u64, PoolJob)| job));
        while !self.pool.tripped && self.pool.busy.len() < self.pool.cap {
            let Some(job) = self.pool.queue.pop_front() else {
                return;
            };
            let (ms, outcome) = self.work(&job);
            self.pool.busy.insert(job.tag, (job.cache_key, outcome));
            self.at(now + ms, Ev::Done(job.tag));
        }
    }

    /// What a worker does with `job`, and how long it takes.
    fn work(&mut self, job: &PoolJob) -> (u64, PoolOutcome) {
        let (workload, shard, fault, attempt) =
            job_from_json(&job.input).expect("the scheduler sends decodable jobs");
        self.log.push(Log::Dispatch {
            key: job.cache_key.clone(),
            shard: shard.index,
            range: (shard.start, shard.end),
        });
        let stall = match fault {
            Some(Fault::Stall(ms)) if attempt == 0 => ms,
            _ => 0,
        };
        let death = match fault {
            Some(Fault::Panic) => attempt == 0,
            Some(Fault::FailUntil(k)) => attempt < k,
            _ => false,
        };
        let (ms, result, timed_out) = if self.rng.gen_bool(self.pool.spawn_fail) {
            (0, Err("spawning pool worker: injected".to_string()), false)
        } else if death {
            let reason = "worker stdout closed; stderr: injected fault".to_string();
            (WORK_MS, Err(reason), false)
        } else if let Some(d) = self.pool.deadline.filter(|&d| WORK_MS + stall > d) {
            let reason = format!("straggler killed after exceeding its {d} ms deadline");
            (d, Err(reason), true)
        } else {
            let json = result_to_json(&run_shard(&workload, shard));
            let body = match fault {
                Some(Fault::Truncate) if attempt == 0 => json[..json.len() / 2].to_string(),
                Some(Fault::Corrupt) if attempt == 0 => corrupt_f64_payload(&json),
                _ => json,
            };
            (WORK_MS + stall, Ok(body), false)
        };
        let outcome = PoolOutcome {
            tag: job.tag,
            shard_index: shard.index,
            result: result.map_err(|reason| ShardError::Worker {
                shard: shard.index,
                reason,
            }),
            elapsed: Duration::from_millis(ms),
            timed_out,
            circuit_open: false,
        };
        (ms, outcome)
    }

    /// The frames, in order.
    fn frames(&self) -> impl Iterator<Item = (usize, u64, &Event)> {
        self.log.iter().filter_map(|entry| match entry {
            Log::Frame { step, at, event } => Some((*step, *at, event)),
            _ => None,
        })
    }
}

fn fake_pool(cap: usize) -> FakePool {
    FakePool {
        cap,
        deadline: None,
        spawn_fail: 0.0,
        queue: VecDeque::new(),
        delayed: Vec::new(),
        busy: HashMap::new(),
        tripped: false,
    }
}

/// A small sweep; `seed` makes its cache key, hence its job, unique.
fn landscape(seed: u64, name: &str, steps: usize) -> Workload {
    Workload::Landscape {
        family: FamilyRef {
            seed,
            name: name.into(),
        },
        backend: BackendKind::Gate,
        steps,
        gamma: (0.0, 2.0),
        beta: (0.0, 2.0),
    }
}

fn random_workload(rng: &mut StdRng, seed: u64) -> Workload {
    let name = ["triangle", "square"][rng.gen_range(0..2usize)];
    if rng.gen_bool(0.7) {
        landscape(seed, name, rng.gen_range(2..=4))
    } else {
        Workload::Grid {
            family: FamilyRef {
                seed,
                name: name.into(),
            },
            backend: BackendKind::Gate,
            p: 1,
            steps: rng.gen_range(2..=3),
            lo: vec![0.0; 2],
            hi: vec![1.5; 2],
        }
    }
}

fn random_fault(rng: &mut StdRng) -> Fault {
    match rng.gen_range(0..6) {
        0 => Fault::Panic,
        1 => Fault::Truncate,
        2 => Fault::Stall([20, 100, 400][rng.gen_range(0..3usize)]),
        3 => Fault::FailUntil(rng.gen_range(1..=3)),
        4 => Fault::Corrupt,
        _ => Fault::DieAfter(1),
    }
}

fn submit(id: u64, workload: Workload, shards: usize) -> SubmitRequest {
    SubmitRequest {
        id,
        workload,
        shards,
        faults: Vec::new(),
        check: false,
    }
}

/// One admitted job as the frames tell it.
struct Inst {
    req: SubmitRequest,
    shards: usize,
    partials: usize,
    covered: usize,
    retries: usize,
    splits: usize,
    quarantined: Vec<(usize, usize)>,
    /// Ranges appended successfully and not yet merged.
    appended: Vec<(usize, usize)>,
    /// A corrupted first attempt merged.
    corrupted: bool,
    /// The check verdict the simulator computed.
    verdict: Option<bool>,
}

/// The output a job must end with: the monolithic one, with holes at
/// its quarantined ranges.
fn expected_output(w: &Workload, holes: &[(usize, usize)]) -> SweepOutput {
    let mut holes = holes.to_vec();
    holes.sort_unstable();
    let (total, mut cursor, mut parts) = (w.total(), 0, Vec::new());
    let part = |start, end, hole: bool| {
        let shard = Shard::synthetic(0, total, start, end);
        let mut result = run_shard(w, shard);
        if hole {
            result.payload = hole_payload(w, shard);
        }
        result
    };
    for (start, end) in holes {
        if cursor < start {
            parts.push(part(cursor, start, false));
        }
        parts.push(part(start, end, true));
        cursor = end;
    }
    if cursor < total {
        parts.push(part(cursor, total, false));
    }
    assemble(w, parts)
}

/// Checks properties 1–6 on a finished simulation.
fn check_contract(sim: &Sim, config: &ServeConfig, faultless: bool) -> Result<(), TestCaseError> {
    let k = config.quarantine_after;
    // The admission model: waiting submits, live ids, occupied slots.
    let mut waiting: VecDeque<SubmitRequest> = VecDeque::new();
    let mut live: HashSet<u64> = HashSet::new();
    let mut occupied = 0usize;
    let mut predicted_rejects: Vec<u64> = Vec::new();
    let mut open: HashMap<u64, Inst> = HashMap::new();
    let mut deaths: HashMap<(String, usize), u32> = HashMap::new();
    let mut shard_of: HashMap<(String, (usize, usize)), usize> = HashMap::new();
    let mut quarantined: HashSet<(String, usize)> = HashSet::new();
    let (mut done, mut failed, mut rejected) = (0, 0, 0);
    let mut step = 0;
    let step_ends = |occupied: usize, waiting: &VecDeque<SubmitRequest>, rejects: &[u64]| {
        // Work-conserving FIFO admission: nothing waits while a slot
        // is free, and every predicted rejection happened.
        prop_assert!(
            waiting.is_empty() || occupied == config.max_jobs,
            "a submit waits with {occupied} of {} slots taken",
            config.max_jobs
        );
        prop_assert!(rejects.is_empty(), "missing rejections {rejects:?}");
        Ok(())
    };
    for entry in &sim.log {
        let entry_step = match entry {
            Log::Submit { step, .. } | Log::Frame { step, .. } | Log::Check { step, .. } => *step,
            _ => step,
        };
        if entry_step != step {
            step_ends(occupied, &waiting, &predicted_rejects)?;
            step = entry_step;
        }
        match entry {
            Log::Submit { req, .. } => {
                if waiting.len() >= config.max_queue || live.contains(&req.id) {
                    predicted_rejects.push(req.id);
                } else {
                    live.insert(req.id);
                    waiting.push_back(req.clone());
                }
            }
            Log::Append { id, range, ok } => {
                let inst = open.get_mut(id).expect("appends belong to an admitted job");
                if *ok {
                    inst.appended.push(*range);
                }
            }
            Log::Dispatch { key, shard, range } => {
                prop_assert!(
                    !quarantined.contains(&(key.clone(), *shard)),
                    "quarantined shard {shard} of {key} dispatched again"
                );
                shard_of.insert((key.clone(), *range), *shard);
            }
            Log::Death { key, shard } => *deaths.entry((key.clone(), *shard)).or_default() += 1,
            Log::Check { id, ok, .. } => {
                open.get_mut(id).expect("checks belong to a job").verdict = Some(*ok);
            }
            Log::Frame { event, .. } => match event {
                Event::Rejected { id, reason } => {
                    rejected += 1;
                    let id = id.expect("only submits are rejected here");
                    let pos = predicted_rejects.iter().position(|&r| r == id);
                    prop_assert!(pos.is_some(), "unpredicted rejection of {id}: {reason}");
                    predicted_rejects.remove(pos.unwrap());
                }
                Event::Accepted { id, total, shards } => {
                    prop_assert!(
                        occupied < config.max_jobs,
                        "job {id} admitted past the slots"
                    );
                    // Property 6: FIFO.
                    let req = waiting.pop_front();
                    prop_assert!(
                        req.as_ref().is_some_and(|r| r.id == *id),
                        "job {id} accepted out of submit order"
                    );
                    let req = req.unwrap();
                    prop_assert_eq!(*total, req.workload.total());
                    prop_assert!(!open.contains_key(id), "job {} admitted twice", id);
                    occupied += 1;
                    let inst = Inst {
                        req,
                        shards: *shards,
                        partials: 0,
                        covered: 0,
                        retries: 0,
                        splits: 0,
                        quarantined: Vec::new(),
                        appended: Vec::new(),
                        corrupted: false,
                        verdict: None,
                    };
                    open.insert(*id, inst);
                }
                Event::Partial {
                    id,
                    shard,
                    attempt,
                    covered,
                    ..
                } => {
                    let inst = open.get_mut(id);
                    prop_assert!(inst.is_some(), "partial for job {id} outside its life");
                    let inst = inst.unwrap();
                    // Property 3: WAL before merge.
                    let range = (shard.start, shard.end);
                    let pos = inst.appended.iter().position(|&r| r == range);
                    prop_assert!(pos.is_some(), "partial {range:?} of job {id} not journaled");
                    inst.appended.remove(pos.unwrap());
                    // Property 2: coverage strictly increases.
                    prop_assert!(*covered > inst.covered, "coverage of job {id} did not grow");
                    inst.covered = *covered;
                    inst.partials += 1;
                    let parts = Shard::partition(inst.req.workload.total(), inst.req.shards);
                    let corrupt = inst.req.faults.iter().find(|(i, _)| {
                        let s = parts[*i];
                        (s.start, s.end) == range
                    });
                    if *attempt == 0 && matches!(corrupt, Some((_, Fault::Corrupt))) {
                        inst.corrupted = true;
                    }
                }
                Event::Requeue {
                    id, repartitioned, ..
                } => {
                    let inst = open.get_mut(id);
                    prop_assert!(inst.is_some(), "requeue for job {id} outside its life");
                    let inst = inst.unwrap();
                    if *repartitioned {
                        inst.splits += 1;
                    } else {
                        inst.retries += 1;
                    }
                }
                Event::Quarantined { id, range, .. } => {
                    let inst = open.get_mut(id);
                    prop_assert!(inst.is_some(), "quarantine for job {id} outside its life");
                    let inst = inst.unwrap();
                    inst.quarantined.push(*range);
                    // Property 5: exactly K deaths, then never again.
                    let key = inst.req.workload.cache_key();
                    let shard = shard_of[&(key.clone(), *range)];
                    let kills = deaths.get(&(key.clone(), shard)).copied().unwrap_or(0);
                    prop_assert_eq!(
                        kills,
                        k,
                        "shard {} quarantined after {} deaths",
                        shard,
                        kills
                    );
                    quarantined.insert((key, shard));
                }
                Event::Done {
                    id,
                    output,
                    stats,
                    bit_identical,
                } => {
                    done += 1;
                    let inst = open.remove(id);
                    prop_assert!(inst.is_some(), "done for job {id} outside its life");
                    let inst = inst.unwrap();
                    occupied -= 1;
                    live.remove(id);
                    // Property 4: every stat counted once.
                    prop_assert_eq!(stats.shards, inst.shards);
                    prop_assert_eq!(stats.completed, inst.partials);
                    prop_assert_eq!(stats.shard_ms.len(), inst.partials);
                    prop_assert_eq!(stats.retries, inst.retries);
                    prop_assert_eq!(stats.repartitions, inst.splits);
                    prop_assert_eq!(stats.quarantined, inst.quarantined.len());
                    prop_assert_eq!(*bit_identical, inst.verdict);
                    prop_assert_eq!(inst.verdict.is_some(), inst.req.check);
                    // Property 1: the merged output is the monolithic
                    // one, holes exactly at the quarantined ranges.
                    if !inst.corrupted {
                        let expected = expected_output(&inst.req.workload, &inst.quarantined);
                        prop_assert!(
                            output.bit_identical(&expected),
                            "job {id} output differs from the monolithic run"
                        );
                    }
                    prop_assert!(
                        config.allow_partial || inst.quarantined.is_empty(),
                        "job {id} finished around a quarantined range"
                    );
                }
                Event::JobError { id, reason } => {
                    failed += 1;
                    let inst = open.remove(id);
                    prop_assert!(inst.is_some(), "job_error for job {id} outside its life");
                    let inst = inst.unwrap();
                    occupied -= 1;
                    live.remove(id);
                    prop_assert!(reason.starts_with("shard "), "unnamed failure: {reason}");
                    prop_assert!(
                        !(faultless && inst.req.faults.is_empty()),
                        "job {id} failed with nothing injected: {reason}"
                    );
                }
                other => prop_assert!(false, "unexpected frame {other:?}"),
            },
        }
    }
    step_ends(occupied, &waiting, &predicted_rejects)?;
    prop_assert!(open.is_empty(), "jobs {:?} never ended", open.keys());
    prop_assert!(waiting.is_empty(), "jobs never admitted");
    let stats = sim.core.stats();
    prop_assert_eq!(
        (stats.done, stats.failed, stats.rejected),
        (done, failed, rejected)
    );
    Ok(())
}

proptest! {
    /// Properties 1–6 under random configs, faults, timings and load.
    #[test]
    fn every_job_ends_once_and_correctly_under_random_faults(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = ServeConfig {
            cap: rng.gen_range(1..=4),
            retry: RetryPolicy::new(rng.gen_range(1..=5), Duration::from_millis(rng.gen_range(0..=20))),
            max_queue: rng.gen_range(0..=4),
            max_jobs: rng.gen_range(1..=3),
            quarantine_after: rng.gen_range(1..=4),
            allow_partial: rng.gen_bool(0.5),
            ..ServeConfig::default()
        };
        let mut pool = fake_pool(config.cap);
        pool.deadline = [None, Some(50), Some(200)][rng.gen_range(0..3usize)];
        pool.spawn_fail = [0.0, 0.1][rng.gen_range(0..2usize)];
        let spawn_fail = pool.spawn_fail;
        let mut sim = Sim::new(&config, pool, rng.gen());
        sim.append_fail = [0.0, 0.1][rng.gen_range(0..2usize)];
        sim.max_check_ms = rng.gen_range(0..=300);
        let mut t = 0;
        for n in 0..rng.gen_range(1..=7u64) {
            t += rng.gen_range(0..=30u64);
            // A few ids, so that some submits reuse a live one.
            let mut req = submit(rng.gen_range(0..4), random_workload(&mut rng, 100 + n), rng.gen_range(1..=5));
            for _ in 0..rng.gen_range(0..=2) {
                req.faults.push((rng.gen_range(0..req.shards), random_fault(&mut rng)));
            }
            req.check = rng.gen_bool(0.4);
            sim.submit(t, req);
        }
        sim.shutdown(t + rng.gen_range(0..=30u64));
        let trip = rng.gen_bool(0.2);
        if trip {
            sim.at(rng.gen_range(0..=t + 100), Ev::Trip);
        }
        sim.run()?;
        let faultless = !trip && spawn_fail == 0.0 && sim.append_fail == 0.0;
        check_contract(&sim, &config, faultless)?;
    }

    /// Property 7, the quantitative form of the old `multi_job_throughput`:
    /// two jobs whose one shard each stalls for `s` finish within one
    /// stall plus one shard's work under `--max-jobs 2 --cap 2`; one job
    /// slot would take two stalls.
    #[test]
    fn two_stalled_jobs_finish_within_one_stall(stall in 10u64..5_000) {
        let finish = |max_jobs: usize| -> Result<u64, TestCaseError> {
            let config = ServeConfig { cap: 2, max_jobs, ..ServeConfig::default() };
            let mut sim = Sim::new(&config, fake_pool(2), stall);
            for id in [1, 2] {
                let mut req = submit(id, landscape(id, "square", 3), 1);
                req.faults.push((0, Fault::Stall(stall)));
                sim.submit(0, req);
            }
            sim.shutdown(0);
            sim.run()?;
            let done: Vec<u64> = sim
                .frames()
                .filter(|(_, _, e)| matches!(e, Event::Done { .. }))
                .map(|(_, at, _)| at)
                .collect();
            prop_assert_eq!(done.len(), 2);
            Ok(done.into_iter().max().unwrap())
        };
        prop_assert!(finish(2)? <= stall + WORK_MS);
        prop_assert!(finish(1)? >= 2 * stall);
    }

    /// Property 8: a WAL cut after any append resumes through the core
    /// bit-identically, and only the missing ranges run again.
    #[test]
    fn a_cut_wal_resumes_bit_identically_running_only_the_missing_ranges(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = ServeConfig { cap: rng.gen_range(1..=3), ..ServeConfig::default() };
        let (workload, shards) = (random_workload(&mut rng, 7), rng.gen_range(1..=6));
        let mut sim = Sim::new(&config, fake_pool(config.cap), rng.gen());
        sim.submit(0, submit(7, workload.clone(), shards));
        sim.shutdown(0);
        sim.run()?;
        let wal = sim.wal.remove(&7).unwrap_or_default();
        let cut = rng.gen_range(0..=wal.len());
        let kept = wal[..cut].to_vec();
        let replay = JournalReplay { id: 7, workload: workload.clone(), shards, results: kept.clone() };

        let mut resumed = Sim::new(&config, fake_pool(config.cap), rng.gen());
        resumed.at(0, Ev::Client(Input::Resume(replay, true)));
        resumed.shutdown(0);
        resumed.max_check_ms = 50;
        resumed.run()?;
        let covered: usize = kept.iter().map(|r| r.provenance.shard.len()).sum();
        let events: Vec<&Event> = resumed.frames().map(|(_, _, e)| e).collect();
        prop_assert!(
            matches!(events.first(), Some(Event::Resumed { id: 7, replayed, covered: c, .. }) if *replayed == cut && *c == covered),
            "the resume must announce {} replayed partials: {:?}", cut, events.first()
        );
        let Some(Event::Done { output, stats, bit_identical, .. }) = events.last() else {
            return Err(TestCaseError::fail("the resumed job must finish"));
        };
        prop_assert!(output.bit_identical(&monolithic(&workload)));
        prop_assert_eq!(*bit_identical, Some(true));
        prop_assert_eq!(stats.replayed, cut);
        // Only the missing ranges ran, each exactly once.
        let mut ran: Vec<(usize, usize)> = resumed.log.iter().filter_map(|e| match e {
            Log::Dispatch { range, .. } => Some(*range),
            _ => None,
        }).collect();
        ran.sort_unstable();
        let mut kept_ranges: Vec<(usize, usize)> =
            kept.iter().map(|r| (r.provenance.shard.start, r.provenance.shard.end)).collect();
        kept_ranges.sort_unstable();
        let (mut missing, mut cursor) = (Vec::new(), 0);
        for (start, end) in kept_ranges {
            if cursor < start {
                missing.push((cursor, start));
            }
            cursor = end;
        }
        if cursor < workload.total() {
            missing.push((cursor, workload.total()));
        }
        prop_assert_eq!(ran, missing);
    }

    /// A pending check holds up no other tenant: while job 1's check
    /// runs, job 2, submitted after job 1's pool work is over, is
    /// admitted, runs and finishes. Job 1 keeps its id and its job slot
    /// until its `done` (job 3 waits for job 2's slot), and the service
    /// finishes only after the check.
    #[test]
    fn a_pending_check_holds_up_no_other_tenant(check_ms in 100u64..10_000, shards in 1usize..5) {
        let config = ServeConfig { cap: 2, max_jobs: 2, ..ServeConfig::default() };
        let mut sim = Sim::new(&config, fake_pool(2), check_ms);
        sim.check_ms = Some(check_ms);
        let mut first = submit(1, landscape(1, "square", 3), shards);
        first.check = true;
        sim.submit(0, first);
        // Job 1's pool work is over long before these; its verdict is not.
        sim.submit(50, submit(2, landscape(2, "triangle", 3), shards));
        sim.submit(50, submit(3, landscape(3, "square", 2), 1));
        sim.submit(60, submit(1, landscape(4, "square", 2), 1));
        sim.shutdown(70);
        sim.run()?;
        let at = |ty: &str, id: u64| {
            sim.frames().find_map(|(_, at, e)| {
                let (t, i) = match e {
                    Event::Done { id, .. } => ("done", *id),
                    Event::Accepted { id, .. } => ("accepted", *id),
                    Event::Rejected { id: Some(id), .. } => ("rejected", *id),
                    _ => return None,
                };
                (t == ty && i == id).then_some(at)
            })
        };
        let (done1, done2) = (at("done", 1).unwrap(), at("done", 2).unwrap());
        prop_assert!(at("accepted", 2) == Some(50), "job 2 waited for a slot");
        prop_assert!(done2 < done1, "job 2 waited for job 1's check");
        let accepted3 = at("accepted", 3).unwrap();
        prop_assert!(done2 <= accepted3 && accepted3 < done1, "job 3 took job 1's slot");
        prop_assert!(done1 >= check_ms);
        prop_assert!(at("rejected", 1).is_some_and(|t| t < done1), "id 1 was free before its done");
        let last = sim.frames().last().map(|(_, _, e)| e);
        let checked_last = matches!(
            last,
            Some(Event::Done { id: 1, bit_identical: Some(true), .. })
        );
        prop_assert!(checked_last, "the checked done must be the last frame: {:?}", last);
    }
}
