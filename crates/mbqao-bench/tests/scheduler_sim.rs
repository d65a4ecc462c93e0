//! A seeded simulator of the job scheduler and the pool supervisor on
//! virtual time.
//!
//! It drives the sans-IO [`Scheduler`] over the real sans-IO
//! [`PoolCore`], whose [`Workers`] are virtual processes on one
//! timeline. A virtual worker beats every [`HEARTBEAT`], decodes each
//! job with `job_from_json` and computes it with `run_shard`, and plays
//! the real [`Fault`]s in virtual time: a `Stall` advances the clock
//! instead of sleeping (the worker keeps beating), `Panic` and
//! `FailUntil` become a death with a stderr excerpt, `DieAfter(n)` a
//! clean exit after `n` results, and `Corrupt` goes through
//! `corrupt_f64_payload`. On top of those it injects hung workers (they
//! stop beating), workers that cannot be spawned, sick-host bursts in
//! which no spawn succeeds (so the breaker trips by its own death
//! count), straggler deadlines, failed journal appends and slow checks,
//! and it sends submits at random times, duplicate ids, queue overflow
//! and shutdown included. Nothing sleeps, so `PROPTEST_CASES` scales
//! the search freely.
//!
//! Every case checks the scheduler's contract:
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
//!
//! Every step of the pool core, here and in a pool-only harness with
//! random opaque jobs, checks the pool's contract against a model
//! built from what the virtual workers saw:
//!
//! 9. every submitted `PoolJob` gets exactly one `PoolOutcome`, and an
//!    `Ok` one carries the result its live worker sent; a frame from a
//!    reaped generation never produces one (it is counted in
//!    `stale_frames`);
//! 10. at most `cap` workers are live at any virtual instant;
//! 11. timing is exact: no job reaches a worker before its `delay` has
//!     run; a worker silent for [`LIVENESS`] is killed at that instant,
//!     idle or busy, and never earlier; a job still running at
//!     `job_deadline` is killed at that instant, with `timed_out` set;
//! 12. the breaker trips on the ninth breaker-relevant death (a crash,
//!     a liveness kill or a spawn failure, never a deadline kill)
//!     inside any [`RESTART_WINDOW`], and not otherwise;
//! 13. the FIFO head is bypassed by at most [`AFFINITY_STREAK_BOUND`]
//!     consecutive affinity picks.

use mbqao_bench::scheduler::{Action, Input, JournalOp, Scheduler};
use mbqao_bench::serve::{Event, JournalReplay, Request, ServeConfig, SubmitRequest};
use mbqao_bench::sweep::{
    assemble, corrupt_f64_payload, hole_payload, job_from_json, monolithic, result_to_json,
    run_shard, BackendKind, FamilyRef, Fault, Payload, SweepOutput, Workload,
};
use mbqao_core::engine::shard::{
    PoolConfig, PoolCore, PoolInput, PoolJob, PoolOutcome, RetryPolicy, Shard, ShardError,
    ShardResult, Workers, AFFINITY_STREAK_BOUND, HEARTBEAT, LIVENESS, MAX_RESTARTS, RESTART_WINDOW,
};
use mbqao_core::engine::wire::{PoolFrame, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

/// Virtual milliseconds one shard's work takes on a worker.
const WORK_MS: u64 = 1;

/// The pool's shutdown grace, in virtual milliseconds.
const GRACE_MS: u64 = 500;

fn ms(d: Duration) -> u64 {
    d.as_millis() as u64
}

/// Something that happens at a virtual instant.
enum Ev {
    /// A client request or a resume reaches the scheduler.
    Client(Input),
    /// A check verdict comes back.
    Checked(u64, bool),
    /// A job, a worker's frame or end, or a shutdown reaches the pool.
    Pool(PoolInput),
    /// Worker `(slot, gen)` beats, if it still runs and is not hung.
    Beat(usize, u64),
}

/// What a virtual worker does with one job body.
enum Fate {
    /// Answers with this body; `Some(n)` exits cleanly once it has
    /// answered `n` jobs.
    Answer(String, Option<u32>),
    /// Dies: stdout closes, and stderr holds the panic.
    Die,
    /// Stops beating and never answers.
    Hang,
}

/// A virtual worker process.
struct Proc {
    gen: u64,
    /// When it was spawned or last sent a frame the pool read.
    last_frame: u64,
    /// `(since, until)` of the job it holds.
    busy: Option<(u64, u64)>,
    hung: bool,
    /// Its stdout will close (it dies, exits or saw EOF).
    leaving: bool,
    /// Its stdout closed: the pool read its `Gone`.
    exited: bool,
    stderr: &'static str,
    answered: u32,
}

/// What the pool core asked of the virtual workers, in order.
enum Io {
    /// A spawn succeeded, leaving this many workers live.
    Spawned(usize),
    SpawnFailed,
    /// `(slot, body)`: a job frame went to the worker in `slot`.
    Sent(usize, String),
    Killed(usize, Proc),
}

/// The virtual processes behind a [`PoolCore`], and the timeline
/// everything travels on.
struct World {
    rng: StdRng,
    now: u64,
    seq: u64,
    timeline: BTreeMap<(u64, u64), Ev>,
    procs: Vec<Option<Proc>>,
    /// How a worker handles one job body.
    work: fn(&str) -> (u64, Fate),
    /// Chance that a spawn fails.
    spawn_fail: f64,
    /// Chance that a worker hangs, at its spawn or on a job.
    hang: f64,
    /// A sick-host burst `[from, to)`: no spawn succeeds.
    sick: Option<(u64, u64)>,
    /// A spawn failed or a worker hung.
    injected: bool,
    io: Vec<Io>,
}

impl World {
    fn at(&mut self, t: u64, ev: Ev) {
        self.seq += 1;
        self.timeline.insert((t, self.seq), ev);
    }
}

impl Workers for World {
    fn spawn(&mut self, slot: usize, gen: u64) -> Result<(), String> {
        let sick = self
            .sick
            .is_some_and(|(from, to)| (from..to).contains(&self.now));
        if sick || self.rng.gen_bool(self.spawn_fail) {
            self.injected = true;
            self.io.push(Io::SpawnFailed);
            return Err("spawning pool worker: injected".into());
        }
        assert!(
            self.procs[slot].is_none(),
            "slot {slot} spawned over a live worker"
        );
        let hung = self.rng.gen_bool(self.hang);
        self.injected |= hung;
        self.procs[slot] = Some(Proc {
            gen,
            last_frame: self.now,
            busy: None,
            hung,
            leaving: false,
            exited: false,
            stderr: "",
            answered: 0,
        });
        self.io
            .push(Io::Spawned(self.procs.iter().flatten().count()));
        self.at(self.now + ms(HEARTBEAT), Ev::Beat(slot, gen));
        Ok(())
    }

    fn send(&mut self, slot: usize, line: String) {
        let frame = Value::parse(&line).and_then(|v| PoolFrame::from_wire(&v));
        let Ok(PoolFrame::Job { gen, body }) = frame else {
            panic!("the core sends job frames: {line}");
        };
        let now = self.now;
        let hang = self.rng.gen_bool(self.hang);
        let p = self.procs[slot].as_mut().expect("jobs go to live workers");
        assert_eq!(gen, p.gen, "a job frame for another generation");
        assert!(p.busy.is_none(), "a busy worker got a second job");
        let (work_ms, fate) = (self.work)(&body);
        self.io.push(Io::Sent(slot, body));
        p.busy = Some((now, now + work_ms));
        if p.hung || p.leaving {
            return; // it never reads the job
        }
        let fate = if hang { Fate::Hang } else { fate };
        let gone = PoolInput::Gone(slot, gen, "worker stdout closed".into());
        match fate {
            Fate::Hang => {
                p.hung = true;
                self.injected = true;
            }
            Fate::Die => {
                (p.stderr, p.leaving) = ("injected fault: worker panics", true);
                self.at(now + work_ms, Ev::Pool(gone));
            }
            Fate::Answer(body, exit_after) => {
                p.answered += 1;
                let exits = exit_after.is_some_and(|n| p.answered >= n);
                p.leaving = exits;
                let result = PoolFrame::Result { gen, body };
                self.at(now + work_ms, Ev::Pool(PoolInput::Frame(slot, gen, result)));
                if exits {
                    self.at(now + work_ms, Ev::Pool(gone));
                }
            }
        }
    }

    fn close(&mut self, slot: usize) {
        let now = self.now;
        let p = self.procs[slot]
            .as_mut()
            .expect("closes go to live workers");
        if p.hung || p.leaving {
            return;
        }
        // It sees EOF once its job, if any, is answered.
        p.leaving = true;
        let at = p.busy.map_or(now, |(_, until)| until.max(now));
        let gone = PoolInput::Gone(slot, p.gen, "worker stdout closed".into());
        self.at(at, Ev::Pool(gone));
    }

    fn kill(&mut self, slot: usize) -> String {
        let p = self.procs[slot].take().expect("kills go to live workers");
        let stderr = p.stderr.to_string();
        self.io.push(Io::Killed(slot, p));
        stderr
    }
}

/// A [`PoolCore`] over a [`World`], checking properties 9–13 against a
/// model after every step.
struct Pool {
    core: PoolCore,
    world: World,
    origin: Instant,
    cap: usize,
    deadline: Option<u64>,
    /// Queued jobs by input (unique among them) → tag.
    tags: HashMap<String, u64>,
    /// Tag → the earliest instant it may reach a worker.
    due: HashMap<u64, u64>,
    /// The ready jobs, in the core's FIFO order.
    fifo: VecDeque<u64>,
    /// Delayed jobs by (due, arrival).
    delayed: BTreeMap<(u64, u64), u64>,
    arrivals: u64,
    /// Consecutive dispatches that bypassed the FIFO head.
    streak: usize,
    /// Slot → the tag its worker holds.
    running: HashMap<usize, u64>,
    /// Tags without a verdict.
    open: HashSet<u64>,
    /// Breaker-relevant death instants.
    deaths: Vec<u64>,
    /// Frames delivered from reaped generations.
    late: usize,
    /// When shutdown reached the core.
    closing: Option<u64>,
}

impl Pool {
    fn new(config: PoolConfig, work: fn(&str) -> (u64, Fate), seed: u64) -> Pool {
        let (cap, deadline) = (config.cap, config.job_deadline.map(ms));
        Pool {
            core: PoolCore::new(config),
            world: World {
                rng: StdRng::seed_from_u64(seed),
                now: 0,
                seq: 0,
                timeline: BTreeMap::new(),
                procs: (0..cap).map(|_| None).collect(),
                work,
                spawn_fail: 0.0,
                hang: 0.0,
                sick: None,
                injected: false,
                io: Vec::new(),
            },
            origin: Instant::now(),
            cap,
            deadline,
            tags: HashMap::new(),
            due: HashMap::new(),
            fifo: VecDeque::new(),
            delayed: BTreeMap::new(),
            arrivals: 0,
            streak: 0,
            running: HashMap::new(),
            open: HashSet::new(),
            deaths: Vec::new(),
            late: 0,
            closing: None,
        }
    }

    /// The next event: the earliest on the timeline, or a wake when the
    /// core's own timer runs out first.
    fn next(&mut self) -> Option<(u64, Ev)> {
        let wake = self.core.next_wake().map(|at| ms(at - self.origin));
        let first = self.world.timeline.keys().next().map(|&(t, _)| t);
        match (wake, first) {
            (Some(w), f) if f.is_none_or(|f| w < f) => Some((w, Ev::Pool(PoolInput::Wake))),
            _ => self.world.timeline.pop_first().map(|((t, _), ev)| (t, ev)),
        }
    }

    /// A beat of worker `(slot, gen)`, if it still runs.
    fn beat(&mut self, now: u64, slot: usize, gen: u64) -> Result<Vec<PoolOutcome>, TestCaseError> {
        // Now and then a worker hangs between beats, idle or busy.
        let hangs = self.world.rng.gen_bool(self.world.hang / 20.0);
        let Some(p) = self.world.procs[slot].as_mut().filter(|p| p.gen == gen) else {
            return Ok(Vec::new());
        };
        p.hung |= hangs;
        self.world.injected |= hangs;
        if p.hung {
            return Ok(Vec::new());
        }
        let busy = p.busy.is_some();
        self.world.at(now + ms(HEARTBEAT), Ev::Beat(slot, gen));
        let frame = PoolFrame::Heartbeat { gen, busy };
        self.step(now, PoolInput::Frame(slot, gen, frame))
    }

    /// One step of the core at `now`, checked against the model.
    fn step(&mut self, now: u64, input: PoolInput) -> Result<Vec<PoolOutcome>, TestCaseError> {
        self.world.now = now;
        let tripped = self.core.stats().tripped;
        let mut answers = HashMap::new();
        match &input {
            PoolInput::Job(job) => {
                prop_assert!(self.open.insert(job.tag), "tag {} submitted twice", job.tag);
                if !tripped && self.closing.is_none() {
                    let fresh = self.tags.insert(job.input.clone(), job.tag).is_none();
                    prop_assert!(fresh, "two queued jobs share an input");
                    self.due.insert(job.tag, now + ms(job.delay));
                    if job.delay.is_zero() {
                        self.fifo.push_back(job.tag);
                    } else {
                        self.arrivals += 1;
                        let key = (now + ms(job.delay), self.arrivals);
                        self.delayed.insert(key, job.tag);
                    }
                }
            }
            PoolInput::Frame(slot, gen, frame) => {
                let live = self.world.procs[*slot].as_mut().filter(|p| p.gen == *gen);
                match live {
                    Some(p) => {
                        p.last_frame = now;
                        if let PoolFrame::Result { body, .. } = frame {
                            p.busy = None;
                            let tag = self.running.remove(slot).expect("a result for a job");
                            answers.insert(tag, body.clone());
                        }
                    }
                    None => self.late += 1,
                }
            }
            PoolInput::Gone(slot, gen, _) => {
                let live = self.world.procs[*slot].as_mut().filter(|p| p.gen == *gen);
                if let Some(p) = live {
                    p.exited = true;
                    if self.closing.is_none() {
                        self.deaths.push(now); // a crash
                    }
                }
            }
            PoolInput::Wake => {}
            PoolInput::Shutdown => {
                self.closing.get_or_insert(now);
                self.fifo.clear();
                self.delayed.clear();
            }
        }
        while let Some(entry) = self.delayed.first_entry() {
            if entry.key().0 > now || self.closing.is_some() {
                break;
            }
            self.fifo.push_back(entry.remove());
        }

        let outcomes = self.core.step(
            self.origin + Duration::from_millis(now),
            input,
            &mut self.world,
        );

        let stats = self.core.stats();
        let tripped_now = stats.tripped && !tripped;
        let verdict = |tag: u64| outcomes.iter().find(|o| o.tag == tag);
        for io in std::mem::take(&mut self.world.io) {
            match io {
                Io::Spawned(live) => {
                    prop_assert!(live <= self.cap, "{} workers live, cap {}", live, self.cap);
                }
                Io::SpawnFailed => {
                    self.deaths.push(now);
                    let head = self.fifo.pop_front();
                    let failed = head.and_then(verdict).is_some_and(|o| o.result.is_err());
                    prop_assert!(failed, "a spawn failure must fail the FIFO head");
                }
                Io::Sent(slot, body) => {
                    let tag = self.tags.remove(&body);
                    prop_assert!(tag.is_some(), "an unknown job reached a worker");
                    let tag = tag.unwrap();
                    // Property 11: no job before its delay.
                    prop_assert!(now >= self.due[&tag], "job {tag} sent before its delay ran");
                    // Property 13: the head is bypassed a bounded number of times.
                    let pos = self.fifo.iter().position(|&t| t == tag);
                    prop_assert!(pos.is_some(), "job {tag} sent while not ready");
                    let pos = pos.unwrap();
                    self.streak = if pos == 0 { 0 } else { self.streak + 1 };
                    prop_assert!(
                        self.streak <= AFFINITY_STREAK_BOUND,
                        "the FIFO head was bypassed {} times in a row",
                        self.streak
                    );
                    self.fifo.remove(pos);
                    self.running.insert(slot, tag);
                }
                Io::Killed(slot, p) => {
                    let tag = self.running.remove(&slot);
                    let liveness = now == p.last_frame + ms(LIVENESS);
                    let deadline = p.busy.zip(self.deadline);
                    let deadline = deadline.is_some_and(|((since, _), d)| now == since + d);
                    let grace = self.closing.is_some_and(|t| now == t + GRACE_MS);
                    match tag.and_then(verdict) {
                        _ if p.exited => {} // reaped after its stdout closed
                        Some(o) if o.circuit_open => prop_assert!(tripped_now),
                        Some(o) if o.timed_out => {
                            prop_assert!(
                                deadline,
                                "job {} killed at {} before its deadline",
                                o.tag,
                                now
                            );
                        }
                        Some(o) if is_err_with(o, "no heartbeat") => {
                            prop_assert!(
                                liveness,
                                "a worker killed at {now} for silence since {}",
                                p.last_frame
                            );
                            self.deaths.push(now);
                        }
                        Some(o) if is_err_with(o, "shut down") => prop_assert!(grace),
                        Some(o) => prop_assert!(false, "unexplained kill: {:?}", o),
                        None if liveness => self.deaths.push(now),
                        None => prop_assert!(
                            grace || tripped_now,
                            "an idle worker killed at {now}, silent since {}",
                            p.last_frame
                        ),
                    }
                }
            }
        }
        if stats.tripped {
            self.fifo.clear();
            self.delayed.clear();
        }

        // Property 9: one verdict per job; a live result is its body.
        for o in &outcomes {
            prop_assert!(
                self.open.remove(&o.tag),
                "job {} got a second verdict",
                o.tag
            );
            if let Ok(body) = &o.result {
                let sent = answers.remove(&o.tag);
                prop_assert!(
                    sent.as_ref() == Some(body),
                    "job {} got a result no live worker sent",
                    o.tag
                );
            }
        }
        prop_assert!(answers.is_empty(), "live results without a verdict");
        prop_assert_eq!(stats.stale_frames, self.late);
        // Property 10.
        prop_assert!(stats.max_live <= self.cap);
        // Property 11: nothing overdue survives a step.
        for p in self.world.procs.iter().flatten() {
            prop_assert!(!p.exited, "a closed worker was not reaped");
            if self.closing.is_none() {
                let silent_until = p.last_frame + ms(LIVENESS);
                prop_assert!(
                    now < silent_until,
                    "a worker silent since {} lives at {now}",
                    p.last_frame
                );
                if let (Some((since, _)), Some(d)) = (p.busy, self.deadline) {
                    prop_assert!(
                        now < since + d,
                        "a job sent at {since} runs past its deadline at {now}"
                    );
                }
            }
        }
        // Property 12: nine deaths inside one window, and only then.
        let window = ms(RESTART_WINDOW);
        let expected = self
            .deaths
            .windows(MAX_RESTARTS + 1)
            .any(|w| w[MAX_RESTARTS] - w[0] <= window);
        prop_assert_eq!(stats.tripped, expected, "deaths at {:?}", self.deaths);
        Ok(outcomes)
    }

    /// Once the core has finished: every job had its verdict.
    fn check_end(&self) -> Result<(), TestCaseError> {
        prop_assert!(self.core.finished());
        prop_assert!(
            self.open.is_empty(),
            "jobs {:?} never got a verdict",
            self.open
        );
        Ok(())
    }
}

fn is_err_with(o: &PoolOutcome, text: &str) -> bool {
    matches!(&o.result, Err(ShardError::Worker { reason, .. }) if reason.contains(text))
}

/// How a virtual worker handles a sweep job: it plays the job's fault.
fn sweep_work(body: &str) -> (u64, Fate) {
    let (workload, shard, fault, attempt) =
        job_from_json(body).expect("the scheduler sends decodable jobs");
    let death = match fault {
        Some(Fault::Panic) => attempt == 0,
        Some(Fault::FailUntil(k)) => attempt < k,
        _ => false,
    };
    if death {
        return (WORK_MS, Fate::Die);
    }
    let stall = match fault {
        Some(Fault::Stall(ms)) if attempt == 0 => ms,
        _ => 0,
    };
    let json = result_to_json(&run_shard(&workload, shard));
    let body = match fault {
        Some(Fault::Truncate) if attempt == 0 => json[..json.len() / 2].to_string(),
        Some(Fault::Corrupt) if attempt == 0 => corrupt_f64_payload(&json),
        _ => json,
    };
    let exit_after = match fault {
        Some(Fault::DieAfter(n)) => Some(n),
        _ => None,
    };
    (WORK_MS + stall, Fate::Answer(body, exit_after))
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
    /// An attempt went to the pool (a job is known by its cache key,
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

struct Sim {
    now: u64,
    step: usize,
    core: Scheduler,
    pool: Pool,
    /// Tag → cache key of every attempt handed to the pool.
    keys: HashMap<u64, String>,
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
    fn new(config: &ServeConfig, seed: u64) -> Sim {
        let pool = PoolConfig {
            cap: config.cap,
            job_deadline: config.straggler_deadline,
        };
        Sim {
            now: 0,
            step: 0,
            core: Scheduler::new(config),
            pool: Pool::new(pool, sweep_work, seed),
            keys: HashMap::new(),
            append_fail: 0.0,
            max_check_ms: 0,
            check_ms: None,
            log: Vec::new(),
            wal: HashMap::new(),
        }
    }

    fn at(&mut self, t: u64, ev: Ev) {
        self.pool.world.at(t, ev);
    }

    fn submit(&mut self, t: u64, req: SubmitRequest) {
        let request = Request::Submit(Box::new(req));
        self.at(t, Ev::Client(Input::Request(Ok(request))));
    }

    fn shutdown(&mut self, t: u64) {
        self.at(t, Ev::Client(Input::Request(Ok(Request::Shutdown))));
    }

    /// Runs until the scheduler has finished and the pool, shut down
    /// after it as the service does, is gone.
    fn run(&mut self) -> Result<(), TestCaseError> {
        loop {
            if self.core.finished() {
                if self.pool.closing.is_none() {
                    let verdicts = self.pool.step(self.now, PoolInput::Shutdown)?;
                    prop_assert!(verdicts.is_empty(), "attempts outlived the scheduler");
                }
                if self.pool.core.finished() {
                    return self.pool.check_end();
                }
            }
            let Some((t, ev)) = self.pool.next() else {
                return Err(TestCaseError::fail(
                    "the scheduler waits for an event that never comes",
                ));
            };
            prop_assert!(t < 3_600_000, "runaway simulation");
            self.now = t;
            self.step += 1;
            let verdicts = match ev {
                Ev::Client(input) => {
                    if let Input::Request(Ok(Request::Submit(req))) = &input {
                        let (step, req) = (self.step, (**req).clone());
                        self.log.push(Log::Submit { step, req });
                    }
                    self.feed(vec![input])?;
                    continue;
                }
                Ev::Checked(id, bit_identical) => {
                    self.feed(vec![Input::Checked(id, bit_identical)])?;
                    continue;
                }
                Ev::Beat(slot, gen) => self.pool.beat(t, slot, gen)?,
                Ev::Pool(input) => self.pool.step(t, input)?,
            };
            self.feed(verdicts.into_iter().map(Input::Outcome).collect())?;
        }
    }

    /// One step: the inputs, then every journal answer and every
    /// verdict the pool gives at once, as the real driver does.
    fn feed(&mut self, inputs: Vec<Input>) -> Result<(), TestCaseError> {
        let mut answers = VecDeque::from(inputs);
        while let Some(input) = answers.pop_front() {
            if let Input::Outcome(o) = &input {
                if o.result.is_err() && !o.timed_out && !o.circuit_open {
                    let key = self.keys[&o.tag].clone();
                    self.log.push(Log::Death {
                        key,
                        shard: o.shard_index,
                    });
                }
            }
            for action in self.core.step(input) {
                match action {
                    Action::Submit(job) => {
                        let (_, shard, _, _) =
                            job_from_json(&job.input).expect("the scheduler sends decodable jobs");
                        self.log.push(Log::Dispatch {
                            key: job.cache_key.clone(),
                            shard: shard.index,
                            range: (shard.start, shard.end),
                        });
                        self.keys.insert(job.tag, job.cache_key.clone());
                        let verdicts = self.pool.step(self.now, PoolInput::Job(job))?;
                        answers.extend(verdicts.into_iter().map(Input::Outcome));
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
                            None => self.pool.world.rng.gen_range(0..=self.max_check_ms),
                        };
                        self.at(self.now + delay, Ev::Checked(id, ok));
                    }
                    Action::Emit(event) => self.frame(event),
                    Action::Finish(id, result, bit) => self.frame(Event::finished(id, result, bit)),
                }
            }
        }
        Ok(())
    }

    fn frame(&mut self, event: Event) {
        let (step, at) = (self.step, self.now);
        self.log.push(Log::Frame { step, at, event });
    }

    fn journal(&mut self, id: u64, op: JournalOp) -> Result<(), String> {
        let JournalOp::Append(result) = op else {
            return Ok(());
        };
        let ok = !self.pool.world.rng.gen_bool(self.append_fail);
        let shard = result.provenance.shard;
        let range = (shard.start, shard.end);
        self.log.push(Log::Append { id, range, ok });
        if !ok {
            return Err("injected: no space left on device".into());
        }
        self.wal.entry(id).or_default().push(result);
        Ok(())
    }

    /// The frames, in order.
    fn frames(&self) -> impl Iterator<Item = (usize, u64, &Event)> {
        self.log.iter().filter_map(|entry| match entry {
            Log::Frame { step, at, event } => Some((*step, *at, event)),
            _ => None,
        })
    }
}

/// How a virtual worker handles a pool-only job `"<tag> <ms> <fate>"`.
fn script_work(body: &str) -> (u64, Fate) {
    let words: Vec<&str> = body.split(' ').collect();
    let [tag, work_ms, fate] = words[..] else {
        panic!("a pool-only job: {body}");
    };
    let work_ms = work_ms.parse().expect("a duration in milliseconds");
    let answer = format!("{tag} answered");
    let fate = match fate {
        "die" => Fate::Die,
        "exit" => Fate::Answer(answer, Some(1)),
        _ => Fate::Answer(answer, None),
    };
    (work_ms, fate)
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
            straggler_deadline: [None, Some(50), Some(200)][rng.gen_range(0..3usize)].map(Duration::from_millis),
            max_queue: rng.gen_range(0..=4),
            max_jobs: rng.gen_range(1..=3),
            quarantine_after: rng.gen_range(1..=4),
            allow_partial: rng.gen_bool(0.5),
            ..ServeConfig::default()
        };
        let mut sim = Sim::new(&config, rng.gen());
        sim.pool.world.spawn_fail = [0.0, 0.1][rng.gen_range(0..2usize)];
        sim.pool.world.hang = [0.0, 0.05][rng.gen_range(0..2usize)];
        if rng.gen_bool(0.2) {
            // A sick host: no spawn succeeds for a while, so deaths pile
            // up until the breaker trips by its own count.
            let from = rng.gen_range(0..=200);
            sim.pool.world.sick = Some((from, from + rng.gen_range(100..=2_000u64)));
        }
        sim.append_fail = [0.0, 0.1][rng.gen_range(0..2usize)];
        sim.max_check_ms = rng.gen_range(0..=300);
        let (mut t, mut exits) = (0, false);
        for n in 0..rng.gen_range(1..=7u64) {
            t += rng.gen_range(0..=30u64);
            // A few ids, so that some submits reuse a live one.
            let mut req = submit(rng.gen_range(0..4), random_workload(&mut rng, 100 + n), rng.gen_range(1..=5));
            for _ in 0..rng.gen_range(0..=2) {
                let fault = random_fault(&mut rng);
                // A clean exit can take an attempt of another job with it.
                exits |= matches!(fault, Fault::DieAfter(_));
                req.faults.push((rng.gen_range(0..req.shards), fault));
            }
            req.check = rng.gen_bool(0.4);
            sim.submit(t, req);
        }
        sim.shutdown(t + rng.gen_range(0..=30u64));
        sim.run()?;
        let faultless = !sim.pool.core.stats().tripped
            && !sim.pool.world.injected
            && !exits
            && sim.append_fail == 0.0;
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
            let mut sim = Sim::new(&config, stall);
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
        let mut sim = Sim::new(&config, rng.gen());
        sim.submit(0, submit(7, workload.clone(), shards));
        sim.shutdown(0);
        sim.run()?;
        let wal = sim.wal.remove(&7).unwrap_or_default();
        let cut = rng.gen_range(0..=wal.len());
        let kept = wal[..cut].to_vec();
        let replay = JournalReplay { id: 7, workload: workload.clone(), shards, results: kept.clone() };

        let mut resumed = Sim::new(&config, rng.gen());
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
        let mut sim = Sim::new(&config, check_ms);
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

    /// Admission builds exactly the non-empty shards of the partition,
    /// however many more shards than items a submit asks for.
    #[test]
    fn admission_builds_exactly_the_non_empty_shards(steps in 2usize..7, exp in 0u32..=20, less in 0usize..3) {
        let shards = (1usize << exp).saturating_sub(less).max(1);
        let workload = landscape(1, "square", steps);
        let config = ServeConfig { cap: 1 << 10, ..ServeConfig::default() };
        let mut core = Scheduler::new(&config);
        let request = Request::Submit(Box::new(submit(1, workload.clone(), shards)));
        let mut actions = core.step(Input::Request(Ok(request)));
        actions.extend(core.step(Input::Journaled(1, Ok(()))));
        let built: Vec<Shard> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Submit(job) => Some(job_from_json(&job.input).unwrap().1),
                _ => None,
            })
            .collect();
        let expected: Vec<Shard> = Shard::partition(workload.total(), shards)
            .into_iter()
            .filter(|s| !s.is_empty())
            .collect();
        prop_assert_eq!(built, expected);
    }

    /// Properties 9–13 on the pool core alone: random opaque jobs, cache
    /// keys, delays, durations, deaths, clean exits, hangs, spawn
    /// failures, sick-host bursts and deadlines, and a shutdown at a
    /// random instant.
    #[test]
    fn the_pool_core_keeps_its_contract_under_random_faults(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = PoolConfig {
            cap: rng.gen_range(1..=4),
            job_deadline: rng.gen_bool(0.5).then(|| Duration::from_millis(rng.gen_range(50..=3_000))),
        };
        let mut pool = Pool::new(config, script_work, rng.gen());
        pool.world.spawn_fail = [0.0, 0.05, 0.3][rng.gen_range(0..3usize)];
        pool.world.hang = [0.0, 0.05][rng.gen_range(0..2usize)];
        if rng.gen_bool(0.3) {
            let from = rng.gen_range(0..=20_000);
            pool.world.sick = Some((from, from + rng.gen_range(100..=5_000u64)));
        }
        let (keys, die) = (rng.gen_range(1..=3), [0.0, 0.1, 0.4][rng.gen_range(0..3usize)]);
        // Jobs arrive in bursts, so queues build up behind busy workers;
        // the slowest pace spreads deaths over several breaker windows.
        let (pace, gap) = [(0.05, 1_000u64), (0.3, 4_000), (0.8, 12_000)][rng.gen_range(0..3usize)];
        let mut t = 0;
        for tag in 0..rng.gen_range(1..=40u64) {
            if rng.gen_bool(pace) {
                t += rng.gen_range(0..=gap);
            }
            // A few jobs outlast LIVENESS on a worker that keeps beating.
            let work_ms: u64 = if rng.gen_bool(0.1) { rng.gen_range(5_000..=12_000) } else { rng.gen_range(1..=500) };
            let fate = if rng.gen_bool(die) { "die" } else if rng.gen_bool(0.1) { "exit" } else { "ok" };
            let delay = if rng.gen_bool(0.3) { rng.gen_range(1..=2_000) } else { 0 };
            pool.world.at(t, Ev::Pool(PoolInput::Job(PoolJob {
                tag,
                shard_index: tag as usize,
                input: format!("{tag} {work_ms} {fate}"),
                cache_key: format!("k{}", rng.gen_range(0..keys)),
                delay: Duration::from_millis(delay),
            })));
        }
        pool.world.at(t + rng.gen_range(0..=20_000u64), Ev::Pool(PoolInput::Shutdown));
        while !pool.core.finished() {
            let Some((now, ev)) = pool.next() else {
                return Err(TestCaseError::fail("the pool waits for an event that never comes"));
            };
            prop_assert!(now < 3_600_000, "runaway simulation");
            match ev {
                Ev::Pool(input) => pool.step(now, input)?,
                Ev::Beat(slot, gen) => pool.beat(now, slot, gen)?,
                Ev::Client(_) | Ev::Checked(..) => unreachable!("only the pool acts here"),
            };
        }
        pool.check_end()?;
    }
}
