//! The layer census: every per-layer metric, measured on the running
//! workload's own inputs.
//!
//! A workload's replay covers the layers on its blocking path; the
//! census times the remaining public layer calls on the same instances
//! (and a small job set through the real service), so every traced run
//! reports every layer. Counters come from fixed, seed-derived input
//! sets only, never from the length of the timed window, so they repeat
//! exactly for a given seed.

use crate::client::{Service, SHARDS};
use crate::instances::{generic_points, Instance};
use crate::layers;
use crate::stats::median;
use crate::trace::Trace;
use crate::{Ctx, Outcome};
use mbqao_bench::serve::{spawn_pool, JobJournal, ServeConfig, SubmitRequest};
use mbqao_bench::sweep::{
    assemble, job_to_json, monolithic, result_from_json, result_to_json, run_shard, SweepOutput,
    Workload,
};
use mbqao_core::cache::{compile_qaoa_cached, pattern_cache_stats};
use mbqao_core::compiler::CompileOptions;
use mbqao_core::engine::shard::{PoolJob, WorkerPool};
use mbqao_core::engine::wire::Value;
use mbqao_core::engine::{Backend, Executor, GateBackend, PatternBackend, PauliBackend};
use mbqao_core::{Merger, Shard};
use mbqao_mbqc::classify_pattern;
use mbqao_mbqc::resources::stats;
use mbqao_mbqc::simulate::{Branch, PatternRunner};
use mbqao_problems::{generators, maxcut};
use mbqao_tableau::{PatternRun, MAX_MAGIC_EXPECTATION, MAX_MAGIC_SAMPLING};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};
use std::time::{Duration, Instant};

/// Largest register the census lets a statevector take (2^22 amplitudes).
const MAX_CENSUS_LIVE: usize = 22;

/// Request ids of census spans start here (replays use small ids).
const CENSUS_REQ: u64 = 1 << 40;

/// Times every compute-layer call on `instances`. Statevector layers
/// run only where a statevector fits (`n ≤ 16`), ZX layers where the
/// rewrite is cheap (`n ≤ 16`, `p ≤ 2`).
pub fn compute(ctx: &Ctx, tr: &mut Trace, out: &mut Outcome, instances: &[Instance]) {
    let mut rng = crate::instances::rng(ctx.seed, 7);
    let reps = if ctx.smoke { 2 } else { 6 };
    let default = CompileOptions::default();
    for (i, inst) in instances.iter().enumerate() {
        tr.request(CENSUS_REQ + i as u64);
        let (cost, p) = (&inst.cost, inst.p);
        let before = pattern_cache_stats();
        let cached = tr.span("cache.lookup", |_| compile_qaoa_cached(cost, p, &default));
        let after = pattern_cache_stats();
        tr.add("cache.pattern_hits", (after.hits - before.hits) as f64);
        tr.add(
            "cache.pattern_misses",
            (after.misses - before.misses) as f64,
        );

        let compiled = layers::compile_and_schedule(tr, cost, p, &default);
        layers::count_schedule(tr, &compiled.pattern);
        let points = generic_points(&mut rng, p, reps);

        if cost.n() <= 16 {
            tr.add("simulate.amp_touches", layers::amp_touches(&cached.pattern));
            let cv = cost.cost_vector_msb();
            for pt in &points {
                let st = layers::run_state(tr, &cached.pattern, pt);
                layers::readout(tr, &st, &cached.output_wires, &cv);
            }
            let gate = GateBackend::standard(cost.clone(), p);
            gate.expectation(&points[0]);
            for pt in &points {
                tr.span("gate.expectation", |_| gate.expectation(pt));
            }
            let sampling = compile_qaoa_cached(
                cost,
                p,
                &CompileOptions {
                    measure_outputs: true,
                    ..CompileOptions::default()
                },
            );
            let mut runner = PatternRunner::new();
            let mut shot_rng = StdRng::seed_from_u64(ctx.seed);
            for _ in 0..4 * reps {
                tr.span("simulate.shot", |_| {
                    runner.run(&sampling.pattern, &points[0], Branch::Random, &mut shot_rng)
                });
            }
            executor_batch(
                tr,
                out,
                &Executor::new(PatternBackend::new(cost, p)),
                &points,
            );
        }

        if cost.n() <= 16 && p <= 2 {
            let zx = layers::zx_pipeline(tr, &cached.pattern);
            layers::count_zx(tr, &zx);
            if stats(&zx.pattern).max_live <= MAX_CENSUS_LIVE {
                let cv = cost.cost_vector_msb();
                let st = layers::zx_run(tr, &zx, &points[0]);
                layers::readout(tr, &st, &zx.output_wires, &cv);
            }
        }

        let lattice: Vec<f64> = std::iter::repeat_n(FRAC_PI_2, p)
            .chain(std::iter::repeat_n(FRAC_PI_4, p))
            .collect();
        if !tableau_probe(ctx, tr, inst, &lattice) {
            // Weighted instances miss the Pauli axes at this lattice
            // point; probe the tableau on an unweighted ring of the same
            // size instead (magic 0 at γ = π/2, β = π/4).
            let ring = Instance {
                name: format!("C{}", cost.n()),
                cost: maxcut::maxcut_zpoly(&generators::cycle(cost.n())),
                p: 1,
            };
            tableau_probe(ctx, tr, &ring, &[FRAC_PI_2, FRAC_PI_4]);
        }
    }
}

/// One `Executor::expectation_batch` against the same points evaluated
/// one at a time: records `executor.batch` and the parallel efficiency.
pub fn executor_batch<B: Backend>(
    tr: &mut Trace,
    out: &mut Outcome,
    exec: &Executor<B>,
    points: &[Vec<f64>],
) {
    exec.expectation(&points[0]);
    let t = Instant::now();
    for pt in points {
        std::hint::black_box(exec.expectation(pt));
    }
    let single = t.elapsed();
    let t = Instant::now();
    tr.span("executor.batch", |_| exec.expectation_batch(points));
    let batch = t.elapsed();
    out.sample(
        "executor.parallel_eff",
        single.as_secs_f64() / (batch.as_secs_f64() * rayon::current_num_threads() as f64),
    );
}

/// Classifies `inst` at `params` and, when the point fits the tableau
/// budgets, times the tableau reference run, the `3^k` readout and a few
/// protocol samples. Returns whether the tableau path ran.
pub fn tableau_probe(ctx: &Ctx, tr: &mut Trace, inst: &Instance, params: &[f64]) -> bool {
    let pauli = PauliBackend::new(&inst.cost, inst.p);
    let compiled = pauli.compiled();
    let class = tr.span("classify", |_| classify_pattern(&compiled.pattern, params));
    tr.add("classify.magic", class.magic as f64);
    if class.magic > MAX_MAGIC_EXPECTATION {
        return false;
    }
    let run = tr.span("tableau.run", |_| {
        PatternRun::reference(&compiled.pattern, params)
    });
    tr.add("tableau.expansion_terms", run.expansion_terms() as f64);
    tr.span("tableau.diag", |_| {
        run.diag_expectation(
            inst.cost.constant(),
            inst.cost.terms(),
            &compiled.output_wires,
        )
    });
    let sampling = pauli.compiled_sampling();
    if classify_pattern(&sampling.pattern, params).magic <= MAX_MAGIC_SAMPLING {
        let mut rng = StdRng::seed_from_u64(ctx.seed);
        for _ in 0..if ctx.smoke { 1 } else { 3 } {
            tr.span("tableau.sample", |_| {
                PatternRun::sample(&sampling.pattern, params, &mut rng)
            });
        }
    }
    true
}

/// Share of `points` (per instance) at which `PauliBackend` would fall
/// back to the statevector.
pub fn fallback_frac(instances: &[Instance], points: &[Vec<Vec<f64>>]) -> f64 {
    let (mut fallback, mut total) = (0usize, 0usize);
    for (inst, pts) in instances.iter().zip(points) {
        let pauli = PauliBackend::new(&inst.cost, inst.p);
        for pt in pts {
            total += 1;
            fallback += usize::from(!pauli.tableau_eligible(pt));
        }
    }
    fallback as f64 / total.max(1) as f64
}

/// Client-side spans of one job, laid out as a tree rooted at
/// `serve.job`: encode → (pipe write) → admission → wait → decode.
pub fn record_job(tr: &mut Trace, job: &crate::client::JobTimes) {
    let end = job.t_done + job.decode;
    let root = tr.record("serve.job", job.id, None, job.t_encode, end);
    tr.record(
        "client.encode",
        job.id,
        Some(root),
        job.t_encode,
        job.t_encode + job.encode,
    );
    let accepted = job.t_accepted.unwrap_or(job.t_submit);
    tr.record(
        "serve.admission",
        job.id,
        Some(root),
        job.t_submit,
        accepted,
    );
    tr.record("serve.wait", job.id, Some(root), accepted, job.t_done);
    tr.record("client.decode", job.id, Some(root), job.t_done, end);
    if let Some(first) = job.t_first_partial {
        tr.record("serve.first_partial", job.id, None, job.t_submit, first);
    }
}

/// A traced closed loop against a running service: client-side spans
/// per job until `until` (at least three jobs per shape), plus the
/// `done` frames' compile-cache hit rate.
pub fn client_loop(
    tr: &mut Trace,
    out: &mut Outcome,
    service: &mut Service,
    jobs: &[Workload],
    expected: &[SweepOutput],
    until: Instant,
) {
    let min_jobs = 3 * jobs.len();
    match service.run_loop(jobs, expected, |started| {
        started < min_jobs || Instant::now() < until
    }) {
        Ok(done) => {
            let (mut hits, mut misses) = (0, 0);
            for job in &done {
                out.check(job.ok, || format!("traced job {} output", job.id));
                record_job(tr, job);
                hits += job.cache_hits;
                misses += job.cache_misses;
            }
            out.sample(
                "serve.cache_hit_rate",
                hits as f64 / (hits + misses).max(1) as f64,
            );
        }
        Err(e) => out.fail(format!("traced client loop: {e}")),
    }
    for f in std::mem::take(&mut service.failures) {
        out.fail(f);
    }
}

/// The orchestration layers for a workload that does not use the
/// service: the `serve_jobs` job shapes of the same seed against a fresh
/// `mbqao-serve` (one warm-up job per shape, then a one-second traced
/// loop), and a dozen in-process replays.
pub fn orchestration_probe(ctx: &Ctx, tr: &mut Trace, out: &mut Outcome) {
    let jobs = crate::instances::serve_jobs(ctx.seed);
    let expected: Vec<SweepOutput> = jobs.iter().map(monolithic).collect();
    let journal = ctx.scratch_dir("census-journal");
    match Service::spawn(&ctx.serve_exe, ctx.cap(), &journal) {
        Err(e) => out.fail(format!("spawning mbqao-serve: {e}")),
        Ok(mut service) => {
            if let Err(e) = service.run_loop(&jobs, &expected, |started| started < jobs.len()) {
                out.fail(format!("warm-up jobs: {e}"));
            }
            let client = Duration::from_secs_f64(if ctx.smoke { 0.0 } else { 1.0 });
            client_loop(
                tr,
                out,
                &mut service,
                &jobs,
                &expected,
                Instant::now() + client,
            );
            if let Err(e) = service.shutdown() {
                out.fail(format!("mbqao-serve shutdown: {e}"));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&journal);
    replays(ctx, tr, out, &jobs, &expected, 12);
}

/// The same shard jobs replayed in process through the public wire,
/// pool, merge and journal calls, `count` jobs in all (at least one per
/// shape).
pub fn replays(
    ctx: &Ctx,
    tr: &mut Trace,
    out: &mut Outcome,
    jobs: &[Workload],
    expected: &[SweepOutput],
    count: usize,
) {
    let config = ServeConfig {
        cap: ctx.cap(),
        ..ServeConfig::default()
    };
    let pool = spawn_pool(&ctx.serve_exe, &config);
    let wal_dir = ctx.scratch_dir("census-wal");
    let mut tag = 0u64;
    let mut bytes = 0usize;
    for r in 0..count.max(jobs.len()) {
        let kind = r % jobs.len();
        tr.request(CENSUS_REQ + (1 << 20) + r as u64);
        let job_bytes = replay_job(
            tr,
            out,
            &pool,
            &mut tag,
            r as u64,
            &jobs[kind],
            &expected[kind],
            &wal_dir,
        );
        if r < jobs.len() {
            bytes += job_bytes;
        }
    }
    tr.add("wire.bytes_per_job", bytes as f64 / jobs.len() as f64);
    let stats = pool.shutdown();
    if stats.restarts > 0 {
        out.fail(format!("worker pool restarted {} workers", stats.restarts));
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// One job through the in-process public calls. Returns the job's wire
/// bytes (submit + shard jobs + shard results + done output), which
/// depend only on the job and the compile-cache history.
#[allow(clippy::too_many_arguments)]
fn replay_job(
    tr: &mut Trace,
    out: &mut Outcome,
    pool: &WorkerPool,
    tag: &mut u64,
    id: u64,
    workload: &Workload,
    expected: &SweepOutput,
    wal_dir: &std::path::Path,
) -> usize {
    let shards = Shard::partition(workload.total(), SHARDS);
    let (submit, shard_jobs) = tr.span("wire.encode", |_| {
        let submit = SubmitRequest {
            id,
            workload: workload.clone(),
            shards: SHARDS,
            faults: Vec::new(),
            check: false,
        }
        .to_wire()
        .to_json();
        let shard_jobs: Vec<String> = shards
            .iter()
            .map(|&s| job_to_json(workload, s, None))
            .collect();
        (submit, shard_jobs)
    });
    let mut bytes = submit.len() + shard_jobs.iter().map(String::len).sum::<usize>();

    let mut bodies = Vec::new();
    for (shard, input) in shards.iter().zip(&shard_jobs) {
        *tag += 1;
        let job = PoolJob {
            tag: *tag,
            shard_index: shard.index,
            input: input.clone(),
            cache_key: workload.cache_key(),
            delay: Duration::ZERO,
        };
        let outcome = tr.span("pool.rtt", |_| {
            pool.submit(job).ok().and_then(|()| pool.recv())
        });
        match outcome.map(|o| o.result) {
            Some(Ok(body)) => bodies.push(body),
            other => out.fail(format!("pool shard {}: {other:?}", shard.index)),
        }
        let local = tr.span("pool.compute", |_| run_shard(workload, *shard));
        bytes += result_to_json(&local).len();
    }

    let parts = tr.span("wire.decode", |_| {
        bodies
            .iter()
            .map(|b| result_from_json(b))
            .collect::<Result<Vec<_>, _>>()
    });
    let parts = match parts {
        Ok(p) => p,
        Err(e) => {
            out.fail(format!("decoding shard results: {e}"));
            return bytes;
        }
    };
    let mut journal = match JobJournal::create(wal_dir, id, workload, SHARDS) {
        Ok(j) => Some(j),
        Err(e) => {
            out.fail(format!("creating journal: {e}"));
            None
        }
    };
    if let Some(journal) = journal.as_mut() {
        for part in &parts {
            if let Err(e) = tr.span("wal.append", |_| journal.append(part)) {
                out.fail(format!("journal append: {e}"));
            }
        }
    }
    let merged = tr.span("merge", |_| {
        let mut merger = Merger::new(workload.total());
        for part in parts {
            merger.insert(part)?;
        }
        merger.finish().map(|all| assemble(workload, all))
    });
    match merged {
        Ok(output) => {
            let done = output.to_wire().to_json();
            bytes += done.len();
            let echoed = Value::parse(&done)
                .and_then(|v| SweepOutput::from_wire(&v))
                .is_ok_and(|o| o.bit_identical(expected));
            out.check(output.bit_identical(expected) && echoed, || {
                format!("replayed job {id} differs from the monolithic run")
            });
        }
        Err(e) => out.fail(format!("merging job {id}: {e:?}")),
    }
    bytes
}

/// The per-layer metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("compiler.compile_ms", "ms"),
    ("schedule.jit_ms", "ms"),
    ("cache.pattern_hit_rate", "ratio"),
    ("cache.pattern_hits", "count"),
    ("cache.pattern_misses", "count"),
    ("schedule.max_live", "count"),
    ("schedule.entanglers", "count"),
    ("zx.export_ms", "ms"),
    ("zx.simplify_ms", "ms"),
    ("zx.graph_like_ms", "ms"),
    ("zx.clifford_ms", "ms"),
    ("zx.extract_ms", "ms"),
    ("zx.run_ms", "ms"),
    ("zx.rewrites", "count"),
    ("zx.max_live", "count"),
    ("zx.entanglers", "count"),
    ("simulate.run_us", "us"),
    ("simulate.amp_touches", "count"),
    ("simulate.shot_us", "us"),
    ("readout.us", "us"),
    ("gate.expectation_us", "us"),
    ("executor.batch_ms", "ms"),
    ("executor.parallel_eff", "ratio"),
    ("classify.us", "us"),
    ("classify.magic", "count"),
    ("tableau.run_us", "us"),
    ("tableau.diag_us", "us"),
    ("tableau.expansion_terms", "count"),
    ("tableau.sample_us", "us"),
    ("pauli.fallback_frac", "ratio"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_job", "bytes"),
    ("pool.rtt_us", "us"),
    ("pool.compute_us", "us"),
    ("pool.overhead_us", "us"),
    ("merge.us", "us"),
    ("wal.append_ms", "ms"),
    ("serve.admission_ms", "ms"),
    ("serve.first_partial_ms", "ms"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.unattributed_ms", "ms"),
    ("serve.job_ms", "ms"),
    ("trace.traced_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.reconcile_err", "ratio"),
    ("failed_frac", "ratio"),
];

/// Median self time of the spans named `span`, scaled from µs by
/// `per_us` (1 for µs, 1e-3 for ms); records a failure when the layer
/// was never called.
fn span_median(tr: &Trace, out: &mut Outcome, span: &str, per_us: f64) -> f64 {
    let v = tr.self_us(span);
    if v.is_empty() {
        out.fail(format!("traced run recorded no `{span}` span"));
        return 0.0;
    }
    median(&v) * per_us
}

/// Turns the trace and the derived samples into the per-layer metrics.
pub fn per_layer(tr: &Trace, out: &mut Outcome) -> Vec<(String, f64, &'static str)> {
    let count = |name: &str| tr.counters.get(name).copied().unwrap_or(0.0);
    let hits = count("cache.pattern_hits");
    let misses = count("cache.pattern_misses");
    let job_ms = median(&tr.subtree_self_ms("serve.job"));
    let rtt = span_median(tr, out, "pool.rtt", 1.0);
    let compute = span_median(tr, out, "pool.compute", 1.0);
    let attributed = span_median(tr, out, "client.encode", 1e-3)
        + span_median(tr, out, "serve.admission", 1e-3)
        + rtt * 1e-3
        + span_median(tr, out, "merge", 1e-3)
        + SHARDS as f64 * span_median(tr, out, "wal.append", 1e-3)
        + span_median(tr, out, "client.decode", 1e-3);
    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        let value = match name {
            "cache.pattern_hit_rate" => hits / (hits + misses).max(1.0),
            "pool.rtt_us" => rtt,
            "pool.compute_us" => compute,
            "pool.overhead_us" => rtt - compute,
            "serve.job_ms" => job_ms,
            "serve.unattributed_ms" => job_ms - attributed,
            "failed_frac" => out.failed() as f64 / out.attempted.max(1) as f64,
            _ if unit == "count" || unit == "bytes" => count(name),
            _ if out.derived.contains_key(name) => median(&out.derived[name]),
            _ => {
                let (span, per_us) = match name.rsplit_once('_') {
                    Some((span, "ms")) => (span, 1e-3),
                    Some((span, "us")) => (span, 1.0),
                    _ => (name.trim_end_matches(".us"), 1.0),
                };
                span_median(tr, out, span, per_us)
            }
        };
        metrics.push((name.to_string(), value, unit));
    }
    metrics
}
