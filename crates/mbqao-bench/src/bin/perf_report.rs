//! `perf_report` — the committed perf-trajectory reporter.
//!
//! Times the representative hot paths end to end (gate vs. pattern vs.
//! ZX expectation, MBQC shot throughput, the batched parameter sweep,
//! and a above-`PAR_THRESHOLD` statevector workload) with warm-up and
//! repetition, then writes a machine-readable JSON report. The committed
//! `BENCH_<pr>.json` files at the repo root form the perf trajectory of
//! the project; CI runs `perf_report --smoke` on every push so the
//! reporter itself can never rot (no timing assertions there — shared
//! runners jitter).
//!
//! Usage:
//! ```text
//! cargo run --release -p mbqao-bench --bin perf_report            # full run → target/perf_report.json
//! cargo run --release -p mbqao-bench --bin perf_report -- --smoke # tiny run (CI)
//! cargo run --release -p mbqao-bench --bin perf_report -- --only mbqc # workloads whose name contains "mbqc"
//! cargo run --release -p mbqao-bench --bin perf_report -- --out BENCH_<pr>.json # commit a trajectory point
//! ```
//!
//! Unknown arguments are rejected with a usage line and exit code 2.

use mbqao_bench::serve::{
    run_job, run_job_with, serve, spawn_pool, JobSpec, ServeConfig, SubmitRequest,
};
use mbqao_bench::sweep::{BackendKind, FamilyRef, Fault, Workload};
use mbqao_core::engine::wire::{write_frame, Value};
use mbqao_core::engine::{Backend, Executor, GateBackend, PatternBackend, PauliBackend, ZxBackend};
use mbqao_problems::{generators, maxcut, ZPoly};
use mbqao_qaoa::QaoaAnsatz;
use std::time::Instant;

/// Which perf-trajectory point this binary produces.
const PR: u32 = 10;

const USAGE: &str = "usage: perf_report [--smoke] [--only <filter>] [--out <path>]";

/// Where the report goes unless `--out` says otherwise: under the build
/// directory, so an exploratory run never overwrites a committed
/// `BENCH_<pr>.json` trajectory point.
const DEFAULT_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/perf_report.json");

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    smoke: bool,
    only: Option<String>,
    out: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        smoke: false,
        only: None,
        out: DEFAULT_OUT.to_string(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--smoke" => parsed.smoke = true,
            "--only" => parsed.only = Some(value()?),
            "--out" => parsed.out = value()?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// One measured workload: `reps` timed repetitions of `iters` inner
/// iterations each (after `warmup` untimed repetitions).
struct Measurement {
    name: &'static str,
    detail: String,
    /// Unit of one inner iteration (for throughput readers).
    unit: &'static str,
    iters: usize,
    warmup: usize,
    reps: usize,
    /// Seconds per inner iteration, one entry per rep.
    secs_per_iter: Vec<f64>,
}

impl Measurement {
    /// [`Measurement::time`], then one stderr line with the result.
    fn run(
        name: &'static str,
        detail: String,
        unit: &'static str,
        iters: usize,
        warmup: usize,
        reps: usize,
        f: impl FnMut(),
    ) -> Self {
        let m = Self::time(name, detail, unit, iters, warmup, reps, f);
        m.log();
        m
    }

    /// Times `reps` repetitions of `iters` calls to `f`, after `warmup`
    /// untimed repetitions.
    fn time(
        name: &'static str,
        detail: String,
        unit: &'static str,
        iters: usize,
        warmup: usize,
        reps: usize,
        mut f: impl FnMut(),
    ) -> Self {
        for _ in 0..warmup * iters {
            f();
        }
        let mut secs_per_iter = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            secs_per_iter.push(t0.elapsed().as_secs_f64() / iters as f64);
        }
        Measurement {
            name,
            detail,
            unit,
            iters,
            warmup,
            reps,
            secs_per_iter,
        }
    }

    fn log(&self) {
        eprintln!(
            "  {:<28} {:>12.3} µs/{} (min over {} reps × {} iters)",
            self.name,
            self.min() * 1e6,
            self.unit,
            self.reps,
            self.iters
        );
    }

    fn min(&self) -> f64 {
        self.secs_per_iter
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    fn mean(&self) -> f64 {
        self.secs_per_iter.iter().sum::<f64>() / self.secs_per_iter.len() as f64
    }

    fn median(&self) -> f64 {
        let mut v = self.secs_per_iter.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN timings"));
        v[v.len() / 2]
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\"name\": \"{}\", \"detail\": \"{}\", \"unit\": \"{}\", ",
                "\"iters_per_rep\": {}, \"warmup_reps\": {}, \"reps\": {}, ",
                "\"secs_per_iter\": {{\"min\": {:.9e}, \"median\": {:.9e}, \"mean\": {:.9e}}}, ",
                "\"per_sec_min\": {:.6e}}}"
            ),
            self.name,
            self.detail,
            self.unit,
            self.iters,
            self.warmup,
            self.reps,
            self.min(),
            self.median(),
            self.mean(),
            1.0 / self.min(),
        )
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let Args {
        smoke,
        only,
        out: out_path,
    } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("perf_report: {e}\n{USAGE}");
        std::process::exit(2);
    });

    // Scale knobs: --smoke keeps CI fast, the full run is what gets
    // committed. Inner-iteration counts keep each rep ≳ a few ms so
    // Instant resolution never dominates.
    let (warmup, reps) = if smoke { (0, 1) } else { (2, 7) };
    let shots = if smoke { 32 } else { 512 };
    let sweep_points = if smoke { 8 } else { 64 };
    let scale = |iters: usize| if smoke { 1 } else { iters };

    eprintln!(
        "perf_report (pr {PR}, {}, {} threads)",
        if smoke { "smoke" } else { "full" },
        rayon::current_num_threads()
    );

    let petersen = maxcut::maxcut_zpoly(&generators::petersen());
    let grid = maxcut::maxcut_zpoly(&generators::grid(3, 3));
    let ring16 = maxcut::maxcut_zpoly(&generators::cycle(16));
    let p2_params = [0.7, 0.4, 0.3, 0.9];
    let p1_params = [0.7, 0.4];

    let enabled = |name: &str| only.as_ref().is_none_or(|f| name.contains(f.as_str()));

    let mut results: Vec<Measurement> = Vec::new();

    // Expectation through each backend on the same instance: the
    // paper-table workload (petersen: |V| = 10, |E| = 15).
    if enabled("gate_expectation") {
        let gate = GateBackend::standard(petersen.clone(), 2);
        results.push(Measurement::run(
            "gate_expectation",
            "petersen p=2, <C> via gate-model circuit".into(),
            "eval",
            scale(40),
            warmup,
            reps,
            || {
                std::hint::black_box(gate.expectation(&p2_params));
            },
        ));
    }
    if enabled("pattern_expectation") {
        let pattern = PatternBackend::new(&petersen, 2);
        pattern.expectation(&p2_params); // compile outside the timer
        results.push(Measurement::run(
            "pattern_expectation",
            "petersen p=2, <C> via compiled measurement pattern".into(),
            "eval",
            scale(10),
            warmup,
            reps,
            || {
                std::hint::black_box(pattern.expectation(&p2_params));
            },
        ));
    }
    if enabled("zx_expectation") {
        let zx = ZxBackend::new(&petersen, 2);
        zx.expectation(&p2_params);
        results.push(Measurement::run(
            "zx_expectation",
            "petersen p=2, <C> via ZX-simplified re-extracted pattern".into(),
            "eval",
            scale(10),
            warmup,
            reps,
            || {
                std::hint::black_box(zx.expectation(&p2_params));
            },
        ));
    }

    // MBQC shot throughput: the per-measurement hot loop
    // (add_qubit/entangle/measure_remove per pattern node), fanned out
    // in blocks by the executor.
    if enabled("mbqc_shot") {
        let exec = Executor::new(PatternBackend::new(&petersen, 1));
        exec.backend().sample(&p1_params, 1, 0); // compile outside the timer
        let m = Measurement::time(
            "mbqc_shot",
            format!("petersen p=1, Executor::sample, {shots} shots/iter"),
            "shot",
            1,
            warmup,
            reps,
            || {
                std::hint::black_box(exec.sample(&p1_params, shots, 0xBEEF));
            },
        );
        // Rescale: one iter drew `shots` shots.
        let m = Measurement {
            secs_per_iter: m.secs_per_iter.iter().map(|s| s / shots as f64).collect(),
            ..m
        };
        m.log();
        eprintln!(
            "  {:<28} {:>12.0} shots/s",
            "mbqc_shot_throughput",
            1.0 / m.min()
        );
        results.push(m);
    }

    // Batched parameter sweep: the classical outer loop's fan-out.
    if enabled("batched_sweep") {
        let exec = Executor::new(GateBackend::standard(grid.clone(), 1));
        let points: Vec<Vec<f64>> = (0..sweep_points)
            .map(|i| vec![0.05 * i as f64, 0.03 * i as f64])
            .collect();
        results.push(Measurement::run(
            "batched_sweep",
            format!("grid3x3 p=1, expectation_batch over {sweep_points} points"),
            "batch",
            scale(4),
            warmup,
            reps,
            || {
                std::hint::black_box(exec.expectation_batch(&points));
            },
        ));
    }

    // A statevector above PAR_THRESHOLD (2^16 amplitudes): exercises the
    // parallel kernels and the dispatch cost the worker pool removes.
    if enabled("gate_expectation_2pow16") {
        let gate = GateBackend::new(QaoaAnsatz::standard(ring16.clone(), 1));
        results.push(Measurement::run(
            "gate_expectation_2pow16",
            "C16 p=1, <C> on a 2^16-amplitude statevector".into(),
            "eval",
            scale(4),
            warmup,
            reps,
            || {
                std::hint::black_box(gate.expectation(&p1_params));
            },
        ));
    }

    // Stabilizer-tableau scaling: a Clifford-heavy weighted cycle (unit
    // edges are Clifford at γ = π/4, one golden-ratio chord contributes
    // the single non-Clifford measurement) evaluated through the pauli
    // backend at n = 16…128. The n = 128 point is the headline: a 2^128
    // statevector cannot exist, the tableau runs it in polynomial time.
    if enabled("tableau_scaling") {
        let phi = 1.618_033_988_749_895f64;
        for (name, n) in [
            ("tableau_scaling_n16", 16usize),
            ("tableau_scaling_n32", 32),
            ("tableau_scaling_n64", 64),
            ("tableau_scaling_n128", 128),
        ] {
            let mut terms: Vec<(Vec<usize>, f64)> =
                (0..n).map(|v| (vec![v, (v + 1) % n], 1.0)).collect();
            terms.push((vec![0, n / 2], phi));
            let cost = ZPoly::new(n, 0.0, terms);
            let pauli = PauliBackend::new(&cost, 1);
            let params = [std::f64::consts::FRAC_PI_4; 2];
            assert_eq!(pauli.magic_count(&params), 1);
            pauli.expectation(&params); // compile outside the timer
            results.push(Measurement::run(
                name,
                format!("C{n}+chord p=1, <C> via stabilizer tableau (1 magic)"),
                "eval",
                scale(4),
                warmup,
                reps,
                || {
                    std::hint::black_box(pauli.expectation(&params));
                },
            ));
        }
    }

    // Orchestrator dispatch overhead, per-attempt lane: one tiny
    // 2-shard job through the one-shot fleet path (partition → bounded
    // fleet → subprocess spawn → wire round trip → streaming merge).
    // The sweep itself is trivial (2×2 gate landscape), so the time is
    // almost entirely the orchestration cost a job pays before any
    // real work. `pool: false` keeps this point comparable across the
    // trajectory — the pool lane is measured by `worker_pool_dispatch`
    // below. Skipped when the sibling `mbqao-serve` binary is absent
    // (e.g. `--only` builds).
    if enabled("serve_dispatch") {
        let serve_exe = std::env::current_exe()
            .ok()
            .and_then(|p| {
                Some(
                    p.parent()?
                        .join(format!("mbqao-serve{}", std::env::consts::EXE_SUFFIX)),
                )
            })
            .filter(|p| p.is_file());
        match serve_exe {
            None => eprintln!(
                "  {:<28} skipped (mbqao-serve binary not built)",
                "serve_dispatch"
            ),
            Some(exe) => {
                let workload = Workload::Landscape {
                    family: FamilyRef {
                        seed: 7,
                        name: "square".into(),
                    },
                    backend: BackendKind::Gate,
                    steps: 2,
                    gamma: (0.0, 1.0),
                    beta: (0.0, 1.0),
                };
                let config = ServeConfig {
                    cap: 2,
                    log: false,
                    pool: false,
                    ..ServeConfig::default()
                };
                results.push(Measurement::run(
                    "serve_dispatch",
                    "2x2 gate landscape as a 2-shard mbqao-serve job (orchestration overhead)"
                        .into(),
                    "job",
                    1,
                    warmup,
                    reps,
                    || {
                        let (out, stats) =
                            run_job(&exe, 0, &workload, 2, &[], &config, &mut |_| {})
                                .expect("dispatch job");
                        assert!(stats.max_live <= 2);
                        std::hint::black_box(out);
                    },
                ));
            }
        }
    }

    // Worker-pool dispatch, interleaved A/B against the per-attempt
    // lane: the SAME tiny 2-shard pattern-backend job alternates
    // between the persistent pool (frame write to a warm process,
    // affinity-routed) and a one-shot subprocess per attempt (spawn +
    // cold compile every time), so OS noise hits both lanes alike
    // within each rep. Pattern backend so the per-process compiled-
    // pattern cache matters: the pool lane's hit rate climbs across
    // reps (the workers that compiled the pattern keep getting its
    // shards), while the per-attempt lane is 0% by construction —
    // every attempt is a fresh process.
    if enabled("worker_pool_dispatch") {
        let serve_exe = std::env::current_exe()
            .ok()
            .and_then(|p| {
                Some(
                    p.parent()?
                        .join(format!("mbqao-serve{}", std::env::consts::EXE_SUFFIX)),
                )
            })
            .filter(|p| p.is_file());
        match serve_exe {
            None => eprintln!(
                "  {:<28} skipped (mbqao-serve binary not built)",
                "worker_pool_dispatch"
            ),
            Some(exe) => {
                let workload = Workload::Landscape {
                    family: FamilyRef {
                        seed: 7,
                        name: "square".into(),
                    },
                    backend: BackendKind::Pattern,
                    steps: 2,
                    gamma: (0.0, 1.0),
                    beta: (0.0, 1.0),
                };
                let pool_config = ServeConfig {
                    cap: 2,
                    log: false,
                    ..ServeConfig::default()
                };
                let solo_config = ServeConfig {
                    pool: false,
                    ..pool_config.clone()
                };
                let pool = spawn_pool(&exe, &pool_config);
                let run = |id: u64, pooled: bool| {
                    let spec = JobSpec {
                        id,
                        workload: &workload,
                        shards: 2,
                        faults: &[],
                    };
                    let (pool, config) = if pooled {
                        (Some(&pool), &pool_config)
                    } else {
                        (None, &solo_config)
                    };
                    let t0 = Instant::now();
                    let (out, stats) = run_job_with(&exe, pool, &spec, config, None, &mut |_| {})
                        .expect("dispatch job");
                    assert!(stats.max_live <= 2);
                    std::hint::black_box(out);
                    (t0.elapsed().as_secs_f64(), stats)
                };
                // Warm both lanes (and the pool's pattern caches) once.
                let mut id = 0;
                for _ in 0..warmup.max(1) {
                    run(id, true);
                    run(id + 1, false);
                    id += 2;
                }
                let mut secs = (Vec::with_capacity(reps), Vec::with_capacity(reps));
                let (mut hits, mut misses) = ((0usize, 0usize), (0usize, 0usize));
                for _ in 0..reps {
                    let (t, s) = run(id, true);
                    secs.0.push(t);
                    hits.0 += s.cache_hits;
                    misses.0 += s.cache_misses;
                    let (t, s) = run(id + 1, false);
                    secs.1.push(t);
                    hits.1 += s.cache_hits;
                    misses.1 += s.cache_misses;
                    id += 2;
                }
                pool.shutdown();
                let rate = |h: usize, m: usize| 100.0 * h as f64 / (h + m).max(1) as f64;
                for (name, s, hit, miss) in [
                    ("worker_pool_dispatch", secs.0, hits.0, misses.0),
                    ("worker_pool_dispatch_oneshot", secs.1, hits.1, misses.1),
                ] {
                    let m = Measurement {
                        name,
                        detail: format!(
                            "2x2 pattern landscape, 2-shard job, interleaved A/B; \
                             cache-hit rate {:.0}% ({hit} hits / {miss} misses)",
                            rate(hit, miss)
                        ),
                        unit: "job",
                        iters: 1,
                        warmup,
                        reps,
                        secs_per_iter: s,
                    };
                    eprintln!(
                        "  {:<28} {:>12.3} µs/{} (min over {} reps, cache-hit {:.0}%)",
                        m.name,
                        m.min() * 1e6,
                        m.unit,
                        m.reps,
                        rate(hit, miss)
                    );
                    results.push(m);
                }
            }
        }
    }

    // The tentpole of the multi-tenant scheduler: two independent jobs
    // whose first attempts stall must finish ~2x faster interleaved
    // over one pool (`max_jobs 2`) than driven serially back to back
    // (`max_jobs 1`) — the stalls overlap instead of queueing. A/B
    // reps interleave (1-core hosts jitter ≫ 10%); compare minima.
    if enabled("multi_job_throughput") {
        let serve_exe = std::env::current_exe()
            .ok()
            .and_then(|p| {
                Some(
                    p.parent()?
                        .join(format!("mbqao-serve{}", std::env::consts::EXE_SUFFIX)),
                )
            })
            .filter(|p| p.is_file());
        match serve_exe {
            None => eprintln!(
                "  {:<28} skipped (mbqao-serve binary not built)",
                "multi_job_throughput"
            ),
            Some(exe) => {
                let stall_ms: u64 = if smoke { 40 } else { 150 };
                let input = {
                    let mut buf = Vec::new();
                    for (id, seed) in [(1u64, 7u64), (2, 11)] {
                        let req = SubmitRequest {
                            id,
                            workload: Workload::Landscape {
                                family: FamilyRef {
                                    seed,
                                    name: "square".into(),
                                },
                                backend: BackendKind::Gate,
                                steps: 2,
                                gamma: (0.0, 1.0),
                                beta: (0.0, 1.0),
                            },
                            shards: 1,
                            faults: vec![(0, Fault::Stall(stall_ms))],
                            check: false,
                        };
                        write_frame(&mut buf, &req.to_wire()).expect("compose submit");
                    }
                    write_frame(
                        &mut buf,
                        &Value::obj(vec![("type", Value::Str("shutdown".into()))]),
                    )
                    .expect("compose shutdown");
                    buf
                };
                let run = |max_jobs: usize| {
                    let config = ServeConfig {
                        cap: 2,
                        max_jobs,
                        log: false,
                        ..ServeConfig::default()
                    };
                    let t0 = Instant::now();
                    let stats = serve(
                        std::io::Cursor::new(input.clone()),
                        std::io::sink(),
                        &exe,
                        &config,
                    );
                    assert_eq!((stats.done, stats.failed), (2, 0));
                    t0.elapsed().as_secs_f64()
                };
                for _ in 0..warmup.min(1) {
                    run(2);
                    run(1);
                }
                let mut secs = (Vec::with_capacity(reps), Vec::with_capacity(reps));
                for _ in 0..reps {
                    secs.0.push(run(2));
                    secs.1.push(run(1));
                }
                for (name, s) in [
                    ("multi_job_throughput", secs.0),
                    ("multi_job_throughput_serial", secs.1),
                ] {
                    let m = Measurement {
                        name,
                        detail: format!(
                            "two 1-shard jobs, {stall_ms} ms first-attempt stalls, \
                             cap-2 pool; interleaved (max_jobs 2) vs serial \
                             (max_jobs 1), interleaved A/B"
                        ),
                        unit: "batch",
                        iters: 1,
                        warmup: warmup.min(1),
                        reps,
                        secs_per_iter: s,
                    };
                    eprintln!(
                        "  {:<28} {:>12.3} µs/{} (min over {} reps)",
                        m.name,
                        m.min() * 1e6,
                        m.unit,
                        m.reps
                    );
                    results.push(m);
                }
            }
        }
    }

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let body: Vec<String> = results.iter().map(Measurement::to_json).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": 1,\n",
            "  \"report\": \"perf-trajectory\",\n",
            "  \"pr\": {},\n",
            "  \"smoke\": {},\n",
            "  \"threads\": {},\n",
            "  \"par_threshold\": {},\n",
            "  \"unix_time_secs\": {},\n",
            "  \"workloads\": [\n{}\n  ]\n",
            "}}\n"
        ),
        PR,
        smoke,
        rayon::current_num_threads(),
        mbqao_sim::PAR_THRESHOLD,
        unix_time,
        body.join(",\n")
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    }
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_write_under_target_not_over_a_trajectory_point() {
        let args = parse(&[]).expect("no arguments is a full run");
        assert!(!args.smoke && args.only.is_none());
        assert!(
            args.out.ends_with("/target/perf_report.json"),
            "{}",
            args.out
        );
    }

    #[test]
    fn known_flags_parse_and_unknown_ones_are_rejected() {
        assert_eq!(
            parse(&["--smoke", "--only", "mbqc", "--out", "BENCH_x.json"]),
            Ok(Args {
                smoke: true,
                only: Some("mbqc".into()),
                out: "BENCH_x.json".into(),
            })
        );
        assert!(parse(&["--bogus"]).unwrap_err().contains("--bogus"));
        assert!(parse(&["--out"]).unwrap_err().contains("needs a value"));
    }
}
