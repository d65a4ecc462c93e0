//! `perfbench` — the repository benchmark.
//!
//! Runs one workload for a fixed number of seconds, checks the
//! program's outputs, and prints one JSON line as the last line of
//! stdout: the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a separate traced run (`--trace 1`). See `README.md` in
//! this directory for the workloads, the metrics and which layer moves
//! which end-to-end number.
//!
//! ```text
//! perfbench --workload <variational|clifford128|cold_start|serve_jobs>
//!           --seed <n> --seconds <n> --trace <0|1>
//!           [--smoke] [--serve-exe <path>] [--out-dir <dir>]
//! ```

mod census;
mod client;
mod instances;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <variational|clifford128|cold_start|serve_jobs> \
--seed <n> --seconds <n> --trace <0|1> [--smoke] [--serve-exe <path>] [--out-dir <dir>]";

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["variational", "clifford128", "cold_start", "serve_jobs"];

/// The end-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("evals_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Fewest timed operations a full run records, so that p90 has at least
/// ten samples beyond it.
pub const MIN_OPS: usize = 100;

/// Run settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run (`--trace 1`).
    pub traced: bool,
    /// Tiny inputs and windows, for the benchmark's own tests.
    pub smoke: bool,
    /// The `mbqao-serve` binary.
    pub serve_exe: PathBuf,
    /// Where reports, spans and temporary journals go.
    pub out_dir: PathBuf,
    /// This process is a set-up probe (internal).
    pub setup_probe: bool,
}

impl Ctx {
    /// Worker cap for the service and pools: at most `nproc`.
    pub fn cap(&self) -> usize {
        nproc().min(2)
    }

    /// A fresh per-process scratch directory under the output location.
    pub fn scratch_dir(&self, name: &str) -> PathBuf {
        self.out_dir.join(format!(
            "tmp-{}-{name}-{}",
            self.workload,
            std::process::id()
        ))
    }

    /// Whether a timed loop that started at `start` and has done `ops`
    /// operations should go on, for a window of `share` of the run.
    pub fn more(&self, start: Instant, share: f64, ops: usize) -> bool {
        start.elapsed().as_secs_f64() < self.seconds * share || (!self.smoke && ops < MIN_OPS)
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a run attempted, what failed, and what it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Failed operations and checks, with reasons.
    pub failures: Vec<String>,
    /// Reported metrics `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Values for the report file only (sample counts, aliases).
    pub notes: Vec<(String, f64)>,
    /// Measured ratios and derived times feeding per-layer metrics.
    pub derived: BTreeMap<&'static str, Vec<f64>>,
}

impl Outcome {
    /// Counts one checked operation; records a failure when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records a failed operation.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failures.push(what);
    }

    /// Failures so far.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Adds a derived sample.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.derived.entry(name).or_default().push(value);
    }

    /// Adds a report-only value.
    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.push((name.to_string(), value));
    }
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut smoke = false;
    let mut setup_probe = false;
    let mut serve_exe = None;
    let mut out_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            "--smoke" => smoke = true,
            "--setup-probe" => setup_probe = true,
            "--serve-exe" => serve_exe = Some(PathBuf::from(value()?)),
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    Ok(Ctx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        smoke,
        serve_exe: serve_exe.unwrap_or_else(|| exe_dir.join("mbqao-serve")),
        out_dir: out_dir.unwrap_or_else(|| exe_dir.join("perfbench-results")),
        setup_probe,
    })
}

/// Set-up time: the median over fresh child processes of the time from
/// spawning the benchmark to its report that set-up finished (instances
/// built, caches warm, service and pool up). Children start one after
/// another, after the timed window.
fn setup_seconds(ctx: &Ctx, out: &mut Outcome) -> f64 {
    let probes = if ctx.smoke { 2 } else { 7 };
    let exe = std::env::current_exe().expect("current_exe");
    let mut times = Vec::new();
    for _ in 0..probes {
        let t = Instant::now();
        let child = Command::new(&exe)
            .args(["--workload", &ctx.workload, "--seed", &ctx.seed.to_string()])
            .args(["--seconds", &ctx.seconds.to_string(), "--trace", "0"])
            .arg("--setup-probe")
            .args(ctx.smoke.then_some("--smoke"))
            .arg("--serve-exe")
            .arg(&ctx.serve_exe)
            .arg("--out-dir")
            .arg(&ctx.out_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn();
        let mut child = match child {
            Ok(c) => c,
            Err(e) => {
                out.fail(format!("spawning set-up probe: {e}"));
                continue;
            }
        };
        let mut line = String::new();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let read = stdout.read_line(&mut line);
        let elapsed = t.elapsed().as_secs_f64();
        let status = child.wait();
        let ok = read.is_ok() && line.trim() == "ready" && status.is_ok_and(|s| s.success());
        out.check(ok, || format!("set-up probe failed: {line:?}"));
        if ok {
            times.push(elapsed);
        }
    }
    out.note("setup_probes", times.len() as f64);
    for (i, t) in times.iter().enumerate() {
        out.note(&format!("setup_probe_{i}_s"), *t);
    }
    stats::median(&times)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn git_commit() -> String {
    std::env::var("PERFBENCH_GIT_COMMIT").unwrap_or_else(|_| "unknown".into())
}

/// Writes the run's report (host facts, metrics, notes, failures) to
/// `perfbench-<workload>-seed<seed>-trace<t>.json` in the output
/// location — a name no committed `BENCH_<pr>.json` can have.
fn write_report(ctx: &Ctx, out: &Outcome) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(&ctx.out_dir)?;
    let path = ctx.out_dir.join(format!(
        "perfbench-{}-seed{}-trace{}.json",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.traced)
    ));
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "    \"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    let notes: Vec<String> = out
        .notes
        .iter()
        .map(|(n, v)| format!("    \"{n}\": {}", json_number(*v)))
        .collect();
    let failures: Vec<String> = out
        .failures
        .iter()
        .map(|f| format!("    {:?}", f))
        .collect();
    let body = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"smoke\": {},\n  \"host\": {{\"nproc\": {}, \"rayon_threads\": {}, \"profile\": \"{}\", \"git_commit\": {:?}}},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{\n{}\n  }},\n  \"notes\": {{\n{}\n  }},\n  \"failures\": [\n{}\n  ]\n}}\n",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced),
        ctx.smoke,
        nproc(),
        rayon::current_num_threads(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_commit(),
        out.attempted,
        out.failed(),
        metrics.join(",\n"),
        notes.join(",\n"),
        failures.join(",\n"),
    );
    std::fs::write(&path, body)?;
    Ok(path)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if !ctx.serve_exe.is_file() {
        eprintln!(
            "perfbench: mbqao-serve not found at {} (build it, or pass --serve-exe)",
            ctx.serve_exe.display()
        );
        std::process::exit(2);
    }
    let mut out = Outcome::default();
    let mut workload = match workloads::setup(&ctx, &mut out) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            std::process::exit(1);
        }
    };
    if ctx.setup_probe {
        println!("ready");
        workload.teardown(&mut out);
        std::process::exit(i32::from(out.failed() > 0));
    }
    eprintln!(
        "perfbench: {} seed {} for {} s ({}; {} rayon threads on {} cores)",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        if ctx.traced { "traced" } else { "untraced" },
        rayon::current_num_threads(),
        nproc()
    );
    if ctx.traced {
        let mut tr = trace::Trace::new();
        workload.trace(&ctx, &mut tr, &mut out);
        workload.teardown(&mut out);
        out.metrics = census::per_layer(&tr, &mut out);
        std::fs::create_dir_all(&ctx.out_dir).ok();
        let spans = ctx.out_dir.join(format!(
            "perfbench-{}-seed{}-spans.jsonl",
            ctx.workload, ctx.seed
        ));
        if let Err(e) = tr.write_jsonl(&spans) {
            out.fail(format!("writing spans: {e}"));
        }
    } else {
        workload.run(&ctx, &mut out);
        workload.teardown(&mut out);
        let setup_s = setup_seconds(&ctx, &mut out);
        out.metrics.insert(0, ("setup_s".into(), setup_s, "s"));
        out.metrics
            .push(("peak_rss_mb".into(), stats::peak_rss_mb(), "MB"));
    }
    let declared: Vec<(&str, &str)> = if ctx.traced {
        census::PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let printed: Vec<(&str, &str)> = out
        .metrics
        .iter()
        .map(|(n, _, u)| (n.as_str(), *u))
        .collect();
    if printed != declared {
        out.fail(format!(
            "printed metrics {printed:?} differ from the declared {declared:?}"
        ));
    }
    match write_report(&ctx, &out) {
        Ok(path) => eprintln!("perfbench: report written to {}", path.display()),
        Err(e) => out.fail(format!("writing report: {e}")),
    }
    for f in &out.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted.max(1),
        out.failed(),
        metrics.join(", ")
    );
    if !out.failures.is_empty() {
        std::process::exit(1);
    }
}
