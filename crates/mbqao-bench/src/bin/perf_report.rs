//! `perf_report` — A/B comparison of two commits on the repository benchmark:
//! `perf_report <parent-rev> [<change-rev>] [--workload <name>] [--smoke]`.
//!
//! Each side (the change defaults to the checkout as it stands, new
//! files included) is `git archive`d into `target/perf_report/<side>/`,
//! gets the checkout's `perfbench/` copied over it and builds into its
//! own `CARGO_TARGET_DIR` there. After one uncounted smoke run per side,
//! each `BENCHMARK.json` workload runs [`PAIRS`] alternating pairs (pair
//! `k`: `--seed k` for `run_seconds`, parent first when `k` is odd), then
//! one traced run per side; `--smoke` makes that one pair of
//! `--seconds 1 --smoke` runs. Every result line goes to
//! `target/perf_report/runs.jsonl`, tagged with side, rev, workload,
//! seed and kind of run. Printed: per end-to-end metric both medians,
//! quartiles, range over median, wins and the [`compare`] verdict;
//! Σfailed / Σattempted per side; the traced per-layer values side by
//! side, flagging every exact counter (unit `count` or `bytes`) that
//! differs. Exit status 2 is a bad command line, rev or workload; 1 a
//! failed build, a run that reports failures or unreadable output.
//! Verdicts and counter changes never set it.

use mbqao_core::engine::wire::{Value, WireError};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const USAGE: &str = "usage: perf_report <parent-rev> [<change-rev>] [--workload <name>] [--smoke]";

/// The checkout this binary was built from.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Alternating pairs per workload (one under `--smoke`).
const PAIRS: u64 = 10;

/// The seed of each side's traced run.
const TRACE_SEED: u64 = 1;

/// The command line: parent rev, change rev, workload, `--smoke`.
type Args = (String, Option<String>, Option<String>, bool);

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut revs, mut workload, mut smoke) = (Vec::new(), None, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--workload" => workload = Some(it.next().ok_or("--workload needs a value")?.clone()),
            flag if flag.starts_with('-') => return Err(format!("unknown argument {flag:?}")),
            rev => revs.push(rev.to_string()),
        }
    }
    let mut revs = revs.into_iter();
    let parent = revs.next().ok_or("missing <parent-rev>")?;
    let change = revs.next();
    match revs.next() {
        Some(extra) => Err(format!("unexpected argument {extra:?}")),
        None => Ok((parent, change, workload, smoke)),
    }
}

/// One side's runs of one metric.
#[derive(Clone, Copy)]
struct Spread {
    median: f64,
    q1: f64,
    q3: f64,
    /// `(max − min) / |median|` (NaN when every run reads 0).
    range_over_median: f64,
}

/// Quantile `q` of `sorted`, interpolated linearly between order
/// statistics.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn spread(xs: &[f64]) -> Spread {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let median = quantile(&s, 0.5);
    Spread {
        median,
        q1: quantile(&s, 0.25),
        q3: quantile(&s, 0.75),
        range_over_median: (s[s.len() - 1] - s[0]) / median.abs(),
    }
}

/// Judges one end-to-end metric from its `(parent, change)` pairs:
/// returns the pairs the change wins and the first verdict that applies:
/// 1. **better**: the change wins at least ⌈0.9·pairs⌉ pairs (ties count
///    for neither side) and its median is better by more than the
///    parent's interquartile range;
/// 2. **worse**: its median is worse by more than `bound` × the parent's;
/// 3. **unresolved**: either side's range over median exceeds `bound`,
///    unless every change run beats every parent run;
/// 4. **no worse**.
fn compare(pairs: &[(f64, f64)], higher_is_better: bool, bound: f64) -> (usize, &'static str) {
    // How much better `b` is than `a`, in the metric's direction.
    let gain = |a: f64, b: f64| if higher_is_better { b - a } else { a - b };
    let (p, c): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
    let (parent, change) = (spread(&p), spread(&c));
    let wins = pairs.iter().filter(|&&(a, b)| gain(a, b) > 0.0).count();
    let gained = gain(parent.median, change.median);
    let all_beat = c.iter().all(|&b| p.iter().all(|&a| gain(a, b) > 0.0));
    let wide = parent.range_over_median > bound || change.range_over_median > bound;
    let verdict = if wins * 10 >= pairs.len() * 9 && gained > parent.q3 - parent.q1 {
        "better"
    } else if -gained > bound * parent.median.abs() {
        "WORSE"
    } else if wide && !all_beat {
        "unresolved"
    } else {
        "no worse"
    };
    (wins, verdict)
}

/// Reads JSON whose numbers may be decimal floats, as perfbench's
/// result line and `BENCHMARK.json` have them. The wire parser refuses
/// float literals by design, so every number outside a string is quoted
/// first and read back by [`number`].
fn read_json(text: &str) -> Result<Value, WireError> {
    let mut out = String::with_capacity(text.len() + text.len() / 4);
    let (mut in_str, mut escaped, mut in_num) = (false, false, false);
    for c in text.chars() {
        if in_str {
            (in_str, escaped) = (escaped || c != '"', !escaped && c == '\\');
        } else if !(in_num && (c.is_ascii_digit() || "+-.eE".contains(c))) {
            // A number ends here, or one starts (never both in JSON).
            let starts = c == '-' || c.is_ascii_digit();
            if in_num || starts {
                out.push('"');
            }
            (in_num, in_str) = (starts, c == '"');
        }
        out.push(c);
    }
    if in_num {
        out.push('"');
    }
    Value::parse(&out)
}

/// A number read by [`read_json`]; `None` for `null` or a non-number.
fn number(v: &Value) -> Option<f64> {
    v.as_str().ok()?.parse().ok()
}

/// What `perf_report` reads from `BENCHMARK.json`.
struct Bench {
    command: Vec<String>,
    run_seconds: f64,
    workloads: Vec<String>,
    /// `(name, higher is better, bound)`.
    end_to_end: Vec<(String, bool, f64)>,
    /// `(name, unit)`.
    per_layer: Vec<(String, String)>,
}

fn read_bench() -> Result<Bench, WireError> {
    let path = Path::new(ROOT).join("BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| WireError(e.to_string()))?;
    let j = read_json(&text)?;
    // Field `field` of every entry of list `key` (the entry itself when
    // it has no such field).
    let strs = |key: &str, field: &str| -> Result<Vec<String>, WireError> {
        let item = |v: &Value| v.field(field).unwrap_or(v).as_str().map(str::to_string);
        j.field(key)?.as_arr()?.iter().map(item).collect()
    };
    let bad = |what: &str| WireError(format!("bad {what}"));
    let mut end_to_end = Vec::new();
    for m in j.field("end_to_end")?.as_arr()? {
        let higher = m.field("better")?.as_str()? == "higher";
        let bound = number(m.field("bound")?).ok_or(bad("bound"))?;
        end_to_end.push((m.field("name")?.as_str()?.to_string(), higher, bound));
    }
    Ok(Bench {
        command: strs("command", "")?,
        run_seconds: number(j.field("run_seconds")?).ok_or(bad("run_seconds"))?,
        workloads: strs("workloads", "name")?,
        end_to_end,
        per_layer: (strs("per_layer", "name")?.into_iter())
            .zip(strs("per_layer", "unit")?)
            .collect(),
    })
}

/// One side of the A/B: a rev archived into its own tree and target.
struct Side {
    name: &'static str,
    rev: String,
    tree: PathBuf,
    target: PathBuf,
}

/// One readable result line.
struct Run {
    attempted: f64,
    failed: f64,
    metrics: Value,
}

impl Run {
    fn metric(&self, name: &str) -> Option<f64> {
        number(self.metrics.field(name).ok()?.field("value").ok()?)
    }
}

/// Runs git in the checkout, through `index` when one is given.
fn git(args: &[&str], index: Option<&Path>) -> Result<String, String> {
    let mut cmd = Command::new("git");
    cmd.envs(index.map(|i| ("GIT_INDEX_FILE", i)));
    match cmd.args(["-C", ROOT]).args(args).output() {
        Ok(o) if o.status.success() => Ok(String::from_utf8_lossy(&o.stdout).trim().to_string()),
        Ok(o) => Err(String::from_utf8_lossy(&o.stderr).into_owned()),
        Err(e) => Err(format!("git: {e}")),
    }
}

/// Extracts `paths` (all when empty) of tree-ish `id` into `dir`.
fn archive(id: &str, paths: &[&str], dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut git = Command::new("git")
        .args(["-C", ROOT, "archive", "--format=tar", id])
        .args(paths)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("git archive: {e}"))?;
    let tar = (Command::new("tar").arg("-x").arg("-C").arg(dir))
        .stdin(git.stdout.take().expect("piped"))
        .status();
    match (git.wait(), tar) {
        (Ok(g), Ok(t)) if g.success() && t.success() => Ok(()),
        _ => Err(format!("extracting {id} into {}", dir.display())),
    }
}

/// Archives `id` as side `name`, with the checkout's `perfbench/`
/// (from tree `checkout`) over it.
fn prepare(work: &Path, name: &'static str, id: &str, checkout: &str) -> Result<Side, String> {
    let rev = match id == checkout {
        true => format!("worktree:{id}"),
        false => id.to_string(),
    };
    let dir = work.join(name);
    let (tree, target, stamp) = (dir.join("tree"), dir.join("build"), dir.join("build.rev"));
    // An archive keeps its commit's mtimes, so cargo would take an
    // older rev's sources for fresh: a build dir serves one rev only.
    if std::fs::read_to_string(&stamp).ok().as_deref() != Some(id) {
        let _ = std::fs::remove_dir_all(&target);
    }
    let _ = std::fs::remove_dir_all(&tree);
    archive(id, &[], &tree)?;
    let _ = std::fs::remove_dir_all(tree.join("perfbench"));
    archive(checkout, &["perfbench"], &tree)?;
    std::fs::write(&stamp, id).map_err(|e| format!("{}: {e}", stamp.display()))?;
    Ok(Side {
        name,
        rev,
        tree,
        target,
    })
}

/// Runs perfbench once on `side` — a `kind` of run, `"warmup"`, `"pair"`
/// or `"traced"` — and appends its result line to `log`. `Err` when the
/// output cannot be read; otherwise the run and whether it passed.
fn run(
    bench: &Bench,
    side: &Side,
    (workload, seed, kind, smoke): (&str, u64, &str, bool),
    log: &mut impl std::io::Write,
) -> Result<(Run, bool), String> {
    let smoke = smoke || kind == "warmup";
    let seconds = if smoke { 1.0 } else { bench.run_seconds };
    let trace = u8::from(kind == "traced");
    let what = format!("{workload} seed {seed} {kind} run on {}", side.name);
    eprintln!("perf_report: {what}");
    let flags = format!("--workload {workload} --seed {seed} --seconds {seconds} --trace {trace}");
    let out = Command::new(&bench.command[0])
        .args(&bench.command[1..])
        .args(flags.split(' '))
        .args(smoke.then_some("--smoke"))
        .current_dir(&side.tree)
        .env("CARGO_TARGET_DIR", &side.target)
        .output()
        .map_err(|e| format!("{what}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim_end().lines().last().unwrap_or("");
    let parsed = read_json(line).ok().and_then(|j| {
        Some(Run {
            attempted: number(j.field("attempted").ok()?)?,
            failed: number(j.field("failed").ok()?)?,
            metrics: j.field("metrics").ok()?.clone(),
        })
    });
    let clean = out.status.success() && parsed.as_ref().is_some_and(|r| r.failed == 0.0);
    if !clean {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
    }
    let result = parsed.ok_or(format!("{what}: unreadable output ({})", out.status))?;
    writeln!(
        log,
        "{{\"side\":\"{}\",\"rev\":\"{}\",\"workload\":\"{workload}\",\"seed\":{seed},\"run\":\"{kind}\",\"result\":{line}}}",
        side.name, side.rev
    )
    .map_err(|e| format!("runs.jsonl: {e}"))?;
    Ok((result, clean))
}

/// Four significant digits, without exponents in the usual ranges.
fn num(v: f64) -> String {
    match v.abs() {
        a if a == 0.0 || !a.is_finite() => format!("{v}"),
        a if a >= 0.01 => format!("{v:.*}", (3 - a.log10().floor() as i32).max(0) as usize),
        _ => format!("{v:.3e}"),
    }
}

fn report(bench: &Bench, workload: &str, runs: [&[Run]; 2], traced: [&Run; 2]) {
    let [parent, change] = runs;
    println!("\n== {workload}: {} pair(s) ==", parent.len());
    println!("metric       better        parent median [Q1–Q3] rng/med        change median [Q1–Q3] rng/med  wins  verdict");
    for (name, higher, bound) in &bench.end_to_end {
        let pairs: Option<Vec<(f64, f64)>> = (parent.iter().zip(change))
            .map(|(a, b)| Some((a.metric(name)?, b.metric(name)?)))
            .collect();
        let Some(pairs) = pairs else {
            println!("{name:<12} (missing from a run)");
            continue;
        };
        let (wins, verdict) = compare(&pairs, *higher, *bound);
        let (p, c): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
        let side = |s: Spread| {
            let quartiles = format!("{} [{}–{}]", num(s.median), num(s.q1), num(s.q3));
            format!("{quartiles:>28} {:>7.3}", s.range_over_median)
        };
        let better = ["lower", "higher"][usize::from(*higher)];
        let (p, c, n) = (side(spread(&p)), side(spread(&c)), pairs.len());
        println!("{name:<12} {better:>6} {p} {c} {wins:>2}/{n:<2}  {verdict}");
    }
    let share = |runs: &[Run], t: &Run| {
        let sum = |f: fn(&Run) -> f64| runs.iter().map(f).sum::<f64>() + f(t);
        (sum(|r| r.failed), sum(|r| r.attempted))
    };
    let ((pf, pa), (cf, ca)) = (share(parent, traced[0]), share(change, traced[1]));
    let flag = ["", "  <- HIGHER ON THE CHANGE"][usize::from(cf * pa > pf * ca)];
    println!("failed/attempted: parent {pf}/{pa}, change {cf}/{ca}{flag}");
    println!("\ntraced, seed {TRACE_SEED}              unit       parent       change");
    let mut changed = 0;
    for (name, unit) in &bench.per_layer {
        let exact = unit == "count" || unit == "bytes";
        let [a, b] = traced.map(|r| r.metric(name));
        let show = |v: Option<f64>| match v {
            Some(v) if exact => format!("{v}"),
            v => v.map_or("-".into(), num),
        };
        let flag = (exact && a != b).then_some("  <- COUNTER CHANGED");
        changed += usize::from(flag.is_some());
        let flag = flag.unwrap_or("");
        println!("{name:<24} {unit:>6} {:>12} {:>12}{flag}", show(a), show(b));
    }
    println!("exact counters changed: {changed}");
}

fn fail(code: i32, msg: &str) -> ! {
    eprintln!("perf_report: {msg}");
    if code == 2 {
        eprintln!("{USAGE}");
    }
    std::process::exit(code)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (parent, change, workload, smoke) = parse_args(&args).unwrap_or_else(|e| fail(2, &e));
    let bench = read_bench().unwrap_or_else(|e| fail(1, &format!("BENCHMARK.json: {e}")));
    let workloads: Vec<String> = match workload {
        Some(w) if !bench.workloads.contains(&w) => fail(2, &format!("unknown workload {w:?}")),
        Some(w) => vec![w],
        None => bench.workloads.clone(),
    };
    let resolve = |rev: &str| {
        let spec = format!("{rev}^{{commit}}");
        git(&["rev-parse", "--verify", "--quiet", &spec], None)
            .unwrap_or_else(|_| fail(2, &format!("bad rev {rev:?}")))
    };
    let parent = resolve(&parent);
    let change = change.as_deref().map(resolve);

    let root = Path::new(ROOT).canonicalize().unwrap_or(ROOT.into());
    let work = root.join("target/perf_report");
    let setup = || -> Result<[Side; 2], String> {
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        // The checkout as it stands, new unignored files included, as a
        // tree written through a scratch index.
        let index = Some(work.join("index"));
        git(&["read-tree", "HEAD"], index.as_deref())?;
        git(&["add", "-A"], index.as_deref())?;
        let checkout = git(&["write-tree"], index.as_deref())?;
        let change = change.as_deref().unwrap_or(&checkout);
        let parent = prepare(&work, "parent", &parent, &checkout)?;
        Ok([parent, prepare(&work, "change", change, &checkout)?])
    };
    let sides = setup().unwrap_or_else(|e| fail(1, &e));
    let log_path = work.join("runs.jsonl");
    let mut log = std::fs::File::create(&log_path)
        .unwrap_or_else(|e| fail(1, &format!("{}: {e}", log_path.display())));
    let mut clean = true;
    let mut go = |i: usize, workload: &str, seed, kind| {
        let (r, ok) = run(&bench, &sides[i], (workload, seed, kind, smoke), &mut log)
            .unwrap_or_else(|e| fail(1, &e));
        clean &= ok;
        r
    };
    for (i, side) in sides.iter().enumerate() {
        if go(i, &workloads[0], TRACE_SEED, "warmup").failed != 0.0 {
            fail(1, &format!("{} fails its smoke run", side.rev));
        }
    }
    let pairs = if smoke { 1 } else { PAIRS };
    for w in &workloads {
        let mut runs: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
        for seed in 1..=pairs {
            for i in if seed % 2 == 1 { [0, 1] } else { [1, 0] } {
                runs[i].push(go(i, w, seed, "pair"));
            }
        }
        let traced = [0, 1].map(|i| go(i, w, TRACE_SEED, "traced"));
        report(&bench, w, [&runs[0], &runs[1]], [&traced[0], &traced[1]]);
    }
    let [p, c] = &sides;
    println!("\nparent {}, change {}", p.rev, c.rev);
    println!("runs: {}", log_path.display());
    if !clean {
        fail(1, "a run reported failures");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_flags_parse_and_unknown_ones_are_rejected() {
        let parse = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            parse_args(&args)
        };
        let args = parse("HEAD~1 --workload cold_start HEAD --smoke").unwrap();
        assert_eq!(
            args,
            (
                "HEAD~1".into(),
                Some("HEAD".into()),
                Some("cold_start".into()),
                true
            )
        );
        assert_eq!(parse("abc"), Ok(("abc".into(), None, None, false)));
        for (bad, why) in [
            ("HEAD --only mbqc", "--only"),
            ("HEAD --out x.json", "--out"),
            ("HEAD --help", "--help"),
            ("HEAD --workload", "needs a value"),
            ("", "missing"),
            ("a b c", "unexpected argument \"c\""),
        ] {
            assert!(parse(bad).unwrap_err().contains(why), "{bad:?}");
        }
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let s = spread(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!([s.q1, s.median, s.q3], [1.75, 2.5, 3.25]);
        assert_eq!(s.range_over_median, 1.2);
        assert_eq!(spread(&[7.0; 3]).range_over_median, 0.0);
    }

    #[test]
    fn verdicts_follow_the_rules_in_order() {
        let v = |p: &[f64], c: &[f64], higher| {
            let pairs: Vec<(f64, f64)> = p.iter().copied().zip(c.iter().copied()).collect();
            compare(&pairs, higher, 0.25)
        };
        let base: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let double: Vec<f64> = base.iter().map(|x| 2.0 * x).collect();
        assert_eq!(v(&base, &double, true), (10, "better"));
        assert_eq!(v(&double, &base, false), (10, "better"));
        assert_eq!(v(&double, &base, true), (0, "WORSE"));
        // Ties count for neither side.
        assert_eq!(v(&base, &base, true), (0, "no worse"));
        // 8 wins of 10 are too few for better, however large the gain.
        let mut eight = double.clone();
        eight[..2].fill(50.0);
        assert_eq!(v(&base, &eight, true), (8, "unresolved"));
        // A wide spread on either side is unresolved...
        let mut wide = base.clone();
        wide[9] = 200.0;
        assert_eq!(v(&wide, &base, true).1, "unresolved");
        // ...unless every change run beats every parent run (here by less
        // than the parent's IQR, so not better either).
        let mut skewed = [100.0; 10];
        skewed[..4].copy_from_slice(&[60.0, 70.0, 80.0, 90.0]);
        let mut above = [101.0; 10];
        above[9] = 200.0;
        assert_eq!(v(&skewed, &above, true), (10, "no worse"));
        // A 10% rise of a lower-is-better metric is inside the bound.
        let up: Vec<f64> = base.iter().map(|x| x * 1.1).collect();
        assert_eq!(v(&base, &up, false), (0, "no worse"));
    }

    #[test]
    fn result_lines_with_decimal_floats_are_read() {
        let line = r#"{"n": 12, "m": {"a": 0.0123, "b": null, "c": -1.5e-7, "u": "µs \"1.5\""}}"#;
        let j = read_json(line).unwrap();
        let m = |k: &str| j.field("m").unwrap().field(k).unwrap();
        assert_eq!(number(j.field("n").unwrap()), Some(12.0));
        assert_eq!(
            [m("a"), m("b"), m("c")].map(number),
            [Some(0.0123), None, Some(-1.5e-7)]
        );
        assert_eq!(m("u").as_str(), Ok("µs \"1.5\""));
        let bad = "|{|[1,]|{\"a\" 1}|1 2|nul|\"open|".to_string() + &"[".repeat(999);
        for bad in bad.split('|') {
            assert!(read_json(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn benchmark_json_declares_what_perf_report_reads() {
        let b = read_bench().unwrap();
        assert_eq!(b.command.join(" "), "python3 perfbench/run.py");
        assert_eq!(b.run_seconds, 20.0);
        assert_eq!(
            b.workloads.join(" "),
            "variational clifford128 cold_start serve_jobs"
        );
        assert_eq!(b.end_to_end.len(), 5);
        assert_eq!(b.end_to_end[1], ("evals_per_s".into(), true, 0.25));
        assert_eq!(b.end_to_end[4], ("peak_rss_mb".into(), false, 0.25));
        let counter = |n: &str, u: &str| b.per_layer.contains(&(n.into(), u.into()));
        assert!(counter("zx.rewrites", "count") && counter("wire.bytes_per_job", "bytes"));
    }
}
