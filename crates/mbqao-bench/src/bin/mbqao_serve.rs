//! `mbqao-serve` — the always-on sweep orchestrator.
//!
//! Reads newline-delimited request frames on stdin (`submit` / `ping` /
//! `shutdown`, mini-JSON per `mbqao_core::engine::wire`), schedules
//! each job's shards onto a supervised persistent worker pool
//! (heartbeats, automatic restarts, a circuit breaker — see
//! `docs/SERVE.md`), and writes event frames on stdout as the job
//! progresses: `accepted`, one `partial` per merged shard in
//! completion order, `requeue` for every retry or straggler
//! re-partition, `quarantined` for poison shards, and a final
//! `done` carrying the assembled output plus per-job stats. With
//! `--journal DIR` every landed partial is write-ahead logged so an
//! interrupted job can be completed later with `--resume`.
//!
//! Usage:
//! ```text
//! mbqao-serve [--cap N] [--max-jobs N] [--retries N] [--backoff-ms MS]
//!             [--straggler-ms MS] [--queue N] [--quiet]
//!             [--quarantine K] [--allow-partial] [--journal DIR]
//! mbqao-serve --resume PATH [--check] [--quiet] [...]
//!                          # replay a job-<id>.wal and finish the job
//! mbqao-serve --worker     # internal: pool worker, JSON frames over stdio
//! ```
//!
//! Unknown arguments and malformed values are rejected with a usage
//! line and exit code 2.
//!
//! Example session (one 2-shard landscape job, then shutdown):
//! ```text
//! printf '%s\n%s\n' \
//!   '{"type":"submit","id":1,"shards":2,"check":true,"workload":{...}}' \
//!   '{"type":"shutdown"}' | mbqao-serve --cap 2
//! ```

use mbqao_bench::serve::{resume_job, serve, spawn_service, write_event, Event, ServeConfig};
use mbqao_bench::sweep::{flag_value, worker_entry};
use mbqao_core::engine::shard::RetryPolicy;
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "usage: mbqao-serve [--cap N] [--max-jobs N] [--retries N] [--backoff-ms MS] \
[--straggler-ms MS] [--queue N] [--quarantine K] [--allow-partial] [--journal DIR] [--quiet]
       mbqao-serve --resume PATH [--check] [options]";

/// The parsed command line.
#[derive(Debug)]
struct Args {
    config: ServeConfig,
    /// `--resume PATH`: finish the journaled job instead of serving.
    resume: Option<PathBuf>,
    /// `--check` (resume only): verify bit-identity against a
    /// monolithic run.
    check: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut config = ServeConfig {
        log: true,
        ..ServeConfig::default()
    };
    let (mut retries, mut backoff_ms) = (
        config.retry.max_attempts,
        config.retry.base.as_millis() as u64,
    );
    let (mut resume, mut check) = (None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--cap" => config.cap = flag_value(flag, it.next())?,
            "--max-jobs" => config.max_jobs = flag_value(flag, it.next())?,
            "--retries" => retries = flag_value(flag, it.next())?,
            "--backoff-ms" => backoff_ms = flag_value(flag, it.next())?,
            "--straggler-ms" => {
                config.straggler_deadline =
                    Some(Duration::from_millis(flag_value(flag, it.next())?));
            }
            "--queue" => config.max_queue = flag_value(flag, it.next())?,
            "--quarantine" => config.quarantine_after = flag_value(flag, it.next())?,
            "--journal" => config.journal_dir = Some(flag_value(flag, it.next())?),
            "--resume" => resume = Some(flag_value::<PathBuf>(flag, it.next())?),
            "--allow-partial" => config.allow_partial = true,
            "--quiet" => config.log = false,
            "--check" => check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if check && resume.is_none() {
        return Err("--check needs --resume (a submit asks for its own check)".into());
    }
    config.retry = RetryPolicy::new(retries, Duration::from_millis(backoff_ms));
    Ok(Args {
        config,
        resume,
        check,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--worker") {
        worker_entry(&args);
        return;
    }
    let Args {
        config,
        resume: resume_path,
        check,
    } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("mbqao-serve: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let exe = std::env::current_exe().expect("current_exe");
    if let Some(path) = resume_path {
        // Finish the journaled job; exit 1 unless it completes.
        let mut out = std::io::stdout();
        let mut emit = |event: Event| write_event(&mut out, config.log, &event);
        if !resume_job(&spawn_service(&exe, &config), &path, check, &mut emit) {
            std::process::exit(1);
        }
        return;
    }
    if config.log {
        eprintln!(
            "serve: listening on stdin (cap {}, max jobs {}, {} attempts, base backoff {:?}, queue {})",
            config.cap,
            config.max_jobs,
            config.retry.max_attempts,
            config.retry.base,
            config.max_queue,
        );
    }
    let stats = serve(
        std::io::BufReader::new(std::io::stdin()),
        std::io::stdout(),
        &exe,
        &config,
    );
    if stats.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn known_flags_set_the_config() {
        let args = parse(
            "--cap 3 --max-jobs 2 --retries 6 --backoff-ms 10 --straggler-ms 1500 --queue 5 \
             --quarantine 4 --allow-partial --journal wal --quiet",
        )
        .expect("every flag is known");
        let c = &args.config;
        assert_eq!(
            (c.cap, c.max_jobs, c.max_queue, c.quarantine_after),
            (3, 2, 5, 4)
        );
        assert_eq!(c.retry, RetryPolicy::new(6, Duration::from_millis(10)));
        assert_eq!(c.straggler_deadline, Some(Duration::from_millis(1500)));
        assert_eq!(c.journal_dir.as_deref(), Some(Path::new("wal")));
        assert!(c.allow_partial && !c.log);
        assert!(args.resume.is_none() && !args.check);
    }

    #[test]
    fn defaults_log_and_serve() {
        let args = parse("").expect("no arguments serves with defaults");
        assert!(args.config.log, "the event log is on unless --quiet");
        assert_eq!(args.config.retry, ServeConfig::default().retry);
        let args = parse("--resume job-1.wal --check").expect("resume flags");
        assert_eq!(args.resume.as_deref(), Some(Path::new("job-1.wal")));
        assert!(args.check);
    }

    #[test]
    fn unknown_flags_and_malformed_values_are_rejected() {
        let e = parse("--straggler-msx 500").unwrap_err();
        assert!(e.contains("--straggler-msx"), "{e}");
        let e = parse("--cap two").unwrap_err();
        assert!(e.contains("--cap") && e.contains("two"), "{e}");
        assert!(parse("--retries -1").is_err());
        assert!(parse("--journal").unwrap_err().contains("needs a value"));
        assert!(parse("--check").unwrap_err().contains("--resume"));
    }
}
