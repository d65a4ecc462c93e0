//! A closed-loop client of the real `mbqao-serve` binary over stdio.

use mbqao_bench::serve::SubmitRequest;
use mbqao_bench::sweep::{SweepOutput, Workload};
use mbqao_core::engine::wire::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Shards per job.
pub const SHARDS: usize = 2;

/// Jobs the client keeps outstanding.
pub const OUTSTANDING: usize = 2;

/// What the client observed for one job.
#[derive(Debug, Clone)]
pub struct JobTimes {
    /// Job id.
    pub id: u64,
    /// Encoding the submit frame (`SubmitRequest::to_wire` + `to_json`).
    pub encode: Duration,
    /// Before the submit frame was encoded.
    pub t_encode: Instant,
    /// The submit frame was written and flushed.
    pub t_submit: Instant,
    /// The `accepted` frame was read.
    pub t_accepted: Option<Instant>,
    /// The first `partial` frame was read.
    pub t_first_partial: Option<Instant>,
    /// The `done` frame was read.
    pub t_done: Instant,
    /// Decoding the `done` frame (`Value::parse` + `SweepOutput::from_wire`).
    pub decode: Duration,
    /// The output was bit-identical to the monolithic reference.
    pub ok: bool,
    /// Worker compile-cache hits reported in the `done` stats.
    pub cache_hits: usize,
    /// Worker compile-cache misses reported in the `done` stats.
    pub cache_misses: usize,
}

impl JobTimes {
    /// Client-side latency: submit written to `done` read, in ms.
    pub fn job_ms(&self) -> f64 {
        crate::stats::ms(self.t_done - self.t_submit)
    }
}

struct Pending {
    kind: usize,
    encode: Duration,
    t_encode: Instant,
    t_submit: Instant,
    t_accepted: Option<Instant>,
    t_first_partial: Option<Instant>,
}

/// A running `mbqao-serve` with its persistent worker pool.
pub struct Service {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    next_id: u64,
    /// Jobs that ended in `job_error`, `rejected` or a wrong output.
    pub failures: Vec<String>,
}

impl Service {
    /// Starts `exe` with its pool on, at most `cap` workers, at most
    /// [`OUTSTANDING`] concurrent jobs, and a WAL in `journal`.
    pub fn spawn(exe: &Path, cap: usize, journal: &Path) -> std::io::Result<Service> {
        std::fs::create_dir_all(journal)?;
        let mut child = Command::new(exe)
            .args(["--cap", &cap.to_string(), "--max-jobs"])
            .arg(OUTSTANDING.to_string())
            .args(["--quiet", "--journal"])
            .arg(journal)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(Service {
            child,
            stdin,
            stdout,
            next_id: 1,
            failures: Vec::new(),
        })
    }

    fn submit(&mut self, jobs: &[Workload], kind: usize) -> std::io::Result<(u64, Pending)> {
        let id = self.next_id;
        self.next_id += 1;
        let t_encode = Instant::now();
        let mut line = SubmitRequest {
            id,
            workload: jobs[kind].clone(),
            shards: SHARDS,
            faults: Vec::new(),
            check: false,
        }
        .to_wire()
        .to_json();
        line.push('\n');
        let encode = t_encode.elapsed();
        self.stdin.write_all(line.as_bytes())?;
        self.stdin.flush()?;
        Ok((
            id,
            Pending {
                kind,
                encode,
                t_encode,
                t_submit: Instant::now(),
                t_accepted: None,
                t_first_partial: None,
            },
        ))
    }

    /// Runs the closed loop: job `i` uses shape `i % jobs.len()`, and a
    /// new job is submitted whenever fewer than [`OUTSTANDING`] are in
    /// flight, until `more(started)` says stop. Every `done` output is
    /// compared bit for bit with `expected[shape]`.
    pub fn run_loop(
        &mut self,
        jobs: &[Workload],
        expected: &[SweepOutput],
        mut more: impl FnMut(usize) -> bool,
    ) -> std::io::Result<Vec<JobTimes>> {
        let mut pending: BTreeMap<u64, Pending> = BTreeMap::new();
        let mut finished = Vec::new();
        let mut started = 0usize;
        let mut line = String::new();
        loop {
            while pending.len() < OUTSTANDING && more(started) {
                let (id, p) = self.submit(jobs, started % jobs.len())?;
                pending.insert(id, p);
                started += 1;
            }
            if pending.is_empty() {
                return Ok(finished);
            }
            line.clear();
            if self.stdout.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "mbqao-serve closed its stdout",
                ));
            }
            let t_read = Instant::now();
            let t0 = Instant::now();
            let frame = Value::parse(line.trim())
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.0))?;
            let parse = t0.elapsed();
            let kind = frame.field("type").and_then(|t| t.as_str()).unwrap_or("");
            let id = frame.field("id").and_then(|v| v.as_uint()).ok();
            let Some(p) = id.and_then(|id| pending.get_mut(&(id as u64))) else {
                if kind == "rejected" {
                    self.failures
                        .push(format!("rejected frame: {}", line.trim()));
                }
                continue;
            };
            let id = id.expect("matched a pending id") as u64;
            match kind {
                "accepted" => p.t_accepted = Some(t_read),
                "partial" => {
                    p.t_first_partial.get_or_insert(t_read);
                }
                "done" => {
                    let p = pending.remove(&id).expect("pending job");
                    let t1 = Instant::now();
                    let output = frame.field("output").and_then(SweepOutput::from_wire);
                    let decode = parse + t1.elapsed();
                    let ok = output
                        .as_ref()
                        .is_ok_and(|o| o.bit_identical(&expected[p.kind]));
                    if !ok {
                        self.failures
                            .push(format!("job {id}: output differs from the monolithic run"));
                    }
                    let stat = |k: &str| {
                        frame
                            .field("stats")
                            .and_then(|s| s.field(k))
                            .and_then(|v| v.as_uint())
                            .unwrap_or(0)
                    };
                    finished.push(JobTimes {
                        id,
                        encode: p.encode,
                        t_encode: p.t_encode,
                        t_submit: p.t_submit,
                        t_accepted: p.t_accepted,
                        t_first_partial: p.t_first_partial,
                        t_done: t_read,
                        decode,
                        ok,
                        cache_hits: stat("cache_hits"),
                        cache_misses: stat("cache_misses"),
                    });
                }
                "job_error" | "rejected" => {
                    pending.remove(&id);
                    self.failures.push(format!("job {id}: {}", line.trim()));
                }
                _ => {}
            }
        }
    }

    /// Sends `shutdown`, drains the stream and waits for the process
    /// (and, through it, its workers) to exit.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        let _ = self.stdin.write_all(b"{\"type\":\"shutdown\"}\n");
        let _ = self.stdin.flush();
        let mut sink = String::new();
        while self.stdout.read_line(&mut sink)? > 0 {
            sink.clear();
        }
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(std::io::Error::other(format!(
                "mbqao-serve exited with {status}"
            )))
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // After a clean shutdown the child is already reaped and both
        // calls are no-ops; on an error path this stops the service.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
