//! `serve_jobs`: one client keeps two sweep jobs outstanding against the
//! real `mbqao-serve` binary (pool on, WAL on).

use super::{push_e2e, reconcile, Op};
use crate::census;
use crate::client::{JobTimes, Service};
use crate::instances::{self, Instance, JOB_STEPS};
use crate::stats::{median, ms};
use crate::trace::Trace;
use crate::{Ctx, Outcome};
use mbqao_bench::sweep::{monolithic, SweepOutput, Workload};
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct ServeJobs {
    jobs: Vec<Workload>,
    expected: Vec<SweepOutput>,
    service: Option<Service>,
    journal: PathBuf,
}

/// Records every job's correctness and the service's own failures.
fn check_jobs(out: &mut Outcome, service: &mut Service, done: &[JobTimes]) {
    for job in done {
        out.check(job.ok, || format!("job {} output", job.id));
    }
    for f in std::mem::take(&mut service.failures) {
        out.fail(f);
    }
}

impl ServeJobs {
    /// Builds the three job shapes and their monolithic references,
    /// starts the service (pool + journal) and runs one warm-up job per
    /// shape so every worker's compile cache is populated.
    pub fn setup(ctx: &Ctx, out: &mut Outcome) -> Result<Self, String> {
        let jobs = instances::serve_jobs(ctx.seed);
        let expected: Vec<SweepOutput> = jobs.iter().map(monolithic).collect();
        let journal = ctx.scratch_dir("journal");
        let mut service = Service::spawn(&ctx.serve_exe, ctx.cap(), &journal)
            .map_err(|e| format!("spawning {}: {e}", ctx.serve_exe.display()))?;
        let warm = service
            .run_loop(&jobs, &expected, |started| started < jobs.len())
            .map_err(|e| format!("warm-up jobs: {e}"))?;
        check_jobs(out, &mut service, &warm);
        Ok(ServeJobs {
            jobs,
            expected,
            service: Some(service),
            journal,
        })
    }

    fn client_loop(
        &mut self,
        ctx: &Ctx,
        out: &mut Outcome,
        share: f64,
    ) -> (Vec<JobTimes>, Instant) {
        let start = Instant::now();
        let Some(service) = self.service.as_mut() else {
            out.fail("the service is not running".into());
            return (Vec::new(), start);
        };
        let done = match service.run_loop(&self.jobs, &self.expected, |started| {
            ctx.more(start, share, started)
        }) {
            Ok(done) => done,
            Err(e) => {
                out.fail(format!("client loop: {e}"));
                Vec::new()
            }
        };
        check_jobs(out, service, &done);
        (done, start)
    }

    pub fn run(&mut self, ctx: &Ctx, out: &mut Outcome) {
        let (done, start) = self.client_loop(ctx, out, 1.0);
        let ops: Vec<Op> = done
            .iter()
            .map(|j| Op {
                end_s: (j.t_done - start).as_secs_f64(),
                ms: j.job_ms(),
                evals: (JOB_STEPS * JOB_STEPS) as f64,
            })
            .collect();
        push_e2e(out, &ops, self.jobs.len(), "job");
        out.note(
            "jobs_per_s",
            done.len() as f64 / start.elapsed().as_secs_f64(),
        );
        let admission: Vec<f64> = done
            .iter()
            .filter_map(|j| j.t_accepted.map(|t| ms(t - j.t_submit)))
            .collect();
        let first: Vec<f64> = done
            .iter()
            .filter_map(|j| j.t_first_partial.map(|t| ms(t - j.t_submit)))
            .collect();
        out.note("admission_ms_p50", median(&admission));
        out.note("first_partial_ms_p50", median(&first));
    }

    pub fn trace(&mut self, ctx: &Ctx, tr: &mut Trace, out: &mut Outcome) {
        // Untraced, then traced, on the same service: the traced job tree
        // runs from encoding the submit frame to decoding the `done` frame,
        // so the untraced side is measured over the same interval.
        let (done, _) = self.client_loop(ctx, out, 0.4);
        let untraced: Vec<f64> = done
            .iter()
            .map(|j| ms(j.t_done + j.decode - j.t_encode))
            .collect();
        if let Some(service) = self.service.as_mut() {
            let client = Duration::from_secs_f64(ctx.seconds * if ctx.smoke { 0.0 } else { 0.4 });
            census::client_loop(
                tr,
                out,
                service,
                &self.jobs,
                &self.expected,
                Instant::now() + client,
            );
        }
        self.teardown(out);
        reconcile(tr, out, "serve.job", &untraced);
        let replays = if ctx.smoke { 3 } else { 60 };
        census::replays(ctx, tr, out, &self.jobs, &self.expected, replays);

        let census_set: Vec<Instance> = self
            .jobs
            .iter()
            .filter_map(|w| match w {
                Workload::Landscape { family, .. } => Some(Instance {
                    name: family.name.clone(),
                    cost: family.resolve().cost,
                    p: 1,
                }),
                _ => None,
            })
            .collect();
        census::compute(ctx, tr, out, &census_set);
        let points: Vec<Vec<Vec<f64>>> = self
            .jobs
            .iter()
            .map(|w| match w {
                Workload::Landscape { gamma, beta, .. } => grid(*gamma, *beta),
                _ => Vec::new(),
            })
            .collect();
        out.sample(
            "pauli.fallback_frac",
            census::fallback_frac(&census_set, &points),
        );
    }

    /// Shuts the service down and removes its journal.
    pub fn teardown(&mut self, out: &mut Outcome) {
        if let Some(service) = self.service.take() {
            if let Err(e) = service.shutdown() {
                out.fail(format!("mbqao-serve shutdown: {e}"));
            }
        }
        let _ = std::fs::remove_dir_all(&self.journal);
    }
}

/// The landscape's `(γ, β)` grid, endpoints included.
fn grid(gamma: (f64, f64), beta: (f64, f64)) -> Vec<Vec<f64>> {
    let axis = |(lo, hi): (f64, f64), i: usize| lo + (hi - lo) * i as f64 / (JOB_STEPS - 1) as f64;
    (0..JOB_STEPS)
        .flat_map(|a| (0..JOB_STEPS).map(move |b| vec![axis(gamma, a), axis(beta, b)]))
        .collect()
}
