//! The four workloads. Each has a set-up (everything before the first
//! timed operation), an untraced timed run that yields the end-to-end
//! metrics, and a traced run that replays its operations through the
//! public layer calls and then takes the layer census.

mod clifford128;
mod cold_start;
mod serve_jobs;
mod variational;

use crate::stats::{median, quantile};
use crate::trace::Trace;
use crate::{Ctx, Outcome};

/// Largest relative gap between the traced blocking path (sum of self
/// times) and the untraced median of the same operation before the run
/// warns that the trace does not reconcile.
pub const RECONCILE_TOL: f64 = 0.15;

/// A set-up workload, ready for its timed window.
pub enum Workload {
    /// Variational loop on the statevector pattern path.
    Variational(variational::Variational),
    /// Clifford-heavy instances on the tableau path.
    Clifford128(clifford128::Clifford128),
    /// Never-seen instances brought up on the pattern and ZX backends.
    ColdStart(cold_start::ColdStart),
    /// Sweep jobs through the `mbqao-serve` binary.
    ServeJobs(serve_jobs::ServeJobs),
}

/// Builds the named workload's inputs and warms it.
pub fn setup(ctx: &Ctx, out: &mut Outcome) -> Result<Workload, String> {
    Ok(match ctx.workload.as_str() {
        "variational" => Workload::Variational(variational::Variational::setup(ctx)),
        "clifford128" => Workload::Clifford128(clifford128::Clifford128::setup(ctx, out)),
        "cold_start" => Workload::ColdStart(cold_start::ColdStart::setup(ctx, out)),
        "serve_jobs" => Workload::ServeJobs(serve_jobs::ServeJobs::setup(ctx, out)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

impl Workload {
    /// The untraced timed window: pushes `evals_per_s`, `op_ms_p50` and
    /// `op_ms_p90` (set-up time and memory are added by the caller).
    pub fn run(&mut self, ctx: &Ctx, out: &mut Outcome) {
        match self {
            Workload::Variational(w) => w.run(ctx, out),
            Workload::Clifford128(w) => w.run(ctx, out),
            Workload::ColdStart(w) => w.run(ctx, out),
            Workload::ServeJobs(w) => w.run(ctx, out),
        }
    }

    /// The traced run: replay plus layer census.
    pub fn trace(&mut self, ctx: &Ctx, tr: &mut Trace, out: &mut Outcome) {
        match self {
            Workload::Variational(w) => w.trace(ctx, tr, out),
            Workload::Clifford128(w) => w.trace(ctx, tr, out),
            Workload::ColdStart(w) => w.trace(ctx, tr, out),
            Workload::ServeJobs(w) => w.trace(ctx, tr, out),
        }
    }

    /// Stops whatever the set-up started.
    pub fn teardown(&mut self, out: &mut Outcome) {
        if let Workload::ServeJobs(w) = self {
            w.teardown(out);
        }
    }
}

/// One timed operation of a window.
pub struct Op {
    /// When it completed, in seconds since the window opened.
    pub end_s: f64,
    /// How long it took, in ms.
    pub ms: f64,
    /// Exact ⟨C⟩ evaluations it completed.
    pub evals: f64,
}

/// Sub-windows the throughput is measured over; their median is
/// reported, so a burst of host noise shorter than half the window
/// does not move it.
const SUB_WINDOWS: usize = 20;

/// Median evaluation rate over [`SUB_WINDOWS`] consecutive runs of
/// operations, each a whole number of `cycle`s (the input rotation), so
/// every sub-window sees the same instance mix.
fn throughput(ops: &[Op], cycle: usize) -> f64 {
    let per = (ops.len() / SUB_WINDOWS / cycle).max(1) * cycle;
    let mut rates = Vec::new();
    let mut start = 0.0;
    for chunk in ops.chunks(per).filter(|c| c.len() == per) {
        let end = chunk[chunk.len() - 1].end_s;
        rates.push(chunk.iter().map(|o| o.evals).sum::<f64>() / (end - start));
        start = end;
    }
    if rates.is_empty() {
        let total: f64 = ops.iter().map(|o| o.evals).sum();
        return total / ops.last().map_or(f64::NAN, |o| o.end_s);
    }
    median(&rates)
}

/// Pushes the three timed end-to-end metrics of a window of `ops`
/// (named `op` in the report notes), whose inputs rotate every `cycle`
/// operations.
fn push_e2e(out: &mut Outcome, ops: &[Op], cycle: usize, op: &str) {
    let op_ms: Vec<f64> = ops.iter().map(|o| o.ms).collect();
    out.metrics
        .push(("evals_per_s".into(), throughput(ops, cycle), "1/s"));
    out.metrics.push(("op_ms_p50".into(), median(&op_ms), "ms"));
    out.metrics
        .push(("op_ms_p90".into(), quantile(&op_ms, 0.9), "ms"));
    out.note(&format!("{op}_count"), op_ms.len() as f64);
    out.note(&format!("{op}_ms_p50"), median(&op_ms));
    out.note(&format!("{op}_ms_p90"), quantile(&op_ms, 0.9));
    let total: f64 = ops.iter().map(|o| o.evals).sum();
    out.note(
        "window_evals_per_s",
        total / ops.last().map_or(f64::NAN, |o| o.end_s),
    );
}

/// Compares the traced blocking path of `root` (the sum of self times
/// in each root span's subtree) with the untraced per-operation
/// medians, and records the tracing overhead.
fn reconcile(tr: &Trace, out: &mut Outcome, root: &str, untraced_ms: &[f64]) {
    let traced = tr.subtree_self_ms(root);
    let (t, u) = (median(&traced), median(untraced_ms));
    let err = (t - u).abs() / u;
    out.sample("trace.traced_ms", t);
    out.sample("trace.overhead_ms", t - u);
    out.sample("trace.reconcile_err", err);
    out.note("untraced_op_ms_p50", u);
    out.note("traced_ops", traced.len() as f64);
    if err > RECONCILE_TOL {
        eprintln!(
            "perfbench: warning: `{root}` self times sum to {t:.4} ms against an untraced \
             median of {u:.4} ms ({:.1}% > {:.0}% tolerance)",
            100.0 * err,
            100.0 * RECONCILE_TOL
        );
    }
}

/// Mean cost of `samples` against the exact value, within six standard
/// errors (plus rounding slack).
fn shots_agree(cost: &mbqao_problems::ZPoly, samples: &[u64], exact: f64) -> bool {
    let n = samples.len() as f64;
    let values: Vec<f64> = samples.iter().map(|&x| cost.value(x)).collect();
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0);
    (mean - exact).abs() <= 6.0 * (var / n).sqrt() + 1e-9
}
