//! `variational`: the paper's main use — a variational loop on the
//! statevector pattern path (`PatternBackend` through `Executor`).

use super::{push_e2e, reconcile, shots_agree, Op};
use crate::census;
use crate::instances::{self, generic_points, Instance};
use crate::layers;
use crate::stats::ms;
use crate::trace::Trace;
use crate::{Ctx, Outcome};
use mbqao_core::engine::{Backend, Executor, GateBackend, PatternBackend};
use mbqao_mbqc::simulate::{Branch, PatternRunner};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Points per optimizer step (one `expectation_batch`).
const BATCH: usize = 32;
/// Shots per `Executor::sample` call.
const SHOTS: usize = 256;
/// Share of the window spent on steps; the rest draws shots.
const STEP_SHARE: f64 = 0.75;
/// Every this many steps, one point is checked against `GateBackend`.
const CHECK_EVERY: usize = 8;

pub struct Variational {
    instances: Vec<Instance>,
    execs: Vec<Executor<PatternBackend>>,
    gates: Vec<GateBackend>,
    cost_vectors: Vec<Vec<f64>>,
    points: StdRng,
}

impl Variational {
    /// Builds the instances, compiles both pattern forms (through the
    /// compile cache), builds the gate baselines and warms the pool.
    pub fn setup(ctx: &Ctx) -> Self {
        let instances = instances::variational(ctx.seed);
        let mut warm = instances::rng(ctx.seed, 11);
        let mut execs = Vec::new();
        let mut gates = Vec::new();
        let mut cost_vectors = Vec::new();
        for inst in &instances {
            let exec = Executor::new(PatternBackend::new(&inst.cost, inst.p));
            let pts = generic_points(&mut warm, inst.p, BATCH);
            exec.expectation_batch(&pts);
            exec.sample(&pts[0], 64, ctx.seed);
            let gate = GateBackend::standard(inst.cost.clone(), inst.p);
            gate.expectation(&pts[0]);
            execs.push(exec);
            gates.push(gate);
            cost_vectors.push(inst.cost.cost_vector_msb());
        }
        Variational {
            instances,
            execs,
            gates,
            cost_vectors,
            points: instances::rng(ctx.seed, 12),
        }
    }

    fn next_points(&mut self, k: usize, count: usize) -> Vec<Vec<f64>> {
        generic_points(&mut self.points, self.instances[k].p, count)
    }

    pub fn run(&mut self, ctx: &Ctx, out: &mut Outcome) {
        let n = self.instances.len();
        let start = Instant::now();
        let mut steps = Vec::new();
        let mut kept = Vec::new();
        while ctx.more(start, STEP_SHARE, steps.len()) {
            let k = steps.len() % n;
            let pts = self.next_points(k, BATCH);
            let t = Instant::now();
            let vals = self.execs[k].expectation_batch(&pts);
            steps.push(Op {
                ms: ms(t.elapsed()),
                end_s: start.elapsed().as_secs_f64(),
                evals: BATCH as f64,
            });
            out.check(
                vals.len() == BATCH && vals.iter().all(|v| v.is_finite()),
                || format!("step {} returned {} values", steps.len(), vals.len()),
            );
            if steps.len() % CHECK_EVERY == 1 {
                kept.push((k, pts[0].clone(), vals[0]));
            }
        }

        let shots_start = Instant::now();
        let shot_budget = Duration::from_secs_f64(ctx.seconds * (1.0 - STEP_SHARE));
        let (mut calls, mut shot_time) = (0usize, Duration::ZERO);
        while shots_start.elapsed() < shot_budget || (!ctx.smoke && calls < 3 * n) {
            let k = calls % n;
            let pt = self.next_points(k, 1).remove(0);
            let t = Instant::now();
            let samples = self.execs[k].sample(&pt, SHOTS, ctx.seed ^ calls as u64);
            shot_time += t.elapsed();
            let exact = self.execs[k].expectation(&pt);
            out.check(
                samples.len() == SHOTS && shots_agree(&self.instances[k].cost, &samples, exact),
                || {
                    format!(
                        "shots at {pt:?} on {} disagree with <C> = {exact}",
                        self.instances[k].name
                    )
                },
            );
            calls += 1;
        }
        for (k, pt, value) in kept {
            let gate = self.gates[k].expectation(&pt);
            out.check((gate - value).abs() <= 1e-8, || {
                format!(
                    "{}: pattern {value} vs gate {gate} at {pt:?}",
                    self.instances[k].name
                )
            });
        }
        push_e2e(out, &steps, n, "step");
        out.note(
            "shots_per_s",
            (calls * SHOTS) as f64 / shot_time.as_secs_f64(),
        );
        out.note("shot_calls", calls as f64);
    }

    pub fn trace(&mut self, ctx: &Ctx, tr: &mut Trace, out: &mut Outcome) {
        let n = self.instances.len();
        let start = Instant::now();
        let mut untraced = Vec::new();
        while ctx.more(start, 0.6, untraced.len()) {
            let k = untraced.len() % n;
            let pt = self.next_points(k, 1).remove(0);
            let backend = self.execs[k].backend();
            let t = Instant::now();
            let expected = backend.expectation(&pt);
            untraced.push(ms(t.elapsed()));
            tr.request(untraced.len() as u64);
            let cv = &self.cost_vectors[k];
            let replayed = tr.span("pattern.eval", |tr| {
                let compiled = tr.span("cache.lookup", |_| backend.compiled());
                let state = layers::run_state(tr, &compiled.pattern, &pt);
                layers::readout(tr, &state, &compiled.output_wires, cv)
            });
            out.check(replayed.to_bits() == expected.to_bits(), || {
                format!("replayed <C> {replayed} differs from PatternBackend's {expected}")
            });
        }
        reconcile(tr, out, "pattern.eval", &untraced);

        for s in 0..if ctx.smoke { n } else { 6 * n } {
            let k = s % n;
            let pts = self.next_points(k, BATCH);
            census::executor_batch(tr, out, &self.execs[k], &pts);
        }
        let mut runner = PatternRunner::new();
        let mut rng = StdRng::seed_from_u64(ctx.seed);
        for k in 0..n {
            let pt = self.next_points(k, 1).remove(0);
            let sampling = self.execs[k].backend().compiled_sampling();
            for _ in 0..if ctx.smoke { 4 } else { 64 } {
                tr.span("simulate.shot", |_| {
                    runner.run(&sampling.pattern, &pt, Branch::Random, &mut rng)
                });
            }
        }

        census::compute(ctx, tr, out, &self.instances);
        let points: Vec<Vec<Vec<f64>>> = (0..n).map(|k| self.next_points(k, 8)).collect();
        out.sample(
            "pauli.fallback_frac",
            census::fallback_frac(&self.instances, &points),
        );
        census::orchestration_probe(ctx, tr, out);
    }
}
