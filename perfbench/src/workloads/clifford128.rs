//! `clifford128`: the tableau regime — Clifford-heavy cycles at
//! n = 64 and n = 128 on `PauliBackend`, where no statevector exists.

use super::{push_e2e, reconcile, shots_agree, Op};
use crate::census;
use crate::instances::{self, clifford_cycle, lattice_points, Instance, CHORDS};
use crate::stats::ms;
use crate::trace::Trace;
use crate::{Ctx, Outcome};
use mbqao_core::engine::{Backend, Executor, PatternBackend, PauliBackend};
use mbqao_mbqc::classify_pattern;
use mbqao_tableau::PatternRun;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Lattice points per step (one `expectation_batch`).
const BATCH: usize = 4;
/// Steps cycle over the instances in this order (n = 64 twice, n = 128
/// once), so the median step and the p90 step each sit inside one size.
const CYCLE: [usize; 3] = [0, 0, 1];
/// Shots per `Executor::sample` call (n = 64 only: a shot is a `u64`
/// bitstring, which holds at most 64 variables).
const SHOTS: usize = 128;
/// Share of the window spent on steps; the rest draws shots.
const STEP_SHARE: f64 = 0.8;
/// Size of the construction checked against `PatternBackend`.
const CHECK_N: usize = 16;

pub struct Clifford128 {
    instances: Vec<Instance>,
    execs: Vec<Executor<PauliBackend>>,
    check: Instance,
    points: StdRng,
}

impl Clifford128 {
    /// Builds the n ∈ {64, 128} cycles, compiles both forms and warms
    /// the tableau path once per instance.
    pub fn setup(ctx: &Ctx, out: &mut Outcome) -> Self {
        let instances: Vec<Instance> = [64, 128]
            .iter()
            .map(|&n| clifford_cycle(n, ctx.seed))
            .collect();
        let mut warm = instances::rng(ctx.seed, 21);
        let execs: Vec<Executor<PauliBackend>> = instances
            .iter()
            .map(|inst| {
                let exec = Executor::new(PauliBackend::new(&inst.cost, inst.p));
                exec.backend().compiled_sampling();
                let pt = lattice_points(&mut warm, 1).remove(0);
                out.check(exec.backend().magic_count(&pt) == CHORDS, || {
                    format!("{}: magic count is not the chord count", inst.name)
                });
                exec.expectation(&pt);
                exec
            })
            .collect();
        execs[0].sample(&lattice_points(&mut warm, 1)[0], 4, ctx.seed);
        Clifford128 {
            instances,
            execs,
            check: clifford_cycle(CHECK_N, ctx.seed),
            points: instances::rng(ctx.seed, 22),
        }
    }

    pub fn run(&mut self, ctx: &Ctx, out: &mut Outcome) {
        let start = Instant::now();
        let mut steps = Vec::new();
        while ctx.more(start, STEP_SHARE, steps.len()) {
            let k = CYCLE[steps.len() % CYCLE.len()];
            let pts = lattice_points(&mut self.points, BATCH);
            let t = Instant::now();
            let vals = self.execs[k].expectation_batch(&pts);
            steps.push(Op {
                ms: ms(t.elapsed()),
                end_s: start.elapsed().as_secs_f64(),
                evals: BATCH as f64,
            });
            let backend = self.execs[k].backend();
            let eligible = pts
                .iter()
                .all(|pt| backend.tableau_eligible(pt) && backend.magic_count(pt) == CHORDS);
            out.check(eligible && vals.iter().all(|v| v.is_finite()), || {
                format!("{}: a step left the tableau path", self.instances[k].name)
            });
        }

        let shots_start = Instant::now();
        let budget = Duration::from_secs_f64(ctx.seconds * (1.0 - STEP_SHARE));
        let (mut calls, mut shot_time) = (0usize, Duration::ZERO);
        while shots_start.elapsed() < budget || (!ctx.smoke && calls < 2) {
            let pt = lattice_points(&mut self.points, 1).remove(0);
            let t = Instant::now();
            let samples = self.execs[0].sample(&pt, SHOTS, ctx.seed ^ calls as u64);
            shot_time += t.elapsed();
            let exact = self.execs[0].expectation(&pt);
            out.check(
                shots_agree(&self.instances[0].cost, &samples, exact),
                || format!("tableau shots at {pt:?} disagree with <C> = {exact}"),
            );
            calls += 1;
        }

        let pauli = PauliBackend::new(&self.check.cost, 1);
        let pattern = PatternBackend::new(&self.check.cost, 1);
        for pt in lattice_points(&mut self.points, 8) {
            let (a, b) = (pauli.expectation(&pt), pattern.expectation(&pt));
            out.check(pauli.tableau_eligible(&pt) && (a - b).abs() <= 1e-8, || {
                format!("C{CHECK_N}: tableau {a} vs pattern {b} at {pt:?}")
            });
        }
        push_e2e(out, &steps, CYCLE.len(), "step");
        out.note(
            "shots_per_s",
            (calls * SHOTS) as f64 / shot_time.as_secs_f64(),
        );
        out.note("shot_calls", calls as f64);
    }

    pub fn trace(&mut self, ctx: &Ctx, tr: &mut Trace, out: &mut Outcome) {
        let start = Instant::now();
        let mut untraced = Vec::new();
        while ctx.more(start, 0.6, untraced.len()) {
            let k = CYCLE[untraced.len() % CYCLE.len()];
            let pt = lattice_points(&mut self.points, 1).remove(0);
            let backend = self.execs[k].backend();
            let t = Instant::now();
            let expected = backend.expectation(&pt);
            untraced.push(ms(t.elapsed()));
            tr.request(untraced.len() as u64);
            let cost = &self.instances[k].cost;
            let (magic, replayed) = tr.span("pauli.eval", |tr| {
                let compiled = tr.span("cache.lookup", |_| backend.compiled());
                let class = tr.span("classify", |_| classify_pattern(&compiled.pattern, &pt));
                let run = tr.span("tableau.run", |_| {
                    PatternRun::reference(&compiled.pattern, &pt)
                });
                let value = tr.span("tableau.diag", |_| {
                    run.diag_expectation(cost.constant(), cost.terms(), &compiled.output_wires)
                });
                (class.magic, value)
            });
            out.check(
                magic == CHORDS && replayed.map(f64::to_bits) == Some(expected.to_bits()),
                || format!("replayed <C> {replayed:?} (magic {magic}) differs from PauliBackend's {expected}"),
            );
        }
        reconcile(tr, out, "pauli.eval", &untraced);

        for s in 0..if ctx.smoke { 1 } else { 6 } {
            let k = CYCLE[s % CYCLE.len()];
            let pts = lattice_points(&mut self.points, BATCH);
            census::executor_batch(tr, out, &self.execs[k], &pts);
        }
        let sampling = self.execs[0].backend().compiled_sampling();
        let mut rng = StdRng::seed_from_u64(ctx.seed);
        let pt = lattice_points(&mut self.points, 1).remove(0);
        for _ in 0..if ctx.smoke { 2 } else { 24 } {
            tr.span("tableau.sample", |_| {
                PatternRun::sample(&sampling.pattern, &pt, &mut rng)
            });
        }

        let mut census_set = vec![self.check.clone()];
        census_set.extend(self.instances.iter().cloned());
        census::compute(ctx, tr, out, &census_set);
        let points: Vec<Vec<Vec<f64>>> = census_set
            .iter()
            .map(|_| lattice_points(&mut self.points, 8))
            .collect();
        out.sample(
            "pauli.fallback_frac",
            census::fallback_frac(&census_set, &points),
        );
        census::orchestration_probe(ctx, tr, out);
    }
}
