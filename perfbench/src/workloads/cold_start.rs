//! `cold_start`: bringing up never-seen problems — each instance is
//! built on `PatternBackend` and `ZxBackend` and taken to its first
//! ⟨C⟩, then a few more ZX evaluations follow.

use super::{push_e2e, reconcile, Op};
use crate::census;
use crate::instances::{self, generic_points, ColdStream, Instance};
use crate::layers;
use crate::stats::{median, ms, quantile};
use crate::trace::Trace;
use crate::{Ctx, Outcome};
use mbqao_core::cache::{pattern_cache_stats, zx_cache_stats};
use mbqao_core::compiler::CompileOptions;
use mbqao_core::engine::{Backend, PatternBackend, ZxBackend};
use mbqao_mbqc::resources::stats;
use mbqao_problems::{generators, maxcut};
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// ZX evaluations after the first one, per instance.
const EXTRA_ZX: usize = 2;
/// Exact evaluations per instance: first ⟨C⟩ on both backends plus the
/// extra ZX ones.
const EVALS: usize = 2 + EXTRA_ZX;
/// Instances per timed round: two full rotations of the kinds, so every
/// round brings up the same mix of kinds and topologies.
const ROUND: usize = 2 * instances::COLD_CYCLE;

/// What one instance bring-up returned.
struct BringUp {
    pattern: f64,
    zx: Vec<f64>,
    pattern_misses: usize,
    zx_misses: usize,
    zx_hits: usize,
}

pub struct ColdStart {
    stream: ColdStream,
    points: StdRng,
}

/// The timed operation: fresh backends, first ⟨C⟩ on each, then the
/// extra ZX evaluations.
fn bring_up(inst: &Instance, pts: &[Vec<f64>]) -> BringUp {
    let (p0, z0) = (pattern_cache_stats(), zx_cache_stats());
    let pattern = PatternBackend::new(&inst.cost, inst.p).expectation(&pts[0]);
    let zx = ZxBackend::new(&inst.cost, inst.p);
    let zx_values = pts.iter().map(|pt| zx.expectation(pt)).collect();
    let (p1, z1) = (pattern_cache_stats(), zx_cache_stats());
    BringUp {
        pattern,
        zx: zx_values,
        pattern_misses: p1.misses - p0.misses,
        zx_misses: z1.misses - z0.misses,
        zx_hits: z1.hits - z0.hits,
    }
}

impl ColdStart {
    /// Checks the ZX path on a fixed reference instance (Petersen, p=2,
    /// whose 22-qubit ZX register also fixes the run's peak memory) and
    /// brings up one warm-up instance of every kind.
    pub fn setup(ctx: &Ctx, out: &mut Outcome) -> Self {
        let petersen = maxcut::maxcut_zpoly(&generators::petersen());
        let pt = [0.7, 0.4, 0.3, 0.9];
        let a = PatternBackend::new(&petersen, 2).expectation(&pt);
        let b = ZxBackend::new(&petersen, 2).expectation(&pt);
        out.check((a - b).abs() <= 1e-8, || {
            format!("reference instance: pattern {a} vs ZX {b}")
        });
        let mut warm = ColdStream::new(ctx.seed, 1);
        let mut rng = instances::rng(ctx.seed, 31);
        for _ in 0..5 {
            let inst = warm.draw();
            bring_up(&inst, &generic_points(&mut rng, inst.p, 1 + EXTRA_ZX));
        }
        ColdStart {
            stream: ColdStream::new(ctx.seed, 0),
            points: instances::rng(ctx.seed, 32),
        }
    }

    fn next(&mut self) -> (Instance, Vec<Vec<f64>>) {
        let inst = self.stream.draw();
        let pts = generic_points(&mut self.points, inst.p, 1 + EXTRA_ZX);
        (inst, pts)
    }

    /// The timed operation is one round of [`ROUND`] never-seen
    /// instances, brought up one after another (a single instance's
    /// latency depends mostly on its kind; per-kind medians are in the
    /// report notes).
    pub fn run(&mut self, ctx: &Ctx, out: &mut Outcome) {
        let start = Instant::now();
        let mut rounds = Vec::new();
        let mut by_kind: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        while ctx.more(start, 1.0, rounds.len()) {
            let mut round = Vec::with_capacity(ROUND);
            for _ in 0..ROUND {
                let (inst, pts) = self.next();
                let t = Instant::now();
                let r = bring_up(&inst, &pts);
                round.push((inst, r, ms(t.elapsed())));
            }
            rounds.push(Op {
                ms: round.iter().map(|(_, _, ms)| ms).sum(),
                end_s: start.elapsed().as_secs_f64(),
                evals: (EVALS * round.len()) as f64,
            });
            for (inst, r, op_ms) in round {
                let kind = inst.name.split('#').next().unwrap_or_default();
                by_kind.entry(kind.to_string()).or_default().push(op_ms);
                out.check((r.pattern - r.zx[0]).abs() <= 1e-8, || {
                    format!("{}: pattern {} vs ZX {}", inst.name, r.pattern, r.zx[0])
                });
                out.check(
                    r.pattern_misses == 1 && r.zx_misses == 1 && r.zx_hits == 0,
                    || {
                        format!(
                            "{}: expected one compile miss per cache, saw {} pattern / {} ZX misses and {} ZX hits",
                            inst.name, r.pattern_misses, r.zx_misses, r.zx_hits
                        )
                    },
                );
            }
        }
        push_e2e(out, &rounds, 1, "round");
        for (kind, v) in &by_kind {
            out.note(&format!("instance_ms_p50_{kind}"), median(v));
            out.note(&format!("instance_ms_p90_{kind}"), quantile(v, 0.9));
        }
    }

    pub fn trace(&mut self, ctx: &Ctx, tr: &mut Trace, out: &mut Outcome) {
        let start = Instant::now();
        let mut untraced = Vec::new();
        let opts = CompileOptions::default();
        while ctx.more(start, 0.6, untraced.len()) {
            let (inst, pts) = self.next();
            let t = Instant::now();
            let r = bring_up(&inst, &pts);
            untraced.push(ms(t.elapsed()));

            // The same bring-up, replayed through the public calls the two
            // backends make on a compile-cache miss (the replay compiles
            // directly, so the backends' cache entries do not shorten it).
            tr.request(untraced.len() as u64);
            let (pattern, zx) = tr.span("instance", |tr| {
                let compiled = layers::compile_and_schedule(tr, &inst.cost, inst.p, &opts);
                let cv = tr.span("cost.vector", |_| inst.cost.cost_vector_msb());
                let state = layers::run_state(tr, &compiled.pattern, &pts[0]);
                let pattern = layers::readout(tr, &state, &compiled.output_wires, &cv);
                tr.span("zx.stats", |_| stats(&compiled.pattern));
                let replay = layers::zx_pipeline(tr, &compiled.pattern);
                tr.span("zx.stats", |_| stats(&replay.pattern));
                let cv = tr.span("cost.vector", |_| inst.cost.cost_vector_msb());
                let zx: Vec<f64> = pts
                    .iter()
                    .map(|pt| {
                        let state = layers::zx_run(tr, &replay, pt);
                        layers::readout(tr, &state, &replay.output_wires, &cv)
                    })
                    .collect();
                (pattern, zx)
            });
            let same = r.pattern.to_bits() == pattern.to_bits()
                && r.zx
                    .iter()
                    .zip(&zx)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            out.check(same, || {
                format!("{}: replayed values differ from the backends'", inst.name)
            });
        }
        reconcile(tr, out, "instance", &untraced);

        let mut census_stream = ColdStream::new(ctx.seed, 2);
        let census_set: Vec<Instance> = (0..5).map(|_| census_stream.draw()).collect();
        census::compute(ctx, tr, out, &census_set);
        let points: Vec<Vec<Vec<f64>>> = census_set
            .iter()
            .map(|inst| generic_points(&mut self.points, inst.p, 8))
            .collect();
        out.sample(
            "pauli.fallback_frac",
            census::fallback_frac(&census_set, &points),
        );
        census::orchestration_probe(ctx, tr, out);
    }
}
