//! E12 — the Sec. IV MIS table: feasibility preservation of the
//! constrained mixer vs. the penalty route, solution quality, and the
//! ZH-identity check behind the partial mixer.

use mbqao_problems::{exact, generators, mis};
use mbqao_qaoa::optimize::{FnObjective, NelderMead};
use mbqao_qaoa::{QaoaAnsatz, QaoaRunner};
use mbqao_zx::zh::{mis_partial_mixer_dense, mis_partial_mixer_diagram};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    mbqao_bench::sweep::table_args("table_mis", false);
    println!("# E12: MIS with hard constraints (Sec. IV)\n");

    // ZH identity (the paper's diagrammatic derivation, checked tensor-
    // exactly for degrees 0..3).
    println!("## ZH partial-mixer identity");
    println!("| degree d(v) | β | ‖diagram − Λ_N(e^{{iβX}})‖ ok |");
    println!("|---|---|---|");
    for (d, beta) in [(0usize, 0.7), (1, -0.4), (2, 0.9), (3, 0.37)] {
        let diag = mis_partial_mixer_diagram(d, beta);
        let m = mbqao_zx::tensor::evaluate_const(&diag);
        let want = mis_partial_mixer_dense(d, beta);
        let ok = m.approx_eq_up_to_scalar(&want, 1e-9);
        println!("| {d} | {beta} | {ok} |");
        assert!(ok);
    }

    // Feasibility + quality across graphs.
    println!("\n## feasibility and quality (p = 2, 800 shots)");
    println!("| graph | α(G) | route | feasible % | mean |S| | best |S| |");
    println!("|---|---|---|---|---|---|");
    for (name, g) in [
        ("square", generators::square()),
        ("C5", generators::cycle(5)),
        ("petersen", generators::petersen()),
        ("star7", generators::star(7)),
    ] {
        let alpha = exact::max_independent_set(&g).1;
        let p = 2;
        let shots = 800;

        for (route, ansatz) in [
            (
                "penalty",
                QaoaAnsatz::standard(mis::mis_penalty_qubo(&g, 2.0).to_zpoly(), p),
            ),
            ("constrained", QaoaAnsatz::mis(&g, p, mis::greedy_mis(&g))),
        ] {
            let runner = QaoaRunner::new(ansatz);
            let obj = FnObjective::new(2 * p, |prm: &[f64]| runner.expectation(prm));
            let res = NelderMead {
                max_iters: 250,
                ..Default::default()
            }
            .run(&obj, &vec![0.4; 2 * p]);
            let mut rng = StdRng::seed_from_u64(17);
            let samples = runner.sample(&res.params, shots, &mut rng);
            let feas: Vec<u64> = samples
                .iter()
                .copied()
                .filter(|&x| g.is_independent_set(x))
                .collect();
            let frac = feas.len() as f64 / shots as f64;
            let mean: f64 =
                feas.iter().map(|&x| x.count_ones() as f64).sum::<f64>() / feas.len().max(1) as f64;
            let best = feas.iter().map(|&x| x.count_ones()).max().unwrap_or(0);
            println!(
                "| {name} | {alpha} | {route} | {:.1} | {mean:.3} | {best} |",
                frac * 100.0
            );
            if route == "constrained" {
                assert!((frac - 1.0).abs() < 1e-12, "hard constraint violated!");
            }
        }
    }
    println!("\nconstrained mixers keep feasibility at exactly 100% (no penalties needed).");
}
