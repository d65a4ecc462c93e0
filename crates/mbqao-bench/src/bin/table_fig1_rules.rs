//! E1 — Fig. 1 reproduction: every ZX rewrite rule applied on canonical
//! and randomized diagrams, with exact tensor-semantics verification.

use mbqao_bench::sweep::TableOut;
use mbqao_math::{PhaseExpr, Rational};
use mbqao_zx::diagram::{Diagram, EdgeType};
use mbqao_zx::{rules, tensor};
use std::io::Write;

/// Applies `f` to a copy of `d` and reports whether semantics (including
/// the tracked scalar) were preserved exactly.
fn check(d: &Diagram, f: impl FnOnce(&mut Diagram) -> bool) -> (bool, bool) {
    let mut after = d.clone();
    let fired = f(&mut after);
    let ok = !fired || tensor::equal_exact(d, &after, &|_| 0.0, 1e-9);
    (fired, ok)
}

fn main() -> std::io::Result<()> {
    mbqao_bench::sweep::table_args("table_fig1_rules", false);
    let mut out = TableOut;
    writeln!(out, "# E1: Fig. 1 rewrite rules, scalar-exact\n")?;
    writeln!(out, "| rule | instance | fired | semantics preserved |")?;
    writeln!(out, "|---|---|---|---|")?;

    // (f) fusion
    {
        let mut d = Diagram::new();
        let i = d.add_input();
        let a = d.add_z(PhaseExpr::pi_times(Rational::new(1, 4)));
        let b = d.add_z(PhaseExpr::pi_times(Rational::new(1, 3)));
        let o = d.add_output();
        d.add_edge(i, a, EdgeType::Plain);
        let e = d.add_edge(a, b, EdgeType::Plain);
        d.add_edge(b, o, EdgeType::Plain);
        let (fired, ok) = check(&d, |d| rules::try_fuse(d, e));
        writeln!(out, "| (f) | Z(π/4)–Z(π/3) | {fired} | {ok} |")?;
        assert!(fired && ok);
    }
    // (h) colour change
    {
        let mut d = Diagram::new();
        let i = d.add_input();
        let x = d.add_x(PhaseExpr::pi_times(Rational::new(2, 3)));
        let o = d.add_output();
        d.add_edge(i, x, EdgeType::Plain);
        d.add_edge(x, o, EdgeType::Hadamard);
        let (fired, ok) = check(&d, |d| rules::color_change(d, x));
        writeln!(out, "| (h) | X(2π/3) w/ mixed edges | {fired} | {ok} |")?;
        assert!(fired && ok);
    }
    // (id)
    for (t1, t2, label) in [
        (EdgeType::Plain, EdgeType::Plain, "plain/plain"),
        (EdgeType::Hadamard, EdgeType::Plain, "H/plain"),
        (
            EdgeType::Hadamard,
            EdgeType::Hadamard,
            "H/H (the (hh) rule)",
        ),
    ] {
        let mut d = Diagram::new();
        let i = d.add_input();
        let z = d.add_z(PhaseExpr::zero());
        let o = d.add_output();
        d.add_edge(i, z, t1);
        d.add_edge(z, o, t2);
        let (fired, ok) = check(&d, |d| rules::try_remove_identity(d, z));
        writeln!(out, "| (id)/(hh) | {label} | {fired} | {ok} |")?;
        assert!(fired && ok);
    }
    // (π)
    {
        let mut d = Diagram::new();
        let i = d.add_input();
        let xpi = d.add_x(PhaseExpr::pi());
        let z = d.add_z(PhaseExpr::pi_times(Rational::new(1, 4)));
        let o1 = d.add_output();
        let o2 = d.add_output();
        d.add_edge(i, xpi, EdgeType::Plain);
        d.add_edge(xpi, z, EdgeType::Plain);
        d.add_edge(z, o1, EdgeType::Plain);
        d.add_edge(z, o2, EdgeType::Plain);
        let (fired, ok) = check(&d, |d| rules::try_pi_commute(d, xpi));
        writeln!(out, "| (π) | Xπ through Z(π/4), 2 legs | {fired} | {ok} |")?;
        assert!(fired && ok);
    }
    // (c)
    {
        let mut d = Diagram::new();
        let st = d.add_x(PhaseExpr::pi());
        let z = d.add_z(PhaseExpr::zero());
        d.add_edge(st, z, EdgeType::Plain);
        for _ in 0..3 {
            let o = d.add_output();
            d.add_edge(z, o, EdgeType::Plain);
        }
        let (fired, ok) = check(&d, |d| rules::try_copy(d, st));
        writeln!(
            out,
            "| (c) | X(π) state through Z, 3 legs | {fired} | {ok} |"
        )?;
        assert!(fired && ok);
    }
    // (b)
    {
        let mut d = Diagram::new();
        let i1 = d.add_input();
        let i2 = d.add_input();
        let o1 = d.add_output();
        let o2 = d.add_output();
        let z = d.add_z(PhaseExpr::zero());
        let x = d.add_x(PhaseExpr::zero());
        d.add_edge(i1, z, EdgeType::Plain);
        d.add_edge(i2, z, EdgeType::Plain);
        d.add_edge(z, x, EdgeType::Plain);
        d.add_edge(x, o1, EdgeType::Plain);
        d.add_edge(x, o2, EdgeType::Plain);
        let (fired, ok) = check(&d, |d| rules::try_bialgebra(d, z, x));
        writeln!(out, "| (b) | canonical 2+2 | {fired} | {ok} |")?;
        assert!(fired && ok);
    }
    // (hopf)
    {
        let mut d = Diagram::new();
        let i = d.add_input();
        let o = d.add_output();
        let z = d.add_z(PhaseExpr::zero());
        let x = d.add_x(PhaseExpr::zero());
        d.add_edge(i, z, EdgeType::Plain);
        d.add_edge(z, x, EdgeType::Plain);
        d.add_edge(z, x, EdgeType::Plain);
        d.add_edge(x, o, EdgeType::Plain);
        let (fired, ok) = check(&d, |d| rules::try_hopf(d, z, x));
        writeln!(out, "| (hopf) | double Z–X edge | {fired} | {ok} |")?;
        assert!(fired && ok);
    }
    writeln!(
        out,
        "\nall Fig. 1 rules verified scalar-exactly against tensor semantics."
    )?;
    Ok(())
}
