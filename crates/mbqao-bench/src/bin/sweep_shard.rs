//! `sweep_shard` — the multi-process sharded sweep driver (and its own
//! worker).
//!
//! It partitions a sweep into shards, sends them to a private
//! pool of at most `--cap` persistent workers — **this binary**
//! re-invoked with `--worker`, each serving shard after shard as JSON
//! frames over stdio (floats travel as exact bit patterns, see
//! `mbqao_core::engine::wire`) — merges the results in canonical
//! order, and prints the assembled output. `--check` additionally runs
//! the same sweep monolithically in-process and asserts the sharded
//! result is bit-identical — the zero-trust mode CI runs.
//!
//! Usage:
//! ```text
//! sweep_shard --workload landscape --family square --backend gate --steps 16 --shards 4 --cap 2
//! sweep_shard --workload grid --family SK5 --backend pattern --p 1 --steps 8 --shards 2
//! sweep_shard --workload resources --max-n 5 --depths 1,2 --shards 3 --check
//! sweep_shard --workload equivalence --max-n 5 --shards 2
//! sweep_shard --workload disorder --n 6 --instances 8 --shards 4
//! sweep_shard --worker                 # internal: pool worker, JSON frames over stdio
//! ```
//! Sharded runs of `resources` / `equivalence` reproduce the
//! `table_resources` / `table_equivalence` output byte-for-byte.
//! Unknown arguments and malformed values are rejected with a usage
//! line and exit code 2.

use mbqao_bench::sweep::{
    drive_subprocess_capped, flag_value, monolithic, worker_entry, BackendKind, DisorderSpec,
    FamilyRef, SweepOutput, Workload,
};
use mbqao_bench::tables::{EquivalenceSpec, ResourcesSpec};
use mbqao_core::engine::shard::default_worker_cap;
use std::collections::HashMap;

const USAGE: &str = "usage: sweep_shard [--workload landscape|grid|resources|equivalence|disorder] \
[--family NAME] [--backend gate|pattern|zx|pauli] [--steps N] [--p N] [--max-n N] [--depths D1,D2,...] \
[--n N] [--instances N] [--shards N] [--cap N] [--check]";

/// Flags that take a value.
const VALUE_FLAGS: &str = "--workload --family --backend --steps --p --max-n --depths --n \
                           --instances --shards --cap";

/// The parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    shards: usize,
    cap: usize,
    check: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--worker") {
        worker_entry(&args);
        return;
    }
    let Args {
        workload,
        shards,
        cap,
        check,
    } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("sweep_shard: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let exe = std::env::current_exe().expect("current_exe");
    eprintln!(
        "driving {} items as {shards} shards on at most {cap} pooled workers of {}",
        workload.total(),
        exe.display()
    );
    let output = match drive_subprocess_capped(&exe, &workload, shards, &[], cap) {
        Ok(output) => output,
        Err(e) => {
            eprintln!("sharded sweep failed: {e}");
            std::process::exit(1);
        }
    };
    if check {
        let reference = monolithic(&workload);
        assert!(
            output.bit_identical(&reference),
            "sharded output differs from the monolithic reference"
        );
        eprintln!("check: sharded output is bit-identical to the monolithic run");
    }
    print_output(&output);
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut values: HashMap<&str, &String> = HashMap::new();
    let mut check = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--check" {
            check = true;
        } else if VALUE_FLAGS.split_whitespace().any(|f| f == flag) {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            values.insert(flag, value);
        } else {
            return Err(format!("unknown argument {flag:?}"));
        }
    }
    let text = |name: &str, default: &'static str| values.get(name).map_or(default, |v| v.as_str());
    // Every value is checked, whichever workload it applies to.
    let num = |name: &str| -> Result<Option<usize>, String> {
        values
            .get(name)
            .map(|v| flag_value(name, Some(v)))
            .transpose()
    };
    let depths: Option<Vec<usize>> = values
        .get("--depths")
        .map(|list| {
            list.split(',')
                .map(|d| flag_value("--depths", Some(&d.to_string())))
                .collect::<Result<_, _>>()
        })
        .transpose()?;
    let (max_n, p) = (num("--max-n")?, num("--p")?.unwrap_or(1));
    let (n, instances) = (num("--n")?.unwrap_or(5), num("--instances")?.unwrap_or(8));
    let steps = num("--steps")?.unwrap_or(8);
    let family = || FamilyRef {
        seed: 7,
        name: text("--family", "square").to_string(),
    };
    let backend = BackendKind::from_name(text("--backend", "gate")).map_err(|e| e.0)?;
    let workload = match text("--workload", "landscape") {
        "landscape" => Workload::Landscape {
            family: family(),
            backend,
            steps,
            gamma: (0.0, std::f64::consts::PI),
            beta: (0.0, std::f64::consts::PI),
        },
        "grid" => Workload::Grid {
            family: family(),
            backend,
            p,
            steps,
            lo: vec![0.0; 2 * p],
            hi: vec![std::f64::consts::PI; 2 * p],
        },
        "resources" => {
            let full = ResourcesSpec::full();
            Workload::ResourceTable(ResourcesSpec {
                max_n: max_n.unwrap_or(full.max_n),
                depths: depths.unwrap_or(full.depths),
                ..full
            })
        }
        "equivalence" => {
            let full = EquivalenceSpec::full();
            Workload::EquivalenceTable(EquivalenceSpec {
                max_n: max_n.unwrap_or(full.max_n),
                depths: depths.unwrap_or(full.depths),
                ..full
            })
        }
        "disorder" => Workload::Disorder(DisorderSpec {
            n,
            instances,
            base_seed: 2024,
            p,
            grid_steps: steps,
            backend,
        }),
        other => return Err(format!("unknown --workload {other:?}")),
    };
    let shards = num("--shards")?.unwrap_or(2);
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    Ok(Args {
        workload,
        shards,
        cap: num("--cap")?.unwrap_or_else(default_worker_cap),
        check,
    })
}

fn print_output(output: &SweepOutput) {
    match output {
        SweepOutput::Landscape(scan) => {
            let (v, g, b) = scan.min();
            println!(
                "landscape: {}×{} points, min <C> = {v:.9} at (γ, β) = ({g:.6}, {b:.6})",
                scan.gammas.len(),
                scan.betas.len()
            );
        }
        SweepOutput::Opt(r) => {
            println!(
                "grid search: best <C> = {:.9} at {:?} ({} evaluations)",
                r.value, r.params, r.evals
            );
        }
        SweepOutput::Table {
            text,
            dense_savings,
        } => {
            println!("{text}");
            eprintln!("(dense qubit savings: {dense_savings})");
        }
        SweepOutput::Disorder { per_seed, mean } => {
            println!(
                "disorder average over {} instances: mean optimized energy density {mean:.9}",
                per_seed.len()
            );
            for (i, e) in per_seed.iter().enumerate() {
                println!("  seed {i}: {e:.9}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn known_flags_build_the_workload() {
        let args = parse(
            "--workload grid --family SK5 --backend pattern --p 2 --steps 3 \
             --shards 4 --cap 2 --check",
        )
        .expect("every flag is known");
        assert_eq!((args.shards, args.cap), (4, 2));
        assert!(args.check);
        match args.workload {
            Workload::Grid {
                family,
                backend,
                p,
                steps,
                lo,
                ..
            } => {
                assert_eq!((family.name.as_str(), p, steps), ("SK5", 2, 3));
                assert_eq!(backend, BackendKind::Pattern);
                assert_eq!(lo.len(), 4);
            }
            other => panic!("expected a grid workload, got {other:?}"),
        }
        let args = parse("--workload resources --max-n 5 --depths 1,2").expect("table flags");
        match args.workload {
            Workload::ResourceTable(spec) => {
                assert_eq!((spec.max_n, spec.depths), (5, vec![1, 2]));
            }
            other => panic!("expected a resource table, got {other:?}"),
        }
    }

    #[test]
    fn unknown_flags_and_malformed_values_are_rejected() {
        assert!(parse("--shard 4").unwrap_err().contains("--shard"));
        let e = parse("--steps eight").unwrap_err();
        assert!(e.contains("--steps") && e.contains("eight"), "{e}");
        assert!(parse("--depths 1,x").unwrap_err().contains("--depths"));
        assert!(parse("--workload nope").unwrap_err().contains("nope"));
        assert!(parse("--backend qpu").is_err());
        assert!(parse("--cap").unwrap_err().contains("needs a value"));
        assert!(parse("--shards 0").unwrap_err().contains("--shards"));
    }
}
