//! Shared helpers for the table generators, the sweep service and the
//! benchmark's A/B command.
//!
//! The `table_*` binaries in `src/bin/` regenerate the paper's
//! quantitative artifacts; `perf_report` compares two commits on the
//! repository benchmark (`perfbench/`). Execution plumbing lives in
//! `mbqao_core::engine` — this crate only assembles workloads and
//! formats tables.

pub mod scheduler;
pub mod serve;
pub mod sweep;
pub mod tables;

use mbqao_core::{CompileOptions, MixerKind};
use mbqao_problems::{maxcut, mis, Graph, ZPoly};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A labelled problem instance used across tables: the interaction
/// graph plus the cost Hamiltonian lowered onto it (MaxCut for the
/// unweighted graph families, signed couplings for the SK family).
pub struct FamilyInstance {
    /// Display name.
    pub name: String,
    /// The interaction graph.
    pub graph: Graph,
    /// The diagonal cost Hamiltonian on that graph.
    pub cost: ZPoly,
}

impl FamilyInstance {
    fn maxcut(name: &str, graph: Graph) -> Self {
        let cost = maxcut::maxcut_zpoly(&graph);
        FamilyInstance {
            name: name.into(),
            graph,
            cost,
        }
    }
}

/// The names of the [`standard_families`], in order. They are the same
/// for every seed, so a family can be checked by name without building
/// the instances.
pub const STANDARD_FAMILY_NAMES: [&str; 12] = [
    "triangle", "square", "C5", "C8", "K4", "K6", "star7", "grid3x3", "petersen", "3reg8", "SK5",
    "SK7",
];

/// The standard family sweep used by the resource/equivalence tables:
/// the paper's MaxCut graph families across |E|/|V| regimes, plus
/// Sherrington–Kirkpatrick spin glasses (random ±1 couplings on `K_n`)
/// as the dense *weighted* workload.
pub fn standard_families(seed: u64) -> Vec<FamilyInstance> {
    use mbqao_problems::generators as gen;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fams = vec![
        FamilyInstance::maxcut("triangle", gen::triangle()),
        FamilyInstance::maxcut("square", gen::square()),
        FamilyInstance::maxcut("C5", gen::cycle(5)),
        FamilyInstance::maxcut("C8", gen::cycle(8)),
        FamilyInstance::maxcut("K4", gen::complete(4)),
        FamilyInstance::maxcut("K6", gen::complete(6)),
        FamilyInstance::maxcut("star7", gen::star(7)),
        FamilyInstance::maxcut("grid3x3", gen::grid(3, 3)),
        FamilyInstance::maxcut("petersen", gen::petersen()),
        FamilyInstance::maxcut("3reg8", gen::random_regular(8, 3, &mut rng)),
    ];
    for n in [5usize, 7] {
        let sk = gen::sherrington_kirkpatrick(n, &mut rng);
        fams.push(FamilyInstance {
            name: format!("SK{n}"),
            graph: gen::complete(n),
            cost: sk.to_zpoly(),
        });
    }
    fams
}

/// A constrained-ansatz (MIS) instance: the graph, the MIS objective,
/// and the compile options selecting the Sec.-IV partial mixer with a
/// feasible greedy initial state.
pub struct MisInstance {
    /// Display name.
    pub name: String,
    /// The problem graph.
    pub graph: Graph,
    /// The MIS objective Hamiltonian.
    pub cost: ZPoly,
    /// Greedy feasible initial state (bit `v` = vertex `v`).
    pub initial: u64,
}

impl MisInstance {
    /// Compile options for this instance (state form).
    pub fn compile_options(&self) -> CompileOptions {
        CompileOptions {
            mixer: MixerKind::Mis(self.graph.clone()),
            initial_basis_state: Some(self.initial),
            measure_outputs: false,
        }
    }
}

/// How many [`mis_families`] there are, known without building them.
pub const MIS_FAMILY_COUNT: usize = 4;

/// The MIS family sweep: small graphs where the constraint-preserving
/// mixer (and therefore the ZX backend's handling of `|0⟩`
/// preparations, X-corrections and controlled mixers) gets exercised.
pub fn mis_families() -> Vec<MisInstance> {
    use mbqao_problems::generators as gen;
    [
        ("mis-path3", gen::path(3)),
        ("mis-path4", gen::path(4)),
        ("mis-star4", gen::star(4)),
        ("mis-C5", gen::cycle(5)),
    ]
    .into_iter()
    .map(|(name, graph)| {
        let cost = mis::mis_objective(&graph);
        let initial = mis::greedy_mis(&graph);
        MisInstance {
            name: name.into(),
            graph,
            cost,
            initial,
        }
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_are_nonempty() {
        let fams = standard_families(3);
        assert!(fams.len() >= 10);
        for f in &fams {
            assert!(f.graph.n() >= 3);
            assert!(f.graph.m() >= 2);
            assert_eq!(
                f.cost.n(),
                f.graph.n(),
                "{}: cost/graph size mismatch",
                f.name
            );
            assert!(f.cost.coupling_term_count() >= f.graph.m().min(2));
        }
    }

    #[test]
    fn family_names_are_the_same_for_every_seed() {
        for seed in [0, 3, 7, u64::MAX] {
            let names: Vec<String> = standard_families(seed)
                .into_iter()
                .map(|f| f.name)
                .collect();
            assert_eq!(names, STANDARD_FAMILY_NAMES, "seed {seed}");
        }
    }

    #[test]
    fn mis_family_count_is_the_number_of_mis_families() {
        assert_eq!(mis_families().len(), MIS_FAMILY_COUNT);
    }

    #[test]
    fn sk_families_carry_signed_couplings() {
        let fams = standard_families(3);
        let sk = fams
            .iter()
            .find(|f| f.name.starts_with("SK"))
            .expect("SK family present");
        // SK costs must have both coupling signs — distinguishing them
        // from the uniform-weight MaxCut lowering.
        assert!(sk.cost.terms().iter().any(|(_, w)| *w > 0.0));
        assert!(sk.cost.terms().iter().any(|(_, w)| *w < 0.0));
        assert_eq!(sk.cost.coupling_term_count(), sk.graph.m());
    }

    #[test]
    fn mis_families_are_feasible() {
        for inst in mis_families() {
            assert_eq!(inst.cost.n(), inst.graph.n(), "{}", inst.name);
            assert!(
                inst.graph.is_independent_set(inst.initial),
                "{}: greedy initial state must be independent",
                inst.name
            );
        }
    }
}
