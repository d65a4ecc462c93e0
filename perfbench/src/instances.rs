//! Seeded problem instances and parameter points for every workload.
//!
//! Everything here is a pure function of the workload seed; the program
//! under test only ever sees the generated inputs.

use mbqao_bench::sweep::{BackendKind, FamilyRef, Workload};
use mbqao_problems::{generators, maxcut, Graph, ZPoly};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

/// A named cost Hamiltonian at a QAOA depth.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Label for reports.
    pub name: String,
    /// The diagonal cost Hamiltonian.
    pub cost: ZPoly,
    /// QAOA depth.
    pub p: usize,
}

/// A deterministic generator for one workload stream (`salt` separates
/// independent streams drawn from one seed).
pub fn rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// MaxCut on `graph` with edge weights drawn from `[0.5, 1.5)`, so that
/// two draws of the same graph are still distinct problems.
pub fn weighted_maxcut(graph: &Graph, rng: &mut StdRng) -> ZPoly {
    let mut constant = 0.0;
    let terms = graph
        .edges()
        .iter()
        .map(|&(u, v)| {
            let w = rng.gen_range(0.5..1.5);
            constant -= w / 2.0;
            (vec![u, v], w / 2.0)
        })
        .collect();
    ZPoly::new(graph.n(), constant, terms)
}

/// Uniform points in `[0, π/2)^{2p}`.
pub fn generic_points(rng: &mut StdRng, p: usize, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|_| (0..2 * p).map(|_| rng.gen_range(0.0..FRAC_PI_2)).collect())
        .collect()
}

/// `variational`: Petersen, a seeded 3-regular n=12 graph and SK n=10,
/// all at p=2.
pub fn variational(seed: u64) -> Vec<Instance> {
    let mut r = rng(seed, 1);
    vec![
        Instance {
            name: "petersen".into(),
            cost: maxcut::maxcut_zpoly(&generators::petersen()),
            p: 2,
        },
        Instance {
            name: "3reg12".into(),
            cost: maxcut::maxcut_zpoly(&generators::random_regular(12, 3, &mut r)),
            p: 2,
        },
        Instance {
            name: "SK10".into(),
            cost: generators::sherrington_kirkpatrick(10, &mut r).to_zpoly(),
            p: 2,
        },
    ]
}

/// Non-Clifford chords per `clifford128` instance (each is one magic
/// measurement at every lattice point).
pub const CHORDS: usize = 2;

/// A unit-weight cycle on `n` vertices plus [`CHORDS`] seeded chords of
/// golden-ratio weight (non-Clifford at every π/4-lattice point).
pub fn clifford_cycle(n: usize, seed: u64) -> Instance {
    let phi = 1.618_033_988_749_895f64;
    let mut r = rng(seed, 2 + n as u64);
    let mut terms: Vec<(Vec<usize>, f64)> = (0..n).map(|v| (vec![v, (v + 1) % n], 1.0)).collect();
    let mut chords: Vec<(usize, usize)> = Vec::new();
    while chords.len() < CHORDS {
        let u = r.gen_range(0..n);
        let v = r.gen_range(0..n);
        let (u, v) = (u.min(v), u.max(v));
        let adjacent = v - u <= 1 || (u == 0 && v == n - 1);
        if !adjacent && !chords.contains(&(u, v)) {
            chords.push((u, v));
        }
    }
    for (k, &(u, v)) in chords.iter().enumerate() {
        terms.push((vec![u, v], phi.powi(k as i32 + 1)));
    }
    Instance {
        name: format!("C{n}+{CHORDS}chords"),
        cost: ZPoly::new(n, 0.0, terms),
        p: 1,
    }
}

/// Seeded p=1 points on the π/4 lattice with γ an odd multiple of π/4
/// (unit cycle edges stay Clifford, golden-ratio chords do not).
pub fn lattice_points(rng: &mut StdRng, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|_| {
            let g = (2 * rng.gen_range(0..4u32) + 1) as f64 * FRAC_PI_4;
            let b = rng.gen_range(0..8u32) as f64 * FRAC_PI_4;
            vec![g, b]
        })
        .collect()
}

/// The `cold_start` kinds, cycled in this order: 3-regular n=8 at p=1,
/// 3-regular n=10 at p=1, SK n=8 at p=1, 3-regular n=8 at p=2 and
/// 3-regular n=8 at p=1 again.
const COLD_KINDS: [(&str, usize, usize); 5] = [
    ("3reg8", 8, 1),
    ("3reg10", 10, 1),
    ("SK8", 8, 1),
    ("3reg8", 8, 2),
    ("3reg8", 8, 1),
];

/// Length of the `cold_start` kind rotation.
pub const COLD_CYCLE: usize = COLD_KINDS.len();

/// Fixed 3-regular topologies per size: rotation `r` of the stream uses
/// topology `r % 2`, so every two rotations see the same structures
/// (ZX register widths differ several-fold between 3-regular graphs, and
/// a fresh graph per instance would make one run's mix differ from the
/// next). The seed varies the weights, which is what makes each
/// instance new.
fn cold_topology(n: usize, index: usize) -> Graph {
    let mut r = StdRng::seed_from_u64(0xC01D_0000 + 2 * n as u64 + index as u64);
    generators::random_regular(n, 3, &mut r)
}

/// An endless stream of never-seen instances: every draw has fresh
/// seeded weights (SK: signs and weights), so no two share a
/// compile-cache key.
pub struct ColdStream {
    rng: StdRng,
    next: usize,
}

impl ColdStream {
    /// Stream `salt` of `seed`.
    pub fn new(seed: u64, salt: u64) -> Self {
        ColdStream {
            rng: rng(seed, 100 + salt),
            next: 0,
        }
    }

    /// The next instance.
    pub fn draw(&mut self) -> Instance {
        let (kind, n, p) = COLD_KINDS[self.next % COLD_CYCLE];
        let rotation = self.next / COLD_CYCLE;
        self.next += 1;
        let cost = if kind == "SK8" {
            let sk = generators::sherrington_kirkpatrick(n, &mut self.rng).to_zpoly();
            let terms = sk
                .terms()
                .iter()
                .map(|(s, w)| (s.clone(), w * self.rng.gen_range(0.5..1.5)))
                .collect();
            ZPoly::new(n, sk.constant(), terms)
        } else {
            weighted_maxcut(&cold_topology(n, rotation % 2), &mut self.rng)
        };
        Instance {
            name: format!("{kind}p{p}#{}", self.next),
            cost,
            p,
        }
    }
}

/// Landscape steps per axis of one `serve_jobs` job.
pub const JOB_STEPS: usize = 8;

/// The three `serve_jobs` job shapes: pattern-backend p=1 landscape
/// sweeps over three standard families (three cache keys), with seeded
/// ranges.
pub fn serve_jobs(seed: u64) -> Vec<Workload> {
    let mut r = rng(seed, 3);
    let family_seed = r.gen_range(0..1_000_000u64);
    ["C8", "grid3x3", "3reg8"]
        .iter()
        .map(|name| Workload::Landscape {
            family: FamilyRef {
                seed: family_seed,
                name: (*name).into(),
            },
            backend: BackendKind::Pattern,
            steps: JOB_STEPS,
            gamma: (0.0, r.gen_range(0.5..PI / 2.0)),
            beta: (0.0, r.gen_range(0.5..PI / 2.0)),
        })
        .collect()
}
