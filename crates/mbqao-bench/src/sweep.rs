//! The sharded sweep engine: every sweep-shaped workload of this crate
//! — p=1 landscape scans, grid searches, the resource and equivalence
//! tables, disorder-averaged SK sweeps — expressed as a [`Workload`]
//! over a totally ordered item space, executed shard by shard, and
//! merged deterministically.
//!
//! The shard mechanics (partitioning, the commutative/associative
//! [`Merger`], the supervised worker pool) live in
//! [`mbqao_core::engine::shard`]; this module binds them to the
//! concrete workloads:
//!
//! * [`run_shard`] is the worker: it computes one [`Shard`]'s slice of
//!   a workload into a [`Payload`] (landscape values, a reduced
//!   [`GridBest`], table rows, per-seed energies) with provenance.
//! * [`assemble`] folds the merged parts — **in the canonical total
//!   order** — into the final [`SweepOutput`]; because every per-item
//!   computation is a pure function of its index, any shard count and
//!   any arrival order reproduces the monolithic output bit-for-bit
//!   (`tests/shard_equivalence.rs` is the proof harness).
//! * [`drive_subprocess`] runs the sweep as one job of the
//!   [`crate::scheduler::Scheduler`] with no retries, on a private
//!   [`WorkerPool`] of persistent `--worker` processes speaking the
//!   bit-exact JSON of [`mbqao_core::engine::wire`] over stdio (the
//!   transport is a seam — the jobs and results are self-describing
//!   strings). A worker that panics or truncates its output fails
//!   *that shard by name* and never pollutes the merge;
//!   [`run_shard_subprocess`] re-runs exactly the failed slice.
//!
//! `cargo run -p mbqao-bench --bin sweep_shard` is the CLI front end.

use crate::serve::{run_job, ServeConfig};
use crate::tables::{EquivalenceSpec, ResourcesSpec, TableRow};
use crate::FamilyInstance;
use mbqao_core::engine::shard::{
    default_worker_cap, lock_unpoisoned, Merger, PoolConfig, PoolJob, Provenance, RetryPolicy,
    Shard, ShardError, ShardResult, WorkerCommand, WorkerPool,
};
use mbqao_core::engine::wire::{read_frame, write_frame, PoolFrame, Value, WireError};
use mbqao_core::{
    pattern_cache_stats, Backend, Executor, GateBackend, PatternBackend, PauliBackend, ZxBackend,
};
use mbqao_problems::generators;
use mbqao_qaoa::landscape::{p1_axes, scan_p1_slice_with, Landscape};
use mbqao_qaoa::optimize::{grid_search_range, grid_total, GridBest, OptResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::num::NonZeroUsize;
use std::path::Path;
use std::time::Duration;

// ------------------------------------------------------------- workloads

/// Which execution backend a sweep runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Gate-model circuit simulation.
    Gate,
    /// Compiled measurement patterns.
    Pattern,
    /// ZX-simplified re-extracted patterns.
    Zx,
    /// Stabilizer-tableau execution with statevector fallback.
    Pauli,
}

impl BackendKind {
    /// All four backends (the cross-backend test axis).
    pub const ALL: [BackendKind; 4] = [
        BackendKind::Gate,
        BackendKind::Pattern,
        BackendKind::Zx,
        BackendKind::Pauli,
    ];

    /// The backend's canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Gate => "gate",
            BackendKind::Pattern => "pattern",
            BackendKind::Zx => "zx",
            BackendKind::Pauli => "pauli",
        }
    }

    /// Parses a canonical name.
    pub fn from_name(s: &str) -> Result<BackendKind, WireError> {
        match s {
            "gate" => Ok(BackendKind::Gate),
            "pattern" => Ok(BackendKind::Pattern),
            "zx" => Ok(BackendKind::Zx),
            "pauli" => Ok(BackendKind::Pauli),
            other => Err(WireError(format!("unknown backend {other:?}"))),
        }
    }

    /// Builds the backend for `cost` at depth `p`.
    pub fn build(&self, cost: &mbqao_problems::ZPoly, p: usize) -> Box<dyn Backend> {
        match self {
            BackendKind::Gate => Box::new(GateBackend::standard(cost.clone(), p)),
            BackendKind::Pattern => Box::new(PatternBackend::new(cost, p)),
            BackendKind::Zx => Box::new(ZxBackend::new(cost, p)),
            BackendKind::Pauli => Box::new(PauliBackend::new(cost, p)),
        }
    }
}

/// A standard-families instance referenced by name (resolvable in any
/// process — the generator seed travels with the name).
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyRef {
    /// Seed for [`crate::standard_families`].
    pub seed: u64,
    /// Family display name (`"square"`, `"SK5"`, …).
    pub name: String,
}

impl FamilyRef {
    /// Resolves to the instance.
    ///
    /// # Panics
    /// Panics when no family of that name exists for the seed.
    pub fn resolve(&self) -> FamilyInstance {
        crate::standard_families(self.seed)
            .into_iter()
            .find(|f| f.name == self.name)
            .unwrap_or_else(|| panic!("no standard family named {:?}", self.name))
    }
}

/// Spec for a disorder-averaged SK sweep: `instances` Gaussian-coupling
/// SK draws at size `n` (seeds `base_seed + item`), each grid-optimized
/// at depth `p`, averaged into an energy density. The item axis is the
/// disorder seed — the same shard machinery that splits parameter grids
/// splits the disorder average.
#[derive(Debug, Clone, PartialEq)]
pub struct DisorderSpec {
    /// Spins per instance.
    pub n: usize,
    /// Number of disorder draws.
    pub instances: usize,
    /// Seed of draw 0 (draw `i` uses `base_seed + i`).
    pub base_seed: u64,
    /// QAOA depth of the per-draw optimization.
    pub p: usize,
    /// Grid-search steps per parameter axis.
    pub grid_steps: usize,
    /// Backend the per-draw optimization runs on.
    pub backend: BackendKind,
}

impl DisorderSpec {
    /// The optimized energy density `⟨C⟩/n` of disorder draw `item` —
    /// a pure function of `(spec, item)`, which is what makes the
    /// average shardable and its merge order-invariant.
    pub fn value(&self, item: usize) -> f64 {
        let ising = generators::sherrington_kirkpatrick_gaussian(
            self.n,
            &mut StdRng::seed_from_u64(self.base_seed.wrapping_add(item as u64)),
        );
        let cost = ising.to_zpoly();
        let exec = Executor::new(self.backend.build(&cost, self.p));
        let lo = vec![0.0; 2 * self.p];
        let hi = vec![std::f64::consts::PI; 2 * self.p];
        let r = exec.grid_search(&lo, &hi, self.grid_steps);
        r.value / self.n as f64
    }
}

/// Encodes a `u64` seed as its bit pattern — any seed round-trips,
/// unlike a `usize` cast (which would panic past `2^63` and truncate
/// on 32-bit targets).
fn seed_to_wire(seed: u64) -> Value {
    Value::Int(seed as i64)
}

/// Decodes a [`seed_to_wire`] seed.
fn seed_from_wire(v: &Value) -> Result<u64, WireError> {
    Ok(v.as_int()? as u64)
}

/// Decodes a [`FamilyRef`], checking the name against
/// [`crate::STANDARD_FAMILY_NAMES`]. Only the name is checked, not the
/// instance: a worker decodes every shard job it runs, and generating
/// the families here would add that cost to each job.
fn family_from_wire(v: &Value) -> Result<FamilyRef, WireError> {
    let name = v.field("family")?.as_str()?;
    if !crate::STANDARD_FAMILY_NAMES.contains(&name) {
        return Err(WireError(format!(
            "\"family\" {name:?} is not a standard family"
        )));
    }
    Ok(FamilyRef {
        seed: seed_from_wire(v.field("family_seed")?)?,
        name: name.to_string(),
    })
}

/// Decodes a count that must be at least 2: steps per axis (a scan
/// needs both ends of an axis) or spins (an SK instance needs a pair).
fn at_least_two(v: &Value, key: &str) -> Result<usize, WireError> {
    let n = v.field(key)?.as_uint()?;
    if n < 2 {
        return Err(WireError(format!("{key:?} must be at least 2, got {n}")));
    }
    Ok(n)
}

/// Most items one job may sweep: far above any sweep the repository
/// runs, and far below a count that could not be encoded in the
/// `accepted` frame or would make every worker allocate the whole sweep
/// and die. Per-item sizes (disorder `n`, table depths) are not capped.
pub const MAX_JOB_ITEMS: usize = 1 << 20;

/// Checks an upper bound on a job's item count (`None` when computing
/// it overflowed) against [`MAX_JOB_ITEMS`], naming the field `key`.
fn check_job_items(items: Option<usize>, key: &str) -> Result<(), WireError> {
    let too_many = || format!("{key:?} asks for more than {MAX_JOB_ITEMS} items, the cap per job");
    items
        .filter(|&n| n <= MAX_JOB_ITEMS)
        .map(|_| ())
        .ok_or_else(|| WireError(too_many()))
}

/// Checks that `steps` per axis over `dims` axes gives a per-item grid
/// the wire's `i64` indices can address (a wrapped count would pass for
/// a small one).
fn check_grid_size(steps: usize, dims: usize, key: &str) -> Result<(), WireError> {
    u32::try_from(dims)
        .ok()
        .and_then(|d| steps.checked_pow(d))
        .filter(|&n| i64::try_from(n).is_ok())
        .map(|_| ())
        .ok_or_else(|| {
            WireError(format!(
                "{key:?} = {steps} over {dims} axes overflows the item count"
            ))
        })
}

/// A complete sweep-shaped workload: a pure function from item indices
/// `0..total()` to per-item results, plus how to fold them.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Dense p=1 `(γ, β)` landscape scan (items: grid points,
    /// row-major).
    Landscape {
        /// Problem instance.
        family: FamilyRef,
        /// Execution backend.
        backend: BackendKind,
        /// Steps per axis (`steps²` items).
        steps: usize,
        /// γ range.
        gamma: (f64, f64),
        /// β range.
        beta: (f64, f64),
    },
    /// Grid search over `[lo, hi]^2p` (items: flat grid indices).
    Grid {
        /// Problem instance.
        family: FamilyRef,
        /// Execution backend.
        backend: BackendKind,
        /// QAOA depth (dimension is `2p`).
        p: usize,
        /// Steps per axis.
        steps: usize,
        /// Lower corner (length `2p`).
        lo: Vec<f64>,
        /// Upper corner (length `2p`).
        hi: Vec<f64>,
    },
    /// The E10 resource table (items: rows).
    ResourceTable(ResourcesSpec),
    /// The E8/E9 equivalence table (items: rows).
    EquivalenceTable(EquivalenceSpec),
    /// Disorder-averaged SK sweep (items: disorder seeds).
    Disorder(DisorderSpec),
}

impl Workload {
    /// Size of the item space.
    pub fn total(&self) -> usize {
        match self {
            Workload::Landscape { steps, .. } => steps * steps,
            Workload::Grid { p, steps, .. } => grid_total(2 * p, *steps),
            Workload::ResourceTable(spec) => spec.item_count(),
            Workload::EquivalenceTable(spec) => spec.item_count(),
            Workload::Disorder(spec) => spec.instances,
        }
    }

    /// The compiled-artifact affinity key: two workloads with the same
    /// key exercise the same `(cost, p, mixer)` compile-cache entries,
    /// so a pool that runs them back-to-back on the same worker keeps
    /// the pattern cache hot (the worker pool routes shards on this;
    /// jobs are admitted FIFO).
    pub fn cache_key(&self) -> String {
        match self {
            Workload::Landscape {
                family, backend, ..
            } => format!(
                "landscape/{}/{}/{}",
                family.seed,
                family.name,
                backend.name()
            ),
            Workload::Grid {
                family, backend, p, ..
            } => format!(
                "grid/{}/{}/{}/p{p}",
                family.seed,
                family.name,
                backend.name()
            ),
            Workload::ResourceTable(spec) => format!("resources/{}", spec.family_seed),
            Workload::EquivalenceTable(spec) => {
                format!("equivalence/{}/{}", spec.family_seed, spec.param_seed)
            }
            Workload::Disorder(spec) => {
                format!("disorder/{}/n{}/p{}", spec.backend.name(), spec.n, spec.p)
            }
        }
    }

    /// A short provenance label (backend name where one applies).
    pub fn backend_label(&self) -> String {
        match self {
            Workload::Landscape { backend, .. } | Workload::Grid { backend, .. } => {
                backend.name().to_string()
            }
            Workload::ResourceTable(_) => "table-resources".to_string(),
            Workload::EquivalenceTable(_) => "table-equivalence".to_string(),
            Workload::Disorder(spec) => format!("disorder-{}", spec.backend.name()),
        }
    }

    /// Wire encoding.
    pub fn to_wire(&self) -> Value {
        match self {
            Workload::Landscape {
                family,
                backend,
                steps,
                gamma,
                beta,
            } => Value::obj(vec![
                ("kind", Value::Str("landscape".into())),
                ("family_seed", seed_to_wire(family.seed)),
                ("family", Value::Str(family.name.clone())),
                ("backend", Value::Str(backend.name().into())),
                ("steps", Value::uint(*steps)),
                ("gamma_lo", Value::f64_bits(gamma.0)),
                ("gamma_hi", Value::f64_bits(gamma.1)),
                ("beta_lo", Value::f64_bits(beta.0)),
                ("beta_hi", Value::f64_bits(beta.1)),
            ]),
            Workload::Grid {
                family,
                backend,
                p,
                steps,
                lo,
                hi,
            } => Value::obj(vec![
                ("kind", Value::Str("grid".into())),
                ("family_seed", seed_to_wire(family.seed)),
                ("family", Value::Str(family.name.clone())),
                ("backend", Value::Str(backend.name().into())),
                ("p", Value::uint(*p)),
                ("steps", Value::uint(*steps)),
                ("lo", Value::f64_array(lo)),
                ("hi", Value::f64_array(hi)),
            ]),
            Workload::ResourceTable(spec) => Value::obj(vec![
                ("kind", Value::Str("resources".into())),
                ("family_seed", seed_to_wire(spec.family_seed)),
                ("max_n", Value::uint(spec.max_n)),
                (
                    "depths",
                    Value::Arr(spec.depths.iter().map(|&d| Value::uint(d)).collect()),
                ),
            ]),
            Workload::EquivalenceTable(spec) => Value::obj(vec![
                ("kind", Value::Str("equivalence".into())),
                ("family_seed", seed_to_wire(spec.family_seed)),
                ("param_seed", seed_to_wire(spec.param_seed)),
                ("max_n", Value::uint(spec.max_n)),
                (
                    "depths",
                    Value::Arr(spec.depths.iter().map(|&d| Value::uint(d)).collect()),
                ),
                ("qubos", Value::uint(spec.qubos)),
                ("include_mis", Value::Bool(spec.include_mis)),
            ]),
            Workload::Disorder(spec) => Value::obj(vec![
                ("kind", Value::Str("disorder".into())),
                ("n", Value::uint(spec.n)),
                ("instances", Value::uint(spec.instances)),
                ("base_seed", seed_to_wire(spec.base_seed)),
                ("p", Value::uint(spec.p)),
                ("grid_steps", Value::uint(spec.grid_steps)),
                ("backend", Value::Str(spec.backend.name().into())),
            ]),
        }
    }

    /// Wire decoding.
    pub fn from_wire(v: &Value) -> Result<Workload, WireError> {
        let uints = |key: &str| -> Result<Vec<usize>, WireError> {
            let xs: Vec<usize> = v
                .field(key)?
                .as_arr()?
                .iter()
                .map(Value::as_uint)
                .collect::<Result<_, _>>()?;
            // Wire-decoded specs are attacker-shaped data: an empty
            // depth list would panic the row renderers (modulo by zero)
            // instead of erroring here by name.
            if xs.is_empty() {
                return Err(WireError(format!("empty {key:?} in table spec")));
            }
            Ok(xs)
        };
        match v.field("kind")?.as_str()? {
            "landscape" => {
                let steps = at_least_two(v, "steps")?;
                check_job_items(steps.checked_mul(steps), "steps")?;
                Ok(Workload::Landscape {
                    family: family_from_wire(v)?,
                    backend: BackendKind::from_name(v.field("backend")?.as_str()?)?,
                    steps,
                    gamma: (
                        v.field("gamma_lo")?.as_f64_bits()?,
                        v.field("gamma_hi")?.as_f64_bits()?,
                    ),
                    beta: (
                        v.field("beta_lo")?.as_f64_bits()?,
                        v.field("beta_hi")?.as_f64_bits()?,
                    ),
                })
            }
            "grid" => {
                let p = v.field("p")?.as_uint()?;
                let steps = at_least_two(v, "steps")?;
                let lo = v.field("lo")?.as_f64_array()?;
                let hi = v.field("hi")?.as_f64_array()?;
                for (key, corner) in [("lo", &lo), ("hi", &hi)] {
                    if p.checked_mul(2) != Some(corner.len()) {
                        return Err(WireError(format!(
                            "{key:?} has {} entries, \"p\" = {p} needs 2p",
                            corner.len()
                        )));
                    }
                }
                let dims = u32::try_from(lo.len()).ok();
                check_job_items(dims.and_then(|d| steps.checked_pow(d)), "steps")?;
                Ok(Workload::Grid {
                    family: family_from_wire(v)?,
                    backend: BackendKind::from_name(v.field("backend")?.as_str()?)?,
                    p,
                    steps,
                    lo,
                    hi,
                })
            }
            "resources" => {
                let depths = uints("depths")?;
                let rows = crate::STANDARD_FAMILY_NAMES.len().checked_mul(depths.len());
                check_job_items(rows, "depths")?;
                Ok(Workload::ResourceTable(ResourcesSpec {
                    family_seed: seed_from_wire(v.field("family_seed")?)?,
                    max_n: v.field("max_n")?.as_uint()?,
                    depths,
                }))
            }
            "equivalence" => {
                let depths = uints("depths")?;
                let qubos = v.field("qubos")?.as_uint()?;
                let include_mis = v.field("include_mis")?.as_bool()?;
                let mis = if include_mis {
                    crate::MIS_FAMILY_COUNT
                } else {
                    0
                };
                let rows = crate::STANDARD_FAMILY_NAMES.len().checked_mul(depths.len());
                check_job_items(rows, "depths")?;
                check_job_items(
                    rows.and_then(|r| r.checked_add(qubos)?.checked_add(mis)),
                    "qubos",
                )?;
                Ok(Workload::EquivalenceTable(EquivalenceSpec {
                    family_seed: seed_from_wire(v.field("family_seed")?)?,
                    param_seed: seed_from_wire(v.field("param_seed")?)?,
                    max_n: v.field("max_n")?.as_uint()?,
                    depths,
                    qubos,
                    include_mis,
                }))
            }
            "disorder" => {
                let p = v.field("p")?.as_uint()?;
                let grid_steps = at_least_two(v, "grid_steps")?;
                check_grid_size(grid_steps, p.saturating_mul(2), "grid_steps")?;
                let instances = v.field("instances")?.as_uint()?;
                check_job_items(Some(instances), "instances")?;
                Ok(Workload::Disorder(DisorderSpec {
                    n: at_least_two(v, "n")?,
                    instances,
                    base_seed: seed_from_wire(v.field("base_seed")?)?,
                    p,
                    grid_steps,
                    backend: BackendKind::from_name(v.field("backend")?.as_str()?)?,
                }))
            }
            other => Err(WireError(format!("unknown workload kind {other:?}"))),
        }
    }
}

// --------------------------------------------------------------- payload

/// A shard's partial result, per workload shape.
///
/// Equality is **bit-level** on floats (`to_bits`), matching the
/// engine's bit-for-bit contract: the [`Merger`]'s duplicate-delivery
/// idempotence check must accept a bit-identical NaN-bearing retry and
/// must distinguish `0.0` from `-0.0` (semantic `==` would do neither).
#[derive(Debug, Clone)]
pub enum Payload {
    /// Per-item `f64`s in item order (landscape values, disorder
    /// energies).
    Values(Vec<f64>),
    /// The reduced grid-search winner of the shard's slice.
    Best(GridBest),
    /// Rendered table rows in item order.
    Rows(Vec<TableRow>),
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        let bits = |xs: &[f64]| -> Vec<u64> { xs.iter().map(|x| x.to_bits()).collect() };
        match (self, other) {
            (Payload::Values(a), Payload::Values(b)) => bits(a) == bits(b),
            (Payload::Best(a), Payload::Best(b)) => {
                a.value.to_bits() == b.value.to_bits() && a.index == b.index
            }
            (Payload::Rows(a), Payload::Rows(b)) => a == b,
            _ => false,
        }
    }
}

impl Payload {
    /// Wire encoding.
    pub fn to_wire(&self) -> Value {
        match self {
            Payload::Values(xs) => Value::obj(vec![
                ("kind", Value::Str("values".into())),
                ("values", Value::f64_array(xs)),
            ]),
            Payload::Best(best) => Value::obj(vec![
                ("kind", Value::Str("best".into())),
                ("value", Value::f64_bits(best.value)),
                // usize::MAX (the empty-slice sentinel) exceeds i64 —
                // encode the index shifted into signed range via -1 for
                // the sentinel.
                (
                    "index",
                    if best.index == usize::MAX {
                        Value::Int(-1)
                    } else {
                        Value::uint(best.index)
                    },
                ),
            ]),
            Payload::Rows(rows) => Value::obj(vec![
                ("kind", Value::Str("rows".into())),
                (
                    "rows",
                    Value::Arr(
                        rows.iter()
                            .map(|r| {
                                Value::obj(vec![
                                    ("text", Value::Str(r.text.clone())),
                                    ("dense_saving", Value::Int(r.dense_saving)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        }
    }

    /// Wire decoding.
    pub fn from_wire(v: &Value) -> Result<Payload, WireError> {
        match v.field("kind")?.as_str()? {
            "values" => Ok(Payload::Values(v.field("values")?.as_f64_array()?)),
            "best" => {
                let index = match v.field("index")?.as_int()? {
                    -1 => usize::MAX, // the GridBest::NONE sentinel
                    raw => usize::try_from(raw)
                        .map_err(|_| WireError(format!("bad grid index {raw}")))?,
                };
                Ok(Payload::Best(GridBest {
                    value: v.field("value")?.as_f64_bits()?,
                    index,
                }))
            }
            "rows" => Ok(Payload::Rows(
                v.field("rows")?
                    .as_arr()?
                    .iter()
                    .map(|r| {
                        Ok(TableRow {
                            text: r.field("text")?.as_str()?.to_string(),
                            dense_saving: r.field("dense_saving")?.as_int()?,
                        })
                    })
                    .collect::<Result<Vec<_>, WireError>>()?,
            )),
            other => Err(WireError(format!("unknown payload kind {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------- worker

/// Computes one shard of a workload (the worker's entire job).
///
/// Provenance records the backend label and the compiled-pattern cache
/// traffic this shard generated in the current process.
pub fn run_shard(workload: &Workload, shard: Shard) -> ShardResult<Payload> {
    if shard.is_empty() {
        // Nothing to compute (more shards than items):
        // return the empty payload of the right shape without
        // resolving families or building backends.
        let payload = match workload {
            Workload::Landscape { .. } | Workload::Disorder(_) => Payload::Values(Vec::new()),
            Workload::Grid { .. } => Payload::Best(GridBest::NONE),
            Workload::ResourceTable(_) | Workload::EquivalenceTable(_) => Payload::Rows(Vec::new()),
        };
        return ShardResult {
            provenance: Provenance {
                shard,
                backend: workload.backend_label(),
                cache_hits: 0,
                cache_misses: 0,
            },
            payload,
        };
    }
    let before = pattern_cache_stats();
    let payload = match workload {
        Workload::Landscape {
            family,
            backend,
            steps,
            gamma,
            beta,
        } => {
            let fam = family.resolve();
            let exec = Executor::new(backend.build(&fam.cost, 1));
            Payload::Values(scan_p1_slice_with(
                |points| exec.expectation_batch(points),
                *gamma,
                *beta,
                *steps,
                shard.start,
                shard.end,
            ))
        }
        Workload::Grid {
            family,
            backend,
            p,
            steps,
            lo,
            hi,
        } => {
            let fam = family.resolve();
            let exec = Executor::new(backend.build(&fam.cost, *p));
            Payload::Best(grid_search_range(
                &exec,
                lo,
                hi,
                *steps,
                shard.start,
                shard.end,
            ))
        }
        Workload::ResourceTable(spec) => Payload::Rows(spec.rows(shard.start, shard.end)),
        Workload::EquivalenceTable(spec) => Payload::Rows(spec.rows(shard.start, shard.end)),
        Workload::Disorder(spec) => {
            Payload::Values((shard.start..shard.end).map(|i| spec.value(i)).collect())
        }
    };
    let after = pattern_cache_stats();
    ShardResult {
        provenance: Provenance {
            shard,
            backend: workload.backend_label(),
            cache_hits: after.hits - before.hits,
            cache_misses: after.misses - before.misses,
        },
        payload,
    }
}

/// The placeholder payload an orchestrator merges in place of a range
/// it had to abandon (poison-shard quarantine with partial coverage
/// allowed): per-item values become NaN, a grid contribution becomes
/// the fold identity, table rows become explicit tombstones. The shape
/// matches what [`run_shard`] would have produced so [`assemble`]
/// still works; the degradation stays visible in the output.
pub fn hole_payload(workload: &Workload, shard: Shard) -> Payload {
    match workload {
        Workload::Landscape { .. } | Workload::Disorder(_) => {
            Payload::Values(vec![f64::NAN; shard.len()])
        }
        Workload::Grid { .. } => Payload::Best(GridBest::NONE),
        Workload::ResourceTable(_) | Workload::EquivalenceTable(_) => Payload::Rows(
            (shard.start..shard.end)
                .map(|i| TableRow {
                    text: format!("| (item {i}: range abandoned by quarantine) |"),
                    dense_saving: 0,
                })
                .collect(),
        ),
    }
}

// -------------------------------------------------------------- assembly

/// A fully merged sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepOutput {
    /// Landscape scan result.
    Landscape(Landscape),
    /// Grid-search result.
    Opt(OptResult),
    /// A rendered table plus its cross-row accounting.
    Table {
        /// Header + rows + footer, ready to print.
        text: String,
        /// Summed dense-instance qubit savings (resource table).
        dense_savings: i64,
    },
    /// Disorder-average result.
    Disorder {
        /// Per-seed optimized energy densities, in seed order.
        per_seed: Vec<f64>,
        /// Their mean (folded in canonical seed order).
        mean: f64,
    },
}

impl SweepOutput {
    /// Bit-level equality (f64s compared as raw bits, so `-0.0 ≠ 0.0`
    /// and differing NaNs differ — stricter than `==`). This is the
    /// predicate the shard⇔monolithic differential harness asserts.
    pub fn bit_identical(&self, other: &SweepOutput) -> bool {
        let bits = |xs: &[f64]| -> Vec<u64> { xs.iter().map(|x| x.to_bits()).collect() };
        match (self, other) {
            (SweepOutput::Landscape(a), SweepOutput::Landscape(b)) => {
                bits(&a.gammas) == bits(&b.gammas)
                    && bits(&a.betas) == bits(&b.betas)
                    && a.values.len() == b.values.len()
                    && a.values
                        .iter()
                        .zip(&b.values)
                        .all(|(ra, rb)| bits(ra) == bits(rb))
            }
            (SweepOutput::Opt(a), SweepOutput::Opt(b)) => {
                bits(&a.params) == bits(&b.params)
                    && a.value.to_bits() == b.value.to_bits()
                    && a.evals == b.evals
                    && bits(&a.history) == bits(&b.history)
            }
            (
                SweepOutput::Table {
                    text: ta,
                    dense_savings: da,
                },
                SweepOutput::Table {
                    text: tb,
                    dense_savings: db,
                },
            ) => ta == tb && da == db,
            (
                SweepOutput::Disorder {
                    per_seed: pa,
                    mean: ma,
                },
                SweepOutput::Disorder {
                    per_seed: pb,
                    mean: mb,
                },
            ) => bits(pa) == bits(pb) && ma.to_bits() == mb.to_bits(),
            _ => false,
        }
    }

    /// Wire encoding (bit-exact: every float travels as its IEEE-754
    /// bit pattern), so a `mbqao-serve` client can assert bit-identity
    /// on the decoded result of a `done` frame.
    pub fn to_wire(&self) -> Value {
        match self {
            SweepOutput::Landscape(scan) => Value::obj(vec![
                ("kind", Value::Str("landscape".into())),
                ("gammas", Value::f64_array(&scan.gammas)),
                ("betas", Value::f64_array(&scan.betas)),
                (
                    "values",
                    Value::Arr(
                        scan.values
                            .iter()
                            .map(|row| Value::f64_array(row))
                            .collect(),
                    ),
                ),
            ]),
            SweepOutput::Opt(r) => Value::obj(vec![
                ("kind", Value::Str("opt".into())),
                ("params", Value::f64_array(&r.params)),
                ("value", Value::f64_bits(r.value)),
                ("evals", Value::uint(r.evals)),
                ("history", Value::f64_array(&r.history)),
            ]),
            SweepOutput::Table {
                text,
                dense_savings,
            } => Value::obj(vec![
                ("kind", Value::Str("table".into())),
                ("text", Value::Str(text.clone())),
                ("dense_savings", Value::Int(*dense_savings)),
            ]),
            SweepOutput::Disorder { per_seed, mean } => Value::obj(vec![
                ("kind", Value::Str("disorder".into())),
                ("per_seed", Value::f64_array(per_seed)),
                ("mean", Value::f64_bits(*mean)),
            ]),
        }
    }

    /// Wire decoding.
    pub fn from_wire(v: &Value) -> Result<SweepOutput, WireError> {
        match v.field("kind")?.as_str()? {
            "landscape" => Ok(SweepOutput::Landscape(Landscape {
                gammas: v.field("gammas")?.as_f64_array()?,
                betas: v.field("betas")?.as_f64_array()?,
                values: v
                    .field("values")?
                    .as_arr()?
                    .iter()
                    .map(Value::as_f64_array)
                    .collect::<Result<_, _>>()?,
            })),
            "opt" => Ok(SweepOutput::Opt(OptResult {
                params: v.field("params")?.as_f64_array()?,
                value: v.field("value")?.as_f64_bits()?,
                evals: v.field("evals")?.as_uint()?,
                history: v.field("history")?.as_f64_array()?,
            })),
            "table" => Ok(SweepOutput::Table {
                text: v.field("text")?.as_str()?.to_string(),
                dense_savings: v.field("dense_savings")?.as_int()?,
            }),
            "disorder" => Ok(SweepOutput::Disorder {
                per_seed: v.field("per_seed")?.as_f64_array()?,
                mean: v.field("mean")?.as_f64_bits()?,
            }),
            other => Err(WireError(format!("unknown output kind {other:?}"))),
        }
    }
}

/// Folds merged parts (canonical order — [`Merger::finish`]'s output)
/// into the final result. Every fold here is a deterministic
/// left-to-right reduction over that order, which is why arrival order
/// can never leak into the output.
///
/// # Panics
/// Panics when the parts do not match the workload's shape (wrong
/// payload kind or per-shard lengths) — corrupted results never
/// assemble silently.
pub fn assemble(workload: &Workload, parts: Vec<ShardResult<Payload>>) -> SweepOutput {
    let values = |parts: Vec<ShardResult<Payload>>| -> Vec<f64> {
        parts
            .into_iter()
            .flat_map(|part| {
                let len = part.provenance.shard.len();
                match part.payload {
                    Payload::Values(v) => {
                        assert_eq!(v.len(), len, "shard payload length mismatch");
                        v
                    }
                    other => panic!("expected Values payload, got {other:?}"),
                }
            })
            .collect()
    };
    match workload {
        Workload::Landscape {
            steps, gamma, beta, ..
        } => {
            let (gammas, betas) = p1_axes(*gamma, *beta, *steps);
            SweepOutput::Landscape(Landscape::from_flat(gammas, betas, values(parts)))
        }
        Workload::Grid {
            p, steps, lo, hi, ..
        } => {
            let total = grid_total(2 * p, *steps);
            let best = parts
                .into_iter()
                .map(|part| {
                    let shard = part.provenance.shard;
                    match part.payload {
                        // A slice's winner must come from that slice
                        // (or be the empty-slice sentinel) — a corrupt
                        // index would otherwise assemble into garbage
                        // parameters without complaint.
                        Payload::Best(b) => {
                            assert!(
                                b.index == usize::MAX
                                    || (shard.start..shard.end).contains(&b.index),
                                "shard {}..{} claims winning index {} outside its range",
                                shard.start,
                                shard.end,
                                b.index
                            );
                            b
                        }
                        other => panic!("expected Best payload, got {other:?}"),
                    }
                })
                .fold(GridBest::NONE, GridBest::merge);
            SweepOutput::Opt(best.into_result(lo, hi, *steps, total))
        }
        Workload::ResourceTable(spec) => {
            let (text, dense) = assemble_table(parts, &spec.header(), &spec.footer());
            SweepOutput::Table {
                text,
                dense_savings: dense,
            }
        }
        Workload::EquivalenceTable(spec) => {
            let (text, dense) = assemble_table(parts, &spec.header(), &spec.footer());
            SweepOutput::Table {
                text,
                dense_savings: dense,
            }
        }
        Workload::Disorder(_) => {
            let per_seed = values(parts);
            let mean = per_seed.iter().sum::<f64>() / per_seed.len().max(1) as f64;
            SweepOutput::Disorder { per_seed, mean }
        }
    }
}

fn assemble_table(parts: Vec<ShardResult<Payload>>, header: &str, footer: &str) -> (String, i64) {
    let mut text = String::from(header);
    let mut dense = 0i64;
    for part in parts {
        let len = part.provenance.shard.len();
        match part.payload {
            Payload::Rows(rows) => {
                assert_eq!(rows.len(), len, "shard row count mismatch");
                for row in rows {
                    text.push('\n');
                    text.push_str(&row.text);
                    dense += row.dense_saving;
                }
            }
            other => panic!("expected Rows payload, got {other:?}"),
        }
    }
    text.push('\n');
    text.push_str(footer);
    (text, dense)
}

// ------------------------------------------------------------- protocol

/// Injectable worker faults (test hooks for the fault harness; carried
/// in the job itself so no environment leaks between driver and
/// worker).
///
/// All faults model **transient** failures, which is what a retry
/// policy exists for: `Panic`, `Truncate` and `Stall` fire only on a
/// job's first attempt (`attempt == 0`), and `FailUntil(k)` fails
/// every attempt below `k` — so a retried or re-partitioned job runs
/// clean exactly like a real flaky worker that recovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The worker panics mid-shard (first attempt only).
    Panic,
    /// The worker emits only half of its result JSON (first attempt
    /// only).
    Truncate,
    /// The worker stalls this many milliseconds before computing
    /// (first attempt only) — the straggler injection for the
    /// deadline/re-partition path.
    Stall(u64),
    /// The worker panics while `attempt < k` — the retry-policy
    /// workhorse: fails exactly `k` times, then succeeds.
    FailUntil(u32),
    /// The worker bit-flips one hex digit of the first `f64:` payload
    /// in its (otherwise well-formed) result (first attempt only) —
    /// the result decodes fine but carries a wrong bit pattern, which
    /// is exactly the corruption the merger's duplicate-mismatch
    /// rejection exists to catch. No-op on payloads without `f64:`
    /// values (table workloads).
    Corrupt,
    /// The worker exits cleanly after completing `n` jobs in its
    /// process — the supervisor-restart injection. Keys on the
    /// per-process job count, not the attempt.
    DieAfter(u32),
}

impl Fault {
    /// The fault's wire spelling.
    pub fn to_wire_str(&self) -> String {
        match self {
            Fault::Panic => "panic".into(),
            Fault::Truncate => "truncate".into(),
            Fault::Stall(ms) => format!("stall:{ms}"),
            Fault::FailUntil(k) => format!("fail_until:{k}"),
            Fault::Corrupt => "corrupt".into(),
            Fault::DieAfter(n) => format!("die_after:{n}"),
        }
    }

    /// Parses [`Fault::to_wire_str`].
    pub fn from_wire_str(s: &str) -> Result<Fault, WireError> {
        if let Some(ms) = s.strip_prefix("stall:") {
            return ms
                .parse()
                .map(Fault::Stall)
                .map_err(|e| WireError(format!("bad stall millis {ms:?}: {e}")));
        }
        if let Some(k) = s.strip_prefix("fail_until:") {
            return k
                .parse()
                .map(Fault::FailUntil)
                .map_err(|e| WireError(format!("bad fail_until count {k:?}: {e}")));
        }
        if let Some(n) = s.strip_prefix("die_after:") {
            return n
                .parse()
                .map(Fault::DieAfter)
                .map_err(|e| WireError(format!("bad die_after count {n:?}: {e}")));
        }
        match s {
            "panic" => Ok(Fault::Panic),
            "truncate" => Ok(Fault::Truncate),
            "corrupt" => Ok(Fault::Corrupt),
            other => Err(WireError(format!("unknown fault {other:?}"))),
        }
    }
}

/// Encodes one worker job for its `attempt`-th execution (0-based; the
/// attempt travels in the job so retried work is observable end to end
/// and transient-fault injection can key on it).
pub fn job_to_json_attempt(
    workload: &Workload,
    shard: Shard,
    fault: Option<Fault>,
    attempt: u32,
) -> String {
    let mut entries = vec![("workload", workload.to_wire()), ("shard", shard.to_wire())];
    if let Some(fault) = fault {
        entries.push(("fault", Value::Str(fault.to_wire_str())));
    }
    if attempt > 0 {
        entries.push(("attempt", Value::uint(attempt as usize)));
    }
    Value::obj(entries).to_json()
}

/// Encodes one worker job (first attempt).
pub fn job_to_json(workload: &Workload, shard: Shard, fault: Option<Fault>) -> String {
    job_to_json_attempt(workload, shard, fault, 0)
}

/// Decodes one worker job: `(workload, shard, fault, attempt)`.
pub fn job_from_json(input: &str) -> Result<(Workload, Shard, Option<Fault>, u32), WireError> {
    let v = Value::parse(input)?;
    let workload = Workload::from_wire(v.field("workload")?)?;
    let shard = Shard::from_wire(v.field("shard")?)?;
    let fault = match v.field("fault") {
        Err(_) => None,
        Ok(f) => Some(Fault::from_wire_str(f.as_str()?)?),
    };
    let attempt = match v.field("attempt") {
        Err(_) => 0,
        Ok(a) => u32::try_from(a.as_int()?).map_err(|_| WireError("negative attempt".into()))?,
    };
    Ok((workload, shard, fault, attempt))
}

/// Encodes one shard result.
pub fn result_to_json(result: &ShardResult<Payload>) -> String {
    Value::obj(vec![
        ("provenance", result.provenance.to_wire()),
        ("payload", result.payload.to_wire()),
    ])
    .to_json()
}

/// Decodes one shard result.
pub fn result_from_json(input: &str) -> Result<ShardResult<Payload>, WireError> {
    let v = Value::parse(input)?;
    Ok(ShardResult {
        provenance: Provenance::from_wire(v.field("provenance")?)?,
        payload: Payload::from_wire(v.field("payload")?)?,
    })
}

/// Decodes a worker's result body for shard `shard`; an undecodable
/// body (a truncated stream, say) becomes a [`ShardError::Worker`]
/// naming the shard, like any other worker failure.
pub fn decode_worker_result(shard: usize, body: &str) -> Result<ShardResult<Payload>, ShardError> {
    result_from_json(body).map_err(|e| ShardError::Worker {
        shard,
        reason: format!("decoding worker output: {e} (truncated stream?)"),
    })
}

/// The worker side of the protocol: decode the job from `input`,
/// compute, encode the result. Injected faults fire here (a `Panic` /
/// `FailUntil` fault panics — taking the worker process down like any
/// real bug would; `Stall` sleeps like a real straggler; a `Truncate`
/// fault returns half the result bytes). Faults are transient: see
/// [`Fault`] for the attempt gating.
pub fn worker_run(input: &str) -> Result<String, WireError> {
    let (workload, shard, fault, attempt) = job_from_json(input)?;
    match fault {
        Some(Fault::Panic) if attempt == 0 => panic!(
            "injected fault: worker for shard {} of {} panics",
            shard.index, shard.of
        ),
        Some(Fault::FailUntil(k)) if attempt < k => panic!(
            "injected fault: worker for shard {} of {} fails attempt {attempt} (< {k})",
            shard.index, shard.of
        ),
        Some(Fault::Stall(ms)) if attempt == 0 => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        _ => {}
    }
    let json = result_to_json(&run_shard(&workload, shard));
    Ok(match fault {
        Some(Fault::Truncate) if attempt == 0 => {
            let mut cut = json.len() / 2;
            while !json.is_char_boundary(cut) {
                cut -= 1;
            }
            json[..cut].to_string()
        }
        Some(Fault::Corrupt) if attempt == 0 => corrupt_f64_payload(&json),
        _ => json,
    })
}

/// Bit-flips one hex digit of the first `f64:` payload in `json` (the
/// [`Fault::Corrupt`] injection): the string stays valid wire JSON with
/// a valid float encoding, but the bit pattern is wrong — only the
/// merger's duplicate-mismatch check can catch it. Returns the input
/// unchanged when no `f64:` payload exists.
pub fn corrupt_f64_payload(json: &str) -> String {
    let Some(pos) = json.find("f64:") else {
        return json.to_string();
    };
    let digit = pos + 4; // first hex digit of the 16-digit bit pattern
    let mut out = String::with_capacity(json.len());
    out.push_str(&json[..digit]);
    let c = json.as_bytes()[digit] as char;
    let flipped = char::from_digit((c.to_digit(16).expect("payload digit is hex") + 1) % 16, 16)
        .expect("mod-16 value is a hex digit");
    out.push(flipped);
    out.push_str(&json[digit + 1..]);
    out
}

// ------------------------------------------------------ worker entry

/// Parses the value after `flag` on a command line (`value` is `None`
/// when the line ended there) — the strict value step shared by this
/// crate's CLIs: a missing or malformed value is an error naming the
/// flag, never a panic.
pub fn flag_value<T>(flag: &str, value: Option<&String>) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value.parse().map_err(|e| format!("{flag} {value:?}: {e}"))
}

/// Entry point for `--worker` mode, shared by the `sweep_shard` and
/// `mbqao-serve` binaries: a [`WorkerPool`] worker that serves jobs
/// until stdin EOF, speaking [`PoolFrame`]s. `--gen <g>` is the
/// generation the supervisor assigned this process (echoed in every
/// frame so late output from a killed predecessor is discarded) and
/// `--heartbeat-ms <ms>` the beat interval. Any other argument, or a
/// malformed value, exits with code 2.
pub fn worker_entry(args: &[String]) {
    match worker_args(args) {
        Ok((gen, heartbeat)) => worker_loop(gen, heartbeat),
        Err(e) => {
            eprintln!("worker: {e}\nusage: --worker [--gen N] [--heartbeat-ms MS]");
            std::process::exit(2);
        }
    }
}

/// The `--worker` command line: `(generation, heartbeat interval)`.
fn worker_args(args: &[String]) -> Result<(u64, Duration), String> {
    let (mut gen, mut heartbeat_ms) = (0u64, 100u64);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--worker" => {}
            "--gen" => gen = flag_value(flag, it.next())?,
            "--heartbeat-ms" => heartbeat_ms = flag_value(flag, it.next())?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((gen, Duration::from_millis(heartbeat_ms)))
}

/// The worker serve-loop: reads [`PoolFrame::Job`]s from stdin until
/// EOF, answers each with a [`PoolFrame::Result`], and beats
/// [`PoolFrame::Heartbeat`]s from a side thread even while the main
/// thread computes (a stalled-but-healthy worker keeps beating — only
/// the supervisor's per-job deadline catches it; a hung process stops
/// beating and is liveness-killed).
///
/// Because the process persists across jobs, its process-wide compile
/// caches hit cross-shard and cross-job — the point of the pool.
/// Injected `Panic`/`FailUntil` faults take the whole process down,
/// which is what the supervisor's restart path exists for;
/// [`Fault::DieAfter`] exits cleanly after `n` completed jobs.
fn worker_loop(gen: u64, heartbeat: Duration) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    let stdout = Arc::new(Mutex::new(std::io::stdout()));
    let busy = Arc::new(AtomicBool::new(false));
    let hb_out = Arc::clone(&stdout);
    let hb_busy = Arc::clone(&busy);
    std::thread::spawn(move || loop {
        std::thread::sleep(heartbeat);
        let frame = PoolFrame::Heartbeat {
            gen,
            busy: hb_busy.load(Ordering::SeqCst),
        }
        .to_wire();
        if write_frame(&mut *lock_unpoisoned(&hb_out), &frame).is_err() {
            return; // supervisor gone; the main loop will see EOF too
        }
    });
    let stdin = std::io::stdin();
    let mut reader = std::io::BufReader::new(stdin.lock());
    let mut jobs_done = 0u32;
    while let Some(frame) = read_frame(&mut reader) {
        let body = match frame.and_then(|v| PoolFrame::from_wire(&v)) {
            Ok(PoolFrame::Job { gen: job_gen, body }) if job_gen == gen => body,
            Ok(PoolFrame::Job { gen: job_gen, .. }) => {
                eprintln!("worker: job for generation {job_gen} reached generation {gen}");
                std::process::exit(3);
            }
            Ok(other) => {
                eprintln!("worker: unexpected frame {other:?}");
                std::process::exit(2);
            }
            Err(e) => {
                eprintln!("worker: bad frame: {e}");
                std::process::exit(2);
            }
        };
        busy.store(true, Ordering::SeqCst);
        let die_after = match job_from_json(&body) {
            Ok((_, _, Some(Fault::DieAfter(n)), _)) => Some(n),
            _ => None,
        };
        let result = match worker_run(&body) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("worker: bad job: {e}");
                std::process::exit(2);
            }
        };
        jobs_done += 1;
        let frame = PoolFrame::Result { gen, body: result }.to_wire();
        if write_frame(&mut *lock_unpoisoned(&stdout), &frame).is_err() {
            return; // supervisor gone
        }
        busy.store(false, Ordering::SeqCst);
        if die_after.is_some_and(|n| jobs_done >= n) {
            return; // injected DieAfter(n): clean exit after n jobs
        }
    }
}

// --------------------------------------------------------------- drivers

/// The whole sweep as one in-process shard — the monolithic reference
/// every sharded execution must reproduce bit-for-bit.
pub fn monolithic(workload: &Workload) -> SweepOutput {
    let shard = Shard::partition(workload.total(), 1)[0];
    assemble(workload, vec![run_shard(workload, shard)])
}

/// Reads a table binary's command line: `[--shards N]`, N ≥ 1 and by
/// default 1, if it is `sharded`, and nothing otherwise. Anything else
/// prints a usage line naming `bin` and exits with code 2.
pub fn table_args(bin: &str, sharded: bool) -> usize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let shards = match &args[..] {
        [] => Ok(NonZeroUsize::MIN),
        [flag] | [flag, _] if sharded && flag == "--shards" => flag_value(flag, args.get(1)),
        _ => Err(format!("unknown arguments {args:?}")),
    };
    shards.map(NonZeroUsize::get).unwrap_or_else(|e| {
        let usage = if sharded { " [--shards N]" } else { "" };
        eprintln!("{bin}: {e}\nusage: {bin}{usage}");
        std::process::exit(2)
    })
}

/// Runs a workload in-process with `shards` shards in canonical
/// arrival order (monolithic when `shards <= 1`) — the table binaries'
/// execution path.
pub fn run_in_process(workload: &Workload, shards: usize) -> SweepOutput {
    if shards <= 1 {
        monolithic(workload)
    } else {
        let arrival: Vec<usize> = (0..shards).collect();
        sharded_in_process(workload, shards, &arrival)
    }
}

/// In-process sharded execution with the **full wire round trip**: each
/// shard's job and result pass through the JSON protocol even though no
/// process boundary is crossed, so this path also proves the transport
/// is bit-exact. `arrival` gives the merge order as a permutation of
/// shard indices.
///
/// # Panics
/// Panics when `arrival` is not a permutation of `0..shards` or a
/// round-tripped payload fails to decode (both are harness bugs).
pub fn sharded_in_process(workload: &Workload, shards: usize, arrival: &[usize]) -> SweepOutput {
    assert_eq!(arrival.len(), shards, "arrival must permute 0..shards");
    let parts = Shard::partition(workload.total(), shards);
    let mut merger = Merger::new(workload.total());
    for &i in arrival {
        let job = job_to_json(workload, parts[i], None);
        let (wl, shard, fault, attempt) = job_from_json(&job).expect("job round trip");
        assert!(fault.is_none());
        assert_eq!(attempt, 0);
        let result = run_shard(&wl, shard);
        let decoded = result_from_json(&result_to_json(&result)).expect("result round trip");
        merger.insert(decoded).expect("disjoint by construction");
    }
    assemble(workload, merger.finish().expect("all shards inserted"))
}

/// Runs one shard on a one-worker [`WorkerPool`] of `exe --worker`,
/// decoding its result. Failures — panic, nonzero exit, truncated or
/// malformed output — name the shard. This is also the retry primitive:
/// re-run exactly the failed shard and [`Merger::insert`] the result.
pub fn run_shard_subprocess(
    exe: &Path,
    workload: &Workload,
    shard: Shard,
    fault: Option<Fault>,
) -> Result<ShardResult<Payload>, ShardError> {
    let config = PoolConfig {
        cap: 1,
        ..PoolConfig::default()
    };
    let pool = WorkerPool::new(WorkerCommand::new(exe, &["--worker"]), config);
    let job = PoolJob {
        tag: 0,
        shard_index: shard.index,
        input: job_to_json(workload, shard, fault),
        cache_key: workload.cache_key(),
        delay: Duration::ZERO,
    };
    pool.submit(job).expect("a fresh pool takes a job");
    let body = pool
        .recv()
        .expect("the pool answers every job it took")
        .result;
    pool.shutdown();
    body.and_then(|body| decode_worker_result(shard.index, &body))
}

/// Executes a workload as `shards` jobs on a private [`WorkerPool`] of
/// at most `cap` worker processes, drained on readiness, and merges the
/// results. `faults` maps shard indices to injected faults (tests).
///
/// This is a [`crate::serve`] job with no retries
/// ([`RetryPolicy::NONE`]): after its first failure it dispatches no
/// further shard and names the lowest-indexed failed shard among the
/// verdicts it received. Re-running just the failed shards via
/// [`run_shard_subprocess`] is sound: merging is order-insensitive and
/// idempotent.
pub fn drive_subprocess_capped(
    exe: &Path,
    workload: &Workload,
    shards: usize,
    faults: &[(usize, Fault)],
    cap: usize,
) -> Result<SweepOutput, ShardError> {
    let config = ServeConfig {
        cap,
        retry: RetryPolicy::NONE,
        ..ServeConfig::default()
    };
    run_job(exe, 0, workload, shards, faults, &config, &mut |_| {}).map(|(output, _)| output)
}

/// [`drive_subprocess_capped`] at the host's available parallelism.
pub fn drive_subprocess(
    exe: &Path,
    workload: &Workload,
    shards: usize,
    faults: &[(usize, Fault)],
) -> Result<SweepOutput, ShardError> {
    drive_subprocess_capped(exe, workload, shards, faults, default_worker_cap())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_round_trip_the_wire() {
        let workloads = [
            Workload::Landscape {
                family: FamilyRef {
                    seed: 7,
                    name: "square".into(),
                },
                backend: BackendKind::Zx,
                steps: 6,
                gamma: (0.0, 1.0 / 3.0),
                beta: (-0.25, std::f64::consts::PI),
            },
            Workload::Grid {
                family: FamilyRef {
                    seed: 7,
                    name: "SK5".into(),
                },
                backend: BackendKind::Pattern,
                p: 2,
                steps: 3,
                lo: vec![0.0; 4],
                hi: vec![1.5; 4],
            },
            Workload::ResourceTable(ResourcesSpec {
                family_seed: 7,
                max_n: 5,
                depths: vec![1, 2],
            }),
            Workload::EquivalenceTable(EquivalenceSpec::full()),
            Workload::Disorder(DisorderSpec {
                n: 5,
                instances: 6,
                base_seed: 40,
                p: 1,
                grid_steps: 4,
                backend: BackendKind::Gate,
            }),
        ];
        for w in &workloads {
            let parsed = Value::parse(&w.to_wire().to_json()).unwrap();
            assert_eq!(&Workload::from_wire(&parsed).unwrap(), w);
        }
    }

    /// `w` on the wire with field `key` replaced by `value`, decoded:
    /// the error must name the field.
    fn rejected_field(w: &Workload, key: &str, value: Value) {
        let Value::Obj(mut entries) = w.to_wire() else {
            unreachable!("workloads encode as objects")
        };
        entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no field {key:?}"))
            .1 = value.clone();
        let err = Workload::from_wire(&Value::Obj(entries))
            .expect_err(&format!("{key:?} = {value:?} must be rejected"));
        assert!(err.0.contains(&format!("{key:?}")), "{key}: {err}");
    }

    fn landscape() -> Workload {
        Workload::Landscape {
            family: FamilyRef {
                seed: 7,
                name: "square".into(),
            },
            backend: BackendKind::Gate,
            steps: 4,
            gamma: (0.0, 1.0),
            beta: (0.0, 1.0),
        }
    }

    fn grid() -> Workload {
        Workload::Grid {
            family: FamilyRef {
                seed: 7,
                name: "triangle".into(),
            },
            backend: BackendKind::Gate,
            p: 1,
            steps: 3,
            lo: vec![0.0; 2],
            hi: vec![1.0; 2],
        }
    }

    #[test]
    fn unknown_families_are_rejected() {
        rejected_field(&landscape(), "family", Value::Str("nope".into()));
        rejected_field(&grid(), "family", Value::Str("Petersen".into()));
    }

    #[test]
    fn landscape_steps_below_two_are_rejected() {
        rejected_field(&landscape(), "steps", Value::Int(0));
        rejected_field(&landscape(), "steps", Value::Int(1));
    }

    #[test]
    fn landscape_steps_whose_square_overflows_are_rejected() {
        // 2^32 squared wraps a 64-bit count to 0.
        rejected_field(&landscape(), "steps", Value::Int(1 << 32));
        rejected_field(&landscape(), "steps", Value::Int(i64::MAX));
    }

    #[test]
    fn grid_steps_below_two_or_overflowing_are_rejected() {
        rejected_field(&grid(), "steps", Value::Int(1));
        rejected_field(&grid(), "steps", Value::Int(1 << 32));
    }

    #[test]
    fn specs_past_the_job_item_cap_are_rejected() {
        // 2^11 squared is 2^22 items; at 2^31 steps every worker would
        // allocate 2^31-point axes.
        rejected_field(&landscape(), "steps", Value::Int(1 << 11));
        rejected_field(&landscape(), "steps", Value::Int(1 << 31));
        rejected_field(&grid(), "steps", Value::Int(1 << 11));
        let disorder = Workload::Disorder(DisorderSpec {
            n: 5,
            instances: 2,
            base_seed: 1,
            p: 1,
            grid_steps: 3,
            backend: BackendKind::Gate,
        });
        rejected_field(&disorder, "instances", Value::Int(1 << 21));
        // An item count past `i64`, which the `accepted` frame cannot
        // encode.
        let equivalence = Workload::EquivalenceTable(EquivalenceSpec {
            max_n: 4,
            depths: vec![1],
            ..EquivalenceSpec::full()
        });
        rejected_field(&equivalence, "qubos", Value::Int(i64::MAX));
        rejected_field(&equivalence, "qubos", Value::Int(1 << 21));
        let many_depths = Value::Arr(vec![Value::Int(1); 1 << 17]);
        rejected_field(&equivalence, "depths", many_depths.clone());
        let resources = Workload::ResourceTable(ResourcesSpec::full());
        rejected_field(&resources, "depths", many_depths);
        // At the cap, a spec still decodes.
        let Value::Obj(mut fields) = landscape().to_wire() else {
            unreachable!("workloads encode as objects")
        };
        fields.iter_mut().find(|(k, _)| k == "steps").unwrap().1 = Value::Int(1 << 10);
        assert!(Workload::from_wire(&Value::Obj(fields)).is_ok());
    }

    #[test]
    fn grid_corners_must_have_2p_entries() {
        rejected_field(&grid(), "lo", Value::f64_array(&[0.0; 3]));
        rejected_field(&grid(), "hi", Value::f64_array(&[]));
        rejected_field(&grid(), "p", Value::Int(2));
    }

    #[test]
    fn disorder_grid_steps_below_two_are_rejected() {
        let w = Workload::Disorder(DisorderSpec {
            n: 5,
            instances: 2,
            base_seed: 1,
            p: 1,
            grid_steps: 3,
            backend: BackendKind::Gate,
        });
        rejected_field(&w, "grid_steps", Value::Int(1));
        rejected_field(&w, "grid_steps", Value::Int(1 << 40));
    }

    #[test]
    fn payloads_round_trip_the_wire() {
        let payloads = [
            Payload::Values(vec![0.5, -0.0, 1.0 / 3.0]),
            Payload::Best(GridBest {
                value: -2.75,
                index: 17,
            }),
            Payload::Best(GridBest::NONE),
            Payload::Rows(vec![TableRow {
                text: "| a | b |".into(),
                dense_saving: -2,
            }]),
        ];
        for p in &payloads {
            let parsed = Value::parse(&p.to_wire().to_json()).unwrap();
            assert_eq!(&Payload::from_wire(&parsed).unwrap(), p);
        }
    }

    #[test]
    fn jobs_round_trip_with_and_without_faults() {
        let w = Workload::Disorder(DisorderSpec {
            n: 5,
            instances: 4,
            base_seed: 1,
            p: 1,
            grid_steps: 3,
            backend: BackendKind::Gate,
        });
        let shard = Shard::partition(4, 2)[1];
        for fault in [
            None,
            Some(Fault::Panic),
            Some(Fault::Truncate),
            Some(Fault::Stall(250)),
            Some(Fault::FailUntil(3)),
            Some(Fault::Corrupt),
            Some(Fault::DieAfter(2)),
        ] {
            for attempt in [0u32, 2] {
                let (wl, s, f, a) =
                    job_from_json(&job_to_json_attempt(&w, shard, fault, attempt)).unwrap();
                assert_eq!(wl, w);
                assert_eq!(s, shard);
                assert_eq!(f, fault);
                assert_eq!(a, attempt);
            }
        }
    }

    #[test]
    fn corrupt_fault_flips_exactly_one_payload_digit() {
        let json = r#"{"values":["f64:3fe0000000000000","f64:4008000000000000"]}"#;
        let corrupted = corrupt_f64_payload(json);
        assert_ne!(corrupted, json, "a payload with floats must change");
        let diffs = json
            .bytes()
            .zip(corrupted.bytes())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 1, "exactly one hex digit flips");
        assert_eq!(corrupted.len(), json.len(), "still well-formed JSON");
        // No float payload → nothing to corrupt → unchanged.
        let floatless = r#"{"rows":["| a |"]}"#;
        assert_eq!(corrupt_f64_payload(floatless), floatless);
    }

    #[test]
    fn hole_payloads_match_the_shape_of_every_workload() {
        let shard = Shard {
            index: 1,
            of: 2,
            total: 8,
            start: 3,
            end: 6,
        };
        let values = hole_payload(
            &Workload::Disorder(DisorderSpec {
                n: 4,
                instances: 8,
                base_seed: 1,
                p: 1,
                grid_steps: 2,
                backend: BackendKind::Gate,
            }),
            shard,
        );
        match values {
            Payload::Values(v) => {
                assert_eq!(v.len(), shard.len());
                assert!(v.iter().all(|x| x.is_nan()), "holes must be visible NaNs");
            }
            other => panic!("expected Values, got {other:?}"),
        }
        let rows = hole_payload(&Workload::ResourceTable(ResourcesSpec::full()), shard);
        match rows {
            Payload::Rows(rows) => {
                assert_eq!(rows.len(), shard.len());
                assert!(rows.iter().all(|r| r.text.contains("quarantine")));
            }
            other => panic!("expected Rows, got {other:?}"),
        }
    }

    #[test]
    fn outputs_round_trip_the_wire_bit_exactly() {
        let outputs = [
            SweepOutput::Landscape(Landscape {
                gammas: vec![0.0, 0.5],
                betas: vec![-0.0, 1.0 / 3.0],
                values: vec![vec![1.25, f64::NAN], vec![-2.5, 0.0]],
            }),
            SweepOutput::Opt(OptResult {
                params: vec![0.7, 0.4],
                value: -3.5,
                evals: 81,
                history: vec![-1.0, -3.5],
            }),
            SweepOutput::Table {
                text: "| a |\n| b |".into(),
                dense_savings: -4,
            },
            SweepOutput::Disorder {
                per_seed: vec![-0.5, -0.625],
                mean: -0.5625,
            },
        ];
        for out in &outputs {
            let parsed = Value::parse(&out.to_wire().to_json()).unwrap();
            let back = SweepOutput::from_wire(&parsed).unwrap();
            assert!(
                back.bit_identical(out),
                "output must survive the wire bit-for-bit: {out:?}"
            );
        }
    }

    #[test]
    fn cache_keys_separate_compile_classes() {
        let landscape = |backend| Workload::Landscape {
            family: FamilyRef {
                seed: 7,
                name: "square".into(),
            },
            backend,
            steps: 4,
            gamma: (0.0, 1.0),
            beta: (0.0, 1.0),
        };
        // Same instance, different backend ⇒ different compiled
        // artifacts ⇒ different keys; identical workloads modulo the
        // scan window share one key.
        assert_ne!(
            landscape(BackendKind::Gate).cache_key(),
            landscape(BackendKind::Zx).cache_key()
        );
        // Every backend pair must key apart — a new BackendKind that
        // reuses another's label would silently alias cache affinity
        // (and the serve router would co-schedule distinct artifact
        // classes).
        for a in BackendKind::ALL {
            for b in BackendKind::ALL {
                if a != b {
                    assert_ne!(
                        landscape(a).cache_key(),
                        landscape(b).cache_key(),
                        "{} vs {} must not alias",
                        a.name(),
                        b.name()
                    );
                    assert_ne!(a.name(), b.name());
                }
            }
        }
        // Names round-trip the wire parser.
        for k in BackendKind::ALL {
            assert_eq!(BackendKind::from_name(k.name()).unwrap(), k);
        }
        let mut wide = landscape(BackendKind::Gate);
        if let Workload::Landscape { gamma, .. } = &mut wide {
            *gamma = (0.0, 2.0);
        }
        assert_eq!(wide.cache_key(), landscape(BackendKind::Gate).cache_key());
    }

    #[test]
    fn disorder_average_is_shard_count_invariant() {
        let w = Workload::Disorder(DisorderSpec {
            n: 4,
            instances: 5,
            base_seed: 11,
            p: 1,
            grid_steps: 3,
            backend: BackendKind::Gate,
        });
        let mono = monolithic(&w);
        // Reversed arrival of 3 shards must still be bit-identical.
        let sharded = sharded_in_process(&w, 3, &[2, 0, 1]);
        assert_eq!(mono, sharded);
        if let (
            SweepOutput::Disorder {
                per_seed: a,
                mean: ma,
            },
            SweepOutput::Disorder {
                per_seed: b,
                mean: mb,
            },
        ) = (&mono, &sharded)
        {
            assert_eq!(ma.to_bits(), mb.to_bits());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        } else {
            panic!("disorder workload must produce Disorder output");
        }
    }
}
