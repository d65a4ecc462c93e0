//! Fuzzes every decoder that reads untrusted bytes: `Value::parse`
//! (stdin frames, worker frames, WAL lines), `SubmitRequest::from_wire`,
//! `Workload::from_wire`, `job_from_json`, `result_from_json` and
//! `load_journal`.
//!
//! Inputs are random bytes, valid frames mutated by byte flips,
//! truncations and splices, very deep nesting and a string of several
//! MiB. No decoder may panic on any of them, and every valid frame must
//! round-trip byte-identically. The case count is the proptest shim's
//! default; `PROPTEST_CASES` raises it.

use mbqao_bench::serve::{load_journal, JobJournal, SubmitRequest};
use mbqao_bench::sweep::{
    job_from_json, job_to_json_attempt, result_from_json, result_to_json, BackendKind,
    DisorderSpec, FamilyRef, Fault, Payload, Workload,
};
use mbqao_bench::tables::{EquivalenceSpec, ResourcesSpec, TableRow};
use mbqao_bench::STANDARD_FAMILY_NAMES;
use mbqao_core::engine::shard::{Provenance, Shard, ShardResult};
use mbqao_core::engine::wire::Value;
use mbqao_qaoa::optimize::GridBest;
use proptest::prelude::*;
use std::path::PathBuf;

/// Runs every decoder over `bytes`; each must return, never panic.
fn decode_all(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    if let Ok(v) = Value::parse(&text) {
        let _ = SubmitRequest::from_wire(&v);
        let _ = Workload::from_wire(&v);
        if let Ok(w) = v.field("workload") {
            let _ = Workload::from_wire(w);
        }
    }
    let _ = job_from_json(&text);
    let _ = result_from_json(&text);
    let path = scratch_file(bytes);
    let _ = load_journal(&path);
    let _ = std::fs::remove_file(path);
}

/// A path no other test (thread or process) uses.
fn scratch_path() -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "mbqao-decoder-fuzz-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::SeqCst)
    ))
}

/// Writes `bytes` to a scratch file.
fn scratch_file(bytes: &[u8]) -> PathBuf {
    let path = scratch_path();
    std::fs::write(&path, bytes).expect("writing a scratch journal");
    path
}

fn f64_any() -> impl Strategy<Value = f64> {
    (0u64..u64::MAX).prop_map(f64::from_bits)
}

fn family() -> impl Strategy<Value = FamilyRef> {
    (0u64..u64::MAX, 0..STANDARD_FAMILY_NAMES.len()).prop_map(|(seed, i)| FamilyRef {
        seed,
        name: STANDARD_FAMILY_NAMES[i].into(),
    })
}

fn backend() -> impl Strategy<Value = BackendKind> {
    (0..BackendKind::ALL.len()).prop_map(|i| BackendKind::ALL[i])
}

/// Any workload `from_wire` accepts.
fn workload() -> impl Strategy<Value = Workload> {
    prop_oneof![
        (
            family(),
            backend(),
            2usize..1 << 20,
            (f64_any(), f64_any()),
            (f64_any(), f64_any()),
        )
            .prop_map(
                |(family, backend, steps, gamma, beta)| Workload::Landscape {
                    family,
                    backend,
                    steps,
                    gamma,
                    beta,
                }
            ),
        (
            family(),
            backend(),
            1usize..4,
            2usize..6,
            collection::vec(f64_any(), 16..17)
        )
            .prop_map(|(family, backend, p, steps, corners)| Workload::Grid {
                family,
                backend,
                p,
                steps,
                lo: corners[..2 * p].to_vec(),
                hi: corners[8..8 + 2 * p].to_vec(),
            }),
        (0u64..u64::MAX, 0usize..64, collection::vec(1usize..9, 1..4)).prop_map(
            |(family_seed, max_n, depths)| Workload::ResourceTable(ResourcesSpec {
                family_seed,
                max_n,
                depths,
            })
        ),
        (
            0u64..u64::MAX,
            0u64..u64::MAX,
            collection::vec(1usize..9, 1..4),
            0usize..9
        )
            .prop_map(|(family_seed, param_seed, depths, qubos)| {
                Workload::EquivalenceTable(EquivalenceSpec {
                    family_seed,
                    param_seed,
                    max_n: 8,
                    depths,
                    qubos,
                    include_mis: qubos % 2 == 0,
                })
            }),
        (
            (3usize..12, 0usize..100),
            0u64..u64::MAX,
            1usize..4,
            2usize..6,
            backend()
        )
            .prop_map(|((n, instances), base_seed, p, grid_steps, backend)| {
                Workload::Disorder(DisorderSpec {
                    n,
                    instances,
                    base_seed,
                    p,
                    grid_steps,
                    backend,
                })
            }),
    ]
}

fn fault() -> impl Strategy<Value = Option<Fault>> {
    (0u8..9, 0u32..1000).prop_map(|(kind, k)| match kind {
        0 => Some(Fault::Panic),
        1 => Some(Fault::Truncate),
        2 => Some(Fault::Stall(u64::from(k))),
        3 => Some(Fault::FailUntil(k)),
        4 => Some(Fault::Corrupt),
        5 => Some(Fault::DieAfter(k)),
        _ => None,
    })
}

fn submit() -> impl Strategy<Value = SubmitRequest> {
    (
        0u64..1 << 62,
        workload(),
        1usize..64,
        collection::vec((0usize..64, fault()), 0..4),
        proptest::bool::ANY,
    )
        .prop_map(|(id, workload, shards, faults, check)| SubmitRequest {
            id,
            workload,
            shards,
            faults: faults
                .into_iter()
                .filter_map(|(s, f)| Some((s, f?)))
                .collect(),
            check,
        })
}

fn shard() -> impl Strategy<Value = Shard> {
    (1usize..1 << 20, 1usize..16, 0usize..16)
        .prop_map(|(total, of, i)| Shard::partition(total, of)[i % of])
}

fn payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        collection::vec(f64_any(), 0..16).prop_map(Payload::Values),
        (f64_any(), 0usize..1 << 40, proptest::bool::ANY).prop_map(|(value, index, none)| {
            Payload::Best(GridBest {
                value,
                index: if none { usize::MAX } else { index },
            })
        }),
        collection::vec((0u8..128, -50i64..50), 0..4).prop_map(|rows| {
            Payload::Rows(
                rows.into_iter()
                    .map(|(c, dense_saving)| TableRow {
                        text: format!("| {} \"x\"\n\\ |", c as char),
                        dense_saving,
                    })
                    .collect(),
            )
        }),
    ]
}

fn result() -> impl Strategy<Value = ShardResult<Payload>> {
    (shard(), backend(), 0usize..1000, 0usize..1000, payload()).prop_map(
        |(shard, backend, cache_hits, cache_misses, payload)| ShardResult {
            provenance: Provenance {
                shard,
                backend: backend.name().into(),
                cache_hits,
                cache_misses,
            },
            payload,
        },
    )
}

/// A journal as `JobJournal` writes it: the header, then one partial
/// per result.
fn journal(req: &SubmitRequest, results: &[ShardResult<Payload>]) -> Vec<u8> {
    let dir = scratch_path();
    let mut wal = JobJournal::create(&dir, req.id, &req.workload, req.shards).expect("create");
    for r in results {
        wal.append(r).expect("append");
    }
    let bytes = std::fs::read(wal.path()).expect("read back");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// Flips, truncates or splices `frame` at `at` (a fraction of its
/// length), taking spliced bytes from `other`.
fn mutate(frame: &[u8], other: &[u8], kind: u8, at: f64, byte: u8) -> Vec<u8> {
    let i = ((frame.len() as f64) * at) as usize;
    let mut out = frame.to_vec();
    match kind {
        0 if !out.is_empty() => out[i.min(frame.len() - 1)] ^= byte | 1,
        1 => out.truncate(i),
        _ => {
            let j = ((other.len() as f64) * at) as usize;
            out.splice(i..i, other[j..].iter().copied().take(byte as usize + 1));
        }
    }
    out
}

proptest! {
    #[test]
    fn random_bytes_never_panic_a_decoder(bytes in collection::vec(0u8..=255, 0..512)) {
        decode_all(&bytes);
    }

    #[test]
    fn valid_frames_round_trip_byte_identically(
        req in submit(),
        results in collection::vec(result(), 1..3),
        attempt in 0u32..10,
        job_fault in fault(),
    ) {
        // Floats are random bit patterns, NaNs included, so frames are
        // compared as bytes rather than as values.
        let frame = req.to_wire().to_json();
        let back = SubmitRequest::from_wire(&Value::parse(&frame).unwrap()).unwrap();
        prop_assert_eq!(back.to_wire().to_json(), frame);

        let w = req.workload.to_wire().to_json();
        let back = Workload::from_wire(&Value::parse(&w).unwrap()).unwrap();
        prop_assert_eq!(back.to_wire().to_json(), w);

        let shard = results[0].provenance.shard;
        let job = job_to_json_attempt(&req.workload, shard, job_fault, attempt);
        let (wl, s, f, a) = job_from_json(&job).unwrap();
        prop_assert_eq!(job_to_json_attempt(&wl, s, f, a), job);

        for r in &results {
            let text = result_to_json(r);
            let back = result_from_json(&text).unwrap();
            prop_assert_eq!(&back, r);
            prop_assert_eq!(result_to_json(&back), text);
        }

        let path = scratch_file(&journal(&req, &results));
        let replay = load_journal(&path).unwrap();
        let _ = std::fs::remove_file(path);
        prop_assert_eq!((replay.id, replay.shards), (req.id, req.shards));
        prop_assert_eq!(replay.workload.to_wire().to_json(), w);
        prop_assert_eq!(replay.results, results);
    }

    #[test]
    fn mutated_frames_never_panic_a_decoder(
        req in submit(),
        r in result(),
        pick in 0u8..4,
        kind in 0u8..3,
        at in 0.0f64..1.0,
        byte in 0u8..=255,
    ) {
        let frames = [
            req.to_wire().to_json().into_bytes(),
            job_to_json_attempt(&req.workload, r.provenance.shard, None, 1).into_bytes(),
            result_to_json(&r).into_bytes(),
            journal(&req, std::slice::from_ref(&r)),
        ];
        let frame = &frames[pick as usize];
        let other = &frames[(pick as usize + 1) % frames.len()];
        decode_all(&mutate(frame, other, kind, at, byte));
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_crash() {
    for depth in [200, 100_000, 1_000_000] {
        let arrays = "[".repeat(depth) + &"]".repeat(depth);
        let objects = "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth);
        let submit = format!("{{\"type\":\"submit\",\"id\":1,\"workload\":{arrays}}}");
        for text in [arrays, objects, submit] {
            assert!(Value::parse(&text).is_err());
            decode_all(text.as_bytes());
        }
    }
}

#[test]
fn a_string_of_several_mib_decodes_in_one_piece() {
    let big = "x\\\"y".repeat(1 << 20);
    let v = Value::obj(vec![
        ("type", Value::Str("submit".into())),
        ("blob", Value::Str(big)),
    ]);
    let text = v.to_json();
    assert!(text.len() > 4 << 20);
    assert_eq!(Value::parse(&text).unwrap().to_json(), text);
    decode_all(text.as_bytes());
    let as_family = format!(
        "{{\"kind\":\"landscape\",\"family_seed\":1,\"family\":\"{}\",\"backend\":\"gate\",\"steps\":2}}",
        "y".repeat(4 << 20)
    );
    let err = Workload::from_wire(&Value::parse(&as_family).unwrap()).unwrap_err();
    assert!(err.0.contains("\"family\""), "{}", &err.0[..80]);
}
