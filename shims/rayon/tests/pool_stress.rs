//! Stress tests for the rayon shim's scoped fan-out.
//!
//! This integration test runs in its own process, so it can force four
//! threads per fan-out (the CI runners and dev machines may report a
//! single core) by setting `RAYON_NUM_THREADS` before anything reads the
//! thread count.

use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

/// Forces four threads per fan-out before anything reads the thread
/// count.
fn setup() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        // Only effective if nothing in this process asked for the
        // thread count yet — which is the case for a fresh test binary.
        std::env::set_var("RAYON_NUM_THREADS", "4");
        assert_eq!(rayon::current_num_threads(), 4);
    });
}

/// A fan-out sum (the shim has no `sum`; `reduce` is the same fold).
fn par_sum(
    range: std::ops::Range<usize>,
    f: impl Fn(usize) -> usize + Sync + Send + Clone,
) -> usize {
    range.into_par_iter().map(f).reduce(|| 0, |a, b| a + b)
}

#[test]
fn the_caller_runs_the_first_part_and_every_other_part_has_its_own_thread() {
    setup();
    let me = std::thread::current().id();
    for _ in 0..50 {
        let ids: Vec<std::thread::ThreadId> = (0..4usize)
            .into_par_iter()
            .map(|_| std::thread::current().id())
            .collect();
        assert_eq!(ids[0], me, "the calling thread takes the first part");
        let distinct: HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), 4, "one thread per part: {ids:?}");
    }
}

#[test]
fn merge_order_is_preserved_under_pool_scheduling() {
    setup();
    // `collect` and `reduce` must merge part results in part order no
    // matter which thread finishes first; make parts finish in scrambled
    // order with uneven spins.
    for _ in 0..50 {
        let v: Vec<usize> = (0..4001usize)
            .into_par_iter()
            .map(|i| {
                // Uneven busywork: early indices spin longest.
                let spin = (4001 - i) % 97;
                let mut acc = i;
                for _ in 0..spin {
                    acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(7));
                }
                std::hint::black_box(acc);
                i
            })
            .collect();
        assert!(v.iter().enumerate().all(|(i, &x)| x == i));
        // Non-commutative reduce: string-like concatenation via pairing.
        let concat =
            (0..64usize)
                .into_par_iter()
                .map(|i| vec![i])
                .reduce(Vec::new, |mut a, mut b| {
                    a.append(&mut b);
                    a
                });
        assert_eq!(concat, (0..64).collect::<Vec<_>>());
    }
}

#[test]
fn panics_propagate_and_pool_survives() {
    setup();
    // 1000 items in four parts of 250: item 3 panics on the calling
    // thread's own part, item 613 on a spawned thread's.
    for round in 0..20 {
        for bad in [3usize, 613] {
            let caught = std::panic::catch_unwind(|| {
                (0..1000usize)
                    .into_par_iter()
                    .map(|i| {
                        if i == bad {
                            panic!("boom {round} at {bad}");
                        }
                    })
                    .collect::<Vec<()>>()
            });
            let payload = caught.expect_err("a part's panic must propagate to the caller");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(
                msg,
                format!("boom {round} at {bad}"),
                "the part's own payload"
            );
            // Later fan-outs run normally, nested ones sequentially again.
            assert_eq!(par_sum(0..10_000, |i| i), 10_000 * 9_999 / 2);
        }
    }
}

#[test]
fn nested_parallel_calls_run_sequentially_in_workers() {
    setup();
    // Nested terminal calls inside a part must not fan out again: every
    // inner item runs on the thread of its outer item, and results match.
    let sums: Vec<usize> = (0..48usize)
        .into_par_iter()
        .map(|i| {
            let outer = std::thread::current().id();
            par_sum(0..500, move |j| {
                assert_eq!(std::thread::current().id(), outer, "nested fan-out");
                i * 500 + j
            })
        })
        .collect();
    for (i, &s) in sums.iter().enumerate() {
        assert_eq!(s, (0..500).map(|j| i * 500 + j).sum::<usize>());
    }
}

/// The fan-out round trip (run on demand):
///
/// ```text
/// cargo test -p rayon --release --test pool_stress dispatch_latency -- --ignored --nocapture
/// ```
///
/// Prints the mean time of one terminal call over four one-element
/// parts: three scoped threads spawned and joined, the fourth part on
/// the calling thread. This is what each `Executor` batch, shot fan-out
/// and branch sweep pays on top of its work.
#[test]
#[ignore = "diagnostic probe, run with --ignored --nocapture"]
fn dispatch_latency() {
    setup();
    let reps = 20_000u32;
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        assert_eq!(par_sum(0..4, std::hint::black_box), 6);
    }
    let fan_out = t0.elapsed().as_secs_f64() / f64::from(reps);
    println!(
        "fan-out round trip over {} threads: {:.2} µs",
        rayon::current_num_threads(),
        fan_out * 1e6
    );
}

#[test]
fn concurrent_jobs_from_many_caller_threads() {
    setup();
    // Terminal calls may race from several caller threads; every job
    // must complete correctly with no deadlock.
    let total = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..6usize {
            let total = &total;
            scope.spawn(move || {
                for round in 0..40usize {
                    let s = par_sum(0..2000, move |i| i + t + round);
                    let expect = 2000 * 1999 / 2 + 2000 * (t + round);
                    assert_eq!(s, expect);
                    total.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(total.load(Ordering::Relaxed), 240);
}
