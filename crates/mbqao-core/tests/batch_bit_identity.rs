//! One point's `⟨C⟩` is bit-identical whether it is evaluated alone
//! (`Executor::expectation`), inside a batch of four, or as a batch of
//! one. The batch is the only parallel level — the statevector kernels
//! run on one thread — so no value depends on the thread count or on
//! the batch a point rides in.
//!
//! This test is its own binary so that it can force four threads per
//! fan-out, by setting `RAYON_NUM_THREADS` before anything reads the
//! thread count. MaxCut on C13 and C14 at p = 1 puts 2^13 and more
//! amplitudes in the register on both backends.

use mbqao_core::engine::{Backend, Executor, GateBackend, PatternBackend};
use mbqao_problems::{generators, maxcut};

/// Asserts the three ways of evaluating each of four points agree bit
/// for bit.
fn assert_bit_identical<B: Backend>(exec: &Executor<B>, label: &str) {
    let points = vec![
        vec![0.3, 0.7],
        vec![0.9, -0.4],
        vec![-1.2, 0.25],
        vec![2.1, 1.3],
    ];
    let batch = exec.expectation_batch(&points);
    for (i, (point, &in_batch)) in points.iter().zip(&batch).enumerate() {
        let alone = exec.expectation(point);
        let batch_of_one = exec.expectation_batch(std::slice::from_ref(point))[0];
        assert_eq!(
            alone.to_bits(),
            in_batch.to_bits(),
            "{label} point {i}: alone {alone:e}, in a batch of four {in_batch:e}"
        );
        assert_eq!(
            batch_of_one.to_bits(),
            in_batch.to_bits(),
            "{label} point {i}: batch of one {batch_of_one:e}, in a batch of four {in_batch:e}"
        );
    }
}

#[test]
fn a_point_alone_in_a_batch_and_as_a_batch_of_one_is_bit_identical() {
    std::env::set_var("RAYON_NUM_THREADS", "4");
    assert_eq!(rayon::current_num_threads(), 4);
    for n in [13, 14] {
        let cost = maxcut::maxcut_zpoly(&generators::cycle(n));
        let gate = Executor::new(GateBackend::standard(cost.clone(), 1));
        assert_bit_identical(&gate, &format!("gate C{n}"));
        let pattern = Executor::new(PatternBackend::new(&cost, 1));
        assert_bit_identical(&pattern, &format!("pattern C{n}"));
    }
}
