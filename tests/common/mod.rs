//! The one sampling oracle of the integration tests: Hellinger fidelity
//! between a backend's samples and the exact Born distribution of its
//! prepared state (the SupermarQ convention for QAOA sampling
//! benchmarks).
//!
//! With `N` shots over `k` outcomes of nonzero probability, the
//! Freeman–Tukey statistic `8N(1 − BC)`, where `BC = Σ √(p·q)` is the
//! Bhattacharyya coefficient of the exact law `p` and the empirical one
//! `q`, is asymptotically χ²(k − 1). So samples that follow `p` show a
//! fidelity `BC²` of at least `(1 − χ²₀.₉₉₉(k − 1) / 8N)²` but once in a
//! thousand draws; a fixed seed makes each check deterministic.

use mbqao::prelude::*;

/// Exact Born distribution of a backend's prepared state, indexed by the
/// lsb-first variable convention of `Backend::sample`.
pub fn born_distribution(backend: &dyn Backend, params: &[f64]) -> Vec<f64> {
    let st = backend.prepare(params);
    let order = backend.variable_wires();
    let aligned = st.aligned(&order);
    let n = order.len();
    let mut probs = vec![0.0f64; 1 << n];
    for (msb_idx, amp) in aligned.iter().enumerate() {
        let mut x = 0usize;
        for v in 0..n {
            if (msb_idx >> (n - 1 - v)) & 1 == 1 {
                x |= 1 << v;
            }
        }
        probs[x] += amp.norm_sqr();
    }
    probs
}

/// χ²₀.₉₉₉(ν) for ν = 1..=15 degrees of freedom (enough for 16
/// outcomes, the square's).
const CHI2_999: [f64; 15] = [
    10.828, 13.816, 16.266, 18.467, 20.515, 22.458, 24.322, 26.124, 27.877, 29.588, 31.264, 32.909,
    34.528, 36.123, 37.697,
];

/// The Hellinger fidelity of `samples` against `probs`, and the least
/// fidelity their shot count and support size allow at 0.999.
pub fn born_fidelity(samples: &[u64], probs: &[f64]) -> (f64, f64) {
    let shots = samples.len() as f64;
    let mut counts = vec![0usize; probs.len()];
    for &x in samples {
        counts[x as usize] += 1;
    }
    let bc: f64 = probs
        .iter()
        .zip(&counts)
        .map(|(&p, &c)| (p * c as f64 / shots).sqrt())
        .sum();
    let support = probs.iter().filter(|&&p| p > 1e-12).count();
    assert!(
        (2..=CHI2_999.len() + 1).contains(&support),
        "no χ² quantile for {support} outcomes"
    );
    let bound = (1.0 - CHI2_999[support - 2] / (8.0 * shots)).powi(2);
    (bc * bc, bound)
}

/// Asserts that `samples` follow the Born law `probs`.
pub fn assert_born(label: &str, samples: &[u64], probs: &[f64]) {
    let (fidelity, bound) = born_fidelity(samples, probs);
    assert!(
        fidelity >= bound,
        "{label}: Hellinger fidelity {fidelity} below {bound} for the Born law"
    );
}
