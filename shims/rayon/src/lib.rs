//! In-tree, dependency-free shim of the `rayon` API subset used by this
//! workspace (the build environment is offline; see `shims/README.md`).
//!
//! The model is a simplified rayon: a [`ParallelIterator`] is a
//! *splittable, exactly-sized* pipeline. A terminal operation splits the
//! pipeline into one part per thread (`current_num_threads()`), runs the
//! first part on the calling thread and every other part on its own
//! scoped thread (`std::thread::scope`), and merges the part results in
//! order. A terminal operation inside a part runs sequentially, so nested
//! parallel code fans out once. There is no persistent pool and no work
//! stealing: each fan-out spawns and joins its threads, tens of µs, so
//! callers fan out over whole evaluations (points, shot blocks, branches,
//! sweep items), not over the amplitudes of one statevector.
//!
//! Supported surface: `par_iter`, `into_par_iter` (`usize` ranges and
//! `Vec`), the adapter `map`, and the terminals `collect`, `reduce` and
//! `reduce_with`.

use std::collections::VecDeque;
use std::ops::Range;

/// Number of worker threads a terminal operation may use: the
/// `RAYON_NUM_THREADS` environment variable when set (as in real
/// rayon), otherwise `available_parallelism()`.
pub fn current_num_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// A splittable, exactly-sized parallel pipeline.
///
/// The three `pi_*` methods are the producer contract (length, split,
/// sequential drain); everything else is adapters and terminals built on
/// top of them.
pub trait ParallelIterator: Sized + Send {
    /// Item type.
    type Item: Send;

    /// Exact number of remaining items.
    fn pi_len(&self) -> usize;

    /// Splits into the first `mid` items and the rest.
    fn pi_split_at(self, mid: usize) -> (Self, Self);

    /// Draws the next item (sequential drain of one part).
    fn pi_next(&mut self) -> Option<Self::Item>;

    /// Maps each item through `f`.
    fn map<F, O>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> O + Sync + Send + Clone,
        O: Send,
    {
        Map { base: self, f }
    }

    /// Collects into a container, preserving order.
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        let parts: Vec<Vec<Self::Item>> = drive(
            self,
            &|mut part| {
                let mut v = Vec::with_capacity(part.pi_len());
                while let Some(x) = part.pi_next() {
                    v.push(x);
                }
                vec![v]
            },
            &|mut a, mut b| {
                a.append(&mut b);
                a
            },
        );
        parts.into_iter().flatten().collect()
    }

    /// Folds all items with `op`; `None` on an empty pipeline.
    fn reduce_with<Op>(self, op: Op) -> Option<Self::Item>
    where
        Op: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        if self.pi_len() == 0 {
            return None;
        }
        Some(drive(
            self,
            &|mut part| {
                let mut acc = part.pi_next().expect("parts are non-empty");
                while let Some(x) = part.pi_next() {
                    acc = op(acc, x);
                }
                acc
            },
            &|a, b| op(a, b),
        ))
    }

    /// Folds all items with `op`, seeding each part with `identity()`.
    fn reduce<Id, Op>(self, identity: Id, op: Op) -> Self::Item
    where
        Id: Fn() -> Self::Item + Sync + Send,
        Op: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        drive(
            self,
            &|mut part| {
                let mut acc = identity();
                while let Some(x) = part.pi_next() {
                    acc = op(acc, x);
                }
                acc
            },
            &|a, b| op(a, b),
        )
    }
}

std::thread_local! {
    /// `true` while this thread runs a part of a terminal operation.
    /// Nested parallel calls (e.g. a statevector kernel inside an
    /// `Executor` batch) then run sequentially instead of fanning out
    /// again: the outer fan-out already occupies the cores.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Splits `iter` into up to `current_num_threads()` parts and runs `seq`
/// on each, the first on the calling thread and every other on its own
/// scoped thread, merging the results in part order. A part's panic is
/// resumed on the caller, with its own payload, once every part has
/// joined. Inside a part, runs sequentially (no nested fan-out).
fn drive<P, R, S, M>(iter: P, seq: &S, merge: &M) -> R
where
    P: ParallelIterator,
    R: Send,
    S: Fn(P) -> R + Sync,
    M: Fn(R, R) -> R,
{
    let n = iter.pi_len();
    let k = current_num_threads().min(n);
    if k <= 1 || IN_WORKER.get() {
        return seq(iter);
    }
    let mut parts = Vec::with_capacity(k);
    let mut rest = iter;
    let chunk = n / k;
    let extra = n % k;
    for i in 0..k - 1 {
        let take = chunk + usize::from(i < extra);
        let (head, tail) = rest.pi_split_at(take);
        parts.push(head);
        rest = tail;
    }
    parts.push(rest);

    let mut parts = parts.into_iter();
    let first = parts.next().expect("k ≥ 2 parts");
    let results: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let others: Vec<_> = parts
            .map(|part| {
                scope.spawn(move || {
                    IN_WORKER.set(true);
                    seq(part)
                })
            })
            .collect();
        IN_WORKER.set(true);
        let mine = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| seq(first)));
        IN_WORKER.set(false);
        std::iter::once(mine)
            .chain(others.into_iter().map(|h| h.join()))
            .collect()
    });
    results
        .into_iter()
        .map(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
        .reduce(merge)
        .expect("k ≥ 2 parts")
}

// ---------------------------------------------------------------- adapters

/// See [`ParallelIterator::map`].
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, F, O> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    F: Fn(P::Item) -> O + Sync + Send + Clone,
    O: Send,
{
    type Item = O;

    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }

    fn pi_split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.pi_split_at(mid);
        (
            Map {
                base: a,
                f: self.f.clone(),
            },
            Map { base: b, f: self.f },
        )
    }

    fn pi_next(&mut self) -> Option<O> {
        self.base.pi_next().map(&self.f)
    }
}

// ---------------------------------------------------------------- producers

/// Shared-slice producer (`par_iter`).
pub struct Iter<'a, T: Sync> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for Iter<'a, T> {
    type Item = &'a T;

    fn pi_len(&self) -> usize {
        self.slice.len()
    }

    fn pi_split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at(mid);
        (Iter { slice: a }, Iter { slice: b })
    }

    fn pi_next(&mut self) -> Option<&'a T> {
        let (first, rest) = self.slice.split_first()?;
        self.slice = rest;
        Some(first)
    }
}

/// Index-range producer (`(a..b).into_par_iter()`).
pub struct RangeIter {
    range: Range<usize>,
}

impl ParallelIterator for RangeIter {
    type Item = usize;

    fn pi_len(&self) -> usize {
        self.range.len()
    }

    fn pi_split_at(self, mid: usize) -> (Self, Self) {
        let Range { start, end } = self.range;
        let cut = start.saturating_add(mid).min(end);
        (
            RangeIter { range: start..cut },
            RangeIter { range: cut..end },
        )
    }

    fn pi_next(&mut self) -> Option<usize> {
        self.range.next()
    }
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = RangeIter;

    fn into_par_iter(self) -> RangeIter {
        RangeIter { range: self }
    }
}

/// Owned-vector producer (`vec.into_par_iter()`).
pub struct VecIter<T: Send> {
    items: VecDeque<T>,
}

impl<T: Send> ParallelIterator for VecIter<T> {
    type Item = T;

    fn pi_len(&self) -> usize {
        self.items.len()
    }

    fn pi_split_at(mut self, mid: usize) -> (Self, Self) {
        let tail = self.items.split_off(mid.min(self.items.len()));
        (self, VecIter { items: tail })
    }

    fn pi_next(&mut self) -> Option<T> {
        self.items.pop_front()
    }
}

// ---------------------------------------------------------------- entry traits

/// `into_par_iter` for owning collections and ranges.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Producer type.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Converts into a parallel pipeline.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecIter<T>;

    fn into_par_iter(self) -> VecIter<T> {
        VecIter { items: self.into() }
    }
}

/// `par_iter` on slices (and anything derefing to a slice).
pub trait ParallelSlice<T: Sync> {
    /// Borrowing parallel iterator.
    fn par_iter(&self) -> Iter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> Iter<'_, T> {
        Iter { slice: self }
    }
}

/// Everything a caller needs in scope.
pub mod prelude {
    pub use super::{IntoParallelIterator, ParallelIterator, ParallelSlice};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..10_000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 10_000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == 2 * i));
    }

    #[test]
    fn sum_matches_sequential() {
        let data: Vec<f64> = (0..5000).map(|i| i as f64 * 0.5).collect();
        let par: f64 = data.par_iter().map(|&x| x).reduce(|| 0.0, |a, b| a + b);
        let seq: f64 = data.iter().sum();
        assert!((par - seq).abs() < 1e-9);
    }

    #[test]
    fn reduce_finds_minimum() {
        let (v, i) = (0..100_000usize)
            .into_par_iter()
            .map(|i| (((i as f64) - 70_123.0).abs(), i))
            .reduce(
                || (f64::INFINITY, usize::MAX),
                |a, b| if a.0 <= b.0 { a } else { b },
            );
        assert_eq!(i, 70_123);
        assert_eq!(v, 0.0);
    }

    #[test]
    fn nested_parallel_calls_are_correct() {
        // An inner parallel pipeline inside a part runs sequentially
        // (the IN_WORKER guard) — results must be unchanged.
        let sums: Vec<u64> = (0..64usize)
            .into_par_iter()
            .map(|i| {
                (0..1000usize)
                    .into_par_iter()
                    .map(|j| (i * 1000 + j) as u64)
                    .reduce(|| 0, |a, b| a + b)
            })
            .collect();
        for (i, &s) in sums.iter().enumerate() {
            let i = i as u64;
            let expect: u64 = (0..1000u64).map(|j| i * 1000 + j).sum();
            assert_eq!(s, expect);
        }
    }

    #[test]
    fn empty_and_single_item_pipelines() {
        let empty: Vec<u32> = Vec::<u32>::new().into_par_iter().map(|x| x).collect();
        assert!(empty.is_empty());
        let none = Vec::<u32>::new().into_par_iter().reduce_with(|a, b| a + b);
        assert_eq!(none, None);
        let one = vec![41u32]
            .into_par_iter()
            .map(|x| x + 1)
            .reduce_with(|a, b| a + b);
        assert_eq!(one, Some(42));
    }
}
