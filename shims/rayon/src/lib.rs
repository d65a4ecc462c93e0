//! In-tree, dependency-free shim of the `rayon` API subset used by this
//! workspace (the build environment is offline; see `shims/README.md`).
//!
//! The model is a simplified rayon: a [`ParallelIterator`] is a
//! *splittable, exactly-sized* pipeline. Terminal operations split the
//! pipeline into one part per available core and run the parts on a
//! **lazily-initialized persistent worker pool** (`current_num_threads()
//! − 1` parked OS threads plus the calling thread itself), claiming
//! parts off a shared atomic counter and merging the partial results in
//! order. After the pool starts, terminal calls spawn no threads — the
//! dispatch cost is a channel send and an unpark per worker. There is no
//! work stealing *between* jobs; callers are still expected to gate
//! parallel dispatch on problem size (as `mbqao-sim::PAR_THRESHOLD`
//! does), which keeps even the cheap dispatch off the small-problem
//! path.
//!
//! Supported surface: `par_iter`, `par_iter_mut`, `par_chunks_mut`,
//! `into_par_iter` (ranges and `Vec`), adapters `map` / `zip` /
//! `enumerate`, terminals `for_each` / `collect` / `sum` / `reduce`.

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

    /// Pairs with another pipeline of the same length.
    fn zip<B: ParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }

    /// Attaches the item index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate {
            base: self,
            offset: 0,
        }
    }

    /// Runs `f` on every item (parallel).
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        drive(
            self,
            &|mut part| {
                while let Some(x) = part.pi_next() {
                    f(x);
                }
            },
            &|(), ()| (),
        );
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

    /// Sums the items.
    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        let partials: Vec<S> = drive(
            self,
            &|mut part| {
                let mut v = Vec::new();
                while let Some(x) = part.pi_next() {
                    v.push(x);
                }
                vec![v.into_iter().sum::<S>()]
            },
            &|mut a, mut b| {
                a.append(&mut b);
                a
            },
        );
        partials.into_iter().sum()
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
    /// `true` on the persistent pool workers (and on a caller thread
    /// while it runs its own share of a job). Nested parallel calls
    /// (e.g. a statevector kernel inside an `Executor` batch worker)
    /// run sequentially instead of multiplying dispatches — the outer
    /// fan-out already saturates the cores.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The persistent worker pool behind every terminal operation.
mod pool {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::OnceLock;
    use std::thread::Thread;

    /// Handle to one job, shared between the caller's stack frame and
    /// the ticket-holding workers.
    ///
    /// The `run` pointer targets a closure living in the caller's
    /// `drive` frame; the lifetime erasure is sound because the caller
    /// blocks in [`JobShared::wait`] until every ticket is retired, and
    /// a worker never touches the job again after retiring its ticket
    /// (the final `fetch_sub(Release)` — paired with the caller's
    /// `Acquire` load — is its last access).
    pub(crate) struct JobShared {
        /// Type-erased claim-and-run loop (catches panics internally).
        run: *const (dyn Fn() + Sync),
        /// Worker tickets not yet retired.
        pending: AtomicUsize,
    }

    impl JobShared {
        /// # Safety
        /// The caller must keep `run`'s referent alive and must not
        /// return before [`JobShared::wait`] has returned.
        pub(crate) unsafe fn new(run: &(dyn Fn() + Sync), tickets: usize) -> Self {
            JobShared {
                run: unsafe {
                    std::mem::transmute::<&(dyn Fn() + Sync), *const (dyn Fn() + Sync)>(run)
                },
                pending: AtomicUsize::new(tickets),
            }
        }

        /// Blocks until every ticket holder has retired its ticket.
        pub(crate) fn wait(&self) {
            while self.pending.load(Ordering::Acquire) > 0 {
                std::thread::park();
            }
        }
    }

    /// One unit of "come help with this job", sent to a worker.
    pub(crate) struct Ticket {
        job: *const JobShared,
        /// The caller to unpark once the last ticket retires. Each
        /// worker receives its own clone, so the unpark never reads the
        /// (possibly already freed) job.
        waiter: Thread,
    }

    // SAFETY: the raw job pointer stays valid until `JobShared::wait`
    // returns (see `JobShared::new`), and `Thread` is `Send`.
    unsafe impl Send for Ticket {}

    /// Lazily-started set of persistent workers, one channel each.
    pub(crate) struct Pool {
        workers: Vec<Sender<Ticket>>,
        /// Round-robin cursor so concurrent jobs spread their tickets.
        cursor: AtomicUsize,
    }

    static POOL: OnceLock<Pool> = OnceLock::new();
    static SPAWNED: AtomicUsize = AtomicUsize::new(0);

    /// Total pool threads ever spawned by this process — constant after
    /// initialization (asserted by the shim's stress tests).
    pub(crate) fn spawn_count() -> usize {
        SPAWNED.load(Ordering::Relaxed)
    }

    impl Pool {
        /// The process-wide pool (`current_num_threads() − 1` workers;
        /// the calling thread is the remaining executor). Started on
        /// first use.
        pub(crate) fn global() -> &'static Pool {
            POOL.get_or_init(|| {
                let n = super::current_num_threads().saturating_sub(1);
                let workers = (0..n)
                    .map(|i| {
                        let (tx, rx) = channel::<Ticket>();
                        std::thread::Builder::new()
                            .name(format!("rayon-shim-{i}"))
                            .spawn(move || worker_main(rx))
                            .expect("spawning pool worker");
                        SPAWNED.fetch_add(1, Ordering::Relaxed);
                        tx
                    })
                    .collect();
                Pool {
                    workers,
                    cursor: AtomicUsize::new(0),
                }
            })
        }

        /// Number of persistent workers.
        pub(crate) fn workers(&self) -> usize {
            self.workers.len()
        }

        /// Invites up to `m` workers to help with `job`.
        ///
        /// # Safety
        /// `job` must stay alive until its `wait` returns.
        pub(crate) unsafe fn send_tickets(&self, job: &JobShared, m: usize) {
            let me = std::thread::current();
            let start = self.cursor.fetch_add(1, Ordering::Relaxed);
            for i in 0..m {
                let tx = &self.workers[(start + i) % self.workers.len()];
                tx.send(Ticket {
                    job,
                    waiter: me.clone(),
                })
                .expect("pool worker alive");
            }
        }
    }

    fn run_ticket(t: Ticket) {
        // SAFETY: the sending `drive` frame blocks until this
        // ticket is retired below, keeping both pointers valid.
        let run = unsafe { &*(*t.job).run };
        run();
        // SAFETY: as above — `pending` is the job's own atomic.
        if unsafe { &*t.job }.pending.fetch_sub(1, Ordering::Release) == 1 {
            t.waiter.unpark();
        }
    }

    fn worker_main(rx: Receiver<Ticket>) {
        super::IN_WORKER.with(|w| w.set(true));
        while let Ok(t) = rx.recv() {
            run_ticket(t);
        }
    }
}

/// Total pool threads ever spawned by this process. Constant once the
/// pool is initialized — terminal operations reuse the persistent
/// workers instead of spawning (diagnostics/tests).
pub fn pool_spawn_count() -> usize {
    pool::spawn_count()
}

/// Locks a mutex, ignoring poisoning (the shim's slots hold plain data;
/// a poisoned lock only means some part panicked, which is tracked
/// separately and re-thrown on the caller).
fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Splits `iter` into up to `current_num_threads()` parts and runs `seq`
/// on each part across the persistent pool (the calling thread claims
/// parts too), merging results in order. Worker panics are propagated to
/// the caller after the job fully drains. Already inside a worker
/// thread, runs sequentially (no nested dispatch).
fn drive<P, R, S, M>(iter: P, seq: &S, merge: &M) -> R
where
    P: ParallelIterator,
    R: Send,
    S: Fn(P) -> R + Sync,
    M: Fn(R, R) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let n = iter.pi_len();
    let threads = current_num_threads();
    let k = threads.min(n);
    if k <= 1 || IN_WORKER.with(|w| w.get()) {
        return seq(iter);
    }
    let pool = pool::Pool::global();
    if pool.workers() == 0 {
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

    // Parts are claimed exactly once off the shared counter; slots and
    // results are per-part mutexes only to keep the hand-off safe code.
    let slots: Vec<Mutex<Option<P>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..k).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let run = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= k {
            break;
        }
        let part = lock(&slots[i]).take().expect("each part is claimed once");
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| seq(part))) {
            Ok(r) => *lock(&results[i]) = Some(r),
            Err(payload) => *lock(&panicked) = Some(payload),
        }
    };

    let tickets = pool.workers().min(k - 1);
    // SAFETY: this frame keeps `run` (and everything it captures) alive
    // and blocks in `job.wait()` below before any of it drops.
    let job = unsafe { pool::JobShared::new(&run, tickets) };
    // SAFETY: `job` outlives `job.wait()`.
    unsafe { pool.send_tickets(&job, tickets) };

    // The caller claims parts too; its share must not re-dispatch.
    let prev = IN_WORKER.with(|w| w.replace(true));
    run();
    IN_WORKER.with(|w| w.set(prev));
    job.wait();

    if let Some(payload) = lock(&panicked).take() {
        std::panic::resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|r| {
            r.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every part produced a result")
        })
        .reduce(merge)
        .expect("at least one part")
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

/// See [`ParallelIterator::zip`].
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);

    fn pi_len(&self) -> usize {
        self.a.pi_len().min(self.b.pi_len())
    }

    fn pi_split_at(self, mid: usize) -> (Self, Self) {
        let (a1, a2) = self.a.pi_split_at(mid);
        let (b1, b2) = self.b.pi_split_at(mid);
        (Zip { a: a1, b: b1 }, Zip { a: a2, b: b2 })
    }

    fn pi_next(&mut self) -> Option<Self::Item> {
        match (self.a.pi_next(), self.b.pi_next()) {
            (Some(x), Some(y)) => Some((x, y)),
            _ => None,
        }
    }
}

/// See [`ParallelIterator::enumerate`].
pub struct Enumerate<P> {
    base: P,
    offset: usize,
}

impl<P: ParallelIterator> ParallelIterator for Enumerate<P> {
    type Item = (usize, P::Item);

    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }

    fn pi_split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.pi_split_at(mid);
        (
            Enumerate {
                base: a,
                offset: self.offset,
            },
            Enumerate {
                base: b,
                offset: self.offset + mid,
            },
        )
    }

    fn pi_next(&mut self) -> Option<Self::Item> {
        let x = self.base.pi_next()?;
        let i = self.offset;
        self.offset += 1;
        Some((i, x))
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

/// Mutable-slice producer (`par_iter_mut`).
pub struct IterMut<'a, T: Send> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParallelIterator for IterMut<'a, T> {
    type Item = &'a mut T;

    fn pi_len(&self) -> usize {
        self.slice.len()
    }

    fn pi_split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at_mut(mid);
        (IterMut { slice: a }, IterMut { slice: b })
    }

    fn pi_next(&mut self) -> Option<&'a mut T> {
        let slice = std::mem::take(&mut self.slice);
        let (first, rest) = slice.split_first_mut()?;
        self.slice = rest;
        Some(first)
    }
}

/// Mutable-chunks producer (`par_chunks_mut`).
pub struct ChunksMut<'a, T: Send> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParallelIterator for ChunksMut<'a, T> {
    type Item = &'a mut [T];

    fn pi_len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    fn pi_split_at(self, mid: usize) -> (Self, Self) {
        let cut = (mid * self.size).min(self.slice.len());
        let (a, b) = self.slice.split_at_mut(cut);
        (
            ChunksMut {
                slice: a,
                size: self.size,
            },
            ChunksMut {
                slice: b,
                size: self.size,
            },
        )
    }

    fn pi_next(&mut self) -> Option<&'a mut [T]> {
        if self.slice.is_empty() {
            return None;
        }
        let slice = std::mem::take(&mut self.slice);
        let cut = self.size.min(slice.len());
        let (chunk, rest) = slice.split_at_mut(cut);
        self.slice = rest;
        Some(chunk)
    }
}

/// Integer-range producer (`(a..b).into_par_iter()`).
pub struct RangeIter<T> {
    start: T,
    end: T,
}

macro_rules! impl_range_iter {
    ($($t:ty),*) => {$(
        impl ParallelIterator for RangeIter<$t> {
            type Item = $t;

            fn pi_len(&self) -> usize {
                (self.end.saturating_sub(self.start)) as usize
            }

            fn pi_split_at(self, mid: usize) -> (Self, Self) {
                let cut = self.start.saturating_add(mid as $t).min(self.end);
                (
                    RangeIter { start: self.start, end: cut },
                    RangeIter { start: cut, end: self.end },
                )
            }

            fn pi_next(&mut self) -> Option<$t> {
                if self.start >= self.end {
                    return None;
                }
                let v = self.start;
                self.start += 1;
                Some(v)
            }
        }

        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            type Iter = RangeIter<$t>;

            fn into_par_iter(self) -> RangeIter<$t> {
                RangeIter { start: self.start, end: self.end }
            }
        }
    )*};
}
impl_range_iter!(usize, u64, u32);

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

/// `par_iter_mut` / `par_chunks_mut` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Mutably borrowing parallel iterator.
    fn par_iter_mut(&mut self) -> IterMut<'_, T>;

    /// Parallel iterator over mutable chunks of `size` elements
    /// (the last chunk may be shorter).
    fn par_chunks_mut(&mut self, size: usize) -> ChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> IterMut<'_, T> {
        IterMut { slice: self }
    }

    fn par_chunks_mut(&mut self, size: usize) -> ChunksMut<'_, T> {
        assert!(size > 0, "chunk size must be nonzero");
        ChunksMut { slice: self, size }
    }
}

/// Everything a caller needs in scope.
pub mod prelude {
    pub use super::{IntoParallelIterator, ParallelIterator, ParallelSlice, ParallelSliceMut};
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
        let par: f64 = data.par_iter().map(|&x| x).sum();
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
    fn chunks_mut_zip_writes_all() {
        let src: Vec<u64> = (0..4096).collect();
        let mut dst = vec![0u64; 8192];
        dst.par_chunks_mut(2)
            .zip(src.par_iter())
            .for_each(|(pair, &a)| {
                pair[0] = a;
                pair[1] = a + 1;
            });
        for (i, &s) in src.iter().enumerate() {
            assert_eq!(dst[2 * i], s);
            assert_eq!(dst[2 * i + 1], s + 1);
        }
    }

    #[test]
    fn enumerate_offsets_survive_split() {
        let mut flags = vec![false; 9999];
        let data = vec![1u8; 9999];
        let idx: Vec<usize> = data.par_iter().enumerate().map(|(i, _)| i).collect();
        for (expect, &got) in idx.iter().enumerate() {
            assert_eq!(expect, got);
            flags[got] = true;
        }
        assert!(flags.iter().all(|&f| f));
    }

    #[test]
    fn iter_mut_for_each_touches_everything() {
        let mut v = vec![1i64; 50_000];
        v.par_iter_mut()
            .enumerate()
            .for_each(|(i, x)| *x += i as i64);
        assert!(v.iter().enumerate().all(|(i, &x)| x == 1 + i as i64));
    }

    #[test]
    fn nested_parallel_calls_are_correct() {
        // An inner parallel pipeline inside a worker runs sequentially
        // (the IN_WORKER guard) — results must be unchanged.
        let sums: Vec<u64> = (0..64u64)
            .into_par_iter()
            .map(|i| {
                (0..1000u64)
                    .into_par_iter()
                    .map(|j| i * 1000 + j)
                    .sum::<u64>()
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
        let one: u32 = vec![41u32].into_par_iter().map(|x| x + 1).sum();
        assert_eq!(one, 42);
    }
}
