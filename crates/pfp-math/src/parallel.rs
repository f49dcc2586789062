//! Deterministic sample-sharding helpers for parallel gradient accumulation.
//!
//! The DMCP objective is a mean over per-sample terms, so its gradient can be
//! accumulated in parallel: split the sample range into contiguous chunks,
//! accumulate each chunk into a thread-local buffer, and reduce the partial
//! buffers.  The helpers here fix *both* the chunk boundaries and the
//! reduction order so that a parallel run is reproducible, and [`WorkerPool`]
//! keeps one set of worker threads alive across many evaluations so the
//! per-call cost is a channel send, not a thread spawn.
//!
//! # Determinism contract
//!
//! * [`chunk_ranges`] is a pure function of `(len, chunks)` — the same inputs
//!   always produce the same split.
//! * [`tree_reduce_matrices`] and [`tree_reduce_sums`] combine partial results
//!   in a fixed pairwise order that depends only on the number of partials.
//! * [`WorkerPool::run`] returns results in task-submission order no matter
//!   which worker executed which task, so feeding its output to the tree
//!   reductions preserves the fixed summation order.
//!
//! Together these make a sharded accumulation **bitwise deterministic for a
//! fixed thread count**: every run with `t` threads performs the exact same
//! floating-point additions in the exact same order.  Different thread counts
//! change the summation order, so results across thread counts agree only up
//! to floating-point rounding (≈1e-15 relative, well under the 1e-12
//! equivalence bound the trainer's tests enforce), not bitwise.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;

use crate::dense::Matrix;

/// Resolve a user-facing thread-count knob: `0` means "use all available
/// parallelism", any other value is taken literally.
///
/// ```
/// assert_eq!(pfp_math::parallel::resolve_threads(4), 4);
/// assert!(pfp_math::parallel::resolve_threads(0) >= 1);
/// ```
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Split `0..len` into at most `chunks` contiguous, non-empty ranges of
/// near-equal size (the first `len % chunks` ranges are one element longer).
///
/// Returns fewer than `chunks` ranges when `len < chunks` (one range per
/// element), and an empty vector when `len == 0` — callers never see an empty
/// chunk, so the degenerate "cohort smaller than thread count" case needs no
/// special handling at the call site.
///
/// ```
/// use pfp_math::parallel::chunk_ranges;
/// assert_eq!(chunk_ranges(10, 4), vec![0..3, 3..6, 6..8, 8..10]);
/// assert_eq!(chunk_ranges(2, 8).len(), 2); // degenerate: len < chunks
/// assert!(chunk_ranges(0, 4).is_empty());
/// ```
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, len);
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// The overlap of two ranges (empty — `lo..lo` — when they do not overlap).
///
/// The sharded objective fold uses this to map a global per-thread chunk onto
/// the shard blocks it crosses: chunks come from [`chunk_ranges`] over the
/// *total* sample count, shards carry their own global sub-ranges, and each
/// `(chunk, shard)` pair contributes exactly their intersection.
///
/// ```
/// use pfp_math::parallel::intersect_ranges;
/// assert_eq!(intersect_ranges(&(2..8), &(5..20)), 5..8);
/// assert!(intersect_ranges(&(2..8), &(10..20)).is_empty());
/// ```
pub fn intersect_ranges(a: &Range<usize>, b: &Range<usize>) -> Range<usize> {
    let lo = a.start.max(b.start);
    let hi = a.end.min(b.end);
    lo..hi.max(lo)
}

/// A boxed unit of work executed by a pool worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why a pooled fork-join failed as a whole.
///
/// Distinct from a *task* panic: a panicking task is a caller bug and is
/// re-raised on the calling thread ([`WorkerPool::try_run`] contains it with
/// `catch_unwind`, so the worker survives).  A `PoolError` means the pool
/// itself lost capacity — worker threads died at the dispatch level — and the
/// submitted tasks can no longer all be served.  Long-lived callers (the
/// serve path) turn this into per-request errors instead of a process abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The job channel is closed: every worker thread has exited, so no task
    /// submitted to this pool can run again.
    ShutDown,
    /// `missing` submitted tasks were accepted onto the job queue but
    /// destroyed unrun (their worker died before or while holding them), so
    /// their results never arrived.
    WorkerLost {
        /// Number of submitted tasks that never reported a result.
        missing: usize,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::ShutDown => write!(f, "worker pool has shut down (all workers exited)"),
            PoolError::WorkerLost { missing } => write!(
                f,
                "worker pool lost {missing} task result(s) (worker thread died)"
            ),
        }
    }
}

impl std::error::Error for PoolError {}

/// A persistent pool of worker threads for repeated fork-join evaluations.
///
/// The sharded DMCP objective evaluates thousands of loss/gradient passes per
/// ADMM solve; spawning scoped threads for each pass (the PR 2 design) costs
/// tens of microseconds of spawn/join per evaluation, which dominates on
/// small cohorts.  A `WorkerPool` is created once (per `train` call / ADMM
/// solve), keeps its `std::thread` workers parked on a shared channel, and
/// dispatches each evaluation's chunk closures as boxed jobs — the per-call
/// cost drops to a channel round-trip.
///
/// [`run`](Self::run) is a synchronous fork-join: it blocks until every
/// submitted task has completed and returns the results **in submission
/// order**, regardless of which worker ran which task.  That ordering is what
/// lets callers feed the results straight into the fixed-order tree
/// reductions and keep the bitwise-determinism contract of this module.
///
/// A pool built with `threads <= 1` spawns no workers at all; `run` then
/// executes the tasks inline on the caller's thread in submission order,
/// which is exactly the serial path.
///
/// ```
/// use pfp_math::parallel::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let data = vec![1.0, 2.0, 3.0, 4.0];
/// // Tasks may borrow non-'static data; results come back in order.
/// let doubled = pool.run((0..4).map(|i| { let d = &data; move || 2.0 * d[i] }).collect());
/// assert_eq!(doubled, vec![2.0, 4.0, 6.0, 8.0]);
/// ```
pub struct WorkerPool {
    /// `None` for the workerless (serial) pool.
    job_tx: Option<Sender<Job>>,
    /// Weak handle on the shared job receiver.  Workers hold the strong
    /// references, so the receiver still dies with the last worker (keeping
    /// the `ShutDown` semantics of a fully-dead pool), but
    /// [`respawn_workers`](Self::respawn_workers) can upgrade this to attach
    /// replacement workers to the surviving queue.
    job_rx: Weak<Mutex<Receiver<Job>>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn a pool of `threads` workers (`0` = all available parallelism,
    /// `1` = no workers, serial execution in [`run`](Self::run)).
    pub fn new(threads: usize) -> Self {
        let threads = resolve_threads(threads);
        if threads <= 1 {
            return Self {
                job_tx: None,
                job_rx: Weak::new(),
                workers: Vec::new(),
            };
        }
        let (job_tx, job_rx) = channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers = (0..threads)
            .map(|_| Self::spawn_worker(Arc::clone(&job_rx)))
            .collect();
        Self {
            job_tx: Some(job_tx),
            job_rx: Arc::downgrade(&job_rx),
            workers,
        }
    }

    fn spawn_worker(job_rx: Arc<Mutex<Receiver<Job>>>) -> JoinHandle<()> {
        std::thread::spawn(move || loop {
            // Hold the lock only while dequeuing, never while running.
            let job = match job_rx.lock() {
                Ok(rx) => rx.recv(),
                Err(_) => break, // lock poisoned: pool is shutting down
            };
            match job {
                Ok(job) => job(),
                Err(_) => break, // channel closed: pool dropped
            }
        })
    }

    /// Replace every dead worker thread with a freshly spawned one, returning
    /// how many were respawned (`0` when nothing was lost, and always `0` on
    /// a serial pool).
    ///
    /// If at least one worker survived, replacements attach to the existing
    /// job queue.  If *every* worker died, the old queue (and any jobs
    /// destroyed with it — their submitters already saw a [`PoolError`]) is
    /// gone, so a fresh channel is built and the pool comes back at full
    /// strength.  Either way [`workers`](Self::workers) is unchanged: the
    /// pool's configured width is an invariant.
    ///
    /// This is the mechanical half of recovery; policy (when to retry, how to
    /// back off after repeated deaths) lives in
    /// [`Supervisor`](crate::supervise::Supervisor).
    pub fn respawn_workers(&mut self) -> usize {
        if self.job_tx.is_none() {
            return 0; // serial pool: no workers to lose
        }
        let mut kept = Vec::with_capacity(self.workers.len());
        let mut respawn = 0usize;
        for handle in self.workers.drain(..) {
            if handle.is_finished() {
                let _ = handle.join(); // reap; a panicked worker is expected here
                respawn += 1;
            } else {
                kept.push(handle);
            }
        }
        self.workers = kept;
        if respawn == 0 {
            return 0;
        }
        let job_rx = match self.job_rx.upgrade() {
            Some(rx) => rx,
            None => {
                // Every worker died and dropped its receiver handle: rebuild
                // the channel.  The old sender is replaced so later runs
                // enqueue onto the new queue.
                let (job_tx, job_rx) = channel::<Job>();
                self.job_tx = Some(job_tx);
                let job_rx = Arc::new(Mutex::new(job_rx));
                self.job_rx = Arc::downgrade(&job_rx);
                job_rx
            }
        };
        for _ in 0..respawn {
            self.workers.push(Self::spawn_worker(Arc::clone(&job_rx)));
        }
        // `job_rx` (the local strong reference) drops here, so the receiver
        // is again owned exclusively by the worker threads.
        respawn
    }

    /// Number of worker threads this pool was built with (`0` for a serial
    /// pool).  Workers that died since (see [`live_workers`](Self::live_workers))
    /// are still counted — this is the configured width, used e.g. to shard
    /// work into one chunk per worker.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Number of worker threads that are still running.  Strictly less than
    /// [`workers`](Self::workers) once a worker has died (e.g. via
    /// [`inject_worker_failure`](Self::inject_worker_failure)); `0` for a
    /// serial pool or a fully dead one.
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| !w.is_finished()).count()
    }

    /// Fault injection: kill one parked worker thread by handing it a job
    /// that panics at the worker-loop level — *outside* the `catch_unwind`
    /// wrapper [`try_run`](Self::try_run) places around caller tasks — so the
    /// worker unwinds and exits.  Once every worker has died the shared job
    /// receiver is dropped and subsequent runs report [`PoolError`].
    ///
    /// Used by the kill-a-worker regression tests and the serve-path
    /// resilience harness.  Returns `false` on a serial pool (no workers to
    /// kill) or when the pool is already fully shut down.
    pub fn inject_worker_failure(&self) -> bool {
        let Some(job_tx) = &self.job_tx else {
            return false;
        };
        job_tx
            .send(Box::new(|| {
                panic!("injected worker failure (fault injection)")
            }))
            .is_ok()
    }

    /// Execute `tasks` and return their results **in submission order**,
    /// blocking until all have finished.
    ///
    /// Exactly [`try_run`](Self::try_run), with pool failures converted into
    /// a panic: the solver-side callers (the sharded DMCP objective) have no
    /// channel to surface a `PoolError` through and a dead pool mid-solve is
    /// unrecoverable for them anyway.  Long-lived callers that must survive
    /// worker loss (the serve path) call `try_run` instead.
    ///
    /// # Panics
    /// If a task panics on a pooled run, the panic is re-raised on the
    /// calling thread *after* all remaining tasks have completed (workers
    /// survive task panics).  On the workerless serial pool tasks run inline,
    /// so a panic propagates immediately and later tasks never start.
    /// Additionally panics if the pool itself has failed (`PoolError`).
    pub fn run<'env, T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        match self.try_run(tasks) {
            Ok(results) => results,
            Err(err) => panic!("{err}"),
        }
    }

    /// Execute `tasks` and return their results **in submission order**,
    /// blocking until all have finished; pool failures come back as a typed
    /// [`PoolError`] instead of a panic.
    ///
    /// Tasks may borrow data from the caller's stack (the `'env` lifetime):
    /// the call does not return — normally, by panic, or with an error —
    /// until every submitted task has either run to completion or been
    /// destroyed unrun, so no job can outlive what it borrows.
    ///
    /// Task panics are still re-raised on the calling thread (a panicking
    /// task is a caller bug, not a pool failure), taking precedence over any
    /// concurrent `PoolError`.
    pub fn try_run<'env, T, F>(&self, tasks: Vec<F>) -> Result<Vec<T>, PoolError>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let Some(job_tx) = &self.job_tx else {
            return Ok(tasks.into_iter().map(|task| task()).collect());
        };
        let n = tasks.len();
        let (result_tx, result_rx) = channel::<(usize, std::thread::Result<T>)>();
        let mut submitted = 0usize;
        let mut pool_down = false;
        for (slot, task) in tasks.into_iter().enumerate() {
            let result_tx = result_tx.clone();
            let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                // Contain task panics to the job so the worker thread (and the
                // other in-flight jobs of this call) keep running; the payload
                // is re-thrown on the calling thread below.
                let result = catch_unwind(AssertUnwindSafe(task));
                let _ = result_tx.send((slot, result));
            });
            // SAFETY: the job borrows `'env` data, but this function blocks on
            // `result_rx` until every submitted job has reported completion
            // (and workers run jobs to completion before dequeuing the next),
            // so no job can be alive after `run` returns or unwinds.  Erasing
            // the lifetime is therefore sound; it is what lets long-lived
            // workers accept short-lived borrows.
            let job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
            if job_tx.send(job).is_err() {
                // The job channel is closed: every worker has exited (e.g.
                // after injected failures).  We must not unwind here — jobs
                // already submitted still borrow `'env` data, so fall through
                // and drain them first, then report the failure as a typed
                // error.
                pool_down = true;
                break;
            }
            submitted += 1;
        }
        drop(result_tx);
        let mut slots: Vec<Option<std::thread::Result<T>>> = (0..n).map(|_| None).collect();
        for _ in 0..submitted {
            match result_rx.recv() {
                Ok((slot, result)) => slots[slot] = Some(result),
                // Every result sender is gone: each submitted job either
                // reported or was destroyed unrun, so nothing is in flight.
                Err(_) => break,
            }
        }
        // Collect in submission order.  A task panic is re-raised with
        // priority (it is the likeliest root cause and must not be silently
        // swallowed); missing results — a worker died holding the job, or the
        // job was destroyed unrun when the queue dropped — become a typed
        // pool error instead of the old `expect` panic.
        let mut values = Vec::with_capacity(n);
        let mut missing = 0usize;
        for result in slots {
            match result {
                Some(Ok(value)) => values.push(value),
                Some(Err(payload)) => resume_unwind(payload),
                None => missing += 1,
            }
        }
        if pool_down {
            return Err(PoolError::ShutDown);
        }
        if missing > 0 {
            return Err(PoolError::WorkerLost { missing });
        }
        Ok(values)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job channel wakes every parked worker with a recv error.
        self.job_tx.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Reduce partial gradient matrices into one by fixed-order pairwise folding.
///
/// At each level the upper half of the list is added into the lower half
/// (`parts[i] += parts[i + ceil(n/2)]`), halving the list until one matrix
/// remains.  The order of floating-point additions depends only on
/// `parts.len()`, which is what makes a fixed thread count bitwise
/// reproducible.  Returns `None` for an empty input.
///
/// # Panics
/// Panics if the matrices do not all share one shape.
pub fn tree_reduce_matrices(mut parts: Vec<Matrix>) -> Option<Matrix> {
    let (first, rest) = parts.split_first_mut()?;
    tree_reduce_into(first, rest);
    parts.truncate(1);
    parts.pop()
}

/// [`tree_reduce_matrices`] over the parts `[first, rest[0], rest[1], …]`,
/// in place: the same additions in the same order, the sum left in `first`
/// and no matrix allocated.  `rest` is left holding partial sums.
///
/// ```
/// use pfp_math::{parallel::tree_reduce_into, Matrix};
///
/// let mut first = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
/// let mut rest = vec![Matrix::from_vec(1, 2, vec![10.0, 20.0]); 2];
/// tree_reduce_into(&mut first, &mut rest);
/// assert_eq!(first.as_slice(), &[21.0, 42.0]);
/// ```
///
/// # Panics
/// Panics if the matrices do not all share one shape.
pub fn tree_reduce_into(first: &mut Matrix, rest: &mut [Matrix]) {
    // Part `i` is `first` for `i == 0`, else `rest[i - 1]`.
    let mut n = rest.len() + 1;
    while n > 1 {
        let stride = n - n / 2; // ceil(n / 2)
                                // Only the active prefix `parts[..n]` participates; entries past it
                                // were already folded in at an earlier level.
        first.add_scaled(&rest[stride - 1], 1.0);
        let (lower, upper) = rest.split_at_mut(stride - 1);
        for (a, b) in lower[..n - stride - 1].iter_mut().zip(&upper[1..]) {
            a.add_scaled(b, 1.0);
        }
        n = stride;
    }
}

/// Reduce partial scalar sums with the same fixed pairwise order as
/// [`tree_reduce_matrices`].
pub fn tree_reduce_sums(mut parts: Vec<f64>) -> f64 {
    let mut n = parts.len();
    while n > 1 {
        let stride = n - n / 2;
        for i in 0..n - stride {
            parts[i] += parts[i + stride];
        }
        n = stride;
    }
    parts.first().copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_the_input_exactly_once() {
        for len in [0usize, 1, 2, 7, 10, 100, 101] {
            for chunks in [1usize, 2, 3, 4, 8, 200] {
                let ranges = chunk_ranges(len, chunks);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, len, "len={len} chunks={chunks}");
                assert!(ranges.iter().all(|r| !r.is_empty()));
                assert!(ranges.len() <= chunks.max(1));
                for pair in ranges.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start, "ranges must be contiguous");
                }
                // Near-equal: sizes differ by at most one.
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|r| r.len()).min(),
                    ranges.iter().map(|r| r.len()).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn chunk_ranges_is_deterministic() {
        assert_eq!(chunk_ranges(10, 4), chunk_ranges(10, 4));
        assert_eq!(chunk_ranges(10, 4), vec![0..3, 3..6, 6..8, 8..10]);
    }

    #[test]
    fn intersect_ranges_covers_overlap_cases() {
        // Partial overlaps from either side, containment, identity.
        assert_eq!(intersect_ranges(&(0..5), &(3..9)), 3..5);
        assert_eq!(intersect_ranges(&(3..9), &(0..5)), 3..5);
        assert_eq!(intersect_ranges(&(2..8), &(0..20)), 2..8);
        assert_eq!(intersect_ranges(&(0..20), &(2..8)), 2..8);
        assert_eq!(intersect_ranges(&(4..7), &(4..7)), 4..7);
        // Disjoint and touching ranges are empty, never inverted.
        assert!(intersect_ranges(&(0..3), &(3..6)).is_empty());
        assert!(intersect_ranges(&(0..3), &(7..9)).is_empty());
        assert!(intersect_ranges(&(7..9), &(0..3)).is_empty());
        assert!(intersect_ranges(&(2..2), &(0..9)).is_empty());
    }

    #[test]
    fn chunks_intersected_with_shards_tile_the_chunk_exactly() {
        // The sharded-fold invariant: for any chunking and any sharding of the
        // same 0..len, each chunk is tiled exactly by its shard intersections,
        // in order.
        let len = 29;
        for chunks in [1usize, 2, 3, 8] {
            for shard in [1usize, 4, 7, 29, 64] {
                let shard_ranges: Vec<Range<usize>> = (0..len)
                    .step_by(shard)
                    .map(|s| s..(s + shard).min(len))
                    .collect();
                for chunk in chunk_ranges(len, chunks) {
                    let mut cursor = chunk.start;
                    for s in &shard_ranges {
                        let overlap = intersect_ranges(&chunk, s);
                        if overlap.is_empty() {
                            continue;
                        }
                        assert_eq!(overlap.start, cursor, "chunks={chunks} shard={shard}");
                        cursor = overlap.end;
                    }
                    assert_eq!(cursor, chunk.end, "chunks={chunks} shard={shard}");
                }
            }
        }
    }

    #[test]
    fn tree_reduce_matrices_sums_all_parts() {
        for n in 1..=9 {
            let parts: Vec<Matrix> = (0..n)
                .map(|i| Matrix::from_fn(3, 2, |r, c| (i * 10 + r * 2 + c) as f64))
                .collect();
            let expected = {
                let mut acc = Matrix::zeros(3, 2);
                for p in &parts {
                    acc.add_scaled(p, 1.0);
                }
                acc
            };
            let reduced = tree_reduce_matrices(parts).expect("non-empty");
            assert!(
                reduced.sub(&expected).frobenius_norm() < 1e-12,
                "n={n} mismatch"
            );
        }
    }

    /// The in-place reduce adds in the pairwise order of the plain
    /// list-halving loop, bit for bit, on parts whose sum depends on the
    /// order.
    #[test]
    fn tree_reduce_into_keeps_the_pairwise_order_bitwise() {
        for n in 1..=9usize {
            let parts: Vec<Matrix> = (0..n)
                .map(|i| {
                    Matrix::from_fn(2, 3, |r, c| match (i + r + c) % 3 {
                        0 => 1e16 * if i % 2 == 0 { 1.0 } else { -1.0 },
                        1 => 1.0 + 0.1 * i as f64,
                        _ => -0.3 * (i * 7 + c) as f64,
                    })
                })
                .collect();
            let mut oracle = parts.clone();
            let mut m = n;
            while m > 1 {
                let stride = m - m / 2;
                for i in 0..m - stride {
                    let b = oracle[i + stride].clone();
                    oracle[i].add_scaled(&b, 1.0);
                }
                m = stride;
            }
            let (mut first, mut rest) = (parts[0].clone(), parts[1..].to_vec());
            tree_reduce_into(&mut first, &mut rest);
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&first), bits(&oracle[0]), "n={n}");
            let reduced = tree_reduce_matrices(parts).expect("non-empty");
            assert_eq!(bits(&reduced), bits(&oracle[0]), "n={n}");
        }
    }

    #[test]
    fn tree_reduce_matrices_handles_empty_and_single() {
        assert!(tree_reduce_matrices(Vec::new()).is_none());
        let single = vec![Matrix::from_fn(2, 2, |r, c| (r + c) as f64)];
        let out = tree_reduce_matrices(single.clone()).unwrap();
        assert_eq!(out, single[0]);
    }

    #[test]
    fn tree_reduce_sums_matches_serial_sum() {
        for n in 0..=9 {
            let parts: Vec<f64> = (0..n).map(|i| 0.1 * i as f64 + 1.0).collect();
            let serial: f64 = parts.iter().sum();
            assert!((tree_reduce_sums(parts) - serial).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    fn resolve_threads_passes_explicit_counts_through() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn worker_pool_returns_results_in_submission_order() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.workers(), 4);
        let tasks: Vec<_> = (0..16)
            .map(|i| {
                move || {
                    // Stagger finish times so completion order ≠ submission order.
                    std::thread::sleep(std::time::Duration::from_micros(((16 - i) * 50) as u64));
                    i * i
                }
            })
            .collect();
        let results = pool.run(tasks);
        assert_eq!(results, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn worker_pool_of_one_runs_inline_with_no_workers() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 0);
        let out = pool.run(vec![|| 1, || 2, || 3]);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn worker_pool_tasks_may_borrow_the_callers_stack() {
        let pool = WorkerPool::new(3);
        let data: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ranges = chunk_ranges(data.len(), 3);
        let partials = pool.run(
            ranges
                .into_iter()
                .map(|r| {
                    let data = &data;
                    move || data[r].iter().sum::<f64>()
                })
                .collect(),
        );
        assert!((tree_reduce_sums(partials) - 45.0).abs() < 1e-12);
    }

    #[test]
    fn worker_pool_is_reusable_across_many_runs() {
        let pool = WorkerPool::new(2);
        for round in 0..50 {
            let out = pool.run((0..4).map(|i| move || i + round).collect());
            assert_eq!(out, vec![round, round + 1, round + 2, round + 3]);
        }
    }

    #[test]
    fn worker_pool_handles_more_tasks_than_workers() {
        let pool = WorkerPool::new(2);
        let out = pool.run((0..64).map(|i| move || i).collect());
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    /// Spin until the pool has at most `want` live workers (the injected
    /// poison job is executed asynchronously by whichever worker dequeues it).
    fn wait_for_live_workers(pool: &WorkerPool, want: usize) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while pool.live_workers() > want {
            assert!(
                std::time::Instant::now() < deadline,
                "workers never exited (live = {})",
                pool.live_workers()
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn killing_every_worker_degrades_to_a_typed_error_not_a_panic() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.live_workers(), 2);
        assert!(pool.inject_worker_failure());
        assert!(pool.inject_worker_failure());
        wait_for_live_workers(&pool, 0);
        // The job channel's receiver is gone: the run must fail with a typed
        // error (the old code panicked with "worker pool has shut down").
        let result = pool.try_run((0..4).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(result, Err(PoolError::ShutDown));
        // The panicking wrapper reports the same condition as a clean panic
        // message, not a raw `expect` failure.
        let panic = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run((0..4).map(|i| move || i).collect::<Vec<_>>());
        }));
        assert!(panic.is_err(), "run() must panic on a dead pool");
    }

    #[test]
    fn killing_one_worker_leaves_the_pool_functional() {
        let pool = WorkerPool::new(4);
        assert!(pool.inject_worker_failure());
        wait_for_live_workers(&pool, 3);
        // The surviving workers keep serving fork-joins, in order.
        for round in 0..20 {
            let out = pool
                .try_run((0..8).map(|i| move || i + round).collect::<Vec<_>>())
                .expect("pool with live workers must keep serving");
            assert_eq!(out, (0..8).map(|i| i + round).collect::<Vec<_>>());
        }
        assert_eq!(pool.live_workers(), 3);
    }

    #[test]
    fn worker_death_racing_a_run_reports_a_pool_error() {
        // Poison the only-just-alive pool and immediately submit work: the
        // poison job sits ahead of the tasks in the FIFO job queue, so the
        // tasks are either destroyed unrun (WorkerLost) or never accepted
        // (ShutDown), depending on how fast the workers die.  Either way the
        // caller sees a typed error, never a panic or a hang.
        for _ in 0..10 {
            let pool = WorkerPool::new(2);
            assert!(pool.inject_worker_failure());
            assert!(pool.inject_worker_failure());
            match pool.try_run((0..16).map(|i| move || i).collect::<Vec<_>>()) {
                Err(PoolError::ShutDown) | Err(PoolError::WorkerLost { .. }) => {}
                Ok(_) => panic!("all workers were poisoned before submission"),
            }
        }
    }

    #[test]
    fn injecting_into_a_serial_pool_is_a_no_op() {
        let pool = WorkerPool::new(1);
        assert!(!pool.inject_worker_failure());
        assert_eq!(pool.live_workers(), 0);
        assert_eq!(
            pool.try_run(vec![|| 1, || 2])
                .expect("serial pool never fails"),
            vec![1, 2]
        );
    }

    #[test]
    fn pool_error_messages_are_descriptive() {
        assert!(PoolError::ShutDown.to_string().contains("shut down"));
        assert!(PoolError::WorkerLost { missing: 3 }
            .to_string()
            .contains("lost 3 task result"));
    }

    #[test]
    fn respawn_after_killing_every_worker_restores_full_strength() {
        let mut pool = WorkerPool::new(2);
        assert!(pool.inject_worker_failure());
        assert!(pool.inject_worker_failure());
        wait_for_live_workers(&pool, 0);
        assert_eq!(
            pool.try_run((0..4).map(|i| move || i).collect::<Vec<_>>()),
            Err(PoolError::ShutDown)
        );
        assert_eq!(pool.respawn_workers(), 2);
        assert_eq!(pool.workers(), 2, "configured width is an invariant");
        assert_eq!(pool.live_workers(), 2);
        // The rebuilt pool serves fork-joins in submission order again.
        for round in 0..10 {
            let out = pool
                .try_run((0..8).map(|i| move || i * round).collect::<Vec<_>>())
                .expect("respawned pool must serve");
            assert_eq!(out, (0..8).map(|i| i * round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn respawn_after_partial_loss_reattaches_to_the_surviving_queue() {
        let mut pool = WorkerPool::new(4);
        assert!(pool.inject_worker_failure());
        wait_for_live_workers(&pool, 3);
        assert_eq!(pool.respawn_workers(), 1);
        assert_eq!(pool.live_workers(), 4);
        let out = pool
            .try_run((0..16).map(|i| move || i + 1).collect::<Vec<_>>())
            .expect("healed pool must serve");
        assert_eq!(out, (1..17).collect::<Vec<_>>());
    }

    #[test]
    fn respawn_is_a_no_op_on_healthy_and_serial_pools() {
        let mut healthy = WorkerPool::new(2);
        assert_eq!(healthy.respawn_workers(), 0);
        assert_eq!(healthy.live_workers(), 2);
        let mut serial = WorkerPool::new(1);
        assert_eq!(serial.respawn_workers(), 0);
        assert_eq!(serial.workers(), 0);
    }

    #[test]
    fn respawn_survives_repeated_kill_cycles() {
        let mut pool = WorkerPool::new(2);
        for round in 0..5 {
            assert!(pool.inject_worker_failure());
            assert!(pool.inject_worker_failure() || pool.live_workers() <= 1);
            wait_for_live_workers(&pool, 0);
            assert!(pool.respawn_workers() >= 1, "round {round}");
            wait_for_live_workers(&pool, 2); // no-op guard: must not exceed 2
            assert_eq!(pool.live_workers(), 2, "round {round}");
            let out = pool
                .try_run((0..4).map(|i| move || i).collect::<Vec<_>>())
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert_eq!(out, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn worker_pool_propagates_task_panics_and_survives_them() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![
                Box::new(|| 1) as Box<dyn FnOnce() -> i32 + Send>,
                Box::new(|| panic!("task exploded")),
            ]);
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        // The pool is still usable afterwards.
        let out = pool.run(vec![|| 40, || 2]);
        assert_eq!(out, vec![40, 2]);
    }
}
