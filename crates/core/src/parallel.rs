//! Shared parallel execution for verification-style loops.
//!
//! Stage 1, signature selection and every candidate pass all have the
//! same shape of work: a slice of independent items (records to segment
//! or sign, probe records to probe and verify), a pure function per
//! item, and a result list that must come back in a deterministic
//! order. A probe record's run is always one item, verified whole on one
//! worker. This module is the single audited implementation of that
//! pattern, so `JoinSpec::parallel` means one thing everywhere.
//!
//! Design:
//!
//! * **scoped threads** ([`std::thread::scope`], no extra dependency — see
//!   DESIGN.md "Dependency policy") borrow the items and the closure
//!   directly, no `Arc` cloning; the calling thread is one of the workers;
//! * **work stealing over an atomic batch cursor** — per-item cost is
//!   wildly uneven (true matches cluster at low ids in generated data), so
//!   static chunking leaves cores idle; workers instead claim fixed-size
//!   batches from a shared counter until the slice is drained;
//! * **deterministic output** — each claimed batch keeps its index, and the
//!   per-batch outputs are concatenated in batch order afterwards. The
//!   result is byte-for-byte the serial output, independent of thread count
//!   and scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Below this many items the spawn overhead outweighs the parallelism and
/// callers run serially.
pub const MIN_PARALLEL_ITEMS: usize = 256;

/// Upper bound on items claimed per cursor fetch — amortises the atomic
/// on huge item lists.
const MAX_BATCH: usize = 256;

/// Lower bound on the adaptive batch size — keeps the cursor traffic sane
/// on small lists of heavy items.
const MIN_BATCH: usize = 4;

/// How many batches each worker should get to claim (on average) so the
/// work-stealing tail stays balanced when per-item cost is skewed.
const BATCHES_PER_WORKER: usize = 8;

/// Batch size for `len` items on `threads` workers.
///
/// A fixed 256-item batch (the original choice) starved verify-shaped
/// workloads: with a few hundred *heavy* items — candidate verification
/// after aggressive filtering, per-query search verification — `len / 256`
/// rounds to one or two batches, so one or two workers did everything and
/// "parallel" ran at serial speed. The batch size now shrinks until every
/// worker has [`BATCHES_PER_WORKER`] batches to steal, and only grows back
/// to [`MAX_BATCH`] when the list is long enough to amortise the cursor.
fn batch_size(len: usize, threads: usize) -> usize {
    (len / (threads * BATCHES_PER_WORKER)).clamp(MIN_BATCH, MAX_BATCH)
}

/// The one audited batch loop the item-wise entry points delegate to:
/// workers claim adaptively-sized batches off an atomic cursor, run
/// `run_batch` on each with a per-worker scratch from `init`, and the
/// per-batch outputs are concatenated in batch order — so the result is
/// exactly the serial output regardless of thread count or scheduling.
/// `threads` is explicit (tests pin it; production callers pass
/// [`available_threads`], which honours `AU_THREADS`).
fn par_batches_on<T, U, S, I, F, D>(
    items: &[T],
    parallel: bool,
    threads: usize,
    init: I,
    run_batch: F,
    drain: D,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &[T]) -> Vec<U> + Sync,
    D: Fn(&mut S) + Sync,
{
    par_units_on(
        items,
        parallel,
        threads,
        MIN_PARALLEL_ITEMS,
        |threads| batch_size(items.len(), threads),
        init,
        run_batch,
        drain,
    )
}

/// Core of the batch loop (lists shorter than `floor` run serially):
/// units of `unit_len(threads)` consecutive items (the serial path never
/// computes it) are claimed off the atomic cursor, and `drain` runs once
/// per worker scratch after that worker's last unit (serial: once, at the
/// end) — the hook callers use to fold per-worker statistics without
/// sharing mutable state inside the loop.
#[allow(clippy::too_many_arguments)]
fn par_units_on<T, U, S, I, F, D>(
    items: &[T],
    parallel: bool,
    threads: usize,
    floor: usize,
    unit_len: impl Fn(usize) -> usize,
    init: I,
    run_unit: F,
    drain: D,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &[T]) -> Vec<U> + Sync,
    D: Fn(&mut S) + Sync,
{
    if !parallel || threads <= 1 || items.len() < floor {
        let mut scratch = init();
        let out = run_unit(&mut scratch, items);
        drain(&mut scratch);
        return out;
    }

    let unit_len = unit_len(threads);
    let n_units = items.len().div_ceil(unit_len);
    let cursor = AtomicUsize::new(0);
    // Unit outputs land in their slot; one shared Mutex (not one per slot)
    // would serialise the tail, and per-slot locks are uncontended because
    // the cursor hands every unit index to exactly one worker.
    let slots: Vec<Mutex<Vec<U>>> = (0..n_units).map(|_| Mutex::new(Vec::new())).collect();

    let work = || {
        let mut scratch = init();
        loop {
            // ordering: Relaxed — the cursor is a pure work ticket: RMW
            // atomicity alone guarantees each unit index is claimed exactly
            // once. No data is published through it — workers read
            // `items` captured before spawn, and unit outputs are
            // published to the calling thread by the slot Mutex plus the
            // join below, which orders every worker write before the
            // collection loop.
            let unit = cursor.fetch_add(1, Ordering::Relaxed);
            if unit >= n_units {
                break;
            }
            let start = unit * unit_len;
            let end = (start + unit_len).min(items.len());
            let out = run_unit(&mut scratch, &items[start..end]);
            *slots[unit].lock().expect("parallel slot poisoned") = out;
        }
        drain(&mut scratch);
    };
    std::thread::scope(|scope| {
        // The calling thread is one of the workers: one thread fewer to
        // spawn, and one malloc arena fewer in the process — on two cores
        // every parallel section shares the one arena a spawned worker
        // takes, so a thread spawned between sections (a serve compaction's
        // build) finds that arena free instead of whichever one the last
        // section's workers happened to hand back last (DESIGN.md).
        let workers: Vec<_> = (1..threads.min(n_units))
            .map(|_| scope.spawn(work))
            .collect();
        work();
        // Join explicitly: the scope's wait ends when the closures return,
        // `join` when the threads have exited and handed back their malloc
        // arenas — else the next section may map a fresh one (DESIGN.md).
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    let mut out = Vec::new();
    for slot in slots {
        out.append(&mut slot.into_inner().expect("parallel slot poisoned"));
    }
    out
}

/// Maps `f` over `items`, returning all results **in input order**.
///
/// Runs serially when `parallel` is false, when the machine has one core,
/// or when `items` is shorter than [`MIN_PARALLEL_ITEMS`]; the parallel
/// path returns exactly the serial output.
pub fn par_map<T, U, F>(items: &[T], parallel: bool, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_scratch(items, parallel, || (), |_, x| f(x), |_| {})
}

/// Like [`par_map`], but each worker carries a mutable scratch value
/// created once by `init` and reused across every item that worker
/// processes; `drain(scratch)` fires once per worker after its last item
/// (serial: once at the end) — the hook for folding per-worker state (a
/// frequency table, a tally) without sharing it inside the loop.
///
/// This is the shape of the CSR probe loop: each probe needs a dense
/// [`crate::index::OverlapCounter`] sized to the indexed side, and
/// allocating one per item would dwarf the counting work. The scratch is
/// per *worker*, not per item, so `f` must leave it reusable (a probe
/// zeroes every count it raised before it returns).
///
/// Output order is the input order regardless of scheduling, exactly as
/// in [`par_map`].
pub fn par_map_scratch<T, U, S, I, F, D>(
    items: &[T],
    parallel: bool,
    init: I,
    f: F,
    drain: D,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
    D: Fn(&mut S) + Sync,
{
    par_batches_on(
        items,
        parallel,
        available_threads(),
        init,
        |scratch, chunk| chunk.iter().map(|x| f(scratch, x)).collect(),
        drain,
    )
}

/// Maps `f` over a handful of heavy, uneven tasks (the pieces of an index
/// build) on up to `threads` workers: one work unit each, parallel from
/// two tasks up — [`par_map`]'s floor is made for many light items.
/// Results in task order.
pub(crate) fn par_tasks<T, U, F>(tasks: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_units_on(
        tasks,
        true,
        threads,
        2,
        |_| 1,
        || (),
        |_, unit| unit.iter().map(&f).collect(),
        |_| {},
    )
}

/// Worker count for parallel sections (1 when parallelism is unavailable).
///
/// `AU_THREADS` overrides the detected count — containers and cgroup
/// quotas routinely misreport `available_parallelism`, and benchmark runs
/// need a pinned worker count to be comparable across hosts. The variable
/// is read once per process (this sits on per-query hot paths; repeated
/// `env::var` calls take the process-wide env lock for a constant).
pub fn available_threads() -> usize {
    static OVERRIDE: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    let overridden = *OVERRIDE.get_or_init(|| {
        std::env::var("AU_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
    });
    if let Some(n) = overridden {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_on_order() {
        let items: Vec<u32> = (0..10_000).collect();
        let f = |&x: &u32| (x % 3 != 0).then_some(x * 2);
        let serial: Vec<Option<u32>> = items.iter().map(f).collect();
        let parallel = par_map(&items, true, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn small_inputs_run_serially_but_identically() {
        let items: Vec<u32> = (0..10).collect();
        let out = par_map(&items, true, |&x| x);
        assert_eq!(out, items);
    }

    #[test]
    fn the_calling_thread_is_one_of_the_workers() {
        // Sixteen millisecond tasks on two threads: the caller claims some
        // itself, beside the one thread spawned.
        let tasks: Vec<u32> = (0..16).collect();
        let ran_on = par_tasks(&tasks, 2, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            std::thread::current().id()
        });
        assert!(ran_on.contains(&std::thread::current().id()));
        let distinct: std::collections::HashSet<_> = ran_on.into_iter().collect();
        assert!(distinct.len() <= 2, "the caller and one spawned worker");
    }

    #[test]
    fn par_map_preserves_every_item() {
        let items: Vec<usize> = (0..5_000).collect();
        let out = par_map(&items, true, |&x| x + 1);
        assert_eq!(out.len(), items.len());
        assert!(out.iter().enumerate().all(|(i, &v)| v == i + 1));
    }

    #[test]
    fn uneven_work_is_still_deterministic() {
        // Skewed per-item cost exercises the stealing path: early batches
        // are slow, late ones instant.
        let items: Vec<u64> = (0..4_096).collect();
        let f = |&x: &u64| {
            let spin = if x < 256 { 2_000 } else { 1 };
            let mut acc = x;
            for _ in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (acc % 2 == 0).then_some((x, acc))
        };
        let a = par_map(&items, true, f);
        let b = par_map(&items, true, f);
        let serial: Vec<Option<(u64, u64)>> = items.iter().map(f).collect();
        assert_eq!(a, serial);
        assert_eq!(b, serial);
    }

    #[test]
    fn scratch_map_matches_serial_and_reuses_state() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<u32> = (0..10_000).collect();
        let inits = AtomicUsize::new(0);
        let out = par_map_scratch(
            &items,
            true,
            || {
                // ordering: Relaxed — counting only; the assertion below
                // reads after par_map_scratch returns, and the
                // thread::scope join inside it orders every increment
                // before that read.
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<u32>::new()
            },
            |scratch, &x| {
                scratch.push(x); // scratch grows across items — must not leak into results
                x * 3
            },
            |_| {},
        );
        let serial: Vec<u32> = items.iter().map(|&x| x * 3).collect();
        assert_eq!(out, serial);
        // One scratch per worker (or one, serially) — never one per item.
        // ordering: Relaxed — reads after the scope join (see above).
        assert!(inits.load(Ordering::Relaxed) <= available_threads());
    }

    #[test]
    fn exact_batch_boundary() {
        let items: Vec<u32> = (0..(MAX_BATCH as u32 * 2)).collect();
        let out = par_map(&items, true, |&x| x);
        assert_eq!(out, items);
    }

    /// The filter-map shape (the oracle's): map to `Option`s, flatten.
    #[test]
    fn scratch_filter_map_matches_serial() {
        let items: Vec<u32> = (0..10_000).collect();
        let f = |scratch: &mut Vec<u32>, &x: &u32| {
            scratch.push(x);
            (x % 7 != 0).then_some(x * 2)
        };
        let out: Vec<u32> = par_map_scratch(&items, true, Vec::<u32>::new, f, |_| {})
            .into_iter()
            .flatten()
            .collect();
        let serial: Vec<u32> = items
            .iter()
            .filter_map(|&x| (x % 7 != 0).then_some(x * 2))
            .collect();
        assert_eq!(out, serial);
    }

    /// Regression for the verify-shaped granularity bug: a few hundred
    /// heavy items must offer work to every worker, not `len / 256` of
    /// them. The guarantee is structural — enough batches exist for every
    /// worker to claim several — because actual claim counts depend on OS
    /// scheduling (on a single-core CI host one worker may legitimately
    /// drain the cursor). With the old fixed 256-item batches, 400 items
    /// made 2 batches, so at most 2 of N workers could ever be active.
    #[test]
    fn few_heavy_items_offer_work_to_all_workers() {
        let items: Vec<u32> = (0..400).collect();
        assert!(items.len() >= MIN_PARALLEL_ITEMS);
        for threads in [2usize, 4, 8] {
            let n_batches = items.len().div_ceil(batch_size(items.len(), threads));
            assert!(
                n_batches >= threads * 2,
                "{threads} workers share only {n_batches} batches"
            );
        }
        // And the adaptive path still returns the serial output.
        let out = par_batches_on(
            &items,
            true,
            4,
            || (),
            |_, chunk| chunk.iter().map(|&x| x * 3).collect(),
            |_| {},
        );
        let serial: Vec<u32> = items.iter().map(|&x| x * 3).collect();
        assert_eq!(out, serial);
    }

    #[test]
    fn batch_size_adapts() {
        // Huge lists keep the amortising maximum.
        assert_eq!(batch_size(1_200_000, 8), MAX_BATCH);
        // Verify-shaped lists shrink so every worker gets several batches.
        assert_eq!(batch_size(400, 4), 400 / (4 * BATCHES_PER_WORKER).max(1));
        // Never below the floor.
        assert_eq!(batch_size(10, 64), MIN_BATCH);
    }
}
