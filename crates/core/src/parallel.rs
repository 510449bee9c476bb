//! Shared parallel execution for verification-style loops.
//!
//! `join`, `topk` and `search` all end in the same shape of work: a slice
//! of independent items (candidate pairs, accepted pairs to re-score,
//! per-query candidates), a pure function per item, and a result list that
//! must come back in a deterministic order. This module is the single
//! audited implementation of that pattern, so `JoinSpec::parallel` means
//! one thing everywhere.
//!
//! Design:
//!
//! * **scoped threads** ([`std::thread::scope`], no extra dependency — see
//!   DESIGN.md "Dependency policy") borrow the items and the closure
//!   directly, no `Arc` cloning;
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

/// Unit size of a run-aligned plan ([`par_fragments_scratch`]): a run is
/// a unit of work — its setup (the run-level posting walk) costs what the
/// *run* costs, not what the fragment holds, so
/// every cut of a run pays it again. Whole runs are packed up to a
/// worker's fair share of the list, [`BATCHES_PER_WORKER`] units per
/// worker, and a run is split only when it alone exceeds that:
/// [`batch_size`] without the [`MAX_BATCH`] cap (which exists to bound
/// cursor traffic per *item*, not to cut runs), so lists shorter than
/// `MAX_BATCH × threads × BATCHES_PER_WORKER` plan exactly as uniform
/// batches do.
fn run_unit_size(len: usize, threads: usize) -> usize {
    (len / (threads * BATCHES_PER_WORKER)).max(MIN_BATCH)
}

/// The one audited batch loop every public entry point delegates to:
/// workers claim adaptively-sized batches off an atomic cursor, run
/// `run_batch` on each with a per-worker scratch from `init`, and the
/// per-batch outputs are concatenated in batch order — so the result is
/// exactly the serial output regardless of thread count or scheduling.
fn par_batches<T, U, S, I, F, D>(
    items: &[T],
    parallel: bool,
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
    par_batches_on(items, parallel, available_threads(), init, run_batch, drain)
}

/// [`par_batches`] with an explicit worker count (tests pin it; production
/// callers go through [`available_threads`], which honours `AU_THREADS`).
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
        |threads| uniform_units(items.len(), batch_size(items.len(), threads)),
        init,
        run_batch,
        drain,
    )
}

/// Uniform work-unit plan: `[start, end)` ranges of `batch_len` items.
fn uniform_units(len: usize, batch_len: usize) -> Vec<(usize, usize)> {
    (0..len.div_ceil(batch_len))
        .map(|b| (b * batch_len, ((b + 1) * batch_len).min(len)))
        .collect()
}

/// Work-unit plan aligned to *runs* — maximal stretches of consecutive
/// items with equal `run_key`. Consecutive whole runs are packed into one
/// unit of at most `target` items, and a single run longer than `target`
/// is split into `target`-sized pieces, so one heavy run cannot starve
/// the other workers. Every unit is ≤ `target` items, so the plan offers
/// at least as many units as the uniform plan would.
fn run_units<T>(
    items: &[T],
    run_key: &(impl Fn(&T) -> u64 + ?Sized),
    target: usize,
) -> Vec<(usize, usize)> {
    let target = target.max(1);
    let mut units = Vec::with_capacity(items.len().div_ceil(target) + 1);
    // Invariant: the open unit `[unit_start, run_base)` holds ≤ target
    // items, and `run_base` is the start of the run ending at `i`.
    let mut unit_start = 0usize;
    let mut run_base = 0usize;
    for i in 1..=items.len() {
        if i < items.len() && run_key(&items[i]) == run_key(&items[i - 1]) {
            continue;
        }
        // A run `[run_base, i)` just ended.
        if i - run_base > target {
            // Oversized run: flush the packed prefix, split the run flat.
            if run_base > unit_start {
                units.push((unit_start, run_base));
            }
            let mut s = run_base;
            while i - s > target {
                units.push((s, s + target));
                s += target;
            }
            unit_start = s;
        } else if i - unit_start > target {
            // Whole run fits but overflows the open unit: close before it.
            units.push((unit_start, run_base));
            unit_start = run_base;
        }
        run_base = i;
    }
    if unit_start < items.len() {
        units.push((unit_start, items.len()));
    }
    units
}

/// Range-driven core of the batch loop (lists shorter than `floor` run
/// serially): the unit plan is computed lazily
/// from the worker count (the serial path never needs it), units are
/// claimed off the atomic cursor exactly like uniform batches, and
/// `drain` runs once per worker
/// scratch after that worker's last unit (serial: once, at the end) — the
/// hook callers use to fold per-worker statistics without sharing mutable
/// state inside the loop.
#[allow(clippy::too_many_arguments)]
fn par_units_on<T, U, S, P, I, F, D>(
    items: &[T],
    parallel: bool,
    threads: usize,
    floor: usize,
    plan: P,
    init: I,
    run_unit: F,
    drain: D,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    P: Fn(usize) -> Vec<(usize, usize)>,
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

    let units = plan(threads);
    let n_units = units.len();
    let cursor = AtomicUsize::new(0);
    // Unit outputs land in their slot; a Mutex per run (not per slot)
    // would serialise the tail, and per-slot locks are uncontended because
    // the cursor hands every unit index to exactly one worker.
    let slots: Vec<Mutex<Vec<U>>> = (0..n_units).map(|_| Mutex::new(Vec::new())).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads.min(n_units) {
            scope.spawn(|| {
                let mut scratch = init();
                loop {
                    // ordering: Relaxed — the cursor is a pure work
                    // ticket: RMW atomicity alone guarantees each unit
                    // index is claimed exactly once. No data is published
                    // through it — workers read `units`/`items` captured
                    // before spawn, and unit outputs are published to the
                    // main thread by the slot Mutex plus the
                    // thread::scope join, which orders every worker
                    // write before the collection loop below.
                    let unit = cursor.fetch_add(1, Ordering::Relaxed);
                    if unit >= n_units {
                        break;
                    }
                    let (start, end) = units[unit];
                    let out = run_unit(&mut scratch, &items[start..end]);
                    *slots[unit].lock().expect("parallel slot poisoned") = out;
                }
                drain(&mut scratch);
            });
        }
    });

    let mut out = Vec::new();
    for slot in slots {
        out.append(&mut slot.into_inner().expect("parallel slot poisoned"));
    }
    out
}

/// Maps `f` over `items`, keeping the `Some` results **in input order**.
///
/// Runs serially when `parallel` is false, when the machine has one core,
/// or when `items` is shorter than [`MIN_PARALLEL_ITEMS`]; the parallel
/// path returns exactly the serial output.
pub fn par_filter_map<T, U, F>(items: &[T], parallel: bool, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> Option<U> + Sync,
{
    par_batches(
        items,
        parallel,
        || (),
        |_, chunk| chunk.iter().filter_map(&f).collect(),
        |_| {},
    )
}

/// Maps `f` over `items`, returning all results in input order.
pub fn par_map<T, U, F>(items: &[T], parallel: bool, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_filter_map(items, parallel, |x| Some(f(x)))
}

/// Like [`par_filter_map`], but each worker carries a mutable scratch
/// value created once by `init` and reused across every item that worker
/// processes — the shape of tiered candidate verification, where the
/// scratch holds the enumeration tables and the Algorithm 1 buffers.
pub fn par_filter_map_scratch<T, U, S, I, F>(items: &[T], parallel: bool, init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> Option<U> + Sync,
{
    par_batches(
        items,
        parallel,
        init,
        |scratch, chunk| chunk.iter().filter_map(|x| f(scratch, x)).collect(),
        |_| {},
    )
}

/// Like [`par_map_scratch`], but the items form *runs* — maximal stretches
/// of consecutive items sharing `run_key` — and work units are aligned to
/// them: consecutive whole runs pack into one unit, and a unit never holds
/// more items than a worker's fair share of the list (`run_unit_size`), so
/// a single heavy run is split across workers instead of starving them.
/// This is the shape of run-batched verification: candidates arrive sorted
/// by probe record, and `frag_fn` receives each whole fragment slice and
/// returns its outputs, batching work *across* a run's items (counting one
/// run's shared pebble mass through a corpus-level index) instead of
/// mapping them independently.
///
/// A fragment holds whole runs back to back, or a piece of a single run
/// longer than `run_unit_size`; `frag_fn` must detect run boundaries
/// itself (compare `run_key` of consecutive items) and must treat a
/// fragment-initial item as a fresh run (fragments of one run may land on
/// different workers). `drain(scratch)` fires once per worker after its
/// last unit (serial: once at the end); callers use it to fold per-worker
/// statistics. Outputs are concatenated in fragment order —
/// byte-identical to the serial path regardless of thread count or
/// scheduling.
pub fn par_fragments_scratch<T, U, S, K, I, F, D>(
    items: &[T],
    parallel: bool,
    run_key: &K,
    init: I,
    frag_fn: F,
    drain: D,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    K: Fn(&T) -> u64 + Sync,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &[T]) -> Vec<U> + Sync,
    D: Fn(&mut S) + Sync,
{
    par_units_on(
        items,
        parallel,
        available_threads(),
        MIN_PARALLEL_ITEMS,
        |threads| run_units(items, run_key, run_unit_size(items.len(), threads)),
        init,
        frag_fn,
        drain,
    )
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
/// per *worker*, not per item, so `f` must leave it reusable (the
/// epoch-stamped counter resets itself at the start of every probe).
///
/// Output order is the input order regardless of scheduling, exactly as
/// in [`par_filter_map`].
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
    par_batches(
        items,
        parallel,
        init,
        |scratch, chunk| chunk.iter().map(|x| f(scratch, x)).collect(),
        drain,
    )
}

/// Maps `f` over a handful of heavy, uneven tasks (the pieces of an index
/// build): one work unit each, parallel from two tasks up — [`par_map`]'s
/// floor is made for many light items. Results in task order.
pub(crate) fn par_tasks<T, U, F>(tasks: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_units_on(
        tasks,
        true,
        available_threads(),
        2,
        |_| uniform_units(tasks.len(), 1),
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
        let serial: Vec<u32> = items.iter().filter_map(f).collect();
        let parallel = par_filter_map(&items, true, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn small_inputs_run_serially_but_identically() {
        let items: Vec<u32> = (0..10).collect();
        let out = par_filter_map(&items, true, |&x| Some(x));
        assert_eq!(out, items);
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
        let a = par_filter_map(&items, true, f);
        let b = par_filter_map(&items, true, f);
        let serial: Vec<(u64, u64)> = items.iter().filter_map(f).collect();
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
        let out = par_filter_map(&items, true, |&x| Some(x));
        assert_eq!(out, items);
    }

    #[test]
    fn scratch_filter_map_matches_serial() {
        let items: Vec<u32> = (0..10_000).collect();
        let out = par_filter_map_scratch(&items, true, Vec::<u32>::new, |scratch, &x| {
            scratch.push(x);
            (x % 7 != 0).then_some(x * 2)
        });
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
    fn run_units_align_and_split() {
        // Runs of mixed sizes: key = value / 10 → runs of 10, plus one
        // giant run.
        let mut items: Vec<u64> = (0..200).map(|x| x / 10).collect();
        items.extend(std::iter::repeat_n(99u64, 500)); // one heavy run
        items.extend(100u64..120);
        let key = |x: &u64| *x;
        let target = 64;
        let units = run_units(&items, &key, target);
        // Full coverage, in order, no overlaps.
        assert_eq!(units[0].0, 0);
        assert_eq!(units.last().unwrap().1, items.len());
        for w in units.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        for &(s, e) in &units {
            assert!(e > s && e - s <= target, "unit ({s},{e}) exceeds target");
            // A unit boundary is a run boundary unless it splits a run
            // longer than the target.
            if s > 0 && items[s] == items[s - 1] {
                let run_start = (0..s)
                    .rev()
                    .find(|&i| items[i] != items[s])
                    .map_or(0, |i| i + 1);
                let run_end = (s..items.len())
                    .find(|&i| items[i] != items[s])
                    .unwrap_or(items.len());
                assert!(run_end - run_start > target, "needless split at {s}");
            }
        }
    }

    /// A run is a unit of work: on a list long enough that a worker's
    /// fair share exceeds a run, units pack whole runs and cut none; a
    /// run that alone exceeds the share is still split; and below
    /// `MAX_BATCH × threads × BATCHES_PER_WORKER` items the plan is the
    /// uniform-batch-sized one.
    #[test]
    fn run_units_keep_runs_whole_up_to_a_fair_share() {
        let threads = 2;
        let runs: Vec<u64> = (0..64u64)
            .flat_map(|r| std::iter::repeat_n(r, 700))
            .collect();
        let share = run_unit_size(runs.len(), threads);
        assert_eq!(share, 64 * 700 / (threads * BATCHES_PER_WORKER));
        let units = run_units(&runs, &|x: &u64| *x, share);
        assert!(units.len() >= threads * BATCHES_PER_WORKER);
        for &(start, end) in &units {
            assert!(
                start % 700 == 0 && end % 700 == 0,
                "run cut at ({start}, {end})"
            );
        }
        let giant: Vec<u64> = vec![7; 64 * 700];
        let units = run_units(&giant, &|x: &u64| *x, run_unit_size(giant.len(), threads));
        assert_eq!(units.len(), threads * BATCHES_PER_WORKER);
        // Four runs of 700 are a short list: planned as before.
        assert_eq!(
            run_unit_size(4 * 700, threads),
            batch_size(4 * 700, threads)
        );
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
