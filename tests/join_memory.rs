//! Heap accounting of the join, under a counting global allocator.
//!
//! The binary's one test is alone in its process, so every allocation the
//! counter sees is the join's or the prepare's. It pins `AU_THREADS` to 2
//! (the repository benchmark's worker count) before any parallel code
//! runs, so per-worker scratch does not scale with the host's cores.
//!
//! (a) A warm threshold join — order, signatures, CSR and transposed
//!     index all memoized — verifies each probe record's candidates on the
//!     worker that probed it, so its transient heap peak is per-worker
//!     scratch plus results: well under the 8 bytes per candidate a
//!     materialized `(u32, u32)` candidate list alone would take.
//! (b) `Prepared::memory_bytes()` — which the shard residency gate and
//!     `core.prepared_bytes_per_record` rest on — against the live heap a
//!     fresh `Engine::prepare` leaves behind: every row buffer is
//!     exact-size, so the accounting is what was allocated and the ratio
//!     sits just above 1 (the document-frequency table's hash slack).
//! (c) At the `join_sparse` shape (q = 3) a fresh prepare leaves at most
//!     4,000 live heap bytes and 16 live allocations per record: a
//!     segmented record is one flat row — segment headers, one gram
//!     array, one text — not a heap object per segment.
//! (d) A warm `Engine::calibrate` at the same θ and filter times that
//!     same pass and builds no candidate list: its transient peak is
//!     under 4 bytes per candidate too.
//! (e) A sharded self-join's shard-pair task verifies each probe
//!     record's candidates as it probes, as the monolithic join does, so
//!     it holds no candidate list either: the serial join's transient
//!     peak — shard builds, their artifacts, and each pass's transient
//!     transposed and mirrored CSR indexes — stays under 18.4 bytes per
//!     candidate (25.40 when each task collected its list; 21.57 with
//!     `PebbleKey` signatures and a hashed CSR directory; 17.28 with rank
//!     signatures and a rank-indexed CSR, the same on every run).
//! (f) The memo a cold self-join files — order, signatures, CSR and
//!     transposed indexes — grows the heap by 1.0–1.15× what
//!     `Prepared::memory_bytes()` adds for it, as (b) holds for a
//!     prepare: the rank-space `RecordKeys` and `CsrIndex` count what they
//!     hold (1.146 here; the hash tables' slack is the excess).

use au_join::datagen::{DatasetProfile, LabeledDataset};
use au_join::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes, and the most seen since the last `reset_peak`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Live allocations (a `realloc` moves one; it adds none).
static BLOCKS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(bytes: usize) {
    // ordering: Relaxed — advisory counters read by the test thread after
    // the parallel sections it measures have joined (the joins order every
    // worker's update before the read).
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    // ordering: Relaxed — as above.
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    // ordering: Relaxed — as in `grew`.
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

fn allocated(bytes: usize) {
    // ordering: Relaxed — as in `grew`.
    BLOCKS.fetch_add(1, Ordering::Relaxed);
    grew(bytes);
}

fn freed(bytes: usize) {
    // ordering: Relaxed — as in `grew`.
    BLOCKS.fetch_sub(1, Ordering::Relaxed);
    shrank(bytes);
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns what `System` returned, so `System`'s guarantees are this
// allocator's; the bookkeeping only reads `layout.size()` and `new_size`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            allocated(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            allocated(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        freed(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> usize {
    // ordering: Relaxed — as in `grew`.
    LIVE.load(Ordering::Relaxed)
}

fn blocks() -> usize {
    // ordering: Relaxed — as in `grew`.
    BLOCKS.load(Ordering::Relaxed)
}

/// Restart the peak at the current live bytes and return them.
fn reset_peak() -> usize {
    let now = live();
    // ordering: Relaxed — as in `grew`.
    PEAK.store(now, Ordering::Relaxed);
    now
}

fn peak() -> usize {
    // ordering: Relaxed — as in `grew`.
    PEAK.load(Ordering::Relaxed)
}

#[test]
fn a_join_holds_no_candidate_list_and_memory_bytes_tracks_the_heap() {
    // Before any call into au-core: pin the worker count.
    std::env::set_var("AU_THREADS", "2");
    assert_eq!(au_join::core::parallel::available_threads(), 2);

    // (c) The `join_sparse` shape: a MED-like corpus, q = 3.
    let n = 600;
    let sparse = LabeledDataset::generate(&DatasetProfile::med_like(1.0), n, n, n / 5, 71);
    let cfg = SimConfig {
        q: 3,
        ..SimConfig::default()
    };
    let engine = Engine::new(sparse.kn.clone(), cfg).expect("engine");
    let (bytes_before, blocks_before) = (live(), blocks());
    let prepared = engine.prepare(&sparse.s).expect("prepare");
    let bytes = (live() - bytes_before) as f64 / n as f64;
    let allocs = (blocks() - blocks_before) as f64 / n as f64;
    eprintln!(
        "prepare at q = 3: {bytes:.0} live heap bytes and {allocs:.2} allocations per record \
         ({} accounted per record)",
        prepared.memory_bytes() / n
    );
    assert!(
        bytes <= 4000.0 && allocs <= 16.0,
        "a prepare left {bytes:.0} B in {allocs:.2} allocations per record"
    );
    drop((prepared, engine, sparse));

    // The `join_dense` shape: a MED-like corpus, q = 2, θ = 0.9, AU-DP τ = 2.
    let ds = LabeledDataset::generate(&DatasetProfile::med_like(1.0), n, n, n / 5, 71);
    let cfg = SimConfig {
        q: 2,
        ..SimConfig::default()
    };
    let engine = Engine::new(ds.kn.clone(), cfg).expect("engine");

    // (b) One prepare's heap growth against its own accounting.
    let before = live();
    let ps = engine.prepare(&ds.s).expect("prepare S");
    let grown = live() - before;
    let ratio = grown as f64 / ps.memory_bytes() as f64;
    assert!(
        (1.0..=1.15).contains(&ratio),
        "prepare grew the heap by {grown} B for {} accounted: ratio {ratio:.3}",
        ps.memory_bytes()
    );

    // (f) The memo a cold self-join files — order, signatures, CSR and
    //     transposed indexes — against the growth of the artifact's own
    //     accounting, in (b)'s band.
    let spec = JoinSpec::threshold(0.9).au_dp(2);
    let (before, accounted) = (live(), ps.memory_bytes());
    drop(engine.join_self(&ps, &spec).expect("cold self-join"));
    let (grown, filed) = (live() - before, ps.memory_bytes() - accounted);
    let memo_ratio = grown as f64 / filed as f64;
    eprintln!(
        "cold self-join: its memo grew the heap {grown} B for {filed} accounted: {memo_ratio:.3}"
    );
    assert!(
        (1.0..=1.15).contains(&memo_ratio),
        "a cold self-join's memo grew the heap by {grown} B for {filed} accounted: \
         ratio {memo_ratio:.3}"
    );

    // (a) A warm join's transient peak, per candidate.
    let pt = engine.prepare(&ds.t).expect("prepare T");
    let cold = engine.join(&ps, &pt, &spec).expect("cold join");
    let start = reset_peak();
    let warm = engine.join(&ps, &pt, &spec).expect("warm join");
    let transient = peak() - start;
    assert_eq!(warm.pairs, cold.pairs);
    let candidates = warm.stats.candidates;
    assert!(
        candidates > 50_000,
        "too few candidates to measure: {candidates}"
    );
    let per_candidate = transient as f64 / candidates as f64;
    eprintln!(
        "prepare: {ratio:.3} heap per accounted byte; warm join: {transient} B peak, \
         {per_candidate:.2} B per candidate over {candidates}"
    );
    assert!(
        per_candidate < 4.0,
        "warm join peaked {transient} B above its start: {per_candidate:.2} B per candidate \
         over {candidates} candidates"
    );

    // (d) A warm `calibrate` at the same θ and filter times the join's own
    //     pass — counted, then verified over a few leading probe records —
    //     and so holds no candidate list either.
    let filter = spec.filter_kind();
    engine
        .calibrate(&ps, &pt, 0.9, filter)
        .expect("cold calibrate");
    let start = reset_peak();
    engine
        .calibrate(&ps, &pt, 0.9, filter)
        .expect("warm calibrate");
    let calibrating = peak() - start;
    let per_candidate = calibrating as f64 / candidates as f64;
    eprintln!(
        "warm calibrate: {calibrating} B peak, {per_candidate:.2} B per candidate over \
         {candidates}"
    );
    assert!(
        per_candidate < 4.0,
        "warm calibrate peaked {calibrating} B above its start: {per_candidate:.2} B per \
         candidate over {candidates} candidates"
    );

    // (e) A sharded self-join on two length shards: three tasks, each
    //     building its shards' artifacts and verifying as it probes.
    //     Serial, so the peak does not depend on how workers interleave
    //     their allocations.
    let shards = ShardSpec::auto().with_shards(2);
    let spec = JoinSpec::threshold(0.5).au_dp(2).serial();
    let start = reset_peak();
    let joined = engine
        .join_self_sharded(&ds.s, &shards, &spec)
        .expect("sharded self-join");
    let transient = peak() - start;
    let candidates = joined.stats.candidates;
    assert!(
        candidates > 50_000,
        "too few candidates to measure: {candidates}"
    );
    let per_candidate = transient as f64 / candidates as f64;
    eprintln!(
        "sharded self-join: {transient} B peak, {per_candidate:.2} B per candidate over \
         {candidates}"
    );
    assert!(
        per_candidate < 18.4,
        "a sharded self-join peaked {transient} B above its start: {per_candidate:.2} B per \
         candidate over {candidates} candidates"
    );
}
