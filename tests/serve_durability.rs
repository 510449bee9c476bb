//! Durability contract of the serving layer: crash-point sweep, fault
//! injection, torn tails, and graceful degradation.
//!
//! The contract under test: an operation is acknowledged only after its
//! write-ahead-log frame is durable, so for **any** crash point — every
//! frame boundary and every mid-frame offset — `Service::open` recovers
//! exactly the acknowledged prefix: no acknowledged mutation is lost, no
//! unacknowledged operation half-applies, and the recovered snapshot
//! answers byte-identically to a fresh monolithic prepare of that
//! prefix's live corpus. Under persistent write faults the service keeps
//! answering reads from the last published snapshot and fails writes
//! fast with typed errors — zero panics.
//!
//! `readers_survive_writer_degradation` is also wired into the nightly
//! TSan job, where the degradation flag and snapshot swap run under the
//! race detector.

use au_join::core::engine::{Engine, JoinSpec};
use au_join::prelude::KnowledgeBuilder;
use au_join::serve::{
    frame_boundaries, scan_log, FaultPlan, FaultyStorage, MemStorage, RetryPolicy, ServeConfig,
    ServeError, Service, WalOp,
};
use proptest::prelude::*;
use std::sync::Arc;

const LINES: [&str; 6] = [
    "coffee shop downtown main street",
    "coffee shop uptown main avenue",
    "tea house downtown main street",
    "espresso bar main street",
    "bakery and coffee main street",
    "tea house uptown",
];

fn cfg() -> ServeConfig {
    ServeConfig {
        theta: 0.4,
        compact_threshold: 0,
        retry: RetryPolicy::no_sleep(4),
        ..ServeConfig::default()
    }
}

fn fresh_kn() -> au_join::prelude::Knowledge {
    KnowledgeBuilder::new().build()
}

/// The live `(id, text)` set implied by a log prefix: inserts add,
/// deletes remove (whether folded by a later compaction or still
/// masking), checkpoints restart the epoch.
fn live_from_ops(ops: &[WalOp]) -> Vec<(u64, String)> {
    let mut entries: Vec<(u64, String, bool)> = Vec::new();
    for op in ops {
        match op {
            WalOp::Insert { id, text } => entries.push((*id, text.clone(), true)),
            WalOp::Delete { id } => {
                for e in entries.iter_mut() {
                    if e.0 == *id {
                        e.2 = false;
                    }
                }
            }
            WalOp::Compact => {}
            WalOp::Checkpoint { .. } => entries.clear(),
        }
    }
    entries
        .into_iter()
        .filter(|e| e.2)
        .map(|(id, text, _)| (id, text))
        .collect()
}

/// Monolithic reference: a **fresh** knowledge lineage and a from-scratch
/// prepare of exactly the live corpus. The recovered service must answer
/// byte-identically to this.
fn reference_answers(
    live: &[(u64, String)],
    cfg: &ServeConfig,
    queries: &[&str],
) -> Vec<Vec<(u64, f64)>> {
    let mut kn = fresh_kn();
    let corpus = kn.corpus_from_lines(live.iter().map(|(_, t)| t.as_str()));
    let engine = Engine::new(kn, cfg.sim).unwrap();
    let prepared = engine.prepare_owned(corpus).unwrap();
    let spec = JoinSpec::threshold(cfg.theta).filter(cfg.filter);
    let searcher = engine.searcher(&prepared, &spec).unwrap();
    queries
        .iter()
        .map(|q| {
            searcher
                .query(q)
                .matches
                .iter()
                .map(|&(row, sim)| (live[row as usize].0, sim))
                .collect()
        })
        .collect()
}

fn queries() -> Vec<String> {
    LINES
        .iter()
        .map(|s| s.to_string())
        .chain([
            "coffee shop downtown".to_string(),
            "tea house".to_string(),
            "probe target item alpha".to_string(),
            "no such tokens anywhere".to_string(),
            "espresso cart harbor walk".to_string(),
            "harbor cart noodle stand".to_string(),
        ])
        .collect()
}

/// Drive a scripted mutation sequence against a durable service.
fn run_script(svc: &Service) {
    svc.insert_record("probe target item alpha beta").unwrap();
    svc.insert_record("coffee house downtown main street")
        .unwrap();
    svc.delete_record(1).unwrap();
    svc.delete_record(6).unwrap(); // a delta-segment id
    svc.compact().unwrap();
    svc.insert_record("juice bar uptown plaza").unwrap();
    svc.insert_record("tea house downtown annex").unwrap();
    svc.delete_record(2).unwrap(); // masks a compacted base id
    svc.compact().unwrap();
    svc.insert_record("espresso cart harbor walk").unwrap();
    // Two inserts of one delta introducing the same new tokens ("harbor",
    // "cart"): a crash between them must replay the first's interning
    // exactly as the live service shared it with the second.
    let repeat = svc.insert_record("harbor cart noodle stand").unwrap();
    // A delete right behind an insert of the same delta: the published
    // snapshot shares the insert's row and differs by one tombstone.
    svc.delete_record(repeat.id).unwrap();
    svc.insert_record("noodle stand harbor annex").unwrap();
}

#[test]
fn crash_point_sweep_recovers_exactly_the_acknowledged_prefix() {
    let mem = MemStorage::new();
    let svc = Service::create_with(fresh_kn(), LINES, cfg(), Box::new(mem.clone())).unwrap();
    run_script(&svc);
    drop(svc); // crash: process memory gone, the log survives

    let bytes = mem.bytes();
    let bounds = frame_boundaries(&bytes);
    assert!(
        bounds.len() > 10,
        "script must produce a real frame history"
    );

    // Cut at byte 0, at every frame boundary, and mid-frame between
    // each pair of boundaries (a torn in-flight frame).
    let mut cuts: Vec<u64> = vec![0];
    cuts.extend(&bounds);
    cuts.extend(bounds.windows(2).map(|w| w[0] + (w[1] - w[0]) / 2));
    cuts.sort_unstable();
    cuts.dedup();

    for &cut in &cuts {
        assert_recovers_the_prefix(&bytes, cut);
    }
}

/// Crash the log `bytes` at byte `cut` and recover: exactly the
/// acknowledged prefix is live, it answers as a fresh prepare of that
/// prefix's live corpus, and the id mint resumes right after it.
fn assert_recovers_the_prefix(bytes: &[u8], cut: u64) {
    let qs = queries();
    let q_refs: Vec<&str> = qs.iter().map(|s| s.as_str()).collect();
    let prefix = bytes[..cut as usize].to_vec();
    let scanned = scan_log(&prefix).unwrap();
    let live = live_from_ops(&scanned.ops);

    let recovered =
        Service::open_with(fresh_kn(), cfg(), Box::new(MemStorage::with_bytes(prefix))).unwrap();
    assert!(!recovered.is_degraded(), "cut {cut}: clean recovery");
    let stats = recovered.stats();
    assert_eq!(
        stats.wal.replayed_frames,
        scanned.ops.len() as u64,
        "cut {cut}: replay count"
    );
    assert_eq!(stats.live, live.len(), "cut {cut}: live set size");
    for (id, _) in &live {
        assert!(
            recovered.snapshot().is_live(*id),
            "cut {cut}: acknowledged record {id} lost"
        );
    }

    let want = reference_answers(&live, &cfg(), &q_refs);
    for (q, want) in q_refs.iter().zip(&want) {
        let got: Vec<(u64, f64)> = recovered.search(q).unwrap().matches;
        assert_eq!(&got, want, "cut {cut}: served ≠ monolithic for {q:?}");
    }

    // The id mint continues past the recovered history: ids stay
    // gap-free with respect to the acknowledged prefix.
    let next = recovered.insert_record("post recovery probe").unwrap();
    let max_acked = scanned
        .ops
        .iter()
        .filter_map(|op| match op {
            WalOp::Insert { id, .. } => Some(*id),
            _ => None,
        })
        .max();
    assert_eq!(
        next.id,
        max_acked.map(|m| m + 1).unwrap_or(0),
        "cut {cut}: id mint must resume exactly after the prefix"
    );
}

/// A durable service over `LINES` plus a few hundred filler records — a
/// base whose merge and index build take far longer than a write does —
/// that starts a compaction every `threshold` delta records.
fn background_service(mem: &MemStorage, threshold: usize) -> Service {
    let filler = (0..240).map(|i| format!("filler record {i} kind{} lane{}", i % 7, i % 11));
    let lines: Vec<String> = LINES.iter().map(|l| l.to_string()).chain(filler).collect();
    let cfg = ServeConfig {
        compact_threshold: threshold,
        ..cfg()
    };
    let lines = lines.iter().map(String::as_str);
    Service::create_with(fresh_kn(), lines, cfg, Box::new(mem.clone())).unwrap()
}

/// Insert until an insert reaches the threshold and starts a compaction.
fn start_a_compaction(svc: &Service, next: &mut usize) {
    let before = svc.stats().compactions;
    loop {
        let stats = svc.stats();
        if stats.compacting || stats.compactions > before {
            return;
        }
        svc.insert_record(&format!("harbor cart item {next} alpha"))
            .unwrap();
        *next += 1;
    }
}

fn wait_for_the_swap(svc: &Service) {
    while svc.stats().compacting {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// A compaction the threshold starts logs its `Compact` frame and returns;
/// its merge and index build run off the writer lock while inserts and
/// deletes land, and its swap carries them. Crash at every frame boundary
/// and mid-frame offset from there on — before and after the `Compact`
/// frame, between the writes that landed mid-build, after the swap — and
/// recovery must equal a fresh prepare of the acknowledged prefix.
#[test]
fn crash_sweep_across_a_background_compaction() {
    let mem = MemStorage::new();
    let svc = background_service(&mem, 4);
    let seeded = mem.bytes().len() as u64;
    let (mut next, mut next_base) = (0usize, 0u64);
    // The mid-build writes take microseconds and the build milliseconds,
    // so the first try almost always lands them all before the swap; a
    // try whose build swapped in first is simply part of the history.
    let mut carried = None;
    for _ in 0..20 {
        start_a_compaction(&svc, &mut next);
        let mid = svc.insert_record("espresso cart harbor walk").unwrap();
        svc.insert_record("noodle stand harbor annex").unwrap();
        svc.delete_record(next_base).unwrap();
        next_base += 1;
        svc.delete_record(mid.id).unwrap();
        let in_flight = svc.stats().compacting;
        wait_for_the_swap(&svc);
        if in_flight {
            carried = Some(svc.stats().last_compact);
            break;
        }
    }
    let shape = carried.expect("no try landed its writes before the swap");
    assert_eq!((shape.carried_rows, shape.carried_tombstones), (2, 2));
    // After the swap.
    svc.insert_record("juice bar uptown plaza").unwrap();
    svc.delete_record(next_base).unwrap();
    drop(svc);

    let bytes = mem.bytes();
    let bounds: Vec<u64> = frame_boundaries(&bytes)
        .into_iter()
        .filter(|&b| b >= seeded)
        .collect();
    let ops = scan_log(&bytes).unwrap().ops;
    assert!(ops.iter().any(|op| matches!(op, WalOp::Compact)));
    let mut cuts = bounds.clone();
    cuts.extend(bounds.windows(2).map(|w| w[0] + (w[1] - w[0]) / 2));
    cuts.sort_unstable();
    for cut in cuts {
        assert_recovers_the_prefix(&bytes, cut);
    }
}

/// `save()` issued while a threshold-started build is in flight waits for
/// its swap, folds what the swap carried, and checkpoints that state: the
/// rewritten log replays to the live answers.
#[test]
fn save_during_a_background_compaction_checkpoints_the_post_swap_state() {
    let mem = MemStorage::new();
    let svc = background_service(&mem, 4);
    start_a_compaction(&svc, &mut 0);
    svc.insert_record("espresso cart harbor walk").unwrap();
    svc.delete_record(0).unwrap();
    let gen = svc.save().unwrap();
    let stats = svc.stats();
    assert!(!stats.compacting);
    assert_eq!(gen, stats.generation);
    assert_eq!(
        (stats.delta_len, stats.tombstones),
        (0, 0),
        "save folds what the swap carried"
    );
    let ops = scan_log(&mem.bytes()).unwrap().ops;
    assert!(matches!(ops.first(), Some(WalOp::Checkpoint { .. })));
    assert!(matches!(ops.last(), Some(WalOp::Compact)));
    assert_eq!(ops.len(), stats.live + 2);

    let live = live_from_ops(&ops);
    let qs = queries();
    let q_refs: Vec<&str> = qs.iter().map(|s| s.as_str()).collect();
    let want = reference_answers(&live, &cfg(), &q_refs);
    let recovered = Service::open_with(
        fresh_kn(),
        cfg(),
        Box::new(MemStorage::with_bytes(mem.bytes())),
    )
    .unwrap();
    for (q, want) in q_refs.iter().zip(&want) {
        assert_eq!(&svc.search(q).unwrap().matches, want, "live {q:?}");
        assert_eq!(
            &recovered.search(q).unwrap().matches,
            want,
            "recovered {q:?}"
        );
    }
}

#[test]
fn torn_tail_is_truncated_and_repaired() {
    let mem = MemStorage::new();
    let svc = Service::create_with(fresh_kn(), LINES, cfg(), Box::new(mem.clone())).unwrap();
    run_script(&svc);
    drop(svc);

    // Corrupt the log with a torn half-frame of garbage.
    let mut bytes = mem.bytes();
    let clean_len = bytes.len();
    bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01]);
    let torn = MemStorage::with_bytes(bytes);

    let recovered = Service::open_with(fresh_kn(), cfg(), Box::new(torn.clone())).unwrap();
    let stats = recovered.stats();
    assert_eq!(stats.wal.truncated_bytes, 5, "torn tail measured");
    assert_eq!(
        stats.wal.bytes, clean_len as u64,
        "log repaired to the good prefix"
    );
    assert_eq!(
        torn.bytes().len(),
        clean_len,
        "the truncate actually landed"
    );
    drop(recovered);

    // A second open sees a clean log.
    let again = Service::open_with(fresh_kn(), cfg(), Box::new(torn)).unwrap();
    assert_eq!(again.stats().wal.truncated_bytes, 0);
}

#[test]
fn transient_faults_retry_and_acknowledged_ops_survive() {
    let mem = MemStorage::new();
    let plan = FaultPlan::new(17)
        .with_write_fault_per_mille(300)
        .with_sync_fault_per_mille(150)
        .with_skip_calls(4); // let create() seed cleanly
    let faulty = FaultyStorage::new(Box::new(mem.clone()), plan);
    let svc = Service::create_with(fresh_kn(), LINES, cfg(), Box::new(faulty)).unwrap();

    let mut acked: Vec<String> = Vec::new();
    let mut failures = 0u32;
    for i in 0..40 {
        let text = format!("fault probe record {i} gamma delta");
        match svc.insert_record(&text) {
            Ok(_) => acked.push(text),
            Err(ServeError::Wal { .. }) => {
                failures += 1;
                // Transient schedule: healing must eventually succeed.
                let healed = (0..20).any(|_| svc.heal().is_ok());
                assert!(healed, "transient faults must be healable");
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let stats = svc.stats();
    assert!(
        stats.wal.retries > 0,
        "schedule must exercise the retry loop: {stats:?}"
    );
    assert_eq!(stats.wal.retries, stats.wal.backoff_waits);
    assert_eq!(u64::from(failures), stats.degraded_entries);
    drop(svc);

    // Crash + recover: exactly the acknowledged inserts are live.
    let recovered = Service::open_with(
        fresh_kn(),
        cfg(),
        Box::new(MemStorage::with_bytes(mem.bytes())),
    )
    .unwrap();
    assert_eq!(recovered.stats().live, LINES.len() + acked.len());
    for text in &acked {
        let hits = recovered.search(text).unwrap();
        assert_eq!(
            hits.matches.first().map(|&(_, s)| s),
            Some(1.0),
            "{text} lost"
        );
    }
}

#[test]
fn persistent_faults_degrade_to_typed_read_only_mode() {
    let mem = MemStorage::new();
    let plan = FaultPlan::persistent(23).with_skip_calls(4);
    let faulty = FaultyStorage::new(Box::new(mem.clone()), plan);
    let svc = Service::create_with(fresh_kn(), LINES, cfg(), Box::new(faulty)).unwrap();
    let before: Vec<(u64, f64)> = svc.search(LINES[0]).unwrap().matches;

    // First write exhausts the retry budget and enters degraded mode.
    let err = svc.insert_record("never lands anywhere").unwrap_err();
    assert!(matches!(err, ServeError::Wal { op: "insert", .. }), "{err}");
    assert!(svc.is_degraded());

    // Subsequent writes fail fast with the typed degraded error.
    assert_eq!(
        svc.insert_record("still down").unwrap_err(),
        ServeError::Degraded
    );
    assert_eq!(svc.delete_record(0).unwrap_err(), ServeError::Degraded);
    assert_eq!(svc.compact().unwrap_err(), ServeError::Degraded);
    assert_eq!(svc.save().unwrap_err(), ServeError::Degraded);

    // Healing cannot succeed while the faults persist.
    assert!(matches!(
        svc.heal().unwrap_err(),
        ServeError::Wal { op: "heal", .. }
    ));
    assert!(svc.is_degraded());

    // Reads keep being served from the last published snapshot.
    assert_eq!(svc.search(LINES[0]).unwrap().matches, before);
    let stats = svc.stats();
    assert!(stats.degraded);
    assert_eq!(stats.degraded_entries, 1);
    assert_eq!(stats.degraded_writes, 4);
    drop(svc);

    // The log still holds exactly the acknowledged (seed) prefix.
    let recovered = Service::open_with(
        fresh_kn(),
        cfg(),
        Box::new(MemStorage::with_bytes(mem.bytes())),
    )
    .unwrap();
    assert_eq!(recovered.stats().live, LINES.len());
    assert!(!recovered.is_degraded());
    assert_eq!(recovered.search(LINES[0]).unwrap().matches, before);
}

#[test]
fn save_checkpoints_and_replay_is_one_base_build() {
    let mem = MemStorage::new();
    let svc = Service::create_with(fresh_kn(), LINES, cfg(), Box::new(mem.clone())).unwrap();
    run_script(&svc);
    let gen = svc.save().unwrap();
    assert_eq!(gen, svc.generation());
    let live_before = svc.stats().live;
    let next_id_probe = svc.insert_record("after checkpoint record").unwrap().id;
    drop(svc);

    let scanned = scan_log(&mem.bytes()).unwrap();
    assert!(
        matches!(scanned.ops.first(), Some(WalOp::Checkpoint { .. })),
        "save must rewrite the log to start with a checkpoint"
    );
    // checkpoint + one insert per live record + compact + the post-save insert
    assert_eq!(scanned.ops.len(), live_before + 3);

    let recovered = Service::open_with(
        fresh_kn(),
        cfg(),
        Box::new(MemStorage::with_bytes(mem.bytes())),
    )
    .unwrap();
    assert_eq!(recovered.stats().live, live_before + 1);
    // The id mint resumes after the checkpointed watermark.
    assert_eq!(
        recovered.insert_record("next after reopen").unwrap().id,
        next_id_probe + 1
    );
}

#[test]
fn open_or_seed_seeds_once_then_replays() {
    let dir = std::env::temp_dir().join(format!("au_serve_durability_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let svc = Service::open_or_seed(fresh_kn(), LINES, cfg(), &dir).unwrap();
    let ins = svc.insert_record("durable file backed record").unwrap();
    drop(svc);

    // Reopen: the seed lines are ignored, the log wins.
    let again = Service::open_or_seed(fresh_kn(), ["ignored seed"], cfg(), &dir).unwrap();
    assert_eq!(again.stats().live, LINES.len() + 1);
    assert!(again.snapshot().is_live(ins.id));
    let hits = again.search("durable file backed record").unwrap();
    assert_eq!(hits.matches.first(), Some(&(ins.id, 1.0)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn readers_survive_writer_degradation() {
    let mem = MemStorage::new();
    let plan = FaultPlan::persistent(31).with_skip_calls(4);
    let faulty = FaultyStorage::new(Box::new(mem.clone()), plan);
    let svc = Arc::new(Service::create_with(fresh_kn(), LINES, cfg(), Box::new(faulty)).unwrap());
    let want: Vec<(u64, f64)> = svc.search(LINES[0]).unwrap().matches;

    std::thread::scope(|s| {
        let writer = {
            let svc = Arc::clone(&svc);
            s.spawn(move || {
                let mut typed = 0usize;
                for i in 0..50 {
                    match svc.insert_record(&format!("doomed write {i}")) {
                        Ok(_) => {}
                        Err(ServeError::Wal { .. }) | Err(ServeError::Degraded) => typed += 1,
                        Err(e) => panic!("untyped failure: {e}"),
                    }
                }
                typed
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|r| {
                let svc = Arc::clone(&svc);
                let want = want.clone();
                s.spawn(move || {
                    for k in 0..200 {
                        let q = LINES[(r + k) % LINES.len()];
                        let resp = svc.search(q).unwrap();
                        if q == LINES[0] {
                            assert_eq!(resp.matches, want, "reads drifted under degradation");
                        }
                    }
                })
            })
            .collect();
        let typed = writer.join().unwrap();
        assert_eq!(typed, 50, "every doomed write fails with a typed error");
        for r in readers {
            r.join().unwrap();
        }
    });
    assert!(svc.is_degraded());
    assert_eq!(svc.stats().degraded_entries, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random op sequences × random fault seeds: after an arbitrary
    /// acknowledged history (with transient faults and healing along
    /// the way) and a crash at an arbitrary log cut, recovery equals
    /// the monolithic prepare of the acknowledged-prefix live corpus.
    /// A nonzero `compact_every` lets inserts start compactions that build
    /// in the background, and puts `Compact` frames in the fault schedule.
    #[test]
    fn recovery_equals_prefix_replay(
        choices in prop::collection::vec((0u8..10, 0usize..32), 4..24),
        fault_seed in 0u64..1_000,
        cut_frac in 0.0f64..1.0,
        compact_every in 0usize..4,
    ) {
        let mem = MemStorage::new();
        let plan = FaultPlan::new(fault_seed)
            .with_write_fault_per_mille(250)
            .with_sync_fault_per_mille(100)
            .with_skip_calls(4);
        let faulty = FaultyStorage::new(Box::new(mem.clone()), plan);
        let live_cfg = ServeConfig { compact_threshold: compact_every, ..cfg() };
        let svc = Service::create_with(fresh_kn(), LINES, live_cfg, Box::new(faulty)).unwrap();

        for (kind, x) in choices {
            let r = match kind {
                0..=5 => svc
                    .insert_record(&format!("generated record {x} token{}", x % 7))
                    .map(|_| ()),
                6..=7 => svc.delete_record(x as u64 % 12).map(|_| ()),
                8 => svc.compact().map(|_| ()),
                _ => svc.save().map(|_| ()),
            };
            match r {
                Ok(()) => {}
                Err(ServeError::Wal { .. }) => {
                    let _ = (0..20).any(|_| svc.heal().is_ok());
                }
                Err(ServeError::UnknownId { .. })
                | Err(ServeError::AlreadyDeleted { .. })
                | Err(ServeError::Degraded) => {}
                Err(e) => panic!("untyped failure: {e}"),
            }
        }
        drop(svc); // crash

        // Cut the surviving log at an arbitrary frame boundary.
        let bytes = mem.bytes();
        let bounds = frame_boundaries(&bytes);
        let cut = bounds[((bounds.len() - 1) as f64 * cut_frac) as usize] as usize;
        let prefix = bytes[..cut].to_vec();

        let scanned = scan_log(&prefix).unwrap();
        let live = live_from_ops(&scanned.ops);
        let recovered = Service::open_with(
            fresh_kn(),
            cfg(),
            Box::new(MemStorage::with_bytes(prefix)),
        )
        .unwrap();
        prop_assert_eq!(recovered.stats().live, live.len());

        let qs = queries();
        let q_refs: Vec<&str> = qs.iter().map(|s| s.as_str()).collect();
        let want = reference_answers(&live, &cfg(), &q_refs);
        for (q, want) in q_refs.iter().zip(&want) {
            let got: Vec<(u64, f64)> = recovered.search(q).unwrap().matches;
            prop_assert_eq!(&got, want, "served ≠ monolithic for {:?}", q);
        }
    }
}
