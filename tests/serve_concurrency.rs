//! Concurrent serving stress: N readers race one writer through
//! insert/delete/compact cycles.
//!
//! The serving layer's contract is *generation-guarded snapshot
//! isolation*: every response carries exactly one generation, a reader
//! that observed watermark G before issuing a query is answered by a
//! snapshot of generation ≥ G (zero stale reads), per-thread generations
//! never go backwards, and the answer set at generation g is exactly the
//! live set at g — inserted-before ids may appear, tombstoned-at-or-
//! before ids must not. After the dust settles, a final compaction must
//! be byte-identical to a fresh monolithic prepare of the final corpus
//! state. This test is also wired into the nightly TSan job, where the
//! snapshot-swap and admission atomics run under the race detector.

use au_join::core::engine::{Engine, JoinSpec};
use au_join::core::signature::FilterKind;
use au_join::serve::{ServeConfig, Service, Snapshot};
use au_join::text::record::Corpus;
use std::collections::BTreeSet;
use std::sync::Arc;

const INITIAL: usize = 40;
const INSERTS: usize = 30;
const READERS: usize = 4;
const READS_PER_THREAD: usize = 150;

fn initial_lines() -> Vec<String> {
    (0..INITIAL)
        .map(|i| format!("base record {} kind{} common corpus line", i, i % 5))
        .collect()
}

fn inserted_line(i: usize) -> String {
    format!("probe target item {i} alpha beta")
}

fn config() -> ServeConfig {
    ServeConfig {
        theta: 0.5,
        filter: FilterKind::AuDp { tau: 2 },
        compact_threshold: 0, // the writer script compacts explicitly
        ..ServeConfig::default()
    }
}

/// One writer-side publish, as the readers must be able to observe it.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64),
    Delete(u64),
    Compact,
}

/// Replay the writer log up to generation `gen` to get the exact live
/// id set a snapshot of that generation must serve.
fn live_at(events: &[(u64, Op)], gen: u64) -> BTreeSet<u64> {
    let mut live: BTreeSet<u64> = (0..INITIAL as u64).collect();
    for &(_, op) in events.iter().take_while(|&&(g, _)| g <= gen) {
        match op {
            Op::Insert(id) => {
                live.insert(id);
            }
            Op::Delete(id) => {
                live.remove(&id);
            }
            Op::Compact => {}
        }
    }
    live
}

#[test]
fn readers_never_observe_stale_or_torn_state() {
    readers_race_one_writer(config());
}

/// The same race with compactions started by the threshold instead of
/// called: each one builds on a thread of its own while the writer goes
/// on, and lands whenever it is done. Every snapshot a landing published
/// must answer as a monolithic rebuild of its live records.
#[test]
fn readers_never_observe_stale_or_torn_state_under_auto_compaction() {
    let auto = ServeConfig {
        compact_threshold: 4,
        ..config()
    };
    let (svc, landed) = readers_race_one_writer(auto);
    let stats = svc.stats();
    assert!(
        stats.compactions + u64::from(stats.compacting) >= 1,
        "the fourth insert starts a compaction"
    );
    svc.compact().unwrap();
    for snap in landed.iter().chain([&svc.snapshot()]) {
        assert_answers_as_a_rebuild(&svc, snap);
    }
}

/// Dropping a service joins the compaction it started: the build thread
/// holds the snapshot it folds, and that is gone once `drop` returns.
#[test]
fn dropping_a_service_joins_its_compaction() {
    let auto = ServeConfig {
        compact_threshold: 1,
        ..config()
    };
    let kn = au_join::prelude::KnowledgeBuilder::new().build();
    let svc = Service::build(kn, initial_lines().iter().map(|s| s.as_str()), auto).unwrap();
    svc.insert_record(&inserted_line(0)).unwrap();
    let folded = Arc::downgrade(&svc.snapshot());
    drop(svc);
    assert!(
        folded.upgrade().is_none(),
        "a build thread outlived its service"
    );
}

/// Answers of `snap` against a fresh prepare of its live records, for the
/// initial lines, the inserted lines and a miss.
fn assert_answers_as_a_rebuild(svc: &Service, snap: &Snapshot) {
    let engine = Engine::new(snap.knowledge().clone(), svc.config().sim).unwrap();
    let mut corpus = Corpus::new();
    let mut gids: Vec<u64> = Vec::new();
    for (gid, rec) in snap.live_records() {
        corpus.push_tokens(rec.tokens.clone(), rec.raw.clone());
        gids.push(gid);
    }
    let prepared = engine.prepare_owned(corpus).unwrap();
    let spec = JoinSpec::threshold(svc.config().theta).filter(svc.config().filter);
    let searcher = engine.searcher(&prepared, &spec).unwrap();
    for q in initial_lines()
        .iter()
        .cloned()
        .chain((0..INSERTS).map(inserted_line))
        .chain(["no such tokens anywhere".to_string()])
    {
        let reference: Vec<(u64, f64)> = searcher
            .query(&q)
            .matches
            .iter()
            .map(|&(row, sim)| (gids[row as usize], sim))
            .collect();
        let served = snap.search(&q);
        assert_eq!(
            served.matches,
            reference,
            "generation {}: {q:?}",
            snap.generation()
        );
    }
}

/// `READERS` threads query while one writer runs the insert/delete script
/// (and, when `cfg` does not compact by threshold, an explicit compaction
/// every tenth insert). Returns the service and every snapshot the writer
/// saw a compaction land in.
fn readers_race_one_writer(cfg: ServeConfig) -> (Arc<Service>, Vec<Arc<Snapshot>>) {
    let explicit = cfg.compact_threshold == 0;
    let svc = Arc::new(
        Service::build(
            au_join::prelude::KnowledgeBuilder::new().build(),
            initial_lines().iter().map(|s| s.as_str()),
            cfg,
        )
        .unwrap(),
    );

    // Readers rotate through queries whose exact-text hits we can reason
    // about: initial lines (deleted by the script) and inserted lines.
    let queries: Vec<String> = (0..6)
        .map(|i| initial_lines()[i * 3].clone())
        .chain((0..6).map(|i| inserted_line(i * 4)))
        .collect();

    let mut events: Vec<(u64, Op)> = Vec::new();
    let mut landed: Vec<Arc<Snapshot>> = Vec::new();
    let mut observations: Vec<(u64, u64, String, Vec<u64>)> = Vec::new();

    std::thread::scope(|s| {
        let writer = {
            let svc = Arc::clone(&svc);
            s.spawn(move || {
                let mut log = Vec::new();
                let mut landed = Vec::new();
                let mut compactions = 0;
                for i in 0..INSERTS {
                    let m = svc.insert_record(&inserted_line(i)).unwrap();
                    assert_eq!(m.id, (INITIAL + i) as u64, "ids mint densely");
                    log.push((m.generation, Op::Insert(m.id)));
                    if i % 3 == 2 {
                        // Delete initial ids 0, 1, 2, ... one per third
                        // iteration — each exactly once.
                        let victim = (i / 3) as u64;
                        let d = svc.delete_record(victim).unwrap();
                        log.push((d.generation, Op::Delete(victim)));
                    }
                    if explicit && i % 10 == 9 {
                        let g = svc.compact().unwrap();
                        log.push((g, Op::Compact));
                        let snap = svc.snapshot();
                        assert_eq!(snap.delta_len(), 0, "compaction folded the delta");
                        assert_eq!(snap.tombstone_len(), 0, "compaction folded tombstones");
                    }
                    let stats = svc.stats();
                    if stats.compactions > compactions {
                        compactions = stats.compactions;
                        landed.push(svc.snapshot());
                    }
                }
                (log, landed)
            })
        };

        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let svc = Arc::clone(&svc);
                let queries = &queries;
                s.spawn(move || {
                    let mut seen = Vec::new();
                    let mut last_gen = 0u64;
                    for k in 0..READS_PER_THREAD {
                        let q = &queries[(r + k) % queries.len()];
                        let before = svc.generation();
                        let resp = svc.search(q).unwrap();
                        assert!(
                            resp.generation >= before,
                            "stale read: answered at {} after observing watermark {}",
                            resp.generation,
                            before
                        );
                        assert!(
                            resp.generation >= last_gen,
                            "generation went backwards within one thread"
                        );
                        last_gen = resp.generation;
                        assert!(
                            resp.matches.windows(2).all(|w| w[0].1 >= w[1].1),
                            "matches must stay sorted best-first"
                        );
                        seen.push((
                            resp.generation,
                            before,
                            q.clone(),
                            resp.matches.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
                        ));
                    }
                    seen
                })
            })
            .collect();

        (events, landed) = writer.join().unwrap();
        for r in readers {
            observations.extend(r.join().unwrap());
        }
    });

    // Generations publish strictly monotonically.
    assert!(
        events.windows(2).all(|w| w[0].0 < w[1].0),
        "every publish must mint a fresh, larger generation"
    );

    // Every observed answer set is consistent with the live set at the
    // answering generation: no tombstoned id served, no id served before
    // its insert published, and exact-text hits present once visible.
    let insert_gen: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|&(g, op)| match op {
            Op::Insert(id) => Some((id, g)),
            _ => None,
        })
        .collect();
    for (gen, _before, query, ids) in &observations {
        let live = live_at(&events, *gen);
        for id in ids {
            assert!(
                live.contains(id),
                "generation {gen} served id {id} which is not live there"
            );
        }
        // Completeness: a query that is the exact text of an inserted
        // record must hit it (sim 1.0) once the insert is visible.
        if let Some(i) = (0..INSERTS).find(|&i| inserted_line(i) == *query) {
            let id = (INITIAL + i) as u64;
            let visible = insert_gen.iter().any(|&(mid, g)| mid == id && g <= *gen);
            if visible {
                assert!(
                    ids.contains(&id),
                    "generation {gen} hides live record {id} from its own text"
                );
            }
        }
    }
    (svc, landed)
}

#[test]
fn final_state_is_byte_identical_to_monolithic_rebuild() {
    let svc = Service::build(
        au_join::prelude::KnowledgeBuilder::new().build(),
        initial_lines().iter().map(|s| s.as_str()),
        config(),
    )
    .unwrap();
    for i in 0..INSERTS {
        svc.insert_record(&inserted_line(i)).unwrap();
        if i % 3 == 2 {
            svc.delete_record((i / 3) as u64).unwrap();
        }
    }
    svc.compact().unwrap();
    let snap = svc.snapshot();

    // Monolithic reference: same knowledge lineage, fresh prepare of the
    // final live corpus.
    let kn = snap.knowledge().clone();
    let engine = Engine::new(kn, svc.config().sim).unwrap();
    let mut corpus = Corpus::new();
    let mut gids: Vec<u64> = Vec::new();
    for (gid, rec) in snap.live_records() {
        corpus.push_tokens(rec.tokens.clone(), rec.raw.clone());
        gids.push(gid);
    }
    let prepared = engine.prepare_owned(corpus).unwrap();
    let spec = JoinSpec::threshold(svc.config().theta).filter(svc.config().filter);

    // Searches: bitwise-equal (id, sim) lists for a battery of queries.
    let searcher = engine.searcher(&prepared, &spec).unwrap();
    for q in initial_lines()
        .iter()
        .cloned()
        .chain((0..INSERTS).map(inserted_line))
        .chain(["no such tokens anywhere".to_string()])
    {
        let served: Vec<(u64, f64)> = svc.search(&q).unwrap().matches;
        let reference: Vec<(u64, f64)> = searcher
            .query(&q)
            .matches
            .iter()
            .map(|&(row, sim)| (gids[row as usize], sim))
            .collect();
        assert_eq!(served, reference, "served ≠ monolithic for {q:?}");
    }

    // Joins: the full-window self-join equals the monolithic join.
    let served = svc.join_window(0, u64::MAX).unwrap();
    let reference: Vec<(u64, u64, f64)> = engine
        .join_self(&prepared, &spec)
        .unwrap()
        .pairs
        .iter()
        .map(|&(a, b, sim)| (gids[a as usize], gids[b as usize], sim))
        .collect();
    assert_eq!(served.pairs, reference, "served join ≠ monolithic join");
}
