//! The deterministic statement of "a write is O(1)": between two
//! compactions, `k` inserts and `m` deletes segment exactly `k` records,
//! a delete runs no stage 1 at all — and neither does the compaction that
//! ends the cycle: stage 1 runs once per record, ever. And stage 3 once
//! per record per ranking: a compaction that inherits its order signs the
//! rows it appends and nothing else.
//!
//! This test lives alone in its own integration-test binary on purpose
//! (the `tests/prepare_once.rs` pattern): `prepare_invocations()` is a
//! process-global counter, and sibling tests preparing corpora in the
//! same binary would bump it concurrently.

use au_core::engine::prepare_invocations;
use au_core::KnowledgeBuilder;
use au_serve::{ServeConfig, Service};

#[test]
fn a_write_prepares_one_record_and_a_delete_none() {
    let base = [
        "coffee shop downtown main street",
        "coffee shop uptown main avenue",
        "tea house downtown main street",
        "espresso bar main street",
    ];
    let cfg = ServeConfig {
        theta: 0.4,
        compact_threshold: 0,
        ..ServeConfig::default()
    };
    let svc = Service::build(KnowledgeBuilder::new().build(), base, cfg).unwrap();
    assert_eq!(
        svc.stats().records_prepared,
        base.len() as u64,
        "the base build segments every seed record once"
    );

    // One compaction cycle: k inserts interleaved with m deletes (of base
    // and of delta records alike).
    let inserts = [
        "bakery and coffee main street",
        "tea house uptown",
        "juice bar uptown plaza",
        "espresso cart harbor walk",
        "noodle stand harbor walk",
    ];
    let before = svc.stats().records_prepared;
    let mut deletes = 0u64;
    for (i, text) in inserts.iter().enumerate() {
        let ins = svc.insert_record(text).unwrap();
        assert_eq!(
            svc.stats().records_prepared,
            before + i as u64 + 1,
            "insert {i} segments its own record and nothing else"
        );
        if i % 2 == 1 {
            // One base record and the row just inserted.
            for id in [i as u64 / 2, ins.id] {
                let (prepared, stage1) = (svc.stats().records_prepared, prepare_invocations());
                svc.delete_record(id).unwrap();
                deletes += 1;
                assert_eq!(
                    svc.stats().records_prepared,
                    prepared,
                    "a delete segments nothing"
                );
                assert_eq!(
                    prepare_invocations(),
                    stage1,
                    "a delete runs no stage 1 (no delta re-prepare)"
                );
            }
        }
    }
    assert_eq!(deletes, 4);
    assert_eq!(
        svc.stats().records_prepared - before,
        inserts.len() as u64,
        "k inserts and m deletes between compactions prepare exactly k records \
         (a rebuilt delta would prepare k(k+1)/2 + m·delta_len)"
    );
    assert_eq!(svc.stats().delta_len, inserts.len());

    // The compaction segments nothing: it merges the rows the base build
    // and the inserts above already segmented.
    let live = svc.stats().live as u64;
    let (before, stage1) = (svc.stats().records_prepared, prepare_invocations());
    let signed = svc.stats().records_signed;
    assert_eq!(
        signed,
        base.len() as u64,
        "the base build signs every seed record once; an insert signs nothing yet"
    );
    svc.compact().unwrap();
    assert_eq!(
        svc.stats().records_prepared,
        before,
        "a compaction segments no record"
    );
    assert_eq!(
        prepare_invocations(),
        stage1,
        "a compaction runs no stage 1"
    );
    let stats = svc.stats();
    assert_eq!(stats.delta_len, 0);
    // 4 base rows − 2 deleted; 5 inserted − 2 deleted.
    let shape = stats.last_compact;
    assert_eq!((shape.carried, shape.dropped, shape.appended), (2, 2, 3));
    assert_eq!(shape.carried + shape.appended, live);
    // Five rows churned against the four the order was ranked from: this
    // base ranks afresh and signs every live row.
    assert!(shape.reranked);
    assert_eq!((shape.signed, stats.records_signed), (live, signed + live));

    // The next cycle churns three rows against those five: the compaction
    // inherits order and signatures, and stage 3 runs for what it appends.
    svc.insert_record("bakery and tea uptown").unwrap();
    svc.insert_record("espresso bar harbor walk").unwrap();
    let oldest = svc.snapshot().live_records()[0].0;
    svc.delete_record(oldest).unwrap();
    let (prepared, signed) = (svc.stats().records_prepared, svc.stats().records_signed);
    svc.compact().unwrap();
    let stats = svc.stats();
    let shape = stats.last_compact;
    assert_eq!((shape.carried, shape.dropped, shape.appended), (4, 1, 2));
    assert_eq!(
        (shape.reranked, shape.churn, shape.ranked_over),
        (false, 3, 5)
    );
    assert_eq!(stats.records_prepared, prepared, "still no stage 1");
    assert_eq!(
        stats.records_signed - signed,
        shape.appended,
        "records_signed rises by the rows appended"
    );
}
