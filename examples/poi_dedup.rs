//! Points-of-interest deduplication via a self-join.
//!
//! A small POI directory contains duplicates written with different
//! conventions: typos, synonyms/abbreviations, and category-level terms.
//! An AU-Join self-join at θ = 0.7 clusters them; the streaming sink
//! variant shows how a service would emit matches without materializing
//! the result vector.
//!
//! Run: `cargo run --release --example poi_dedup`

use au_join::prelude::*;

fn main() -> Result<(), AuError> {
    let mut kb = KnowledgeBuilder::new();
    // Synonyms and abbreviations common in POI data.
    kb.synonym("coffee shop", "cafe", 1.0);
    kb.synonym("st", "street", 1.0);
    kb.synonym("ctr", "center", 1.0);
    kb.synonym("natl", "national", 1.0);
    // A slice of an IS-A hierarchy.
    kb.taxonomy_path(&["poi", "food", "coffee", "espresso bar"]);
    kb.taxonomy_path(&["poi", "food", "coffee", "coffee house"]);
    kb.taxonomy_path(&["poi", "culture", "museum", "art museum"]);
    kb.taxonomy_path(&["poi", "culture", "museum", "history museum"]);
    let mut kn = kb.build();

    let pois = [
        "espresso bar mannerheim st",
        "coffee house mannerheim street",
        "natl art museum helsinki",
        "national art museum helsinkki",
        "city sports ctr",
        "city sports center",
        "harbour fish market",
    ];
    let corpus = kn.corpus_from_lines(pois);

    let engine = Engine::new(kn, SimConfig::default())?;
    let prepared = engine.prepare(&corpus)?;
    let spec = JoinSpec::threshold(0.70).au_dp(2);
    let res = engine.join_self(&prepared, &spec)?;

    println!("duplicate candidates at θ = 0.70:\n");
    for &(a, b, sim) in &res.pairs {
        println!(
            "  {:.3}  {:?}\n         {:?}",
            sim, pois[a as usize], pois[b as usize]
        );
    }
    println!(
        "\nstats: {} candidate pairs, {} verified, {:.1?} total",
        res.stats.candidates,
        res.stats.result_count,
        res.stats.total_time()
    );
    assert!(
        res.pairs.iter().any(|&(a, b, _)| (a, b) == (0, 1)),
        "espresso bar / coffee house should match via taxonomy + synonym"
    );
    assert!(
        res.pairs.iter().any(|&(a, b, _)| (a, b) == (2, 3)),
        "museum pair should match via abbreviation + typo"
    );

    // The same join, streamed: pairs reach the sink in the same order,
    // and the prepared artifact is reused — no re-segmentation.
    let mut streamed = Vec::new();
    let stats = engine.join_self_sink(&prepared, &spec, |a, b, sim| {
        streamed.push((a, b, sim));
    })?;
    assert_eq!(streamed, res.pairs);
    assert_eq!(stats.result_count, res.pairs.len());
    println!(
        "\nstreaming sink re-run: {} pairs, prepare 0s (reused)",
        streamed.len()
    );
    Ok(())
}
