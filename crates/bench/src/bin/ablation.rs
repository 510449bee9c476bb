//! Ablation study for the design choices called out in DESIGN.md:
//!
//! 1. pebble global order: frequency-ascending vs pseudo-random;
//! 2. MP(S) bound: exact interval DP vs the paper's greedy ⌈|A|/(ln n+1)⌉;
//! 3. Algorithm 1's improvement loop: on (t=50) vs off (t=1);
//! 4. SquareImp claw cap: d = 2 vs 3 vs 4;
//! 5. gram measure in the J slot: Jaccard vs Dice vs Cosine vs Overlap.
//!
//! Run: `cargo run --release -p au-bench --bin ablation`

use au_bench::harness::{fmt_secs, med_dataset, score_join, Table};
use au_bench::scale_from_env;
use au_core::config::{GramMeasure, SimConfig};
use au_core::engine::{Engine, JoinSpec, Prepared};
use au_core::index::CsrIndex;
use au_core::join::{candidate_pass, CompatCtx, SelectedSignatures};
use au_core::pebble::{generate_pebbles, PebbleKey, PebbleOrder};
use au_core::segment::segment_record;
use au_core::signature::MpMode;
use au_core::usim::{usim_approx_seg, usim_exact_seg};
use au_text::record::RecordId;
use std::time::Instant;

fn main() {
    let scale = scale_from_env();
    let n = ((1000.0 * scale) as usize).max(100);
    println!("[ablation] scale = {scale}, {n} records/side\n");
    ablate_pebble_order(n);
    ablate_mp_bound(n);
    ablate_improvement_loop(n);
    ablate_claw_cap(n);
    ablate_gram_measure(n);
}

/// 1. Frequency order vs pseudo-random order: candidates at fixed θ/τ.
fn ablate_pebble_order(n: usize) {
    let ds = med_dataset(n, 201);
    let cfg = SimConfig::default();
    let engine = Engine::new(ds.kn.clone(), cfg).expect("valid config");
    let ps = engine.prepare(&ds.s).expect("prepare S");
    let pt = engine.prepare(&ds.t).expect("prepare T");
    let spec = JoinSpec::threshold(0.85).au_dp(3);
    let freq = engine
        .filter_outcome(&ps, Some(&pt), &spec)
        .expect("filter run");

    // Rank every pebble key pseudo-randomly (by a hash of the key) —
    // violating the rare-first principle while keeping determinism and the
    // safety of the bounds (which hold for ANY global order) — and run the
    // same signature pass and candidate pass under that order.
    let mut keys: Vec<(u64, PebbleKey)> = [&ps, &pt]
        .iter()
        .flat_map(|p| p.seg_records())
        .flat_map(|sr| generate_pebbles(&ds.kn, &cfg, sr))
        .map(|pebble| {
            use std::hash::{Hash, Hasher};
            let mut h = au_text::hash::FxHasher64::default();
            pebble.key.hash(&mut h);
            (h.finish(), pebble.key)
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let shuffled = PebbleOrder::from_ranking(keys.into_iter().map(|(_, key)| key));
    let select =
        |p: &Prepared| SelectedSignatures::select(&ds.kn, &cfg, p.seg_records(), &shuffled, &spec);
    let tier0 = |p: &Prepared| -> Vec<(u32, u32)> {
        p.seg_records()
            .iter()
            .map(|sr| (sr.n_tokens() as u32, sr.min_partition))
            .collect()
    };
    let (sel_s, sel_t) = (select(&ps), select(&pt));
    let (tier0_s, tier0_t) = (tier0(&ps), tier0(&pt));
    let rand = candidate_pass(
        &sel_s,
        &sel_t,
        &CsrIndex::from_record_keys(&sel_t.record_keys),
        false,
        3,
        true,
        &CompatCtx {
            tier0_s: &tier0_s,
            tier0_t: &tier0_t,
            min_sim: 0.85 - cfg.eps,
        },
    );
    let mut t = Table::new(
        "Ablation 1 — pebble global order (AU-DP, θ=0.85, τ=3)",
        &["order", "avg sig len", "candidates", "processed"],
    );
    t.row(vec![
        "frequency (paper)".into(),
        format!("{:.1}", freq.avg_sig_len_s),
        freq.candidates.len().to_string(),
        freq.processed_pairs.to_string(),
    ]);
    t.row(vec![
        "pseudo-random".into(),
        format!("{:.1}", rand.avg_sig_len_s),
        rand.candidates.len().to_string(),
        rand.processed_pairs.to_string(),
    ]);
    t.emit();
}

/// 2. Exact-DP MP bound vs the paper's greedy/ln estimate.
fn ablate_mp_bound(n: usize) {
    let ds = med_dataset(n, 202);
    let cfg = SimConfig::default();
    let mut t = Table::new(
        "Ablation 2 — MP(S) lower bound (AU-DP, τ=3)",
        &[
            "θ",
            "exact-DP candidates",
            "greedy-ln candidates",
            "exact time",
            "greedy time",
        ],
    );
    let engine = Engine::new(ds.kn.clone(), cfg).expect("valid config");
    let ps = engine.prepare(&ds.s).expect("prepare S");
    let pt = engine.prepare(&ds.t).expect("prepare T");
    for theta in [0.75, 0.85, 0.95] {
        let spec = JoinSpec::threshold(theta).au_dp(3);
        let a = engine
            .join(&ps, &pt, &spec.mp_mode(MpMode::ExactDp))
            .expect("prepared join");
        let b = engine
            .join(&ps, &pt, &spec.mp_mode(MpMode::GreedyLn))
            .expect("prepared join");
        assert_eq!(a.pairs, b.pairs, "MP mode must not change results");
        t.row(vec![
            format!("{theta:.2}"),
            a.stats.candidates.to_string(),
            b.stats.candidates.to_string(),
            fmt_secs(a.stats.total_time().as_secs_f64()),
            fmt_secs(b.stats.total_time().as_secs_f64()),
        ]);
    }
    t.emit();
}

/// 3. Algorithm 1's 1/t improvement loop: quality and cost.
#[allow(clippy::field_reassign_with_default)]
fn ablate_improvement_loop(n: usize) {
    let ds = med_dataset(n.min(300), 203);
    let cfg_full = SimConfig::default(); // t = 50
    let mut cfg_off = SimConfig::default();
    cfg_off.t_param = 1.0; // loop disabled
    let mut better = 0usize;
    let mut equal = 0usize;
    let mut exact_hits_full = 0usize;
    let mut exact_hits_off = 0usize;
    let mut time_full = 0.0;
    let mut time_off = 0.0;
    let pairs = ds.truth.len().min(60);
    for p in ds.truth.iter().take(pairs) {
        let sr = segment_record(&ds.kn, &cfg_full, &ds.s.get(RecordId(p.s)).tokens);
        let tr = segment_record(&ds.kn, &cfg_full, &ds.t.get(RecordId(p.t)).tokens);
        let t0 = Instant::now();
        let full = usim_approx_seg(&ds.kn, &cfg_full, &sr, &tr);
        time_full += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let off = usim_approx_seg(&ds.kn, &cfg_off, &sr, &tr);
        time_off += t0.elapsed().as_secs_f64();
        if full > off + 1e-12 {
            better += 1;
        } else {
            equal += 1;
        }
        if let Some(exact) = usim_exact_seg(&ds.kn, &cfg_full, &sr, &tr) {
            if (full - exact).abs() < 1e-9 {
                exact_hits_full += 1;
            }
            if (off - exact).abs() < 1e-9 {
                exact_hits_off += 1;
            }
        }
    }
    let mut t = Table::new(
        "Ablation 3 — Algorithm 1 improvement loop (planted pairs)",
        &[
            "variant",
            "optimal hits",
            "strictly better",
            "equal",
            "time",
        ],
    );
    t.row(vec![
        "with loop (t=50)".into(),
        exact_hits_full.to_string(),
        better.to_string(),
        equal.to_string(),
        fmt_secs(time_full),
    ]);
    t.row(vec![
        "loop off (t=1)".into(),
        exact_hits_off.to_string(),
        "-".into(),
        "-".into(),
        fmt_secs(time_off),
    ]);
    t.emit();
}

/// 4. SquareImp claw-size cap: verification quality vs cost.
fn ablate_claw_cap(n: usize) {
    let ds = med_dataset(n.min(300), 204);
    let mut t = Table::new(
        "Ablation 4 — SquareImp claw cap d (planted pairs)",
        &["max_talons", "optimal hits", "mean sim", "time"],
    );
    let pairs = ds.truth.len().min(60);
    for cap in [2usize, 3, 4] {
        let cfg = SimConfig {
            max_talons: cap,
            ..SimConfig::default()
        };
        let mut hits = 0usize;
        let mut sum = 0.0f64;
        let mut secs = 0.0f64;
        for p in ds.truth.iter().take(pairs) {
            let sr = segment_record(&ds.kn, &cfg, &ds.s.get(RecordId(p.s)).tokens);
            let tr = segment_record(&ds.kn, &cfg, &ds.t.get(RecordId(p.t)).tokens);
            let t0 = Instant::now();
            let approx = usim_approx_seg(&ds.kn, &cfg, &sr, &tr);
            secs += t0.elapsed().as_secs_f64();
            sum += approx;
            if let Some(exact) = usim_exact_seg(&ds.kn, &cfg, &sr, &tr) {
                if (approx - exact).abs() < 1e-9 {
                    hits += 1;
                }
            }
        }
        t.row(vec![
            cap.to_string(),
            hits.to_string(),
            format!("{:.4}", sum / pairs.max(1) as f64),
            fmt_secs(secs),
        ]);
    }
    t.emit();
}

/// 5. Gram measure in the syntactic slot: filtering power, quality, time.
///
/// The non-Jaccard measures score *higher* on the same intersection, so at
/// a fixed θ they accept more pairs (Overlap ≥ Cosine ≥ Dice ≥ Jaccard);
/// their pebble weights are correspondingly looser bounds, which shows up
/// as longer signatures and more candidates (Overlap drastically so).
fn ablate_gram_measure(n: usize) {
    let ds = med_dataset(n.min(500), 205);
    let mut t = Table::new(
        "Ablation 5 — gram measure (AU-DP, θ=0.85, τ=3)",
        &["gram", "avg sig", "candidates", "results", "F1", "time"],
    );
    for gram in GramMeasure::ALL {
        let cfg = SimConfig::default().with_gram(gram);
        let engine = Engine::new(ds.kn.clone(), cfg).expect("valid config");
        let ps = engine.prepare(&ds.s).expect("prepare S");
        let pt = engine.prepare(&ds.t).expect("prepare T");
        let res = engine
            .join(&ps, &pt, &JoinSpec::threshold(0.85).au_dp(3))
            .expect("prepared join");
        let prf = score_join(&ds, &res);
        t.row(vec![
            gram.label().into(),
            format!("{:.1}", res.stats.avg_sig_len_s),
            res.stats.candidates.to_string(),
            res.pairs.len().to_string(),
            format!("{:.2}", prf.f),
            fmt_secs(res.stats.total_time().as_secs_f64()),
        ]);
    }
    t.emit();
}
