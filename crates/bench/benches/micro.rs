//! Microbenchmarks of the core building blocks, plus the ablations listed
//! in DESIGN.md (pebble order, MP bound mode, DP early termination, claw
//! cap, verification mode).

use au_bench::harness::med_dataset;
use au_core::config::{GramMeasure, SimConfig};
use au_core::engine::{Engine, JoinSpec, Prepared};
use au_core::join::FilterOutcome;
use au_core::pebble::{generate_pebbles, PebbleOrder};
use au_core::segment::segment_record;
use au_core::signature::{dp_prefix_len, heuristic_prefix_len, DpScratch, MpMode};
use au_core::usim::{usim_approx_seg, GramPostingsIndex};
use au_matching::{exact_wmis, max_weight_matching, square_imp, ConflictGraph, SquareImpConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench_hungarian(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_hungarian");
    g.sample_size(30).measurement_time(Duration::from_secs(3));
    for n in [8usize, 16, 32] {
        // deterministic pseudo-random weight matrix
        let w: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| ((i * 31 + j * 17) % 97) as f64 / 97.0)
                    .collect()
            })
            .collect();
        g.bench_function(format!("n{n}"), |b| {
            b.iter(|| black_box(max_weight_matching(&w)))
        });
    }
    g.finish();
}

fn random_graph(n: usize, p: f64, seed: u64) -> ConflictGraph {
    let mut state = seed;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let weights: Vec<f64> = (0..n).map(|_| 0.1 + next()).collect();
    let mut g = ConflictGraph::with_weights(weights);
    for u in 0..n {
        for v in u + 1..n {
            if next() < p {
                g.add_edge(u, v);
            }
        }
    }
    g
}

fn bench_wmis(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_wmis");
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    let graph = random_graph(40, 0.2, 0xfeed);
    // Ablation: claw cap 2 vs 3 vs 4 (DESIGN.md ablation #4).
    for talons in [2usize, 3, 4] {
        let cfg = SquareImpConfig {
            max_talons: talons,
            ..Default::default()
        };
        g.bench_function(format!("squareimp_d{talons}"), |b| {
            b.iter(|| black_box(square_imp(&graph, &cfg)))
        });
    }
    let small = random_graph(18, 0.3, 0xbeef);
    g.bench_function("exact_n18", |b| {
        b.iter(|| black_box(exact_wmis(&small, None)))
    });
    g.finish();
}

fn bench_pebbles_and_signatures(c: &mut Criterion) {
    let ds = med_dataset(200, 5);
    let cfg = SimConfig::default();
    let sr = segment_record(&ds.kn, &cfg, &ds.s.get(au_text::record::RecordId(0)).tokens);
    let mut pebbles = generate_pebbles(&ds.kn, &cfg, &sr);
    let order = PebbleOrder::build(std::iter::once(pebbles.as_slice()));
    order.sort(&mut pebbles, &mut Default::default());
    let mut g = c.benchmark_group("micro_signature");
    g.sample_size(50).measurement_time(Duration::from_secs(3));
    g.bench_function("generate_pebbles", |b| {
        b.iter(|| black_box(generate_pebbles(&ds.kn, &cfg, &sr)))
    });
    g.bench_function("heuristic_tau4", |b| {
        b.iter(|| {
            black_box(heuristic_prefix_len(
                &sr,
                &pebbles,
                4,
                0.85,
                1e-9,
                MpMode::ExactDp,
            ))
        })
    });
    let mut scratch = DpScratch::default();
    g.bench_function("dp_tau4", |b| {
        b.iter(|| {
            black_box(dp_prefix_len(
                &sr,
                &pebbles,
                4,
                0.85,
                1e-9,
                MpMode::ExactDp,
                &mut scratch,
            ))
        })
    });
    // Ablation: exact-DP vs greedy-ln MP bound (DESIGN.md ablation; the
    // greedy bound weakens filtering, which shows up as longer runtimes in
    // the filter bench below).
    g.bench_function("heuristic_tau4_greedy_mp", |b| {
        b.iter(|| {
            black_box(heuristic_prefix_len(
                &sr,
                &pebbles,
                4,
                0.85,
                1e-9,
                MpMode::GreedyLn,
            ))
        })
    });
    g.finish();
}

/// Stages 2–4 from a cold memo: ordering, signature selection, index
/// build and probe are all paid inside the measured call.
fn cold_filter(engine: &Engine, ps: &Prepared, pt: &Prepared, spec: &JoinSpec) -> FilterOutcome {
    ps.clear_memo();
    pt.clear_memo();
    engine
        .filter_outcome(ps, Some(pt), spec)
        .expect("filter run")
}

fn bench_filter_stage_mp_ablation(c: &mut Criterion) {
    let ds = med_dataset(200, 7);
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("valid config");
    let ps = engine.prepare(&ds.s).expect("prepare S");
    let pt = engine.prepare(&ds.t).expect("prepare T");
    let mut g = c.benchmark_group("micro_filter_stage");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    for (name, mp) in [
        ("mp_exact", MpMode::ExactDp),
        ("mp_greedy", MpMode::GreedyLn),
    ] {
        let spec = JoinSpec::threshold(0.85).au_dp(3).mp_mode(mp);
        g.bench_function(name, |b| {
            b.iter(|| black_box(cold_filter(&engine, &ps, &pt, &spec)))
        });
    }
    g.finish();
}

fn bench_usim_verification(c: &mut Criterion) {
    let ds = med_dataset(100, 9);
    let cfg = SimConfig::default();
    let pairs: Vec<_> = (0..8u32)
        .map(|i| {
            (
                segment_record(&ds.kn, &cfg, &ds.s.get(au_text::record::RecordId(i)).tokens),
                segment_record(&ds.kn, &cfg, &ds.t.get(au_text::record::RecordId(i)).tokens),
            )
        })
        .collect();
    let mut g = c.benchmark_group("micro_usim");
    g.sample_size(30).measurement_time(Duration::from_secs(3));
    g.bench_function("approx_batch8", |b| {
        b.iter(|| {
            for (s, t) in &pairs {
                black_box(usim_approx_seg(&ds.kn, &cfg, s, t));
            }
        })
    });
    // Ablation: improvement loop off (t_param → 1 disables 1/t gains).
    let mut cfg_no_improve = cfg;
    cfg_no_improve.t_param = 1.0;
    g.bench_function("approx_no_improvement_loop", |b| {
        b.iter(|| {
            for (s, t) in &pairs {
                black_box(usim_approx_seg(&ds.kn, &cfg_no_improve, s, t));
            }
        })
    });
    g.finish();
}

fn bench_search_queries(c: &mut Criterion) {
    let ds = med_dataset(400, 11);
    let cfg = SimConfig::default();
    let spec = JoinSpec::threshold(0.85).au_dp(3);
    let engine = Engine::new(ds.kn.clone(), cfg).expect("valid config");
    let pt = engine.prepare(&ds.t).expect("prepare T");
    let searcher = engine.searcher(&pt, &spec).expect("searcher");
    let queries: Vec<Vec<au_text::TokenId>> = (0..16u32)
        .map(|i| ds.s.get(au_text::record::RecordId(i)).tokens.clone())
        .collect();
    let mut g = c.benchmark_group("micro_search");
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    g.bench_function("build_400", |b| {
        // End-to-end index construction: prepare + signature/CSR build on
        // a fresh engine (no memo reuse between iterations).
        b.iter(|| {
            let engine = Engine::new(ds.kn.clone(), cfg).expect("valid config");
            let pt = engine.prepare(&ds.t).expect("prepare T");
            black_box(engine.searcher(&pt, &spec).expect("searcher"));
        })
    });
    g.bench_function("query_batch16", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(searcher.query_tokens(q));
            }
        })
    });
    // The per-corpus transposed posting index a searcher forces (and a
    // large join builds): the price of verifying a query as one run, at
    // the repo benchmark's `search_online` size. Divide by 5 for the
    // per-1,000-records figure DESIGN.md quotes.
    let big = med_dataset(5000, 11);
    let big_engine = Engine::new(big.kn.clone(), cfg).expect("valid config");
    let big_pt = big_engine.prepare(&big.t).expect("prepare T");
    g.bench_function("transposed_build_5000", |b| {
        b.iter(|| black_box(GramPostingsIndex::build(big_pt.seg_records())))
    });
    g.finish();
}

fn bench_topk_descent(c: &mut Criterion) {
    let ds = med_dataset(200, 13);
    let cfg = SimConfig::default();
    let mut g = c.benchmark_group("micro_topk");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    for k in [5usize, 25] {
        let spec = JoinSpec::topk(k).au_dp(3);
        g.bench_function(format!("topk_{k}"), |b| {
            // End-to-end like the legacy one-shot: preparation included.
            b.iter(|| {
                let engine = Engine::new(ds.kn.clone(), cfg).expect("valid config");
                let ps = engine.prepare(&ds.s).expect("prepare S");
                let pt = engine.prepare(&ds.t).expect("prepare T");
                black_box(engine.topk(&ps, &pt, &spec).expect("topk"))
            })
        });
    }
    g.finish();
}

fn bench_gram_measures(c: &mut Criterion) {
    // Filtering cost per gram measure (ablation 5): looser pebble weights
    // (Dice/Cosine/Overlap) mean longer signatures and more candidates.
    let ds = med_dataset(200, 15);
    let mut g = c.benchmark_group("micro_gram_measure");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    for gram in GramMeasure::ALL {
        let cfg = SimConfig::default().with_gram(gram);
        let engine = Engine::new(ds.kn.clone(), cfg).expect("valid config");
        let ps = engine.prepare(&ds.s).expect("prepare S");
        let pt = engine.prepare(&ds.t).expect("prepare T");
        let spec = JoinSpec::threshold(0.85).au_dp(3);
        g.bench_function(gram.label(), |b| {
            b.iter(|| black_box(cold_filter(&engine, &ps, &pt, &spec)))
        });
    }
    g.finish();
}

criterion_group!(
    micro,
    bench_hungarian,
    bench_wmis,
    bench_pebbles_and_signatures,
    bench_filter_stage_mp_ablation,
    bench_usim_verification,
    bench_search_queries,
    bench_topk_descent,
    bench_gram_measures
);
criterion_main!(micro);
