//! Property-based tests for the text substrate.

use au_text::edit::{edit_similarity, levenshtein};
use au_text::jaccard::{intersection_size_sorted, jaccard_sorted, qgram_jaccard};
use au_text::qgram::{qgram_count, qgrams};
use au_text::record::Corpus;
use au_text::tokenize::{tokenize, TokenizeConfig};
use au_text::Vocab;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn qgram_count_bounds(s in "[a-f]{0,24}", q in 1usize..5) {
        let n = s.chars().count();
        let c = qgram_count(&s, q);
        if n == 0 {
            prop_assert_eq!(c, 0);
        } else if n <= q {
            prop_assert_eq!(c, 1);
        } else {
            prop_assert!(c >= 1 && c <= n - q + 1);
        }
    }

    #[test]
    fn qgrams_are_distinct_substrings(s in "[a-e]{2,16}") {
        let gs = qgrams(&s, 2);
        let mut seen = std::collections::HashSet::new();
        for g in &gs {
            prop_assert!(s.contains(g.as_str()));
            prop_assert!(seen.insert(g.clone()), "duplicate gram {g}");
            prop_assert_eq!(g.chars().count(), 2);
        }
    }

    #[test]
    fn jaccard_range_and_symmetry(a in "[a-d]{0,12}", b in "[a-d]{0,12}") {
        let j = qgram_jaccard(&a, &b, 2);
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert_eq!(j, qgram_jaccard(&b, &a, 2));
        if !a.is_empty() && a == b {
            prop_assert!((j - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn intersection_never_exceeds_sizes(mut xs in prop::collection::vec(0u32..40, 0..15),
                                        mut ys in prop::collection::vec(0u32..40, 0..15)) {
        xs.sort_unstable(); xs.dedup();
        ys.sort_unstable(); ys.dedup();
        let i = intersection_size_sorted(&xs, &ys);
        prop_assert!(i <= xs.len() && i <= ys.len());
        let j = jaccard_sorted(&xs, &ys);
        if xs.is_empty() && ys.is_empty() {
            prop_assert_eq!(j, 0.0);
        } else {
            prop_assert!((j - i as f64 / (xs.len() + ys.len() - i) as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn levenshtein_triangle(a in "[a-c]{0,8}", b in "[a-c]{0,8}", c in "[a-c]{0,8}") {
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }

    #[test]
    fn levenshtein_length_bounds(a in "[a-d]{0,10}", b in "[a-d]{0,10}") {
        let d = levenshtein(&a, &b);
        let (la, lb) = (a.chars().count(), b.chars().count());
        prop_assert!(d >= la.abs_diff(lb));
        prop_assert!(d <= la.max(lb));
        let s = edit_similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn tokenizer_is_idempotent_on_own_output(text in "[ a-z.,]{0,40}") {
        let cfg = TokenizeConfig::default();
        let once = tokenize(&text, &cfg);
        let rejoined = once.join(" ");
        let twice = tokenize(&rejoined, &cfg);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn vocab_intern_is_stable(words in prop::collection::vec("[a-f]{1,6}", 1..20)) {
        let mut v = Vocab::new();
        let first: Vec<_> = words.iter().map(|w| v.intern(w)).collect();
        let second: Vec<_> = words.iter().map(|w| v.intern(w)).collect();
        prop_assert_eq!(&first, &second);
        for (w, id) in words.iter().zip(&first) {
            prop_assert_eq!(v.resolve(*id), w.as_str());
        }
    }

    #[test]
    fn corpus_roundtrip(lines in prop::collection::vec("[a-e ]{0,20}", 0..10)) {
        let mut v = Vocab::new();
        let cfg = TokenizeConfig::default();
        let refs: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
        let c = Corpus::from_lines(refs.iter().copied(), &mut v, &cfg);
        prop_assert_eq!(c.len(), lines.len());
        for (i, r) in c.iter().enumerate() {
            prop_assert_eq!(&r.raw, &lines[i]);
            prop_assert_eq!(r.tokens.len(), tokenize(&lines[i], &cfg).len());
        }
    }
}
