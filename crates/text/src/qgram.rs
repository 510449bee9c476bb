//! q-gram extraction.
//!
//! The paper's gram-based measure (Eq. 1) splits strings into fixed-length
//! substrings. `G(S, q)` is defined over *letters*; we operate on Unicode
//! scalar values so multi-byte text is handled correctly. Strings shorter
//! than `q` produce the whole string as their single gram, so no string has
//! an empty gram set (this keeps Jaccard well-defined and matches common
//! practice in the similarity-join literature).
//!
//! Grams leave this module as strings. The join pipeline never stores them:
//! `au-core` hashes each gram window to a 64-bit pebble key in place.

use crate::hash::FxHashSet;

/// Extract the *set* of q-grams of `s` (deduplicated, order of first
/// occurrence).
///
/// `q = 0` is rejected. For `s` shorter than `q` scalar values, the whole
/// string is the single gram.
pub fn qgrams(s: &str, q: usize) -> Vec<String> {
    assert!(q > 0, "q must be positive");
    let chars: Vec<char> = s.chars().collect();
    if chars.is_empty() {
        return Vec::new();
    }
    if chars.len() <= q {
        return vec![s.to_string()];
    }
    let mut seen: FxHashSet<&[char]> = FxHashSet::default();
    chars
        .windows(q)
        .filter(|&w| seen.insert(w))
        .map(|w| w.iter().collect())
        .collect()
}

/// Count of *distinct* q-grams, i.e. `|G(s, q)|`.
pub fn qgram_count(s: &str, q: usize) -> usize {
    qgrams(s, q).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_2_grams() {
        // Example 2 of the paper: G("Helsingki", 2) and G("Helsinki", 2).
        let s: Vec<_> = qgrams("helsingki", 2);
        assert_eq!(s, vec!["he", "el", "ls", "si", "in", "ng", "gk", "ki"]);
        let t: Vec<_> = qgrams("helsinki", 2);
        assert_eq!(t, vec!["he", "el", "ls", "si", "in", "nk", "ki"]);
    }

    #[test]
    fn short_string_is_single_gram() {
        assert_eq!(qgrams("a", 2), vec!["a"]);
        assert_eq!(qgrams("ab", 2), vec!["ab"]);
        assert_eq!(qgrams("abc", 3), vec!["abc"]);
    }

    #[test]
    fn empty_string_has_no_grams() {
        assert!(qgrams("", 2).is_empty());
    }

    #[test]
    fn dedups_repeated_grams() {
        // "aaaa" has only one distinct 2-gram: "aa".
        assert_eq!(qgrams("aaaa", 2), vec!["aa"]);
        assert_eq!(qgram_count("aaaa", 2), 1);
    }

    #[test]
    fn gram_count_matches_window_count_when_unique() {
        assert_eq!(qgram_count("abcdef", 2), 5);
        assert_eq!(qgram_count("abcdef", 3), 4);
    }

    #[test]
    fn unicode_grams_are_char_based() {
        let g = qgrams("żółw", 2);
        assert_eq!(g, vec!["żó", "ół", "łw"]);
    }

    #[test]
    #[should_panic(expected = "q must be positive")]
    fn zero_q_panics() {
        qgrams("abc", 0);
    }
}
