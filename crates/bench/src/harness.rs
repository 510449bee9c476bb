//! Shared experiment plumbing: scaling, datasets, P/R/F scoring and ASCII
//! tables.

use au_core::join::JoinResult;
use au_datagen::{DatasetProfile, LabeledDataset};
use std::collections::BTreeSet;

/// Experiment scale factor: `AU_SCALE` when set, else `default`.
pub fn scale_from_env(default: f64) -> f64 {
    scale_override(std::env::var("AU_SCALE").ok().as_deref()).unwrap_or(default)
}

/// `AU_SCALE`'s value as a scale, panicking with the offending value when
/// it is not a positive number — a typo must not run another scale.
fn scale_override(var: Option<&str>) -> Option<f64> {
    var.map(|s| {
        s.parse()
            .ok()
            .filter(|&x: &f64| x > 0.0 && x.is_finite())
            .unwrap_or_else(|| panic!("AU_SCALE must be a positive number, got {s:?}"))
    })
}

/// MED-like labeled dataset scaled to `n` records per side with 20%
/// planted pairs.
///
/// The knowledge-source sizes (vocabulary, taxonomy, rules) stay at the
/// full profile regardless of `n`: real MED has far more distinct tokens
/// than records share, so accidental pebble overlaps are rare. Shrinking
/// the vocabulary with the corpus would make every pair collide and turn
/// the filtering problem into a different (much denser) one.
pub fn med_dataset(n: usize, seed: u64) -> LabeledDataset {
    let profile = DatasetProfile::med_like((n as f64 / 2000.0).max(1.0));
    LabeledDataset::generate(&profile, n, n, n / 5, seed)
}

/// WIKI-like labeled dataset scaled to `n` records per side.
pub fn wiki_dataset(n: usize, seed: u64) -> LabeledDataset {
    let profile = DatasetProfile::wiki_like((n as f64 / 2000.0).max(1.0));
    LabeledDataset::generate(&profile, n, n, n / 5, seed)
}

/// Precision / recall / F-measure of a join result against planted truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prf {
    /// Precision `TP / output`.
    pub p: f64,
    /// Recall `TP / truth`.
    pub r: f64,
    /// F-measure `2PR / (P + R)`.
    pub f: f64,
}

fn prf_of(truth: &BTreeSet<(u32, u32)>, pairs: &[(u32, u32)]) -> Prf {
    let out: BTreeSet<(u32, u32)> = pairs.iter().copied().collect();
    let tp = out.intersection(truth).count() as f64;
    let p = if out.is_empty() {
        0.0
    } else {
        tp / out.len() as f64
    };
    let r = if truth.is_empty() {
        0.0
    } else {
        tp / truth.len() as f64
    };
    let f = if p + r == 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    };
    Prf { p, r, f }
}

/// Score id pairs against **all** planted pairs, regardless of whether
/// they reach any θ. Kept for perturbation-recovery experiments (Table 8
/// style: "how many planted relations does the pipeline recover?"); for
/// scoring a θ-join use [`score_pairs_at`] — the generator plants related
/// pairs, not pairs guaranteed to clear θ (see
/// [`au_datagen::GroundTruthPair::sim`]).
pub fn score_pairs(ds: &LabeledDataset, pairs: &[(u32, u32)]) -> Prf {
    let truth: BTreeSet<(u32, u32)> = ds.truth.iter().map(|g| (g.s, g.t)).collect();
    prf_of(&truth, pairs)
}

/// Score id pairs against the planted pairs whose unified similarity
/// actually reaches `theta` — the correct ground truth for a θ-join
/// (recall of a complete filter is 1.0 by construction; anything lower is
/// a real pipeline bug, not a generator artifact).
pub fn score_pairs_at(ds: &LabeledDataset, pairs: &[(u32, u32)], theta: f64) -> Prf {
    let truth: BTreeSet<(u32, u32)> = ds.truth_at(theta).map(|g| (g.s, g.t)).collect();
    prf_of(&truth, pairs)
}

/// Score a [`JoinResult`] against all planted truth (see [`score_pairs`]).
pub fn score_join(ds: &LabeledDataset, res: &JoinResult) -> Prf {
    let ids: Vec<(u32, u32)> = res.pairs.iter().map(|&(a, b, _)| (a, b)).collect();
    score_pairs(ds, &ids)
}

/// Score a θ-join [`JoinResult`] against the planted pairs reaching
/// `theta` (see [`score_pairs_at`]).
pub fn score_join_at(ds: &LabeledDataset, res: &JoinResult, theta: f64) -> Prf {
    let ids: Vec<(u32, u32)> = res.pairs.iter().map(|&(a, b, _)| (a, b)).collect();
    score_pairs_at(ds, &ids, theta)
}

/// Minimal aligned ASCII table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout and return the rendering.
    pub fn emit(&self) -> String {
        let s = self.render();
        println!("{s}");
        s
    }
}

/// Format seconds adaptively (µs/ms/s).
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header", "c"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        t.row(vec!["100".into(), "x".into(), "yy".into()]);
        let r = t.render();
        assert!(r.contains("## demo"));
        assert!(r.contains("long-header"));
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        Table::new("x", &["a", "b"]).row(vec!["1".into()]);
    }

    #[test]
    fn prf_scoring() {
        let ds = med_dataset(50, 3);
        let truth_ids: Vec<(u32, u32)> = ds.truth.iter().map(|g| (g.s, g.t)).collect();
        let perfect = score_pairs(&ds, &truth_ids);
        assert_eq!(perfect.p, 1.0);
        assert_eq!(perfect.r, 1.0);
        assert_eq!(perfect.f, 1.0);
        let none = score_pairs(&ds, &[]);
        assert_eq!(none.f, 0.0);
        let half = score_pairs(&ds, &truth_ids[..truth_ids.len() / 2]);
        assert_eq!(half.p, 1.0);
        assert!(half.r < 1.0);
    }

    #[test]
    fn scale_override_parses_a_positive_number_or_stays_out_of_the_way() {
        assert_eq!(scale_override(None), None);
        assert_eq!(scale_override(Some("0.1")), Some(0.1));
        assert_eq!(scale_override(Some("10")), Some(10.0));
    }

    #[test]
    fn scale_override_rejects_a_typo_or_a_non_positive_scale() {
        for bad in ["0,1", "", "0", "-1", "inf", "NaN"] {
            let msg = std::panic::catch_unwind(|| scale_override(Some(bad)))
                .expect_err(bad)
                .downcast::<String>()
                .expect("formatted panic message");
            assert_eq!(
                *msg,
                format!("AU_SCALE must be a positive number, got {bad:?}")
            );
        }
    }

    #[test]
    fn fmt_secs_ranges() {
        assert!(fmt_secs(5e-7).ends_with("µs"));
        assert!(fmt_secs(5e-3).ends_with("ms"));
        assert!(fmt_secs(2.5).ends_with('s'));
    }

    #[test]
    fn datasets_build() {
        let d = med_dataset(40, 1);
        assert_eq!(d.s.len(), 40);
        assert_eq!(d.truth.len(), 8);
        let w = wiki_dataset(40, 1);
        assert_eq!(w.t.len(), 40);
    }
}
