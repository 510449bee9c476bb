//! Fixture-based self-tests: known-violation files must trip each lint
//! family, clean files must stay silent, and justification comments must
//! downgrade violations to audited sites.

use std::path::Path;

use au_analyze::lints::{lint_file, Lint};
use au_analyze::{deps, report, scan, Finding};

fn fixture(name: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::read_to_string(dir.join(name))
        .unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"))
}

/// Lint a source fixture under a synthetic workspace-relative path (the
/// path determines which lints are in scope).
fn lint_as(name: &str, rel_path: &str) -> Vec<Finding> {
    lint_file(rel_path, &scan::scan(&fixture(name)))
}

fn by_lint(findings: &[Finding], lint: Lint) -> (usize, usize) {
    let v = findings
        .iter()
        .filter(|f| f.lint == lint && f.is_violation())
        .count();
    let a = findings
        .iter()
        .filter(|f| f.lint == lint && !f.is_violation())
        .count();
    (v, a)
}

#[test]
fn d_trip_fixture_trips_every_shape() {
    let f = lint_as("d_trip.rs", "crates/core/src/join.rs");
    let (violations, audited) = by_lint(&f, Lint::Determinism);
    // for-loop, keys, values, drain, wrapped into_iter, same-line
    // into_iter — six distinct sites.
    assert_eq!(violations, 6, "{f:?}");
    assert_eq!(audited, 0);
}

#[test]
fn d_trip_fixture_is_silent_outside_core() {
    let f = lint_as("d_trip.rs", "crates/datagen/src/lib.rs");
    assert!(
        f.iter().all(|f| f.lint != Lint::Determinism),
        "D must only fire in output-affecting modules: {f:?}"
    );
}

#[test]
fn d_clean_fixture_is_silent_except_justified() {
    let f = lint_as("d_clean.rs", "crates/core/src/search.rs");
    let (violations, audited) = by_lint(&f, Lint::Determinism);
    assert_eq!(violations, 0, "{f:?}");
    assert_eq!(audited, 1); // the `// det:` values().sum() site
    let j = f
        .iter()
        .find(|f| f.lint == Lint::Determinism)
        .and_then(|f| f.justification.clone())
        .expect("justification text captured");
    assert!(j.contains("commutative sum"));
}

#[test]
fn a_fixture_trips_and_respects_notes() {
    let f = lint_as("a_fixture.rs", "crates/x/src/y.rs");
    let (violations, audited) = by_lint(&f, Lint::AtomicOrdering);
    assert_eq!(violations, 2, "{f:?}"); // SeqCst + Acquire, no notes
    assert_eq!(audited, 1); // the justified Relaxed load
}

#[test]
fn p_fixture_trips_only_under_engine_path() {
    let f = lint_as("p_fixture.rs", "crates/core/src/engine.rs");
    let (violations, audited) = by_lint(&f, Lint::PanicSurface);
    assert_eq!(violations, 3, "{f:?}"); // unwrap, expect, panic!
    assert_eq!(audited, 1); // panic-ok: expect
    let elsewhere = lint_as("p_fixture.rs", "crates/core/src/index.rs");
    assert!(elsewhere.iter().all(|f| f.lint != Lint::PanicSurface));
}

#[test]
fn f_fixture_trips_and_clean_passes() {
    let f = lint_as("f_fixture.rs", "crates/core/src/usim/verify.rs");
    let (violations, audited) = by_lint(&f, Lint::FloatTotality);
    assert_eq!(violations, 2, "{f:?}"); // partial_cmp + literal ==
    assert_eq!(audited, 1); // float-ok: sentinel
}

#[test]
fn c_trip_manifest_flags_every_entry() {
    let f = deps::lint_manifest("crates/x/Cargo.toml", "crates/x", &fixture("c_trip.toml"));
    let (violations, audited) = by_lint(&f, Lint::DepPolicy);
    // serde, tokio, gitdep, escape, criterion-remote, [dependencies.tabled]
    assert_eq!(violations, 6, "{f:?}");
    assert_eq!(audited, 0);
}

#[test]
fn c_clean_manifest_passes_with_one_audited() {
    let f = deps::lint_manifest("crates/x/Cargo.toml", "crates/x", &fixture("c_clean.toml"));
    let (violations, audited) = by_lint(&f, Lint::DepPolicy);
    assert_eq!(violations, 0, "{f:?}");
    assert_eq!(audited, 1); // dep-ok: oddball
}

#[test]
fn reports_render_fixture_findings() {
    let f = lint_as("d_trip.rs", "crates/core/src/join.rs");
    let text = report::text(&f);
    assert!(text.contains("LINT[D]"));
    assert!(text.contains("violation"));
    let json = report::json(&f);
    assert!(json.contains("\"lint\":\"D\""));
    assert!(json.contains("\"justified\":false"));
}
