//! `au-analyze` — the workspace's invariant linter.
//!
//! The exact-join guarantees this repository is built on (serial ==
//! parallel byte-identical output, sharded == monolithic equivalence,
//! cascade bounds ≥ exact USIM) are enforced at runtime by the
//! equivalence test suites; this crate enforces them at the **source**
//! level, before any thread runs. It is a hand-rolled line/token scanner
//! — no `syn`, no network, no dependencies — in keeping with the
//! offline-shims dependency policy it also polices.
//!
//! Lint catalog (one-letter codes; DESIGN.md has the full grammar):
//!
//! * **D — determinism**: hash-map/set iteration in output-affecting
//!   modules (all of `au-core`) needs a `// det:` note arguing why
//!   iteration order cannot reach output.
//! * **A — atomic ordering**: every `Ordering::{Relaxed,…,SeqCst}` use
//!   needs a `// ordering:` happens-before argument.
//! * **P — panic surface**: no `unwrap`/`expect`/`panic!` in the
//!   `au-core` session files (`engine.rs`, `spec.rs`, `prepared.rs`,
//!   `join.rs` and the stage modules holding `Engine` operations)
//!   non-test paths (nor anywhere in
//!   `crates/serve/src/`); `// panic-ok:` documents exceptions.
//! * **F — float totality**: `partial_cmp` and float-literal `==` in
//!   cascade-bound code; `// float-ok:` documents exceptions.
//! * **C — dependency policy**: manifests may only reference workspace
//!   crates and `shims/`; `# dep-ok:` documents exceptions.
//!
//! Run `cargo run -p au-analyze` from the repo root (CI runs it as the
//! `static-analysis` job); `--format json` emits machine-readable
//! findings including audited (justified) sites.

#![warn(missing_docs)]

pub mod deps;
pub mod lints;
pub mod report;
pub mod scan;

pub use lints::{Finding, Lint};

use std::fs;
use std::path::{Path, PathBuf};

/// Directory names never descended into: build output, VCS state, lint
/// fixtures (which are violations *by design*), and data/artifact trees
/// with no Rust sources or manifests.
const SKIP_DIRS: &[&str] = &[
    "target",
    ".git",
    "fixtures",
    "data",
    "tools",
    "node_modules",
];

/// Analyze the workspace rooted at `root`: every `.rs` file through the
/// source lints, every `Cargo.toml` through the dependency lint.
/// Findings are sorted by (file, line) for stable output.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    for path in &files {
        let rel = rel_path(root, path);
        let Ok(text) = fs::read_to_string(path) else {
            continue; // non-UTF-8 or unreadable: nothing to lint
        };
        if path.file_name().is_some_and(|n| n == "Cargo.toml") {
            let rel_dir = rel.rsplit_once('/').map(|(d, _)| d).unwrap_or("");
            findings.extend(deps::lint_manifest(&rel, rel_dir, &text));
        } else {
            let scanned = scan::scan(&text);
            findings.extend(lints::lint_file(&rel, &scanned));
        }
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    Ok(findings)
}

/// `/`-separated path of `path` relative to `root`.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Recursive walk collecting lintable files, in sorted order for
/// determinism of the report itself.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_path_is_slash_separated() {
        let root = Path::new("/a/b");
        let p = Path::new("/a/b/crates/core/src/join.rs");
        assert_eq!(rel_path(root, p), "crates/core/src/join.rs");
    }
}
