//! The lint families (see DESIGN.md "Static analysis & concurrency
//! audit" for the catalog and the justification-comment grammar).
//!
//! Every lint reports a [`Finding`]; a finding carrying a justification
//! comment is **audited** (reported in `--format json`, never fatal),
//! one without is a **violation** (non-zero exit). The scanner is
//! lexical, so each lint is written to over-approximate: a false
//! positive costs one justification comment (or a rename), a false
//! negative would cost an invariant.

use crate::scan::{Line, ScannedFile};

/// Lint family identifiers, matching the DESIGN.md catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// Determinism: hash-map/set iteration in output-affecting modules.
    Determinism,
    /// Atomics: every memory-ordering use needs a happens-before note.
    AtomicOrdering,
    /// Panic surface: no `unwrap`/`expect`/`panic!` in engine paths.
    PanicSurface,
    /// Float totality: `partial_cmp` / raw float `==` in bound code.
    FloatTotality,
    /// Dependency policy: workspace crates and `shims/` only.
    DepPolicy,
}

impl Lint {
    /// One-letter code used in reports (`D`, `A`, `P`, `F`, `C`).
    pub fn code(self) -> char {
        match self {
            Lint::Determinism => 'D',
            Lint::AtomicOrdering => 'A',
            Lint::PanicSurface => 'P',
            Lint::FloatTotality => 'F',
            Lint::DepPolicy => 'C',
        }
    }

    /// The justification-comment marker that audits (allows) a site.
    pub fn marker(self) -> &'static str {
        match self {
            Lint::Determinism => "det:",
            Lint::AtomicOrdering => "ordering:",
            Lint::PanicSurface => "panic-ok:",
            Lint::FloatTotality => "float-ok:",
            Lint::DepPolicy => "dep-ok:",
        }
    }

    /// All lints, in report order.
    pub fn all() -> [Lint; 5] {
        [
            Lint::Determinism,
            Lint::AtomicOrdering,
            Lint::PanicSurface,
            Lint::FloatTotality,
            Lint::DepPolicy,
        ]
    }
}

/// One lint hit: a violation when `justification` is `None`, an audited
/// site otherwise.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-indexed line number.
    pub line: usize,
    /// Which lint fired.
    pub lint: Lint,
    /// What was matched and why it matters.
    pub message: String,
    /// Text of the justification comment, when present.
    pub justification: Option<String>,
}

impl Finding {
    /// Violations are fatal; audited sites are informational.
    pub fn is_violation(&self) -> bool {
        self.justification.is_none()
    }
}

/// Is this file inside the output-affecting module set?
///
/// The D and F lints guard everything that computes or orders results:
/// the whole of `au-core` (`join`, `search`, `topk`, `shard`, `usim`,
/// `index` per the invariant list, plus `engine`, `pebble`, `signature`
/// and the rest — every `au-core` module sits on the path from corpus to
/// output bytes), and the whole of `au-serve` (snapshot merge ordering,
/// tombstone masking and delta/base result merging all sit directly on
/// the path from query to response bytes).
fn output_affecting(rel_path: &str) -> bool {
    rel_path.contains("crates/core/src/") || rel_path.contains("crates/serve/src/")
}

/// The session-API surface of `au-core`: every file holding `Engine`,
/// `JoinSpec` or `Prepared` code — `engine.rs`, `spec.rs`, `prepared.rs`
/// and the stage modules the `Engine` operations live beside — plus
/// `join.rs`, the file holding the verify driver every `Engine::join` runs.
fn engine_path(rel_path: &str) -> bool {
    const SESSION_FILES: [&str; 9] = [
        "engine", "spec", "prepared", "join", "shard", "topk", "search", "estimate", "suggest",
    ];
    rel_path.ends_with("engine.rs")
        || (rel_path.strip_prefix("crates/core/src/"))
            .and_then(|f| f.strip_suffix(".rs"))
            .is_some_and(|stem| SESSION_FILES.contains(&stem))
}

/// Methods whose call on a hash map/set observes iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Run every source lint over one scanned file. `rel_path` must be
/// `/`-separated and relative to the workspace root.
pub fn lint_file(rel_path: &str, file: &ScannedFile) -> Vec<Finding> {
    let mut out = Vec::new();
    lint_atomic_ordering(rel_path, file, &mut out);
    if output_affecting(rel_path) {
        lint_determinism(rel_path, file, &mut out);
        lint_float_totality(rel_path, file, &mut out);
    }
    if engine_path(rel_path) || rel_path.contains("crates/serve/src/") {
        lint_panic_surface(rel_path, file, &mut out);
    }
    out
}

/// Look for a justification marker on the finding's own line or in the
/// contiguous comment block immediately above it.
fn justification(file: &ScannedFile, idx: usize, marker: &str) -> Option<String> {
    let after = |c: &str| {
        c.split_once(marker)
            .map(|(_, rest)| rest.trim().to_string())
    };
    if let Some(j) = after(&file.lines[idx].comment) {
        return Some(j);
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l: &Line = &file.lines[i];
        let comment_only = l.code.trim().is_empty() && !l.comment.trim().is_empty();
        if !comment_only {
            break;
        }
        if let Some(j) = after(&l.comment) {
            return Some(j);
        }
    }
    None
}

/// Push one finding, resolving its justification.
fn push(
    out: &mut Vec<Finding>,
    file: &ScannedFile,
    rel_path: &str,
    idx: usize,
    lint: Lint,
    message: String,
) {
    out.push(Finding {
        file: rel_path.to_string(),
        line: idx + 1,
        lint,
        message,
        justification: justification(file, idx, lint.marker()),
    });
}

// ---------------------------------------------------------------------
// A — atomic ordering
// ---------------------------------------------------------------------

const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Every `Ordering::{Relaxed,…,SeqCst}` use must carry an adjacent
/// `// ordering:` comment stating the happens-before argument. Applies
/// to test code too — a test that asserts on a relaxed counter relies on
/// a happens-before edge just as production code does.
fn lint_atomic_ordering(rel_path: &str, file: &ScannedFile, out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        let mut from = 0usize;
        while let Some(p) = code[from..].find("Ordering::") {
            let at = from + p + "Ordering::".len();
            let variant: String = code[at..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect();
            from = at;
            if !ATOMIC_ORDERINGS.contains(&variant.as_str()) {
                continue; // std::cmp::Ordering or unrelated
            }
            push(
                out,
                file,
                rel_path,
                idx,
                Lint::AtomicOrdering,
                format!("atomic Ordering::{variant} without a `// ordering:` happens-before note"),
            );
            break; // one finding per line is enough
        }
    }
}

// ---------------------------------------------------------------------
// D — determinism
// ---------------------------------------------------------------------

/// Identifiers declared (anywhere in the file) with a hash-map/set type.
///
/// Recognized declaration shapes, all line-local:
/// `name: [&][mut] [Fx]Hash{Map,Set}<…>` (fields, params, annotations),
/// `name = [Fx]Hash{Map,Set}::…` (constructor bindings), and
/// `name = fx_{map,set}_with_capacity(…)`.
fn map_idents(file: &ScannedFile) -> Vec<String> {
    let mut idents: Vec<String> = Vec::new();
    for line in &file.lines {
        let code = &line.code;
        for word in ["HashMap", "HashSet"] {
            let mut from = 0usize;
            while let Some(p) = code[from..].find(word) {
                let at = from + p;
                from = at + word.len();
                // Accept prefixed aliases (FxHashMap); the word must end
                // the identifier.
                if code[from..]
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
                {
                    continue;
                }
                // Walk back to the start of the type/path word.
                let mut start = at;
                while start > 0
                    && code[..start]
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
                {
                    start -= 1;
                }
                if let Some(name) = decl_ident_before(&code[..start]) {
                    if !idents.contains(&name) {
                        idents.push(name);
                    }
                }
            }
        }
        for ctor in ["fx_map_with_capacity", "fx_set_with_capacity"] {
            if let Some(p) = code.find(ctor) {
                if let Some(name) = decl_ident_before(&code[..p]) {
                    if !idents.contains(&name) {
                        idents.push(name);
                    }
                }
            }
        }
    }
    idents
}

/// Given the text before a map type/constructor, extract the identifier
/// being declared: `… name :` or `… name =` (possibly with `&`/`mut`
/// between the separator and the type).
fn decl_ident_before(before: &str) -> Option<String> {
    let mut s = before.trim_end();
    loop {
        if let Some(rest) = s.strip_suffix("mut") {
            let boundary = rest
                .chars()
                .next_back()
                .is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '_'));
            if boundary {
                s = rest.trim_end();
                continue;
            }
        }
        if let Some(rest) = s.strip_suffix('&') {
            s = rest.trim_end();
            continue;
        }
        break;
    }
    if let Some(rest) = s.strip_suffix(':') {
        // `::` is a path, not a type annotation.
        if rest.ends_with(':') {
            return None;
        }
        return trailing_ident(rest.trim_end());
    }
    if let Some(rest) = s.strip_suffix('=') {
        // Reject `==`, `!=`, `<=`, `>=`, `+=`-style compounds.
        if rest
            .chars()
            .next_back()
            .is_some_and(|c| "=!<>+-*/%&|^".contains(c))
        {
            return None;
        }
        return trailing_ident(rest.trim_end());
    }
    None
}

/// The identifier ending at the end of `s`, if any.
fn trailing_ident(s: &str) -> Option<String> {
    let mut start = s.len();
    for (i, c) in s.char_indices().rev() {
        if c.is_ascii_alphanumeric() || c == '_' {
            start = i;
        } else {
            break;
        }
    }
    if start == s.len() {
        return None;
    }
    let ident = &s[start..];
    // Type position (`: HashMap`) with a leading uppercase path segment
    // (`slots: FxHashMap` vs `-> FxHashMap`) — require a lowercase or
    // underscore start, the convention for bindings and fields.
    let first = ident.chars().next()?;
    if first.is_ascii_lowercase() || first == '_' {
        Some(ident.to_string())
    } else {
        None
    }
}

/// Flag iteration over hash maps/sets in output-affecting modules unless
/// the site carries a `// det:` justification explaining why iteration
/// order cannot reach output.
fn lint_determinism(rel_path: &str, file: &ScannedFile, out: &mut Vec<Finding>) {
    let idents = map_idents(file);
    if idents.is_empty() {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        // `receiver.method(` where receiver's last path segment is a
        // known map identifier. A chain broken across lines
        // (`counts\n    .into_iter()`) resolves the receiver from the
        // previous code line, so wrapping can't evade the lint.
        for m in ITER_METHODS {
            let pat = format!(".{m}(");
            let mut from = 0usize;
            while let Some(p) = code[from..].find(&pat) {
                let at = from + p;
                from = at + pat.len();
                // For a wrapped chain the receiver sits on an earlier
                // line; that line also anchors the justification lookup
                // (the `// det:` note naturally sits at the statement
                // head, not at the wrapped method call).
                let mut anchor = idx;
                let recv = trailing_ident(&code[..at]).or_else(|| {
                    if !code[..at].trim().is_empty() {
                        return None;
                    }
                    let (i, l) = file.lines[..idx]
                        .iter()
                        .enumerate()
                        .rev()
                        .find(|(_, l)| !l.code.trim().is_empty())?;
                    anchor = i;
                    trailing_ident(l.code.trim_end())
                });
                if let Some(recv) = recv {
                    if idents.contains(&recv) {
                        let message = format!(
                            "hash-map iteration `{recv}.{m}()` in an output-affecting \
                             module without a `// det:` justification"
                        );
                        let just = justification(file, idx, Lint::Determinism.marker())
                            .or_else(|| justification(file, anchor, Lint::Determinism.marker()));
                        out.push(Finding {
                            file: rel_path.to_string(),
                            line: idx + 1,
                            lint: Lint::Determinism,
                            message,
                            justification: just,
                        });
                    }
                }
            }
        }
        // `for … in [&|&mut ]receiver {` over a known map identifier.
        if let Some(fp) = find_word(code, "for") {
            if let Some(inp) = find_word(&code[fp..], "in") {
                let expr = code[fp + inp + 2..].trim();
                let expr = expr.split(['{']).next().unwrap_or("").trim();
                let expr = expr
                    .trim_start_matches('&')
                    .trim_start_matches("mut ")
                    .trim();
                if !expr.contains('(') {
                    let last = expr.rsplit('.').next().unwrap_or(expr).trim();
                    if idents.iter().any(|i| i == last) {
                        push(
                            out,
                            file,
                            rel_path,
                            idx,
                            Lint::Determinism,
                            format!(
                                "`for … in {expr}` iterates a hash map in an output-affecting \
                                 module without a `// det:` justification"
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Position just past a standalone word (not part of an identifier).
fn find_word(code: &str, word: &str) -> Option<usize> {
    let mut from = 0usize;
    while let Some(p) = code[from..].find(word) {
        let at = from + p;
        from = at + word.len();
        let left_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        let right_ok = !code[from..]
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if left_ok && right_ok {
            return Some(at);
        }
    }
    None
}

// ---------------------------------------------------------------------
// P — panic surface
// ---------------------------------------------------------------------

/// No `unwrap`/`expect`/`panic!`/`unreachable!` in `au-core`'s session
/// files ([`engine_path`]) or `crates/serve/src/` non-test code: public session paths return
/// `AuError`/`ServeError` instead of aborting a long-lived service (the
/// serving layer is exactly the long-lived process the rule exists for).
/// `// panic-ok:` documents the sites that stay.
fn lint_panic_surface(rel_path: &str, file: &ScannedFile, out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        for pat in [".unwrap()", ".expect("] {
            if code.contains(pat) {
                push(
                    out,
                    file,
                    rel_path,
                    idx,
                    Lint::PanicSurface,
                    format!(
                        "`{}` in an engine path: return AuError or mark `// panic-ok:`",
                        pat.trim_start_matches('.').trim_end_matches('(')
                    ),
                );
            }
        }
        for mac in ["panic!", "unreachable!", "todo!", "unimplemented!"] {
            if let Some(p) = code.find(mac) {
                let left_ok = p == 0
                    || !code[..p]
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
                if left_ok {
                    push(
                        out,
                        file,
                        rel_path,
                        idx,
                        Lint::PanicSurface,
                        format!("`{mac}` in an engine path: return AuError or mark `// panic-ok:`"),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// F — float totality
// ---------------------------------------------------------------------

/// Cascade bounds must order floats totally (`total_cmp`) and never
/// compare against float literals with `==`/`!=`: a NaN or a rounding
/// ulp silently flips a bound from sound to unsound.
fn lint_float_totality(rel_path: &str, file: &ScannedFile, out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        if let Some(p) = code.find("partial_cmp") {
            let left_ok = p == 0
                || !code[..p]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
            if left_ok {
                push(
                    out,
                    file,
                    rel_path,
                    idx,
                    Lint::FloatTotality,
                    "`partial_cmp` in bound code: NaN breaks the comparator — use `total_cmp` \
                     or mark `// float-ok:`"
                        .to_string(),
                );
            }
        }
        if float_literal_eq(code) {
            push(
                out,
                file,
                rel_path,
                idx,
                Lint::FloatTotality,
                "float-literal `==`/`!=` in bound code: compare with an epsilon or mark \
                 `// float-ok:`"
                    .to_string(),
            );
        }
    }
}

/// Does the line compare a float literal with `==` or `!=`?
fn float_literal_eq(code: &str) -> bool {
    let b: Vec<char> = code.chars().collect();
    for i in 0..b.len().saturating_sub(1) {
        if b[i + 1] != '=' || (b[i] != '=' && b[i] != '!') {
            continue;
        }
        // Exclude `===`-like runs and `<=`, `>=`, `=>`, compound ops.
        if b[i] == '=' && (i > 0 && "=!<>+-*/%&|^".contains(b[i - 1]) || b.get(i + 2) == Some(&'='))
        {
            continue;
        }
        if b.get(i + 2) == Some(&'=') {
            continue;
        }
        let left = operand_left(&b, i);
        let right = operand_right(&b, i + 2);
        if is_float_literal(&left) || is_float_literal(&right) {
            return true;
        }
    }
    false
}

fn operand_left(b: &[char], mut i: usize) -> String {
    while i > 0 && b[i - 1] == ' ' {
        i -= 1;
    }
    let end = i;
    let mut start = end;
    while start > 0 {
        let c = b[start - 1];
        if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
            start -= 1;
        } else {
            break;
        }
    }
    b[start..end].iter().collect()
}

fn operand_right(b: &[char], mut i: usize) -> String {
    while i < b.len() && b[i] == ' ' {
        i += 1;
    }
    if i < b.len() && b[i] == '-' {
        i += 1;
    }
    let start = i;
    let mut end = start;
    while end < b.len() {
        let c = b[end];
        if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
            end += 1;
        } else {
            break;
        }
    }
    b[start..end].iter().collect()
}

/// `1.0`, `0.5f64`, `1_000.25` — but not `a.0` or `f64::EPSILON`.
fn is_float_literal(tok: &str) -> bool {
    let mut chars = tok.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    first.is_ascii_digit() && tok.contains('.')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn core_path() -> &'static str {
        "crates/core/src/join.rs"
    }

    #[test]
    fn decl_shapes_recognized() {
        let f = scan(
            "struct S { slots: FxHashMap<u32, u32> }\n\
             fn f(m: &mut FxHashSet<u8>) {}\n\
             let mut counts = FxHashMap::default();\n\
             let pooled: HashMap<u8, u8> = HashMap::new();\n\
             let cap = fx_map_with_capacity(4);\n",
        );
        let ids = map_idents(&f);
        for want in ["slots", "m", "counts", "pooled", "cap"] {
            assert!(ids.iter().any(|i| i == want), "missing {want}: {ids:?}");
        }
    }

    #[test]
    fn determinism_flags_iteration_and_for_loops() {
        let src = "let mut counts: FxHashMap<u64, u32> = FxHashMap::default();\n\
                   for (k, v) in &counts {\n}\n\
                   let x: Vec<_> = counts.iter().collect();\n\
                   let y: Vec<_> = counts.into_values().collect();\n";
        let f = scan(src);
        let findings = lint_file(core_path(), &f);
        let d: Vec<_> = findings
            .iter()
            .filter(|f| f.lint == Lint::Determinism)
            .collect();
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d.iter().all(|f| f.is_violation()));
    }

    #[test]
    fn determinism_catches_wrapped_method_chains() {
        let src = "let mut counts: FxHashMap<u64, u32> = FxHashMap::default();\n\
                   let v: Vec<_> = counts\n\
                       .into_iter()\n\
                       .collect();\n";
        let f = scan(src);
        let d: Vec<_> = lint_file(core_path(), &f)
            .into_iter()
            .filter(|f| f.lint == Lint::Determinism)
            .collect();
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn determinism_justified_and_vec_iteration_clean() {
        let src = "let mut counts: FxHashMap<u64, u32> = FxHashMap::default();\n\
                   // det: folded into an order-insensitive sum\n\
                   let s: u32 = counts.values().sum();\n\
                   let v = vec![1];\n\
                   for x in &v {\n}\n";
        let f = scan(src);
        let findings = lint_file(core_path(), &f);
        let d: Vec<_> = findings
            .iter()
            .filter(|f| f.lint == Lint::Determinism)
            .collect();
        assert_eq!(d.len(), 1);
        assert!(!d[0].is_violation());
        assert!(d[0]
            .justification
            .as_deref()
            .unwrap()
            .contains("order-insensitive"));
    }

    #[test]
    fn determinism_scoped_to_core() {
        let src = "let m: FxHashMap<u8, u8> = FxHashMap::default();\nfor x in &m {}\n";
        let f = scan(src);
        assert!(lint_file("crates/datagen/src/lib.rs", &f).is_empty());
    }

    #[test]
    fn atomic_ordering_needs_note() {
        let src = "let u = cursor.fetch_add(1, Ordering::Relaxed);\n\
                   // ordering: counter only, atomicity suffices\n\
                   let v = cursor.load(Ordering::Relaxed);\n\
                   let w = a.cmp(&b) == Ordering::Less;\n";
        let f = scan(src);
        let a: Vec<_> = lint_file("crates/x/src/y.rs", &f)
            .into_iter()
            .filter(|f| f.lint == Lint::AtomicOrdering)
            .collect();
        assert_eq!(a.len(), 2, "{a:?}"); // cmp::Ordering::Less ignored
        assert!(a[0].is_violation());
        assert!(!a[1].is_violation());
    }

    #[test]
    fn panic_surface_engine_only_and_unwrap_or_clean() {
        let src = "let a = x.unwrap();\n\
                   let b = x.unwrap_or(0);\n\
                   // panic-ok: poisoning is unreachable, lock scope is panic-free\n\
                   let c = m.lock().expect(\"poisoned\");\n";
        let f = scan(src);
        let p: Vec<_> = lint_file("crates/core/src/engine.rs", &f)
            .into_iter()
            .filter(|f| f.lint == Lint::PanicSurface)
            .collect();
        assert_eq!(p.len(), 2, "{p:?}");
        assert!(p[0].is_violation());
        assert!(!p[1].is_violation());
        assert_eq!(
            lint_file("crates/core/src/join.rs", &f)
                .iter()
                .filter(|f| f.lint == Lint::PanicSurface)
                .count(),
            2,
            "the verify driver's file is an engine path too"
        );
        assert!(lint_file("crates/core/src/index.rs", &f)
            .iter()
            .all(|f| f.lint != Lint::PanicSurface));
    }

    #[test]
    fn panic_surface_follows_the_engine_operations() {
        // `Engine` operations, `JoinSpec` and `Prepared` live beside the
        // stage modules they drive; the panic rule goes with them.
        let f = scan("let a = x.unwrap();\n");
        for file in [
            "crates/core/src/prepared.rs",
            "crates/core/src/spec.rs",
            "crates/core/src/shard.rs",
            "crates/core/src/topk.rs",
            "crates/core/src/search.rs",
            "crates/core/src/estimate.rs",
            "crates/core/src/suggest.rs",
        ] {
            let p: Vec<_> = lint_file(file, &f)
                .into_iter()
                .filter(|f| f.lint == Lint::PanicSurface)
                .collect();
            assert_eq!(p.len(), 1, "{file}: {p:?}");
            assert!(p[0].is_violation(), "{file}");
        }
        for outside in [
            "crates/core/src/pebble.rs",
            "crates/core/src/usim/search.rs",
        ] {
            assert!(lint_file(outside, &f)
                .iter()
                .all(|f| f.lint != Lint::PanicSurface));
        }
    }

    #[test]
    fn serve_crate_is_fully_in_scope() {
        // The serving layer gets the engine treatment: D and F (it is
        // output-affecting) plus the whole-crate panic-surface rule.
        let src = "let m: FxHashMap<u8, u8> = FxHashMap::default();\n\
                   for x in &m {}\n\
                   let y = z.unwrap();\n\
                   let o = a.partial_cmp(&b);\n";
        let f = scan(src);
        let findings = lint_file("crates/serve/src/snapshot.rs", &f);
        for lint in [Lint::Determinism, Lint::PanicSurface, Lint::FloatTotality] {
            assert!(
                findings.iter().any(|x| x.lint == lint && x.is_violation()),
                "{lint:?} must fire in crates/serve/src/"
            );
        }
    }

    #[test]
    fn durability_modules_are_in_scope() {
        // The recovery path must be panic-free: the P (and D/F) lints
        // cover the WAL, storage, and fault-injection modules exactly
        // like the rest of the serve crate.
        let src = "let y = z.unwrap();\nfor x in &m {}\n";
        let f = scan(src);
        for file in [
            "crates/serve/src/wal.rs",
            "crates/serve/src/storage.rs",
            "crates/serve/src/faults.rs",
        ] {
            let findings = lint_file(file, &f);
            assert!(
                findings
                    .iter()
                    .any(|x| x.lint == Lint::PanicSurface && x.is_violation()),
                "panic-surface lint must cover {file}"
            );
        }
    }

    #[test]
    fn float_totality_patterns() {
        let src = "let o = a.partial_cmp(&b).unwrap();\n\
                   if x == 1.0 {\n}\n\
                   if t.0 == u.0 {\n}\n\
                   if n >= 1 {\n}\n\
                   let c = a.total_cmp(&b);\n";
        let f = scan(src);
        let fl: Vec<_> = lint_file("crates/core/src/usim/verify.rs", &f)
            .into_iter()
            .filter(|f| f.lint == Lint::FloatTotality)
            .collect();
        assert_eq!(fl.len(), 2, "{fl:?}"); // partial_cmp + `== 1.0`
    }

    #[test]
    fn test_code_skipped_for_d_p_but_not_a() {
        let src = "#[cfg(test)]\nmod tests {\n\
                   fn t() {\n\
                   let m: FxHashMap<u8, u8> = FxHashMap::default();\n\
                   for x in &m {}\n\
                   let y = z.unwrap();\n\
                   let u = c.load(Ordering::Relaxed);\n\
                   }\n}\n";
        let f = scan(src);
        let findings = lint_file("crates/core/src/engine.rs", &f);
        assert!(findings.iter().all(|f| f.lint == Lint::AtomicOrdering));
        assert_eq!(findings.len(), 1);
    }
}
