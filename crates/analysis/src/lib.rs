//! Project-specific static analysis for the selfish-explorers workspace.
//!
//! The whole performance trajectory of this repo rests on one promise:
//! **bit-identical outputs at any thread count**. That promise is easy to
//! break silently — an `unwrap()` that panics only under a rare shard
//! error, a `HashMap` iterated in an output path (iteration order is
//! randomized per process), a naive `f64` sum whose rounding depends on
//! accumulation order. This crate is a token-level scanner (no rustc
//! plugin, no syn — it walks the workspace source the same way
//! `check_bench_json` walks the `BENCH_*.json` trajectories) enforcing
//! five project lints:
//!
//! * [`Lint::NoUnwrapInLib`] — forbid `.unwrap()` / `.expect(` /
//!   `panic!` / `unreachable!` / `todo!` / `unimplemented!` / `assert!` /
//!   `assert_eq!` / `assert_ne!` in non-test library code of
//!   `crates/{core,sim,search,mech,serve}` (`debug_assert*` stays
//!   allowed).
//!   Library entry points return typed `dispersal_core::Error` values;
//!   panicking belongs to tests and binaries. A checked-in allowlist
//!   (`crates/analysis/allowlist.txt`) exists to burn down — it holds
//!   no entry for this lint.
//! * [`Lint::DeterministicIteration`] — forbid iterating a `HashMap` /
//!   `HashSet` (`.iter()`, `.keys()`, `.values()`, `.drain()`,
//!   `for _ in &map`, …) in non-test code. Hash iteration order is
//!   process-randomized, so anything it feeds (manifests, error strings,
//!   CSV rows, merge order) silently loses determinism. Keyed lookups
//!   (`get` / `insert` / `contains_key` / `entry` / `len`) are fine —
//!   that is how `SharedGridCache` and `PbCache` stay deterministic — and
//!   `BTreeMap` / `BTreeSet` iterate in sorted order and are never
//!   flagged.
//! * [`Lint::FloatReduction`] — forbid naive `.sum()` reductions and
//!   `fold(0.0, …)` accumulators inside the numerics hot files
//!   (`kernel.rs`, `numerics.rs`, `simd.rs`) outside the approved
//!   compensated helpers (`kahan_sum`). Naive summation makes results
//!   depend on term order, which is exactly what batched/parallel
//!   evaluation reshuffles.
//! * [`Lint::BenchGuardCoverage`] — every `BENCH_*.json` trajectory at
//!   the repo root must have a bench target with a `--quick` guard mode
//!   (`guard::quick_mode`) and a CI invocation of it, so no recorded
//!   trajectory can regress unguarded; conversely every bench target
//!   `crates/bench/benches/<name>.rs` must have its `BENCH_<name>.json`,
//!   so no bench runs without a recorded trajectory. Trajectories with
//!   named per-lane floors ([`REQUIRED_GUARD_LABELS`]: the engine
//!   pool-reuse and two-thread floors, the batch GEMM and reference-tile
//!   AVX2-vs-scalar floors, the serve admission-batching floor, the
//!   search batched-expansion floor, the kernel fused-path and
//!   interp-vs-fused floors, the IFD water-filling-vs-nested-bisection
//!   floor, the ESS kernel-ledger and lazy-check-vs-full-ledger floors)
//!   must keep those labels in their guard — deleting a floor is a lint
//!   failure, not a silent coverage loss.
//! * [`Lint::DeadPublicApi`] — a `pub fn` in non-test code of
//!   `crates/{core,sim,search,mech,serve}/src` fails unless its name is
//!   used, as a whole word outside tests, comments, strings and `use`
//!   items, in `crates/*/src`, `crates/bench/benches`, `src/`, `examples/`
//!   or `perfbench/src` (the repo benchmark, read only: whatever it calls
//!   is API). A prelude re-export is not a caller. Public code only tests
//!   call is deleted, except references that tests compare against,
//!   which the allowlist keeps one by one as
//!   `dead-public-api <path> <fn> # <reason>`; an entry without a reason
//!   suppresses nothing.
//!
//! The scanner strips comments, strings, and character literals first
//! (so doc-prose `panic!` or a `"HashMap"` string literal never fire) and
//! masks `#[cfg(test)]` items. [`run_check`] drives the filesystem walk;
//! every lint body is a pure function over in-memory text so the unit
//! tests can seed violations without touching disk. Output is
//! `file:line` text plus one line of machine-readable JSON
//! ([`Report::to_json`], a `serde::Value` rendered by the vendored codec);
//! the process exits non-zero on any non-allowlisted violation **or any
//! stale allowlist entry** (burn-down entries must be deleted once
//! clean).

use serde::Value;
use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The lint catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    /// Panicking calls in library code that should return typed errors.
    NoUnwrapInLib,
    /// Iteration over randomized-order hash collections.
    DeterministicIteration,
    /// Order-sensitive naive float reductions in the numerics hot files.
    FloatReduction,
    /// A recorded bench trajectory without a wired `--quick` CI guard, or
    /// a bench without a recorded trajectory.
    BenchGuardCoverage,
    /// A library `pub fn` that no non-test code calls.
    DeadPublicApi,
}

impl Lint {
    /// Stable machine-readable lint name (used in reports and the
    /// allowlist file).
    pub fn name(self) -> &'static str {
        match self {
            Lint::NoUnwrapInLib => "no-unwrap-in-lib",
            Lint::DeterministicIteration => "deterministic-iteration",
            Lint::FloatReduction => "float-reduction",
            Lint::BenchGuardCoverage => "bench-guard-coverage",
            Lint::DeadPublicApi => "dead-public-api",
        }
    }

    /// One-line description for `analysis lints`.
    pub fn describe(self) -> &'static str {
        match self {
            Lint::NoUnwrapInLib => "unwrap()/expect()/panic!/assert! in non-test library code",
            Lint::DeterministicIteration => {
                "HashMap/HashSet iteration in non-test code (order is process-randomized)"
            }
            Lint::FloatReduction => {
                "naive .sum()/fold(0.0, ..) in kernel.rs/numerics.rs outside kahan_sum"
            }
            Lint::BenchGuardCoverage => {
                "BENCH_*.json trajectory without a --quick bench guard wired into CI, \
                 or a bench without a BENCH_*.json trajectory"
            }
            Lint::DeadPublicApi => "library pub fn whose name no non-test code uses",
        }
    }

    /// Every lint, in report order.
    pub fn all() -> [Lint; 5] {
        [
            Lint::NoUnwrapInLib,
            Lint::DeterministicIteration,
            Lint::FloatReduction,
            Lint::BenchGuardCoverage,
            Lint::DeadPublicApi,
        ]
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding: a lint fired at `file:line`.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which lint fired.
    pub lint: Lint,
    /// Workspace-relative path (always `/`-separated).
    pub file: String,
    /// 1-based line number (0 for whole-file findings like missing bench
    /// guards).
    pub line: usize,
    /// The function a `dead-public-api` finding names (`None` for the
    /// other lints, whose allowlist entries name only a file).
    pub item: Option<String>,
    /// The offending source line (trimmed), or a synthesized message.
    pub excerpt: String,
    /// Whether an allowlist entry covers this finding (reported, but not
    /// failing).
    pub allowed: bool,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if self.allowed { " (allowlisted)" } else { "" };
        write!(f, "{}:{}: [{}]{} {}", self.file, self.line, self.lint, tag, self.excerpt)
    }
}

// ---------------------------------------------------------------------------
// Token-level source preparation
// ---------------------------------------------------------------------------

/// Blank out comments (line, nested block, doc), string literals (plain,
/// raw, byte, C), and character literals, preserving byte offsets and
/// newlines so line numbers survive. Lifetimes (`'a`, `'static`) are kept
/// as-is; `'x'` / `b'x'` literals are blanked.
pub fn strip_source(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    let n = bytes.len();
    // Blank `count` bytes starting at `i`, preserving newlines.
    fn blank(out: &mut Vec<u8>, bytes: &[u8], from: usize, to: usize) {
        for &b in &bytes[from..to] {
            out.push(if b == b'\n' { b'\n' } else { b' ' });
        }
    }
    while i < n {
        let b = bytes[i];
        // Line comment (also covers /// and //! doc comments).
        if b == b'/' && i + 1 < n && bytes[i + 1] == b'/' {
            let end = bytes[i..].iter().position(|&c| c == b'\n').map_or(n, |p| i + p);
            blank(&mut out, bytes, i, end);
            i = end;
            continue;
        }
        // Block comment, nested.
        if b == b'/' && i + 1 < n && bytes[i + 1] == b'*' {
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < n && depth > 0 {
                if bytes[j] == b'/' && j + 1 < n && bytes[j + 1] == b'*' {
                    depth += 1;
                    j += 2;
                } else if bytes[j] == b'*' && j + 1 < n && bytes[j + 1] == b'/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            blank(&mut out, bytes, i, j);
            i = j;
            continue;
        }
        // Raw strings: r"..."  r#"..."#  (and br / cr prefixes).
        let raw_start = if b == b'r' {
            Some(i + 1)
        } else if (b == b'b' || b == b'c') && i + 1 < n && bytes[i + 1] == b'r' {
            Some(i + 2)
        } else {
            None
        };
        if let Some(mut j) = raw_start {
            // Only a raw string if hashes-then-quote follows.
            let mut hashes = 0usize;
            while j < n && bytes[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            if j < n && bytes[j] == b'"' {
                j += 1;
                // Scan for `"` followed by `hashes` hashes.
                while j < n {
                    if bytes[j] == b'"'
                        && bytes[j + 1..].iter().take(hashes).filter(|&&c| c == b'#').count()
                            == hashes
                    {
                        j += 1 + hashes;
                        break;
                    }
                    j += 1;
                }
                blank(&mut out, bytes, i, j.min(n));
                i = j.min(n);
                continue;
            }
        }
        // Plain / byte strings with escapes.
        if b == b'"' || (b == b'b' && i + 1 < n && bytes[i + 1] == b'"') {
            let mut j = if b == b'"' { i + 1 } else { i + 2 };
            while j < n {
                if bytes[j] == b'\\' {
                    j += 2;
                } else if bytes[j] == b'"' {
                    j += 1;
                    break;
                } else {
                    j += 1;
                }
            }
            blank(&mut out, bytes, i, j.min(n));
            i = j.min(n);
            continue;
        }
        // Char literal vs lifetime.
        if b == b'\'' || (b == b'b' && i + 1 < n && bytes[i + 1] == b'\'') {
            let q = if b == b'\'' { i } else { i + 1 };
            let is_char = if q + 1 >= n {
                false
            } else if bytes[q + 1] == b'\\' {
                true
            } else {
                // `'a` with no closing quote two ahead is a lifetime.
                q + 2 < n && bytes[q + 2] == b'\''
            };
            if is_char {
                let mut j = q + 1;
                while j < n {
                    if bytes[j] == b'\\' {
                        j += 2;
                    } else if bytes[j] == b'\'' {
                        j += 1;
                        break;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, bytes, i, j.min(n));
                i = j.min(n);
                continue;
            }
        }
        out.push(b);
        i += 1;
    }
    // The scanner only ever blanks whole ASCII-delimited regions, so the
    // result is valid UTF-8 whenever the input was.
    String::from_utf8(out).unwrap_or_default()
}

/// Byte spans of `#[cfg(test)]`-gated items (typically `mod tests { … }`)
/// in **stripped** source: from the attribute to the matching close brace
/// (or the terminating `;` for brace-less items).
pub fn test_spans(stripped: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let bytes = stripped.as_bytes();
    for pat in ["#[cfg(test)]", "#[cfg(all(test"] {
        let mut from = 0;
        while let Some(rel) = stripped[from..].find(pat) {
            let start = from + rel;
            // Find the end of this attribute ( `]` matching its `[` ).
            let mut j = start + 1; // at '['
            let mut depth = 0i32;
            while j < bytes.len() {
                match bytes[j] {
                    b'[' => depth += 1,
                    b']' => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            // Skip whitespace and any further attributes, then span the
            // item body: first `{ … }` at depth 0, or a `;` before it.
            let mut k = j;
            let mut end = bytes.len();
            let mut brace = 0i32;
            while k < bytes.len() {
                match bytes[k] {
                    b'#' if brace == 0 && k + 1 < bytes.len() && bytes[k + 1] == b'[' => {
                        // Nested attribute: skip to its matching ']'.
                        let mut d = 0i32;
                        while k < bytes.len() {
                            match bytes[k] {
                                b'[' => d += 1,
                                b']' => {
                                    d -= 1;
                                    if d == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            k += 1;
                        }
                    }
                    b';' if brace == 0 => {
                        end = k + 1;
                        break;
                    }
                    b'{' => brace += 1,
                    b'}' => {
                        brace -= 1;
                        if brace == 0 {
                            end = k + 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            spans.push((start, end));
            from = end.max(start + 1);
        }
    }
    spans.sort_unstable();
    spans
}

fn in_spans(spans: &[(usize, usize)], offset: usize) -> bool {
    spans.iter().any(|&(a, b)| (a..b).contains(&offset))
}

fn line_of(src: &str, offset: usize) -> usize {
    src.as_bytes()[..offset.min(src.len())].iter().filter(|&&b| b == b'\n').count() + 1
}

fn excerpt_at(original: &str, offset: usize) -> String {
    let line = line_of(original, offset);
    let text = original.lines().nth(line - 1).unwrap_or("").trim();
    let mut s = text.to_string();
    if s.len() > 120 {
        s.truncate(117);
        s.push_str("...");
    }
    s
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// All match offsets of `pat` in `hay`, with a word-boundary check on the
/// left when the pattern itself starts with an identifier byte (so
/// `panic!` does not match inside `foo_panic!`, but `.unwrap()` — whose
/// preceding byte is legitimately the receiver — always matches).
fn boundary_matches(hay: &str, pat: &str) -> Vec<usize> {
    let needs_boundary = pat.bytes().next().is_some_and(is_ident_byte);
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = hay[from..].find(pat) {
        let at = from + rel;
        if !needs_boundary || at == 0 || !is_ident_byte(hay.as_bytes()[at - 1]) {
            out.push(at);
        }
        from = at + 1;
    }
    out
}

// ---------------------------------------------------------------------------
// Lint: no-unwrap-in-lib
// ---------------------------------------------------------------------------

/// Panicking constructs forbidden in library code. The left word
/// boundary keeps `debug_assert!` and friends out of the `assert` matches.
const PANIC_PATTERNS: [&str; 9] = [
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
    "assert!",
    "assert_eq!",
    "assert_ne!",
];

/// Scan one library file for panicking constructs outside `#[cfg(test)]`
/// items. `file` is the workspace-relative path used in reports.
pub fn lint_no_unwrap(file: &str, src: &str) -> Vec<Violation> {
    let stripped = strip_source(src);
    let tests = test_spans(&stripped);
    let mut out = Vec::new();
    for pat in PANIC_PATTERNS {
        for at in boundary_matches(&stripped, pat) {
            if in_spans(&tests, at) {
                continue;
            }
            out.push(Violation {
                lint: Lint::NoUnwrapInLib,
                file: file.to_string(),
                line: line_of(&stripped, at),
                item: None,
                excerpt: excerpt_at(src, at),
                allowed: false,
            });
        }
    }
    out.sort_by_key(|v| v.line);
    out
}

// ---------------------------------------------------------------------------
// Lint: deterministic-iteration
// ---------------------------------------------------------------------------

/// Iteration methods that expose hash ordering.
const HASH_ITER_METHODS: [&str; 8] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
    ".retain(",
];

/// Identifiers bound to `HashMap` / `HashSet` in `stripped` source:
/// `let (mut) name = HashMap::…`, `name: HashMap<…>` fields and
/// parameters (including `std::collections::`-qualified paths). Purely
/// heuristic and line-oriented — good enough for this workspace's idiom,
/// and unit-tested against the shapes that actually occur.
fn hash_bound_idents(stripped: &str) -> Vec<String> {
    let mut idents: Vec<String> = Vec::new();
    for line in stripped.lines() {
        if !(line.contains("HashMap") || line.contains("HashSet")) {
            continue;
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
            continue;
        }
        let mut found: Vec<String> = Vec::new();
        if let Some(pos) = trimmed.find("let ") {
            // `let mut name = HashMap::new()` / `let name: HashMap<…>`
            let rest = trimmed[pos + 4..].trim_start();
            let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
            let len = rest.bytes().take_while(|&b| is_ident_byte(b)).count();
            if len > 0 {
                found.push(rest[..len].to_string());
            }
        } else {
            // `name: HashMap<…>` (struct field / fn parameter). Scope the
            // type check to each comma-separated segment so an unrelated
            // parameter on a line whose *return type* mentions a hash
            // collection is not captured.
            for segment in trimmed.split(',') {
                if !(segment.contains("HashMap") || segment.contains("HashSet")) {
                    continue;
                }
                // The declaring `name:` colon, not a `::` path separator.
                let Some(colon) = segment
                    .char_indices()
                    .find(|&(i, c)| {
                        c == ':'
                            && segment.as_bytes().get(i + 1) != Some(&b':')
                            && (i == 0 || segment.as_bytes()[i - 1] != b':')
                    })
                    .map(|(i, _)| i)
                else {
                    continue;
                };
                if !(segment[colon..].contains("HashMap") || segment[colon..].contains("HashSet")) {
                    continue;
                }
                let head = segment[..colon].trim_end();
                let start = head.bytes().rposition(|b| !is_ident_byte(b)).map_or(0, |p| p + 1);
                if start < head.len() {
                    found.push(head[start..].to_string());
                }
            }
        }
        for name in found {
            if !idents.contains(&name) {
                idents.push(name);
            }
        }
    }
    idents
}

/// Scan one file for iteration over hash-ordered collections outside
/// `#[cfg(test)]` items.
pub fn lint_deterministic_iteration(file: &str, src: &str) -> Vec<Violation> {
    let stripped = strip_source(src);
    let tests = test_spans(&stripped);
    let idents = hash_bound_idents(&stripped);
    let mut out = Vec::new();
    let mut push = |at: usize| {
        if !in_spans(&tests, at) {
            out.push(Violation {
                lint: Lint::DeterministicIteration,
                file: file.to_string(),
                line: line_of(&stripped, at),
                item: None,
                excerpt: excerpt_at(src, at),
                allowed: false,
            });
        }
    };
    for ident in &idents {
        // Method-call iteration: `map.iter()`, `self.map.values()`, …
        for method in HASH_ITER_METHODS {
            let pat = format!("{ident}{method}");
            for at in boundary_matches(&stripped, &pat) {
                push(at);
            }
        }
    }
    // `for … in &map { … }` loops (line-oriented): the expression between
    // ` in ` and the opening brace mentions a hash-bound identifier.
    let mut offset = 0usize;
    for line in stripped.lines() {
        let has_for = line.trim_start().starts_with("for ") || line.contains(" for ");
        if has_for {
            if let Some(pos) = line.find(" in ") {
                let expr = line[pos + 4..].split('{').next().unwrap_or("");
                for ident in &idents {
                    for rel in boundary_matches(expr, ident) {
                        // Whole-word check on the tail too.
                        let after = expr.as_bytes().get(rel + ident.len()).copied();
                        if after.is_none_or(|b| !is_ident_byte(b)) {
                            push(offset + pos + 4 + rel);
                        }
                    }
                }
            }
        }
        offset += line.len() + 1;
    }
    out.sort_by_key(|v| (v.line, v.excerpt.clone()));
    out.dedup_by(|a, b| a.line == b.line && a.excerpt == b.excerpt);
    out
}

// ---------------------------------------------------------------------------
// Lint: float-reduction
// ---------------------------------------------------------------------------

/// Order-sensitive reduction patterns.
const FLOAT_PATTERNS: [&str; 3] = [".sum::<", ".sum()", "fold(0.0"];

/// Compensated helpers whose bodies may accumulate freely.
const APPROVED_REDUCERS: [&str; 2] = ["kahan_sum", "neumaier_sum"];

/// Byte spans of `fn <name> … { … }` bodies in stripped source.
fn fn_spans(stripped: &str, names: &[&str]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let bytes = stripped.as_bytes();
    for name in names {
        let pat = format!("fn {name}");
        for at in boundary_matches(stripped, &pat) {
            // Guard against prefix collisions (`fn kahan_summary`).
            let after = bytes.get(at + pat.len()).copied();
            if after.is_some_and(is_ident_byte) {
                continue;
            }
            // Find the body's opening brace, then match it.
            let mut j = at;
            while j < bytes.len() && bytes[j] != b'{' {
                j += 1;
            }
            let mut depth = 0i32;
            let mut end = bytes.len();
            while j < bytes.len() {
                match bytes[j] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            end = j + 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            spans.push((at, end));
        }
    }
    spans
}

/// Scan one numerics hot file for naive float reductions outside the
/// approved compensated helpers and outside `#[cfg(test)]` items.
pub fn lint_float_reduction(file: &str, src: &str) -> Vec<Violation> {
    let stripped = strip_source(src);
    let tests = test_spans(&stripped);
    let approved = fn_spans(&stripped, &APPROVED_REDUCERS);
    let mut out = Vec::new();
    for pat in FLOAT_PATTERNS {
        let mut from = 0;
        while let Some(rel) = stripped[from..].find(pat) {
            let at = from + rel;
            from = at + 1;
            if in_spans(&tests, at) || in_spans(&approved, at) {
                continue;
            }
            out.push(Violation {
                lint: Lint::FloatReduction,
                file: file.to_string(),
                line: line_of(&stripped, at),
                item: None,
                excerpt: excerpt_at(src, at),
                allowed: false,
            });
        }
    }
    out.sort_by_key(|v| v.line);
    out
}

// ---------------------------------------------------------------------------
// Lint: bench-guard-coverage
// ---------------------------------------------------------------------------

/// Inputs for the bench-guard lint, gathered by the driver (pure data so
/// tests can seed them without a filesystem): one per name that has a
/// trajectory, a bench target, or both.
#[derive(Debug, Clone)]
pub struct BenchGuardInput {
    /// The name shared by `BENCH_<name>.json` and its bench target.
    pub name: String,
    /// Whether `BENCH_<name>.json` exists at the repo root.
    pub trajectory: bool,
    /// Contents of `crates/bench/benches/<name>.rs`, if the file exists.
    pub bench_source: Option<String>,
    /// Contents of `.github/workflows/ci.yml`.
    pub ci_text: String,
}

/// Named floors that must stay wired inside specific benches' quick
/// guards. A guard that merely *exists* can still silently lose a floor
/// (e.g. the AVX2 lane check deleted during a refactor while the
/// gemm-vs-loop floor keeps the guard "present"); pinning the guard
/// labels here makes that a lint failure. Labels are the exact strings a
/// guard reports its verdict under: passed to `guard::check_speedup` /
/// `guard::check_overhead`, or printed by the bench itself.
pub const REQUIRED_GUARD_LABELS: [(&str, &[&str]); 7] = [
    (
        "batch",
        &[
            "batch gemm_speedup",
            "batch gbatch_gemm avx2-vs-scalar",
            "batch gbatch_ref avx2-vs-scalar p=1 k=64",
        ],
    ),
    (
        "engine",
        &[
            "engine pool_overhead",
            "engine pool_reuse dispatch-vs-respawn",
            "engine two-thread speedup",
        ],
    ),
    ("serve", &["serve admission-batch-vs-sequential"]),
    ("search", &["search batched-vs-sequential-expansion"]),
    ("kernel", &["kernel fused_speedup k=64", "kernel interp-vs-fused k=256"]),
    ("ifd", &["ifd water-filling-vs-nested-bisection"]),
    ("ess", &["ess ledger_kernel_speedup k=32", "ess lazy-check-vs-full-ledger"]),
];

/// Check that every recorded bench trajectory has a quick guard wired
/// into CI: a bench target of the same name that consults
/// `guard::quick_mode`, a `--bench <name> -- --quick` CI invocation, and
/// (for trajectories listed in [`REQUIRED_GUARD_LABELS`]) every named
/// per-lane floor still present in the guard source. A bench target
/// without a trajectory fails too: record its runs or delete it.
pub fn lint_bench_guards(inputs: &[BenchGuardInput]) -> Vec<Violation> {
    let mut out = Vec::new();
    for input in inputs {
        if !input.trajectory {
            out.push(Violation {
                lint: Lint::BenchGuardCoverage,
                file: format!("crates/bench/benches/{}.rs", input.name),
                line: 0,
                item: None,
                excerpt: format!("bench without a BENCH_{}.json trajectory", input.name),
                allowed: false,
            });
            continue;
        }
        let file = format!("BENCH_{}.json", input.name);
        let mut fail = |excerpt: String| {
            out.push(Violation {
                lint: Lint::BenchGuardCoverage,
                file: file.clone(),
                line: 0,
                item: None,
                excerpt,
                allowed: false,
            });
        };
        match &input.bench_source {
            None => fail(format!(
                "no bench target crates/bench/benches/{}.rs for this trajectory",
                input.name
            )),
            Some(src) if !src.contains("quick_mode") => fail(format!(
                "crates/bench/benches/{}.rs has no --quick guard (guard::quick_mode)",
                input.name
            )),
            Some(src) => {
                for (bench, labels) in REQUIRED_GUARD_LABELS {
                    if bench != input.name {
                        continue;
                    }
                    for label in labels {
                        if !src.contains(label) {
                            fail(format!(
                                "crates/bench/benches/{}.rs quick guard lost its `{label}` floor",
                                input.name
                            ));
                        }
                    }
                }
            }
        }
        let ci_call = format!("--bench {} -- --quick", input.name);
        if !input.ci_text.contains(&ci_call) {
            fail(format!("ci.yml never runs `cargo bench … {ci_call}`"));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Lint: dead-public-api
// ---------------------------------------------------------------------------

/// One file read by the dead-public-api lint (pure data so tests can seed
/// it without a filesystem).
#[derive(Debug, Clone)]
pub struct ApiSource {
    /// Workspace-relative path.
    pub file: String,
    /// File contents.
    pub src: String,
    /// Whether this file's `pub fn`s are checked (library code) or the
    /// file only counts as a caller.
    pub defines: bool,
}

/// Identifier tokens of stripped source with their byte offsets (number
/// literals such as `1e5` are skipped whole).
fn idents(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let bytes = text.as_bytes();
    let mut i = 0;
    std::iter::from_fn(move || {
        while i < bytes.len() {
            if !is_ident_byte(bytes[i]) {
                i += 1;
                continue;
            }
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            if !bytes[start].is_ascii_digit() {
                return Some((start, &text[start..i]));
            }
        }
        None
    })
}

/// `head` minus a trailing whole word `word` and the whitespace before
/// it, if `head` ends with that word.
fn strip_word<'a>(head: &'a str, word: &str) -> Option<&'a str> {
    let rest = head.strip_suffix(word)?;
    (!rest.bytes().next_back().is_some_and(is_ident_byte)).then(|| rest.trim_end())
}

/// Flag every `pub fn` outside `#[cfg(test)]` items of a `defines` source
/// whose name no source uses outside tests, comments and strings. A use is
/// any occurrence of the name as a whole word except right after `fn` or
/// inside a `use …;` item: an import or a prelude re-export calls nothing.
/// The match is by name alone, so one use keeps every function so named.
pub fn lint_dead_public_api(sources: &[ApiSource]) -> Vec<Violation> {
    let mut used: BTreeSet<String> = BTreeSet::new();
    let mut defined = Vec::new();
    for source in sources {
        let stripped = strip_source(&source.src);
        let tests = test_spans(&stripped);
        let mut import_end = 0;
        for (at, name) in idents(&stripped) {
            if at < import_end || in_spans(&tests, at) {
                continue;
            }
            if name == "use" {
                import_end = stripped[at..].find(';').map_or(stripped.len(), |end| at + end);
                continue;
            }
            match strip_word(stripped[..at].trim_end(), "fn") {
                Some(head) => {
                    if source.defines && strip_word(head, "pub").is_some() {
                        defined.push(Violation {
                            lint: Lint::DeadPublicApi,
                            file: source.file.clone(),
                            line: line_of(&stripped, at),
                            item: Some(name.to_string()),
                            excerpt: excerpt_at(&source.src, at),
                            allowed: false,
                        });
                    }
                }
                None => {
                    if !used.contains(name) {
                        used.insert(name.to_string());
                    }
                }
            }
        }
    }
    defined.retain(|v| v.item.as_ref().is_some_and(|name| !used.contains(name)));
    defined
}

// ---------------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------------

/// One allowlist entry: suppress failures for `(lint, file)`, or for one
/// function of a file under `dead-public-api`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Lint name as written in the file.
    pub lint: String,
    /// Workspace-relative path.
    pub file: String,
    /// The function a `dead-public-api` entry keeps.
    pub item: Option<String>,
    /// The text after `#` on the entry's line (empty if none).
    pub reason: String,
}

impl AllowEntry {
    /// Whether this entry suppresses `v`. A `dead-public-api` entry must
    /// say why the function stays.
    fn covers(&self, v: &Violation) -> bool {
        v.lint.name() == self.lint
            && v.file == self.file
            && v.item == self.item
            && (v.lint != Lint::DeadPublicApi || !self.reason.is_empty())
    }
}

impl fmt::Display for AllowEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.lint, self.file)?;
        match &self.item {
            Some(item) => write!(f, " {item}"),
            None => Ok(()),
        }
    }
}

/// Parse the allowlist format: one `<lint-name> <path> [<fn>]` entry per
/// line, `#` starting the reason (or a comment), blank lines ignored.
pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    let mut out = Vec::new();
    for line in text.lines() {
        let (entry, reason) = line.split_once('#').unwrap_or((line, ""));
        let mut parts = entry.split_whitespace();
        if let (Some(lint), Some(file)) = (parts.next(), parts.next()) {
            out.push(AllowEntry {
                lint: lint.to_string(),
                file: file.to_string(),
                item: parts.next().map(str::to_string),
                reason: reason.trim().to_string(),
            });
        }
    }
    out
}

/// Mark allowlisted violations and report stale entries (entries that
/// suppress nothing — they must be fixed or deleted, keeping the
/// allowlist honest). Returns the stale entries.
pub fn apply_allowlist(violations: &mut [Violation], allowlist: &[AllowEntry]) -> Vec<AllowEntry> {
    let mut stale = Vec::new();
    for entry in allowlist {
        let mut hit = false;
        for v in violations.iter_mut().filter(|v| entry.covers(v)) {
            v.allowed = true;
            hit = true;
        }
        if !hit {
            stale.push(entry.clone());
        }
    }
    stale
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Everything one `check` run found.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, allowlisted ones included.
    pub violations: Vec<Violation>,
    /// Allowlist entries that matched nothing (these fail the check).
    pub stale_allowlist: Vec<AllowEntry>,
    /// Number of source files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the check should exit non-zero.
    pub fn failing(&self) -> bool {
        self.violations.iter().any(|v| !v.allowed) || !self.stale_allowlist.is_empty()
    }

    /// Human-readable `file:line` listing plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&v.to_string());
            out.push('\n');
        }
        for entry in &self.stale_allowlist {
            out.push_str(&format!(
                "allowlist: stale entry `{entry}` suppresses nothing (or a dead-public-api \
                 entry gives no `# reason`) — fix or delete it\n"
            ));
        }
        let failing = self.violations.iter().filter(|v| !v.allowed).count();
        let allowed = self.violations.len() - failing;
        out.push_str(&format!(
            "analysis: {} file(s) scanned, {failing} violation(s), {allowed} allowlisted, {} stale allowlist entr(ies)\n",
            self.files_scanned,
            self.stale_allowlist.len(),
        ));
        out
    }

    /// Machine-readable JSON: one line, rendered by the vendored codec.
    pub fn to_json(&self) -> String {
        let text = |s: &str| Value::Str(s.to_string());
        let violations = self
            .violations
            .iter()
            .map(|v| {
                Value::Object(vec![
                    ("lint".to_string(), text(v.lint.name())),
                    ("file".to_string(), text(&v.file)),
                    ("line".to_string(), Value::UInt(v.line as u64)),
                    ("allowed".to_string(), Value::Bool(v.allowed)),
                    ("excerpt".to_string(), text(&v.excerpt)),
                ])
            })
            .collect();
        let stale = self.stale_allowlist.iter().map(|e| text(&e.to_string())).collect();
        let report = Value::Object(vec![
            ("ok".to_string(), Value::Bool(!self.failing())),
            ("files_scanned".to_string(), Value::UInt(self.files_scanned as u64)),
            ("violations".to_string(), Value::Array(violations)),
            ("stale_allowlist".to_string(), Value::Array(stale)),
        ]);
        serde_json::to_string(&report).expect("a report holds no floats, the codec's one failure")
            + "\n"
    }
}

// ---------------------------------------------------------------------------
// Filesystem driver
// ---------------------------------------------------------------------------

/// Directories whose non-test code must be panic-free (the library
/// crates).
const UNWRAP_ROOTS: [&str; 5] = [
    "crates/core/src",
    "crates/sim/src",
    "crates/search/src",
    "crates/mech/src",
    "crates/serve/src",
];

/// Directories scanned for hash-iteration (everything that produces
/// output, including the bench bins and this crate).
const ITERATION_ROOTS: [&str; 8] = [
    "src",
    "crates/core/src",
    "crates/sim/src",
    "crates/search/src",
    "crates/mech/src",
    "crates/bench/src",
    "crates/serve/src",
    "crates/analysis/src",
];

/// The numerics hot files held to compensated-reduction discipline.
/// `simd.rs` holds both lanes of every kernel hot loop: its reductions
/// are explicit blocked accumulator chains (the documented lane
/// contracts), never ambient `.sum()` folds.
const FLOAT_FILES: [&str; 3] =
    ["crates/core/src/kernel.rs", "crates/core/src/numerics.rs", "crates/core/src/simd.rs"];

/// Directories whose non-test code counts as calling a library `pub fn`,
/// besides every `crates/*/src`: the benches, the umbrella crate, the
/// examples and the repo benchmark (read only: whatever it calls is API).
const CALLER_ROOTS: [&str; 4] = ["crates/bench/benches", "src", "examples", "perfbench/src"];

/// Recursively collect `.rs` files under `dir`, workspace-relative,
/// sorted (the scanner's own output must be deterministic).
fn walk_rs(root: &Path, rel_dir: &str, out: &mut Vec<String>) -> io::Result<()> {
    let dir = root.join(rel_dir);
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        fs::read_dir(&dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        let rel = format!("{rel_dir}/{name}");
        if path.is_dir() {
            walk_rs(root, &rel, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Run every lint over the workspace rooted at `root` and apply the
/// checked-in allowlist.
pub fn run_check(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    let mut scanned: Vec<String> = Vec::new();

    // no-unwrap-in-lib over the library crates.
    let mut unwrap_files = Vec::new();
    for dir in UNWRAP_ROOTS {
        walk_rs(root, dir, &mut unwrap_files)?;
    }
    for rel in &unwrap_files {
        let src = fs::read_to_string(root.join(rel))?;
        report.violations.extend(lint_no_unwrap(rel, &src));
        scanned.push(rel.clone());
    }

    // deterministic-iteration over everything that produces output.
    let mut iter_files = Vec::new();
    for dir in ITERATION_ROOTS {
        walk_rs(root, dir, &mut iter_files)?;
    }
    for rel in &iter_files {
        let src = fs::read_to_string(root.join(rel))?;
        report.violations.extend(lint_deterministic_iteration(rel, &src));
        if !scanned.contains(rel) {
            scanned.push(rel.clone());
        }
    }

    // float-reduction over the numerics hot files.
    for rel in FLOAT_FILES {
        let path = root.join(rel);
        if path.is_file() {
            let src = fs::read_to_string(path)?;
            report.violations.extend(lint_float_reduction(rel, &src));
        }
    }

    // dead-public-api: the library crates' `pub fn`s against every caller.
    let mut all_crates = Vec::new();
    walk_rs(root, "crates", &mut all_crates)?;
    let mut api_files: Vec<String> =
        all_crates.into_iter().filter(|rel| rel.split('/').nth(2) == Some("src")).collect();
    for dir in CALLER_ROOTS {
        walk_rs(root, dir, &mut api_files)?;
    }
    let mut sources = Vec::new();
    for rel in api_files {
        let src = fs::read_to_string(root.join(&rel))?;
        let defines = UNWRAP_ROOTS.iter().any(|dir| rel.starts_with(&format!("{dir}/")));
        sources.push(ApiSource { file: rel, src, defines });
    }
    report.violations.extend(lint_dead_public_api(&sources));

    // bench-guard-coverage over the recorded trajectories and the benches.
    let ci_text = fs::read_to_string(root.join(".github/workflows/ci.yml")).unwrap_or_default();
    let stems = |dir: &Path, prefix: &str, suffix: &str| -> io::Result<BTreeSet<String>> {
        let mut out = BTreeSet::new();
        if dir.is_dir() {
            for entry in fs::read_dir(dir)? {
                let name = entry?.file_name().to_string_lossy().into_owned();
                if let Some(stem) = name.strip_prefix(prefix).and_then(|s| s.strip_suffix(suffix)) {
                    out.insert(stem.to_string());
                }
            }
        }
        Ok(out)
    };
    let trajectories = stems(root, "BENCH_", ".json")?;
    let benches = stems(&root.join("crates/bench/benches"), "", ".rs")?;
    let inputs: Vec<BenchGuardInput> = trajectories
        .union(&benches)
        .map(|name| {
            let bench_source =
                fs::read_to_string(root.join(format!("crates/bench/benches/{name}.rs"))).ok();
            BenchGuardInput {
                name: name.clone(),
                trajectory: trajectories.contains(name),
                bench_source,
                ci_text: ci_text.clone(),
            }
        })
        .collect();
    report.violations.extend(lint_bench_guards(&inputs));

    // Allowlist.
    let allow_text =
        fs::read_to_string(root.join("crates/analysis/allowlist.txt")).unwrap_or_default();
    let allowlist = parse_allowlist(&allow_text);
    report.stale_allowlist = apply_allowlist(&mut report.violations, &allowlist);

    report.violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report.files_scanned = scanned.len();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---- source preparation -------------------------------------------

    #[test]
    fn strip_blanks_comments_strings_and_chars() {
        let src = r##"let a = "panic!(inside string)"; // panic! in comment
/* block panic! */ let b = 'x'; let c = r#"raw panic!"#;
let lt: &'static str = unrelated;"##;
        let stripped = strip_source(src);
        assert!(!stripped.contains("panic!"), "stripped: {stripped}");
        assert!(stripped.contains("let a ="));
        assert!(stripped.contains("'static"), "lifetimes must survive");
        assert_eq!(stripped.lines().count(), src.lines().count(), "line structure preserved");
    }

    #[test]
    fn strip_handles_escaped_quotes() {
        let src = "let s = \"a\\\"b.unwrap()\"; x.real();";
        let stripped = strip_source(src);
        assert!(!stripped.contains(".unwrap()"));
        assert!(stripped.contains("x.real()"));
    }

    #[test]
    fn test_spans_cover_cfg_test_mod() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn tail() {}\n";
        let stripped = strip_source(src);
        let spans = test_spans(&stripped);
        assert_eq!(spans.len(), 1);
        let at = stripped.find(".unwrap()").expect("present");
        assert!(in_spans(&spans, at));
        let tail = stripped.find("fn tail").expect("present");
        assert!(!in_spans(&spans, tail));
    }

    // ---- no-unwrap-in-lib ---------------------------------------------

    #[test]
    fn seeded_unwrap_violation_is_caught() {
        let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let v = lint_no_unwrap("crates/core/src/seed.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].lint, Lint::NoUnwrapInLib);
    }

    #[test]
    fn unwrap_in_tests_and_prose_is_ignored() {
        let src = "/// Calling this can `panic!` — no it can't, that's prose.\npub fn f() {}\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); panic!(\"x\") }\n}\n";
        assert!(lint_no_unwrap("x.rs", src).is_empty());
    }

    #[test]
    fn expect_and_panic_variants_fire() {
        let src =
            "fn a() { x.expect(\"m\"); }\nfn b() { panic!(\"m\"); }\nfn c() { unreachable!() }\n";
        let v = lint_no_unwrap("x.rs", src);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn planted_asserts_fire_but_debug_asserts_do_not() {
        let src = "pub fn f(n: usize) {\n    assert!(n > 0);\n    assert_eq!(n, 1);\n    \
                   assert_ne!(n, 2);\n    debug_assert!(n > 0);\n    debug_assert_eq!(n, 1);\n}\n";
        let v = lint_no_unwrap("crates/core/src/seed.rs", src);
        assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), [2, 3, 4], "{v:?}");
    }

    #[test]
    fn unwrap_or_family_is_not_flagged() {
        let src = "fn a(x: Option<u32>) -> u32 { x.unwrap_or(0).max(x.unwrap_or_default()) }\n";
        assert!(lint_no_unwrap("x.rs", src).is_empty());
    }

    // ---- deterministic-iteration --------------------------------------

    #[test]
    fn seeded_hashmap_iteration_is_caught() {
        let src = "use std::collections::HashMap;\nfn f() {\n    let mut m: HashMap<String, u32> = HashMap::new();\n    for (k, v) in m.iter() { out(k, v); }\n}\n";
        let v = lint_deterministic_iteration("x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn for_loop_over_hash_field_is_caught() {
        let src = "struct C { map: HashMap<u64, u64> }\nimpl C {\n    fn dump(&self) {\n        for (k, v) in &self.map { out(k, v); }\n    }\n}\n";
        let v = lint_deterministic_iteration("x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn keyed_lookups_and_btreemap_are_clean() {
        let src = "fn f(flags: &BTreeMap<String, String>) {\n    let mut m = HashMap::new();\n    m.insert(1, 2);\n    let _ = m.get(&1).copied();\n    assert!(m.contains_key(&1));\n    for (k, v) in flags.iter() { out(k, v); }\n}\n";
        assert!(lint_deterministic_iteration("x.rs", src).is_empty());
    }

    #[test]
    fn hash_iteration_in_tests_is_ignored() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {\n        let m = HashMap::new();\n        for x in m.keys() {}\n    }\n}\n";
        assert!(lint_deterministic_iteration("x.rs", src).is_empty());
    }

    // ---- float-reduction ----------------------------------------------

    #[test]
    fn seeded_naive_sum_is_caught() {
        let src = "pub fn dot(a: &[f64], b: &[f64]) -> f64 {\n    a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>()\n}\n";
        let v = lint_float_reduction("crates/core/src/kernel.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn sums_inside_approved_helpers_are_clean() {
        let src = "pub fn kahan_sum<I>(items: I) -> f64 {\n    items.fold(0.0, |a, x| a + x) // compensated in the real impl\n}\npub fn user() -> f64 { kahan_sum(v.iter()) }\n";
        assert!(lint_float_reduction("x.rs", src).is_empty());
    }

    #[test]
    fn fold_zero_accumulator_is_caught() {
        let src = "fn total(v: &[f64]) -> f64 { v.iter().fold(0.0, |a, x| a + x) }\n";
        let v = lint_float_reduction("x.rs", src);
        assert_eq!(v.len(), 1);
    }

    // ---- bench-guard-coverage -----------------------------------------

    fn guard_input(name: &str, bench: Option<&str>, ci: &str) -> BenchGuardInput {
        BenchGuardInput {
            name: name.to_string(),
            trajectory: true,
            bench_source: bench.map(|s| s.to_string()),
            ci_text: ci.to_string(),
        }
    }

    #[test]
    fn bench_without_a_trajectory_is_caught() {
        // A bench target with no BENCH_*.json: even a guarded bench that CI
        // runs fails, since nothing records what it measures.
        let untracked = BenchGuardInput {
            trajectory: false,
            ..guard_input(
                "sigma_star",
                Some("if guard::quick_mode() {} criterion_main!(benches);"),
                "cargo bench -p dispersal-bench --bench sigma_star -- --quick",
            )
        };
        let v = lint_bench_guards(&[untracked]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].file, "crates/bench/benches/sigma_star.rs");
        assert!(v[0].excerpt.contains("without a BENCH_sigma_star.json"), "{v:?}");
    }

    #[test]
    fn seeded_unguarded_trajectory_is_caught() {
        // No bench file at all.
        let v = lint_bench_guards(&[guard_input("ghost", None, "")]);
        assert_eq!(v.len(), 2, "{v:?}"); // missing bench + missing CI call
                                         // Bench exists but has no quick guard, CI runs it anyway.
        let v = lint_bench_guards(&[guard_input(
            "kernel",
            Some("criterion_main!(benches);"),
            "cargo bench -p dispersal-bench --bench kernel -- --quick",
        )]);
        assert_eq!(v.len(), 1);
        assert!(v[0].excerpt.contains("no --quick guard"));
    }

    #[test]
    fn guarded_trajectory_is_clean() {
        let v = lint_bench_guards(&[guard_input(
            "kernel",
            Some(
                "if guard::quick_mode() { \
                 check_speedup(\"kernel fused_speedup k=64\", a, b); \
                 check_speedup(\"kernel interp-vs-fused k=256\", c, d); } \
                 criterion_main!(benches);",
            ),
            "run: cargo bench -p dispersal-bench --bench kernel -- --quick",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn missing_required_guard_label_is_caught() {
        // The batch guard exists and runs in CI, but both AVX2-lane floors
        // were deleted — exactly the silent coverage loss the label table
        // exists to catch.
        let ci = "run: cargo bench -p dispersal-bench --bench batch -- --quick";
        let v = lint_bench_guards(&[guard_input(
            "batch",
            Some(
                "if guard::quick_mode() { check_speedup(\"batch gemm_speedup p=16 k=64\", a, b); }",
            ),
            ci,
        )]);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].excerpt.contains("batch gbatch_gemm avx2-vs-scalar"), "{v:?}");
        assert!(v[1].excerpt.contains("batch gbatch_ref avx2-vs-scalar p=1 k=64"), "{v:?}");
        // Dropping only the reference-tile floor is caught too.
        let v = lint_bench_guards(&[guard_input(
            "batch",
            Some(
                "if guard::quick_mode() { check_speedup(\"batch gemm_speedup p=16 k=64\", a, b); \
                 check_speedup(\"batch gbatch_gemm avx2-vs-scalar p=16 k=256\", c, d); }",
            ),
            ci,
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].excerpt.contains("batch gbatch_ref avx2-vs-scalar p=1 k=64"), "{v:?}");
    }

    #[test]
    fn required_guard_labels_present_is_clean() {
        let engine_src = "if guard::quick_mode() { \
            check_overhead(\"engine pool_overhead 4-thread\", s, p, 4.0); \
            check_speedup(\"engine pool_reuse dispatch-vs-respawn\", r, d); \
            let label = \"engine two-thread speedup\"; }";
        let v = lint_bench_guards(&[guard_input(
            "engine",
            Some(engine_src),
            "run: cargo bench -p dispersal-bench --bench engine -- --quick",
        )]);
        assert!(v.is_empty(), "{v:?}");
        let batch_src = "if guard::quick_mode() { \
            check_speedup(\"batch gemm_speedup p=16 k=64\", a, b); \
            check_speedup(\"batch gbatch_gemm avx2-vs-scalar p=16 k=256\", c, d); \
            check_overhead(\"batch gbatch_ref avx2-vs-scalar p=1 k=64\", e, f, 0.5); }";
        let ci = "run: cargo bench -p dispersal-bench --bench batch -- --quick";
        assert!(lint_bench_guards(&[guard_input("batch", Some(batch_src), ci)]).is_empty());
        let ess_src = "if guard::quick_mode() { \
            check_speedup(\"ess ledger_kernel_speedup k=32\", s, k); \
            check_overhead(\"ess lazy-check-vs-full-ledger\", f, l, 0.5); }";
        let ci = "run: cargo bench -p dispersal-bench --bench ess -- --quick";
        assert!(lint_bench_guards(&[guard_input("ess", Some(ess_src), ci)]).is_empty());
        // Dropping the lazy-verdict floor is caught.
        let v = lint_bench_guards(&[guard_input(
            "ess",
            Some("if guard::quick_mode() { check_speedup(\"ess ledger_kernel_speedup k=32\", s, k); }"),
            ci,
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].excerpt.contains("ess lazy-check-vs-full-ledger"), "{v:?}");
    }

    // ---- dead-public-api ----------------------------------------------

    fn api(file: &str, src: &str, defines: bool) -> ApiSource {
        ApiSource { file: file.to_string(), src: src.to_string(), defines }
    }

    fn dead_names(sources: &[ApiSource]) -> Vec<String> {
        lint_dead_public_api(sources).into_iter().filter_map(|v| v.item).collect()
    }

    #[test]
    fn pub_fn_used_only_in_tests_comments_or_strings_is_flagged() {
        let lib = api(
            "crates/core/src/x.rs",
            "pub fn lonely() {}\npub fn called() {}\npub(crate) fn internal() {}\n\
             fn private() {}\n#[cfg(test)]\nmod tests {\n    pub fn helper() { lonely(); }\n}\n",
            true,
        );
        let caller = api(
            "crates/bench/src/main.rs",
            "// lonely() in prose\nfn main() { let s = \"lonely\"; called(); }\n\
             #[cfg(test)]\nmod tests { fn t() { super::lonely(); } }\n",
            false,
        );
        let v = lint_dead_public_api(&[lib, caller]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].line, v[0].item.as_deref()), (1, Some("lonely")));
        assert_eq!(v[0].lint, Lint::DeadPublicApi);
    }

    #[test]
    fn pub_fn_called_from_examples_or_perfbench_is_kept() {
        assert!(CALLER_ROOTS.contains(&"examples") && CALLER_ROOTS.contains(&"perfbench/src"));
        let lib = api("crates/sim/src/x.rs", "pub fn demo() {}\npub fn measured() {}\n", true);
        let example = api("examples/tour.rs", "fn main() { dispersal_sim::x::demo(); }\n", false);
        let bench = api(
            "perfbench/src/main.rs",
            "use dispersal_sim::x::measured;\nfn main() { measured(); }\n",
            false,
        );
        assert_eq!(dead_names(&[lib.clone(), example.clone(), bench]), Vec::<String>::new());
        assert_eq!(dead_names(&[lib, example]), ["measured"]);
    }

    #[test]
    fn prelude_re_exports_and_imports_are_not_uses() {
        let lib =
            api("crates/search/src/curve.rs", "pub fn exported() {}\npub fn run() {}\n", true);
        let prelude = api(
            "crates/search/src/lib.rs",
            "pub mod curve;\npub mod prelude {\n    pub use crate::curve::{exported, run};\n}\n",
            true,
        );
        let caller = api(
            "src/main.rs",
            "use dispersal_search::prelude::{\n    exported,\n    run,\n};\nfn main() { run(); }\n",
            false,
        );
        assert_eq!(dead_names(&[lib, prelude, caller]), ["exported"]);
    }

    #[test]
    fn definitions_are_not_uses() {
        // Two unused functions of one name: neither definition keeps the
        // other alive, and a caller file's own `fn` of that name does not
        // either.
        let a = api("crates/core/src/a.rs", "pub fn twin() {}\n", true);
        let b = api("crates/mech/src/b.rs", "pub fn twin() {}\n", true);
        let caller = api("src/lib.rs", "fn twin() {}\n", false);
        assert_eq!(dead_names(&[a, b, caller]), ["twin", "twin"]);
    }

    #[test]
    fn dead_public_api_allowlist_needs_a_reason_and_fails_when_stale() {
        let lib = api("crates/core/src/x.rs", "pub fn oracle() {}\npub fn spare() {}\n", true);
        let mut violations = lint_dead_public_api(&[lib]);
        assert_eq!(violations.len(), 2);
        let allow = parse_allowlist(
            "dead-public-api crates/core/src/x.rs oracle # tests compare against it\n\
             dead-public-api crates/core/src/x.rs spare\n\
             dead-public-api crates/core/src/x.rs gone # deleted since\n",
        );
        assert_eq!(allow[0].reason, "tests compare against it");
        let stale = apply_allowlist(&mut violations, &allow);
        let allowed: Vec<_> = violations.iter().map(|v| (v.item.as_deref(), v.allowed)).collect();
        assert_eq!(allowed, [(Some("oracle"), true), (Some("spare"), false)]);
        // The entry without a reason and the entry naming no finding both
        // suppress nothing, so both are reported and fail the check.
        let stale_items: Vec<_> = stale.iter().map(|e| e.item.as_deref()).collect();
        assert_eq!(stale_items, [Some("spare"), Some("gone")]);
        let text = Report { violations, stale_allowlist: stale, files_scanned: 1 }.render_text();
        assert!(text.contains("stale entry `dead-public-api crates/core/src/x.rs gone`"), "{text}");
        // With every finding covered and no stale entry the check passes.
        let mut violations =
            lint_dead_public_api(&[api("crates/core/src/x.rs", "pub fn oracle() {}\n", true)]);
        assert!(apply_allowlist(&mut violations, &allow[..1]).is_empty());
        let report = Report { violations, stale_allowlist: Vec::new(), files_scanned: 1 };
        assert!(!report.failing(), "{}", report.render_text());
    }

    // ---- allowlist ----------------------------------------------------

    #[test]
    fn allowlist_suppresses_and_detects_stale() {
        let mut violations = lint_no_unwrap("crates/sim/src/x.rs", "fn f() { y.unwrap() }\n");
        assert_eq!(violations.len(), 1);
        let allow = parse_allowlist(
            "# burn-down\nno-unwrap-in-lib crates/sim/src/x.rs\nno-unwrap-in-lib crates/sim/src/gone.rs\n",
        );
        let stale = apply_allowlist(&mut violations, &allow);
        assert!(violations[0].allowed);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].file, "crates/sim/src/gone.rs");
        let report = Report { violations, stale_allowlist: stale, files_scanned: 1 };
        assert!(report.failing(), "stale entries must fail the check");
    }

    #[test]
    fn report_json_shape() {
        let report = Report {
            violations: lint_no_unwrap("a.rs", "fn f() { x.unwrap() }\n"),
            ..Default::default()
        };
        let json = report.to_json();
        assert_eq!(json.lines().count(), 1, "{json}");
        let parsed = serde_json::from_str(&json).unwrap();
        let field = |v: &Value, key: &str| {
            v.as_object().unwrap().iter().find(|(k, _)| k == key).unwrap().1.clone()
        };
        assert_eq!(field(&parsed, "ok"), Value::Bool(false));
        let violations = field(&parsed, "violations");
        let [violation] = violations.as_array().unwrap() else { panic!("{json}") };
        assert_eq!(field(violation, "lint"), Value::Str("no-unwrap-in-lib".into()));
        assert_eq!(field(violation, "file"), Value::Str("a.rs".into()));
        assert_eq!(field(violation, "line"), Value::UInt(1));
        assert_eq!(field(violation, "allowed"), Value::Bool(false));
        let clean = serde_json::from_str(&Report::default().to_json()).unwrap();
        assert_eq!(field(&clean, "ok"), Value::Bool(true));
        assert_eq!(field(&clean, "stale_allowlist"), Value::Array(Vec::new()));
    }

    // ---- the real workspace must be clean -----------------------------

    #[test]
    fn workspace_passes_with_empty_core_allowlist() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = run_check(&root).expect("scan workspace");
        let text = report.render_text();
        assert!(!report.failing(), "workspace must be lint-clean:\n{text}");
        // The acceptance bar: no allowlist entry shadows crates/core, except
        // dead-public-api entries (test references).
        assert!(
            !report.violations.iter().any(|v| {
                v.allowed && v.lint != Lint::DeadPublicApi && v.file.starts_with("crates/core/")
            }),
            "crates/core must need no allowlist entries but dead-public-api ones:\n{text}"
        );
        // The dead-public-api scan reads the real sources: it finds the
        // allowlisted test references.
        assert!(report.violations.iter().any(|v| v.lint == Lint::DeadPublicApi && v.allowed));
        assert!(report.files_scanned > 30, "walk found {} files", report.files_scanned);
    }
}
