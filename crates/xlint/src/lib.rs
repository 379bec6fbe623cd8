//! xlint — the workspace's call-graph-aware concurrency and contract
//! lint.
//!
//! The runtime detector in `webfindit_base::sync::detect` catches lock
//! misuse that actually executes; xlint catches whole rule families at
//! the source level, in CI, before an interleaving ever has to go
//! wrong. It is a deliberately dependency-free analyzer (no syn, no
//! external crates — the build is offline) in three stages:
//!
//! 1. **Fact extraction** ([`facts`]): a lightweight lexer/item parser
//!    scrubs comments and strings, tracks brace depth and item context,
//!    and records per-function facts — calls made (with the lock guards
//!    live at each call site), locks acquired, blocking tokens, and
//!    `*Metrics` counters declared/recorded.
//! 2. **Call graph** ([`graph`]): name-based resolution
//!    (`self.`/`Type::` precise, bare and method names by workspace
//!    lookup with a std-collision stoplist), then BFS reachability that
//!    remembers the edge each node was first reached through — that
//!    parent chain IS the witness path in the report.
//! 3. **Rules** ([`rules`]): the five original token rules
//!    (guard-across-blocking now transitive, std-sync-direct,
//!    lock-order-cycle, lock-unwrap, thread-spawn-dispatch) plus two
//!    interprocedural families: `reactor-blocking` (nothing reachable
//!    from `Reactor::run` may block or take a tracked lock) and
//!    `metrics-drift` (counters declared but never recorded). Client and
//!    servant cannot disagree on an operation: each CORBA interface is
//!    declared once (`webfindit_orb::interface!`), so a misspelt
//!    operation does not compile.
//!
//! Findings print as `file:line: [rule] message`, with interprocedural
//! findings carrying a `witness:` line — the chain of `file:line` call
//! sites from the rule's root to the offending operation. Deliberate
//! violations are suppressed through `xlint.toml`
//! (`rule path "snippet" [via "step"] justification`); entries that
//! suppress nothing fail the run with a diagnosis (stale / wrong rule /
//! witness mismatch).
//!
//! Exit codes: 0 clean, 1 findings, 2 allowlist problems.

pub mod allow;
pub mod facts;
pub mod graph;
pub mod report;
pub mod rules;
pub mod scrub;

pub use allow::{classify_unused, parse_allowlist_text, AllowEntry, AllowIssue};
pub use report::{Finding, Step};

use facts::FileFacts;
use std::path::{Path, PathBuf};

/// The full analysis of one workspace: findings paired with their
/// anchor source line (for allowlist snippet matching).
pub struct Analysis {
    pub findings: Vec<(Finding, String)>,
    pub scanned: usize,
}

/// Analyze in-memory sources, each a `(path, text)` pair of production
/// code.
pub fn analyze_sources(sources: &[(PathBuf, String)]) -> Analysis {
    let files: Vec<FileFacts> = sources
        .iter()
        .enumerate()
        .map(|(i, (p, s))| facts::extract(i, p, s))
        .collect();
    let graph = graph::build(&files);

    let mut findings = Vec::new();
    findings.extend(rules::token_rules(&files));
    findings.extend(rules::reactor_blocking(&files, &graph));
    findings.extend(rules::guard_transitive(&files, &graph));
    findings.extend(rules::metrics_drift(&files));
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    findings.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.rule == b.rule && a.message == b.message
    });

    let scanned = files.len();
    let by_path: std::collections::BTreeMap<&Path, &FileFacts> =
        files.iter().map(|f| (f.path.as_path(), f)).collect();
    let findings = findings
        .into_iter()
        .map(|f| {
            let anchor = by_path
                .get(f.file.as_path())
                .and_then(|ff| ff.source_lines.get(f.line.saturating_sub(1)))
                .cloned()
                .unwrap_or_default();
            (f, anchor)
        })
        .collect();
    Analysis { findings, scanned }
}

/// Analyze a workspace on disk: every `crates/*/src` file. Test trees
/// are not read; nothing inside a test is ever reported, and `#[cfg(test)]`
/// code in `src` is skipped the same way.
pub fn analyze(root: &Path) -> Analysis {
    let mut sources = Vec::new();
    for file in collect_rs_files(root, "src") {
        if exempt_file(root, &file) {
            continue;
        }
        if let Ok(src) = std::fs::read_to_string(&file) {
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            sources.push((rel, src));
        }
    }
    analyze_sources(&sources)
}

/// The outcome of applying an allowlist to an analysis.
pub struct Outcome<'a> {
    pub real: Vec<&'a Finding>,
    pub suppressed: Vec<(&'a Finding, &'a AllowEntry)>,
    pub issues: Vec<AllowIssue>,
}

pub fn apply_allowlist<'a>(analysis: &'a Analysis, entries: &'a [AllowEntry]) -> Outcome<'a> {
    let mut real = Vec::new();
    let mut suppressed = Vec::new();
    for (finding, source_line) in &analysis.findings {
        match entries.iter().find(|e| e.matches(finding, source_line)) {
            Some(entry) => {
                entry.used.set(true);
                suppressed.push((finding, entry));
            }
            None => real.push(finding),
        }
    }
    let issues = classify_unused(entries, &analysis.findings);
    Outcome {
        real,
        suppressed,
        issues,
    }
}

fn collect_rs_files(root: &Path, subdir: &str) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates) else {
        return files;
    };
    let mut crate_dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let sub = dir.join(subdir);
        if sub.is_dir() {
            walk(&sub, &mut files);
        }
    }
    files.sort();
    files
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Files the lint does not apply to: the detector's own internals (its
/// raw std locks are the instrument, not a subject) and xlint itself
/// (its source *names* the forbidden tokens).
fn exempt_file(root: &Path, file: &Path) -> bool {
    let rel = file.strip_prefix(root).unwrap_or(file);
    let rel = rel.to_string_lossy().replace('\\', "/");
    rel.starts_with("crates/base/src/sync/") || rel.starts_with("crates/xlint/")
}

/// Locate the workspace root: `cargo run -p xlint` sets
/// CARGO_MANIFEST_DIR to crates/xlint; a direct binary invocation falls
/// back to walking up from the current directory.
pub fn workspace_root() -> PathBuf {
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(manifest);
        if let Some(root) = p.ancestors().nth(2) {
            if root.join("crates").is_dir() {
                return root.to_path_buf();
            }
        }
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}
