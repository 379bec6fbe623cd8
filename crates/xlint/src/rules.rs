//! Rule evaluation over extracted facts and the resolved call graph.
//!
//! Token-level rules (std-sync-direct, lock-unwrap,
//! thread-spawn-dispatch, same-statement guard-across-blocking) are
//! emitted by the fact extractor itself; this module adds the
//! file-level lock-order-cycle pass and the interprocedural families:
//! `reactor-blocking`, `metrics-drift`, and the transitive form of
//! `guard-across-blocking`.

use crate::facts::{FileFacts, BLOCKING_CALL_NAMES};
use crate::graph::{fn_at, CallGraph, NodeId};
use crate::report::{Finding, Step};
use crate::scrub::{in_ranges, is_ident_byte};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Token findings from the statement machine, filtered to non-test
/// lines, plus the intra-file lock-order-cycle pass.
pub fn token_rules(files: &[FileFacts]) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files {
        for f in &file.token_findings {
            if !in_ranges(&file.test_ranges, f.line) {
                out.push(f.clone());
            }
        }
        // Site pairs acquired in both orders within one file.
        for ((a, b), line) in &file.order_edges {
            if a < b {
                if let Some(rev_line) = file.order_edges.get(&(b.clone(), a.clone())) {
                    let anchor = *line.min(rev_line);
                    if !in_ranges(&file.test_ranges, anchor) {
                        out.push(Finding::new(
                            file.path.clone(),
                            anchor,
                            "lock-order-cycle",
                            format!(
                                "sites `{a}` and `{b}` are acquired in both orders \
                                 (lines {line} and {rev_line}) — pick one order"
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Render a BFS path as witness steps. Each step is a function with the
/// line of its call into the next hop; the last step carries
/// `site_line`, where the offending operation lives.
fn witness_steps(files: &[FileFacts], path: &[(NodeId, usize)], site_line: usize) -> Vec<Step> {
    let mut steps = Vec::new();
    for (i, (node, _)) in path.iter().enumerate() {
        let f = fn_at(files, *node);
        let line = match path.get(i + 1) {
            Some((_, call_line)) => *call_line,
            None => site_line,
        };
        steps.push(Step {
            what: f.qualified.clone(),
            file: files[node.0].path.clone(),
            line,
        });
    }
    steps
}

/// The servant hook the reactor runs requests through on its own thread
/// (`Servant::invoke_now`). The reactor reaches an implementation
/// through a trait object, and `interface!` forwards to the hand-written
/// one from generated code, so neither edge is in the name-based graph:
/// every function of this name is a root of its own.
pub const REACTOR_HOOK: &str = "invoke_now";

/// `reactor-blocking`: blocking tokens or tracked-lock acquisitions in
/// any function transitively reachable from `Reactor::run` or from a
/// [`REACTOR_HOOK`]. The reactor thread must never wait on anything but
/// `poll(2)`.
pub fn reactor_blocking(files: &[FileFacts], graph: &CallGraph) -> Vec<Finding> {
    let mut roots = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            let event_loop = f.name == "run" && f.impl_type.as_deref() == Some("Reactor");
            if (event_loop || f.name == REACTOR_HOOK) && !f.in_test {
                roots.push((fi, gi));
            }
        }
    }
    if roots.is_empty() {
        return Vec::new();
    }
    let reach = graph.reach(&roots);
    let mut out = Vec::new();
    let mut nodes: Vec<NodeId> = reach.keys().copied().collect();
    nodes.sort();
    for n in nodes {
        let f = fn_at(files, n);
        if f.in_test {
            continue;
        }
        let path = graph.path_to(&reach, n);
        for acq in &f.acquires {
            if in_ranges(&files[n.0].test_ranges, acq.line) {
                continue;
            }
            let witness = witness_steps(files, &path, acq.line);
            out.push(
                Finding::new(
                    files[n.0].path.clone(),
                    acq.line,
                    "reactor-blocking",
                    format!(
                        "tracked lock `{}` acquired in `{}`, which is reachable from the \
                         reactor event loop — the reactor thread must never wait on a lock",
                        acq.site, f.qualified
                    ),
                )
                .with_witness(witness),
            );
        }
        for b in &f.blocking {
            if in_ranges(&files[n.0].test_ranges, b.line) {
                continue;
            }
            let witness = witness_steps(files, &path, b.line);
            out.push(
                Finding::new(
                    files[n.0].path.clone(),
                    b.line,
                    "reactor-blocking",
                    format!(
                        "blocking `{}` in `{}`, which is reachable from the reactor \
                         event loop — blocking work belongs on the worker pool",
                        b.token.trim_matches(['.', '(']),
                        f.qualified
                    ),
                )
                .with_witness(witness),
            );
        }
    }
    out
}

/// Transitive `guard-across-blocking`: a lock guard is held at a call
/// site whose callee (transitively) performs a blocking operation. The
/// same-statement form is handled by the token rules; call sites whose
/// name IS a blocking token are skipped here to avoid double-reporting.
pub fn guard_transitive(files: &[FileFacts], graph: &CallGraph) -> Vec<Finding> {
    // Reverse reachability: which nodes can reach a blocking op?
    let mut rev_edges: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for (&from, outs) in &graph.edges {
        for &(to, _) in outs {
            rev_edges.entry(to).or_default().push(from);
        }
    }
    let mut blocks: HashSet<NodeId> = HashSet::new();
    let mut queue: Vec<NodeId> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            if !f.blocking.is_empty() && !f.in_test {
                blocks.insert((fi, gi));
                queue.push((fi, gi));
            }
        }
    }
    while let Some(n) = queue.pop() {
        if let Some(parents) = rev_edges.get(&n) {
            for &p in parents {
                if blocks.insert(p) {
                    queue.push(p);
                }
            }
        }
    }

    let mut out = Vec::new();
    let mut seen: BTreeSet<(usize, usize, String)> = BTreeSet::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            for call in &f.calls {
                if call.guards.is_empty() || BLOCKING_CALL_NAMES.contains(&call.name.as_str()) {
                    continue;
                }
                if in_ranges(&file.test_ranges, call.line) {
                    continue;
                }
                // Direct tokens on the same line are already reported.
                if f.blocking.iter().any(|b| b.line == call.line) {
                    continue;
                }
                let Some(outs) = graph.edges.get(&(fi, gi)) else {
                    continue;
                };
                let targets: Vec<NodeId> = outs
                    .iter()
                    .filter(|(t, line)| *line == call.line && blocks.contains(t))
                    .map(|(t, _)| *t)
                    .collect();
                let Some(&target) = targets.first() else {
                    continue;
                };
                // Forward BFS from the target to the nearest blocking fn
                // for the witness path.
                let reach = graph.reach(&[target]);
                let mut best: Option<(usize, NodeId)> = None;
                for node in reach.keys() {
                    let tf = fn_at(files, *node);
                    if tf.blocking.is_empty() {
                        continue;
                    }
                    let len = graph.path_to(&reach, *node).len();
                    if best.is_none() || len < best.unwrap().0 {
                        best = Some((len, *node));
                    }
                }
                let Some((_, bnode)) = best else { continue };
                let bf = fn_at(files, bnode);
                let token = bf.blocking[0].token;
                for g in &call.guards {
                    let key = (fi, call.line, g.site.clone());
                    if !seen.insert(key) {
                        continue;
                    }
                    let mut witness = vec![Step {
                        what: f.qualified.clone(),
                        file: file.path.clone(),
                        line: call.line,
                    }];
                    witness.extend(witness_steps(
                        files,
                        &graph.path_to(&reach, bnode),
                        bf.blocking[0].line,
                    ));
                    out.push(
                        Finding::new(
                            file.path.clone(),
                            call.line,
                            "guard-across-blocking",
                            format!(
                                "guard `{}` (site `{}`, acquired line {}) held across call to \
                                 `{}`, which reaches blocking `{}`",
                                g.name,
                                g.site,
                                g.line,
                                call.name,
                                token.trim_matches(['.', '(']),
                            ),
                        )
                        .with_witness(witness),
                    );
                }
            }
        }
    }
    out
}

/// `metrics-drift`: counters declared but never recorded. (A recorded
/// counter cannot go unrendered: a `counter_set!` snapshot lists every
/// declared field, and `Trace` renders the listing.)
pub fn metrics_drift(files: &[FileFacts]) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files {
        for c in &file.counters {
            let recorded = files.iter().any(|other| field_recorded(other, &c.field));
            if !recorded {
                out.push(Finding::new(
                    file.path.clone(),
                    c.line,
                    "metrics-drift",
                    format!(
                        "counter `{}.{}` is declared but never recorded anywhere",
                        c.struct_name, c.field
                    ),
                ));
            }
        }
    }
    out
}

/// Is `.field` mutated (fetch_add/fetch_sub/fetch_max/store) or passed
/// by reference (to `add`/`gauge_add`/…) anywhere in this file's
/// non-test code?
fn field_recorded(file: &FileFacts, field: &str) -> bool {
    let needle = format!(".{field}");
    let text = &file.scrubbed;
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(pos) = text[from..].find(&needle) {
        let at = from + pos;
        from = at + needle.len();
        let end = at + needle.len();
        if bytes.get(end).copied().is_some_and(is_ident_byte) {
            continue; // longer identifier
        }
        let line = text[..at].bytes().filter(|b| *b == b'\n').count() + 1;
        if in_ranges(&file.test_ranges, line) {
            continue;
        }
        // Method chains wrap: `self.field\n    .fetch_add(…)`.
        let after = text[end..].trim_start();
        if after.starts_with(".fetch_add(")
            || after.starts_with(".fetch_sub(")
            || after.starts_with(".fetch_max(")
            || after.starts_with(".store(")
        {
            return true;
        }
        // `&self.field` / `&metrics.field` — reference taken, i.e.
        // passed to a record helper like `add(&m.field, n)`.
        let mut j = at;
        while j > 0 && (is_ident_byte(bytes[j - 1]) || bytes[j - 1] == b'.' || bytes[j - 1] == b':')
        {
            j -= 1;
        }
        if j > 0 && bytes[j - 1] == b'&' {
            return true;
        }
    }
    false
}
