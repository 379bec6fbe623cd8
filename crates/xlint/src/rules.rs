//! Rule evaluation over extracted facts and the resolved call graph.
//!
//! Token-level rules (std-sync-direct, lock-unwrap,
//! thread-spawn-dispatch, same-statement guard-across-blocking) are
//! emitted by the fact extractor itself; this module adds the
//! file-level lock-order-cycle pass and the three interprocedural
//! families: `reactor-blocking`, `idl-drift`, `metrics-drift`, plus the
//! transitive form of `guard-across-blocking`.

use crate::facts::{FileFacts, BLOCKING_CALL_NAMES};
use crate::graph::{fn_at, CallGraph, NodeId};
use crate::report::{Finding, Step};
use crate::scrub::{in_ranges, is_ident_byte};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Per-file scope: findings-scope files produce findings; evidence
/// files (tests/, benches/) only contribute facts — a test invoking an
/// operation proves the servant arm is exercised, but nothing inside a
/// test is ever reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    Findings,
    Evidence,
}

fn is_findings(scopes: &[Scope], file: usize) -> bool {
    scopes[file] == Scope::Findings
}

/// Token findings from the statement machine, filtered to non-test
/// lines of findings-scope files, plus the intra-file
/// lock-order-cycle pass.
pub fn token_rules(files: &[FileFacts], scopes: &[Scope]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if !is_findings(scopes, fi) {
            continue;
        }
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

/// `reactor-blocking`: blocking tokens or tracked-lock acquisitions in
/// any function transitively reachable from `Reactor::run`. The
/// reactor thread must never wait on anything but `poll(2)`.
pub fn reactor_blocking(files: &[FileFacts], scopes: &[Scope], graph: &CallGraph) -> Vec<Finding> {
    let mut roots = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if !is_findings(scopes, fi) {
            continue;
        }
        for (gi, f) in file.fns.iter().enumerate() {
            if f.name == "run" && f.impl_type.as_deref() == Some("Reactor") && !f.in_test {
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
        if !is_findings(scopes, n.0) {
            continue;
        }
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
pub fn guard_transitive(files: &[FileFacts], scopes: &[Scope], graph: &CallGraph) -> Vec<Finding> {
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
        if !is_findings(scopes, fi) {
            continue;
        }
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

/// An operation-name string literal: lowercase identifier shaped like an
/// IDL operation. Filters out `Class.method` driver strings, format
/// fragments, and error text.
fn is_op_literal(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .next()
            .is_some_and(|b| b.is_ascii_lowercase() || b == b'_')
        && s.bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

struct Forwarder {
    qualified: String,
    file: usize,
    /// Line of the call that forwards the `&str` parameter onward.
    fwd_line: usize,
    /// Name of the callee the parameter is forwarded to.
    next: String,
}

/// `idl-drift`: client-invoked operations with no matching servant arm,
/// servant arms nothing ever exercises, and `operations()` lists that
/// disagree with the dispatch arms.
pub fn idl_drift(files: &[FileFacts], scopes: &[Scope]) -> Vec<Finding> {
    // Every operation any servant exports (arms or operations() lists),
    // including test/bench servants — a test client invoking a
    // test servant's op is not drift.
    let mut exported: BTreeSet<String> = BTreeSet::new();
    for file in files {
        for s in &file.servants {
            for (arm, _) in &s.arms {
                exported.insert(arm.clone());
            }
            for op in &s.operations {
                exported.insert(op.clone());
            }
        }
    }

    // Forwarder fixpoint: a function that threads one of its `&str`
    // parameters into `invoke`/`invoke_with` (or another forwarder) is
    // itself an invoke site for literal-extraction purposes.
    let enclosing_fn = |file: &FileFacts, offset: usize| -> Option<usize> {
        file.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.body_start <= offset && offset <= f.body_end)
            .max_by_key(|(_, f)| f.body_start)
            .map(|(i, _)| i)
    };
    let mut family: BTreeSet<String> = ["invoke", "invoke_with"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut forwarders: BTreeMap<String, Forwarder> = BTreeMap::new();
    loop {
        let mut grew = false;
        for (fi, file) in files.iter().enumerate() {
            for call in &file.arg_calls {
                if !family.contains(&call.name) {
                    continue;
                }
                let Some(fidx) = enclosing_fn(file, call.offset) else {
                    continue;
                };
                let f = &file.fns[fidx];
                if f.str_params.iter().any(|p| call.ident_args.contains(p))
                    && !family.contains(&f.name)
                {
                    family.insert(f.name.clone());
                    forwarders.insert(
                        f.name.clone(),
                        Forwarder {
                            qualified: f.qualified.clone(),
                            file: fi,
                            fwd_line: call.line,
                            next: call.name.clone(),
                        },
                    );
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }

    // Every op literal passed to an invoke-family call, everywhere.
    let mut exercised: BTreeSet<String> = BTreeSet::new();
    let mut orphan_candidates: Vec<(String, usize, usize, String, Option<usize>)> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for call in &file.arg_calls {
            if !family.contains(&call.name) {
                continue;
            }
            let Some(op) = call.str_args.iter().find(|s| is_op_literal(s)) else {
                continue;
            };
            exercised.insert(op.clone());
            let in_test = scopes[fi] == Scope::Evidence || in_ranges(&file.test_ranges, call.line);
            if !in_test && is_findings(scopes, fi) {
                orphan_candidates.push((
                    op.clone(),
                    fi,
                    call.line,
                    call.name.clone(),
                    enclosing_fn(file, call.offset),
                ));
            }
        }
    }

    let mut out = Vec::new();

    // Orphan invokes: a non-test client invokes an op no servant exports.
    for (op, fi, line, callee, encl) in orphan_candidates {
        if exported.contains(&op) {
            continue;
        }
        // Witness: the forwarder chain from this call down to the real
        // invoke, when the literal travels through helpers.
        let mut witness = Vec::new();
        if let Some(fidx) = encl {
            witness.push(Step {
                what: files[fi].fns[fidx].qualified.clone(),
                file: files[fi].path.clone(),
                line,
            });
        }
        let mut next = callee.clone();
        let mut hops = 0;
        while let Some(fw) = forwarders.get(&next) {
            witness.push(Step {
                what: fw.qualified.clone(),
                file: files[fw.file].path.clone(),
                line: fw.fwd_line,
            });
            next = fw.next.clone();
            hops += 1;
            if hops > 5 {
                break;
            }
        }
        out.push(
            Finding::new(
                files[fi].path.clone(),
                line,
                "idl-drift",
                format!(
                    "client invokes `{op}` but no servant exports that operation — \
                     the call compiles and fails at runtime with UnknownOperation"
                ),
            )
            .with_witness(witness),
        );
    }

    // Dead arms and operations()/arms disagreement, per non-test servant.
    for (fi, file) in files.iter().enumerate() {
        if !is_findings(scopes, fi) {
            continue;
        }
        for s in &file.servants {
            if s.in_test {
                continue;
            }
            let iface = s.interface_id.as_deref().unwrap_or("<unknown interface>");
            for (arm, line) in &s.arms {
                if !exercised.contains(arm) {
                    out.push(Finding::new(
                        file.path.clone(),
                        *line,
                        "idl-drift",
                        format!(
                            "servant arm `{arm}` on `{}` ({iface}) is never invoked by \
                             any client, test, or bench — dead dispatch surface",
                            s.type_name
                        ),
                    ));
                }
            }
            if !s.operations.is_empty() {
                let arm_set: BTreeSet<&str> = s.arms.iter().map(|(a, _)| a.as_str()).collect();
                let op_set: BTreeSet<&str> = s.operations.iter().map(String::as_str).collect();
                for op in op_set.difference(&arm_set) {
                    out.push(Finding::new(
                        file.path.clone(),
                        s.line,
                        "idl-drift",
                        format!(
                            "`{}::operations()` lists `{op}` but `invoke()` has no \
                             matching dispatch arm",
                            s.type_name
                        ),
                    ));
                }
                for arm in arm_set.difference(&op_set) {
                    out.push(Finding::new(
                        file.path.clone(),
                        s.line,
                        "idl-drift",
                        format!(
                            "`{}::invoke()` dispatches `{arm}` but `operations()` \
                             does not list it",
                            s.type_name
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// `metrics-drift`: counters declared but never recorded. (A recorded
/// counter cannot go unrendered: a `counter_set!` snapshot lists every
/// declared field, and `Trace` renders the listing.)
pub fn metrics_drift(files: &[FileFacts], scopes: &[Scope]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if !is_findings(scopes, fi) {
            continue;
        }
        for c in &file.counters {
            let recorded = files
                .iter()
                .enumerate()
                .filter(|(i, _)| is_findings(scopes, *i))
                .any(|(_, other)| field_recorded(other, &c.field));
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
