//! Per-file fact extraction: a lightweight item/statement parser over
//! scrubbed source that records, for every function, the calls it
//! makes (with the lock guards live at each call site), the locks it
//! acquires, the blocking tokens it contains, plus file-level facts the
//! interprocedural rules need — servant dispatch arms keyed by
//! interface id, `invoke("op")` string literals, `*Metrics` counter
//! declarations, and `impl Trace` counter mentions.
//!
//! The same statement machine also emits the five original token-level
//! findings (guard-across-blocking in its same-statement form,
//! std-sync-direct, lock-order-cycle edges, lock-unwrap,
//! thread-spawn-dispatch) so those rules keep their exact anchor lines
//! and the existing allowlist entries stay valid.

use crate::report::Finding;
use crate::scrub::{ident_before, in_ranges, is_ident_byte, scrub, test_line_ranges, StrLit};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Method calls after which the receiver's guard (or a temporary guard)
/// is considered "acquired".
pub const ACQUIRE_CALLS: [&str; 3] = ["lock", "read", "write"];

/// Tokens that mark a potentially long blocking operation: IIOP
/// invocations, frame I/O, connection establishment. A live guard at
/// one of these is a `guard-across-blocking` finding; reachability of
/// one from the reactor thread is a `reactor-blocking` finding.
pub const BLOCKING_TOKENS: [&str; 15] = [
    ".invoke(",
    ".invoke_with(",
    "invoke_codb(",
    "send_request(",
    "recv_reply(",
    ".send_frame(",
    ".recv_frame(",
    ".recv_frame_by(",
    ".wait_readable(",
    ".send_message(",
    ".recv_message(",
    "TcpStream::connect",
    ".call(",
    ".sync_all(",
    ".sync_data(",
];

/// Method names whose callee is a blocking token in its own right; call
/// sites with these names are covered by the direct
/// guard-across-blocking rule, so the transitive rule skips them.
pub const BLOCKING_CALL_NAMES: [&str; 15] = [
    "invoke",
    "invoke_with",
    "invoke_codb",
    "send_request",
    "recv_reply",
    "send_frame",
    "recv_frame",
    "recv_frame_by",
    "wait_readable",
    "send_message",
    "recv_message",
    "connect",
    "call",
    "sync_all",
    "sync_data",
];

/// Files the `thread-spawn-dispatch` rule applies to: the ORB crate's
/// request/connection handling. The reactor module is excluded by
/// construction — it IS the sanctioned worker pool, so its spawns
/// (the reactor thread and the pool workers) are the rule's fixed
/// point, not violations of it.
pub fn dispatch_path(file: &Path) -> bool {
    let rel = file.to_string_lossy().replace('\\', "/");
    rel.starts_with("crates/orb/src/") && !rel.ends_with("/reactor.rs")
}

/// Rust keywords and ubiquitous constructors that must never be read as
/// a call-graph edge target.
fn is_call_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "fn"
            | "in"
            | "as"
            | "let"
            | "move"
            | "unsafe"
            | "mut"
            | "ref"
            | "else"
            | "impl"
            | "where"
            | "use"
            | "pub"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "mod"
            | "break"
            | "continue"
            | "await"
            | "dyn"
            | "Some"
            | "None"
            | "Ok"
            | "Err"
            | "Box"
            | "drop"
    )
}

/// A lock guard live inside the scope stack.
#[derive(Debug, Clone)]
pub struct Guard {
    /// Binding name, or `<temporary>` for construct-header guards.
    pub name: String,
    /// Lock-site label (final field/variable before the acquire call).
    pub site: String,
    /// Brace depth at which the guard dies.
    pub depth: usize,
    /// Line it was acquired on.
    pub line: usize,
}

/// How a call names its receiver, which decides how it resolves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// `self.foo(…)` — resolves against the enclosing impl type.
    SelfDot,
    /// `Type::foo(…)` / `module::foo(…)` — the segment before `::`.
    Path(String),
    /// `expr.foo(…)` — resolves by method name across the workspace.
    Method,
    /// `foo(…)` — resolves to free functions by name.
    Bare,
}

#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    pub recv: Recv,
    pub line: usize,
    /// Guards live when the call is made (for the transitive
    /// guard-across-blocking rule).
    pub guards: Vec<Guard>,
}

#[derive(Debug, Clone)]
pub struct AcquireSite {
    pub call: &'static str,
    pub site: String,
    pub line: usize,
}

#[derive(Debug, Clone)]
pub struct BlockingSite {
    pub token: &'static str,
    pub line: usize,
}

/// One function's extracted facts.
#[derive(Debug)]
pub struct FnFact {
    pub name: String,
    pub impl_type: Option<String>,
    /// `Type::name` when inside an impl/trait block, else `name`.
    pub qualified: String,
    pub file: usize,
    pub start_line: usize,
    pub end_line: usize,
    pub body_start: usize,
    pub body_end: usize,
    pub in_test: bool,
    /// Parameter names with a `&str`/`String`-like type (forwarder
    /// detection for `invoke(ior, op, args)`-shaped helpers).
    pub str_params: Vec<String>,
    pub calls: Vec<CallSite>,
    pub acquires: Vec<AcquireSite>,
    pub blocking: Vec<BlockingSite>,
}

/// A call with its literal and bare-identifier arguments recovered from
/// the original source (the statement machine only sees blanked text).
#[derive(Debug)]
pub struct ArgCall {
    pub name: String,
    pub line: usize,
    pub offset: usize,
    /// Top-level string-literal arguments, in order.
    pub str_args: Vec<String>,
    /// Top-level bare-identifier arguments (possibly `&`-prefixed).
    pub ident_args: Vec<String>,
}

/// One `impl Servant for Type` block's dispatch contract.
#[derive(Debug)]
pub struct ServantFact {
    pub type_name: String,
    pub file: usize,
    pub line: usize,
    pub in_test: bool,
    pub interface_id: Option<String>,
    /// Dispatch arm literals from the `match operation` of `fn invoke`
    /// and `fn invoke_into`, with the line each arm pattern appears on.
    pub arms: Vec<(String, usize)>,
    /// Literals returned from `fn operations` (empty when the servant
    /// relies on the trait default).
    pub operations: Vec<String>,
}

/// An `AtomicU64` counter field of a `*Metrics` struct, written out or
/// declared through `counter_set!`.
#[derive(Debug)]
pub struct CounterDecl {
    pub struct_name: String,
    pub field: String,
    pub file: usize,
    pub line: usize,
}

/// Everything extracted from one file.
pub struct FileFacts {
    pub path: PathBuf,
    pub crate_name: String,
    pub fns: Vec<FnFact>,
    pub arg_calls: Vec<ArgCall>,
    pub servants: Vec<ServantFact>,
    pub counters: Vec<CounterDecl>,
    /// `const NAME: &str = "…";` bindings (interface-id resolution).
    pub consts: BTreeMap<String, String>,
    pub test_ranges: Vec<(usize, usize)>,
    /// Token-level findings (same-statement rules), pre test-filtering.
    pub token_findings: Vec<Finding>,
    /// Intra-file acquired-before edges: (held, then) → first line.
    pub order_edges: BTreeMap<(String, String), usize>,
    pub source_lines: Vec<String>,
    /// Scrubbed text, kept for the metrics record-site scan.
    pub scrubbed: String,
}

/// What a brace scope was opened by.
#[derive(Debug, Clone)]
enum CtxKind {
    /// `impl Type` / `impl Trait for Type` / `trait Name` — the string
    /// is the type (or trait) whose methods the block declares, the
    /// option is the implemented trait's name.
    ImplBlock,
    Fn(usize),
    Other,
}

#[derive(Debug, Clone)]
struct Ctx {
    kind: CtxKind,
    depth: usize,
}

struct ImplSpan {
    type_name: String,
    trait_name: Option<String>,
    line: usize,
    body_start: usize,
    body_end: usize,
}

/// Parse `impl …` header text into (type, trait) last segments.
fn parse_impl_header(header: &str) -> Option<(String, Option<String>)> {
    let t = header.trim_start();
    let rest = t.strip_prefix("impl")?;
    if !rest.starts_with(|c: char| c.is_whitespace() || c == '<') {
        return None;
    }
    // Skip generic params `<…>` (balanced).
    let bytes = rest.as_bytes();
    let mut i = 0;
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    if bytes.get(i) == Some(&b'<') {
        let mut depth = 0i32;
        while i < bytes.len() {
            match bytes[i] {
                b'<' => depth += 1,
                b'>' => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    let rest = &rest[i..];
    // Cut at `where`.
    let rest = rest.split(" where ").next().unwrap_or(rest).trim();
    let (trait_part, type_part) = match rest.split_once(" for ") {
        Some((tr, ty)) => (Some(tr.trim()), ty.trim()),
        None => (None, rest),
    };
    let last_segment = |s: &str| -> String {
        let s = s.split('<').next().unwrap_or(s).trim();
        s.rsplit("::").next().unwrap_or(s).trim().to_owned()
    };
    let ty = last_segment(type_part);
    if ty.is_empty() {
        return None;
    }
    Some((ty, trait_part.map(last_segment)))
}

/// Parse a `fn name(params)` header into (name, str_params), or None.
fn parse_fn_header(header: &str) -> Option<(String, Vec<String>)> {
    // Find the `fn` keyword as a standalone word.
    let bytes = header.as_bytes();
    let mut at = None;
    let mut i = 0;
    while i + 2 <= bytes.len() {
        if &bytes[i..i + 2] == b"fn"
            && (i == 0 || !is_ident_byte(bytes[i - 1]))
            && bytes.get(i + 2).is_some_and(|b| b.is_ascii_whitespace())
        {
            at = Some(i + 2);
            break;
        }
        i += 1;
    }
    let after = &header[at?..];
    let after = after.trim_start();
    let name_end = after.find(|c: char| !c.is_alphanumeric() && c != '_')?;
    let name = &after[..name_end];
    if name.is_empty() {
        return None;
    }
    // Parameter list: balanced parens after the name (and any generics).
    let open = after.find('(')?;
    let pbytes = after.as_bytes();
    let mut depth = 0i32;
    let mut close = None;
    for (j, b) in pbytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    close = Some(j);
                    break;
                }
            }
            _ => {}
        }
    }
    let params = &after[open + 1..close?];
    let mut str_params = Vec::new();
    for p in split_top_level(params, ',') {
        let p = p.trim();
        let Some((pname, ty)) = p.split_once(':') else {
            continue;
        };
        let pname = pname.trim().trim_start_matches("mut ").trim();
        let ty = ty.trim();
        if !pname.is_empty()
            && pname.chars().all(|c| c.is_alphanumeric() || c == '_')
            && (ty.contains("str") || ty.contains("String"))
        {
            str_params.push(pname.to_owned());
        }
    }
    Some((name.to_owned(), str_params))
}

/// Split `s` on `sep` at zero paren/angle/bracket depth.
fn split_top_level(s: &str, sep: char) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '(' | '[' | '<' => depth += 1,
            ')' | ']' | '>' => depth -= 1,
            c if c == sep && depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

/// True when the statement is a `let` whose right-hand side *ends* with
/// an acquire call — i.e. the binding IS the guard. `let n = *m.lock();`
/// dereferences and copies, so the guard dies with the statement.
fn let_guard(stmt: &str) -> Option<(String, String)> {
    let trimmed = stmt.trim_start();
    let rest = trimmed.strip_prefix("let ")?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name_end = rest.find(|c: char| !c.is_alphanumeric() && c != '_')?;
    let name = &rest[..name_end];
    if name.is_empty() {
        return None;
    }
    let eq = stmt.find('=')?;
    let rhs = stmt[eq + 1..]
        .trim_start()
        .trim_end()
        .trim_end_matches(';')
        .trim_end();
    if rhs.starts_with('*') || rhs.starts_with('&') && rhs.contains('*') {
        return None;
    }
    for call in ACQUIRE_CALLS {
        let suffix = format!(".{call}()");
        if rhs.ends_with(&suffix) {
            let site = ident_before(rhs, rhs.len() - suffix.len())?;
            return Some((name.to_owned(), site));
        }
    }
    None
}

/// Find `.lock()` / `.read()` / `.write()` call sites in `stmt`
/// (scrubbed text), returning `(offset, call, site)` triples. Only
/// zero-argument calls count — `file.read(&mut buf)` is I/O, not a lock.
fn acquire_sites(stmt: &str) -> Vec<(usize, &'static str, String)> {
    let mut out = Vec::new();
    for call in ACQUIRE_CALLS {
        let needle = format!(".{call}()");
        let mut from = 0;
        while let Some(pos) = stmt[from..].find(&needle) {
            let at = from + pos;
            if let Some(site) = ident_before(stmt, at) {
                out.push((at, call, site));
            }
            from = at + needle.len();
        }
    }
    out.sort_by_key(|(at, _, _)| *at);
    out
}

/// Extract call sites from one statement's scrubbed text.
fn call_sites(stmt: &str, stmt_line: usize, guards: &[Guard]) -> Vec<CallSite> {
    let bytes = stmt.as_bytes();
    let mut out = Vec::new();
    for p in 1..bytes.len() {
        if bytes[p] != b'(' || !is_ident_byte(bytes[p - 1]) {
            continue;
        }
        let Some(name) = ident_before(stmt, p) else {
            continue;
        };
        if is_call_keyword(&name) || ACQUIRE_CALLS.contains(&name.as_str()) {
            continue;
        }
        let start = p - name.len();
        // `fn name(` is a declaration, not a call.
        let before = stmt[..start].trim_end();
        if before.ends_with("fn") {
            continue;
        }
        let recv = if stmt[..start].ends_with('.') {
            let recv_end = start - 1;
            match ident_before(stmt, recv_end) {
                Some(r) if r == "self" && !stmt[..recv_end - r.len()].ends_with('.') => {
                    Recv::SelfDot
                }
                _ => Recv::Method,
            }
        } else if stmt[..start].ends_with("::") {
            match ident_before(stmt, start - 2) {
                Some(seg) => Recv::Path(seg),
                None => Recv::Bare,
            }
        } else {
            Recv::Bare
        };
        out.push(CallSite {
            name,
            recv,
            line: stmt_line,
            guards: guards.to_vec(),
        });
    }
    out
}

struct Machine<'a> {
    file_idx: usize,
    path: &'a Path,
    fns: Vec<FnFact>,
    impls: Vec<ImplSpan>,
    token_findings: Vec<Finding>,
    order_edges: BTreeMap<(String, String), usize>,
    guards: Vec<Guard>,
    ctx: Vec<Ctx>,
    fn_stack: Vec<usize>,
    impl_stack: Vec<usize>,
}

impl Machine<'_> {
    fn push_finding(&mut self, line: usize, rule: &'static str, message: String) {
        self.token_findings
            .push(Finding::new(self.path.to_path_buf(), line, rule, message));
    }

    fn current_impl(&self) -> Option<&ImplSpan> {
        self.impl_stack.last().map(|&i| &self.impls[i])
    }

    /// Process accumulated statement text. `opens_brace` is true when
    /// the statement ends because a `{` follows (item headers,
    /// construct headers).
    fn statement(&mut self, stmt: &str, stmt_line: usize, depth: usize, opens_brace: bool) {
        let construct_header = opens_brace && {
            let t = stmt.trim_start();
            t.starts_with("for ")
                || t.starts_with("if ")
                || t.starts_with("while ")
                || t.starts_with("match ")
                || t.starts_with("else if ")
        };
        if stmt.trim().is_empty() {
            return;
        }

        // R4: unwrap/expect directly on an acquire call.
        for call in ACQUIRE_CALLS {
            for bad in ["unwrap", "expect"] {
                let needle = format!(".{call}().{bad}(");
                let mut from = 0;
                while let Some(pos) = stmt[from..].find(&needle) {
                    let at = from + pos;
                    self.push_finding(
                        stmt_line,
                        "lock-unwrap",
                        format!(
                            "`.{call}().{bad}()` — workspace locks are poison-free \
                             `webfindit_base::sync` wrappers; a raw std lock has leaked in"
                        ),
                    );
                    from = at + needle.len();
                }
            }
        }

        // R2: direct std::sync lock types. A following identifier byte
        // means a different type (`std::sync::MutexGuard`), not the lock.
        for ty in ["Mutex", "RwLock"] {
            let qualified = format!("std::sync::{ty}");
            let mut from = 0;
            while let Some(pos) = stmt[from..].find(&qualified) {
                let at = from + pos;
                let end = at + qualified.len();
                if !stmt.as_bytes().get(end).copied().is_some_and(is_ident_byte) {
                    self.push_finding(
                        stmt_line,
                        "std-sync-direct",
                        format!(
                            "`{qualified}` used directly — use `webfindit_base::sync::{ty}` so \
                             the deadlock detector can see this lock"
                        ),
                    );
                }
                from = end;
            }
        }
        if let Some(rest) = stmt
            .trim_start()
            .strip_prefix("use std::sync::")
            .or_else(|| stmt.trim_start().strip_prefix("pub use std::sync::"))
        {
            for ty in ["Mutex", "RwLock"] {
                let listed = rest
                    .split(|c: char| !c.is_alphanumeric() && c != '_')
                    .any(|tok| tok == ty);
                if listed {
                    self.push_finding(
                        stmt_line,
                        "std-sync-direct",
                        format!(
                            "`std::sync::{ty}` imported — use `webfindit_base::sync::{ty}` so \
                             the deadlock detector can see this lock"
                        ),
                    );
                }
            }
        }

        // R5: raw thread spawns in the server dispatch path.
        if dispatch_path(self.path) {
            for needle in ["thread::spawn(", ".spawn("] {
                let mut from = 0;
                while let Some(pos) = stmt[from..].find(needle) {
                    let at = from + pos;
                    self.push_finding(
                        stmt_line,
                        "thread-spawn-dispatch",
                        format!(
                            "`{}` in the server dispatch path — servant work belongs on the \
                             reactor's bounded worker pool, not ad-hoc threads",
                            needle.trim_matches(['.', '('])
                        ),
                    );
                    from = at + needle.len();
                }
            }
        }

        // Explicit guard death.
        if let Some(rest) = stmt.trim_start().strip_prefix("drop(") {
            if let Some(name) = rest.split(')').next() {
                let name = name.trim();
                self.guards.retain(|g| g.name != name);
            }
        }

        let acquires = acquire_sites(stmt);

        // R3: ordering edges — every acquisition in this statement
        // happens while the currently-live guards are held.
        for (_, _, site) in &acquires {
            for held in self.guards.iter() {
                if &held.site != site {
                    self.order_edges
                        .entry((held.site.clone(), site.clone()))
                        .or_insert(stmt_line);
                }
            }
        }

        // Record facts into the enclosing function.
        let calls = call_sites(stmt, stmt_line, &self.guards);
        if let Some(&fi) = self.fn_stack.last() {
            let f = &mut self.fns[fi];
            for (_, call, site) in &acquires {
                f.acquires.push(AcquireSite {
                    call,
                    site: site.clone(),
                    line: stmt_line,
                });
            }
            f.calls.extend(calls);
        }

        // R1: blocking token with a guard live (including one acquired
        // earlier in this same statement via a construct header).
        for token in BLOCKING_TOKENS {
            let mut from = 0;
            while let Some(pos) = stmt[from..].find(token) {
                let at = from + pos;
                if let Some(&fi) = self.fn_stack.last() {
                    self.fns[fi].blocking.push(BlockingSite {
                        token,
                        line: stmt_line,
                    });
                }
                let held: Vec<(String, String, usize)> = self
                    .guards
                    .iter()
                    .map(|g| (g.name.clone(), g.site.clone(), g.line))
                    .collect();
                for (name, site, line) in held {
                    self.push_finding(
                        stmt_line,
                        "guard-across-blocking",
                        format!(
                            "blocking `{}` while guard `{}` (site `{}`, acquired line {}) is held",
                            token.trim_matches(['.', '(']),
                            name,
                            site,
                            line
                        ),
                    );
                }
                for (aq_at, call, site) in &acquires {
                    if *aq_at < at {
                        self.push_finding(
                            stmt_line,
                            "guard-across-blocking",
                            format!(
                                "blocking `{}` in the same expression as `.{}()` on `{}` — \
                                 the guard temporary is still live",
                                token.trim_matches(['.', '(']),
                                call,
                                site
                            ),
                        );
                    }
                }
                from = at + token.len();
            }
        }

        // New guards, live until their scope (or construct) closes.
        if let Some((name, site)) = let_guard(stmt) {
            self.guards.push(Guard {
                name,
                site,
                depth,
                line: stmt_line,
            });
        } else if construct_header {
            for (_, _, site) in &acquires {
                self.guards.push(Guard {
                    name: "<temporary>".into(),
                    site: site.clone(),
                    depth: depth + 1,
                    line: stmt_line,
                });
            }
        }
    }

    /// Classify a `{`-terminated header and push the new scope context.
    fn open_scope(&mut self, header: &str, line: usize, depth: usize, offset: usize) {
        let kind = if let Some((name, str_params)) = parse_fn_header(header) {
            let impl_type = self.current_impl().map(|i| i.type_name.clone());
            let qualified = match &impl_type {
                Some(t) => format!("{t}::{name}"),
                None => name.clone(),
            };
            self.fns.push(FnFact {
                name,
                impl_type,
                qualified,
                file: self.file_idx,
                start_line: line,
                end_line: line,
                body_start: offset,
                body_end: offset,
                in_test: false,
                str_params,
                calls: Vec::new(),
                acquires: Vec::new(),
                blocking: Vec::new(),
            });
            let fi = self.fns.len() - 1;
            self.fn_stack.push(fi);
            CtxKind::Fn(fi)
        } else if let Some((ty, tr)) = parse_impl_header(header) {
            self.impls.push(ImplSpan {
                type_name: ty.clone(),
                trait_name: tr.clone(),
                line,
                body_start: offset,
                body_end: offset,
            });
            self.impl_stack.push(self.impls.len() - 1);
            CtxKind::ImplBlock
        } else if let Some(rest) = header
            .trim_start()
            .strip_prefix("trait ")
            .or_else(|| header.trim_start().strip_prefix("pub trait "))
        {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            // Trait default bodies count as methods of the trait name.
            self.impls.push(ImplSpan {
                type_name: name.clone(),
                trait_name: None,
                line,
                body_start: offset,
                body_end: offset,
            });
            self.impl_stack.push(self.impls.len() - 1);
            CtxKind::ImplBlock
        } else {
            CtxKind::Other
        };
        self.ctx.push(Ctx { kind, depth });
    }

    fn close_scope(&mut self, depth: usize, line: usize, offset: usize) {
        while let Some(ctx) = self.ctx.last() {
            if ctx.depth < depth {
                break;
            }
            match &ctx.kind {
                CtxKind::Fn(fi) => {
                    self.fns[*fi].end_line = line;
                    self.fns[*fi].body_end = offset;
                    self.fn_stack.pop();
                }
                CtxKind::ImplBlock => {
                    if let Some(ii) = self.impl_stack.pop() {
                        self.impls[ii].body_end = offset;
                    }
                }
                CtxKind::Other => {}
            }
            self.ctx.pop();
        }
    }
}

/// Run the statement machine over scrubbed text.
fn run_machine<'a>(file_idx: usize, path: &'a Path, scrubbed: &str) -> Machine<'a> {
    let mut m = Machine {
        file_idx,
        path,
        fns: Vec::new(),
        impls: Vec::new(),
        token_findings: Vec::new(),
        order_edges: BTreeMap::new(),
        guards: Vec::new(),
        ctx: Vec::new(),
        fn_stack: Vec::new(),
        impl_stack: Vec::new(),
    };
    let mut depth: usize = 0;
    let mut stmt = String::new();
    let mut stmt_line = 1;
    let mut line = 1;
    let mut in_stmt = false;
    for (offset, c) in scrubbed.char_indices() {
        match c {
            '\n' => {
                line += 1;
                stmt.push(' ');
            }
            '{' => {
                m.statement(&stmt, stmt_line, depth, true);
                m.open_scope(&stmt, stmt_line, depth, offset);
                depth += 1;
                stmt.clear();
                in_stmt = false;
            }
            '}' => {
                m.statement(&stmt, stmt_line, depth, false);
                depth = depth.saturating_sub(1);
                m.guards.retain(|g| g.depth <= depth);
                m.close_scope(depth, line, offset);
                stmt.clear();
                in_stmt = false;
            }
            ';' => {
                stmt.push(';');
                m.statement(&stmt, stmt_line, depth, false);
                stmt.clear();
                in_stmt = false;
            }
            _ => {
                if !in_stmt && !c.is_whitespace() {
                    in_stmt = true;
                    stmt_line = line;
                }
                stmt.push(c);
            }
        }
    }
    m
}

/// Byte-offset → line-number table.
fn line_table(text: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

fn line_of(table: &[usize], offset: usize) -> usize {
    match table.binary_search(&offset) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

/// Extract calls with their top-level string-literal and bare-identifier
/// arguments. Works on scrubbed text for structure and the literal
/// index for contents.
fn extract_arg_calls(scrubbed: &str, strings: &[StrLit], table: &[usize]) -> Vec<ArgCall> {
    let bytes = scrubbed.as_bytes();
    let mut out = Vec::new();
    for p in 1..bytes.len() {
        if bytes[p] != b'(' || !is_ident_byte(bytes[p - 1]) {
            continue;
        }
        let Some(name) = ident_before(scrubbed, p) else {
            continue;
        };
        if is_call_keyword(&name) {
            continue;
        }
        let start = p - name.len();
        if scrubbed[..start].trim_end().ends_with("fn") {
            continue;
        }
        // Balanced argument region.
        let mut depth = 0i32;
        let mut close = None;
        for (j, b) in bytes.iter().enumerate().skip(p) {
            match b {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(close) = close else { continue };
        let args = &scrubbed[p + 1..close];
        let mut str_args = Vec::new();
        let mut ident_args = Vec::new();
        let mut arg_start = p + 1;
        let mut d = 0i32;
        let mut spans = Vec::new();
        for (j, b) in bytes.iter().enumerate().take(close).skip(p + 1) {
            match b {
                b'(' | b'[' => d += 1,
                b')' | b']' => d -= 1,
                b',' if d == 0 => {
                    spans.push((arg_start, j));
                    arg_start = j + 1;
                }
                _ => {}
            }
        }
        spans.push((arg_start, close));
        for (s, e) in spans {
            // Blanked literals are all spaces in scrubbed text, so stop
            // the whitespace skip at any recorded literal start.
            let mut s = s;
            while s < e && bytes[s].is_ascii_whitespace() && !strings.iter().any(|l| l.start == s) {
                s += 1;
            }
            if s >= e {
                continue;
            }
            if let Some(lit) = strings.iter().find(|l| l.start == s) {
                if lit.end <= e + 1 {
                    str_args.push(lit.value.clone());
                    continue;
                }
            }
            let text = scrubbed[s..e].trim();
            let bare = text.strip_prefix('&').unwrap_or(text);
            if !bare.is_empty() && bare.chars().all(|c| c.is_alphanumeric() || c == '_') {
                ident_args.push(bare.to_owned());
            }
        }
        if str_args.is_empty() && ident_args.is_empty() && args.trim().is_empty() {
            continue;
        }
        out.push(ArgCall {
            name,
            line: line_of(table, start),
            offset: start,
            str_args,
            ident_args,
        });
    }
    out
}

/// Brace depth at each string literal's start offset.
fn literal_depths(scrubbed: &str, strings: &[StrLit]) -> Vec<usize> {
    let bytes = scrubbed.as_bytes();
    let mut depths = Vec::with_capacity(strings.len());
    let mut depth = 0usize;
    let mut si = 0;
    for (i, b) in bytes.iter().enumerate() {
        while si < strings.len() && strings[si].start == i {
            depths.push(depth);
            si += 1;
        }
        match b {
            b'{' => depth += 1,
            b'}' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    while si < strings.len() {
        depths.push(depth);
        si += 1;
    }
    depths
}

/// Extract `impl Servant for Type` contracts from the machine's impl
/// spans plus the literal index.
fn extract_servants(
    m: &Machine<'_>,
    scrubbed: &str,
    strings: &[StrLit],
    consts: &BTreeMap<String, String>,
    test_ranges: &[(usize, usize)],
    file_idx: usize,
) -> Vec<ServantFact> {
    let depths = literal_depths(scrubbed, strings);
    let mut out = Vec::new();
    for span in &m.impls {
        if span.trait_name.as_deref() != Some("Servant") {
            continue;
        }
        let in_test = in_ranges(test_ranges, span.line);
        let fn_in_span = |name: &str| {
            m.fns.iter().find(|f| {
                f.name == name && f.body_start >= span.body_start && f.body_end <= span.body_end
            })
        };
        // interface_id: first literal in the body, else a const lookup.
        let interface_id = fn_in_span("interface_id").and_then(|f| {
            strings
                .iter()
                .find(|l| l.start > f.body_start && l.end < f.body_end)
                .map(|l| l.value.clone())
                .or_else(|| {
                    let body = &scrubbed[f.body_start..f.body_end];
                    body.split(|c: char| !c.is_alphanumeric() && c != '_')
                        .rev()
                        .find_map(|tok| consts.get(tok).cloned())
                })
        });
        // Dispatch arms: literals in the body of `fn invoke` or `fn
        // invoke_into` (a servant may dispatch in either) followed (after
        // whitespace) by `=>` or `|`, kept at the minimum such depth per
        // function so nested matches inside arm bodies don't masquerade
        // as arms.
        let mut arms = Vec::new();
        for f in ["invoke", "invoke_into"].into_iter().filter_map(fn_in_span) {
            let mut candidates: Vec<(usize, String, usize)> = Vec::new(); // (depth, value, line)
            for (li, lit) in strings.iter().enumerate() {
                if lit.start <= f.body_start || lit.end >= f.body_end {
                    continue;
                }
                let after = scrubbed[lit.end..f.body_end].trim_start();
                if after.starts_with("=>") || after.starts_with('|') {
                    candidates.push((depths[li], lit.value.clone(), lit.line));
                }
            }
            if let Some(min_depth) = candidates.iter().map(|(d, _, _)| *d).min() {
                for (d, v, l) in candidates {
                    if d == min_depth {
                        arms.push((v, l));
                    }
                }
            }
        }
        let operations = fn_in_span("operations")
            .map(|f| {
                strings
                    .iter()
                    .filter(|l| l.start > f.body_start && l.end < f.body_end)
                    .map(|l| l.value.clone())
                    .collect()
            })
            .unwrap_or_default();
        out.push(ServantFact {
            type_name: span.type_name.clone(),
            file: file_idx,
            line: span.line,
            in_test,
            interface_id,
            arms,
            operations,
        });
    }
    out
}

/// `const NAME: &str = "…";` bindings (scrubbed lines + literal index).
fn extract_consts(scrubbed: &str, strings: &[StrLit]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for (lno, line) in scrubbed.lines().enumerate() {
        let Some(at) = line.find("const ") else {
            continue;
        };
        let rest = &line[at + 6..];
        let name: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() || !rest.contains("str") {
            continue;
        }
        if let Some(lit) = strings.iter().find(|l| l.line == lno + 1) {
            out.insert(name, lit.value.clone());
        }
    }
    out
}

/// `AtomicU64` counter fields of `*Metrics` structs, one field per
/// line: `name: AtomicU64` in a written-out struct, or `counter name`
/// / `gauge name` / `peak name` (the label is a blanked string) in a
/// `counter_set!` declaration.
fn extract_counters(scrubbed: &str, file_idx: usize) -> Vec<CounterDecl> {
    let mut out = Vec::new();
    let mut current: Option<(String, usize)> = None; // (struct name, open depth)
    let mut depth = 0usize;
    for (lno, line) in scrubbed.lines().enumerate() {
        if let Some(at) = line.find("struct ") {
            let name: String = line[at + 7..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if name.ends_with("Metrics") && line.contains('{') {
                current = Some((name, depth));
            }
        }
        if let Some((sname, _)) = &current {
            let written_out = line
                .find(": AtomicU64")
                .and_then(|colon| ident_before(line, colon));
            let by_macro = ["counter ", "gauge ", "peak "].iter().find_map(|kind| {
                let name = line.trim_start().strip_prefix(kind)?.trim_start();
                let end = name.bytes().take_while(|b| is_ident_byte(*b)).count();
                (end > 0).then(|| name[..end].to_owned())
            });
            if let Some(field) = written_out.or(by_macro) {
                out.push(CounterDecl {
                    struct_name: sname.clone(),
                    field,
                    file: file_idx,
                    line: lno + 1,
                });
            }
        }
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth = depth.saturating_sub(1);
                    if let Some((_, d)) = &current {
                        if depth <= *d {
                            current = None;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    out
}

fn crate_of(path: &Path) -> String {
    let rel = path.to_string_lossy().replace('\\', "/");
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_owned(),
        _ => "workspace".to_owned(),
    }
}

/// Extract all facts from one file.
pub fn extract(file_idx: usize, path: &Path, src: &str) -> FileFacts {
    let scrubbed = scrub(src);
    let table = line_table(&scrubbed.text);
    let test_ranges = test_line_ranges(&scrubbed.text);
    let mut machine = run_machine(file_idx, path, &scrubbed.text);
    for f in &mut machine.fns {
        f.in_test = in_ranges(&test_ranges, f.start_line);
    }
    let consts = extract_consts(&scrubbed.text, &scrubbed.strings);
    let servants = extract_servants(
        &machine,
        &scrubbed.text,
        &scrubbed.strings,
        &consts,
        &test_ranges,
        file_idx,
    );
    let mut counters = extract_counters(&scrubbed.text, file_idx);
    counters.retain(|c| !in_ranges(&test_ranges, c.line));
    let arg_calls = extract_arg_calls(&scrubbed.text, &scrubbed.strings, &table);
    FileFacts {
        path: path.to_path_buf(),
        crate_name: crate_of(path),
        fns: machine.fns,
        arg_calls,
        servants,
        counters,
        consts,
        test_ranges,
        token_findings: machine.token_findings,
        order_edges: machine.order_edges,
        source_lines: src.lines().map(str::to_owned).collect(),
        scrubbed: scrubbed.text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(src: &str) -> FileFacts {
        extract(0, Path::new("crates/x/src/lib.rs"), src)
    }

    #[test]
    fn fn_and_impl_structure_is_extracted() {
        let src = "impl Reactor {\n    fn run(mut self) {\n        self.tick();\n    }\n    fn tick(&mut self) {\n        helper(1);\n    }\n}\nfn helper(n: usize) {}\n";
        let f = facts(src);
        let names: Vec<&str> = f.fns.iter().map(|f| f.qualified.as_str()).collect();
        assert_eq!(names, ["Reactor::run", "Reactor::tick", "helper"]);
        assert_eq!(f.fns[0].calls.len(), 1);
        assert_eq!(f.fns[0].calls[0].name, "tick");
        assert_eq!(f.fns[0].calls[0].recv, Recv::SelfDot);
        assert_eq!(f.fns[1].calls[0].recv, Recv::Bare);
    }

    #[test]
    fn guards_are_recorded_at_call_sites() {
        let src = "fn f(&self) {\n    let g = self.cache.lock();\n    self.helper();\n}\n";
        let f = facts(src);
        let call = &f.fns[0].calls[0];
        assert_eq!(call.name, "helper");
        assert_eq!(call.guards.len(), 1);
        assert_eq!(call.guards[0].site, "cache");
    }

    #[test]
    fn acquire_and_blocking_facts_are_per_fn() {
        let src = "fn a(&self) {\n    let g = self.m.lock();\n}\nfn b(&self) {\n    x.send_frame(&f);\n}\n";
        let f = facts(src);
        assert_eq!(f.fns[0].acquires.len(), 1);
        assert_eq!(f.fns[0].acquires[0].site, "m");
        assert!(f.fns[0].blocking.is_empty());
        assert_eq!(f.fns[1].blocking.len(), 1);
        assert_eq!(f.fns[1].blocking[0].token, ".send_frame(");
    }

    #[test]
    fn servant_arms_and_interface_are_extracted() {
        let src = "const IFACE: &str = \"IDL:webfindit/Thing:1.0\";\nstruct S;\nimpl Servant for S {\n    fn interface_id(&self) -> &str {\n        IFACE\n    }\n    fn invoke(&self, operation: &str, args: &[Value]) -> InvokeResult {\n        match operation {\n            \"alpha\" => run_alpha(),\n            \"beta\" | \"gamma\" => run_beta(),\n            other => fail(other),\n        }\n    }\n    fn operations(&self) -> Vec<String> {\n        [\"alpha\", \"beta\", \"gamma\"].iter().map(|s| s.to_string()).collect()\n    }\n}\n";
        let f = facts(src);
        assert_eq!(f.servants.len(), 1);
        let s = &f.servants[0];
        assert_eq!(s.type_name, "S");
        assert_eq!(s.interface_id.as_deref(), Some("IDL:webfindit/Thing:1.0"));
        let arm_names: Vec<&str> = s.arms.iter().map(|(a, _)| a.as_str()).collect();
        assert_eq!(arm_names, ["alpha", "beta", "gamma"]);
        assert_eq!(s.operations, ["alpha", "beta", "gamma"]);
    }

    #[test]
    fn arg_calls_capture_literal_and_ident_args() {
        let src = "fn go(fed: &F, op: &str) {\n    fed.invoke(&ior, \"find_links\", &[]);\n    fed.invoke(&ior, op, &[]);\n}\n";
        let f = facts(src);
        let invokes: Vec<&ArgCall> = f.arg_calls.iter().filter(|c| c.name == "invoke").collect();
        assert_eq!(invokes.len(), 2);
        assert_eq!(invokes[0].str_args, ["find_links"]);
        assert!(invokes[1].str_args.is_empty());
        assert!(invokes[1].ident_args.contains(&"op".to_owned()));
        assert_eq!(f.fns[0].str_params, ["op"]);
    }

    #[test]
    fn nested_literal_args_are_not_top_level() {
        let src = "fn go(s: &S) {\n    s.invoke(\"members\", &[Value::string(\"Ghost\")]);\n}\n";
        let f = facts(src);
        let inv = f.arg_calls.iter().find(|c| c.name == "invoke").unwrap();
        assert_eq!(inv.str_args, ["members"]);
    }

    #[test]
    fn metrics_counters_are_extracted() {
        let src = "pub struct FooMetrics {\n    pub hits: AtomicU64,\n    pub misses: AtomicU64,\n    latencies: Mutex<u8>,\n}\n\
                   counter_set! {\n    pub struct BarMetrics => BarSnapshot {\n        /// Doc.\n        counter sent \"sent\",\n        peak widest \"widest\",\n    }\n}\n";
        let f = facts(src);
        let fields: Vec<&str> = f.counters.iter().map(|c| c.field.as_str()).collect();
        assert_eq!(fields, ["hits", "misses", "sent", "widest"]);
        assert_eq!(f.counters[0].line, 2);
        assert_eq!(f.counters[2].struct_name, "BarMetrics");
        assert_eq!(f.counters[2].line, 9);
    }
}
