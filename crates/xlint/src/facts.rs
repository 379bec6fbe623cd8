//! Per-file fact extraction: a lightweight item/statement parser over
//! scrubbed source that records, for every function, the calls it
//! makes (with the lock guards live at each call site), the locks it
//! acquires, the blocking tokens it contains, plus the file-level facts
//! the interprocedural rules need: `*Metrics` counter declarations.
//!
//! The same statement machine also emits the five original token-level
//! findings (guard-across-blocking in its same-statement form,
//! std-sync-direct, lock-order-cycle edges, lock-unwrap,
//! thread-spawn-dispatch) so those rules keep their exact anchor lines
//! and the existing allowlist entries stay valid.

use crate::report::Finding;
use crate::scrub::{ident_before, in_ranges, is_ident_byte, scrub, test_line_ranges};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Method calls after which the receiver's guard (or a temporary guard)
/// is considered "acquired".
pub const ACQUIRE_CALLS: [&str; 3] = ["lock", "read", "write"];

/// Tokens that mark a potentially long blocking operation: IIOP
/// invocations, frame I/O, connection establishment. A live guard at
/// one of these is a `guard-across-blocking` finding; reachability of
/// one from the reactor thread is a `reactor-blocking` finding.
pub const BLOCKING_TOKENS: [&str; 14] = [
    ".invoke(",
    ".invoke_with(",
    ".call_all(",
    "send_request(",
    "recv_reply(",
    ".send_frame(",
    ".recv_frame(",
    ".recv_frame_by(",
    ".wait_readable(",
    ".send_message(",
    "TcpStream::connect",
    ".call(",
    ".sync_all(",
    ".sync_data(",
];

/// Method names whose callee is a blocking token in its own right; call
/// sites with these names are covered by the direct
/// guard-across-blocking rule, so the transitive rule skips them.
pub const BLOCKING_CALL_NAMES: [&str; 14] = [
    "invoke",
    "invoke_with",
    "call_all",
    "send_request",
    "recv_reply",
    "send_frame",
    "recv_frame",
    "recv_frame_by",
    "wait_readable",
    "send_message",
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
    /// `expr.foo(…)` — resolves by method name across the workspace,
    /// or, when `expr` is a parameter or `let` of the enclosing function
    /// declared with a type, against that type (its last path segment).
    Method(Option<String>),
    /// `self.field.foo(…)` — resolves against the field's declared type.
    SelfField(String),
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
    /// Takes a `self` receiver, so `expr.name(…)` can call it.
    pub method: bool,
    pub start_line: usize,
    pub in_test: bool,
    pub calls: Vec<CallSite>,
    pub acquires: Vec<AcquireSite>,
    pub blocking: Vec<BlockingSite>,
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
    /// The module the file is: its stem, or its directory for `mod.rs`.
    pub module: String,
    /// Traits the file declares: a receiver of one of these types is a
    /// trait object or generic, so it resolves by name.
    pub traits: Vec<String>,
    /// Named struct fields with a declared type: (struct, field, type).
    pub fields: Vec<(String, String, String)>,
    pub fns: Vec<FnFact>,
    pub counters: Vec<CounterDecl>,
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
    Fn,
    /// `struct Name { … }`: its fields are the text before the `}`.
    Struct(String),
    Other,
}

#[derive(Debug, Clone)]
struct Ctx {
    kind: CtxKind,
    depth: usize,
}

/// Parse `impl …` header text into the implementing type's last
/// segment.
fn parse_impl_header(header: &str) -> Option<String> {
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
    let type_part = rest.split_once(" for ").map_or(rest, |(_, ty)| ty.trim());
    let last_segment = |s: &str| -> String {
        let s = s.split('<').next().unwrap_or(s).trim();
        s.rsplit("::").next().unwrap_or(s).trim().to_owned()
    };
    let ty = last_segment(type_part);
    (!ty.is_empty()).then_some(ty)
}

/// A parsed `fn` header: the function's name, whether its first
/// parameter is a `self` receiver, and its parameters declared with a
/// type, as (name, [`type_name`]).
type FnHeader = (String, bool, Vec<(String, String)>);

/// Parse a `fn name(…)` header, or None.
fn parse_fn_header(header: &str) -> Option<FnHeader> {
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
    let after = header[at?..].trim_start();
    let name_end = after.find(|c: char| !c.is_alphanumeric() && c != '_')?;
    let name = &after[..name_end];
    // A parameter list follows the name (and any generics).
    if name.is_empty() || !after.contains('(') {
        return None;
    }
    let params = params_of(&after[name_end..]).unwrap_or_default();
    let typed = split_top_level(params)
        .into_iter()
        .filter_map(typed_binding);
    Some((name.to_owned(), takes_self(params), typed.collect()))
}

/// The text after the `(` that opens the parameter list after a
/// function's name (generics first, if any).
fn params_of(after_name: &str) -> Option<&str> {
    let mut depth = 0usize;
    for (i, c) in after_name.char_indices() {
        match c {
            '<' => depth += 1,
            '>' => depth = depth.saturating_sub(1),
            '(' if depth == 0 => return Some(&after_name[i + 1..]),
            _ => {}
        }
    }
    None
}

/// Whether a parameter list opens with a `self` receiver: `self`,
/// `mut self`, `&self`, `&'a mut self`, `self: Arc<Self>`.
fn takes_self(params: &str) -> bool {
    let mut p = params.trim_start();
    if let Some(rest) = p.strip_prefix('&') {
        p = rest.trim_start();
        if let Some(rest) = p.strip_prefix('\'') {
            let end = rest
                .find(|c: char| !is_ident_byte(c as u8))
                .unwrap_or(rest.len());
            p = rest[end..].trim_start();
        }
    }
    if let Some(rest) = p.strip_prefix("mut ") {
        p = rest.trim_start();
    }
    p.strip_prefix("self")
        .is_some_and(|rest| !rest.bytes().next().is_some_and(is_ident_byte))
}

/// The type a declaration names, as its last path segment: `&mut
/// a::Foo<T>` is `Foo`. None for slices, tuples, closures and anything
/// else that is not a path to a type.
fn type_name(ty: &str) -> Option<String> {
    let ty = ty.trim_start().trim_start_matches('&');
    let ty = ty.split(['<', '(', '[', '+']).next().unwrap_or_default();
    let last = ty.split_whitespace().last()?;
    let name = last.rsplit("::").next().unwrap_or(last);
    let is_type =
        name.starts_with(|c: char| c.is_ascii_uppercase()) && name.bytes().all(is_ident_byte);
    is_type.then(|| name.to_owned())
}

/// The comma-separated items of `text` up to the bracket that closes
/// the list it opens: `a: A, b: B<C, D>) -> E` is `a: A` and `b: B<C, D>`.
fn split_top_level(text: &str) -> Vec<&str> {
    let (mut depth, mut from) = (0usize, 0);
    let mut items = Vec::new();
    for (i, c) in text.char_indices() {
        match c {
            ')' | ']' | '}' if depth == 0 => {
                items.push(&text[from..i]);
                return items;
            }
            '(' | '<' | '[' | '{' => depth += 1,
            ')' | '>' | ']' | '}' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                items.push(&text[from..i]);
                from = i + 1;
            }
            _ => {}
        }
    }
    items.push(&text[from..]);
    items
}

/// The name a `struct Name {` header declares.
fn struct_name(header: &str) -> Option<String> {
    let mut words = header.split_whitespace();
    words.find(|w| *w == "struct")?;
    let name: String = words
        .next()?
        .bytes()
        .take_while(|b| is_ident_byte(*b))
        .map(char::from)
        .collect();
    (!name.is_empty()).then_some(name)
}

/// `name: Type` (or `mut name: Type`, or a field's `pub name: Type`)
/// as (name, [`type_name`]).
fn typed_binding(decl: &str) -> Option<(String, String)> {
    let (pat, ty) = decl.split_once(':')?;
    let name = pat.split_whitespace().last().unwrap_or_default();
    if name.is_empty() || !name.bytes().all(is_ident_byte) || ty.starts_with(':') {
        return None;
    }
    Some((name.to_owned(), type_name(ty)?))
}

/// The name a `let` statement binds, with its declared type if it has
/// one; None when the pattern is not a plain name.
fn let_binding(stmt: &str) -> Option<(String, Option<String>)> {
    let rest = stmt.trim().trim_end_matches(';').strip_prefix("let ")?;
    let decl = rest.split('=').next().unwrap_or(rest);
    if let Some((name, ty)) = typed_binding(decl) {
        return Some((name, Some(ty)));
    }
    let decl = decl.trim();
    let name = decl.strip_prefix("mut ").unwrap_or(decl).trim();
    (!name.is_empty() && name.bytes().all(is_ident_byte)).then(|| (name.to_owned(), None))
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

/// Extract call sites from one statement's scrubbed text. `locals` are
/// the enclosing function's names declared with a type.
fn call_sites(
    stmt: &str,
    stmt_line: usize,
    guards: &[Guard],
    locals: Option<&BTreeMap<String, String>>,
) -> Vec<CallSite> {
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
            let recv = stmt[..start - 1].trim_end();
            match ident_before(recv, recv.len()) {
                Some(r) => {
                    let before = recv[..recv.len() - r.len()].trim_end();
                    let self_field = before
                        .strip_suffix('.')
                        .and_then(|owner| owner.trim_end().strip_suffix("self"))
                        .map(str::trim_end)
                        .is_some_and(|o| {
                            !o.ends_with(['.', ':']) && !o.bytes().last().is_some_and(is_ident_byte)
                        });
                    if self_field {
                        Recv::SelfField(r)
                    } else if before.ends_with(['.', ':']) {
                        Recv::Method(None)
                    } else if r == "self" {
                        Recv::SelfDot
                    } else {
                        Recv::Method(locals.and_then(|l| l.get(&r)).cloned())
                    }
                }
                None => Recv::Method(None),
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
    path: &'a Path,
    fns: Vec<FnFact>,
    /// The type (or trait) each open `impl`/`trait` block declares
    /// methods of, innermost last.
    impl_stack: Vec<String>,
    token_findings: Vec<Finding>,
    order_edges: BTreeMap<(String, String), usize>,
    guards: Vec<Guard>,
    ctx: Vec<Ctx>,
    fn_stack: Vec<usize>,
    /// Per open function (parallel to `fn_stack`): its parameters and
    /// `let`s declared with a type, by name.
    locals: Vec<BTreeMap<String, String>>,
    traits: Vec<String>,
    fields: Vec<(String, String, String)>,
}

impl Machine<'_> {
    fn push_finding(&mut self, line: usize, rule: &'static str, message: String) {
        self.token_findings
            .push(Finding::new(self.path.to_path_buf(), line, rule, message));
    }

    fn current_impl(&self) -> Option<&String> {
        self.impl_stack.last()
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
        let calls = call_sites(stmt, stmt_line, &self.guards, self.locals.last());
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

        // A `let` shadows its name from here on: with a type, the name
        // has that type; without one, the earlier type no longer holds.
        if let (Some((name, ty)), Some(locals)) = (let_binding(stmt), self.locals.last_mut()) {
            match ty {
                Some(ty) => locals.insert(name, ty),
                None => locals.remove(&name),
            };
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
    fn open_scope(&mut self, header: &str, line: usize, depth: usize) {
        let kind = if let Some((name, method, params)) = parse_fn_header(header) {
            let impl_type = self.current_impl().cloned();
            let qualified = match &impl_type {
                Some(t) => format!("{t}::{name}"),
                None => name.clone(),
            };
            self.fns.push(FnFact {
                name,
                impl_type,
                qualified,
                method,
                start_line: line,
                in_test: false,
                calls: Vec::new(),
                acquires: Vec::new(),
                blocking: Vec::new(),
            });
            let fi = self.fns.len() - 1;
            self.fn_stack.push(fi);
            self.locals.push(params.into_iter().collect());
            CtxKind::Fn
        } else if let Some(ty) = parse_impl_header(header) {
            self.impl_stack.push(ty);
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
            self.traits.push(name.clone());
            self.impl_stack.push(name);
            CtxKind::ImplBlock
        } else if let Some(name) = struct_name(header) {
            CtxKind::Struct(name)
        } else {
            CtxKind::Other
        };
        self.ctx.push(Ctx { kind, depth });
    }

    fn close_scope(&mut self, depth: usize) {
        while let Some(ctx) = self.ctx.last() {
            if ctx.depth < depth {
                break;
            }
            match &ctx.kind {
                CtxKind::Fn => {
                    self.fn_stack.pop();
                    self.locals.pop();
                }
                CtxKind::ImplBlock => {
                    self.impl_stack.pop();
                }
                CtxKind::Struct(_) | CtxKind::Other => {}
            }
            self.ctx.pop();
        }
    }
}

/// Run the statement machine over scrubbed text.
fn run_machine<'a>(path: &'a Path, scrubbed: &str) -> Machine<'a> {
    let mut m = Machine {
        path,
        fns: Vec::new(),
        impl_stack: Vec::new(),
        token_findings: Vec::new(),
        order_edges: BTreeMap::new(),
        guards: Vec::new(),
        ctx: Vec::new(),
        fn_stack: Vec::new(),
        locals: Vec::new(),
        traits: Vec::new(),
        fields: Vec::new(),
    };
    let mut depth: usize = 0;
    let mut stmt = String::new();
    let mut stmt_line = 1;
    let mut line = 1;
    let mut in_stmt = false;
    for c in scrubbed.chars() {
        match c {
            '\n' => {
                line += 1;
                stmt.push(' ');
            }
            '{' => {
                m.statement(&stmt, stmt_line, depth, true);
                m.open_scope(&stmt, stmt_line, depth);
                depth += 1;
                stmt.clear();
                in_stmt = false;
            }
            '}' => {
                if let Some(Ctx {
                    kind: CtxKind::Struct(name),
                    ..
                }) = m.ctx.last()
                {
                    let fields = split_top_level(&stmt).into_iter().filter_map(typed_binding);
                    let fields: Vec<_> = fields.map(|(f, ty)| (name.clone(), f, ty)).collect();
                    m.fields.extend(fields);
                }
                m.statement(&stmt, stmt_line, depth, false);
                depth = depth.saturating_sub(1);
                m.guards.retain(|g| g.depth <= depth);
                m.close_scope(depth);
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

/// The module a source file is: `a/b.rs` is `b`, `a/b/mod.rs` is `b`.
fn module_of(path: &Path) -> String {
    let stem = path.file_stem().unwrap_or_default();
    let name = match stem.to_str() {
        Some("mod") => path.parent().and_then(Path::file_name).unwrap_or(stem),
        _ => stem,
    };
    name.to_string_lossy().into_owned()
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
    let test_ranges = test_line_ranges(&scrubbed);
    let mut machine = run_machine(path, &scrubbed);
    for f in &mut machine.fns {
        f.in_test = in_ranges(&test_ranges, f.start_line);
    }
    let mut counters = extract_counters(&scrubbed, file_idx);
    counters.retain(|c| !in_ranges(&test_ranges, c.line));
    FileFacts {
        path: path.to_path_buf(),
        crate_name: crate_of(path),
        module: module_of(path),
        traits: machine.traits,
        fields: machine.fields,
        fns: machine.fns,
        counters,
        test_ranges,
        token_findings: machine.token_findings,
        order_edges: machine.order_edges,
        source_lines: src.lines().map(str::to_owned).collect(),
        scrubbed,
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
    fn self_receivers_are_recognised() {
        for (header, method) in [
            ("fn a(&self) ", true),
            ("pub fn a(&mut self, x: u8) ", true),
            ("fn a<'b>(&'b mut self) ", true),
            ("fn a(mut self) ", true),
            ("fn a(self: Arc<Self>) ", true),
            ("fn a<F: Fn(u8)>(f: F) ", false),
            ("fn a(selfish: u8) ", false),
            ("fn a() ", false),
        ] {
            let (_, got, _) = parse_fn_header(header).unwrap();
            assert_eq!(got, method, "{header}");
        }
    }

    #[test]
    fn declared_receiver_types_are_recorded() {
        let src = "pub struct Site {\n    pub(crate) store: RwLock<Store>,\n    index: a::Index,\n}\n\
                   impl Site {\n    fn f(&self, s: &mut Store, n: usize) {\n        s.links();\n        self.index\n            .lookup();\n        let s = other();\n        s.links();\n        let t: Arc<Store> = make();\n        t.links();\n        let u: Store;\n        u.links();\n    }\n}\n";
        let f = facts(src);
        let field = |s: &str, n: &str, t: &str| (s.to_owned(), n.to_owned(), t.to_owned());
        assert_eq!(
            f.fields,
            [
                field("Site", "store", "RwLock"),
                field("Site", "index", "Index")
            ]
        );
        let recvs: Vec<&Recv> = f.fns[0].calls.iter().map(|c| &c.recv).collect();
        assert_eq!(
            recvs,
            [
                &Recv::Method(Some("Store".into())),
                &Recv::SelfField("index".into()),
                &Recv::Bare,
                &Recv::Method(None),
                &Recv::Bare,
                &Recv::Method(Some("Arc".into())),
                &Recv::Method(Some("Store".into())),
            ]
        );
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
