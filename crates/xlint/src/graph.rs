//! Call-graph construction and reachability with witness paths.
//!
//! Resolution is name-based and deliberately under-approximate: a lint
//! must never drown real findings in false edges, so ambiguous method
//! names that collide with std (`push`, `get`, `send`, …) only resolve
//! through an explicit `self.` or `Type::` receiver. Two declarations
//! narrow a name: a method called on a parameter or `let` declared with
//! a workspace type that has a method of that name resolves to that
//! type's methods alone, and `module::f(…)` resolves to an `f` in a file
//! of that module when there is one. The trade-off is documented in
//! DESIGN.md §7.

use crate::facts::{FileFacts, FnFact, Recv};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Method names that collide with std-library methods so often that a
/// bare `expr.name(…)` receiver carries no information. Calls through
/// these names only produce edges via `self.` or `Type::` receivers.
const METHOD_STOPLIST: [&str; 69] = [
    "push",
    "pop",
    "insert",
    "get",
    "get_mut",
    "remove",
    "len",
    "is_empty",
    "clear",
    "contains_key",
    "extend",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clone",
    "to_owned",
    "to_string",
    "to_vec",
    "as_str",
    "as_ref",
    "as_bytes",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "expect",
    "map",
    "map_err",
    "and_then",
    "or_else",
    "ok",
    "err",
    "ok_or_else",
    "filter",
    "filter_map",
    "collect",
    "join",
    "take",
    "load",
    "store",
    "fetch_add",
    "fetch_sub",
    "fetch_max",
    "drain",
    "entry",
    "or_default",
    "or_insert",
    "keys",
    "values",
    "sort",
    "retain",
    "resize",
    "find",
    "position",
    "split",
    "parse",
    "new",
    "default",
    "send",
    "recv",
    "read",
    "write",
    "flush",
    "truncate",
    "shutdown",
    "open",
    "accept",
    "reset",
];

/// Above this many same-name candidates a method call is treated as
/// unresolvable — fanning an edge to a dozen unrelated impls produces
/// witness paths nobody believes.
const AMBIG_CAP: usize = 10;

/// A function node: (file index, fn index within that file).
pub type NodeId = (usize, usize);

pub struct CallGraph {
    /// Outgoing edges per node: (callee node, call-site line).
    pub edges: HashMap<NodeId, Vec<(NodeId, usize)>>,
}

pub fn fn_at(files: &[FileFacts], id: NodeId) -> &FnFact {
    &files[id.0].fns[id.1]
}

/// Build name indexes and resolve every call site to zero or more
/// workspace functions. Test-only functions are excluded as resolution
/// targets so name collisions with test helpers never create edges.
pub fn build(files: &[FileFacts]) -> CallGraph {
    // Indexes: qualified (Type, name) → nodes; free-fn name → nodes;
    // method name → nodes (any impl type).
    let mut by_qualified: BTreeMap<(String, String), Vec<NodeId>> = BTreeMap::new();
    let mut by_free: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
    let mut by_method: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            let id = (fi, gi);
            match &f.impl_type {
                Some(ty) => {
                    by_qualified
                        .entry((ty.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                    // `expr.name(…)` cannot call an associated function
                    // without a `self` receiver.
                    if f.method {
                        by_method.entry(f.name.clone()).or_default().push(id);
                    }
                }
                None => by_free.entry(f.name.clone()).or_default().push(id),
            }
        }
    }

    let traits: BTreeSet<&str> = files
        .iter()
        .flat_map(|f| f.traits.iter().map(String::as_str))
        .collect();
    let field_types: BTreeMap<(&str, &str), &str> = files
        .iter()
        .flat_map(|f| &f.fields)
        .map(|(ty, field, field_ty)| ((ty.as_str(), field.as_str()), field_ty.as_str()))
        .collect();

    let prefer_same_crate = |candidates: &[NodeId], crate_name: &str| -> Vec<NodeId> {
        let same: Vec<NodeId> = candidates
            .iter()
            .copied()
            .filter(|id| files[id.0].crate_name == crate_name)
            .collect();
        if same.is_empty() {
            candidates.to_vec()
        } else {
            same
        }
    };

    let mut edges: HashMap<NodeId, Vec<(NodeId, usize)>> = HashMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            let id = (fi, gi);
            let out = edges.entry(id).or_default();
            for call in &f.calls {
                // A method call binds to its receiver's declared type's
                // own methods of that name, when it has some and is not
                // a trait (a trait object or generic bound); else by name.
                let method = |declared: Option<&str>| -> Vec<NodeId> {
                    if METHOD_STOPLIST.contains(&call.name.as_str()) {
                        return Vec::new();
                    }
                    let own = declared
                        .filter(|ty| !traits.contains(ty))
                        .and_then(|ty| by_qualified.get(&(ty.to_owned(), call.name.clone())));
                    if let Some(own) = own {
                        return own.clone();
                    }
                    let candidates = by_method
                        .get(&call.name)
                        .map(Vec::as_slice)
                        .unwrap_or_default();
                    let narrowed = prefer_same_crate(candidates, &file.crate_name);
                    if narrowed.len() > AMBIG_CAP {
                        Vec::new()
                    } else {
                        narrowed
                    }
                };
                let targets: Vec<NodeId> = match &call.recv {
                    Recv::SelfDot => {
                        let ty = f.impl_type.clone().unwrap_or_default();
                        by_qualified
                            .get(&(ty, call.name.clone()))
                            .cloned()
                            .unwrap_or_default()
                    }
                    Recv::Path(seg) => {
                        match by_qualified.get(&(seg.clone(), call.name.clone())) {
                            Some(v) => v.clone(),
                            // `module::free_fn(…)` — the free functions of
                            // that name in that module or, when it has
                            // none, in any (same crate preferred).
                            None => {
                                let free = by_free
                                    .get(&call.name)
                                    .map(Vec::as_slice)
                                    .unwrap_or_default();
                                let in_module: Vec<NodeId> = free
                                    .iter()
                                    .copied()
                                    .filter(|id| files[id.0].module == *seg)
                                    .collect();
                                let scope = if in_module.is_empty() {
                                    free
                                } else {
                                    &in_module
                                };
                                prefer_same_crate(scope, &file.crate_name)
                            }
                        }
                    }
                    Recv::Method(ty) => method(ty.as_deref()),
                    Recv::SelfField(field) => method(
                        f.impl_type
                            .as_deref()
                            .and_then(|ty| field_types.get(&(ty, field.as_str())).copied()),
                    ),
                    Recv::Bare => prefer_same_crate(
                        by_free
                            .get(&call.name)
                            .map(Vec::as_slice)
                            .unwrap_or_default(),
                        &file.crate_name,
                    ),
                };
                for t in targets {
                    if t != id {
                        out.push((t, call.line));
                    }
                }
            }
        }
    }
    CallGraph { edges }
}

impl CallGraph {
    /// BFS from `roots`; returns, per reached node, the (parent,
    /// call-site line) edge it was first reached through. Roots map to
    /// themselves. Cycle-safe by construction (visited set).
    pub fn reach(&self, roots: &[NodeId]) -> HashMap<NodeId, (NodeId, usize)> {
        let mut seen: HashMap<NodeId, (NodeId, usize)> = HashMap::new();
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        for &r in roots {
            seen.insert(r, (r, 0));
            queue.push_back(r);
        }
        while let Some(n) = queue.pop_front() {
            if let Some(outs) = self.edges.get(&n) {
                for &(m, line) in outs {
                    if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(m) {
                        e.insert((n, line));
                        queue.push_back(m);
                    }
                }
            }
        }
        seen
    }

    /// The chain of (node, call-line-into-next) from a root down to
    /// `target`, using the BFS parent map.
    pub fn path_to(
        &self,
        reach: &HashMap<NodeId, (NodeId, usize)>,
        target: NodeId,
    ) -> Vec<(NodeId, usize)> {
        let mut rev = Vec::new();
        let mut cur = target;
        while let Some(&(parent, line)) = reach.get(&cur) {
            rev.push((cur, line));
            if parent == cur {
                break;
            }
            cur = parent;
        }
        rev.reverse();
        rev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::extract;
    use std::path::Path;

    fn files(sources: &[(&str, &str)]) -> Vec<FileFacts> {
        sources
            .iter()
            .enumerate()
            .map(|(i, (p, s))| extract(i, Path::new(p), s))
            .collect()
    }

    #[test]
    fn self_calls_resolve_within_impl_type() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "impl R {\n    fn run(&self) { self.tick(); }\n    fn tick(&self) {}\n}\n",
        )]);
        let g = build(&fs);
        let run = (0, 0);
        assert_eq!(g.edges[&run], vec![((0, 1), 2)]);
    }

    #[test]
    fn cross_file_bare_calls_resolve_same_crate_first() {
        let fs = files(&[
            ("crates/a/src/a.rs", "fn caller() { helper(); }\n"),
            ("crates/a/src/b.rs", "pub fn helper() {}\n"),
            ("crates/z/src/c.rs", "pub fn helper() {}\n"),
        ]);
        let g = build(&fs);
        assert_eq!(g.edges[&(0, 0)], vec![((1, 0), 1)]);
    }

    #[test]
    fn method_calls_skip_associated_functions_without_self() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "impl Log {\n    pub fn scan(file: &str) {}\n}\nimpl Table {\n    pub fn scan(&self) {}\n}\nfn f(t: &Table) { t.scan(); }\n",
        )]);
        let g = build(&fs);
        // `t.scan()` can only be `Table::scan`.
        assert_eq!(g.edges[&(0, 2)], vec![((0, 1), 7)]);
    }

    #[test]
    fn a_receiver_declared_with_a_type_resolves_to_its_methods() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "impl Store {\n    pub fn find(&self) {}\n    pub fn links(&self) {}\n}\n\
             impl Servant {\n    pub fn links(&self) {}\n}\n\
             fn of(store: &Store) { store.links(); }\n\
             fn late() { let s: Arc<Servant> = make(); s.links(); let s = other(); s.links(); }\n",
        )]);
        let g = build(&fs);
        // `store.links()` is `Store::links` alone.
        assert_eq!(g.edges[&(0, 3)], vec![((0, 1), 8)]);
        // `Arc<Servant>` names `Arc`, which has no `links`: by name, then
        // by name again once an untyped `let` shadows `s`.
        assert_eq!(g.edges[&(0, 4)].len(), 4);
    }

    #[test]
    fn a_module_path_resolves_to_that_modules_function() {
        let fs = files(&[
            (
                "crates/a/src/hook.rs",
                "fn hook() { reply::write_reply(); wire::write_reply(); }\n",
            ),
            ("crates/a/src/reply.rs", "pub fn write_reply() {}\n"),
            ("crates/a/src/reactor/mod.rs", "pub fn write_reply() {}\n"),
        ]);
        let g = build(&fs);
        // `reply::write_reply` is the reply module's; `wire::write_reply`,
        // in no module here, falls back to every `write_reply`.
        assert_eq!(
            g.edges[&(0, 0)],
            vec![((1, 0), 1), ((1, 0), 1), ((2, 0), 1)]
        );
    }

    #[test]
    fn stoplisted_method_names_produce_no_edges() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "impl Q {\n    pub fn push(&self) { x.send_frame(&f); }\n}\nfn f() { v.push(1); }\n",
        )]);
        let g = build(&fs);
        // `v.push(1)` must NOT resolve to Q::push.
        assert!(g.edges[&(0, 1)].is_empty());
    }

    #[test]
    fn reach_terminates_on_cycles_and_records_paths() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "fn a() { b(); }\nfn b() { a(); c(); }\nfn c() {}\n",
        )]);
        let g = build(&fs);
        let reach = g.reach(&[(0, 0)]);
        assert!(reach.contains_key(&(0, 2)));
        let path = g.path_to(&reach, (0, 2));
        let names: Vec<&str> = path
            .iter()
            .map(|(id, _)| fs[id.0].fns[id.1].name.as_str())
            .collect();
        assert_eq!(names, ["a", "b", "c"]);
    }
}
