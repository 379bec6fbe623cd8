//! A small OQL-flavoured query language over class extents.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! query  := SELECT ( '*' | attr (',' attr)* ) FROM Class [WHERE pred]
//! pred   := or
//! or     := and (OR and)*
//! and    := not (AND not)*
//! not    := [NOT] cmp | '(' pred ')'
//! cmp    := attr (= | <> | < | <= | > | >=| LIKE) literal
//!         | attr IS [NOT] NULL
//! ```
//!
//! `FROM Class` ranges over the extent *closure* (instances of the class
//! and all its subclasses), which is what makes coalition queries like
//! "all databases under Research" one-liners in the co-database.
//!
//! When a top-level `AND` conjunct of `WHERE` compares one attribute
//! with `=`, `<`, `<=`, `>`, `>=` or `IN` against a literal, the plan
//! reads that attribute's index instead of the whole closure. The scan
//! returns exactly the objects its range accepts, so the plan's filter
//! keeps only the conjuncts the range does not answer, and there is no
//! filter when it answers them all. A literal answers its conjunct when
//! its key is exact; an Int of magnitude 2^53 or more is not, so its
//! bound is read inclusively and its conjunct stays in the filter (see
//! `Key::is_exact`). Candidates are visited in OID order, so the rows
//! and their order are the ones the extent scan gives.
//!
//! One executor, [`OqlQuery::execute_into`], hands each row's values,
//! borrowed from the store, to an [`OqlSink`]: in OID order, or after
//! the sort under `ORDER BY`, and it stops at `LIMIT`. Collecting an
//! [`OqlResult`] is one such sink.

use crate::index::{Key, KeyRange};
use crate::model::OValue;
use crate::model::Oid;
use crate::store::{Object, ObjectStore};
use crate::{OoError, OoResult};
use std::cmp::Ordering;
use std::fmt;
use std::mem::{discriminant, Discriminant};
use std::ops::Bound;
use webfindit_base::like::like_match;

/// A parsed OQL query.
#[derive(Debug, Clone, PartialEq)]
pub struct OqlQuery {
    /// Projected attribute names, or empty for `*`.
    pub attrs: Vec<String>,
    /// The class whose extent closure is queried.
    pub class: String,
    /// Optional predicate.
    pub filter: Option<Pred>,
    /// Optional `order by (attribute, descending)` key.
    pub order_by: Option<(String, bool)>,
    /// Optional `limit`.
    pub limit: Option<usize>,
}

/// OQL predicates.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// Comparison of an attribute to a literal.
    Cmp {
        /// Attribute name.
        attr: String,
        /// Operator.
        op: CmpOp,
        /// Literal operand.
        value: OValue,
    },
    /// `attr IS [NOT] NULL`.
    IsNull {
        /// Attribute name.
        attr: String,
        /// True for IS NOT NULL.
        negated: bool,
    },
    /// `attr IN (lit, lit, …)` — membership in a literal list. The
    /// federated executor ships semi-join key sets this way.
    In {
        /// Attribute name.
        attr: String,
        /// Admitted values (at least one).
        values: Vec<OValue>,
    },
    /// Conjunction of two or more parts, none of them an `And`. Built
    /// by [`Pred::junction`].
    And(Vec<Pred>),
    /// Disjunction of two or more parts, none of them an `Or`. Built by
    /// [`Pred::junction`].
    Or(Vec<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl Pred {
    /// The one way a [`Pred::And`] or [`Pred::Or`] is built: `make` is
    /// that variant, and a part that is itself one, parenthesised or not,
    /// is spliced in. So a chain of any length is one flat list and
    /// nothing recurses once per operator. A single part comes back
    /// unchanged; `parts` must not be empty.
    pub fn junction(make: fn(Vec<Pred>) -> Pred, parts: impl IntoIterator<Item = Pred>) -> Pred {
        let kind = make(Vec::new());
        let mut flat = Vec::new();
        for part in parts {
            match (&kind, part) {
                (Pred::And(_), Pred::And(inner)) | (Pred::Or(_), Pred::Or(inner)) => {
                    flat.extend(inner)
                }
                (_, part) => flat.push(part),
            }
        }
        match flat.len() {
            1 => flat.pop().expect("one part"),
            _ => make(flat),
        }
    }

    /// The parts of a [`Pred::And`], or this predicate as its one
    /// conjunct.
    pub fn conjuncts(&self) -> &[Pred] {
        match self {
            Pred::And(parts) => parts,
            one => std::slice::from_ref(one),
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `LIKE` with `%`/`_`
    Like,
}

/// Query result: projected column names plus `(oid, values)` rows.
#[derive(Debug, Clone, PartialEq)]
pub struct OqlResult {
    /// Output attribute names.
    pub columns: Vec<String>,
    /// Matching objects with projected values.
    pub rows: Vec<(Oid, Vec<OValue>)>,
}

/// Receives an OQL answer as the executor produces it: the column names
/// once, then each row's OID and projected values, borrowed from the
/// store.
pub trait OqlSink<E = OoError> {
    /// The output column names.
    fn columns(&mut self, columns: &[String]) -> Result<(), E>;

    /// One output row.
    fn row(&mut self, oid: Oid, values: &[&OValue]) -> Result<(), E>;
}

/// Collecting is one way to consume the rows: each value is cloned.
impl<E> OqlSink<E> for OqlResult {
    fn columns(&mut self, columns: &[String]) -> Result<(), E> {
        self.columns = columns.to_vec();
        Ok(())
    }

    fn row(&mut self, oid: Oid, values: &[&OValue]) -> Result<(), E> {
        self.rows
            .push((oid, values.iter().map(|v| (*v).clone()).collect()));
        Ok(())
    }
}

/// Execution counters for an OQL run, mirroring relstore's
/// `ExecMetrics` vocabulary so Trace/OrbMetrics can observe data-layer
/// work uniformly across both stores.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OoExecMetrics {
    /// Objects examined: from the extent closure, or the candidates an
    /// index returned.
    pub objects_scanned: u64,
    /// Candidates an index returned.
    pub index_hits: u64,
    /// Objects surviving the predicate.
    pub objects_matched: u64,
    /// Rows materialized for sorting.
    pub rows_spilled: u64,
    /// Operators that actually ran, leaf first. Guaranteed to equal
    /// [`OqlPlan::operator_names`] of the plan [`OqlQuery::plan`]
    /// returns for the same query.
    pub operators: Vec<&'static str>,
}

/// Physical plan for an OQL query over a class-lattice extent.
///
/// Rendered by `EXPLAIN`-style callers *and* walked conceptually by
/// [`OqlQuery::execute_into`]; there is no separate description path
/// to drift.
#[derive(Debug, Clone, PartialEq)]
pub enum OqlPlan {
    /// Scan the extent closure (instances of the class and subclasses).
    ExtentScan {
        /// Class whose closure is scanned.
        class: String,
        /// Objects currently in the closure.
        objects: usize,
    },
    /// Visit, in OID order, the objects of the extent closure whose
    /// attribute has a key in the range, and only those.
    IndexScan {
        /// Class whose closure is read.
        class: String,
        /// Indexed attribute (lowercase).
        attr: String,
        /// Keys read.
        range: KeyRange,
    },
    /// Keep objects whose predicate is true: the `WHERE` conjuncts the
    /// scan below does not answer.
    Filter {
        /// Upstream operator.
        input: Box<OqlPlan>,
        /// Rendered predicate.
        pred: String,
    },
    /// Project the attribute list.
    Project {
        /// Upstream operator.
        input: Box<OqlPlan>,
        /// Output attribute names.
        attrs: Vec<String>,
    },
    /// Sort on one attribute (NULLs first, OID tiebreak).
    Sort {
        /// Upstream operator.
        input: Box<OqlPlan>,
        /// Sort attribute.
        attr: String,
        /// Descending order.
        desc: bool,
    },
    /// Stop after `n` rows; without a sort this stops the scan too.
    Limit {
        /// Upstream operator.
        input: Box<OqlPlan>,
        /// Row cap.
        n: usize,
    },
}

impl OqlPlan {
    /// Operator display name.
    pub fn name(&self) -> &'static str {
        match self {
            OqlPlan::ExtentScan { .. } => "extent scan",
            OqlPlan::IndexScan { .. } => "index scan",
            OqlPlan::Filter { .. } => "filter",
            OqlPlan::Project { .. } => "project",
            OqlPlan::Sort { .. } => "sort",
            OqlPlan::Limit { .. } => "limit",
        }
    }

    /// The upstream operator, if any.
    pub fn input(&self) -> Option<&OqlPlan> {
        match self {
            OqlPlan::ExtentScan { .. } | OqlPlan::IndexScan { .. } => None,
            OqlPlan::Filter { input, .. }
            | OqlPlan::Project { input, .. }
            | OqlPlan::Sort { input, .. }
            | OqlPlan::Limit { input, .. } => Some(input),
        }
    }

    /// Operator names leaf-first (execution order).
    pub fn operator_names(&self) -> Vec<&'static str> {
        let mut out = self.input().map_or_else(Vec::new, OqlPlan::operator_names);
        out.push(self.name());
        out
    }

    /// The scan at the bottom of the plan.
    fn leaf(&self) -> &OqlPlan {
        self.input().map_or(self, OqlPlan::leaf)
    }

    /// Render the plan root-first, indented two spaces per level.
    pub fn render(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut Vec<String>) {
        let pad = "  ".repeat(depth);
        let line = match self {
            OqlPlan::ExtentScan { class, objects } => {
                format!("{pad}extent scan {class} ({objects} objects, closure)")
            }
            OqlPlan::IndexScan { class, attr, range } => {
                format!("{pad}index scan {class}.{attr} {range} (closure)")
            }
            OqlPlan::Filter { pred, .. } => format!("{pad}filter: {pred}"),
            OqlPlan::Project { attrs, .. } => format!("{pad}project: {}", attrs.join(", ")),
            OqlPlan::Sort { attr, desc, .. } => {
                format!("{pad}sort: {attr}{}", if *desc { " DESC" } else { "" })
            }
            OqlPlan::Limit { n, .. } => format!("{pad}limit: {n}"),
        };
        out.push(line);
        if let Some(i) = self.input() {
            i.render_into(depth + 1, out);
        }
    }
}

fn value_to_text(v: &OValue) -> String {
    match v {
        OValue::Text(s) => format!("'{}'", s.replace('\'', "''")),
        other => other.to_string(),
    }
}

impl fmt::Display for KeyRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyRange::Between { lo, hi } => {
                match lo {
                    Bound::Included(v) => write!(f, "[{}", value_to_text(v))?,
                    Bound::Excluded(v) => write!(f, "({}", value_to_text(v))?,
                    Bound::Unbounded => write!(f, "(-∞")?,
                }
                match hi {
                    Bound::Included(v) => write!(f, ", {}]", value_to_text(v)),
                    Bound::Excluded(v) => write!(f, ", {})", value_to_text(v)),
                    Bound::Unbounded => write!(f, ", ∞)"),
                }
            }
            KeyRange::Points(values) => {
                let vs: Vec<String> = values.iter().map(value_to_text).collect();
                write!(f, "{{{}}}", vs.join(", "))
            }
        }
    }
}

/// The tighter of two bounds on one side of a range, by their keys:
/// `toward` is `Greater` for lower bounds and `Less` for upper ones.
fn tighter<'a>(
    old: Bound<&'a OValue>,
    new: Bound<&'a OValue>,
    toward: Ordering,
) -> Bound<&'a OValue> {
    match (old, new) {
        (b, Bound::Unbounded) | (Bound::Unbounded, b) => b,
        (Bound::Included(o) | Bound::Excluded(o), Bound::Included(n) | Bound::Excluded(n)) => {
            match Key::of(n).cmp(&Key::of(o)) {
                ord if ord == toward => new,
                Ordering::Equal if matches!(new, Bound::Excluded(_)) => new,
                _ => old,
            }
        }
    }
}

/// An index read: the attribute, the keys, and the positions, in
/// ascending order, of the conjuncts those keys answer exactly.
struct Access<'q> {
    attr: &'q str,
    range: KeyRange,
    answered: Vec<usize>,
}

/// The index read `conjuncts` allow: `=`, `<`, `<=`, `>`, `>=` and `IN`
/// against literals that have an index key. The comparisons on one
/// attribute and key family narrow one range, which answers each of
/// them whose literal's key is exact; an `IN` list is answered when
/// every keyed value in it is. A bound whose key is not exact is read
/// inclusively. An equality goes first, then an `IN` list, then a range
/// bounded on both sides, then one bounded on one side; the first such
/// conjunct wins a tie.
fn index_access(conjuncts: &[Pred]) -> Option<Access<'_>> {
    // (attribute, key family, lower bound, upper bound, answered)
    let mut ranges: Vec<(&str, Discriminant<Key>, _, _, Vec<usize>)> = Vec::new();
    let mut lists = Vec::new();
    for (at, c) in conjuncts.iter().enumerate() {
        match c {
            Pred::Cmp { attr, op, value } => {
                let Some(family) = Key::of(value).map(|k| discriminant(&k)) else {
                    continue;
                };
                let exact = Key::is_exact(value);
                let open = |v| {
                    if exact {
                        Bound::Excluded(v)
                    } else {
                        Bound::Included(v)
                    }
                };
                let (lo, hi) = match op {
                    CmpOp::Eq => (Bound::Included(value), Bound::Included(value)),
                    CmpOp::Lt => (Bound::Unbounded, open(value)),
                    CmpOp::Le => (Bound::Unbounded, Bound::Included(value)),
                    CmpOp::Gt => (open(value), Bound::Unbounded),
                    CmpOp::Ge => (Bound::Included(value), Bound::Unbounded),
                    CmpOp::Ne | CmpOp::Like => continue,
                };
                let answered = if exact { vec![at] } else { Vec::new() };
                match ranges.iter_mut().find(|r| r.0 == attr && r.1 == family) {
                    Some(r) => {
                        r.2 = tighter(r.2, lo, Ordering::Greater);
                        r.3 = tighter(r.3, hi, Ordering::Less);
                        r.4.extend(answered);
                    }
                    None => ranges.push((attr, family, lo, hi, answered)),
                }
            }
            Pred::In { attr, values } => {
                let keyed: Vec<OValue> = values
                    .iter()
                    .filter(|v| Key::of(v).is_some())
                    .cloned()
                    .collect();
                let exact = keyed.iter().all(Key::is_exact);
                lists.push(Access {
                    attr,
                    range: KeyRange::Points(keyed),
                    answered: if exact { vec![at] } else { Vec::new() },
                });
            }
            _ => {}
        }
    }
    let rank = |access: &Access<'_>| match &access.range {
        KeyRange::Between {
            lo: Bound::Included(a),
            hi: Bound::Included(b),
        } if a.compare(b) == Some(Ordering::Equal) => 0,
        KeyRange::Points(_) => 1,
        KeyRange::Between {
            lo: Bound::Unbounded,
            ..
        }
        | KeyRange::Between {
            hi: Bound::Unbounded,
            ..
        } => 3,
        KeyRange::Between { .. } => 2,
    };
    ranges
        .into_iter()
        .map(|(attr, _, lo, hi, answered)| Access {
            attr,
            range: KeyRange::Between {
                lo: lo.cloned(),
                hi: hi.cloned(),
            },
            answered,
        })
        .chain(lists)
        .min_by_key(rank)
}

/// The text of `parts` joined by `sep` (` AND ` or ` OR `): one part as
/// it is, two or more in one pair of parentheses.
fn list_text<'p>(parts: impl IntoIterator<Item = &'p Pred>, sep: &str) -> String {
    let mut texts: Vec<String> = parts.into_iter().map(pred_to_text).collect();
    if texts.len() == 1 {
        return texts.pop().expect("one part");
    }
    format!("({})", texts.join(sep))
}

fn pred_to_text(p: &Pred) -> String {
    match p {
        Pred::Cmp { attr, op, value } => {
            let op = match op {
                CmpOp::Eq => "=",
                CmpOp::Ne => "<>",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
                CmpOp::Like => "LIKE",
            };
            format!("{attr} {op} {}", value_to_text(value))
        }
        Pred::IsNull { attr, negated } => {
            format!("{attr} IS {}NULL", if *negated { "NOT " } else { "" })
        }
        Pred::In { attr, values } => {
            let vs: Vec<String> = values.iter().map(value_to_text).collect();
            format!("{attr} IN ({})", vs.join(", "))
        }
        Pred::And(parts) => list_text(parts, " AND "),
        Pred::Or(parts) => list_text(parts, " OR "),
        Pred::Not(a) => format!("NOT {}", pred_to_text(a)),
    }
}

impl OqlQuery {
    /// Parse OQL text.
    pub fn parse(text: &str) -> OoResult<OqlQuery> {
        Parser::new(text).query()
    }

    /// Resolve the output attribute list against the store's lattice.
    fn output_columns(&self, store: &ObjectStore) -> OoResult<Vec<String>> {
        if self.attrs.is_empty() {
            Ok(store
                .all_attributes(&self.class)?
                .into_iter()
                .map(|a| a.name)
                .collect())
        } else {
            Ok(self.attrs.clone())
        }
    }

    /// Build the physical plan this query executes against `store`.
    pub fn plan(&self, store: &ObjectStore) -> OoResult<OqlPlan> {
        self.planned(store).map(|p| p.plan)
    }

    /// The plan, with what running it needs beside its operators.
    fn planned(&self, store: &ObjectStore) -> OoResult<Planned<'_>> {
        let closure = store.closure(&self.class)?;
        let columns = self.output_columns(store)?;
        let conjuncts = self.filter.as_ref().map_or(&[][..], Pred::conjuncts);
        let class = self.class.clone();
        let (mut plan, answered) = match index_access(conjuncts) {
            Some(Access {
                attr,
                range,
                answered,
            }) => {
                let attr = attr.to_owned();
                (OqlPlan::IndexScan { class, attr, range }, answered)
            }
            None => {
                let objects = store.closure_len(&closure);
                (OqlPlan::ExtentScan { class, objects }, Vec::new())
            }
        };
        let residual: Vec<&Pred> = conjuncts
            .iter()
            .enumerate()
            .filter(|(at, _)| answered.binary_search(at).is_err())
            .map(|(_, c)| c)
            .collect();
        if !residual.is_empty() {
            plan = OqlPlan::Filter {
                input: Box::new(plan),
                pred: list_text(residual.iter().copied(), " AND "),
            };
        }
        plan = OqlPlan::Project {
            input: Box::new(plan),
            attrs: columns.clone(),
        };
        if let Some((attr, desc)) = &self.order_by {
            plan = OqlPlan::Sort {
                input: Box::new(plan),
                attr: attr.clone(),
                desc: *desc,
            };
        }
        if let Some(n) = self.limit {
            plan = OqlPlan::Limit {
                input: Box::new(plan),
                n,
            };
        }
        Ok(Planned {
            plan,
            closure,
            residual,
            columns,
        })
    }

    /// Describe the plan [`OqlQuery::execute`] would run, without
    /// executing it.
    pub fn explain(&self, store: &ObjectStore) -> OoResult<Vec<String>> {
        Ok(self.plan(store)?.render())
    }

    /// Execute against a store, collecting the answer.
    pub fn execute(&self, store: &ObjectStore) -> OoResult<OqlResult> {
        self.execute_with_metrics(store).map(|(r, _)| r)
    }

    /// Execute against a store, collecting the answer beside its
    /// [`OoExecMetrics`].
    pub fn execute_with_metrics(
        &self,
        store: &ObjectStore,
    ) -> OoResult<(OqlResult, OoExecMetrics)> {
        let mut result = OqlResult {
            columns: Vec::new(),
            rows: Vec::new(),
        };
        let m = self.execute_into(store, &mut result)?;
        Ok((result, m))
    }

    /// Execute against a store, handing `sink` the column names and then
    /// each row as it is produced: in OID order, or in sort order under
    /// `ORDER BY`, whose sort holds `(key, oid, object)` entries, not
    /// rows. `LIMIT` without `ORDER BY` stops the scan as soon as enough
    /// objects matched. An error from `sink` ends the run.
    pub fn execute_into<E, S>(&self, store: &ObjectStore, sink: &mut S) -> Result<OoExecMetrics, E>
    where
        E: From<OoError>,
        S: OqlSink<E> + ?Sized,
    {
        let Planned {
            plan,
            closure,
            residual,
            columns,
        } = self.planned(store)?;
        let mut m = OoExecMetrics {
            operators: plan.operator_names(),
            ..OoExecMetrics::default()
        };
        let oids = match plan.leaf() {
            OqlPlan::IndexScan { attr, range, .. } => {
                let oids = store.index_candidates(&closure, attr, range)?;
                m.index_hits = oids.len() as u64;
                oids
            }
            _ => store.closure_oids(&closure),
        };
        sink.columns(&columns)?;
        let limit = self.limit.unwrap_or(usize::MAX);
        let mut values: Vec<&OValue> = Vec::with_capacity(columns.len());
        let mut sorted: Vec<(&OValue, Oid, &Object)> = Vec::new();
        let mut sent = 0;
        for oid in oids {
            // LIMIT pushdown: without a sort there is no need to keep
            // scanning once the cap is reached.
            if self.order_by.is_none() && sent == limit {
                break;
            }
            let obj = store.object(oid)?;
            m.objects_scanned += 1;
            if !residual.iter().all(|p| eval_pred(p, obj) == Some(true)) {
                continue;
            }
            m.objects_matched += 1;
            if let Some((attr, _)) = &self.order_by {
                sorted.push((obj.attr(attr), oid, obj));
                continue;
            }
            values.clear();
            values.extend(columns.iter().map(|c| obj.attr(c)));
            sink.row(oid, &values)?;
            sent += 1;
        }
        if let Some((_, desc)) = &self.order_by {
            m.rows_spilled = sorted.len() as u64;
            sorted.sort_by(|(a, ao, _), (b, bo, _)| {
                let ord = sort_order(a, b);
                let ord = if *desc { ord.reverse() } else { ord };
                ord.then(ao.cmp(bo))
            });
            for (_, oid, obj) in sorted.into_iter().take(limit) {
                values.clear();
                values.extend(columns.iter().map(|c| obj.attr(c)));
                sink.row(oid, &values)?;
            }
        }
        Ok(m)
    }
}

/// A plan, and what running it needs beside its operators.
struct Planned<'q> {
    plan: OqlPlan,
    /// Lowercase names of the classes in the extent closure.
    closure: Vec<String>,
    /// The `WHERE` conjuncts the scan does not answer: the filter keeps
    /// an object when each of them is true.
    residual: Vec<&'q Pred>,
    /// Output attribute names.
    columns: Vec<String>,
}

/// The order `ORDER BY` sorts keys in: NULLs first, then Bools, then
/// numbers, then Text. Numbers sort by their exact value, so Ints and
/// Doubles that round to one f64 still sort consistently, and NaN sorts
/// after every other number. Where [`OValue::compare`] orders two
/// values consistently this agrees with it; unlike it, this is a total
/// order, as `sort_by` requires.
fn sort_order(a: &OValue, b: &OValue) -> Ordering {
    fn rank(v: &OValue) -> u8 {
        match v {
            OValue::Null => 0,
            OValue::Bool(_) => 1,
            OValue::Double(d) if d.is_nan() => 3,
            OValue::Int(_) | OValue::Double(_) => 2,
            OValue::Text(_) => 4,
            OValue::List(_) => 5,
            OValue::Ref(_) => 6,
        }
    }
    match (a, b) {
        _ if rank(a) != rank(b) => rank(a).cmp(&rank(b)),
        (OValue::Int(i), OValue::Double(f)) => int_against_double(*i, *f),
        (OValue::Double(f), OValue::Int(i)) => int_against_double(*i, *f).reverse(),
        // NULLs, NaNs and lists never compare, so they tie.
        _ => a.compare(b).unwrap_or(Ordering::Equal),
    }
}

/// `i` against the non-NaN `f`, by exact value.
fn int_against_double(i: i64, f: f64) -> Ordering {
    // Rounding to nearest never crosses a representable `f`.
    match (i as f64).partial_cmp(&f).expect("f is not NaN") {
        // `f` is an integer here; 2^63 is the one such value an i64
        // can round to that it cannot hold.
        Ordering::Equal if f >= 9_223_372_036_854_775_808.0 => Ordering::Less,
        Ordering::Equal => i.cmp(&(f as i64)),
        unequal => unequal,
    }
}

fn eval_pred(p: &Pred, obj: &crate::store::Object) -> Option<bool> {
    match p {
        Pred::Cmp { attr, op, value } => {
            let v = obj.attr(attr);
            if *op == CmpOp::Like {
                return match (v.as_text(), value.as_text()) {
                    (Some(t), Some(pat)) => Some(like_match(t, pat)),
                    _ => None,
                };
            }
            let ord = v.compare(value)?;
            Some(match op {
                CmpOp::Eq => ord == Ordering::Equal,
                CmpOp::Ne => ord != Ordering::Equal,
                CmpOp::Lt => ord == Ordering::Less,
                CmpOp::Le => ord != Ordering::Greater,
                CmpOp::Gt => ord == Ordering::Greater,
                CmpOp::Ge => ord != Ordering::Less,
                CmpOp::Like => unreachable!(),
            })
        }
        Pred::IsNull { attr, negated } => Some(obj.attr(attr).is_null() != *negated),
        Pred::In { attr, values } => {
            let v = obj.attr(attr);
            let mut unknown = false;
            for candidate in values {
                match v.compare(candidate) {
                    Some(Ordering::Equal) => return Some(true),
                    Some(_) => {}
                    None => unknown = true,
                }
            }
            if unknown {
                None
            } else {
                Some(false)
            }
        }
        Pred::And(parts) => eval_junction(parts, false, obj),
        Pred::Or(parts) => eval_junction(parts, true, obj),
        Pred::Not(a) => eval_pred(a, obj).map(|b| !b),
    }
}

/// An AND (`decisive` false) or an OR (`decisive` true) in three-valued
/// logic, left to right: the first part that is `decisive` settles it,
/// and the parts after it are not evaluated.
fn eval_junction(parts: &[Pred], decisive: bool, obj: &crate::store::Object) -> Option<bool> {
    let mut unknown = false;
    for part in parts {
        match eval_pred(part, obj) {
            Some(b) if b == decisive => return Some(decisive),
            Some(_) => {}
            None => unknown = true,
        }
    }
    (!unknown).then_some(!decisive)
}

// ---- parsing ----------------------------------------------------------

/// How many predicates may sit inside one another: the whole `WHERE`
/// predicate is one level, and each parenthesis or `NOT` inside it one
/// more. Parsing recurses once per level, so without a bound a peer
/// could send a short query that overflows the parsing thread's stack,
/// which aborts the whole process.
pub const MAX_PRED_DEPTH: usize = 64;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Int(i64),
    Float(f64),
    Sym(&'static str),
    Eof,
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    /// Predicates currently open, bounded by [`MAX_PRED_DEPTH`].
    depth: usize,
}

impl Parser {
    fn new(text: &str) -> Parser {
        Parser {
            toks: lex(text),
            pos: 0,
            depth: 0,
        }
    }

    /// Parse one more level of predicate nesting, refusing to go past
    /// [`MAX_PRED_DEPTH`].
    fn nested(&mut self, level: fn(&mut Parser) -> OoResult<Pred>) -> OoResult<Pred> {
        if self.depth == MAX_PRED_DEPTH {
            return Err(OoError::TooDeep {
                limit: MAX_PRED_DEPTH,
                offset: self.offset(),
            });
        }
        self.depth += 1;
        let p = level(self);
        self.depth -= 1;
        p
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn offset(&self) -> usize {
        self.toks[self.pos].1
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> OoResult<T> {
        Err(OoError::Parse {
            message: msg.into(),
            offset: self.offset(),
        })
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s.eq_ignore_ascii_case(kw)) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> OoResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected {}", kw.to_uppercase()))
        }
    }

    fn ident(&mut self) -> OoResult<String> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn query(&mut self) -> OoResult<OqlQuery> {
        self.expect_kw("select")?;
        let mut attrs = Vec::new();
        if !matches!(self.peek(), Tok::Sym("*")) {
            loop {
                attrs.push(self.ident()?.to_ascii_lowercase());
                if !matches!(self.peek(), Tok::Sym(",")) {
                    break;
                }
                self.bump();
            }
        } else {
            self.bump();
        }
        self.expect_kw("from")?;
        let class = self.ident()?;
        let filter = if self.eat_kw("where") {
            Some(self.nested(Parser::pred_or)?)
        } else {
            None
        };
        let order_by = if self.eat_kw("order") {
            self.expect_kw("by")?;
            let attr = self.ident()?.to_ascii_lowercase();
            let desc = if self.eat_kw("desc") {
                true
            } else {
                self.eat_kw("asc");
                false
            };
            Some((attr, desc))
        } else {
            None
        };
        let limit = if self.eat_kw("limit") {
            match self.bump() {
                Tok::Int(n) if n >= 0 => Some(n as usize),
                other => return self.err(format!("expected a limit count, found {other:?}")),
            }
        } else {
            None
        };
        if !matches!(self.peek(), Tok::Eof) {
            return self.err("trailing input after query");
        }
        Ok(OqlQuery {
            attrs,
            class,
            filter,
            order_by,
            limit,
        })
    }

    fn pred_or(&mut self) -> OoResult<Pred> {
        self.junction("or", Parser::pred_and, Pred::Or)
    }

    fn pred_and(&mut self) -> OoResult<Pred> {
        self.junction("and", Parser::pred_not, Pred::And)
    }

    /// `part (kw part)*` as one flat list of the variant `join`; a lone
    /// part is returned as it is.
    fn junction(
        &mut self,
        kw: &str,
        part: fn(&mut Parser) -> OoResult<Pred>,
        join: fn(Vec<Pred>) -> Pred,
    ) -> OoResult<Pred> {
        let mut parts = vec![part(self)?];
        while self.eat_kw(kw) {
            parts.push(part(self)?);
        }
        Ok(Pred::junction(join, parts))
    }

    fn pred_not(&mut self) -> OoResult<Pred> {
        if self.eat_kw("not") {
            let inner = self.nested(Parser::pred_not)?;
            return Ok(Pred::Not(Box::new(inner)));
        }
        if matches!(self.peek(), Tok::Sym("(")) {
            self.bump();
            let inner = self.nested(Parser::pred_or)?;
            if !matches!(self.bump(), Tok::Sym(")")) {
                return self.err("expected ')'");
            }
            return Ok(inner);
        }
        self.cmp()
    }

    fn cmp(&mut self) -> OoResult<Pred> {
        let attr = self.ident()?.to_ascii_lowercase();
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Pred::IsNull { attr, negated });
        }
        if self.eat_kw("like") {
            let value = self.literal()?;
            return Ok(Pred::Cmp {
                attr,
                op: CmpOp::Like,
                value,
            });
        }
        if self.eat_kw("in") {
            if !matches!(self.bump(), Tok::Sym("(")) {
                return self.err("expected '(' after IN");
            }
            let mut values = vec![self.literal()?];
            while matches!(self.peek(), Tok::Sym(",")) {
                self.bump();
                values.push(self.literal()?);
            }
            if !matches!(self.bump(), Tok::Sym(")")) {
                return self.err("expected ')' after the IN list");
            }
            return Ok(Pred::In { attr, values });
        }
        let op = match self.bump() {
            Tok::Sym("=") => CmpOp::Eq,
            Tok::Sym("<>") => CmpOp::Ne,
            Tok::Sym("<=") => CmpOp::Le,
            Tok::Sym(">=") => CmpOp::Ge,
            Tok::Sym("<") => CmpOp::Lt,
            Tok::Sym(">") => CmpOp::Gt,
            other => return self.err(format!("expected comparison operator, found {other:?}")),
        };
        let value = self.literal()?;
        Ok(Pred::Cmp { attr, op, value })
    }

    fn literal(&mut self) -> OoResult<OValue> {
        match self.bump() {
            Tok::Str(s) => Ok(OValue::Text(s)),
            Tok::Int(v) => Ok(OValue::Int(v)),
            Tok::Float(v) => Ok(OValue::Double(v)),
            Tok::Ident(s) if s.eq_ignore_ascii_case("true") => Ok(OValue::Bool(true)),
            Tok::Ident(s) if s.eq_ignore_ascii_case("false") => Ok(OValue::Bool(false)),
            Tok::Ident(s) if s.eq_ignore_ascii_case("null") => Ok(OValue::Null),
            Tok::Sym("-") => match self.bump() {
                Tok::Int(v) => Ok(OValue::Int(-v)),
                Tok::Float(v) => Ok(OValue::Double(-v)),
                other => self.err(format!("expected number after '-', found {other:?}")),
            },
            other => self.err(format!("expected literal, found {other:?}")),
        }
    }
}

fn lex(text: &str) -> Vec<(Tok, usize)> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if c == '\'' {
            let start = i;
            i += 1;
            let mut s = String::new();
            while i < b.len() {
                if b[i] == b'\'' {
                    if b.get(i + 1) == Some(&b'\'') {
                        s.push('\'');
                        i += 2;
                    } else {
                        i += 1;
                        break;
                    }
                } else {
                    let ch = text[i..].chars().next().expect("valid utf8");
                    s.push(ch);
                    i += ch.len_utf8();
                }
            }
            out.push((Tok::Str(s), start));
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < b.len() && (b[i] as char).is_ascii_digit() {
                i += 1;
            }
            if i < b.len() && b[i] == b'.' && i + 1 < b.len() && (b[i + 1] as char).is_ascii_digit()
            {
                i += 1;
                while i < b.len() && (b[i] as char).is_ascii_digit() {
                    i += 1;
                }
                out.push((Tok::Float(text[start..i].parse().unwrap_or(0.0)), start));
            } else {
                out.push((Tok::Int(text[start..i].parse().unwrap_or(0)), start));
            }
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < b.len() && ((b[i] as char).is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            out.push((Tok::Ident(text[start..i].to_owned()), start));
            continue;
        }
        // Bytes, not `&text[i..]`: `i` may sit inside a character the
        // lexer skipped a byte at a time.
        let syms = ["<>", "<=", ">=", "=", "<", ">", "(", ")", ",", "*", "-"];
        match syms.into_iter().find(|s| b[i..].starts_with(s.as_bytes())) {
            Some(sym) => {
                out.push((Tok::Sym(sym), i));
                i += sym.len();
            }
            // Skip unknown bytes; the parser will report a sensible error
            // at the next expectation point.
            None => i += 1,
        }
    }
    out.push((Tok::Eof, text.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ClassDef, OType};

    fn store() -> ObjectStore {
        let mut s = ObjectStore::new("codb");
        s.define_class(
            ClassDef::root("Research")
                .attr("name", OType::Text)
                .attr("funding", OType::Double)
                .attr("active", OType::Bool),
        )
        .unwrap();
        s.define_class(ClassDef::root("MedicalResearch").extends("Research"))
            .unwrap();
        s.create(
            "Research",
            [
                ("name".to_string(), OValue::from("QUT Research")),
                ("funding".to_string(), OValue::from(120_000.0)),
                ("active".to_string(), OValue::from(true)),
            ],
        )
        .unwrap();
        s.create(
            "MedicalResearch",
            [
                ("name".to_string(), OValue::from("RMIT Medical Research")),
                ("funding".to_string(), OValue::from(80_000.0)),
                ("active".to_string(), OValue::from(false)),
            ],
        )
        .unwrap();
        s
    }

    #[test]
    fn select_star_covers_subclass_extents() {
        let q = OqlQuery::parse("select * from Research").unwrap();
        let r = q.execute(&store()).unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.columns, vec!["name", "funding", "active"]);
    }

    #[test]
    fn in_list_membership() {
        let q = OqlQuery::parse(
            "select funding from Research where name in ('QUT Research', 'Nowhere')",
        )
        .unwrap();
        let r = q.execute(&store()).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].1[0], OValue::from(120_000.0));
        // The index reads the list and answers it, so no filter is left.
        let plan = q.plan(&store()).unwrap();
        assert_eq!(
            plan.render(),
            vec![
                "project: funding",
                "  index scan Research.name {'QUT Research', 'Nowhere'} (closure)",
            ]
        );
        // Under `OR` the list renders back into the filter line.
        let q = OqlQuery::parse(
            "select funding from Research where name in ('QUT Research', 'Nowhere') or active = true",
        )
        .unwrap();
        let text = q.plan(&store()).unwrap().render().join("\n");
        assert!(
            text.contains("filter: (name IN ('QUT Research', 'Nowhere') OR active = true)"),
            "{text}"
        );
        // An empty IN list is a parse error, not an empty match.
        assert!(OqlQuery::parse("select * from Research where name in ()").is_err());
    }

    #[test]
    fn projection_and_filter() {
        let q = OqlQuery::parse("select name from Research where funding > 100000").unwrap();
        let r = q.execute(&store()).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].1[0].as_text(), Some("QUT Research"));
    }

    #[test]
    fn like_and_boolean_literals() {
        let q = OqlQuery::parse(
            "select name from Research where name like '%Medical%' and active = false",
        )
        .unwrap();
        let r = q.execute(&store()).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].1[0].as_text(), Some("RMIT Medical Research"));
    }

    #[test]
    fn or_not_parens() {
        let q = OqlQuery::parse(
            "select name from Research where (funding < 100000 or name = 'QUT Research') and not active = false",
        )
        .unwrap();
        let r = q.execute(&store()).unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn is_null_checks() {
        let mut s = store();
        s.create(
            "Research",
            [("name".to_string(), OValue::from("NoFunding"))],
        )
        .unwrap();
        let q = OqlQuery::parse("select name from Research where funding is null").unwrap();
        let r = q.execute(&s).unwrap();
        assert_eq!(r.rows.len(), 1);
        let q2 = OqlQuery::parse("select name from Research where funding is not null").unwrap();
        assert_eq!(q2.execute(&s).unwrap().rows.len(), 2);
    }

    #[test]
    fn null_comparisons_filter_out() {
        let mut s = store();
        s.create(
            "Research",
            [("name".to_string(), OValue::from("NoFunding"))],
        )
        .unwrap();
        // funding > 0 is unknown for the null row → excluded.
        let q = OqlQuery::parse("select name from Research where funding > 0").unwrap();
        assert_eq!(q.execute(&s).unwrap().rows.len(), 2);
    }

    #[test]
    fn parse_errors() {
        assert!(OqlQuery::parse("select from X").is_err());
        assert!(OqlQuery::parse("select * from").is_err());
        assert!(OqlQuery::parse("select * from X where").is_err());
        assert!(OqlQuery::parse("select * from X where a ~ 3").is_err());
        assert!(OqlQuery::parse("select * from X trailing").is_err());
        // A character of several bytes outside a string is skipped, not
        // sliced through.
        assert!(OqlQuery::parse("select * from X where é = 1").is_err());
        assert!(OqlQuery::parse("select * from X where a = 1 ∧ b = 2").is_err());
    }

    /// `AND` and `OR` parse into flat lists: a parenthesised list of the
    /// same kind is spliced into its parent, one of the other kind is a
    /// part, and a lone part is no list.
    #[test]
    fn and_and_or_are_flat_lists() {
        let cmp = |attr: &str| Pred::Cmp {
            attr: attr.into(),
            op: CmpOp::Eq,
            value: OValue::Int(1),
        };
        let q = OqlQuery::parse(
            "select * from X where (a = 1 and b = 1) and (c = 1 or d = 1 or (e = 1 or f = 1)) and g = 1",
        )
        .unwrap();
        let or = Pred::Or(vec![cmp("c"), cmp("d"), cmp("e"), cmp("f")]);
        let want = Pred::And(vec![cmp("a"), cmp("b"), or, cmp("g")]);
        assert_eq!(q.filter, Some(want));
        let one = OqlQuery::parse("select * from X where ((a = 1))").unwrap();
        assert_eq!(one.filter, Some(cmp("a")));
    }

    #[test]
    fn unknown_class_errors_at_execute() {
        let q = OqlQuery::parse("select * from Ghost").unwrap();
        assert!(matches!(q.execute(&store()), Err(OoError::NoSuchClass(_))));
    }

    #[test]
    fn negative_number_literals() {
        let q = OqlQuery::parse("select name from Research where funding > -1").unwrap();
        assert_eq!(q.execute(&store()).unwrap().rows.len(), 2);
    }
}

#[cfg(test)]
mod order_limit_tests {
    use super::*;
    use crate::model::{ClassDef, OType};

    fn funded() -> ObjectStore {
        let mut s = ObjectStore::new("x");
        s.define_class(
            ClassDef::root("G")
                .attr("name", OType::Text)
                .attr("amount", OType::Double),
        )
        .unwrap();
        for (n, a) in [("a", 30.0), ("b", 10.0), ("c", 20.0)] {
            s.create(
                "G",
                [
                    ("name".to_string(), OValue::from(n)),
                    ("amount".to_string(), OValue::Double(a)),
                ],
            )
            .unwrap();
        }
        // One row with a NULL sort key.
        s.create("G", [("name".to_string(), OValue::from("d"))])
            .unwrap();
        s
    }

    #[test]
    fn order_by_asc_nulls_first() {
        let q = OqlQuery::parse("select name from G order by amount").unwrap();
        let names: Vec<String> = q
            .execute(&funded())
            .unwrap()
            .rows
            .into_iter()
            .map(|(_, v)| v[0].to_string())
            .collect();
        assert_eq!(names, vec!["d", "b", "c", "a"]);
    }

    #[test]
    fn order_by_desc_with_limit() {
        let q = OqlQuery::parse("select name from G order by amount desc limit 2").unwrap();
        let names: Vec<String> = q
            .execute(&funded())
            .unwrap()
            .rows
            .into_iter()
            .map(|(_, v)| v[0].to_string())
            .collect();
        assert_eq!(names, vec!["a", "c"]);
    }

    #[test]
    fn limit_without_order() {
        let q = OqlQuery::parse("select name from G limit 2").unwrap();
        assert_eq!(q.execute(&funded()).unwrap().rows.len(), 2);
    }

    #[test]
    fn order_by_parse_errors() {
        assert!(OqlQuery::parse("select * from G order amount").is_err());
        assert!(OqlQuery::parse("select * from G limit x").is_err());
    }

    /// Nesting up to the limit parses and one level more is refused.
    /// Without the limit, 20 000 nested parentheses or `NOT`s recurse
    /// once per level and overflow a 2 MiB thread stack, which aborts
    /// the process.
    #[test]
    fn deep_nesting_is_refused_on_a_small_stack() {
        let parens = |n: usize| {
            format!(
                "select * from G where {}amount = 1{}",
                "(".repeat(n),
                ")".repeat(n)
            )
        };
        let nots = |n: usize| format!("select * from G where {}amount = 1", "not ".repeat(n));
        // The whole predicate is the first level.
        for text in [parens(MAX_PRED_DEPTH - 1), nots(MAX_PRED_DEPTH - 1)] {
            assert!(OqlQuery::parse(&text).is_ok(), "{text}");
        }
        for text in [parens(MAX_PRED_DEPTH), nots(MAX_PRED_DEPTH)] {
            assert!(
                matches!(
                    OqlQuery::parse(&text),
                    Err(OoError::TooDeep { limit: 64, .. })
                ),
                "{text}"
            );
        }
        let deep = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || [parens(20_000), nots(20_000)].map(|text| OqlQuery::parse(&text)))
            .unwrap()
            .join()
            .expect("parser thread returns");
        for res in deep {
            assert!(matches!(res, Err(OoError::TooDeep { .. })), "{res:?}");
        }
    }

    /// A predicate no index can serve (a top-level `OR`) plans an
    /// extent scan over the whole closure.
    #[test]
    fn explain_renders_the_executed_plan() {
        let s = funded();
        let q = OqlQuery::parse(
            "select name from G where amount > 15 or name = 'zzz' order by amount desc limit 2",
        )
        .unwrap();
        let plan = q.plan(&s).unwrap();
        let text = plan.render().join("\n");
        assert!(text.contains("limit: 2"), "{text}");
        assert!(text.contains("sort: amount DESC"), "{text}");
        assert!(text.contains("project: name"), "{text}");
        assert!(
            text.contains("filter: (amount > 15 OR name = 'zzz')"),
            "{text}"
        );
        assert!(
            text.contains("extent scan G (4 objects, closure)"),
            "{text}"
        );
        assert_eq!(q.explain(&s).unwrap(), plan.render());

        let (_, m) = q.execute_with_metrics(&s).unwrap();
        assert_eq!(m.operators, plan.operator_names());
        assert_eq!(
            m.operators,
            vec!["extent scan", "filter", "project", "sort", "limit"]
        );
        assert_eq!(m.objects_scanned, 4);
        assert_eq!(m.objects_matched, 2);
        assert_eq!(m.rows_spilled, 2);
        assert_eq!(m.index_hits, 0);
    }

    /// A range on one attribute under a top-level `AND` reads that
    /// attribute's index: only the objects in the range are examined,
    /// and the filter keeps only the conjuncts the range does not answer.
    #[test]
    fn explain_renders_an_index_scan() {
        let s = funded();
        let q = OqlQuery::parse(
            "select name from G where amount > 15 and name like '%' order by amount desc limit 2",
        )
        .unwrap();
        let plan = q.plan(&s).unwrap();
        assert_eq!(
            plan.render(),
            vec![
                "limit: 2",
                "  sort: amount DESC",
                "    project: name",
                "      filter: name LIKE '%'",
                "        index scan G.amount (15, ∞) (closure)",
            ]
        );
        let (r, m) = q.execute_with_metrics(&s).unwrap();
        assert_eq!(m.operators, plan.operator_names());
        assert_eq!(
            m.operators,
            vec!["index scan", "filter", "project", "sort", "limit"]
        );
        let names: Vec<String> = r.rows.iter().map(|(_, v)| v[0].to_string()).collect();
        assert_eq!(names, vec!["a", "c"]);
        // a (30) and c (20) are the candidates; b and the NULL d are not.
        assert_eq!(m.index_hits, 2);
        assert_eq!(m.objects_scanned, 2);
        assert_eq!(m.objects_matched, 2);
        assert_eq!(m.rows_spilled, 2);

        // Comparisons on one attribute narrow one range, which answers
        // all three; only the second attribute's conjunct is filtered.
        let q = OqlQuery::parse(
            "select name from G where amount >= 10 and name <> 'b' and amount < 30 and amount > 5",
        )
        .unwrap();
        let plan = q.plan(&s).unwrap();
        assert_eq!(
            plan.render(),
            vec![
                "project: name",
                "  filter: name <> 'b'",
                "    index scan G.amount [10, 30) (closure)",
            ]
        );
        // The scan excludes its upper bound, so it returns b and c but
        // not a (30), and the filter drops b.
        let (r, m) = q.execute_with_metrics(&s).unwrap();
        assert_eq!((m.index_hits, m.objects_scanned, r.rows.len()), (2, 2, 1));

        // A range that answers every conjunct leaves no filter.
        let q = OqlQuery::parse("select name from G where amount > 10 and amount <= 30").unwrap();
        let plan = q.plan(&s).unwrap();
        assert_eq!(plan.operator_names(), vec!["index scan", "project"]);
        let (r, m) = q.execute_with_metrics(&s).unwrap();
        assert_eq!(m.operators, plan.operator_names());
        let names: Vec<String> = r.rows.iter().map(|(_, v)| v[0].to_string()).collect();
        assert_eq!(names, vec!["a", "c"]);
        assert_eq!(
            (m.index_hits, m.objects_scanned, m.objects_matched),
            (2, 2, 2)
        );

        // An equality beats a range, and an IN list beats a range too.
        let q = OqlQuery::parse("select name from G where amount > 5 and name = 'c'").unwrap();
        let text = q.plan(&s).unwrap().render().join("\n");
        assert!(
            text.contains("index scan G.name ['c', 'c'] (closure)"),
            "{text}"
        );
        let q =
            OqlQuery::parse("select name from G where amount > 5 and name in ('a', 'd')").unwrap();
        let text = q.plan(&s).unwrap().render().join("\n");
        assert!(
            text.contains("index scan G.name {'a', 'd'} (closure)"),
            "{text}"
        );
        let (r, m) = q.execute_with_metrics(&s).unwrap();
        assert_eq!((m.index_hits, m.objects_matched, r.rows.len()), (2, 1, 1));
    }

    #[test]
    fn limit_without_order_stops_the_scan() {
        let s = funded();
        let q = OqlQuery::parse("select name from G limit 2").unwrap();
        let (r, m) = q.execute_with_metrics(&s).unwrap();
        assert_eq!(r.rows.len(), 2);
        // Pushdown: only the two delivered objects were loaded.
        assert_eq!(m.objects_scanned, 2);
    }

    /// Run `select name from G where name like <pattern>` over one `G`
    /// named `name`, on a 2 MiB-stack thread, and wait at most ten
    /// seconds for the rows.
    fn like_rows_within_deadline(name: String, pattern: String) -> usize {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let mut s = ObjectStore::new("x");
                s.define_class(ClassDef::root("G").attr("name", OType::Text))
                    .unwrap();
                s.create("G", [("name".to_string(), OValue::from(name.as_str()))])
                    .unwrap();
                let q = OqlQuery::parse(&format!("select name from G where name like '{pattern}'"))
                    .unwrap();
                tx.send(q.execute(&s).map(|r| r.rows.len()))
                    .expect("the test awaits the answer");
            })
            .unwrap();
        let answer = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the query answers within its deadline");
        worker.join().expect("the query thread returns");
        answer.unwrap()
    }

    /// A recursive matcher takes one stack frame per pattern character,
    /// so 200 000 `%` overflow a 2 MiB stack and abort the process.
    #[test]
    fn a_long_run_of_percent_signs_matches_on_a_small_stack() {
        assert_eq!(
            like_rows_within_deadline("grant".into(), "%".repeat(200_000)),
            1
        );
    }

    /// A recursive matcher retries every split of the text at every
    /// `%`, which takes exponential time on this pattern.
    #[test]
    fn many_percent_signs_before_a_mismatch_finish_quickly() {
        assert_eq!(
            like_rows_within_deadline("a".repeat(60), "%a%a%a%a%a%a%a%a%a%ab".into()),
            0
        );
    }
}
