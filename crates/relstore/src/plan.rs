//! Logical → physical planning for SELECT statements.
//!
//! [`plan_select`] turns a parsed [`SelectStmt`] into a [`PhysicalPlan`]
//! operator tree using lightweight per-table statistics (live row
//! count, per-indexed-column distinct key count — see
//! [`Table::stats`]). The pipelined executor in [`crate::exec`] runs
//! the tree directly, and `EXPLAIN` renders the *same* tree via
//! [`PhysicalPlan::render`], so the description can never drift from
//! what actually executes.
//!
//! **Binding.** The executor's row is a *tuple*: one borrowed stored row
//! per FROM item, in FROM order (part 0 is the base table, part `i + 1`
//! the `i`-th join). The planner resolves every column reference
//! against the [`Layout`] exactly once, rewriting [`Expr::Column`] into
//! [`Expr::Slot`]`{ part, col }`, so no operator looks a name up per
//! row and unknown or ambiguous columns are planning errors. Above a
//! [`HashAggregateNode`] the tuple gains one more part — the group's
//! aggregate results — and each aggregate call in the select list,
//! `HAVING` and `ORDER BY` becomes a slot in it. A plan node keeps each
//! expression twice: as written, which only `EXPLAIN` reads (and only
//! then renders), and bound, which is what runs.
//!
//! **Sargs.** Each WHERE conjunct that compares an indexed base column
//! with a literal becomes a sarg candidate. Range conjuncts on the same
//! column intersect into one two-sided range before the best candidate
//! is chosen, comparing bounds by the B-tree's own [`Datum`] order (on
//! equal keys an excluded bound is the tighter), so `a >= 10 AND a < 20`
//! walks only the keys in between. The residual filter still evaluates
//! the whole WHERE clause.
//!
//! Costing is deliberately simple: an equality sarg on an indexed
//! column is estimated at `rows / distinct_keys`, a range sarg at
//! `rows / 4`, and joins multiply. Those estimates only steer two
//! decisions — which sarg serves the base access path, and whether an
//! inner equi-join probes the inner index per left row (`IxJoin`)
//! instead of building a hash table (`HashJoin`).

use crate::expr::{AggFunc, BinOp, Expr};
use crate::sql::ast::{JoinKind, OrderKey, SelectItem, SelectStmt};
use crate::storage::{IndexKind, Table};
use crate::types::{DataType, Datum, Row};
use crate::{RelError, RelResult};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::Bound;

/// The table layout of a joined row: which bindings cover which column
/// ranges of the concatenated row. The planner resolves names against
/// it once per statement; the naive reference executor, whose rows are
/// the concatenation itself, resolves against it per row.
#[derive(Debug, Clone)]
pub struct Layout {
    /// `(binding, column names, start offset)` per FROM item.
    pub(crate) parts: Vec<(String, Vec<String>, usize)>,
    pub(crate) width: usize,
}

impl Layout {
    pub(crate) fn new() -> Layout {
        Layout {
            parts: Vec::new(),
            width: 0,
        }
    }

    pub(crate) fn push(&mut self, binding: String, columns: Vec<String>) {
        let start = self.width;
        self.width += columns.len();
        self.parts.push((binding, columns, start));
    }

    /// Resolve `table.name` or bare `name` to an absolute offset.
    pub(crate) fn resolve(&self, table: Option<&str>, name: &str) -> RelResult<usize> {
        let lname = name.to_ascii_lowercase();
        match table {
            Some(t) => {
                let lt = t.to_ascii_lowercase();
                let (_, cols, start) = self
                    .parts
                    .iter()
                    .find(|(b, _, _)| *b == lt)
                    .ok_or_else(|| RelError::NoSuchTable(lt.clone()))?;
                cols.iter()
                    .position(|c| *c == lname)
                    .map(|i| start + i)
                    .ok_or(RelError::NoSuchColumn(format!("{lt}.{lname}")))
            }
            None => {
                let mut found = None;
                for (b, cols, start) in &self.parts {
                    if let Some(i) = cols.iter().position(|c| *c == lname) {
                        if found.is_some() {
                            return Err(RelError::AmbiguousColumn(format!(
                                "{lname} (in {b} and another table)"
                            )));
                        }
                        found = Some(start + i);
                    }
                }
                found.ok_or(RelError::NoSuchColumn(lname))
            }
        }
    }

    /// Split an absolute offset into `(part, column within the part)`.
    pub(crate) fn part_col(&self, offset: usize) -> (usize, usize) {
        let part = self
            .parts
            .iter()
            .rposition(|(_, _, start)| *start <= offset)
            .expect("offset inside the layout");
        (part, offset - self.parts[part].2)
    }

    /// One all-NULL row per part: what a column reads when there is no
    /// row to read it from.
    fn null_tuple(&self) -> Vec<Row> {
        self.parts
            .iter()
            .map(|(_, cols, _)| vec![Datum::Null; cols.len()])
            .collect()
    }
}

/// One aggregate call of a [`HashAggregateNode`], its argument bound to
/// the input tuple.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AggSpec {
    pub(crate) func: AggFunc,
    /// `None` for `COUNT(*)`.
    pub(crate) arg: Option<Expr>,
    pub(crate) distinct: bool,
}

/// Rewrite every column reference of `expr` into its [`Expr::Slot`].
///
/// With `aggs` absent the expression is row-level: an aggregate call is
/// left as written and fails when evaluated, as it does in the
/// reference executor. With `aggs` present the expression is
/// group-level: each distinct aggregate call is appended to `aggs` and
/// replaced by its slot in the tuple part after the layout's own.
fn bind(expr: &Expr, layout: &Layout, mut aggs: Option<&mut Vec<AggSpec>>) -> RelResult<Expr> {
    let mut sub = |e: &Expr| bind(e, layout, aggs.as_deref_mut()).map(Box::new);
    Ok(match expr {
        Expr::Literal(_) | Expr::Slot { .. } => expr.clone(),
        Expr::Column { table, name } => {
            let (part, col) = layout.part_col(layout.resolve(table.as_deref(), name)?);
            Expr::Slot { part, col }
        }
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: sub(expr)?,
        },
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: sub(left)?,
            right: sub(right)?,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: sub(expr)?,
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: sub(expr)?,
            list: list
                .iter()
                .map(|e| sub(e).map(|b| *b))
                .collect::<RelResult<_>>()?,
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: sub(expr)?,
            low: sub(low)?,
            high: sub(high)?,
            negated: *negated,
        },
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => {
            let Some(aggs) = aggs else {
                return Ok(expr.clone());
            };
            let arg = match arg.as_deref() {
                Some(a) if a.contains_aggregate() => {
                    return Err(RelError::AggregateMisuse("nested aggregate".into()))
                }
                Some(a) => Some(bind(a, layout, None)?),
                None => None,
            };
            let spec = AggSpec {
                func: *func,
                arg,
                distinct: *distinct,
            };
            let col = aggs.iter().position(|s| *s == spec).unwrap_or_else(|| {
                aggs.push(spec);
                aggs.len() - 1
            });
            Expr::Slot {
                part: layout.parts.len(),
                col,
            }
        }
    })
}

/// Where one ORDER BY key of a produced row comes from.
#[derive(Debug, Clone)]
pub(crate) enum SortSource {
    /// A bare name that is an output column: sort by that output cell.
    Output(usize),
    /// Any other expression, evaluated beside the select list.
    Expr(Expr),
}

/// Bind the ORDER BY keys of a projecting node whose output columns are
/// `columns`.
fn bind_order(
    order_by: &[OrderKey],
    columns: &[String],
    layout: &Layout,
    mut aggs: Option<&mut Vec<AggSpec>>,
) -> RelResult<Vec<SortSource>> {
    order_by
        .iter()
        .map(|k| {
            if let Expr::Column { table: None, name } = &k.expr {
                if let Some(i) = columns.iter().position(|c| c == name) {
                    return Ok(SortSource::Output(i));
                }
            }
            bind(&k.expr, layout, aggs.as_deref_mut()).map(SortSource::Expr)
        })
        .collect()
}

/// Look up a table in the catalog map (names are lowercase).
pub(crate) fn lookup<'a>(tables: &'a HashMap<String, Table>, name: &str) -> RelResult<&'a Table> {
    let lower = name.to_ascii_lowercase();
    tables.get(&lower).ok_or(RelError::NoSuchTable(lower))
}

/// Split a conjunction into its AND-ed parts.
pub(crate) fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            let mut v = conjuncts(left);
            v.extend(conjuncts(right));
            v
        }
        other => vec![other],
    }
}

/// Expand the select list into `(expression, output name)` pairs.
pub(crate) fn expand_items(
    items: &[SelectItem],
    layout: &Layout,
) -> RelResult<Vec<(Expr, String)>> {
    let mut out = Vec::new();
    for item in items {
        match item {
            SelectItem::Wildcard => {
                for (binding, cols, _) in &layout.parts {
                    for c in cols {
                        out.push((Expr::qcol(binding.clone(), c.clone()), c.clone()));
                    }
                }
            }
            SelectItem::QualifiedWildcard(t) => {
                let lt = t.to_ascii_lowercase();
                let part = layout
                    .parts
                    .iter()
                    .find(|(b, _, _)| *b == lt)
                    .ok_or(RelError::NoSuchTable(lt.clone()))?;
                for c in &part.1 {
                    out.push((Expr::qcol(lt.clone(), c.clone()), c.clone()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = match alias {
                    Some(a) => a.to_ascii_lowercase(),
                    None => match expr {
                        Expr::Column { name, .. } => name.clone(),
                        other => other.to_sql().to_ascii_lowercase(),
                    },
                };
                out.push((expr.clone(), name));
            }
        }
    }
    Ok(out)
}

/// If `on` is `left_col = right_col` with one side in the existing layout
/// and the other in the newly joined table, return their offsets
/// (`left_offset`, `right_column_index`).
pub(crate) fn equi_join_offsets(
    on: &Expr,
    layout: &Layout,
    right_binding: &str,
    right: &Table,
) -> Option<(usize, usize)> {
    let (a, b) = match on {
        Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } => (&**left, &**right),
        _ => return None,
    };
    let classify = |e: &Expr| -> Option<(Option<String>, String)> {
        match e {
            Expr::Column { table, name } => Some((table.clone(), name.clone())),
            _ => None,
        }
    };
    let (at, an) = classify(a)?;
    let (bt, bn) = classify(b)?;
    let right_col = |t: &Option<String>, n: &str| -> Option<usize> {
        match t {
            Some(t) if t == right_binding => right.schema.column_index(n),
            Some(_) => None,
            None => right.schema.column_index(n),
        }
    };
    let left_off =
        |t: &Option<String>, n: &str| -> Option<usize> { layout.resolve(t.as_deref(), n).ok() };
    // a on left, b on right?
    if let (Some(lo), Some(rc)) = (left_off(&at, &an), right_col(&bt, &bn)) {
        // ensure b genuinely refers to the right table when unqualified:
        // prefer the right side interpretation only if the left layout
        // cannot resolve it unambiguously as well.
        if bt.as_deref() == Some(right_binding) || left_off(&bt, &bn).is_none() {
            return Some((lo, rc));
        }
    }
    if let (Some(lo), Some(rc)) = (left_off(&bt, &bn), right_col(&at, &an)) {
        if at.as_deref() == Some(right_binding) || left_off(&at, &an).is_none() {
            return Some((lo, rc));
        }
    }
    None
}

/// A sargable predicate served directly by a B-tree index.
#[derive(Debug, Clone, PartialEq)]
pub enum Sarg {
    /// `column = literal` point lookup.
    Eq(Datum),
    /// A key range (`<`, `<=`, `>`, `>=`, `BETWEEN`).
    Range {
        /// Lower bound on the index key.
        lo: Bound<Datum>,
        /// Upper bound on the index key.
        hi: Bound<Datum>,
    },
}

/// Full-table scan node.
#[derive(Debug, Clone)]
pub struct SeqScanNode {
    pub(crate) table: String,
    pub(crate) rows: usize,
}

/// Index point-lookup / range-scan node.
#[derive(Debug, Clone)]
pub struct IxScanNode {
    pub(crate) table: String,
    pub(crate) column: String,
    pub(crate) col_idx: usize,
    pub(crate) sarg: Sarg,
    pub(crate) via: IndexKind,
    pub(crate) est_rows: usize,
}

/// Nested-loop join node (cross joins, non-equi inner joins, and all
/// left joins).
#[derive(Debug, Clone)]
pub struct NlJoinNode {
    pub(crate) input: Box<PhysicalPlan>,
    pub(crate) table: String,
    pub(crate) kind: JoinKind,
    /// The tuple part this join's table fills.
    pub(crate) part: usize,
    /// `ON`, bound over the tuple up to and including `part`.
    pub(crate) on: Option<Expr>,
    pub(crate) on_written: Option<Expr>,
    /// The all-NULL right row an unmatched left row of a `LEFT` join
    /// is paired with.
    pub(crate) null_pad: Row,
    pub(crate) right_rows: usize,
}

/// Hash equi-join node: build on the inner (right) table, probe with
/// each left row.
#[derive(Debug, Clone)]
pub struct HashJoinNode {
    pub(crate) input: Box<PhysicalPlan>,
    pub(crate) table: String,
    pub(crate) on_sql: String,
    /// The tuple part this join's table fills.
    pub(crate) part: usize,
    /// `(part, col)` of the left join key in the input tuple.
    pub(crate) left: (usize, usize),
    pub(crate) right_col: usize,
    pub(crate) build_rows: usize,
}

/// Index equi-join node: probe the inner table's index per left row
/// instead of building a hash table. Chosen when the inner join key is
/// indexed and the estimated outer cardinality is no larger than the
/// inner table.
#[derive(Debug, Clone)]
pub struct IxJoinNode {
    pub(crate) input: Box<PhysicalPlan>,
    pub(crate) table: String,
    pub(crate) on_sql: String,
    /// The tuple part this join's table fills.
    pub(crate) part: usize,
    /// `(part, col)` of the left join key in the input tuple.
    pub(crate) left: (usize, usize),
    pub(crate) right_col: usize,
    pub(crate) via: IndexKind,
}

/// Residual predicate filter node. The planner always keeps the full
/// WHERE clause here even when a sarg was pushed into an index scan, so
/// three-valued logic, coercions, and evaluation errors behave exactly
/// as in the reference executor.
#[derive(Debug, Clone)]
pub struct FilterNode {
    pub(crate) input: Box<PhysicalPlan>,
    pub(crate) pred: Expr,
    pub(crate) pred_written: Expr,
}

/// Hash-grouping aggregate node; also evaluates HAVING and the final
/// projection for aggregate queries. `group_by` and the `aggs`
/// arguments are bound over the input tuple; `having`, `select` and
/// `order_by` over the group tuple — a group's first input tuple plus
/// one part holding its aggregate results, in `aggs` order.
#[derive(Debug, Clone)]
pub struct HashAggregateNode {
    pub(crate) input: Box<PhysicalPlan>,
    pub(crate) group_by: Vec<Expr>,
    pub(crate) group_by_written: Vec<Expr>,
    pub(crate) aggs: Vec<AggSpec>,
    pub(crate) having: Option<Expr>,
    pub(crate) having_written: Option<Expr>,
    pub(crate) select: Vec<Expr>,
    pub(crate) columns: Vec<String>,
    pub(crate) order_by: Vec<SortSource>,
    /// The tuple an ungrouped aggregate over no rows reads columns
    /// from; its length is the input tuple's.
    pub(crate) null_tuple: Vec<Row>,
}

/// Streaming projection node for non-aggregate queries; also computes
/// hidden ORDER BY keys per row.
#[derive(Debug, Clone)]
pub struct ProjectNode {
    pub(crate) input: Box<PhysicalPlan>,
    pub(crate) select: Vec<Expr>,
    pub(crate) columns: Vec<String>,
    pub(crate) order_by: Vec<SortSource>,
    /// Parts in the input tuple (FROM items).
    pub(crate) parts: usize,
}

/// Duplicate-elimination node (`SELECT DISTINCT`).
#[derive(Debug, Clone)]
pub struct DistinctNode {
    pub(crate) input: Box<PhysicalPlan>,
}

/// Materializing sort node (`ORDER BY`). The keys themselves are
/// computed by the projecting node below and travel with each row.
#[derive(Debug, Clone)]
pub struct SortNode {
    pub(crate) input: Box<PhysicalPlan>,
    /// The keys as written; the executor reads only their direction.
    pub(crate) keys: Vec<OrderKey>,
}

/// Row-limit node; the executor stops pulling from its input once the
/// limit is reached.
#[derive(Debug, Clone)]
pub struct LimitNode {
    pub(crate) input: Box<PhysicalPlan>,
    pub(crate) n: u64,
}

/// A physical operator tree. Produced by [`plan_select`], executed by
/// [`crate::exec::execute_plan`], and rendered for `EXPLAIN` by
/// [`PhysicalPlan::render`] — one structure, no separate description
/// path.
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    /// Full-table scan.
    SeqScan(SeqScanNode),
    /// Index point lookup or range scan.
    IxScan(IxScanNode),
    /// Nested-loop join.
    NlJoin(Box<NlJoinNode>),
    /// Hash equi-join.
    HashJoin(Box<HashJoinNode>),
    /// Index-probing equi-join.
    IxJoin(Box<IxJoinNode>),
    /// Residual predicate filter.
    Filter(Box<FilterNode>),
    /// Hash grouping + aggregation + HAVING + projection.
    HashAggregate(Box<HashAggregateNode>),
    /// Streaming projection.
    Project(Box<ProjectNode>),
    /// Duplicate elimination.
    Distinct(Box<DistinctNode>),
    /// Materializing sort.
    Sort(Box<SortNode>),
    /// Row limit with pull-stop.
    Limit(Box<LimitNode>),
}

impl PhysicalPlan {
    /// Stable operator name, also recorded in
    /// [`crate::exec::ExecMetrics::operators`] when the operator runs.
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalPlan::SeqScan(_) => "seq scan",
            PhysicalPlan::IxScan(_) => "index scan",
            PhysicalPlan::NlJoin(_) => "nested-loop join",
            PhysicalPlan::HashJoin(_) => "hash join",
            PhysicalPlan::IxJoin(_) => "index join",
            PhysicalPlan::Filter(_) => "filter",
            PhysicalPlan::HashAggregate(_) => "hash aggregate",
            PhysicalPlan::Project(_) => "project",
            PhysicalPlan::Distinct(_) => "distinct",
            PhysicalPlan::Sort(_) => "sort",
            PhysicalPlan::Limit(_) => "limit",
        }
    }

    /// The node's input, if it has one (scans are leaves).
    pub fn input(&self) -> Option<&PhysicalPlan> {
        match self {
            PhysicalPlan::SeqScan(_) | PhysicalPlan::IxScan(_) => None,
            PhysicalPlan::NlJoin(n) => Some(&n.input),
            PhysicalPlan::HashJoin(n) => Some(&n.input),
            PhysicalPlan::IxJoin(n) => Some(&n.input),
            PhysicalPlan::Filter(n) => Some(&n.input),
            PhysicalPlan::HashAggregate(n) => Some(&n.input),
            PhysicalPlan::Project(n) => Some(&n.input),
            PhysicalPlan::Distinct(n) => Some(&n.input),
            PhysicalPlan::Sort(n) => Some(&n.input),
            PhysicalPlan::Limit(n) => Some(&n.input),
        }
    }

    /// Operator names bottom-up (leaf first), matching the order the
    /// executor records them in `ExecMetrics::operators`.
    pub fn operator_names(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        fn walk(p: &PhysicalPlan, out: &mut Vec<&'static str>) {
            if let Some(i) = p.input() {
                walk(i, out);
            }
            out.push(p.name());
        }
        walk(self, &mut out);
        out
    }

    /// Output column names of the plan (from its projection node).
    pub fn output_columns(&self) -> &[String] {
        match self {
            PhysicalPlan::Project(n) => &n.columns,
            PhysicalPlan::HashAggregate(n) => &n.columns,
            other => other.input().map(|i| i.output_columns()).unwrap_or(&[]),
        }
    }

    /// Render the plan as indented `EXPLAIN` lines, root operator
    /// first.
    pub fn render(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut Vec<String>) {
        let pad = "  ".repeat(depth);
        match self {
            PhysicalPlan::SeqScan(n) => {
                out.push(format!("{pad}seq scan {} ({} rows)", n.table, n.rows));
            }
            PhysicalPlan::IxScan(n) => match &n.sarg {
                Sarg::Eq(v) => out.push(format!(
                    "{pad}index lookup {}.{} = {} via {} (~{} rows)",
                    n.table, n.column, v, n.via, n.est_rows
                )),
                Sarg::Range { lo, hi } => {
                    let mut cond = String::new();
                    match lo {
                        Bound::Included(v) => {
                            let _ = write!(cond, "{} >= {}", n.column, v);
                        }
                        Bound::Excluded(v) => {
                            let _ = write!(cond, "{} > {}", n.column, v);
                        }
                        Bound::Unbounded => {}
                    }
                    match hi {
                        Bound::Included(v) => {
                            if !cond.is_empty() {
                                cond.push_str(" AND ");
                            }
                            let _ = write!(cond, "{} <= {}", n.column, v);
                        }
                        Bound::Excluded(v) => {
                            if !cond.is_empty() {
                                cond.push_str(" AND ");
                            }
                            let _ = write!(cond, "{} < {}", n.column, v);
                        }
                        Bound::Unbounded => {}
                    }
                    out.push(format!(
                        "{pad}index range scan {}.{} via {} (~{} rows)",
                        n.table, cond, n.via, n.est_rows
                    ));
                }
            },
            PhysicalPlan::NlJoin(n) => {
                match (n.kind, n.on_written.as_ref().map(Expr::to_sql)) {
                    (JoinKind::Cross, _) => out.push(format!(
                        "{pad}cross join {} ({} rows)",
                        n.table, n.right_rows
                    )),
                    (JoinKind::Inner, Some(on)) => {
                        out.push(format!("{pad}nested-loop inner join {} on {on}", n.table))
                    }
                    (JoinKind::Left, Some(on)) => {
                        out.push(format!("{pad}nested-loop left join {} on {on}", n.table))
                    }
                    (kind, None) => out.push(format!("{pad}nested-loop {kind:?} join {}", n.table)),
                }
                n.input.render_into(depth + 1, out);
            }
            PhysicalPlan::HashJoin(n) => {
                out.push(format!(
                    "{pad}hash join {} on {} (build {} rows)",
                    n.table, n.on_sql, n.build_rows
                ));
                n.input.render_into(depth + 1, out);
            }
            PhysicalPlan::IxJoin(n) => {
                out.push(format!(
                    "{pad}index join {} on {} via {}",
                    n.table, n.on_sql, n.via
                ));
                n.input.render_into(depth + 1, out);
            }
            PhysicalPlan::Filter(n) => {
                out.push(format!("{pad}filter: {}", n.pred_written.to_sql()));
                n.input.render_into(depth + 1, out);
            }
            PhysicalPlan::HashAggregate(n) => {
                if n.group_by.is_empty() {
                    out.push(format!("{pad}aggregate over all rows"));
                } else {
                    let keys: Vec<String> = n.group_by_written.iter().map(Expr::to_sql).collect();
                    out.push(format!("{pad}hash group by: {}", keys.join(", ")));
                }
                if let Some(h) = &n.having_written {
                    out.push(format!("{pad}having: {}", h.to_sql()));
                }
                out.push(format!("{pad}project: {}", n.columns.join(", ")));
                n.input.render_into(depth + 1, out);
            }
            PhysicalPlan::Project(n) => {
                out.push(format!("{pad}project: {}", n.columns.join(", ")));
                n.input.render_into(depth + 1, out);
            }
            PhysicalPlan::Distinct(n) => {
                out.push(format!("{pad}distinct"));
                n.input.render_into(depth + 1, out);
            }
            PhysicalPlan::Sort(n) => {
                let keys: Vec<String> = n
                    .keys
                    .iter()
                    .map(|k| format!("{}{}", k.expr.to_sql(), if k.desc { " DESC" } else { "" }))
                    .collect();
                out.push(format!("{pad}sort: {}", keys.join(", ")));
                n.input.render_into(depth + 1, out);
            }
            PhysicalPlan::Limit(n) => {
                out.push(format!("{pad}limit: {}", n.n));
                n.input.render_into(depth + 1, out);
            }
        }
    }
}

/// One sarg candidate extracted from a WHERE conjunct.
struct SargCandidate {
    col_idx: usize,
    column: String,
    sarg: Sarg,
    via: IndexKind,
    distinct: usize,
}

/// Extract an index-servable predicate from one conjunct, resolved
/// against the base table (offsets below `base_arity` in `layout`).
/// Conjuncts that reference other bindings, fail to resolve, or compare
/// non-literals are simply not sargable — the residual filter still
/// evaluates them.
fn sarg_of(
    conjunct: &Expr,
    layout: &Layout,
    base: &Table,
    base_arity: usize,
) -> Option<SargCandidate> {
    let (table, name, sarg) = match conjunct {
        Expr::Binary { op, left, right } => {
            let (col, lit, flipped) = match (&**left, &**right) {
                (Expr::Column { table, name }, Expr::Literal(d)) => ((table, name), d, false),
                (Expr::Literal(d), Expr::Column { table, name }) => ((table, name), d, true),
                _ => return None,
            };
            let sarg = match op {
                BinOp::Eq => Sarg::Eq(lit.clone()),
                // Range ops never match NULL; skip null literals.
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge if !lit.is_null() => {
                    // Normalize `lit < col` to `col > lit`, etc.
                    let op = if flipped {
                        match op {
                            BinOp::Lt => BinOp::Gt,
                            BinOp::Le => BinOp::Ge,
                            BinOp::Gt => BinOp::Lt,
                            BinOp::Ge => BinOp::Le,
                            _ => unreachable!(),
                        }
                    } else {
                        *op
                    };
                    match op {
                        BinOp::Lt => Sarg::Range {
                            lo: Bound::Unbounded,
                            hi: Bound::Excluded(lit.clone()),
                        },
                        BinOp::Le => Sarg::Range {
                            lo: Bound::Unbounded,
                            hi: Bound::Included(lit.clone()),
                        },
                        BinOp::Gt => Sarg::Range {
                            lo: Bound::Excluded(lit.clone()),
                            hi: Bound::Unbounded,
                        },
                        BinOp::Ge => Sarg::Range {
                            lo: Bound::Included(lit.clone()),
                            hi: Bound::Unbounded,
                        },
                        _ => unreachable!(),
                    }
                }
                _ => return None,
            };
            (col.0, col.1, sarg)
        }
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => match (&**expr, &**low, &**high) {
            (Expr::Column { table, name }, Expr::Literal(lo), Expr::Literal(hi))
                if !lo.is_null() && !hi.is_null() =>
            {
                (
                    table,
                    name,
                    Sarg::Range {
                        lo: Bound::Included(lo.clone()),
                        hi: Bound::Included(hi.clone()),
                    },
                )
            }
            _ => return None,
        },
        _ => return None,
    };
    let off = layout.resolve(table.as_deref(), name).ok()?;
    if off >= base_arity {
        return None; // not a base-table column
    }
    let via = base.index_kind(off)?;
    // The B-tree compares with the total sort order, which coincides
    // with SQL comparison only within the column's own type family.
    // Equality sargs are safe for any literal (a key either compares
    // group-equal or is absent); range sargs additionally require a
    // literal the column's type can represent, which the residual
    // filter would otherwise handle via numeric coercion. Keep ranges
    // to literals matching the stored type family.
    if let Sarg::Range { lo, hi } = &sarg {
        let col_type = base.schema.columns[off].data_type;
        for b in [lo, hi] {
            if let Bound::Included(v) | Bound::Excluded(v) = b {
                v.coerce(col_type)?;
            }
        }
    }
    Some(SargCandidate {
        col_idx: off,
        column: base.schema.columns[off].name.clone(),
        sarg,
        via,
        distinct: base
            .index_distinct(off)
            .unwrap_or_else(|| base.len().max(1)),
    })
}

/// Merge the range candidates on one column into a single two-sided
/// range: `seq >= 7000 AND seq < 8500` walks 1 500 keys, not the 8 500
/// below the upper bound alone. The merged candidate takes the place of
/// its column's last range conjunct, so ties between columns break as
/// they did before merging. Equality candidates pass through unchanged.
fn intersect_ranges(candidates: impl Iterator<Item = SargCandidate>) -> Vec<SargCandidate> {
    let mut out: Vec<SargCandidate> = Vec::new();
    for mut cand in candidates {
        let earlier = out.iter().position(|c| {
            c.col_idx == cand.col_idx
                && matches!(
                    (&c.sarg, &cand.sarg),
                    (Sarg::Range { .. }, Sarg::Range { .. })
                )
        });
        if let Some(i) = earlier {
            let (Sarg::Range { lo, hi }, Sarg::Range { lo: lo2, hi: hi2 }) =
                (out.remove(i).sarg, cand.sarg)
            else {
                unreachable!("only ranges merge")
            };
            cand.sarg = Sarg::Range {
                lo: tighter(lo, lo2, Ordering::Greater),
                hi: tighter(hi, hi2, Ordering::Less),
            };
        }
        out.push(cand);
    }
    out
}

/// The tighter of two bounds on one side of a range: the one whose key
/// compares `inward` (`Greater` for a lower bound, `Less` for an upper
/// one) by the B-tree's own order, and `Excluded` on equal keys. An
/// inverted result stays inverted; `Table::index_range` returns nothing
/// for it.
fn tighter(a: Bound<Datum>, b: Bound<Datum>, inward: Ordering) -> Bound<Datum> {
    match (&a, &b) {
        (Bound::Unbounded, _) => b,
        (_, Bound::Unbounded) => a,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            match x.cmp(y) {
                Ordering::Equal if matches!(b, Bound::Excluded(_)) => b,
                Ordering::Equal => a,
                ord if ord == inward => a,
                _ => b,
            }
        }
    }
}

/// The facts of a detected single-table primary-key point lookup,
/// borrowed from the statement and catalog. Produced by
/// [`detect_pk_point`]; consumed by [`plan_pk_point`] (to build the
/// canonical plan tree) and by the executor's direct AST path in
/// [`crate::exec::execute_select_into`] (to skip plan
/// construction entirely).
pub(crate) struct PkPoint<'a> {
    /// The resolved base table.
    pub(crate) base: &'a Table,
    /// Offset of the primary-key column in the table schema.
    pub(crate) col_idx: usize,
    /// The literal the key column is compared against.
    pub(crate) key: &'a Datum,
    /// The full WHERE expression (still evaluated per fetched row).
    pub(crate) filter: &'a Expr,
}

/// Compare a stored (already lowercase) identifier against a query
/// identifier, mirroring [`Layout::resolve`]'s
/// `stored == query.to_ascii_lowercase()` without allocating.
pub(crate) fn eq_lowered(stored: &str, query: &str) -> bool {
    stored.len() == query.len()
        && stored
            .bytes()
            .zip(query.bytes())
            .all(|(s, q)| s == q.to_ascii_lowercase())
}

/// Recognize `SELECT <no aggregates> FROM one_table WHERE pk = literal`
/// with no joins, grouping, ordering, DISTINCT, or LIMIT. The
/// preconditions here are exactly the ones under which [`plan_select`]
/// commits to the point-lookup tree, so both the planner shortcut and
/// the executor's AST path key off one detector and cannot drift.
pub(crate) fn detect_pk_point<'a>(
    stmt: &'a SelectStmt,
    tables: &'a HashMap<String, Table>,
) -> Option<PkPoint<'a>> {
    if !stmt.joins.is_empty()
        || !stmt.group_by.is_empty()
        || stmt.having.is_some()
        || stmt.distinct
        || !stmt.order_by.is_empty()
        || stmt.limit.is_some()
    {
        return None;
    }
    let filter = stmt.filter.as_ref()?;
    // Exactly one conjunct of the shape `col = literal` (either order).
    let (col, lit) = match filter {
        Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } => match (&**left, &**right) {
            (Expr::Column { table, name }, Expr::Literal(d))
            | (Expr::Literal(d), Expr::Column { table, name }) => ((table, name), d),
            _ => return None,
        },
        _ => return None,
    };
    // Aggregates reshape the tree (HashAggregate root); leave them to
    // the general path.
    let has_aggregate = stmt.items.iter().any(|item| match item {
        SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
        _ => false,
    });
    if has_aggregate {
        return None;
    }
    let base = lookup(tables, &stmt.from.name).ok()?;
    // A qualifier must name the FROM binding (same check resolving
    // through a one-table Layout would perform).
    if let Some(t) = col.0.as_deref() {
        if !t.eq_ignore_ascii_case(stmt.from.binding()) {
            return None;
        }
    }
    let col_idx = base
        .schema
        .columns
        .iter()
        .position(|c| eq_lowered(&c.name, col.1))?;
    if base.schema.single_primary_key() != Some(col_idx) {
        return None;
    }
    Some(PkPoint {
        base,
        col_idx,
        key: lit,
        filter,
    })
}

/// Recognize the canonical point lookup — `SELECT ... FROM t WHERE
/// pk = literal`, single table, nothing else in play — and build its
/// plan directly, skipping the costing pass entirely.
///
/// A primary-key equality can only ever plan one way (index lookup,
/// residual filter, projection), so running the full sarg sweep and
/// statistics pass for it is pure overhead; at one-row result sizes
/// that overhead is most of what a point read costs in the planner.
/// The tree built here is node-for-node identical to what the general
/// path would produce (same operators, same `est_rows`, same EXPLAIN
/// rendering) — only the work to decide it is skipped.
fn plan_pk_point(stmt: &SelectStmt, tables: &HashMap<String, Table>) -> Option<PhysicalPlan> {
    let pk = detect_pk_point(stmt, tables)?;
    let (base, col_idx, lit, filter) = (pk.base, pk.col_idx, pk.key, pk.filter);
    let mut layout = Layout::new();
    layout.push(
        stmt.from.binding().to_ascii_lowercase(),
        base.schema.column_names(),
    );
    let (select, columns) = bind_items(&stmt.items, &layout, None).ok()?;
    let pred = bind(filter, &layout, None).ok()?;
    let scan = PhysicalPlan::IxScan(IxScanNode {
        table: stmt.from.name.to_ascii_lowercase(),
        column: base.schema.columns[col_idx].name.clone(),
        col_idx,
        sarg: Sarg::Eq(lit.clone()),
        via: IndexKind::PrimaryKey,
        est_rows: 1,
    });
    let filtered = PhysicalPlan::Filter(Box::new(FilterNode {
        input: Box::new(scan),
        pred,
        pred_written: filter.clone(),
    }));
    Some(PhysicalPlan::Project(Box::new(ProjectNode {
        input: Box::new(filtered),
        select,
        columns,
        order_by: Vec::new(),
        parts: 1,
    })))
}

/// Expand the select list and bind it: `(bound expressions, output
/// column names)`.
fn bind_items(
    items: &[SelectItem],
    layout: &Layout,
    mut aggs: Option<&mut Vec<AggSpec>>,
) -> RelResult<(Vec<Expr>, Vec<String>)> {
    let mut select = Vec::new();
    let mut columns = Vec::new();
    for (e, name) in expand_items(items, layout)? {
        select.push(bind(&e, layout, aggs.as_deref_mut())?);
        columns.push(name);
    }
    Ok((select, columns))
}

/// Build the physical plan for `stmt` against the current catalog.
///
/// Planning never executes row-level work, so `EXPLAIN` is free; it
/// does resolve tables and bind every column reference (an unknown or
/// ambiguous name fails here, before any row is read) and reads table
/// statistics for its access-path and join decisions.
/// Single-table primary-key point lookups short-circuit past the cost
/// pass (see [`plan_pk_point`]).
pub fn plan_select(stmt: &SelectStmt, tables: &HashMap<String, Table>) -> RelResult<PhysicalPlan> {
    if let Some(plan) = plan_pk_point(stmt, tables) {
        return Ok(plan);
    }
    let base = lookup(tables, &stmt.from.name)?;
    let base_name = stmt.from.name.to_ascii_lowercase();
    let base_arity = base.schema.arity();

    // Build the full layout up front (join table lookups error here,
    // preserving the reference executor's error precedence), keeping a
    // prefix snapshot per join for ON resolution.
    let mut layout = Layout::new();
    layout.push(
        stmt.from.binding().to_ascii_lowercase(),
        base.schema.column_names(),
    );
    let mut prefixes: Vec<Layout> = Vec::with_capacity(stmt.joins.len());
    let mut join_tables: Vec<&Table> = Vec::with_capacity(stmt.joins.len());
    for join in &stmt.joins {
        let right = lookup(tables, &join.table.name)?;
        prefixes.push(layout.clone());
        join_tables.push(right);
        layout.push(
            join.table.binding().to_ascii_lowercase(),
            right.schema.column_names(),
        );
    }

    if let Some(filter) = &stmt.filter {
        if filter.contains_aggregate() {
            return Err(RelError::AggregateMisuse(
                "aggregate in WHERE; use HAVING".into(),
            ));
        }
    }

    // ---- Base access path: best sarg over the base table's indexes.
    let stats = base.stats();
    let mut plan;
    let mut est_rows: f64;
    let best = stmt.filter.as_ref().and_then(|filter| {
        let candidates = conjuncts(filter)
            .into_iter()
            .filter_map(|c| sarg_of(c, &layout, base, base_arity));
        intersect_ranges(candidates)
            .into_iter()
            // Prefer equality over range, then the most selective
            // (highest distinct count) index.
            .max_by_key(|c| (matches!(c.sarg, Sarg::Eq(_)), c.distinct))
    });
    match best {
        Some(cand) => {
            let est = match cand.sarg {
                Sarg::Eq(_) => (stats.rows / cand.distinct.max(1)).max(1),
                Sarg::Range { .. } => (stats.rows / 4).max(1),
            };
            est_rows = est as f64;
            plan = PhysicalPlan::IxScan(IxScanNode {
                table: base_name,
                column: cand.column,
                col_idx: cand.col_idx,
                sarg: cand.sarg,
                via: cand.via,
                est_rows: est,
            });
        }
        None => {
            est_rows = stats.rows as f64;
            plan = PhysicalPlan::SeqScan(SeqScanNode {
                table: base_name,
                rows: stats.rows,
            });
        }
    }

    // ---- Joins.
    for (i, join) in stmt.joins.iter().enumerate() {
        let right = join_tables[i];
        let right_binding = join.table.binding().to_ascii_lowercase();
        let right_name = join.table.name.to_ascii_lowercase();
        let part = i + 1;

        let equi = match (&join.kind, &join.on) {
            (JoinKind::Inner, Some(on)) => {
                equi_join_offsets(on, &prefixes[i], &right_binding, right)
            }
            _ => None,
        };
        match (join.kind, equi) {
            (JoinKind::Inner, Some((left_off, right_col))) => {
                let on_sql = join.on.as_ref().expect("inner join has ON").to_sql();
                let left = prefixes[i].part_col(left_off);
                let via = right.index_kind(right_col);
                let left_table = if left.0 == 0 {
                    base
                } else {
                    join_tables[left.0 - 1]
                };
                let compatible = types_joinable(
                    left_table.schema.columns[left.1].data_type,
                    right.schema.columns[right_col].data_type,
                );
                let distinct = right.index_distinct(right_col).unwrap_or(1).max(1);
                if let (Some(via), true) = (via, compatible && est_rows <= right.len() as f64) {
                    plan = PhysicalPlan::IxJoin(Box::new(IxJoinNode {
                        input: Box::new(plan),
                        table: right_name,
                        on_sql,
                        part,
                        left,
                        right_col,
                        via,
                    }));
                } else {
                    plan = PhysicalPlan::HashJoin(Box::new(HashJoinNode {
                        input: Box::new(plan),
                        table: right_name,
                        on_sql,
                        part,
                        left,
                        right_col,
                        build_rows: right.len(),
                    }));
                }
                est_rows *= (right.len() as f64 / distinct as f64).max(1.0);
            }
            (kind, _) => {
                if kind == JoinKind::Cross || kind == JoinKind::Inner {
                    est_rows *= right.len().max(1) as f64;
                }
                // `ON` sees the tuple up to and including this table.
                let mut after = prefixes[i].clone();
                after.push(right_binding, right.schema.column_names());
                plan = PhysicalPlan::NlJoin(Box::new(NlJoinNode {
                    input: Box::new(plan),
                    table: right_name,
                    kind,
                    part,
                    on: join
                        .on
                        .as_ref()
                        .map(|on| bind(on, &after, None))
                        .transpose()?,
                    on_written: join.on.clone(),
                    null_pad: vec![Datum::Null; right.schema.arity()],
                    right_rows: right.len(),
                }));
            }
        }
    }

    // ---- Residual WHERE filter (always the full predicate).
    if let Some(filter) = &stmt.filter {
        plan = PhysicalPlan::Filter(Box::new(FilterNode {
            input: Box::new(plan),
            pred: bind(filter, &layout, None)?,
            pred_written: filter.clone(),
        }));
    }

    // ---- Projection / aggregation.
    let has_aggregates = stmt
        .items
        .iter()
        .any(|item| matches!(item, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
        || stmt.having.as_ref().is_some_and(Expr::contains_aggregate)
        || stmt.order_by.iter().any(|k| k.expr.contains_aggregate());
    if has_aggregates || !stmt.group_by.is_empty() {
        let mut aggs = Vec::new();
        let (select, columns) = bind_items(&stmt.items, &layout, Some(&mut aggs))?;
        let having = stmt
            .having
            .as_ref()
            .map(|h| bind(h, &layout, Some(&mut aggs)))
            .transpose()?;
        let order_by = bind_order(&stmt.order_by, &columns, &layout, Some(&mut aggs))?;
        plan = PhysicalPlan::HashAggregate(Box::new(HashAggregateNode {
            input: Box::new(plan),
            group_by: stmt
                .group_by
                .iter()
                .map(|g| bind(g, &layout, None))
                .collect::<RelResult<_>>()?,
            group_by_written: stmt.group_by.clone(),
            aggs,
            having,
            having_written: stmt.having.clone(),
            select,
            columns,
            order_by,
            null_tuple: layout.null_tuple(),
        }));
    } else {
        let (select, columns) = bind_items(&stmt.items, &layout, None)?;
        let order_by = bind_order(&stmt.order_by, &columns, &layout, None)?;
        plan = PhysicalPlan::Project(Box::new(ProjectNode {
            input: Box::new(plan),
            select,
            columns,
            order_by,
            parts: layout.parts.len(),
        }));
    }

    if stmt.distinct {
        plan = PhysicalPlan::Distinct(Box::new(DistinctNode {
            input: Box::new(plan),
        }));
    }
    if !stmt.order_by.is_empty() {
        plan = PhysicalPlan::Sort(Box::new(SortNode {
            input: Box::new(plan),
            keys: stmt.order_by.clone(),
        }));
    }
    if let Some(n) = stmt.limit {
        plan = PhysicalPlan::Limit(Box::new(LimitNode {
            input: Box::new(plan),
            n,
        }));
    }
    Ok(plan)
}

/// True when the left join key's declared type and the right key's type
/// compare identically under both the B-tree order and hash-equality —
/// i.e. the index probe is allowed to replace the hash join.
fn types_joinable(lt: DataType, rt: DataType) -> bool {
    let numeric = |t: DataType| matches!(t, DataType::Int | DataType::Double);
    lt == rt || (numeric(lt) && numeric(rt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};
    use crate::sql::ast::Statement;
    use crate::sql::parse_statement;
    use crate::types::DataType;

    fn catalog() -> HashMap<String, Table> {
        let mut dept = Table::new(TableSchema::new(
            "dept",
            vec![
                Column::new("dept_id", DataType::Int).primary_key(),
                Column::new("name", DataType::Text),
            ],
        ));
        for (id, name) in [(1, "cardiology"), (2, "oncology")] {
            dept.insert(vec![Datum::Int(id), Datum::Text(name.into())])
                .unwrap();
        }
        let mut emp = Table::new(TableSchema::new(
            "emp",
            vec![
                Column::new("emp_id", DataType::Int).primary_key(),
                Column::new("dept_id", DataType::Int),
                Column::new("salary", DataType::Double),
            ],
        ));
        for (id, d, s) in [(1, 1, 10.0), (2, 1, 20.0), (3, 2, 30.0), (4, 2, 40.0)] {
            emp.insert(vec![Datum::Int(id), Datum::Int(d), Datum::Double(s)])
                .unwrap();
        }
        emp.create_index("emp_dept", 1).unwrap();
        let mut m = HashMap::new();
        m.insert("dept".into(), dept);
        m.insert("emp".into(), emp);
        m
    }

    fn plan(sql: &str) -> PhysicalPlan {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => plan_select(&s, &catalog()).unwrap(),
            other => panic!("not a select: {other:?}"),
        }
    }

    #[test]
    fn equality_sarg_beats_scan_even_with_joins() {
        // The old executor refused to use indexes under joins.
        let p = plan(
            "SELECT e.salary FROM emp e JOIN dept d ON e.dept_id = d.dept_id \
             WHERE e.emp_id = 3",
        );
        let names = p.operator_names();
        assert!(names.contains(&"index scan"), "{names:?}");
        assert!(!names.contains(&"seq scan"), "{names:?}");
    }

    #[test]
    fn range_predicates_become_index_range_scans() {
        let p = plan("SELECT salary FROM emp WHERE emp_id BETWEEN 2 AND 3");
        assert!(p.operator_names().contains(&"index scan"));
        let text = p.render().join("\n");
        assert!(
            text.contains("index range scan emp.emp_id >= 2 AND emp_id <= 3"),
            "{text}"
        );

        let p = plan("SELECT salary FROM emp WHERE 2 < emp_id");
        let text = p.render().join("\n");
        assert!(text.contains("index range scan emp.emp_id > 2"), "{text}");
    }

    #[test]
    fn unindexed_or_non_literal_predicates_scan() {
        let p = plan("SELECT emp_id FROM emp WHERE salary > 15");
        assert!(p.operator_names().contains(&"seq scan"));
        let p = plan("SELECT emp_id FROM emp WHERE emp_id = dept_id");
        assert!(p.operator_names().contains(&"seq scan"));
    }

    #[test]
    fn equality_preferred_over_range() {
        let p = plan("SELECT salary FROM emp WHERE emp_id > 1 AND dept_id = 2");
        let text = p.render().join("\n");
        // dept_id = 2 (equality, secondary) wins over emp_id > 1 (range, pk).
        assert!(
            text.contains("index lookup emp.dept_id = 2 via secondary index"),
            "{text}"
        );
    }

    #[test]
    fn index_join_when_inner_key_indexed_and_outer_small() {
        let p = plan("SELECT d.name, e.salary FROM dept d JOIN emp e ON d.dept_id = e.dept_id");
        let names = p.operator_names();
        assert!(names.contains(&"index join"), "{names:?}");
        let text = p.render().join("\n");
        assert!(text.contains("index join emp"), "{text}");
    }

    #[test]
    fn hash_join_when_inner_key_unindexed_nl_otherwise() {
        // dept.name has no index → equi-join falls back to hash join.
        let p = plan("SELECT 1 FROM emp e JOIN dept d ON e.salary = d.name");
        assert!(p.operator_names().contains(&"hash join"));
        // Non-equi ON → nested loops.
        let p = plan("SELECT 1 FROM emp e JOIN dept d ON e.dept_id < d.dept_id");
        assert!(p.operator_names().contains(&"nested-loop join"));
    }

    #[test]
    fn render_and_operator_names_come_from_one_tree() {
        let p = plan(
            "SELECT dept_id, COUNT(*) n FROM emp GROUP BY dept_id \
             HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 3",
        );
        assert_eq!(
            p.operator_names(),
            vec!["seq scan", "hash aggregate", "sort", "limit"]
        );
        let text = p.render().join("\n");
        for needle in [
            "limit: 3",
            "sort: n DESC",
            "hash group by: dept_id",
            "having: (COUNT(*) > 1)",
            "project: dept_id, n",
            "seq scan emp (4 rows)",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in {text}");
        }
    }

    #[test]
    fn pk_point_fast_path_builds_the_canonical_tree() {
        // The shape the general path would build: index lookup,
        // residual filter, projection — with the same rendering.
        let p = plan("SELECT salary FROM emp WHERE emp_id = 3");
        assert_eq!(p.operator_names(), vec!["index scan", "filter", "project"]);
        let text = p.render().join("\n");
        assert!(
            text.contains("index lookup emp.emp_id = 3 via PRIMARY KEY (~1 rows)"),
            "{text}"
        );
        assert!(text.contains("filter: (emp_id = 3)"), "{text}");

        // Qualified and flipped forms take the same path.
        let p = plan("SELECT e.salary FROM emp e WHERE 3 = e.emp_id");
        assert_eq!(p.operator_names(), vec!["index scan", "filter", "project"]);

        // Non-PK equality, extra conjuncts, and wrappers fall through
        // to the general path (same answers, costed plan).
        let p = plan("SELECT salary FROM emp WHERE dept_id = 2");
        assert!(p.render().join("\n").contains("via secondary index"));
        let p = plan("SELECT salary FROM emp WHERE emp_id = 3 AND salary > 0");
        assert!(p.operator_names().contains(&"index scan"));
        let p = plan("SELECT COUNT(*) FROM emp WHERE emp_id = 3");
        assert!(p.operator_names().contains(&"hash aggregate"));
        let p = plan("SELECT salary FROM emp WHERE emp_id = 3 LIMIT 1");
        assert!(p.operator_names().contains(&"limit"));
    }

    #[test]
    fn output_columns_surface_through_wrappers() {
        let p = plan("SELECT DISTINCT salary s FROM emp ORDER BY s LIMIT 2");
        assert_eq!(p.output_columns(), ["s"]);
    }
}
