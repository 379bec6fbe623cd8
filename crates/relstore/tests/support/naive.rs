//! The vector-at-a-time reference interpreter: the semantic reference
//! the pipelined executor is tested against (exec's differential cases
//! and the `prop_plan` properties). It resolves columns by name on every
//! row and materializes every intermediate result. Test-only: compiled
//! into the library under `cfg(test)` as a child of `exec`, so it reaches
//! the planner's crate-private helpers without widening them.

use super::{cmp_sort_keys, row_key, ResultSet};
use crate::expr::{eval, eval_true, AggFunc, EvalContext, Expr};
use crate::plan::{equi_join_offsets, expand_items, lookup, Layout};
use crate::sql::ast::{Join, JoinKind, OrderKey, SelectStmt};
use crate::storage::Table;
use crate::types::{Datum, GroupKey, Row};
use crate::{RelError, RelResult};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// Naive-executor context: a concatenated joined row, columns resolved
/// by name against the layout on every reference.
struct LayoutRow<'a> {
    layout: &'a Layout<'a>,
    row: &'a [Datum],
}

impl<'a> EvalContext<'a> for LayoutRow<'a> {
    fn column(&self, table: Option<&str>, name: &str) -> RelResult<&'a Datum> {
        Ok(&self.row[self.layout.resolve(table, name)?])
    }
}

/// Naive-executor group context: resolves columns from a representative
/// row and aggregates from the precomputed per-group table.
struct GroupRow<'a> {
    layout: &'a Layout<'a>,
    representative: &'a [Datum],
    aggregates: &'a [(Expr, Datum)],
}

impl<'a> EvalContext<'a> for GroupRow<'a> {
    fn column(&self, table: Option<&str>, name: &str) -> RelResult<&'a Datum> {
        Ok(&self.representative[self.layout.resolve(table, name)?])
    }

    fn aggregate(&self, expr: &Expr) -> RelResult<&'a Datum> {
        self.aggregates
            .iter()
            .find(|(e, _)| e == expr)
            .map(|(_, v)| v)
            .ok_or_else(|| RelError::AggregateMisuse("aggregate not precomputed".into()))
    }
}

/// Evaluate an ORDER BY key: a bare column naming an output alias sorts
/// by the output column; otherwise the expression is evaluated in `ctx`.
fn order_key_value<'a>(
    expr: &'a Expr,
    ctx: &impl EvalContext<'a>,
    columns: &[String],
    out_row: &[Datum],
) -> RelResult<Datum> {
    if let Expr::Column { table: None, name } = expr {
        if let Some(i) = columns.iter().position(|c| c == name) {
            return Ok(out_row[i].clone());
        }
    }
    eval(expr, ctx).map(Cow::into_owned)
}

/// Group `rows`, compute aggregates, apply HAVING, and evaluate the
/// select list and ORDER BY keys per surviving group.
#[allow(clippy::too_many_arguments)]
fn aggregate_rows(
    rows: &[Row],
    group_by: &[Expr],
    having: Option<&Expr>,
    select_exprs: &[(Expr, String)],
    order_by: &[OrderKey],
    columns: &[String],
    layout: &Layout,
) -> RelResult<Vec<(Row, Vec<Datum>)>> {
    let groups = build_groups(rows, group_by, layout)?;
    let mut produced = Vec::with_capacity(groups.len());
    for group in groups {
        let aggregates = compute_aggregates(&group, select_exprs, having, order_by, layout)?;
        let representative: &[Datum] = group.first().map(|r| r.as_slice()).unwrap_or(&[]);
        // An empty representative only happens for zero-row ungrouped
        // aggregates; column references would error there, which is
        // the correct SQL behaviour for e.g. `SELECT x, COUNT(*)`.
        let dummy: Row;
        let rep = if representative.is_empty() {
            dummy = vec![Datum::Null; layout.width];
            &dummy[..]
        } else {
            representative
        };
        let ctx = GroupRow {
            layout,
            representative: rep,
            aggregates: &aggregates,
        };
        if let Some(having) = having {
            if !eval_true(having, &ctx)? {
                continue;
            }
        }
        let mut out = Vec::with_capacity(select_exprs.len());
        for (e, _) in select_exprs {
            out.push(eval(e, &ctx)?.into_owned());
        }
        let mut keys = Vec::with_capacity(order_by.len());
        for k in order_by {
            keys.push(order_key_value(&k.expr, &ctx, columns, &out)?);
        }
        produced.push((out, keys));
    }
    Ok(produced)
}

/// Execute a SELECT with the vector-at-a-time reference interpreter.
///
/// The semantic reference: the differential property tests assert the
/// pipelined executor produces the same rows. It consults no index.
pub fn execute_select_naive(
    stmt: &SelectStmt,
    tables: &HashMap<String, Table>,
) -> RelResult<ResultSet> {
    // ---- FROM + JOIN -------------------------------------------------
    let base = lookup(tables, &stmt.from.name)?;
    let mut layout = Layout::new();
    layout.push(
        stmt.from.binding().to_ascii_lowercase(),
        &base.schema.columns,
    );

    // The reference reads the heap only: it must not lean on the
    // indexes whose answers it checks.
    let mut rows: Vec<Row> = base.scan().map(|(_, r)| r.clone()).collect();

    for join in &stmt.joins {
        rows = apply_join(rows, &mut layout, join, tables)?;
    }

    // ---- WHERE --------------------------------------------------------
    if let Some(filter) = &stmt.filter {
        if filter.contains_aggregate() {
            return Err(RelError::AggregateMisuse(
                "aggregate in WHERE; use HAVING".into(),
            ));
        }
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            let ctx = LayoutRow {
                layout: &layout,
                row: &row,
            };
            if eval_true(filter, &ctx)? {
                kept.push(row);
            }
        }
        rows = kept;
    }

    // ---- Grouping / projection ----------------------------------------
    let select_exprs: Vec<(Expr, String)> = expand_items(&stmt.items, &layout)?
        .into_iter()
        .map(|(e, name)| (e.into_owned(), name))
        .collect();
    let has_aggregates = select_exprs.iter().any(|(e, _)| e.contains_aggregate())
        || stmt
            .having
            .as_ref()
            .map(Expr::contains_aggregate)
            .unwrap_or(false)
        || stmt.order_by.iter().any(|k| k.expr.contains_aggregate());

    let columns: Vec<String> = select_exprs.iter().map(|(_, n)| n.clone()).collect();

    // Each produced row carries hidden sort keys after the visible columns.
    let mut produced: Vec<(Row, Vec<Datum>)> = if has_aggregates || !stmt.group_by.is_empty() {
        aggregate_rows(
            &rows,
            &stmt.group_by,
            stmt.having.as_ref(),
            &select_exprs,
            &stmt.order_by,
            &columns,
            &layout,
        )?
    } else {
        let mut produced = Vec::with_capacity(rows.len());
        for row in &rows {
            let ctx = LayoutRow {
                layout: &layout,
                row,
            };
            let mut out = Vec::with_capacity(select_exprs.len());
            for (e, _) in &select_exprs {
                out.push(eval(e, &ctx)?.into_owned());
            }
            let mut keys = Vec::with_capacity(stmt.order_by.len());
            for k in &stmt.order_by {
                keys.push(order_key_value(&k.expr, &ctx, &columns, &out)?);
            }
            produced.push((out, keys));
        }
        produced
    };

    // ---- DISTINCT -------------------------------------------------------
    if stmt.distinct {
        let mut seen = HashSet::new();
        produced.retain(|(row, _)| seen.insert(row_key(row)));
    }

    // ---- ORDER BY -------------------------------------------------------
    if !stmt.order_by.is_empty() {
        let descs: Vec<bool> = stmt.order_by.iter().map(|k| k.desc).collect();
        produced.sort_by(|(_, ka), (_, kb)| cmp_sort_keys(&descs, ka, kb));
    }

    // ---- LIMIT ----------------------------------------------------------
    if let Some(n) = stmt.limit {
        produced.truncate(n as usize);
    }

    Ok(ResultSet {
        columns,
        rows: produced.into_iter().map(|(r, _)| r).collect(),
    })
}

/// Attach one join step to the current row set (naive executor).
fn apply_join<'a>(
    left_rows: Vec<Row>,
    layout: &mut Layout<'a>,
    join: &Join,
    tables: &'a HashMap<String, Table>,
) -> RelResult<Vec<Row>> {
    let right = lookup(tables, &join.table.name)?;
    let right_binding = join.table.binding().to_ascii_lowercase();
    let right_cols = &right.schema.columns;
    let right_width = right_cols.len();

    // Try the hash-join fast path for inner equi-joins.
    let equi = match (&join.kind, &join.on) {
        (JoinKind::Inner, Some(on)) => equi_join_offsets(on, layout, &right_binding, right),
        _ => None,
    };

    layout.push(right_binding.clone(), right_cols);

    let right_rows: Vec<&Row> = right.scan().map(|(_, r)| r).collect();

    let mut out = Vec::new();
    match join.kind {
        JoinKind::Cross => {
            for l in &left_rows {
                for r in &right_rows {
                    let mut row = l.clone();
                    row.extend(r.iter().cloned());
                    out.push(row);
                }
            }
        }
        JoinKind::Inner => {
            if let Some((l_off, r_off)) = equi {
                // Hash join: build on the right side.
                let mut ht: HashMap<GroupKey<'_>, Vec<&Row>> = HashMap::new();
                for r in &right_rows {
                    if r[r_off].is_null() {
                        continue; // NULL never equi-matches
                    }
                    ht.entry(GroupKey::of(&r[r_off])).or_default().push(r);
                }
                for l in &left_rows {
                    if l[l_off].is_null() {
                        continue;
                    }
                    if let Some(matches) = ht.get(&GroupKey::of(&l[l_off])) {
                        for r in matches {
                            let mut row = l.clone();
                            row.extend(r.iter().cloned());
                            out.push(row);
                        }
                    }
                }
            } else {
                let on = join.on.as_ref().expect("inner join has ON");
                for l in &left_rows {
                    for r in &right_rows {
                        let mut row = l.clone();
                        row.extend(r.iter().cloned());
                        if eval_true(on, &LayoutRow { layout, row: &row })? {
                            out.push(row);
                        }
                    }
                }
            }
        }
        JoinKind::Left => {
            let on = join.on.as_ref().expect("left join has ON");
            for l in &left_rows {
                let mut matched = false;
                for r in &right_rows {
                    let mut row = l.clone();
                    row.extend(r.iter().cloned());
                    if eval_true(on, &LayoutRow { layout, row: &row })? {
                        matched = true;
                        out.push(row);
                    }
                }
                if !matched {
                    let mut row = l.clone();
                    row.extend(std::iter::repeat_n(Datum::Null, right_width));
                    out.push(row);
                }
            }
        }
    }
    Ok(out)
}

/// Partition rows into groups by the GROUP BY keys (one all-encompassing
/// group when the key list is empty).
fn build_groups(rows: &[Row], group_by: &[Expr], layout: &Layout) -> RelResult<Vec<Vec<Row>>> {
    if group_by.is_empty() {
        return Ok(vec![rows.to_vec()]);
    }
    let mut order: Vec<Vec<GroupKey<'_>>> = Vec::new();
    let mut groups: HashMap<Vec<GroupKey<'_>>, Vec<Row>> = HashMap::new();
    for row in rows {
        let ctx = LayoutRow { layout, row };
        let mut key = Vec::with_capacity(group_by.len());
        for g in group_by {
            key.push(GroupKey::of_cow(eval(g, &ctx)?));
        }
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(row.clone());
    }
    Ok(order
        .into_iter()
        .map(|k| groups.remove(&k).expect("key present"))
        .collect())
}

/// Compute every aggregate appearing in SELECT, HAVING, or ORDER BY for
/// one group.
fn compute_aggregates(
    group: &[Row],
    select_exprs: &[(Expr, String)],
    having: Option<&Expr>,
    order_by: &[OrderKey],
    layout: &Layout,
) -> RelResult<Vec<(Expr, Datum)>> {
    let mut agg_exprs: Vec<&Expr> = Vec::new();
    for (e, _) in select_exprs {
        e.collect_aggregates(&mut agg_exprs);
    }
    if let Some(h) = having {
        h.collect_aggregates(&mut agg_exprs);
    }
    for k in order_by {
        k.expr.collect_aggregates(&mut agg_exprs);
    }

    let mut out = Vec::with_capacity(agg_exprs.len());
    for agg in agg_exprs {
        let (func, arg, distinct) = match agg {
            Expr::Aggregate {
                func,
                arg,
                distinct,
            } => (*func, arg.as_deref(), *distinct),
            _ => unreachable!("collect_aggregates returns aggregates"),
        };
        let value = run_aggregate(func, arg, distinct, group, layout)?;
        out.push((agg.clone(), value));
    }
    Ok(out)
}

fn run_aggregate(
    func: AggFunc,
    arg: Option<&Expr>,
    distinct: bool,
    group: &[Row],
    layout: &Layout,
) -> RelResult<Datum> {
    // Gather the non-null argument values (COUNT(*) counts rows directly).
    let mut values: Vec<Datum> = Vec::new();
    match arg {
        None => {
            return Ok(Datum::Int(group.len() as i64));
        }
        Some(a) => {
            if a.contains_aggregate() {
                return Err(RelError::AggregateMisuse("nested aggregate".into()));
            }
            for row in group {
                let ctx = LayoutRow { layout, row };
                let v = eval(a, &ctx)?;
                if !v.is_null() {
                    values.push(v.into_owned());
                }
            }
        }
    }
    if distinct {
        let mut seen = HashSet::new();
        values.retain(|v| seen.insert(GroupKey::of(v).into_owned()));
    }
    Ok(match func {
        AggFunc::Count => Datum::Int(values.len() as i64),
        AggFunc::Sum | AggFunc::Avg => {
            if values.is_empty() {
                Datum::Null
            } else {
                let mut all_int = true;
                let mut sum = 0f64;
                let mut isum = 0i64;
                for v in &values {
                    match v {
                        Datum::Int(i) => {
                            isum = isum.wrapping_add(*i);
                            sum += *i as f64;
                        }
                        Datum::Double(d) => {
                            all_int = false;
                            sum += d;
                        }
                        other => {
                            return Err(RelError::TypeMismatch {
                                expected: "numeric aggregate input".into(),
                                found: format!("{other}"),
                            })
                        }
                    }
                }
                if func == AggFunc::Sum {
                    if all_int {
                        Datum::Int(isum)
                    } else {
                        Datum::Double(sum)
                    }
                } else {
                    Datum::Double(sum / values.len() as f64)
                }
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<Datum> = None;
            for v in values {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = match v.sql_cmp(&b) {
                            Some(Ordering::Less) => func == AggFunc::Min,
                            Some(Ordering::Greater) => func == AggFunc::Max,
                            _ => false,
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            best.unwrap_or(Datum::Null)
        }
    })
}
