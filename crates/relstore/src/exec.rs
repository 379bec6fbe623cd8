//! Query execution: pipelined pull-based operators over a physical plan.
//!
//! [`execute_select_into`] plans the statement with
//! [`crate::plan::plan_select`] and runs the resulting
//! [`PhysicalPlan`] tree with a pull-based (iterator-style) executor:
//! each operator produces one row per `next` call, so `LIMIT` stops
//! pulling — and therefore stops scanning — as soon as it is
//! satisfied. Every SELECT, a primary-key point lookup included, takes
//! this one path. An [`ExecMetrics`] struct threads through the operator
//! tree counting rows/bytes scanned, index hits, and entries held by
//! sorts/aggregation, and records the name of every operator that ran.
//!
//! **Rows are borrowed.** Below the projection a row is a *tuple*: one
//! `&[Datum]` into table storage per FROM item (a `LEFT` join's missing
//! side is the plan's all-NULL pad). Scans, filters and joins advance
//! the tuple in place by writing their own part; expressions arrive
//! bound to `(part, col)` slots ([`crate::plan`]) and [`eval`] reads
//! them by reference.
//!
//! **Rows go to a sink.** [`execute_plan_into`] hands each output row to
//! a [`RowSink`] as the pipeline produces it, after the column names. A
//! projection at the root, alone or under `LIMIT`, evaluates its select
//! list into one reused row of [`Cow`] cells that borrow the stored
//! datums, so a sink that encodes a reply copies no cell. A sort,
//! `DISTINCT` or aggregation at the root already holds owned rows and
//! moves them into the sink's row. A [`ResultSet`] is one consumer of
//! that path: it clones a borrowed cell and moves an owned one.
//!
//! **Aggregation streams.** `HashAggregate` keeps one entry per group —
//! a [`GroupKey`] per GROUP BY expression, references to the group's
//! first tuple, one accumulator per aggregate call — and feeds it as
//! rows are pulled, so it holds groups, not input rows. `SUM`/`AVG`
//! add their inputs in input order, which keeps float results
//! bit-identical to the reference's collect-then-sum.
//!
//! The differential tests check the pipeline against a vector-at-a-time
//! reference interpreter that lives in the test tree
//! (`tests/support/naive.rs`).

use crate::expr::{eval, eval_true, AggFunc, EvalContext, Expr};
use crate::plan::{
    lookup, plan_select, AggSpec, HashAggregateNode, HashJoinNode, IxJoinNode, NlJoinNode,
    PhysicalPlan, ProjectNode, Sarg, SortSource,
};
use crate::sql::ast::{JoinKind, SelectStmt};
use crate::storage::{Table, PROBE_BATCH};
use crate::types::{Datum, GroupKey, Row};
use crate::{RelError, RelResult};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// A query result: named columns and rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Run `f` with a fresh result set as its sink and return what it
    /// collected.
    pub(crate) fn collect(
        f: impl FnOnce(&mut ResultSet) -> RelResult<ExecMetrics>,
    ) -> RelResult<(ResultSet, ExecMetrics)> {
        let mut rs = ResultSet::default();
        let m = f(&mut rs)?;
        Ok((rs, m))
    }

    /// Render as a fixed-width text table (used by examples and the
    /// figure-regeneration binaries; Figure 6 is exactly this view).
    pub fn to_text_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|d| d.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!(" {:<w$} |", c, w = widths[i]));
        }
        out.push('\n');
        sep(&mut out);
        for row in &rendered {
            out.push('|');
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!(" {:<w$} |", cell, w = widths[i]));
            }
            out.push('\n');
        }
        sep(&mut out);
        out.push_str(&format!("{} row(s)\n", self.rows.len()));
        out
    }
}

/// The consumer of a SELECT's output, in the shape of a row callback:
/// the column names once, before any row, then each row as the
/// pipeline produces it. A cell borrows the stored datum where the
/// select list reads a column, and is owned where it is computed or
/// where a blocking operator already held the row; the sink may move
/// owned cells out. An `Err` from the sink stops the statement and is
/// its error.
pub trait RowSink<E = RelError> {
    /// The output column names.
    fn columns(&mut self, columns: &[String]) -> Result<(), E>;

    /// One output row.
    fn row(&mut self, row: &mut [Cow<'_, Datum>]) -> Result<(), E>;
}

/// Collecting is one way to consume the rows: a borrowed cell is cloned
/// and an owned one moved.
impl<E> RowSink<E> for ResultSet {
    fn columns(&mut self, columns: &[String]) -> Result<(), E> {
        self.columns = columns.to_vec();
        Ok(())
    }

    fn row(&mut self, row: &mut [Cow<'_, Datum>]) -> Result<(), E> {
        let owned = row
            .iter_mut()
            .map(|c| std::mem::replace(c, Cow::Owned(Datum::Null)).into_owned());
        self.rows.push(owned.collect());
        Ok(())
    }
}

/// Execution counters threaded through the pipelined operator tree.
///
/// Rows/bytes are counted where storage is actually touched (scans,
/// hash-build sides, index probes); `rows_spilled` counts the entries
/// blocking operators hold: one per row for a sort, one per group for
/// hash aggregation; `operators` lists every plan operator that ran,
/// bottom-up, and is guaranteed to match
/// [`PhysicalPlan::operator_names`] of the plan that produced it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecMetrics {
    /// Rows read from table heaps (scans, join build/probe reads).
    pub rows_scanned: u64,
    /// Approximate bytes of those rows.
    pub bytes_scanned: u64,
    /// Index entries returned by point lookups / range scans / probes.
    pub index_hits: u64,
    /// Entries held by blocking operators (sorted rows, groups).
    pub rows_spilled: u64,
    /// Rows delivered to the client.
    pub rows_output: u64,
    /// Operators that actually ran, leaf first.
    pub operators: Vec<&'static str>,
}

fn datum_bytes(d: &Datum) -> u64 {
    match d {
        Datum::Null | Datum::Bool(_) => 1,
        Datum::Text(s) => 8 + s.len() as u64,
        _ => 8,
    }
}

fn row_bytes(row: &[Datum]) -> u64 {
    row.iter().map(datum_bytes).sum()
}

// ---------------------------------------------------------------------
// Pipelined executor: the lower half advances a tuple of borrowed rows,
// the upper half produces owned (visible row, hidden sort keys) pairs.
// ---------------------------------------------------------------------

/// The pipeline's row: one borrowed stored row per FROM item, plus —
/// above an aggregate — one part holding the group's aggregate results.
type Tuple<'a> = [&'a [Datum]];

impl<'a> EvalContext<'a> for Tuple<'a> {
    fn column(&self, _table: Option<&str>, name: &str) -> RelResult<&'a Datum> {
        Err(RelError::Unsupported(format!(
            "column {name} reached the pipeline unbound"
        )))
    }

    fn slot(&self, part: usize, col: usize) -> RelResult<&'a Datum> {
        Ok(&self[part][col])
    }
}

/// A produced row and its hidden ORDER BY keys.
type Keyed = (Row, Vec<Datum>);

trait RowOp<'a> {
    /// Advance to the next tuple by writing this operator's part of
    /// `t` (its input has written the parts below); `false` at the end.
    fn next(&mut self, t: &mut Tuple<'a>, m: &mut ExecMetrics) -> RelResult<bool>;
}

trait KeyedOp {
    fn next(&mut self, m: &mut ExecMetrics) -> RelResult<Option<Keyed>>;
}

type BoxedRowOp<'a> = Box<dyn RowOp<'a> + 'a>;

fn scanned(r: &[Datum], m: &mut ExecMetrics) {
    m.rows_scanned += 1;
    m.bytes_scanned += row_bytes(r);
}

struct SeqScanExec<I> {
    iter: I,
}

impl<'a, I: Iterator<Item = (usize, &'a Row)>> RowOp<'a> for SeqScanExec<I> {
    fn next(&mut self, t: &mut Tuple<'a>, m: &mut ExecMetrics) -> RelResult<bool> {
        let Some((_, r)) = self.iter.next() else {
            return Ok(false);
        };
        scanned(r, m);
        t[0] = r;
        Ok(true)
    }
}

struct IxScanExec<'a> {
    table: &'a Table,
    slots: Cow<'a, [usize]>,
    pos: usize,
}

impl<'a> RowOp<'a> for IxScanExec<'a> {
    fn next(&mut self, t: &mut Tuple<'a>, m: &mut ExecMetrics) -> RelResult<bool> {
        while let Some(&slot) = self.slots.get(self.pos) {
            self.pos += 1;
            if let Some(r) = self.table.row(slot) {
                scanned(r, m);
                t[0] = r;
                return Ok(true);
            }
        }
        Ok(false)
    }
}

struct FilterExec<'a> {
    input: BoxedRowOp<'a>,
    pred: &'a Expr,
}

impl<'a> RowOp<'a> for FilterExec<'a> {
    fn next(&mut self, t: &mut Tuple<'a>, m: &mut ExecMetrics) -> RelResult<bool> {
        while self.input.next(t, m)? {
            if eval_true(self.pred, t)? {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

struct NlJoinExec<'a> {
    input: BoxedRowOp<'a>,
    node: &'a NlJoinNode,
    right_rows: Vec<&'a Row>,
    /// A left tuple is in place and `idx` right rows have been tried.
    have_left: bool,
    idx: usize,
    matched: bool,
}

impl<'a> RowOp<'a> for NlJoinExec<'a> {
    fn next(&mut self, t: &mut Tuple<'a>, m: &mut ExecMetrics) -> RelResult<bool> {
        let node = self.node;
        loop {
            if !self.have_left {
                if !self.input.next(t, m)? {
                    return Ok(false);
                }
                self.have_left = true;
                self.idx = 0;
                self.matched = false;
            }
            while let Some(&r) = self.right_rows.get(self.idx) {
                self.idx += 1;
                t[node.part] = r;
                let pass = match (node.kind, &node.on) {
                    (JoinKind::Cross, _) | (_, None) => true,
                    (_, Some(on)) => eval_true(on, t)?,
                };
                if pass {
                    self.matched = true;
                    return Ok(true);
                }
            }
            // Right side exhausted for this left tuple.
            self.have_left = false;
            if node.kind == JoinKind::Left && !self.matched {
                t[node.part] = &node.null_pad;
                return Ok(true);
            }
        }
    }
}

struct HashJoinExec<'a> {
    input: BoxedRowOp<'a>,
    node: &'a HashJoinNode,
    /// Join key → index into `buckets`.
    ht: HashMap<GroupKey<'a>, usize>,
    buckets: Vec<Vec<&'a Row>>,
    /// Matches of the current left tuple still to emit: `(bucket, next)`.
    pending: Option<(usize, usize)>,
}

impl<'a> RowOp<'a> for HashJoinExec<'a> {
    fn next(&mut self, t: &mut Tuple<'a>, m: &mut ExecMetrics) -> RelResult<bool> {
        let (lp, lc) = self.node.left;
        loop {
            if let Some((b, i)) = self.pending {
                if let Some(&r) = self.buckets[b].get(i) {
                    self.pending = Some((b, i + 1));
                    t[self.node.part] = r;
                    return Ok(true);
                }
                self.pending = None;
            }
            if !self.input.next(t, m)? {
                return Ok(false);
            }
            let key = &t[lp][lc];
            if key.is_null() {
                continue; // NULL never equi-matches
            }
            self.pending = self.ht.get(&GroupKey::of(key)).map(|&b| (b, 0));
        }
    }
}

/// An index join. It pulls up to `width` left tuples, probes the index
/// with their keys as one batch ([`Table::index_lookup_batch`]), then
/// emits each tuple's matches in left order. An error from the input is
/// held until the tuples pulled before it have been emitted. Under a
/// LIMIT that streams, `width` is 1, so the join pulls no left tuple
/// before the one whose matches it emits next.
struct IxJoinExec<'a> {
    input: BoxedRowOp<'a>,
    node: &'a IxJoinNode,
    right: &'a Table,
    width: usize,
    /// The batch's left tuples, `node.part` parts each.
    lefts: Vec<&'a [Datum]>,
    keys: Vec<&'a Datum>,
    /// Each left tuple's index hits.
    hits: Vec<&'a [usize]>,
    /// The next left tuple of the batch to emit.
    next: usize,
    /// Index hits of the current left tuple still to fetch.
    pending: &'a [usize],
    /// The input's error or end, met while filling the batch.
    held: Option<RelResult<()>>,
}

impl<'a> IxJoinExec<'a> {
    /// Pull the next batch of left tuples and probe their keys.
    fn fill(&mut self, t: &mut Tuple<'a>, m: &mut ExecMetrics) {
        let (part, (lp, lc)) = (self.node.part, self.node.left);
        self.lefts.clear();
        self.keys.clear();
        while self.keys.len() < self.width {
            match self.input.next(t, m) {
                Ok(true) => {
                    let left: &'a [Datum] = t[lp];
                    self.lefts.extend_from_slice(&t[..part]);
                    self.keys.push(&left[lc]);
                }
                Ok(false) => {
                    self.held = Some(Ok(()));
                    break;
                }
                Err(e) => {
                    self.held = Some(Err(e));
                    break;
                }
            }
        }
        self.hits.clear();
        self.right
            .index_lookup_batch(self.node.right_col, &self.keys, &mut self.hits);
        m.index_hits += self.hits.iter().map(|h| h.len() as u64).sum::<u64>();
        self.next = 0;
    }
}

impl<'a> RowOp<'a> for IxJoinExec<'a> {
    fn next(&mut self, t: &mut Tuple<'a>, m: &mut ExecMetrics) -> RelResult<bool> {
        let part = self.node.part;
        loop {
            while let Some((&slot, rest)) = self.pending.split_first() {
                self.pending = rest;
                if let Some(r) = self.right.row(slot) {
                    scanned(r, m);
                    t[part] = r;
                    return Ok(true);
                }
            }
            if let Some(&hits) = self.hits.get(self.next) {
                let at = self.next * part;
                t[..part].copy_from_slice(&self.lefts[at..at + part]);
                self.pending = hits;
                self.next += 1;
                continue;
            }
            if let Some(end) = self.held.take() {
                self.held = Some(Ok(()));
                return end.map(|()| false);
            }
            self.fill(t, m);
        }
    }
}

/// Evaluate a select list over `t` into an owned output row, for an
/// operator that holds rows (sort, `DISTINCT`) above the projection.
fn project<'a>(select: &'a [Expr], t: &Tuple<'a>) -> RelResult<Row> {
    select
        .iter()
        .map(|e| eval(e, t).map(Cow::into_owned))
        .collect()
}

fn sort_keys<'a>(order_by: &'a [SortSource], t: &Tuple<'a>, out: &[Datum]) -> RelResult<Row> {
    order_by
        .iter()
        .map(|k| match k {
            SortSource::Output(i) => Ok(out[*i].clone()),
            SortSource::Expr(e) => eval(e, t).map(Cow::into_owned),
        })
        .collect()
}

struct ProjectExec<'a> {
    input: BoxedRowOp<'a>,
    node: &'a ProjectNode,
    tuple: Vec<&'a [Datum]>,
}

impl KeyedOp for ProjectExec<'_> {
    fn next(&mut self, m: &mut ExecMetrics) -> RelResult<Option<Keyed>> {
        if !self.input.next(&mut self.tuple, m)? {
            return Ok(None);
        }
        let out = project(&self.node.select, &self.tuple)?;
        let keys = sort_keys(&self.node.order_by, &self.tuple, &out)?;
        Ok(Some((out, keys)))
    }
}

/// The running state of one aggregate call in one group.
enum AccState<'a> {
    /// `COUNT`: rows (`COUNT(*)`) or non-NULL inputs so far.
    Count(i64),
    /// `SUM` and `AVG`. Inputs are added in input order, integers both
    /// exactly and as doubles, so the results are bit-identical to
    /// summing the group's values after collecting them.
    Sum {
        n: i64,
        isum: i64,
        fsum: f64,
        all_int: bool,
    },
    /// `MIN` and `MAX`: the best input so far.
    Best(Option<Cow<'a, Datum>>),
}

struct Acc<'a> {
    state: AccState<'a>,
    /// Inputs already fed, for a `DISTINCT` aggregate only.
    seen: Option<HashSet<GroupKey<'a>>>,
}

impl<'a> Acc<'a> {
    fn new(spec: &AggSpec) -> Acc<'a> {
        Acc {
            state: match (spec.func, &spec.arg) {
                (AggFunc::Count, _) | (_, None) => AccState::Count(0),
                (AggFunc::Sum | AggFunc::Avg, _) => AccState::Sum {
                    n: 0,
                    isum: 0,
                    fsum: 0.0,
                    all_int: true,
                },
                (AggFunc::Min | AggFunc::Max, _) => AccState::Best(None),
            },
            seen: (spec.distinct && spec.arg.is_some()).then(HashSet::new),
        }
    }

    fn feed(&mut self, spec: &'a AggSpec, t: &Tuple<'a>) -> RelResult<()> {
        let Some(arg) = &spec.arg else {
            if let AccState::Count(n) = &mut self.state {
                *n += 1;
            }
            return Ok(());
        };
        let v = eval(arg, t)?;
        if v.is_null() {
            return Ok(());
        }
        if let Some(seen) = &mut self.seen {
            if !seen.insert(GroupKey::of_cow(v.clone())) {
                return Ok(());
            }
        }
        match &mut self.state {
            AccState::Count(n) => *n += 1,
            AccState::Sum {
                n,
                isum,
                fsum,
                all_int,
            } => {
                match &*v {
                    Datum::Int(i) => {
                        *isum = isum.wrapping_add(*i);
                        *fsum += *i as f64;
                    }
                    Datum::Double(d) => {
                        *all_int = false;
                        *fsum += d;
                    }
                    other => {
                        return Err(RelError::TypeMismatch {
                            expected: "numeric aggregate input".into(),
                            found: format!("{other}"),
                        })
                    }
                }
                *n += 1;
            }
            AccState::Best(best) => {
                let better = match best {
                    None => true,
                    Some(b) => match v.sql_cmp(b) {
                        Some(Ordering::Less) => spec.func == AggFunc::Min,
                        Some(Ordering::Greater) => spec.func == AggFunc::Max,
                        _ => false,
                    },
                };
                if better {
                    *best = Some(v);
                }
            }
        }
        Ok(())
    }

    fn finish(self, func: AggFunc) -> Datum {
        match self.state {
            AccState::Count(n) => Datum::Int(n),
            AccState::Sum { n: 0, .. } => Datum::Null,
            AccState::Sum {
                n,
                isum,
                fsum,
                all_int,
            } => match (func, all_int) {
                (AggFunc::Sum, true) => Datum::Int(isum),
                (AggFunc::Sum, false) => Datum::Double(fsum),
                _ => Datum::Double(fsum / n as f64),
            },
            AccState::Best(best) => best.map_or(Datum::Null, Cow::into_owned),
        }
    }
}

/// One group of a [`HashAggregateExec`]: references to its first input
/// tuple (what a bare column reads) and one accumulator per aggregate.
struct Group<'a> {
    first: Vec<&'a [Datum]>,
    accs: Vec<Acc<'a>>,
}

impl<'a> Group<'a> {
    fn new(node: &HashAggregateNode, first: &Tuple<'a>) -> Group<'a> {
        // Room for the aggregate-results part `emit` appends.
        let mut parts = Vec::with_capacity(first.len() + 1);
        parts.extend_from_slice(first);
        Group {
            first: parts,
            accs: node.aggs.iter().map(Acc::new).collect(),
        }
    }

    /// HAVING, the select list and the sort keys over the group tuple;
    /// `None` when HAVING rejects the group.
    fn emit(self, node: &HashAggregateNode) -> RelResult<Option<Keyed>> {
        let aggs: Row = self
            .accs
            .into_iter()
            .zip(&node.aggs)
            .map(|(acc, spec)| acc.finish(spec.func))
            .collect();
        let mut t: Vec<&[Datum]> = self.first;
        t.push(&aggs);
        if let Some(having) = &node.having {
            if !eval_true(having, &t[..])? {
                return Ok(None);
            }
        }
        let out = project(&node.select, &t)?;
        let keys = sort_keys(&node.order_by, &t, &out)?;
        Ok(Some((out, keys)))
    }
}

/// Streaming hash aggregation: one [`Group`] per distinct key, in
/// first-seen order, fed as the input is pulled. No input row is kept.
struct HashAggregateExec<'a> {
    input: BoxedRowOp<'a>,
    node: &'a HashAggregateNode,
    /// The finished groups, once the input is drained.
    groups: Option<std::vec::IntoIter<Group<'a>>>,
}

impl<'a> HashAggregateExec<'a> {
    fn drain(&mut self, m: &mut ExecMetrics) -> RelResult<Vec<Group<'a>>> {
        let node = self.node;
        let nulls = || -> Vec<&'a [Datum]> { node.null_tuple.iter().map(Vec::as_slice).collect() };
        let mut tuple = nulls();
        let mut groups: Vec<Group<'a>> = Vec::new();
        let mut index: HashMap<Vec<GroupKey<'a>>, usize> = HashMap::new();
        let mut key = Vec::with_capacity(node.group_by.len());
        while self.input.next(&mut tuple, m)? {
            let gi = if node.group_by.is_empty() {
                // Every row belongs to the one group.
                if groups.is_empty() {
                    groups.push(Group::new(node, &tuple));
                }
                0
            } else {
                key.clear();
                for g in &node.group_by {
                    key.push(GroupKey::of_cow(eval(g, &tuple[..])?));
                }
                match index.get(&key[..]) {
                    Some(&gi) => gi,
                    None => {
                        index.insert(key.clone(), groups.len());
                        groups.push(Group::new(node, &tuple));
                        groups.len() - 1
                    }
                }
            };
            for (acc, spec) in groups[gi].accs.iter_mut().zip(&node.aggs) {
                acc.feed(spec, &tuple)?;
            }
        }
        if node.group_by.is_empty() && groups.is_empty() {
            // An ungrouped aggregate over no rows is one group whose
            // columns read NULL.
            groups.push(Group::new(node, &nulls()));
        }
        m.rows_spilled += groups.len() as u64;
        Ok(groups)
    }
}

impl KeyedOp for HashAggregateExec<'_> {
    fn next(&mut self, m: &mut ExecMetrics) -> RelResult<Option<Keyed>> {
        if self.groups.is_none() {
            self.groups = Some(self.drain(m)?.into_iter());
        }
        for group in self.groups.as_mut().expect("drained above") {
            if let Some(row) = group.emit(self.node)? {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

struct DistinctExec<'a> {
    input: Box<dyn KeyedOp + 'a>,
    seen: HashSet<Vec<GroupKey<'static>>>,
}

impl KeyedOp for DistinctExec<'_> {
    fn next(&mut self, m: &mut ExecMetrics) -> RelResult<Option<Keyed>> {
        while let Some((row, keys)) = self.input.next(m)? {
            if self.seen.insert(row_key(&row)) {
                return Ok(Some((row, keys)));
            }
        }
        Ok(None)
    }
}

/// The DISTINCT key of a produced row. It owns its text because the
/// row moves on to the consumer while the key stays in the seen-set.
fn row_key(row: &[Datum]) -> Vec<GroupKey<'static>> {
    row.iter().map(|d| GroupKey::of(d).into_owned()).collect()
}

fn cmp_sort_keys(descs: &[bool], ka: &[Datum], kb: &[Datum]) -> Ordering {
    for (i, desc) in descs.iter().enumerate() {
        let ord = ka[i].sort_cmp(&kb[i]);
        let ord = if *desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

struct SortExec<'a> {
    input: Box<dyn KeyedOp + 'a>,
    descs: Vec<bool>,
    out: Option<std::vec::IntoIter<Keyed>>,
}

impl KeyedOp for SortExec<'_> {
    fn next(&mut self, m: &mut ExecMetrics) -> RelResult<Option<Keyed>> {
        if self.out.is_none() {
            let mut all = Vec::new();
            while let Some(pair) = self.input.next(m)? {
                all.push(pair);
            }
            m.rows_spilled += all.len() as u64;
            all.sort_by(|(_, ka), (_, kb)| cmp_sort_keys(&self.descs, ka, kb));
            self.out = Some(all.into_iter());
        }
        Ok(self.out.as_mut().expect("materialized above").next())
    }
}

struct LimitExec<'a> {
    input: Box<dyn KeyedOp + 'a>,
    remaining: u64,
}

impl KeyedOp for LimitExec<'_> {
    fn next(&mut self, m: &mut ExecMetrics) -> RelResult<Option<Keyed>> {
        if self.remaining == 0 {
            return Ok(None); // stop pulling — upstream scans stop too
        }
        match self.input.next(m)? {
            Some(pair) => {
                self.remaining -= 1;
                Ok(Some(pair))
            }
            None => {
                self.remaining = 0;
                Ok(None)
            }
        }
    }
}

/// Build the tuple-advancing lower half of the pipeline, whose index
/// joins pull `width` left tuples at a time.
fn build_rowop<'a>(
    plan: &'a PhysicalPlan,
    tables: &'a HashMap<String, Table>,
    m: &mut ExecMetrics,
    width: usize,
) -> RelResult<BoxedRowOp<'a>> {
    let op: BoxedRowOp<'a> = match plan {
        PhysicalPlan::SeqScan(n) => Box::new(SeqScanExec {
            iter: lookup(tables, &n.table)?.scan(),
        }),
        PhysicalPlan::IxScan(n) => {
            let table = lookup(tables, &n.table)?;
            let slots = match &n.sarg {
                Sarg::Eq(v) => table.index_lookup(n.col_idx, v).map(Cow::Borrowed),
                Sarg::Range { lo, hi } => table
                    .index_range(n.col_idx, lo.as_ref(), hi.as_ref())
                    .map(Cow::Owned),
            }
            .unwrap_or_default();
            m.index_hits += slots.len() as u64;
            Box::new(IxScanExec {
                table,
                slots,
                pos: 0,
            })
        }
        PhysicalPlan::NlJoin(n) => {
            let input = build_rowop(&n.input, tables, m, width)?;
            let right_rows: Vec<&Row> = lookup(tables, &n.table)?.scan().map(|(_, r)| r).collect();
            m.rows_scanned += right_rows.len() as u64;
            m.bytes_scanned += right_rows.iter().map(|r| row_bytes(r)).sum::<u64>();
            Box::new(NlJoinExec {
                input,
                node: n,
                right_rows,
                have_left: false,
                idx: 0,
                matched: false,
            })
        }
        PhysicalPlan::HashJoin(n) => {
            let input = build_rowop(&n.input, tables, m, width)?;
            let mut ht: HashMap<GroupKey<'a>, usize> = HashMap::new();
            let mut buckets: Vec<Vec<&Row>> = Vec::new();
            for (_, r) in lookup(tables, &n.table)?.scan() {
                scanned(r, m);
                if r[n.right_col].is_null() {
                    continue;
                }
                let b = *ht.entry(GroupKey::of(&r[n.right_col])).or_insert_with(|| {
                    buckets.push(Vec::new());
                    buckets.len() - 1
                });
                buckets[b].push(r);
            }
            Box::new(HashJoinExec {
                input,
                node: n,
                ht,
                buckets,
                pending: None,
            })
        }
        PhysicalPlan::IxJoin(n) => Box::new(IxJoinExec {
            input: build_rowop(&n.input, tables, m, width)?,
            node: n,
            right: lookup(tables, &n.table)?,
            width,
            lefts: Vec::with_capacity(width * n.part),
            keys: Vec::with_capacity(width),
            hits: Vec::with_capacity(width),
            next: 0,
            pending: &[],
            held: None,
        }),
        PhysicalPlan::Filter(n) => Box::new(FilterExec {
            input: build_rowop(&n.input, tables, m, width)?,
            pred: &n.pred,
        }),
        other => {
            return Err(RelError::Unsupported(format!(
                "operator {} cannot feed a row pipeline",
                other.name()
            )))
        }
    };
    m.operators.push(plan.name());
    Ok(op)
}

/// Build the keyed upper half of the pipeline. Its index joins pull
/// `batch` left tuples at a time, or one where a LIMIT above can stop
/// the pipeline early: `streaming`, true under a LIMIT with no sort or
/// aggregation between it and the joins, which drain their input.
fn build_keyed<'a>(
    plan: &'a PhysicalPlan,
    tables: &'a HashMap<String, Table>,
    m: &mut ExecMetrics,
    batch: usize,
    streaming: bool,
) -> RelResult<Box<dyn KeyedOp + 'a>> {
    let width = if streaming { 1 } else { batch };
    let op: Box<dyn KeyedOp + 'a> = match plan {
        PhysicalPlan::Limit(n) => Box::new(LimitExec {
            input: build_keyed(&n.input, tables, m, batch, true)?,
            remaining: n.n,
        }),
        PhysicalPlan::Sort(n) => Box::new(SortExec {
            input: build_keyed(&n.input, tables, m, batch, false)?,
            descs: n.keys.iter().map(|k| k.desc).collect(),
            out: None,
        }),
        PhysicalPlan::Distinct(n) => Box::new(DistinctExec {
            input: build_keyed(&n.input, tables, m, batch, streaming)?,
            seen: HashSet::new(),
        }),
        PhysicalPlan::Project(n) => Box::new(ProjectExec {
            input: build_rowop(&n.input, tables, m, width)?,
            node: n,
            tuple: vec![&[]; n.parts],
        }),
        PhysicalPlan::HashAggregate(n) => Box::new(HashAggregateExec {
            input: build_rowop(&n.input, tables, m, batch)?,
            node: n,
            groups: None,
        }),
        other => {
            return Err(RelError::Unsupported(format!(
                "plan root {} lacks a projection",
                other.name()
            )))
        }
    };
    m.operators.push(plan.name());
    Ok(op)
}

/// Execute a previously planned [`PhysicalPlan`], handing its column
/// names and then each row to `sink`, and return the execution metrics.
pub fn execute_plan_into<E, S>(
    plan: &PhysicalPlan,
    tables: &HashMap<String, Table>,
    sink: &mut S,
) -> Result<ExecMetrics, E>
where
    E: From<RelError>,
    S: RowSink<E> + ?Sized,
{
    run_plan(plan, tables, sink, PROBE_BATCH)
}

/// [`execute_plan_into`] with every index join pulling one left tuple
/// at a time: the reference the batched joins must match, rows, errors
/// and metrics alike.
#[cfg(test)]
pub(crate) fn execute_plan_one_at_a_time<E, S>(
    plan: &PhysicalPlan,
    tables: &HashMap<String, Table>,
    sink: &mut S,
) -> Result<ExecMetrics, E>
where
    E: From<RelError>,
    S: RowSink<E> + ?Sized,
{
    run_plan(plan, tables, sink, 1)
}

/// Run `plan` into `sink` with index joins `batch` wide.
fn run_plan<E, S>(
    plan: &PhysicalPlan,
    tables: &HashMap<String, Table>,
    sink: &mut S,
    batch: usize,
) -> Result<ExecMetrics, E>
where
    E: From<RelError>,
    S: RowSink<E> + ?Sized,
{
    let (node, limit) = match plan {
        PhysicalPlan::Project(n) => (n, None),
        PhysicalPlan::Limit(l) => match &*l.input {
            PhysicalPlan::Project(n) => (n, Some(l.n)),
            _ => return drain_keyed(plan, tables, sink, batch),
        },
        _ => return drain_keyed(plan, tables, sink, batch),
    };
    // A root projection: its row borrows what it reads, and LIMIT stops
    // pulling once satisfied, as `LimitExec` does.
    let mut m = ExecMetrics::default();
    let width = if limit.is_some() { 1 } else { batch };
    let mut input = build_rowop(&node.input, tables, &mut m, width)?;
    m.operators.push("project");
    if limit.is_some() {
        m.operators.push("limit");
    }
    sink.columns(plan.output_columns())?;
    let mut tuple: Vec<&[Datum]> = vec![&[]; node.parts];
    let mut row = Vec::with_capacity(node.select.len());
    let mut remaining = limit.unwrap_or(u64::MAX);
    while remaining > 0 && input.next(&mut tuple, &mut m)? {
        remaining -= 1;
        row.clear();
        for e in &node.select {
            row.push(eval(e, &tuple[..])?);
        }
        m.rows_output += 1;
        sink.row(&mut row)?;
    }
    Ok(m)
}

/// Run a plan whose root holds owned rows (sort, `DISTINCT`,
/// aggregation, a LIMIT above one of them) and move each row into the
/// sink's.
fn drain_keyed<E, S>(
    plan: &PhysicalPlan,
    tables: &HashMap<String, Table>,
    sink: &mut S,
    batch: usize,
) -> Result<ExecMetrics, E>
where
    E: From<RelError>,
    S: RowSink<E> + ?Sized,
{
    let mut m = ExecMetrics::default();
    let mut op = build_keyed(plan, tables, &mut m, batch, false)?;
    sink.columns(plan.output_columns())?;
    let mut row = Vec::new();
    while let Some((out, _)) = op.next(&mut m)? {
        m.rows_output += 1;
        row.clear();
        row.extend(out.into_iter().map(Cow::Owned));
        sink.row(&mut row)?;
    }
    Ok(m)
}

/// Execute a SELECT, handing its column names and rows to `sink`, and
/// return its [`ExecMetrics`]: [`plan_select`], then the pipelined
/// executor.
pub fn execute_select_into<E, S>(
    stmt: &SelectStmt,
    tables: &HashMap<String, Table>,
    sink: &mut S,
) -> Result<ExecMetrics, E>
where
    E: From<RelError>,
    S: RowSink<E> + ?Sized,
{
    let plan = plan_select(stmt, tables)?;
    execute_plan_into(&plan, tables, sink)
}

/// Describe the plan `execute_select_into` would run, without executing it.
///
/// This renders the *same* [`PhysicalPlan`] the executor runs — there
/// is no separate description path to drift.
pub fn explain_select(
    stmt: &SelectStmt,
    tables: &HashMap<String, Table>,
) -> RelResult<Vec<String>> {
    Ok(plan_select(stmt, tables)?.render())
}

#[cfg(test)]
#[path = "../tests/support/naive.rs"]
pub(crate) mod naive;

#[cfg(test)]
mod tests {
    use super::naive::execute_select_naive;
    use super::*;
    use crate::schema::{Column, TableSchema};
    use crate::sql::ast::Statement;
    use crate::sql::parse_statement;
    use crate::types::DataType;
    use crate::{Database, Dialect};

    /// Execute a SELECT against the given tables (plan + pipeline).
    fn execute_select(stmt: &SelectStmt, tables: &HashMap<String, Table>) -> RelResult<ResultSet> {
        execute_select_with_metrics(stmt, tables).map(|(rs, _)| rs)
    }

    /// Execute a SELECT and return the [`ExecMetrics`] alongside the rows.
    fn execute_select_with_metrics(
        stmt: &SelectStmt,
        tables: &HashMap<String, Table>,
    ) -> RelResult<(ResultSet, ExecMetrics)> {
        ResultSet::collect(|rs| execute_select_into(stmt, tables, rs))
    }

    fn catalog() -> HashMap<String, Table> {
        let mut patient = Table::new(TableSchema::new(
            "patient",
            vec![
                Column::new("patient_id", DataType::Int).primary_key(),
                Column::new("name", DataType::Text),
                Column::new("gender", DataType::Text),
            ],
        ));
        for (id, name, g) in [
            (1, "Alice", "F"),
            (2, "Bob", "M"),
            (3, "Carol", "F"),
            (4, "Dan", "M"),
        ] {
            patient
                .insert(vec![
                    Datum::Int(id),
                    Datum::Text(name.into()),
                    Datum::Text(g.into()),
                ])
                .unwrap();
        }

        let mut history = Table::new(TableSchema::new(
            "history",
            vec![
                Column::new("patient_id", DataType::Int),
                Column::new("description", DataType::Text),
                Column::new("cost", DataType::Double),
            ],
        ));
        for (pid, desc, cost) in [
            (1, "flu", 100.0),
            (1, "checkup", 50.0),
            (2, "fracture", 900.0),
            (3, "flu", 120.0),
        ] {
            history
                .insert(vec![
                    Datum::Int(pid),
                    Datum::Text(desc.into()),
                    Datum::Double(cost),
                ])
                .unwrap();
        }

        let mut m = HashMap::new();
        m.insert("patient".to_string(), patient);
        m.insert("history".to_string(), history);
        m
    }

    /// [`catalog`]'s tables in a [`Database`].
    fn catalog_db() -> Database {
        let mut db = Database::new("catalog", Dialect::Canonical);
        let mut tables: Vec<Table> = catalog().into_values().collect();
        tables.sort_by(|a, b| a.schema.name.cmp(&b.schema.name));
        for t in tables {
            let rows = t.scan().map(|(_, r)| r.clone()).collect();
            db.import_table(t.schema, rows).unwrap();
        }
        db
    }

    fn run(sql: &str) -> ResultSet {
        let stmt = parse_statement(sql).unwrap();
        match stmt {
            Statement::Select(s) => execute_select(&s, &catalog()).unwrap(),
            other => panic!("not a select: {other:?}"),
        }
    }

    fn run_err(sql: &str) -> RelError {
        let stmt = parse_statement(sql).unwrap();
        match stmt {
            Statement::Select(s) => execute_select(&s, &catalog()).unwrap_err(),
            other => panic!("not a select: {other:?}"),
        }
    }

    fn run_with_metrics(sql: &str) -> (ResultSet, ExecMetrics) {
        let stmt = parse_statement(sql).unwrap();
        match stmt {
            Statement::Select(s) => execute_select_with_metrics(&s, &catalog()).unwrap(),
            other => panic!("not a select: {other:?}"),
        }
    }

    #[test]
    fn select_star() {
        let rs = run("SELECT * FROM patient");
        assert_eq!(rs.columns, vec!["patient_id", "name", "gender"]);
        assert_eq!(rs.rows.len(), 4);
    }

    #[test]
    fn where_filter_and_projection() {
        let rs = run("SELECT name FROM patient WHERE gender = 'F' ORDER BY name");
        assert_eq!(
            rs.rows,
            vec![
                vec![Datum::Text("Alice".into())],
                vec![Datum::Text("Carol".into())]
            ]
        );
    }

    #[test]
    fn index_lookup_path_gives_same_answer() {
        // patient_id is the PK; the executor should use the index.
        let rs = run("SELECT name FROM patient WHERE patient_id = 3");
        assert_eq!(rs.rows, vec![vec![Datum::Text("Carol".into())]]);
        // Equality that matches nothing.
        let rs = run("SELECT name FROM patient WHERE patient_id = 99");
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn inner_join_hash_path() {
        let rs = run("SELECT p.name, h.description FROM patient p \
             JOIN history h ON p.patient_id = h.patient_id ORDER BY p.name, h.description");
        assert_eq!(rs.rows.len(), 4);
        assert_eq!(rs.rows[0][0], Datum::Text("Alice".into()));
    }

    #[test]
    fn left_join_pads_nulls() {
        let rs = run("SELECT p.name, h.description FROM patient p \
             LEFT JOIN history h ON p.patient_id = h.patient_id \
             WHERE h.description IS NULL");
        assert_eq!(rs.rows, vec![vec![Datum::Text("Dan".into()), Datum::Null]]);
    }

    #[test]
    fn cross_join_cardinality() {
        let rs = run("SELECT * FROM patient a, patient b");
        assert_eq!(rs.rows.len(), 16);
    }

    #[test]
    fn group_by_with_aggregates_and_having() {
        let rs = run(
            "SELECT p.name, COUNT(*) n, SUM(h.cost) total FROM patient p \
             JOIN history h ON p.patient_id = h.patient_id \
             GROUP BY p.name HAVING COUNT(*) >= 2",
        );
        assert_eq!(rs.columns, vec!["name", "n", "total"]);
        assert_eq!(
            rs.rows,
            vec![vec![
                Datum::Text("Alice".into()),
                Datum::Int(2),
                Datum::Double(150.0)
            ]]
        );
    }

    #[test]
    fn ungrouped_aggregates_over_empty_input() {
        let rs = run("SELECT COUNT(*), SUM(cost), MIN(cost) FROM history WHERE cost > 10000");
        assert_eq!(rs.rows, vec![vec![Datum::Int(0), Datum::Null, Datum::Null]]);
    }

    #[test]
    fn avg_min_max() {
        let rs = run("SELECT AVG(cost), MIN(cost), MAX(cost) FROM history");
        assert_eq!(
            rs.rows,
            vec![vec![
                Datum::Double(292.5),
                Datum::Double(50.0),
                Datum::Double(900.0)
            ]]
        );
    }

    #[test]
    fn count_distinct() {
        let rs = run("SELECT COUNT(DISTINCT description) FROM history");
        assert_eq!(rs.rows, vec![vec![Datum::Int(3)]]);
    }

    #[test]
    fn distinct_rows() {
        let rs = run("SELECT DISTINCT gender FROM patient ORDER BY gender");
        assert_eq!(
            rs.rows,
            vec![vec![Datum::Text("F".into())], vec![Datum::Text("M".into())]]
        );
    }

    #[test]
    fn order_by_desc_and_alias_and_limit() {
        let rs = run("SELECT name, patient_id pid FROM patient ORDER BY pid DESC LIMIT 2");
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][1], Datum::Int(4));
        assert_eq!(rs.rows[1][1], Datum::Int(3));
    }

    #[test]
    fn order_by_aggregate() {
        let rs = run(
            "SELECT patient_id, COUNT(*) FROM history GROUP BY patient_id \
             ORDER BY COUNT(*) DESC, patient_id LIMIT 1",
        );
        assert_eq!(rs.rows, vec![vec![Datum::Int(1), Datum::Int(2)]]);
    }

    #[test]
    fn ambiguous_column_detected() {
        assert!(matches!(
            run_err(
                "SELECT patient_id FROM patient p JOIN history h ON p.patient_id = h.patient_id"
            ),
            RelError::AmbiguousColumn(_)
        ));
    }

    #[test]
    fn aggregate_in_where_rejected() {
        assert!(matches!(
            run_err("SELECT * FROM history WHERE COUNT(*) > 1"),
            RelError::AggregateMisuse(_)
        ));
    }

    #[test]
    fn unknown_table_and_column() {
        assert!(matches!(
            run_err("SELECT * FROM ghosts"),
            RelError::NoSuchTable(_)
        ));
        assert!(matches!(
            run_err("SELECT nope FROM patient"),
            RelError::NoSuchColumn(_)
        ));
    }

    #[test]
    fn expression_projection_names() {
        let rs = run("SELECT cost * 2 FROM history LIMIT 1");
        assert_eq!(rs.columns, vec!["(cost * 2)"]);
    }

    #[test]
    fn text_table_rendering() {
        let rs = run("SELECT name FROM patient WHERE patient_id = 1");
        let text = rs.to_text_table();
        assert!(text.contains("| name"));
        assert!(text.contains("| Alice"));
        assert!(text.contains("1 row(s)"));
    }

    #[test]
    fn qualified_wildcard() {
        let rs =
            run("SELECT h.* FROM patient p JOIN history h ON p.patient_id = h.patient_id LIMIT 1");
        assert_eq!(rs.columns, vec!["patient_id", "description", "cost"]);
    }

    #[test]
    fn limit_stops_pulling_from_the_scan() {
        let (rs, m) = run_with_metrics("SELECT name FROM patient LIMIT 2");
        assert_eq!(rs.rows.len(), 2);
        // Pull-based pipeline: only the two delivered rows were scanned.
        assert_eq!(m.rows_scanned, 2);
        assert_eq!(m.rows_output, 2);
    }

    #[test]
    fn metrics_operators_match_the_plan() {
        let tables = catalog();
        for sql in [
            "SELECT * FROM patient",
            "SELECT name FROM patient WHERE patient_id = 3",
            "SELECT p.name FROM patient p JOIN history h ON p.patient_id = h.patient_id",
            "SELECT gender, COUNT(*) FROM patient GROUP BY gender ORDER BY gender LIMIT 1",
            "SELECT DISTINCT gender FROM patient",
        ] {
            let stmt = match parse_statement(sql).unwrap() {
                Statement::Select(s) => s,
                other => panic!("not a select: {other:?}"),
            };
            let plan = plan_select(&stmt, &tables).unwrap();
            let (_, m) = ResultSet::collect(|rs| execute_plan_into(&plan, &tables, rs)).unwrap();
            assert_eq!(m.operators, plan.operator_names(), "{sql}");
        }
    }

    #[test]
    fn index_scan_counts_hits_and_joined_queries_use_indexes() {
        // The pre-planner executor refused to use indexes under joins;
        // the sarg on patient_id must now hit the PK index.
        let (rs, m) = run_with_metrics(
            "SELECT p.name, h.description FROM patient p \
             JOIN history h ON p.patient_id = h.patient_id WHERE p.patient_id = 1",
        );
        assert_eq!(rs.rows.len(), 2);
        assert!(m.index_hits >= 1, "{m:?}");
        assert!(
            m.operators.contains(&"index scan"),
            "expected index scan in {:?}",
            m.operators
        );
    }

    /// Catalog for the key-exactness tests: `l`/`r` hold the two
    /// neighbouring BIGINTs an f64 cannot tell apart, `zd`/`zi` the
    /// zeros that compare equal but differ in bits.
    fn exact_key_catalog(index_r: bool) -> HashMap<String, Table> {
        const BIG: i64 = 1 << 53;
        let mut m = HashMap::new();
        for name in ["l", "r"] {
            let mut t = Table::new(TableSchema::new(
                name,
                vec![
                    Column::new("k", DataType::Int),
                    Column::new("tag", DataType::Text),
                ],
            ));
            for (k, tag) in [(BIG, "even"), (BIG + 1, "odd")] {
                t.insert(vec![Datum::Int(k), Datum::Text(format!("{name}-{tag}"))])
                    .unwrap();
            }
            if index_r && name == "r" {
                t.create_index("r_k", 0).unwrap();
            }
            m.insert(name.to_string(), t);
        }
        let mut zd = Table::new(TableSchema::new(
            "zd",
            vec![Column::new("d", DataType::Double)],
        ));
        for d in [0.0, -0.0] {
            zd.insert(vec![Datum::Double(d)]).unwrap();
        }
        m.insert("zd".to_string(), zd);
        let mut zi = Table::new(TableSchema::new(
            "zi",
            vec![Column::new("i", DataType::Int)],
        ));
        zi.insert(vec![Datum::Int(0)]).unwrap();
        m.insert("zi".to_string(), zi);
        m
    }

    fn select(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("not a select: {other:?}"),
        }
    }

    /// Run `sql` through the planned pipeline and the naive reference;
    /// both must agree; the planned rows and operators are returned.
    fn run_both(sql: &str, tables: &HashMap<String, Table>) -> (Vec<Row>, Vec<&'static str>) {
        let stmt = select(sql);
        let (planned, m) = execute_select_with_metrics(&stmt, tables).unwrap();
        let naive = execute_select_naive(&stmt, tables).unwrap();
        assert_eq!(planned, naive, "{sql}");
        (planned.rows, m.operators)
    }

    #[test]
    fn equi_join_keys_above_2_pow_53_are_exact_with_or_without_an_index() {
        let equi = "SELECT l.tag, r.tag FROM l JOIN r ON l.k = r.k ORDER BY l.tag";
        let nested = "SELECT l.tag, r.tag FROM l JOIN r ON l.k <= r.k AND l.k >= r.k \
                      ORDER BY l.tag";
        let expected = vec![
            vec![Datum::Text("l-even".into()), Datum::Text("r-even".into())],
            vec![Datum::Text("l-odd".into()), Datum::Text("r-odd".into())],
        ];
        for (index_r, join_op) in [(false, "hash join"), (true, "index join")] {
            let tables = exact_key_catalog(index_r);
            let (rows, ops) = run_both(equi, &tables);
            assert!(ops.contains(&join_op), "{ops:?}");
            assert_eq!(rows, expected, "{join_op}");
            let (rows, ops) = run_both(nested, &tables);
            assert!(ops.contains(&"nested-loop join"), "{ops:?}");
            assert_eq!(rows, expected, "nested-loop beside {join_op}");
        }
    }

    #[test]
    fn group_by_keeps_neighbouring_bigints_apart() {
        let tables = exact_key_catalog(false);
        let (rows, _) = run_both("SELECT k, COUNT(*) FROM l GROUP BY k ORDER BY k", &tables);
        assert_eq!(rows.len(), 2, "two BIGINT groups: {rows:?}");
    }

    #[test]
    fn count_distinct_keeps_neighbouring_bigints_apart() {
        let tables = exact_key_catalog(false);
        let (rows, _) = run_both("SELECT COUNT(DISTINCT k) FROM l", &tables);
        assert_eq!(rows, vec![vec![Datum::Int(2)]]);
    }

    #[test]
    fn distinct_treats_both_zeros_and_the_integer_zero_as_one_value() {
        let tables = exact_key_catalog(false);
        let (rows, _) = run_both("SELECT DISTINCT d FROM zd", &tables);
        assert_eq!(rows.len(), 1, "{rows:?}");
        // The integer zero hash-joins to both doubles: same key class.
        let (rows, ops) = run_both("SELECT COUNT(*) FROM zi JOIN zd ON zi.i = zd.d", &tables);
        assert!(ops.contains(&"hash join"), "{ops:?}");
        assert_eq!(rows, vec![vec![Datum::Int(2)]]);
    }

    #[test]
    fn aggregation_holds_groups_not_input_rows() {
        // Two genders: the aggregate holds 2 entries however many rows
        // feed it, and the sort above it holds the 2 produced rows.
        let (rs, m) = run_with_metrics(
            "SELECT p.gender, COUNT(*), AVG(h.cost) FROM history h \
             JOIN patient p ON h.patient_id = p.patient_id \
             GROUP BY p.gender ORDER BY p.gender",
        );
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(m.rows_spilled, 2 + 2, "{m:?}");
        let (rs, m) = run_with_metrics("SELECT gender, COUNT(*) FROM patient GROUP BY gender");
        assert_eq!(m.rows_spilled, rs.rows.len() as u64);
        // An ungrouped aggregate is one group, even over no rows.
        let (_, m) = run_with_metrics("SELECT COUNT(*) FROM history WHERE cost > 10000");
        assert_eq!(m.rows_spilled, 1);
    }

    #[test]
    fn column_errors_surface_at_plan_time_with_the_run_time_variants() {
        let tables = catalog();
        let db = catalog_db();
        let join = "FROM patient p JOIN history h ON p.patient_id = h.patient_id";
        for (sql, check) in [
            (
                "SELECT nope FROM patient".to_string(),
                (|e| matches!(e, RelError::NoSuchColumn(_))) as fn(&RelError) -> bool,
            ),
            (format!("SELECT patient_id {join}"), |e| {
                matches!(e, RelError::AmbiguousColumn(_))
            }),
            (format!("SELECT p.name {join} WHERE cost > nope"), |e| {
                matches!(e, RelError::NoSuchColumn(_))
            }),
            (
                "SELECT gender, COUNT(*) FROM patient GROUP BY nope".to_string(),
                |e| matches!(e, RelError::NoSuchColumn(_)),
            ),
            (
                "SELECT name FROM patient ORDER BY x.name".to_string(),
                |e| matches!(e, RelError::NoSuchTable(_)),
            ),
            ("SELECT SUM(COUNT(*)) FROM patient".to_string(), |e| {
                matches!(e, RelError::AggregateMisuse(_))
            }),
            // A PK point fails the same way whether or not its key is
            // stored.
            (
                "SELECT nope FROM patient WHERE patient_id = 1".to_string(),
                |e| matches!(e, RelError::NoSuchColumn(_)),
            ),
            (
                "SELECT nope FROM patient WHERE patient_id = 999".to_string(),
                |e| matches!(e, RelError::NoSuchColumn(_)),
            ),
            (
                "SELECT x.name FROM patient WHERE patient_id = 1".to_string(),
                |e| matches!(e, RelError::NoSuchTable(_)),
            ),
            (
                "SELECT x.name FROM patient WHERE patient_id = 999".to_string(),
                |e| matches!(e, RelError::NoSuchTable(_)),
            ),
        ] {
            let parsed = parse_statement(&sql).unwrap();
            let Statement::Select(stmt) = &parsed else {
                panic!("not a select: {parsed:?}");
            };
            let err = plan_select(stmt, &tables).unwrap_err();
            assert!(check(&err), "{sql}: {err:?}");
            // The database's SELECT path fails with the planner's error.
            assert_eq!(db.select(&parsed).unwrap_err(), err, "select {sql}");
            // The reference interpreter still meets the same error,
            // when a row makes it evaluate the expression; with the key
            // absent it reads no row.
            match execute_select_naive(stmt, &tables) {
                Err(naive) => assert!(check(&naive), "naive {sql}: {naive:?}"),
                Ok(rs) => assert!(
                    sql.ends_with("= 999") && rs.rows.is_empty(),
                    "naive {sql}: {rs:?}"
                ),
            }
        }
    }

    #[test]
    fn planned_matches_naive_on_the_corpus() {
        let tables = catalog();
        for sql in [
            "SELECT * FROM patient",
            "SELECT name FROM patient WHERE patient_id = 3",
            "SELECT name FROM patient WHERE patient_id > 2 ORDER BY name",
            "SELECT p.name, h.cost FROM patient p JOIN history h \
             ON p.patient_id = h.patient_id ORDER BY p.name, h.cost",
            "SELECT p.name, h.description FROM patient p LEFT JOIN history h \
             ON p.patient_id = h.patient_id ORDER BY p.name, h.description",
            "SELECT gender, COUNT(*) n, SUM(patient_id) FROM patient \
             GROUP BY gender ORDER BY gender",
            "SELECT DISTINCT description FROM history ORDER BY description",
            "SELECT COUNT(*) FROM patient WHERE patient_id BETWEEN 2 AND 3",
        ] {
            let stmt = match parse_statement(sql).unwrap() {
                Statement::Select(s) => s,
                other => panic!("not a select: {other:?}"),
            };
            let planned = execute_select(&stmt, &tables).unwrap();
            let naive = execute_select_naive(&stmt, &tables).unwrap();
            assert_eq!(planned, naive, "{sql}");
        }
    }
}
