//! Scalar expressions: AST, SQL three-valued evaluation, and printing.
//!
//! The same AST is produced by the SQL parser and by the WebTassili
//! translation layer (which builds queries like the paper's
//! `Funding(ResearchProjects.Title, Title = 'AIDS and drugs')` →
//! `SELECT a.funding FROM researchprojects a WHERE a.title = '…'`).
//!
//! [`eval`] is the one evaluator. It borrows: a column or literal comes
//! back as a reference into the row or the expression, and only a
//! computed value is owned, so a predicate over `TEXT` columns copies no
//! string. Column references come in two forms — [`Expr::Column`], by
//! name, as parsed; and [`Expr::Slot`], a position the planner resolved
//! once — and an [`EvalContext`] answers the form its expressions use.

use crate::types::{Datum, Row};
use crate::{RelError, RelResult};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use webfindit_base::like::like_match;

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical NOT (three-valued).
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (always yields DOUBLE; division by zero errors).
    Div,
    /// Modulo on integers.
    Mod,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
    /// String concatenation (`||`).
    Concat,
    /// SQL LIKE with `%` and `_` wildcards.
    Like,
}

impl BinOp {
    /// The canonical SQL spelling of this operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Concat => "||",
            BinOp::Like => "LIKE",
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` or `COUNT(expr)`.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        f.write_str(s)
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Datum),
    /// A (possibly qualified) column reference.
    Column {
        /// Table name or alias qualifier, if written.
        table: Option<String>,
        /// Column name.
        name: String,
    },
    /// A column reference the planner bound to a position in the
    /// executor's tuple (see [`crate::plan`]): row `part` of the tuple,
    /// cell `col` of that row. Never produced by the parser.
    Slot {
        /// Which row of the tuple.
        part: usize,
        /// Which cell of that row.
        col: usize,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Three-valued AND of two or more parts, none of them an `And`.
    /// Built by [`Expr::junction`].
    And(Vec<Expr>),
    /// Three-valued OR of two or more parts, none of them an `Or`.
    /// Built by [`Expr::junction`].
    Or(Vec<Expr>),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, …)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate list.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// An aggregate call; evaluated only by the grouping executor.
    Aggregate {
        /// Which aggregate.
        func: AggFunc,
        /// Argument, or `None` for `COUNT(*)`.
        arg: Option<Box<Expr>>,
        /// True for `AGG(DISTINCT expr)`.
        distinct: bool,
    },
}

impl Expr {
    /// Shorthand: a column reference without qualifier.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            table: None,
            name: name.into().to_ascii_lowercase(),
        }
    }

    /// Shorthand: a qualified column reference.
    pub fn qcol(table: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column {
            table: Some(table.into().to_ascii_lowercase()),
            name: name.into().to_ascii_lowercase(),
        }
    }

    /// Shorthand: a literal.
    pub fn lit(d: Datum) -> Expr {
        Expr::Literal(d)
    }

    /// Shorthand: binary op.
    pub fn bin(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// The one way a [`Expr::And`] or [`Expr::Or`] is built: `make` is
    /// that variant, and a part that is itself one, parenthesised or not,
    /// is spliced in. So a chain of any length is one flat list and
    /// nothing recurses once per operator. A single part comes back
    /// unchanged; `parts` must not be empty.
    pub fn junction(make: fn(Vec<Expr>) -> Expr, parts: impl IntoIterator<Item = Expr>) -> Expr {
        let kind = make(Vec::new());
        let mut flat = Vec::new();
        for part in parts {
            match (&kind, part) {
                (Expr::And(_), Expr::And(inner)) | (Expr::Or(_), Expr::Or(inner)) => {
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

    /// The parts of an [`Expr::And`], or this expression as its one
    /// conjunct.
    pub fn conjuncts(&self) -> &[Expr] {
        match self {
            Expr::And(parts) => parts,
            one => std::slice::from_ref(one),
        }
    }

    /// Whether this expression tree contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = Vec::new();
        self.collect_aggregates(&mut found);
        !found.is_empty()
    }

    /// Collect every distinct aggregate sub-expression, in first-seen
    /// order (the grouping executor computes these once per group).
    pub fn collect_aggregates<'a>(&'a self, out: &mut Vec<&'a Expr>) {
        match self {
            Expr::Aggregate { .. } => {
                if !out.contains(&self) {
                    out.push(self);
                }
            }
            Expr::Literal(_) | Expr::Column { .. } | Expr::Slot { .. } => {}
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr.collect_aggregates(out),
            Expr::And(parts) | Expr::Or(parts) => {
                parts.iter().for_each(|e| e.collect_aggregates(out))
            }
            Expr::Binary { left, right, .. } => {
                left.collect_aggregates(out);
                right.collect_aggregates(out);
            }
            Expr::InList { expr, list, .. } => {
                expr.collect_aggregates(out);
                list.iter().for_each(|e| e.collect_aggregates(out));
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.collect_aggregates(out);
                low.collect_aggregates(out);
                high.collect_aggregates(out);
            }
        }
    }

    /// Render in canonical SQL (the engine's own dialect).
    pub fn to_sql(&self) -> String {
        match self {
            Expr::Literal(Datum::Text(s)) => format!("'{}'", s.replace('\'', "''")),
            Expr::Literal(Datum::Date(d)) => {
                format!("'{}'", crate::types::format_date(*d))
            }
            Expr::Literal(d) => d.to_string(),
            Expr::Column { table, name } => match table {
                Some(t) => format!("{t}.{name}"),
                None => name.clone(),
            },
            Expr::Slot { part, col } => format!("#{part}.{col}"),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => format!("NOT ({})", expr.to_sql()),
                UnaryOp::Neg => format!("-({})", expr.to_sql()),
            },
            Expr::And(parts) => list_sql(parts, Expr::to_sql, " AND "),
            Expr::Or(parts) => list_sql(parts, Expr::to_sql, " OR "),
            Expr::Binary { op, left, right } => {
                format!("({} {} {})", left.to_sql(), op.symbol(), right.to_sql())
            }
            Expr::IsNull { expr, negated } => format!(
                "({} IS {}NULL)",
                expr.to_sql(),
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let items: Vec<String> = list.iter().map(Expr::to_sql).collect();
                format!(
                    "({} {}IN ({}))",
                    expr.to_sql(),
                    if *negated { "NOT " } else { "" },
                    items.join(", ")
                )
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => format!(
                "({} {}BETWEEN {} AND {})",
                expr.to_sql(),
                if *negated { "NOT " } else { "" },
                low.to_sql(),
                high.to_sql()
            ),
            Expr::Aggregate {
                func,
                arg,
                distinct,
            } => match arg {
                None => format!("{func}(*)"),
                Some(a) => format!(
                    "{func}({}{})",
                    if *distinct { "DISTINCT " } else { "" },
                    a.to_sql()
                ),
            },
        }
    }
}

/// `parts` rendered by `render` and joined by `sep`, in one pair of
/// parentheses: how every renderer writes an AND or OR list.
pub(crate) fn list_sql(parts: &[Expr], render: impl Fn(&Expr) -> String, sep: &str) -> String {
    let rendered: Vec<String> = parts.iter().map(render).collect();
    format!("({})", rendered.join(sep))
}

/// What an expression evaluates against. `'a` is how long the values it
/// hands out live: the rows it reads, not the context itself.
pub trait EvalContext<'a> {
    /// The value of a by-name column reference in the current row.
    fn column(&self, table: Option<&str>, name: &str) -> RelResult<&'a Datum>;

    /// The value at a planner-bound position. Only the planned
    /// pipeline's tuples hold bound expressions.
    fn slot(&self, part: usize, col: usize) -> RelResult<&'a Datum> {
        Err(RelError::Unsupported(format!(
            "bound column #{part}.{col} outside a planned pipeline"
        )))
    }

    /// The value of a precomputed aggregate (grouping executors only).
    fn aggregate(&self, expr: &Expr) -> RelResult<&'a Datum> {
        let _ = expr;
        Err(RelError::AggregateMisuse(
            "aggregate used outside SELECT/HAVING".into(),
        ))
    }
}

/// A context over a single table's row.
pub struct SingleRow<'a> {
    /// Column names, lowercase, in row order.
    pub columns: &'a [String],
    /// Current row.
    pub row: &'a Row,
}

impl<'a> EvalContext<'a> for SingleRow<'a> {
    fn column(&self, _table: Option<&str>, name: &str) -> RelResult<&'a Datum> {
        let lower = name.to_ascii_lowercase();
        self.columns
            .iter()
            .position(|c| *c == lower)
            .map(|i| &self.row[i])
            .ok_or(RelError::NoSuchColumn(lower))
    }
}

fn truth(d: &Datum) -> RelResult<Option<bool>> {
    match d {
        Datum::Null => Ok(None),
        Datum::Bool(b) => Ok(Some(*b)),
        other => Err(RelError::TypeMismatch {
            expected: "BOOL".into(),
            found: format!("{other}"),
        }),
    }
}

fn from_truth(t: Option<bool>) -> Datum {
    match t {
        Some(b) => Datum::Bool(b),
        None => Datum::Null,
    }
}

/// Evaluate `expr` in `ctx`. Columns and literals come back borrowed;
/// only computed values are owned.
pub fn eval<'a, C: EvalContext<'a> + ?Sized>(expr: &'a Expr, ctx: &C) -> RelResult<Cow<'a, Datum>> {
    let owned = |d: Datum| Ok(Cow::Owned(d));
    match expr {
        Expr::Literal(d) => Ok(Cow::Borrowed(d)),
        Expr::Column { table, name } => ctx.column(table.as_deref(), name).map(Cow::Borrowed),
        Expr::Slot { part, col } => ctx.slot(*part, *col).map(Cow::Borrowed),
        Expr::Aggregate { .. } => ctx.aggregate(expr).map(Cow::Borrowed),
        Expr::Unary { op, expr } => {
            let v = eval(expr, ctx)?;
            match op {
                UnaryOp::Not => owned(from_truth(truth(&v)?.map(|b| !b))),
                UnaryOp::Neg => match &*v {
                    Datum::Null => owned(Datum::Null),
                    Datum::Int(i) => owned(Datum::Int(-i)),
                    Datum::Double(d) => owned(Datum::Double(-d)),
                    other => Err(RelError::TypeMismatch {
                        expected: "numeric".into(),
                        found: format!("{other}"),
                    }),
                },
            }
        }
        Expr::And(parts) => eval_junction(parts, false, ctx).map(Cow::Owned),
        Expr::Or(parts) => eval_junction(parts, true, ctx).map(Cow::Owned),
        Expr::Binary { op, left, right } => eval_binary(*op, left, right, ctx).map(Cow::Owned),
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, ctx)?;
            owned(Datum::Bool(v.is_null() != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, ctx)?;
            if v.is_null() {
                return owned(Datum::Null);
            }
            let mut saw_null = false;
            for item in list {
                let w = eval(item, ctx)?;
                if w.is_null() {
                    saw_null = true;
                    continue;
                }
                if v.sql_cmp(&w) == Some(Ordering::Equal) {
                    return owned(Datum::Bool(!*negated));
                }
            }
            // SQL: x IN (…, NULL) is NULL when no match was found.
            if saw_null {
                owned(Datum::Null)
            } else {
                owned(Datum::Bool(*negated))
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, ctx)?;
            let lo = eval(low, ctx)?;
            let hi = eval(high, ctx)?;
            let ge_lo = match v.sql_cmp(&lo) {
                None => return owned(Datum::Null),
                Some(o) => o != Ordering::Less,
            };
            let le_hi = match v.sql_cmp(&hi) {
                None => return owned(Datum::Null),
                Some(o) => o != Ordering::Greater,
            };
            owned(Datum::Bool((ge_lo && le_hi) != *negated))
        }
    }
}

/// Whether `expr` evaluates to SQL TRUE in `ctx` (NULL and FALSE both
/// reject a row).
pub fn eval_true<'a, C: EvalContext<'a> + ?Sized>(expr: &'a Expr, ctx: &C) -> RelResult<bool> {
    Ok(matches!(&*eval(expr, ctx)?, Datum::Bool(true)))
}

/// An AND (`decisive` false) or an OR (`decisive` true) in SQL's
/// three-valued logic, left to right: the first part that is
/// `decisive` settles it, and the parts after it are not evaluated, so
/// neither are their errors.
fn eval_junction<'a, C: EvalContext<'a> + ?Sized>(
    parts: &'a [Expr],
    decisive: bool,
    ctx: &C,
) -> RelResult<Datum> {
    let mut unknown = false;
    for part in parts {
        match truth(&*eval(part, ctx)?)? {
            Some(b) if b == decisive => return Ok(Datum::Bool(decisive)),
            Some(_) => {}
            None => unknown = true,
        }
    }
    Ok(from_truth((!unknown).then_some(!decisive)))
}

fn eval_binary<'a, C: EvalContext<'a> + ?Sized>(
    op: BinOp,
    left: &'a Expr,
    right: &'a Expr,
    ctx: &C,
) -> RelResult<Datum> {
    let l = eval(left, ctx)?;
    let r = eval(right, ctx)?;
    let (l, r) = (&*l, &*r);

    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            if l.is_null() || r.is_null() {
                return Ok(Datum::Null);
            }
            arith(op, l, r)
        }
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            match l.sql_cmp(r) {
                None => Ok(Datum::Null),
                Some(ord) => {
                    let b = match op {
                        BinOp::Eq => ord == Ordering::Equal,
                        BinOp::Ne => ord != Ordering::Equal,
                        BinOp::Lt => ord == Ordering::Less,
                        BinOp::Le => ord != Ordering::Greater,
                        BinOp::Gt => ord == Ordering::Greater,
                        BinOp::Ge => ord != Ordering::Less,
                        _ => unreachable!(),
                    };
                    Ok(Datum::Bool(b))
                }
            }
        }
        BinOp::Concat => {
            if l.is_null() || r.is_null() {
                return Ok(Datum::Null);
            }
            Ok(Datum::Text(format!("{l}{r}")))
        }
        BinOp::Like => match (l, r) {
            (Datum::Null, _) | (_, Datum::Null) => Ok(Datum::Null),
            (Datum::Text(t), Datum::Text(p)) => Ok(Datum::Bool(like_match(t, p))),
            _ => Err(RelError::TypeMismatch {
                expected: "TEXT LIKE TEXT".into(),
                found: format!("{l} LIKE {r}"),
            }),
        },
    }
}

fn arith(op: BinOp, l: &Datum, r: &Datum) -> RelResult<Datum> {
    use Datum::{Date, Double, Int};
    match (l, r) {
        (Int(a), Int(b)) => match op {
            BinOp::Add => Ok(Int(a.wrapping_add(*b))),
            BinOp::Sub => Ok(Int(a.wrapping_sub(*b))),
            BinOp::Mul => Ok(Int(a.wrapping_mul(*b))),
            BinOp::Div => {
                if *b == 0 {
                    Err(RelError::DivisionByZero)
                } else {
                    Ok(Double(*a as f64 / *b as f64))
                }
            }
            BinOp::Mod => {
                if *b == 0 {
                    Err(RelError::DivisionByZero)
                } else {
                    Ok(Int(a % b))
                }
            }
            _ => unreachable!(),
        },
        // Date arithmetic: date ± int days, date - date = days.
        (Date(a), Int(b)) if matches!(op, BinOp::Add | BinOp::Sub) => {
            let delta = if op == BinOp::Add { *b } else { -*b };
            Ok(Date(a.wrapping_add(delta as i32)))
        }
        (Date(a), Date(b)) if op == BinOp::Sub => Ok(Int((*a as i64) - (*b as i64))),
        _ => {
            let (a, b) = match (to_f64(l), to_f64(r)) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(RelError::TypeMismatch {
                        expected: "numeric".into(),
                        found: format!("{l} {} {r}", op.symbol()),
                    })
                }
            };
            match op {
                BinOp::Add => Ok(Double(a + b)),
                BinOp::Sub => Ok(Double(a - b)),
                BinOp::Mul => Ok(Double(a * b)),
                BinOp::Div => {
                    if b == 0.0 {
                        Err(RelError::DivisionByZero)
                    } else {
                        Ok(Double(a / b))
                    }
                }
                BinOp::Mod => Err(RelError::TypeMismatch {
                    expected: "INT % INT".into(),
                    found: format!("{l} % {r}"),
                }),
                _ => unreachable!(),
            }
        }
    }
}

fn to_f64(d: &Datum) -> Option<f64> {
    match d {
        Datum::Int(v) => Some(*v as f64),
        Datum::Double(v) => Some(*v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NoRows;
    impl EvalContext<'_> for NoRows {
        fn column(&self, _t: Option<&str>, name: &str) -> RelResult<&'static Datum> {
            Err(RelError::NoSuchColumn(name.into()))
        }
    }

    fn ev(e: &Expr) -> Datum {
        eval(e, &NoRows).unwrap().into_owned()
    }

    #[test]
    fn arithmetic() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::lit(Datum::Int(2)),
            Expr::bin(
                BinOp::Mul,
                Expr::lit(Datum::Int(3)),
                Expr::lit(Datum::Int(4)),
            ),
        );
        assert_eq!(ev(&e), Datum::Int(14));
        let d = Expr::bin(
            BinOp::Div,
            Expr::lit(Datum::Int(7)),
            Expr::lit(Datum::Int(2)),
        );
        assert_eq!(ev(&d), Datum::Double(3.5));
    }

    #[test]
    fn division_by_zero_errors() {
        let e = Expr::bin(
            BinOp::Div,
            Expr::lit(Datum::Int(1)),
            Expr::lit(Datum::Int(0)),
        );
        assert_eq!(eval(&e, &NoRows).unwrap_err(), RelError::DivisionByZero);
    }

    #[test]
    fn null_propagates_through_arithmetic_and_concat() {
        let e = Expr::bin(BinOp::Add, Expr::lit(Datum::Null), Expr::lit(Datum::Int(1)));
        assert!(ev(&e).is_null());
        let c = Expr::bin(
            BinOp::Concat,
            Expr::lit(Datum::Text("a".into())),
            Expr::lit(Datum::Null),
        );
        assert!(ev(&c).is_null());
    }

    #[test]
    fn three_valued_and_or() {
        let t = || Expr::lit(Datum::Bool(true));
        let f = || Expr::lit(Datum::Bool(false));
        let n = || Expr::lit(Datum::Null);
        assert_eq!(
            ev(&Expr::junction(Expr::And, [f(), n()])),
            Datum::Bool(false)
        );
        assert!(ev(&Expr::junction(Expr::And, [t(), n()])).is_null());
        assert_eq!(ev(&Expr::junction(Expr::Or, [t(), n()])), Datum::Bool(true));
        assert!(ev(&Expr::junction(Expr::Or, [f(), n()])).is_null());
        // NOT NULL is NULL
        let not_null = Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(n()),
        };
        assert!(ev(&not_null).is_null());
    }

    #[test]
    fn a_junction_is_one_flat_list() {
        let c = |n: i64| Expr::bin(BinOp::Eq, Expr::col("x"), Expr::lit(Datum::Int(n)));
        let e = Expr::junction(
            Expr::And,
            [
                Expr::junction(Expr::And, [c(1), c(2)]),
                Expr::junction(Expr::Or, [c(3), c(4)]),
                c(5),
            ],
        );
        let or = Expr::Or(vec![c(3), c(4)]);
        assert_eq!(e, Expr::And(vec![c(1), c(2), or, c(5)]));
        assert_eq!(
            e.to_sql(),
            "((x = 1) AND (x = 2) AND ((x = 3) OR (x = 4)) AND (x = 5))"
        );
        assert_eq!(Expr::junction(Expr::Or, [c(1)]), c(1));
        assert_eq!(e.conjuncts().len(), 4);
        assert_eq!(c(1).conjuncts(), [c(1)]);
    }

    /// Left to right, the first FALSE of an AND (TRUE of an OR) settles
    /// it; a part before it that fails fails the whole.
    #[test]
    fn a_junction_stops_at_its_first_decisive_part() {
        let lit = |d: Datum| Expr::lit(d);
        let boom = || Expr::bin(BinOp::Div, lit(Datum::Int(1)), lit(Datum::Int(0)));
        let (t, f, n) = (Datum::Bool(true), Datum::Bool(false), Datum::Null);
        let and = Expr::junction(Expr::And, [lit(n.clone()), lit(f.clone()), boom()]);
        assert_eq!(ev(&and), f);
        let or = Expr::junction(Expr::Or, [lit(n.clone()), lit(t.clone()), boom()]);
        assert_eq!(ev(&or), t);
        let late = Expr::junction(Expr::And, [lit(n), boom(), lit(f)]);
        assert_eq!(eval(&late, &NoRows).unwrap_err(), RelError::DivisionByZero);
    }

    #[test]
    fn comparisons_with_null_are_unknown() {
        let e = Expr::bin(BinOp::Eq, Expr::lit(Datum::Null), Expr::lit(Datum::Null));
        assert!(ev(&e).is_null());
    }

    #[test]
    fn is_null_checks() {
        let e = Expr::IsNull {
            expr: Box::new(Expr::lit(Datum::Null)),
            negated: false,
        };
        assert_eq!(ev(&e), Datum::Bool(true));
        let e2 = Expr::IsNull {
            expr: Box::new(Expr::lit(Datum::Int(1))),
            negated: true,
        };
        assert_eq!(ev(&e2), Datum::Bool(true));
    }

    #[test]
    fn in_list_with_null_semantics() {
        let in_match = Expr::InList {
            expr: Box::new(Expr::lit(Datum::Int(2))),
            list: vec![Expr::lit(Datum::Int(1)), Expr::lit(Datum::Int(2))],
            negated: false,
        };
        assert_eq!(ev(&in_match), Datum::Bool(true));
        let in_null = Expr::InList {
            expr: Box::new(Expr::lit(Datum::Int(9))),
            list: vec![Expr::lit(Datum::Int(1)), Expr::lit(Datum::Null)],
            negated: false,
        };
        assert!(ev(&in_null).is_null());
        let not_in = Expr::InList {
            expr: Box::new(Expr::lit(Datum::Int(9))),
            list: vec![Expr::lit(Datum::Int(1))],
            negated: true,
        };
        assert_eq!(ev(&not_in), Datum::Bool(true));
    }

    #[test]
    fn between_inclusive() {
        let mk = |v: i64, neg: bool| Expr::Between {
            expr: Box::new(Expr::lit(Datum::Int(v))),
            low: Box::new(Expr::lit(Datum::Int(1))),
            high: Box::new(Expr::lit(Datum::Int(10))),
            negated: neg,
        };
        assert_eq!(ev(&mk(1, false)), Datum::Bool(true));
        assert_eq!(ev(&mk(10, false)), Datum::Bool(true));
        assert_eq!(ev(&mk(11, false)), Datum::Bool(false));
        assert_eq!(ev(&mk(11, true)), Datum::Bool(true));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("AIDS and drugs", "AIDS%"));
        assert!(like_match("AIDS and drugs", "%drugs"));
        assert!(like_match("AIDS and drugs", "%and%"));
        assert!(like_match("cat", "c_t"));
        assert!(!like_match("cart", "c_t"));
        assert!(like_match("", "%"));
        assert!(!like_match("x", ""));
        assert!(like_match("100%", "100%"));
    }

    #[test]
    fn date_arithmetic() {
        let d = crate::types::parse_date("1999-01-01").unwrap();
        let plus = Expr::bin(
            BinOp::Add,
            Expr::lit(Datum::Date(d)),
            Expr::lit(Datum::Int(31)),
        );
        assert_eq!(
            ev(&plus),
            Datum::Date(crate::types::parse_date("1999-02-01").unwrap())
        );
        let diff = Expr::bin(
            BinOp::Sub,
            Expr::lit(Datum::Date(d + 10)),
            Expr::lit(Datum::Date(d)),
        );
        assert_eq!(ev(&diff), Datum::Int(10));
    }

    #[test]
    fn aggregate_outside_executor_errors() {
        let e = Expr::Aggregate {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        };
        assert!(matches!(
            eval(&e, &NoRows),
            Err(RelError::AggregateMisuse(_))
        ));
    }

    #[test]
    fn sql_printing() {
        let e = Expr::junction(
            Expr::And,
            [
                Expr::bin(
                    BinOp::Eq,
                    Expr::qcol("a", "title"),
                    Expr::lit(Datum::Text("AIDS and drugs".into())),
                ),
                Expr::bin(BinOp::Gt, Expr::col("funding"), Expr::lit(Datum::Int(1000))),
            ],
        );
        assert_eq!(
            e.to_sql(),
            "((a.title = 'AIDS and drugs') AND (funding > 1000))"
        );
    }

    #[test]
    fn string_literal_escaping() {
        let e = Expr::lit(Datum::Text("O'Brien".into()));
        assert_eq!(e.to_sql(), "'O''Brien'");
    }

    #[test]
    fn collect_aggregates_dedups() {
        let agg = Expr::Aggregate {
            func: AggFunc::Sum,
            arg: Some(Box::new(Expr::col("funding"))),
            distinct: false,
        };
        let e = Expr::bin(BinOp::Add, agg.clone(), agg.clone());
        let mut out = Vec::new();
        e.collect_aggregates(&mut out);
        assert_eq!(out.len(), 1);
        assert!(e.contains_aggregate());
    }
}
