//! Vendor dialect profiles.
//!
//! The paper's deployment spans Oracle, mSQL, DB2, and Sybase. What made
//! that heterogeneity *matter* was that the products disagreed about SQL:
//! different concatenation operators, different (or missing) row-limit
//! syntax, and — for mSQL, a deliberately minimal engine — no aggregates
//! or GROUP BY at all. WebFINDIT's wrappers absorb those differences.
//!
//! Each simulated database instance carries a [`Dialect`]. The profile
//! does two jobs:
//!
//! 1. **Feature gating** — [`Dialect::check`] rejects statements the
//!    vendor could not execute (e.g. `GROUP BY` on mSQL), forcing the
//!    connectivity layer to compensate exactly as a 1999 wrapper had to.
//! 2. **Rendering** — [`Dialect::render_select`] prints a SELECT the way
//!    that vendor would spell it (`ROWNUM`, `FETCH FIRST`, `TOP`, `+`
//!    concatenation), which is what appears in wrapper traces.

use crate::expr::{list_sql, BinOp, Expr};
use crate::sql::ast::{JoinKind, SelectItem, SelectStmt, Statement};
use crate::{RelError, RelResult};
use std::fmt;

/// The vendors the paper deploys (plus the engine's canonical form).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dialect {
    /// The engine's own canonical SQL (used by co-simulation tooling).
    Canonical,
    /// Oracle 8-era SQL: `ROWNUM` pseudo-column instead of LIMIT,
    /// `TO_DATE` literals.
    Oracle,
    /// mSQL (Mini SQL) 2.x: no aggregates, no GROUP BY, no outer joins;
    /// has LIMIT.
    MSql,
    /// DB2 UDB 5-era: `FETCH FIRST n ROWS ONLY`, no plain LIMIT.
    Db2,
    /// Sybase ASE 11-era: `SELECT TOP n`, `+` string concatenation.
    Sybase,
}

impl fmt::Display for Dialect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Dialect {
    /// The vendor's product name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Dialect::Canonical => "canonical",
            Dialect::Oracle => "Oracle",
            Dialect::MSql => "mSQL",
            Dialect::Db2 => "DB2",
            Dialect::Sybase => "Sybase",
        }
    }

    /// Whether the vendor supports aggregate functions and GROUP BY.
    pub fn supports_aggregates(&self) -> bool {
        !matches!(self, Dialect::MSql)
    }

    /// Whether the vendor supports LEFT OUTER JOIN.
    pub fn supports_outer_join(&self) -> bool {
        !matches!(self, Dialect::MSql)
    }

    /// The string concatenation operator.
    pub fn concat_op(&self) -> &'static str {
        match self {
            Dialect::Sybase => "+",
            _ => "||",
        }
    }

    /// Validate that this vendor can execute `stmt`; the wrapper layer
    /// catches [`RelError::Unsupported`] and compensates client-side.
    pub fn check(&self, stmt: &Statement) -> RelResult<()> {
        if let Statement::Select(s) = stmt {
            if !self.supports_aggregates() {
                let uses_agg = s.items.iter().any(
                    |i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()),
                ) || !s.group_by.is_empty()
                    || s.having.is_some();
                if uses_agg {
                    return Err(RelError::Unsupported(format!(
                        "{} does not support aggregates/GROUP BY",
                        self.name()
                    )));
                }
            }
            if !self.supports_outer_join() && s.joins.iter().any(|j| j.kind == JoinKind::Left) {
                return Err(RelError::Unsupported(format!(
                    "{} does not support OUTER JOIN",
                    self.name()
                )));
            }
        }
        Ok(())
    }

    /// Render a SELECT in this vendor's spelling. The output is for
    /// traces and demonstrations; the engine executes the canonical AST.
    pub fn render_select(&self, s: &SelectStmt) -> String {
        let mut out = String::from("SELECT ");
        if s.distinct {
            out.push_str("DISTINCT ");
        }
        if let (Dialect::Sybase, Some(n)) = (self, s.limit) {
            out.push_str(&format!("TOP {n} "));
        }
        let items: Vec<String> = s
            .items
            .iter()
            .map(|i| match i {
                SelectItem::Wildcard => "*".to_string(),
                SelectItem::QualifiedWildcard(t) => format!("{t}.*"),
                SelectItem::Expr { expr, alias } => {
                    let e = self.render_expr(expr);
                    match alias {
                        Some(a) => format!("{e} AS {a}"),
                        None => e,
                    }
                }
            })
            .collect();
        out.push_str(&items.join(", "));
        out.push_str(" FROM ");
        out.push_str(&s.from.name);
        if let Some(a) = &s.from.alias {
            out.push(' ');
            out.push_str(a);
        }
        for j in &s.joins {
            match j.kind {
                JoinKind::Cross => {
                    out.push_str(", ");
                    out.push_str(&j.table.name);
                }
                JoinKind::Inner => {
                    out.push_str(" JOIN ");
                    out.push_str(&j.table.name);
                }
                JoinKind::Left => {
                    out.push_str(" LEFT JOIN ");
                    out.push_str(&j.table.name);
                }
            }
            if let Some(a) = &j.table.alias {
                out.push(' ');
                out.push_str(a);
            }
            if let Some(on) = &j.on {
                out.push_str(" ON ");
                out.push_str(&self.render_expr(on));
            }
        }
        // WHERE, folding Oracle's ROWNUM limit in as a conjunct.
        let mut where_parts: Vec<String> = Vec::new();
        if let Some(f) = &s.filter {
            where_parts.push(self.render_expr(f));
        }
        if let (Dialect::Oracle, Some(n)) = (self, s.limit) {
            where_parts.push(format!("ROWNUM <= {n}"));
        }
        if !where_parts.is_empty() {
            out.push_str(" WHERE ");
            out.push_str(&where_parts.join(" AND "));
        }
        if !s.group_by.is_empty() {
            out.push_str(" GROUP BY ");
            let gs: Vec<String> = s.group_by.iter().map(|g| self.render_expr(g)).collect();
            out.push_str(&gs.join(", "));
        }
        if let Some(h) = &s.having {
            out.push_str(" HAVING ");
            out.push_str(&self.render_expr(h));
        }
        if !s.order_by.is_empty() {
            out.push_str(" ORDER BY ");
            let ks: Vec<String> = s
                .order_by
                .iter()
                .map(|k| {
                    let mut e = self.render_expr(&k.expr);
                    if k.desc {
                        e.push_str(" DESC");
                    }
                    e
                })
                .collect();
            out.push_str(&ks.join(", "));
        }
        if let Some(n) = s.limit {
            match self {
                Dialect::Canonical | Dialect::MSql => out.push_str(&format!(" LIMIT {n}")),
                Dialect::Db2 => out.push_str(&format!(" FETCH FIRST {n} ROWS ONLY")),
                Dialect::Oracle | Dialect::Sybase => {} // already folded in
            }
        }
        out
    }

    /// Render an expression, substituting the vendor concat operator and
    /// date-literal form.
    pub fn render_expr(&self, e: &Expr) -> String {
        match e {
            Expr::Binary {
                op: BinOp::Concat,
                left,
                right,
            } => format!(
                "({} {} {})",
                self.render_expr(left),
                self.concat_op(),
                self.render_expr(right)
            ),
            Expr::Binary { op, left, right } => format!(
                "({} {} {})",
                self.render_expr(left),
                op.symbol(),
                self.render_expr(right)
            ),
            Expr::And(parts) => list_sql(parts, |e| self.render_expr(e), " AND "),
            Expr::Or(parts) => list_sql(parts, |e| self.render_expr(e), " OR "),
            Expr::Unary { op, expr } => match op {
                crate::expr::UnaryOp::Not => format!("NOT ({})", self.render_expr(expr)),
                crate::expr::UnaryOp::Neg => format!("-({})", self.render_expr(expr)),
            },
            Expr::IsNull { expr, negated } => format!(
                "({} IS {}NULL)",
                self.render_expr(expr),
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let items: Vec<String> = list.iter().map(|e| self.render_expr(e)).collect();
                format!(
                    "({} {}IN ({}))",
                    self.render_expr(expr),
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
                self.render_expr(expr),
                if *negated { "NOT " } else { "" },
                self.render_expr(low),
                self.render_expr(high)
            ),
            Expr::Literal(crate::types::Datum::Date(d)) => {
                let iso = crate::types::format_date(*d);
                match self {
                    Dialect::Oracle => format!("TO_DATE('{iso}', 'YYYY-MM-DD')"),
                    _ => format!("'{iso}'"),
                }
            }
            other => other.to_sql(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse_statement;

    fn select(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn limit_spellings_differ_by_vendor() {
        let s = select("SELECT name FROM patient LIMIT 5");
        assert_eq!(
            Dialect::Oracle.render_select(&s),
            "SELECT name FROM patient WHERE ROWNUM <= 5"
        );
        assert_eq!(
            Dialect::Db2.render_select(&s),
            "SELECT name FROM patient FETCH FIRST 5 ROWS ONLY"
        );
        assert_eq!(
            Dialect::Sybase.render_select(&s),
            "SELECT TOP 5 name FROM patient"
        );
        assert_eq!(
            Dialect::MSql.render_select(&s),
            "SELECT name FROM patient LIMIT 5"
        );
    }

    #[test]
    fn oracle_limit_folds_into_existing_where() {
        let s = select("SELECT name FROM patient WHERE gender = 'F' LIMIT 3");
        assert_eq!(
            Dialect::Oracle.render_select(&s),
            "SELECT name FROM patient WHERE (gender = 'F') AND ROWNUM <= 3"
        );
    }

    #[test]
    fn sybase_concat_operator() {
        let s = select("SELECT first || last FROM t");
        let rendered = Dialect::Sybase.render_select(&s);
        assert!(rendered.contains("(first + last)"), "{rendered}");
        let o = Dialect::Oracle.render_select(&s);
        assert!(o.contains("(first || last)"), "{o}");
    }

    #[test]
    fn oracle_date_literals() {
        let s = select("SELECT * FROM t WHERE d = DATE '1999-06-15'");
        let rendered = Dialect::Oracle.render_select(&s);
        assert!(
            rendered.contains("TO_DATE('1999-06-15', 'YYYY-MM-DD')"),
            "{rendered}"
        );
    }

    #[test]
    fn msql_rejects_aggregates_and_outer_joins() {
        let agg = parse_statement("SELECT COUNT(*) FROM t").unwrap();
        assert!(matches!(
            Dialect::MSql.check(&agg),
            Err(RelError::Unsupported(_))
        ));
        let grp = parse_statement("SELECT x FROM t GROUP BY x").unwrap();
        assert!(Dialect::MSql.check(&grp).is_err());
        let oj = parse_statement("SELECT * FROM a LEFT JOIN b ON a.x = b.y").unwrap();
        assert!(Dialect::MSql.check(&oj).is_err());
        // Plain select fine.
        let ok = parse_statement("SELECT * FROM t WHERE x = 1").unwrap();
        assert!(Dialect::MSql.check(&ok).is_ok());
    }

    #[test]
    fn other_vendors_accept_aggregates() {
        let agg = parse_statement("SELECT COUNT(*) FROM t GROUP BY x").unwrap();
        for d in [
            Dialect::Oracle,
            Dialect::Db2,
            Dialect::Sybase,
            Dialect::Canonical,
        ] {
            assert!(d.check(&agg).is_ok(), "{d} should accept aggregates");
        }
    }

    #[test]
    fn join_rendering() {
        let s = select("SELECT * FROM a x JOIN b y ON x.i = y.i WHERE x.v > 1");
        let r = Dialect::Db2.render_select(&s);
        assert_eq!(
            r,
            "SELECT * FROM a x JOIN b y ON (x.i = y.i) WHERE (x.v > 1)"
        );
    }
}
