//! Recursive-descent SQL parser.
//!
//! Expression precedence, loosest first:
//! `OR` < `AND` < `NOT` < comparison / `LIKE` / `IN` / `BETWEEN` /
//! `IS NULL` < `||` < `+ -` < `* / %` < unary minus < primary.

use crate::expr::{AggFunc, BinOp, Expr, UnaryOp};
use crate::schema::{Column, TableSchema};
use crate::sql::ast::{Join, JoinKind, OrderKey, SelectItem, SelectStmt, Statement, TableRef};
use crate::sql::lexer::{Lexer, Token, TokenKind};
use crate::types::{DataType, Datum};
use crate::{RelError, RelResult};

/// How many expressions may sit inside one another: the whole
/// expression is one level, and each parenthesis, `NOT`, unary minus,
/// `IN` list or aggregate argument inside it one more, as is each
/// operator of a `+ - * / % ||` chain, whose tree grows one level per
/// operator. Parsing, and every walk of the tree it builds, recurses
/// once per level, so without a bound a peer could send a short
/// statement that overflows the thread's stack, which aborts the whole
/// process. `AND` and `OR` lists are flat (see [`Expr::junction`]) and count
/// one level however long they are. The SQL this system writes nests a
/// handful of levels.
pub const MAX_EXPR_DEPTH: usize = 64;

/// Parse a single SQL statement (a trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> RelResult<Statement> {
    let tokens = Lexer::tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let stmt = p.statement()?;
    p.eat_symbol(";");
    p.expect_eof()?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Expressions currently open, bounded by [`MAX_EXPR_DEPTH`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn advance(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> RelResult<T> {
        Err(RelError::Parse {
            message: message.into(),
            offset: self.offset(),
        })
    }

    /// If the next token is keyword `kw` (lowercase), consume it.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), TokenKind::Ident(s) if s == kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> RelResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected keyword {}", kw.to_ascii_uppercase()))
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s == kw)
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), TokenKind::Symbol(s) if *s == sym) {
            self.advance();
            true
        } else {
            false
        }
    }

    /// The operator of the first of `ops` whose symbol comes next,
    /// consumed.
    fn eat_op(&mut self, ops: &[(&str, BinOp)]) -> Option<BinOp> {
        ops.iter()
            .find(|(sym, _)| self.eat_symbol(sym))
            .map(|(_, op)| *op)
    }

    fn expect_symbol(&mut self, sym: &str) -> RelResult<()> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            self.err(format!("expected {sym:?}"))
        }
    }

    /// Open one more level of expression nesting, refusing to go past
    /// [`MAX_EXPR_DEPTH`].
    fn enter(&mut self) -> RelResult<()> {
        if self.depth == MAX_EXPR_DEPTH {
            return Err(RelError::TooDeep {
                limit: MAX_EXPR_DEPTH,
                offset: self.offset(),
            });
        }
        self.depth += 1;
        Ok(())
    }

    /// Parse one more level of expression nesting.
    fn nested(&mut self, level: fn(&mut Parser) -> RelResult<Expr>) -> RelResult<Expr> {
        self.enter()?;
        let e = level(self);
        self.depth -= 1;
        e
    }

    /// `part (kw part)*` as one flat list of the variant `join`; a lone
    /// part is returned as it is.
    fn junction(
        &mut self,
        kw: &str,
        part: fn(&mut Parser) -> RelResult<Expr>,
        join: fn(Vec<Expr>) -> Expr,
    ) -> RelResult<Expr> {
        let first = part(self)?;
        if !self.peek_kw(kw) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.eat_kw(kw) {
            parts.push(part(self)?);
        }
        Ok(Expr::junction(join, parts))
    }

    /// The left-associative chain `operand (op operand)*` over the
    /// operators `ops`. Each operator counts one level against
    /// [`MAX_EXPR_DEPTH`] until the chain ends.
    fn chain(
        &mut self,
        operand: fn(&mut Parser) -> RelResult<Expr>,
        ops: &[(&str, BinOp)],
    ) -> RelResult<Expr> {
        let open = self.depth;
        let mut left = operand(self)?;
        while let Some(op) = self.eat_op(ops) {
            self.enter()?;
            left = Expr::bin(op, left, operand(self)?);
        }
        self.depth = open;
        Ok(left)
    }

    fn expect_eof(&self) -> RelResult<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(RelError::Parse {
                message: format!("unexpected trailing input: {:?}", self.peek()),
                offset: self.offset(),
            })
        }
    }

    fn ident(&mut self) -> RelResult<String> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.advance();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    // ---- statements -------------------------------------------------

    fn statement(&mut self) -> RelResult<Statement> {
        if self.peek_kw("select") {
            return Ok(Statement::Select(self.select()?));
        }
        if self.eat_kw("explain") {
            return Ok(Statement::Explain(Box::new(self.select()?)));
        }
        if self.eat_kw("create") {
            if self.eat_kw("table") {
                return self.create_table();
            }
            if self.eat_kw("index") || (self.eat_kw("unique") && self.eat_kw("index")) {
                return self.create_index();
            }
            return self.err("expected TABLE or INDEX after CREATE");
        }
        if self.eat_kw("drop") {
            self.expect_kw("table")?;
            let if_exists = if self.eat_kw("if") {
                self.expect_kw("exists")?;
                true
            } else {
                false
            };
            let name = self.ident()?;
            return Ok(Statement::DropTable { name, if_exists });
        }
        if self.eat_kw("insert") {
            return self.insert();
        }
        if self.eat_kw("update") {
            return self.update();
        }
        if self.eat_kw("delete") {
            return self.delete();
        }
        if self.eat_kw("begin") {
            self.eat_kw("transaction");
            self.eat_kw("work");
            return Ok(Statement::Begin);
        }
        if self.eat_kw("commit") {
            self.eat_kw("work");
            return Ok(Statement::Commit);
        }
        if self.eat_kw("rollback") {
            self.eat_kw("work");
            return Ok(Statement::Rollback);
        }
        self.err(format!("unrecognized statement start: {:?}", self.peek()))
    }

    fn create_table(&mut self) -> RelResult<Statement> {
        let name = self.ident()?;
        self.expect_symbol("(")?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.ident()?;
            let type_name = self.ident()?;
            // Swallow optional (n) / (p, s) length arguments.
            if self.eat_symbol("(") {
                loop {
                    match self.advance() {
                        TokenKind::Symbol(")") => break,
                        TokenKind::Eof => return self.err("unterminated type arguments"),
                        _ => {}
                    }
                }
            }
            let data_type = DataType::parse(&type_name).ok_or_else(|| RelError::Parse {
                message: format!("unknown type {type_name}"),
                offset: self.offset(),
            })?;
            let mut col = Column::new(col_name, data_type);
            loop {
                if self.eat_kw("primary") {
                    self.expect_kw("key")?;
                    col = col.primary_key();
                } else if self.eat_kw("not") {
                    self.expect_kw("null")?;
                    col = col.not_null();
                } else {
                    break;
                }
            }
            columns.push(col);
            if self.eat_symbol(",") {
                // Table-level PRIMARY KEY (a, b) constraint.
                if self.peek_kw("primary") {
                    self.advance();
                    self.expect_kw("key")?;
                    self.expect_symbol("(")?;
                    loop {
                        let key_col = self.ident()?;
                        let lower = key_col.to_ascii_lowercase();
                        match columns.iter_mut().find(|c| c.name == lower) {
                            Some(c) => {
                                c.primary_key = true;
                                c.not_null = true;
                            }
                            None => {
                                return self
                                    .err(format!("PRIMARY KEY names unknown column {key_col}"))
                            }
                        }
                        if !self.eat_symbol(",") {
                            break;
                        }
                    }
                    self.expect_symbol(")")?;
                    self.expect_symbol(")")?;
                    break;
                }
                continue;
            }
            self.expect_symbol(")")?;
            break;
        }
        Ok(Statement::CreateTable(TableSchema::new(name, columns)))
    }

    fn create_index(&mut self) -> RelResult<Statement> {
        let name = self.ident()?;
        self.expect_kw("on")?;
        let table = self.ident()?;
        self.expect_symbol("(")?;
        let column = self.ident()?;
        self.expect_symbol(")")?;
        Ok(Statement::CreateIndex {
            name,
            table,
            column,
        })
    }

    fn insert(&mut self) -> RelResult<Statement> {
        self.expect_kw("into")?;
        let table = self.ident()?;
        let columns = if self.eat_symbol("(") {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_symbol("(")?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            rows.push(row);
            if !self.eat_symbol(",") {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn update(&mut self) -> RelResult<Statement> {
        let table = self.ident()?;
        self.expect_kw("set")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_symbol("=")?;
            let value = self.expr()?;
            assignments.push((col, value));
            if !self.eat_symbol(",") {
                break;
            }
        }
        let filter = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            filter,
        })
    }

    fn delete(&mut self) -> RelResult<Statement> {
        self.expect_kw("from")?;
        let table = self.ident()?;
        let filter = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, filter })
    }

    fn select(&mut self) -> RelResult<SelectStmt> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        self.eat_kw("all");

        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat_symbol(",") {
                break;
            }
        }

        self.expect_kw("from")?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            if self.eat_symbol(",") {
                let table = self.table_ref()?;
                joins.push(Join {
                    kind: JoinKind::Cross,
                    table,
                    on: None,
                });
            } else if self.peek_kw("join") || self.peek_kw("inner") {
                self.eat_kw("inner");
                self.expect_kw("join")?;
                let table = self.table_ref()?;
                self.expect_kw("on")?;
                let on = self.expr()?;
                joins.push(Join {
                    kind: JoinKind::Inner,
                    table,
                    on: Some(on),
                });
            } else if self.peek_kw("left") {
                self.advance();
                self.eat_kw("outer");
                self.expect_kw("join")?;
                let table = self.table_ref()?;
                self.expect_kw("on")?;
                let on = self.expr()?;
                joins.push(Join {
                    kind: JoinKind::Left,
                    table,
                    on: Some(on),
                });
            } else {
                break;
            }
        }

        let filter = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }

        let having = if self.eat_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderKey { expr, desc });
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }

        let limit = if self.eat_kw("limit") {
            match self.advance() {
                TokenKind::Int(n) if n >= 0 => Some(n as u64),
                _ => return self.err("expected non-negative integer after LIMIT"),
            }
        } else {
            None
        };

        Ok(SelectStmt {
            distinct,
            items,
            from,
            joins,
            filter,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn select_item(&mut self) -> RelResult<SelectItem> {
        if self.eat_symbol("*") {
            return Ok(SelectItem::Wildcard);
        }
        // alias.* form requires two-token lookahead.
        if let TokenKind::Ident(name) = self.peek().clone() {
            if self.tokens.get(self.pos + 1).map(|t| &t.kind) == Some(&TokenKind::Symbol("."))
                && self.tokens.get(self.pos + 2).map(|t| &t.kind) == Some(&TokenKind::Symbol("*"))
            {
                self.advance();
                self.advance();
                self.advance();
                return Ok(SelectItem::QualifiedWildcard(name));
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else if let TokenKind::Ident(s) = self.peek() {
            // Bare alias, but not a clause keyword.
            const CLAUSE_KEYWORDS: &[&str] = &[
                "from", "where", "group", "having", "order", "limit", "join", "inner", "left",
                "on", "union",
            ];
            if CLAUSE_KEYWORDS.contains(&s.as_str()) {
                None
            } else {
                Some(self.ident()?)
            }
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> RelResult<TableRef> {
        let name = self.ident()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else if let TokenKind::Ident(s) = self.peek() {
            const CLAUSE_KEYWORDS: &[&str] = &[
                "where", "group", "having", "order", "limit", "join", "inner", "left", "on", "set",
                "union",
            ];
            if CLAUSE_KEYWORDS.contains(&s.as_str()) {
                None
            } else {
                Some(self.ident()?)
            }
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    // ---- expressions -------------------------------------------------

    /// Public entry for expression parsing (used by the dialect tests).
    pub(crate) fn expr(&mut self) -> RelResult<Expr> {
        self.nested(Parser::or_expr)
    }

    fn or_expr(&mut self) -> RelResult<Expr> {
        self.junction("or", Parser::and_expr, Expr::Or)
    }

    fn and_expr(&mut self) -> RelResult<Expr> {
        self.junction("and", Parser::not_expr, Expr::And)
    }

    fn not_expr(&mut self) -> RelResult<Expr> {
        if self.eat_kw("not") {
            let inner = self.nested(Parser::not_expr)?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> RelResult<Expr> {
        let left = self.concat_expr()?;

        // IS [NOT] NULL
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }

        // [NOT] IN / BETWEEN / LIKE
        let negated = self.eat_kw("not");
        if self.eat_kw("in") {
            self.expect_symbol("(")?;
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_kw("between") {
            let low = self.concat_expr()?;
            self.expect_kw("and")?;
            let high = self.concat_expr()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("like") {
            let pattern = self.concat_expr()?;
            let like = Expr::bin(BinOp::Like, left, pattern);
            return Ok(if negated {
                Expr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(like),
                }
            } else {
                like
            });
        }
        if negated {
            return self.err("expected IN, BETWEEN, or LIKE after NOT");
        }

        // Plain comparison operators.
        let op = self.eat_op(&[
            ("=", BinOp::Eq),
            ("<>", BinOp::Ne),
            ("!=", BinOp::Ne),
            ("<=", BinOp::Le),
            (">=", BinOp::Ge),
            ("<", BinOp::Lt),
            (">", BinOp::Gt),
        ]);
        match op {
            Some(op) => {
                let right = self.concat_expr()?;
                Ok(Expr::bin(op, left, right))
            }
            None => Ok(left),
        }
    }

    fn concat_expr(&mut self) -> RelResult<Expr> {
        self.chain(Parser::additive, &[("||", BinOp::Concat)])
    }

    fn additive(&mut self) -> RelResult<Expr> {
        self.chain(
            Parser::multiplicative,
            &[("+", BinOp::Add), ("-", BinOp::Sub)],
        )
    }

    fn multiplicative(&mut self) -> RelResult<Expr> {
        let ops = [("*", BinOp::Mul), ("/", BinOp::Div), ("%", BinOp::Mod)];
        self.chain(Parser::unary, &ops)
    }

    fn unary(&mut self) -> RelResult<Expr> {
        if self.eat_symbol("-") {
            let inner = self.nested(Parser::unary)?;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> RelResult<Expr> {
        match self.peek().clone() {
            TokenKind::Int(n) => {
                self.advance();
                Ok(Expr::lit(Datum::Int(n)))
            }
            TokenKind::Float(f) => {
                self.advance();
                Ok(Expr::lit(Datum::Double(f)))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::lit(Datum::Text(s)))
            }
            TokenKind::Symbol("(") => {
                self.advance();
                let e = self.expr()?;
                self.expect_symbol(")")?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.advance();
                match name.as_str() {
                    "null" => return Ok(Expr::lit(Datum::Null)),
                    "true" => return Ok(Expr::lit(Datum::Bool(true))),
                    "false" => return Ok(Expr::lit(Datum::Bool(false))),
                    "date" => {
                        // DATE 'YYYY-MM-DD' literal.
                        if let TokenKind::Str(s) = self.peek().clone() {
                            self.advance();
                            return match crate::types::parse_date(&s) {
                                Some(d) => Ok(Expr::lit(Datum::Date(d))),
                                None => self.err(format!("invalid DATE literal '{s}'")),
                            };
                        }
                    }
                    _ => {}
                }
                // Aggregate call?
                if let Some(func) = agg_func(&name) {
                    if self.eat_symbol("(") {
                        if self.eat_symbol("*") {
                            self.expect_symbol(")")?;
                            if func != AggFunc::Count {
                                return self.err(format!("{name}(*) is only valid for COUNT"));
                            }
                            return Ok(Expr::Aggregate {
                                func,
                                arg: None,
                                distinct: false,
                            });
                        }
                        let distinct = self.eat_kw("distinct");
                        let arg = self.expr()?;
                        self.expect_symbol(")")?;
                        return Ok(Expr::Aggregate {
                            func,
                            arg: Some(Box::new(arg)),
                            distinct,
                        });
                    }
                }
                // Qualified column?
                if self.eat_symbol(".") {
                    let col = self.ident()?;
                    return Ok(Expr::Column {
                        table: Some(name),
                        name: col,
                    });
                }
                Ok(Expr::Column { table: None, name })
            }
            other => self.err(format!("unexpected token in expression: {other:?}")),
        }
    }
}

fn agg_func(name: &str) -> Option<AggFunc> {
    Some(match name {
        "count" => AggFunc::Count,
        "sum" => AggFunc::Sum,
        "avg" => AggFunc::Avg,
        "min" => AggFunc::Min,
        "max" => AggFunc::Max,
        _ => None?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(sql: &str) -> Statement {
        parse_statement(sql).unwrap()
    }

    #[test]
    fn parses_the_papers_funding_query() {
        // The exact query WebTassili generates in Section 2.3.
        let stmt =
            parse("Select a.Funding From ResearchProjects a Where a.Title = 'AIDS and drugs'");
        match stmt {
            Statement::Select(s) => {
                assert_eq!(s.from.name, "researchprojects");
                assert_eq!(s.from.alias.as_deref(), Some("a"));
                assert_eq!(s.items.len(), 1);
                match &s.items[0] {
                    SelectItem::Expr { expr, alias: None } => {
                        assert_eq!(*expr, Expr::qcol("a", "funding"));
                    }
                    other => panic!("unexpected item {other:?}"),
                }
                assert_eq!(
                    s.filter,
                    Some(Expr::bin(
                        BinOp::Eq,
                        Expr::qcol("a", "title"),
                        Expr::lit(Datum::Text("AIDS and drugs".into()))
                    ))
                );
            }
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn parses_select_star_from_medical_students() {
        // The Section 5 screenshot query.
        let stmt = parse("select * from medical_students");
        match stmt {
            Statement::Select(s) => {
                assert_eq!(s.items, vec![SelectItem::Wildcard]);
                assert_eq!(s.from.name, "medical_students");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn create_table_with_constraints() {
        let stmt = parse(
            "CREATE TABLE Patient (Patient_Id INT PRIMARY KEY, Name VARCHAR(40) NOT NULL, \
             Date_Of_Birth DATE, Gender CHAR(1), Address TEXT)",
        );
        match stmt {
            Statement::CreateTable(schema) => {
                assert_eq!(schema.name, "patient");
                assert_eq!(schema.arity(), 5);
                assert!(schema.columns[0].primary_key);
                assert!(schema.columns[1].not_null);
                assert_eq!(schema.columns[2].data_type, DataType::Date);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn create_table_with_table_level_pk() {
        let stmt = parse(
            "CREATE TABLE occupancy (bed_id INT, patient_id INT, date_from DATE, \
             PRIMARY KEY (bed_id, patient_id))",
        );
        match stmt {
            Statement::CreateTable(schema) => {
                assert_eq!(schema.primary_key_indices(), vec![0, 1]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_multi_row() {
        let stmt = parse("INSERT INTO beds (bed_id, location) VALUES (1, 'A'), (2, 'B')");
        match stmt {
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                assert_eq!(table, "beds");
                assert_eq!(columns.unwrap(), vec!["bed_id", "location"]);
                assert_eq!(rows.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_and_delete() {
        match parse("UPDATE beds SET location = 'C' WHERE bed_id = 1") {
            Statement::Update {
                assignments,
                filter,
                ..
            } => {
                assert_eq!(assignments.len(), 1);
                assert!(filter.is_some());
            }
            other => panic!("{other:?}"),
        }
        match parse("DELETE FROM beds") {
            Statement::Delete { filter: None, .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn joins() {
        let stmt = parse(
            "SELECT p.name, h.description FROM patient p \
             JOIN history h ON p.patient_id = h.patient_id \
             LEFT JOIN doctors d ON h.doctor_id = d.employee_id \
             WHERE p.gender = 'F'",
        );
        match stmt {
            Statement::Select(s) => {
                assert_eq!(s.joins.len(), 2);
                assert_eq!(s.joins[0].kind, JoinKind::Inner);
                assert_eq!(s.joins[1].kind, JoinKind::Left);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn comma_cross_join() {
        let stmt = parse("SELECT * FROM a, b WHERE a.x = b.y");
        match stmt {
            Statement::Select(s) => {
                assert_eq!(s.joins.len(), 1);
                assert_eq!(s.joins[0].kind, JoinKind::Cross);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn group_by_having_order_limit() {
        let stmt = parse(
            "SELECT doctor_id, COUNT(*) n, AVG(funding) FROM researchprojects \
             GROUP BY doctor_id HAVING COUNT(*) > 2 \
             ORDER BY n DESC, doctor_id LIMIT 10",
        );
        match stmt {
            Statement::Select(s) => {
                assert_eq!(s.group_by.len(), 1);
                assert!(s.having.is_some());
                assert_eq!(s.order_by.len(), 2);
                assert!(s.order_by[0].desc);
                assert!(!s.order_by[1].desc);
                assert_eq!(s.limit, Some(10));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn distinct_and_qualified_wildcard() {
        let stmt = parse("SELECT DISTINCT p.* FROM patient p");
        match stmt {
            Statement::Select(s) => {
                assert!(s.distinct);
                assert_eq!(s.items, vec![SelectItem::QualifiedWildcard("p".into())]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let stmt = parse("SELECT 1 + 2 * 3 FROM t");
        match stmt {
            Statement::Select(s) => match &s.items[0] {
                SelectItem::Expr { expr, .. } => {
                    assert_eq!(
                        *expr,
                        Expr::bin(
                            BinOp::Add,
                            Expr::lit(Datum::Int(1)),
                            Expr::bin(
                                BinOp::Mul,
                                Expr::lit(Datum::Int(2)),
                                Expr::lit(Datum::Int(3))
                            )
                        )
                    );
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn not_in_between_like_null() {
        parse("SELECT * FROM t WHERE x NOT IN (1, 2) AND y BETWEEN 1 AND 5 AND z LIKE 'a%' AND w IS NOT NULL");
        parse("SELECT * FROM t WHERE NOT (x = 1)");
        parse("SELECT * FROM t WHERE d = DATE '1999-06-15'");
    }

    #[test]
    fn transactions() {
        assert_eq!(parse("BEGIN"), Statement::Begin);
        assert_eq!(parse("BEGIN TRANSACTION"), Statement::Begin);
        assert_eq!(parse("COMMIT"), Statement::Commit);
        assert_eq!(parse("ROLLBACK WORK"), Statement::Rollback);
    }

    #[test]
    fn errors_carry_offsets() {
        // "FROM" is lexically an identifier, so the parser reads it as a
        // projection column and trips later; what matters is that the
        // error carries a sane offset into the statement.
        match parse_statement("SELECT FROM t") {
            Err(RelError::Parse { offset, .. }) => assert!(offset > 0 && offset <= 13),
            other => panic!("{other:?}"),
        }
        assert!(parse_statement("SELECT * FROM t WHERE x NOT 5").is_err());
        assert!(parse_statement("SELECT * FROM t LIMIT -1").is_err());
        assert!(parse_statement("SELECT * FROM t extra garbage !").is_err());
        assert!(parse_statement("CREATE TABLE t (x BLOB)").is_err());
        assert!(parse_statement("SELECT SUM(*) FROM t").is_err());
    }

    /// Nesting up to the limit parses and one level more is refused.
    /// Without the limit, 20 000 nested parentheses or `NOT`s, or a
    /// chain of 20 000 `+`s, recurse once per level and overflow a
    /// 2 MiB thread stack, which aborts the process.
    #[test]
    fn deep_nesting_is_refused_on_a_small_stack() {
        let parens = |n: usize| format!("SELECT {}1{} FROM t", "(".repeat(n), ")".repeat(n));
        let nots = |n: usize| format!("SELECT * FROM t WHERE {}x = 1", "NOT ".repeat(n));
        let chain = |n: usize| format!("SELECT 1{} FROM t", " + 1".repeat(n));
        // The whole expression is the first level.
        let under = MAX_EXPR_DEPTH - 1;
        for sql in [parens(under), nots(under), chain(under)] {
            assert!(parse_statement(&sql).is_ok(), "{sql}");
        }
        let at = MAX_EXPR_DEPTH;
        for sql in [parens(at), nots(at), chain(at)] {
            assert!(
                matches!(
                    parse_statement(&sql),
                    Err(RelError::TooDeep { limit: 64, .. })
                ),
                "{sql}"
            );
        }
        let deep = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                [parens(20_000), nots(20_000), chain(20_000)].map(|sql| parse_statement(&sql))
            })
            .unwrap()
            .join()
            .expect("parser thread returns");
        for res in deep {
            assert!(matches!(res, Err(RelError::TooDeep { .. })), "{res:?}");
        }
    }

    #[test]
    fn trailing_semicolon_ok() {
        parse("SELECT * FROM t;");
    }
}
