//! WebTassili recursive-descent parser.
//!
//! Multi-word names ("Royal Brisbane Hospital") are parsed by consuming
//! words until a structural keyword (`Of`, `To`, `From`, `Under`,
//! `Documentation`, `Description`) or a terminator (`;`, end of input).

use crate::ast::{Arg, FedScope, LinkTarget, Literal, PredOp, Predicate, SemiJoin, Statement};
use crate::lexer::{tokenize, Spanned, Tok};
use crate::{TassiliError, TassiliResult};

/// How deeply a statement may nest: each `Explain` prefix is one
/// level, and so is each parenthesis or `Not` in a predicate argument.
/// Parsing recurses once per level, so without a bound a peer could
/// send a short statement that overflows the parsing thread's stack,
/// which aborts the whole process.
pub const MAX_DEPTH: usize = 64;

/// Parse one WebTassili statement (trailing `;` optional).
pub fn parse(input: &str) -> TassiliResult<Statement> {
    let toks = tokenize(input)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let stmt = p.statement()?;
    p.eat_sym(";");
    p.expect_eof()?;
    Ok(stmt)
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Levels currently open, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl Parser {
    /// Parse one more level of nesting, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested<T>(&mut self, level: fn(&mut Parser) -> TassiliResult<T>) -> TassiliResult<T> {
        if self.depth == MAX_DEPTH {
            return Err(TassiliError::TooDeep {
                limit: MAX_DEPTH,
                offset: self.offset(),
            });
        }
        self.depth += 1;
        let t = level(self);
        self.depth -= 1;
        t
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

    fn err<T>(&self, msg: impl Into<String>) -> TassiliResult<T> {
        Err(TassiliError::Parse {
            message: msg.into(),
            offset: self.offset(),
        })
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Word(w) if w.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> TassiliResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected '{kw}'"))
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Tok::Sym(s) if *s == sym) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_eof(&self) -> TassiliResult<()> {
        if matches!(self.peek(), Tok::Eof) {
            Ok(())
        } else {
            Err(TassiliError::Parse {
                message: format!("unexpected trailing input: {:?}", self.peek()),
                offset: self.offset(),
            })
        }
    }

    fn word(&mut self) -> TassiliResult<String> {
        match self.bump() {
            Tok::Word(w) => Ok(w),
            other => self.err(format!("expected a word, found {other:?}")),
        }
    }

    /// Consume words into a multi-word name until a stop keyword, a
    /// symbol, or end of input. At least one word is required.
    fn name_until(&mut self, stops: &[&str]) -> TassiliResult<String> {
        let mut words = Vec::new();
        loop {
            match self.peek() {
                Tok::Word(w) if !stops.iter().any(|s| w.eq_ignore_ascii_case(s)) => {
                    words.push(self.word()?);
                }
                _ => break,
            }
        }
        if words.is_empty() {
            self.err("expected a name")
        } else {
            Ok(words.join(" "))
        }
    }

    fn statement(&mut self) -> TassiliResult<Statement> {
        if self.eat_kw("find") {
            let kind = self.word()?;
            self.expect_kw("with")?;
            self.expect_kw("information")?;
            let topic = self.name_until(&[])?;
            return if kind.eq_ignore_ascii_case("coalitions") {
                Ok(Statement::FindCoalitions { topic })
            } else if kind.eq_ignore_ascii_case("databases") {
                Ok(Statement::FindDatabases { topic })
            } else {
                self.err("expected Coalitions or Databases after Find")
            };
        }
        if self.eat_kw("connect") {
            self.expect_kw("to")?;
            self.expect_kw("coalition")?;
            let name = self.name_until(&[])?;
            return Ok(Statement::ConnectToCoalition { name });
        }
        if self.eat_kw("display") {
            if self.eat_kw("subclasses") {
                self.expect_kw("of")?;
                self.expect_kw("class")?;
                let class = self.name_until(&[])?;
                return Ok(Statement::DisplaySubclasses { class });
            }
            if self.eat_kw("instances") {
                self.expect_kw("of")?;
                self.expect_kw("class")?;
                let class = self.name_until(&[])?;
                return Ok(Statement::DisplayInstances { class });
            }
            if self.eat_kw("document") || self.eat_kw("documentation") {
                self.expect_kw("of")?;
                self.expect_kw("instance")?;
                let instance = self.name_until(&["of"])?;
                let class = if self.eat_kw("of") {
                    self.expect_kw("class")?;
                    Some(self.name_until(&[])?)
                } else {
                    None
                };
                return Ok(Statement::DisplayDocument { instance, class });
            }
            if self.eat_kw("access") {
                self.expect_kw("information")?;
                self.expect_kw("of")?;
                self.expect_kw("instance")?;
                let instance = self.name_until(&[])?;
                return Ok(Statement::DisplayAccessInfo { instance });
            }
            if self.eat_kw("interface") {
                self.expect_kw("of")?;
                self.expect_kw("instance")?;
                let instance = self.name_until(&[])?;
                return Ok(Statement::DisplayInterface { instance });
            }
            return self.err(
                "expected SubClasses, Instances, Document, Access, or Interface after Display",
            );
        }
        if self.eat_kw("invoke") {
            let type_name = self.word()?;
            if !self.eat_sym(".") {
                return self.err("expected '.' after type name");
            }
            let function = self.word()?;
            if !self.eat_sym("(") {
                return self.err("expected '(' after function name");
            }
            let mut args = Vec::new();
            if !self.eat_sym(")") {
                loop {
                    args.push(self.arg()?);
                    if self.eat_sym(",") {
                        continue;
                    }
                    if self.eat_sym(")") {
                        break;
                    }
                    return self.err("expected ',' or ')' in argument list");
                }
            }
            if self.eat_kw("at") {
                let scope = self.fed_scope()?;
                let semi = if self.eat_kw("where") {
                    Some(self.semi_join()?)
                } else {
                    None
                };
                let limit = if self.eat_kw("limit") {
                    match self.bump() {
                        Tok::Int(n) if n >= 0 => Some(n as u64),
                        other => {
                            return self
                                .err(format!("expected a row count after Limit, found {other:?}"))
                        }
                    }
                } else {
                    None
                };
                return Ok(Statement::FedInvoke {
                    type_name,
                    function,
                    args,
                    scope,
                    semi,
                    limit,
                });
            }
            self.expect_kw("on")?;
            self.expect_kw("instance")?;
            let instance = self.name_until(&[])?;
            return Ok(Statement::Invoke {
                instance,
                type_name,
                function,
                args,
            });
        }
        if self.eat_kw("submit") {
            self.expect_kw("native")?;
            let query = match self.bump() {
                Tok::Str(s) => s,
                other => return self.err(format!("expected a quoted query, found {other:?}")),
            };
            self.expect_kw("to")?;
            self.expect_kw("instance")?;
            let instance = self.name_until(&[])?;
            return Ok(Statement::Native { instance, query });
        }
        if self.eat_kw("create") {
            self.expect_kw("coalition")?;
            let name = self.name_until(&["under", "documentation"])?;
            let parent = if self.eat_kw("under") {
                Some(self.name_until(&["documentation"])?)
            } else {
                None
            };
            let documentation = if self.eat_kw("documentation") {
                match self.bump() {
                    Tok::Str(s) => Some(s),
                    other => return self.err(format!("expected a quoted string, found {other:?}")),
                }
            } else {
                None
            };
            return Ok(Statement::CreateCoalition {
                name,
                parent,
                documentation,
            });
        }
        if self.eat_kw("dissolve") {
            self.expect_kw("coalition")?;
            let name = self.name_until(&[])?;
            return Ok(Statement::DissolveCoalition { name });
        }
        if self.eat_kw("join") {
            self.expect_kw("instance")?;
            let instance = self.name_until(&["to"])?;
            self.expect_kw("to")?;
            self.expect_kw("coalition")?;
            let coalition = self.name_until(&[])?;
            return Ok(Statement::Join {
                instance,
                coalition,
            });
        }
        if self.eat_kw("leave") {
            self.expect_kw("instance")?;
            let instance = self.name_until(&["from"])?;
            self.expect_kw("from")?;
            self.expect_kw("coalition")?;
            let coalition = self.name_until(&[])?;
            return Ok(Statement::Leave {
                instance,
                coalition,
            });
        }
        if self.eat_kw("link") {
            let from = self.link_target(&["to"])?;
            self.expect_kw("to")?;
            let to = self.link_target(&["description"])?;
            let description = if self.eat_kw("description") {
                match self.bump() {
                    Tok::Str(s) => Some(s),
                    other => return self.err(format!("expected a quoted string, found {other:?}")),
                }
            } else {
                None
            };
            return Ok(Statement::AddLink {
                from,
                to,
                description,
            });
        }
        if self.eat_kw("explain") {
            let inner = self.nested(Parser::statement)?;
            return Ok(Statement::Explain(Box::new(inner)));
        }
        self.err(format!("unrecognized statement start: {:?}", self.peek()))
    }

    /// `Coalition <name>` or `Sites With Information <topic>` (the `At`
    /// keyword has already been consumed).
    fn fed_scope(&mut self) -> TassiliResult<FedScope> {
        if self.eat_kw("coalition") {
            let name = self.name_until(&["where", "limit"])?;
            return Ok(FedScope::Coalition(name));
        }
        if self.eat_kw("sites") {
            self.expect_kw("with")?;
            self.expect_kw("information")?;
            let topic = self.name_until(&["where", "limit"])?;
            return Ok(FedScope::Topic(topic));
        }
        self.err("expected Coalition or Sites after At")
    }

    /// `<probe path> In <BuildType>.<BuildAttr>(args…)` (the `Where`
    /// keyword has already been consumed).
    fn semi_join(&mut self) -> TassiliResult<SemiJoin> {
        let probe_attr = self.dotted_path()?;
        self.expect_kw("in")?;
        let build_type = self.word()?;
        if !self.eat_sym(".") {
            return self.err("expected '.' after the build-side type name");
        }
        let build_attr = self.word()?;
        if !self.eat_sym("(") {
            return self.err("expected '(' after the build-side attribute");
        }
        let mut build_args = Vec::new();
        if !self.eat_sym(")") {
            loop {
                build_args.push(self.arg()?);
                if self.eat_sym(",") {
                    continue;
                }
                if self.eat_sym(")") {
                    break;
                }
                return self.err("expected ',' or ')' in the build-side argument list");
            }
        }
        Ok(SemiJoin {
            probe_attr,
            build_type,
            build_attr,
            build_args,
        })
    }

    fn link_target(&mut self, stops: &[&str]) -> TassiliResult<LinkTarget> {
        if self.eat_kw("coalition") {
            Ok(LinkTarget::Coalition(self.name_until(stops)?))
        } else if self.eat_kw("instance") {
            Ok(LinkTarget::Instance(self.name_until(stops)?))
        } else {
            self.err("expected Coalition or Instance")
        }
    }

    fn arg(&mut self) -> TassiliResult<Arg> {
        match self.peek().clone() {
            // A parenthesized predicate. The paren is part of the
            // predicate grammar (grouping), so pred_not consumes it —
            // this also makes `((a) Or (b))` parse as one argument.
            Tok::Sym("(") => Ok(Arg::Predicate(self.pred_or()?)),
            Tok::Str(s) => {
                self.bump();
                Ok(Arg::Literal(Literal::Str(s)))
            }
            Tok::Int(v) => {
                self.bump();
                Ok(Arg::Literal(Literal::Int(v)))
            }
            Tok::Float(v) => {
                self.bump();
                Ok(Arg::Literal(Literal::Float(v)))
            }
            Tok::Word(w) if w.eq_ignore_ascii_case("true") => {
                self.bump();
                Ok(Arg::Literal(Literal::Bool(true)))
            }
            Tok::Word(w) if w.eq_ignore_ascii_case("false") => {
                self.bump();
                Ok(Arg::Literal(Literal::Bool(false)))
            }
            Tok::Word(_) => Ok(Arg::AttrRef(self.dotted_path()?)),
            other => self.err(format!("unexpected token in arguments: {other:?}")),
        }
    }

    fn dotted_path(&mut self) -> TassiliResult<String> {
        let mut path = self.word()?;
        while self.eat_sym(".") {
            path.push('.');
            path.push_str(&self.word()?);
        }
        Ok(path)
    }

    fn pred_or(&mut self) -> TassiliResult<Predicate> {
        let mut left = self.pred_and()?;
        while self.eat_kw("or") {
            let right = self.pred_and()?;
            left = Predicate::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn pred_and(&mut self) -> TassiliResult<Predicate> {
        let mut left = self.pred_not()?;
        while self.eat_kw("and") {
            let right = self.pred_not()?;
            left = Predicate::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn pred_not(&mut self) -> TassiliResult<Predicate> {
        if self.eat_kw("not") {
            let inner = self.nested(Parser::pred_not)?;
            return Ok(Predicate::Not(Box::new(inner)));
        }
        if self.eat_sym("(") {
            let inner = self.nested(Parser::pred_or)?;
            if !self.eat_sym(")") {
                return self.err("expected ')'");
            }
            return Ok(inner);
        }
        let path = self.dotted_path()?;
        if self.eat_kw("in") {
            if !self.eat_sym("(") {
                return self.err("expected '(' after In");
            }
            let mut values = vec![self.literal()?];
            while self.eat_sym(",") {
                values.push(self.literal()?);
            }
            if !self.eat_sym(")") {
                return self.err("expected ')' after the In list");
            }
            return Ok(Predicate::InList { path, values });
        }
        if self.eat_kw("like") {
            let value = self.literal()?;
            return Ok(Predicate::Cmp {
                path,
                op: PredOp::Like,
                value,
            });
        }
        let op = match self.bump() {
            Tok::Sym("=") => PredOp::Eq,
            Tok::Sym("<>") => PredOp::Ne,
            Tok::Sym("<=") => PredOp::Le,
            Tok::Sym(">=") => PredOp::Ge,
            Tok::Sym("<") => PredOp::Lt,
            Tok::Sym(">") => PredOp::Gt,
            other => return self.err(format!("expected comparison, found {other:?}")),
        };
        let value = self.literal()?;
        Ok(Predicate::Cmp { path, op, value })
    }

    fn literal(&mut self) -> TassiliResult<Literal> {
        match self.bump() {
            Tok::Str(s) => Ok(Literal::Str(s)),
            Tok::Int(v) => Ok(Literal::Int(v)),
            Tok::Float(v) => Ok(Literal::Float(v)),
            Tok::Word(w) if w.eq_ignore_ascii_case("true") => Ok(Literal::Bool(true)),
            Tok::Word(w) if w.eq_ignore_ascii_case("false") => Ok(Literal::Bool(false)),
            other => self.err(format!("expected a literal, found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_papers_exploration_queries() {
        assert_eq!(
            parse("Find Coalitions With Information Medical Research;").unwrap(),
            Statement::FindCoalitions {
                topic: "Medical Research".into()
            }
        );
        assert_eq!(
            parse("Find Coalitions With Information Medical Insurance;").unwrap(),
            Statement::FindCoalitions {
                topic: "Medical Insurance".into()
            }
        );
        assert_eq!(
            parse("Connect To Coalition Research;").unwrap(),
            Statement::ConnectToCoalition {
                name: "Research".into()
            }
        );
        assert_eq!(
            parse("Display SubClasses of Class Research").unwrap(),
            Statement::DisplaySubclasses {
                class: "Research".into()
            }
        );
        assert_eq!(
            parse("Display Instances of Class Research;").unwrap(),
            Statement::DisplayInstances {
                class: "Research".into()
            }
        );
        assert_eq!(
            parse("Display Document of Instance Royal Brisbane Hospital Of Class Research;")
                .unwrap(),
            Statement::DisplayDocument {
                instance: "Royal Brisbane Hospital".into(),
                class: Some("Research".into())
            }
        );
        assert_eq!(
            parse("Display Access Information of Instance Royal Brisbane Hospital;").unwrap(),
            Statement::DisplayAccessInfo {
                instance: "Royal Brisbane Hospital".into()
            }
        );
    }

    #[test]
    fn the_papers_funding_invocation() {
        let stmt = parse(
            "Invoke ResearchProjects.Funding(ResearchProjects.Title, \
             (ResearchProjects.Title = 'AIDS and drugs')) On Instance Royal Brisbane Hospital;",
        )
        .unwrap();
        match stmt {
            Statement::Invoke {
                instance,
                type_name,
                function,
                args,
            } => {
                assert_eq!(instance, "Royal Brisbane Hospital");
                assert_eq!(type_name, "ResearchProjects");
                assert_eq!(function, "Funding");
                assert_eq!(args.len(), 2);
                assert_eq!(args[0], Arg::AttrRef("ResearchProjects.Title".into()));
                assert_eq!(
                    args[1],
                    Arg::Predicate(Predicate::Cmp {
                        path: "ResearchProjects.Title".into(),
                        op: PredOp::Eq,
                        value: Literal::Str("AIDS and drugs".into())
                    })
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn native_submission() {
        let stmt = parse(
            "Submit Native 'select * from medical_students' To Instance Royal Brisbane Hospital",
        )
        .unwrap();
        assert_eq!(
            stmt,
            Statement::Native {
                instance: "Royal Brisbane Hospital".into(),
                query: "select * from medical_students".into()
            }
        );
    }

    #[test]
    fn management_statements() {
        assert_eq!(
            parse("Create Coalition Medical Insurance Under Medical Documentation 'insurers';")
                .unwrap(),
            Statement::CreateCoalition {
                name: "Medical Insurance".into(),
                parent: Some("Medical".into()),
                documentation: Some("insurers".into())
            }
        );
        assert_eq!(
            parse("Dissolve Coalition Superannuation;").unwrap(),
            Statement::DissolveCoalition {
                name: "Superannuation".into()
            }
        );
        assert_eq!(
            parse("Join Instance Prince Charles Hospital To Coalition Medical;").unwrap(),
            Statement::Join {
                instance: "Prince Charles Hospital".into(),
                coalition: "Medical".into()
            }
        );
        assert_eq!(
            parse("Leave Instance AMP From Coalition Superannuation;").unwrap(),
            Statement::Leave {
                instance: "AMP".into(),
                coalition: "Superannuation".into()
            }
        );
        assert_eq!(
            parse("Link Coalition Medical To Coalition Medical Insurance Description 'medical cover';")
                .unwrap(),
            Statement::AddLink {
                from: LinkTarget::Coalition("Medical".into()),
                to: LinkTarget::Coalition("Medical Insurance".into()),
                description: Some("medical cover".into())
            }
        );
        assert_eq!(
            parse("Link Instance Ambulance To Coalition Medical;").unwrap(),
            Statement::AddLink {
                from: LinkTarget::Instance("Ambulance".into()),
                to: LinkTarget::Coalition("Medical".into()),
                description: None
            }
        );
    }

    #[test]
    fn complex_predicates() {
        let stmt =
            parse("Invoke T.F((A.x > 3 And A.y Like 'z%') Or Not (A.w = true)) On Instance D;")
                .unwrap();
        match stmt {
            Statement::Invoke { args, .. } => {
                assert!(matches!(args[0], Arg::Predicate(Predicate::Or(_, _))));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("").is_err());
        assert!(parse("Find Something With Information X").is_err());
        assert!(parse("Display Nothing of Class X").is_err());
        assert!(parse("Invoke T.F( On Instance D").is_err());
        assert!(parse("Submit Native noquote To Instance D").is_err());
        assert!(parse("Connect To Coalition").is_err());
        assert!(parse("Find Coalitions With Information X trailing ; garbage").is_err());
        assert!(parse("Link Nothing To Coalition X").is_err());
    }

    #[test]
    fn federated_invoke_at_coalition() {
        let stmt = parse(
            "Invoke ResearchProjects.Funding((ResearchProjects.Title Like 'AIDS%')) \
             At Coalition Research;",
        )
        .unwrap();
        match stmt {
            Statement::FedInvoke {
                type_name,
                function,
                args,
                scope,
                semi,
                limit,
            } => {
                assert_eq!(type_name, "ResearchProjects");
                assert_eq!(function, "Funding");
                assert_eq!(args.len(), 1);
                assert_eq!(scope, FedScope::Coalition("Research".into()));
                assert!(semi.is_none());
                assert!(limit.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn federated_invoke_at_topic_with_limit() {
        let stmt =
            parse("Invoke Claims.Amount() At Sites With Information Medical Insurance Limit 10;")
                .unwrap();
        match stmt {
            Statement::FedInvoke { scope, limit, .. } => {
                assert_eq!(scope, FedScope::Topic("Medical Insurance".into()));
                assert_eq!(limit, Some(10));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn federated_semi_join_clause() {
        let stmt = parse(
            "Invoke Policies.Premium() At Coalition Medical Insurance \
             Where Policies.Holder In Members.Name((Members.Plan = 'gold'));",
        )
        .unwrap();
        match stmt {
            Statement::FedInvoke { semi: Some(s), .. } => {
                assert_eq!(s.probe_attr, "Policies.Holder");
                assert_eq!(s.build_type, "Members");
                assert_eq!(s.build_attr, "Name");
                assert_eq!(s.build_args.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn in_list_predicate() {
        let stmt = parse("Invoke T.F((T.name In ('a', 'b', 'c'))) On Instance D;").unwrap();
        match stmt {
            Statement::Invoke { args, .. } => {
                assert_eq!(
                    args[0],
                    Arg::Predicate(Predicate::InList {
                        path: "T.name".into(),
                        values: vec![
                            Literal::Str("a".into()),
                            Literal::Str("b".into()),
                            Literal::Str("c".into()),
                        ]
                    })
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn explain_wraps_a_statement() {
        let stmt = parse("Explain Invoke T.F() At Coalition Research;").unwrap();
        match stmt {
            Statement::Explain(inner) => {
                assert!(matches!(*inner, Statement::FedInvoke { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn federated_errors_are_reported() {
        assert!(parse("Invoke T.F() At Nowhere X;").is_err());
        assert!(parse("Invoke T.F() At Coalition R Limit 'ten';").is_err());
        assert!(parse("Invoke T.F() At Coalition R Where T.k In B;").is_err());
        assert!(parse("Invoke T.F((T.x In ())) On Instance D;").is_err());
        assert!(parse("Explain;").is_err());
    }

    #[test]
    fn display_roundtrip() {
        for text in [
            "Find Coalitions With Information Medical Research;",
            "Display Document of Instance Royal Brisbane Hospital Of Class Research;",
            "Join Instance AMP To Coalition Superannuation;",
            "Submit Native 'select * from medical_students' To Instance RBH;",
            "Invoke ResearchProjects.Funding() At Coalition Research;",
            "Invoke Policies.Premium() At Coalition Medical Insurance \
             Where Policies.Holder In Members.Name() Limit 5;",
            "Invoke Claims.Amount((Claims.Provider In ('RBH', 'PCH'))) \
             At Sites With Information Medical;",
            "Explain Invoke ResearchProjects.Funding() At Coalition Research;",
        ] {
            let stmt = parse(text).unwrap();
            let printed = stmt.to_string();
            assert_eq!(parse(&printed).unwrap(), stmt, "roundtrip of {text}");
        }
    }

    /// Nesting up to the limit parses and one level more is refused.
    /// Without the limit, 20 000 nested parentheses, `Not`s or
    /// `Explain`s recurse once per level and overflow a 2 MiB thread
    /// stack, which aborts the process.
    #[test]
    fn deep_nesting_is_refused_on_a_small_stack() {
        let parens = |n: usize| {
            format!(
                "Invoke T.F({}A.x = 1{}) On Instance D;",
                "(".repeat(n),
                ")".repeat(n)
            )
        };
        // The argument's own parenthesis is the first level.
        let nots = |n: usize| format!("Invoke T.F(({}A.x = 1)) On Instance D;", "Not ".repeat(n));
        let explains = |n: usize| format!("{}Invoke T.F() On Instance D;", "Explain ".repeat(n));
        for text in [parens(MAX_DEPTH), nots(MAX_DEPTH - 1), explains(MAX_DEPTH)] {
            assert!(parse(&text).is_ok(), "{text}");
        }
        for text in [
            parens(MAX_DEPTH + 1),
            nots(MAX_DEPTH),
            explains(MAX_DEPTH + 1),
        ] {
            assert!(
                matches!(parse(&text), Err(TassiliError::TooDeep { limit: 64, .. })),
                "{text}"
            );
        }
        let deep = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || [parens(20_000), nots(20_000), explains(20_000)].map(|t| parse(&t)))
            .unwrap()
            .join()
            .expect("parser thread returns");
        for res in deep {
            assert!(matches!(res, Err(TassiliError::TooDeep { .. })), "{res:?}");
        }
    }
}
