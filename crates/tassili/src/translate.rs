//! WebTassili → native-language translation.
//!
//! The paper's §2.3 example is the contract here: the access-function
//! call `Funding(ResearchProjects.Title, (Title = 'AIDS and drugs'))`
//! against an SQL source translates to
//!
//! ```sql
//! SELECT a.Funding FROM ResearchProjects a WHERE a.Title = 'AIDS and drugs'
//! ```
//!
//! The rules: the exported *type* becomes the FROM table with alias `a`,
//! the *function name* is the projected column, every attribute path in
//! the predicate is re-qualified onto the alias, and literals pass
//! through with SQL quoting.
//!
//! For object-oriented sources the same call becomes an OQL query
//! (`select funding from ResearchProjects where title = '…'`).

use crate::ast::{list_text, Arg, Literal, PredOp, Predicate, Statement};
use crate::{TassiliError, TassiliResult};

/// Re-qualify an attribute path onto the alias: `Type.Attr` → `a.attr`,
/// bare `Attr` → `a.attr`.
fn requalify(path: &str, alias: &str) -> String {
    let last = path.rsplit('.').next().unwrap_or(path);
    format!("{alias}.{}", last.to_ascii_lowercase())
}

fn literal_sql(l: &Literal) -> String {
    l.to_string() // Literal's Display already quotes strings SQL-style
}

/// Render a predicate as a SQL boolean expression with paths
/// re-qualified onto `alias`.
pub fn predicate_to_sql(p: &Predicate, alias: &str) -> String {
    match p {
        Predicate::Cmp { path, op, value } => format!(
            "{} {} {}",
            requalify(path, alias),
            op.sql(),
            literal_sql(value)
        ),
        Predicate::InList { path, values } => {
            let vs: Vec<String> = values.iter().map(literal_sql).collect();
            format!("{} IN ({})", requalify(path, alias), vs.join(", "))
        }
        Predicate::And(parts) => list_text(parts, |p| predicate_to_sql(p, alias), " AND "),
        Predicate::Or(parts) => list_text(parts, |p| predicate_to_sql(p, alias), " OR "),
        Predicate::Not(a) => format!("NOT ({})", predicate_to_sql(a, alias)),
    }
}

/// Render a predicate as an OQL boolean expression (attribute names
/// only, no alias — OQL ranges over the class extent directly).
pub fn predicate_to_oql(p: &Predicate) -> String {
    match p {
        Predicate::Cmp { path, op, value } => {
            let attr = path.rsplit('.').next().unwrap_or(path).to_ascii_lowercase();
            let ops = match op {
                PredOp::Like => "like".to_string(),
                other => other.sql().to_string(),
            };
            format!("{attr} {ops} {}", literal_sql(value))
        }
        Predicate::InList { path, values } => {
            let attr = path.rsplit('.').next().unwrap_or(path).to_ascii_lowercase();
            let vs: Vec<String> = values.iter().map(literal_sql).collect();
            format!("{attr} in ({})", vs.join(", "))
        }
        Predicate::And(parts) => list_text(parts, predicate_to_oql, " and "),
        Predicate::Or(parts) => list_text(parts, predicate_to_oql, " or "),
        Predicate::Not(a) => format!("not ({})", predicate_to_oql(a)),
    }
}

/// The call's predicate arguments and `extra`, AND-ed into one
/// predicate, or `None` when there are none. An attribute reference
/// restates the signature and has no WHERE effect.
fn conjoined(args: &[Arg], extra: Option<&Predicate>) -> Option<Predicate> {
    let preds: Vec<Predicate> = args
        .iter()
        .filter_map(|a| match a {
            Arg::Predicate(p) => Some(p.clone()),
            _ => None,
        })
        .chain(extra.cloned())
        .collect();
    (!preds.is_empty()).then(|| Predicate::junction(Predicate::And, preds))
}

/// Translate an access-function call into SQL against a relational
/// source: the exported type becomes the FROM table, the function name
/// the projected column, and predicate arguments the WHERE clause.
/// `extra` (the federated executor's shipped key set) is conjoined on.
pub fn access_call_to_sql(
    type_name: &str,
    function: &str,
    args: &[Arg],
    extra: Option<&Predicate>,
) -> TassiliResult<String> {
    let alias = "a";
    if args.iter().any(|a| matches!(a, Arg::Literal(_))) {
        return Err(TassiliError::Translate(
            "bare literal arguments need a predicate context".into(),
        ));
    }
    let mut sql = format!(
        "SELECT {alias}.{} FROM {} {alias}",
        function.to_ascii_lowercase(),
        type_name.to_ascii_lowercase()
    );
    if let Some(p) = conjoined(args, extra) {
        sql.push_str(" WHERE ");
        sql.push_str(&predicate_to_sql(&p, alias));
    }
    Ok(sql)
}

/// Translate an access-function call into OQL against an object source.
pub fn access_call_to_oql(
    type_name: &str,
    function: &str,
    args: &[Arg],
    extra: Option<&Predicate>,
) -> TassiliResult<String> {
    let mut oql = format!(
        "select {} from {}",
        function.to_ascii_lowercase(),
        type_name
    );
    if let Some(p) = conjoined(args, extra) {
        oql.push_str(" where ");
        oql.push_str(&predicate_to_oql(&p));
    }
    Ok(oql)
}

fn invoke_parts(stmt: &Statement) -> TassiliResult<(&str, &str, &[Arg])> {
    match stmt {
        Statement::Invoke {
            type_name,
            function,
            args,
            ..
        } => Ok((type_name, function, args)),
        other => Err(TassiliError::Translate(format!(
            "not an Invoke statement: {other}"
        ))),
    }
}

/// Translate an `Invoke` statement into SQL against a relational source.
///
/// The function's name doubles as the projected column (the paper's
/// `Funding()` projects the `funding` column); leading attribute-ref
/// arguments are informational (they restate the parameter signature)
/// and predicates become the WHERE clause.
pub fn translate_invoke_to_sql(stmt: &Statement) -> TassiliResult<String> {
    let (type_name, function, args) = invoke_parts(stmt)?;
    access_call_to_sql(type_name, function, args, None)
}

/// Translate an `Invoke` statement into OQL against an object source.
pub fn translate_invoke_to_oql(stmt: &Statement) -> TassiliResult<String> {
    let (type_name, function, args) = invoke_parts(stmt)?;
    access_call_to_oql(type_name, function, args, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn the_papers_funding_translation() {
        // §2.3: "This function is translated to the following SQL query:
        //   Select a.Funding From ResearchProjects a
        //   Where a.Title = 'AIDS and drugs'"
        let stmt = parse(
            "Invoke ResearchProjects.Funding(ResearchProjects.Title, \
             (ResearchProjects.Title = 'AIDS and drugs')) On Instance RBH;",
        )
        .unwrap();
        assert_eq!(
            translate_invoke_to_sql(&stmt).unwrap(),
            "SELECT a.funding FROM researchprojects a WHERE a.title = 'AIDS and drugs'"
        );
    }

    #[test]
    fn no_predicate_means_no_where() {
        let stmt = parse("Invoke T.F() On Instance D;").unwrap();
        assert_eq!(
            translate_invoke_to_sql(&stmt).unwrap(),
            "SELECT a.f FROM t a"
        );
    }

    #[test]
    fn compound_predicates() {
        let stmt = parse("Invoke T.F((T.x > 3 And T.y Like 'z%') Or Not (T.w = 1)) On Instance D;")
            .unwrap();
        let sql = translate_invoke_to_sql(&stmt).unwrap();
        assert_eq!(
            sql,
            "SELECT a.f FROM t a WHERE ((a.x > 3) AND (a.y LIKE 'z%')) OR (NOT (a.w = 1))"
        );
    }

    #[test]
    fn multiple_predicate_args_conjoin() {
        let stmt = parse("Invoke T.F((T.x = 1), (T.y = 2)) On Instance D;").unwrap();
        assert_eq!(
            translate_invoke_to_sql(&stmt).unwrap(),
            "SELECT a.f FROM t a WHERE (a.x = 1) AND (a.y = 2)"
        );
    }

    /// The deepest parenthesis `text` opens.
    fn paren_depth(text: &str) -> usize {
        let mut depth = 0usize;
        let mut deepest = 0;
        for c in text.chars() {
            match c {
                '(' => depth += 1,
                ')' => depth -= 1,
                _ => {}
            }
            deepest = deepest.max(depth);
        }
        deepest
    }

    /// An `And` of 100 comparisons, one of them an `Or`, ships as one
    /// flat list: a comparison sits in one parenthesis, and one inside
    /// the `Or` in two, however long the list.
    #[test]
    fn a_long_and_ships_one_parenthesis_per_level() {
        let invoke = |conjuncts: &[&str]| {
            let text = format!("Invoke T.F(({})) On Instance D;", conjuncts.join(" And "));
            parse(&text).unwrap()
        };
        let mut conjuncts = vec!["T.x >= 1"; 100];
        let flat = invoke(&conjuncts);
        conjuncts[50] = "(T.y = 2 Or T.y = 3)";
        let mixed = invoke(&conjuncts);
        for (stmt, levels) in [(flat, 1), (mixed, 2)] {
            let sql = translate_invoke_to_sql(&stmt).unwrap();
            let oql = translate_invoke_to_oql(&stmt).unwrap();
            assert_eq!(paren_depth(&sql), levels, "{sql}");
            assert_eq!(paren_depth(&oql), levels, "{oql}");
            assert!(sql.starts_with("SELECT a.f FROM t a WHERE (a.x >= 1) AND (a.x >= 1) AND"));
            assert!(oql.starts_with("select f from T where (x >= 1) and (x >= 1) and"));
        }
    }

    #[test]
    fn string_quoting_survives() {
        let stmt = parse("Invoke T.F((T.name = 'O''Brien')) On Instance D;").unwrap();
        assert_eq!(
            translate_invoke_to_sql(&stmt).unwrap(),
            "SELECT a.f FROM t a WHERE a.name = 'O''Brien'"
        );
    }

    #[test]
    fn oql_translation() {
        let stmt = parse(
            "Invoke ResearchProjects.Funding((ResearchProjects.Title = 'AIDS and drugs')) \
             On Instance PrinceCharles;",
        )
        .unwrap();
        assert_eq!(
            translate_invoke_to_oql(&stmt).unwrap(),
            "select funding from ResearchProjects where title = 'AIDS and drugs'"
        );
    }

    #[test]
    fn bare_literals_rejected_for_sql() {
        let stmt = parse("Invoke T.F(42) On Instance D;").unwrap();
        assert!(translate_invoke_to_sql(&stmt).is_err());
    }

    #[test]
    fn non_invoke_rejected() {
        let stmt = parse("Connect To Coalition X;").unwrap();
        assert!(translate_invoke_to_sql(&stmt).is_err());
        assert!(translate_invoke_to_oql(&stmt).is_err());
    }
}
