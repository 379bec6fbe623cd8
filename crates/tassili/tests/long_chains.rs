//! A statement's length cannot abort the thread that handles it.
//!
//! `And` and `Or` lists are flat, so an access-function call whose
//! predicate has 200 000 conjuncts or disjuncts parses, displays,
//! translates to SQL and OQL, reparses from its display, and drops on a
//! 2 MiB stack, the size of every thread the ORB spawns.

use webfindit_tassili::translate::translate_invoke_to_oql;
use webfindit_tassili::{parse, translate_invoke_to_sql};

const TERMS: usize = 200_000;

/// Run `f` on a thread with a 2 MiB stack.
fn on_a_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .expect("the thread returns")
}

/// `Invoke T.F((T.x = 1 <kw> T.x = 1 …)) On Instance D;`, `TERMS`
/// comparisons in all; its display, SQL and OQL, and whether the display
/// parses back to the same statement.
fn handle(kw: &str) -> (String, String, String, bool) {
    let predicate = vec!["T.x = 1"; TERMS].join(kw);
    let text = format!("Invoke T.F(({predicate})) On Instance D;");
    let stmt = parse(&text).unwrap();
    let shown = stmt.to_string();
    let sql = translate_invoke_to_sql(&stmt).unwrap();
    let oql = translate_invoke_to_oql(&stmt).unwrap();
    let reparsed = parse(&shown).unwrap() == stmt;
    (shown, sql, oql, reparsed)
}

#[test]
fn a_long_and_list_is_handled_on_a_small_stack() {
    let (shown, sql, oql, reparsed) = on_a_small_stack(|| handle(" And "));
    assert!(shown.starts_with("Invoke T.F(((T.x = 1) And (T.x = 1) And"));
    assert!(sql.starts_with("SELECT a.f FROM t a WHERE (a.x = 1) AND (a.x = 1) AND"));
    assert!(oql.starts_with("select f from T where (x = 1) and (x = 1) and"));
    assert_eq!(sql.matches(" AND ").count(), TERMS - 1);
    assert!(reparsed);
}

#[test]
fn a_long_or_list_is_handled_on_a_small_stack() {
    let (shown, sql, oql, reparsed) = on_a_small_stack(|| handle(" Or "));
    assert!(shown.starts_with("Invoke T.F(((T.x = 1) Or (T.x = 1) Or"));
    assert!(sql.starts_with("SELECT a.f FROM t a WHERE (a.x = 1) OR (a.x = 1) OR"));
    assert!(oql.starts_with("select f from T where (x = 1) or (x = 1) or"));
    assert_eq!(oql.matches(" or ").count(), TERMS - 1);
    assert!(reparsed);
}
