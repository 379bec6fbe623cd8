//! A statement's length cannot abort the thread that runs it.
//!
//! `AND` and `OR` lists are flat, so a WHERE clause of 200 000
//! conjuncts or disjuncts parses, plans, runs, renders (EXPLAIN and the
//! vendor dialects) and drops on a 2 MiB stack, the size of every
//! thread the ORB spawns. A 200 000-term `+` chain builds a tree one
//! level deeper per operator, so the parser refuses it as too deep.

use webfindit_relstore::sql::{parse_statement, Statement};
use webfindit_relstore::{plan_select, Database, Datum, Dialect, RelError};

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

/// `t(id pk, b indexed, c)`: ten rows, every `b` is 2.
fn db() -> Database {
    let mut db = Database::new("chains", Dialect::Canonical);
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, b INT, c TEXT)")
        .unwrap();
    db.execute("CREATE INDEX t_b ON t (b)").unwrap();
    for id in 0..10 {
        db.execute(&format!("INSERT INTO t VALUES ({id}, 2, 'c{id}')"))
            .unwrap();
    }
    db
}

/// `SELECT id FROM t WHERE <first> <kw> <rest> <kw> <rest> …`, with
/// `TERMS` parts in all.
fn select_where(first: &str, kw: &str, rest: impl Fn(usize) -> String) -> String {
    let mut sql = format!("SELECT id FROM t WHERE {first}");
    for i in 1..TERMS {
        sql.push_str(kw);
        sql.push_str(&rest(i));
    }
    sql
}

/// Parse `sql`, plan and render it (EXPLAIN and a vendor dialect), run
/// it, and drop it all: the ids it selects, and its EXPLAIN lines.
fn run_and_render(sql: String) -> (Vec<Datum>, Vec<String>) {
    let db = db();
    let stmt = parse_statement(&sql).unwrap();
    let Statement::Select(select) = &stmt else {
        panic!("not a SELECT");
    };
    let explain = plan_select(select, db.tables()).unwrap().render();
    assert!(Dialect::Oracle.render_select(select).len() > sql.len());
    let (rows, _) = db.select(&stmt).unwrap();
    let ids = rows.rows.into_iter().map(|mut r| r.swap_remove(0));
    (ids.collect(), explain)
}

/// The first word of each EXPLAIN line.
fn operators(explain: &[String]) -> Vec<&str> {
    explain
        .iter()
        .filter_map(|l| l.split_whitespace().next())
        .collect()
}

#[test]
fn a_long_and_list_answers_on_a_small_stack() {
    let sql = select_where("id = 3", " AND ", |_| "b = 2".into());
    let (ids, explain) = on_a_small_stack(move || run_and_render(sql));
    assert_eq!(ids, [Datum::Int(3)]);
    assert_eq!(operators(&explain), ["project:", "filter:", "index"]);
}

#[test]
fn a_long_list_of_ranges_is_one_index_range_on_a_small_stack() {
    let sql = select_where("b >= 2", " AND ", |i| {
        if i % 2 == 0 { "b >= 2" } else { "b <= 2" }.into()
    });
    let (ids, explain) = on_a_small_stack(move || run_and_render(sql));
    assert_eq!(ids, (0..10).map(Datum::Int).collect::<Vec<_>>());
    assert_eq!(
        explain,
        [
            "project: id",
            "  index range scan t.b >= 2 AND b <= 2 via secondary index (~2 rows)"
        ]
    );
}

#[test]
fn a_long_or_list_answers_on_a_small_stack() {
    let sql = select_where("id = 3", " OR ", |i| format!("id = {}", 100 + i));
    let (ids, explain) = on_a_small_stack(move || run_and_render(sql));
    assert_eq!(ids, [Datum::Int(3)]);
    assert_eq!(operators(&explain), ["project:", "filter:", "seq"]);
}

#[test]
fn a_long_arithmetic_chain_is_refused_on_a_small_stack() {
    let sql = select_where("b = 0", " + ", |_| "1".into());
    let refused = on_a_small_stack(move || db().execute(&sql).map(|_| ()));
    assert!(
        matches!(refused, Err(RelError::TooDeep { limit: 64, .. })),
        "{refused:?}"
    );
}
