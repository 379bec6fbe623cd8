//! A behavioural SQL corpus: end-to-end statements against one engine
//! instance, checking results (not just absence of errors) across
//! joins, aggregation, NULL semantics, ordering, DML, transactions,
//! and dialect gating. These are the behaviours the WebFINDIT wrappers
//! rely on; each case is small but asserts exact output.

use webfindit_relstore::{Database, Datum, Dialect};

fn db() -> Database {
    let mut db = Database::new("corpus", Dialect::Canonical);
    db.execute("CREATE TABLE dept (dept_id INT PRIMARY KEY, name TEXT NOT NULL, budget DOUBLE)")
        .unwrap();
    db.execute(
        "CREATE TABLE emp (emp_id INT PRIMARY KEY, name TEXT NOT NULL, dept_id INT, \
         salary DOUBLE, hired DATE)",
    )
    .unwrap();
    db.execute(
        "INSERT INTO dept VALUES (1, 'cardiology', 900000), (2, 'oncology', 1200000), \
         (3, 'radiology', NULL)",
    )
    .unwrap();
    db.execute(
        "INSERT INTO emp VALUES \
         (1, 'Amy', 1, 90000, '1995-03-01'), \
         (2, 'Bo', 1, 70000, '1996-07-15'), \
         (3, 'Cy', 2, 120000, '1994-01-20'), \
         (4, 'Di', 2, 80000, '1998-11-05'), \
         (5, 'Ed', NULL, 50000, '1997-06-30')",
    )
    .unwrap();
    db
}

fn rows(db: &mut Database, sql: &str) -> Vec<Vec<Datum>> {
    db.execute(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .rows()
        .unwrap_or_else(|| panic!("{sql}: expected rows"))
        .rows
        .clone()
}

#[test]
fn join_with_aggregate_per_group() {
    let mut db = db();
    let got = rows(
        &mut db,
        "SELECT d.name, COUNT(*) n, AVG(e.salary) avg_sal FROM dept d \
         JOIN emp e ON d.dept_id = e.dept_id GROUP BY d.name ORDER BY d.name",
    );
    assert_eq!(
        got,
        vec![
            vec![
                Datum::Text("cardiology".into()),
                Datum::Int(2),
                Datum::Double(80000.0)
            ],
            vec![
                Datum::Text("oncology".into()),
                Datum::Int(2),
                Datum::Double(100000.0)
            ],
        ]
    );
}

#[test]
fn left_join_keeps_unmatched_and_null_dept() {
    let mut db = db();
    let got = rows(
        &mut db,
        "SELECT e.name, d.name FROM emp e LEFT JOIN dept d ON e.dept_id = d.dept_id \
         WHERE d.name IS NULL",
    );
    // Ed has NULL dept_id → no match (NULL never equi-joins).
    assert_eq!(got, vec![vec![Datum::Text("Ed".into()), Datum::Null]]);
}

#[test]
fn null_arithmetic_and_coalescing_behaviour() {
    let mut db = db();
    // budget IS NULL filters exactly radiology.
    let got = rows(&mut db, "SELECT name FROM dept WHERE budget IS NULL");
    assert_eq!(got, vec![vec![Datum::Text("radiology".into())]]);
    // NULL + number stays NULL, and comparisons with NULL exclude rows.
    let got = rows(&mut db, "SELECT name FROM dept WHERE budget + 1 > 0");
    assert_eq!(got.len(), 2);
}

#[test]
fn date_filters_and_ordering() {
    let mut db = db();
    let got = rows(
        &mut db,
        "SELECT name FROM emp WHERE hired BETWEEN '1995-01-01' AND '1997-12-31' \
         ORDER BY hired DESC",
    );
    assert_eq!(
        got,
        vec![
            vec![Datum::Text("Ed".into())],
            vec![Datum::Text("Bo".into())],
            vec![Datum::Text("Amy".into())],
        ]
    );
}

#[test]
fn in_list_like_and_concat() {
    let mut db = db();
    let got = rows(
        &mut db,
        "SELECT name || ' (' || emp_id || ')' FROM emp \
         WHERE dept_id IN (1, 2) AND name LIKE '%y' ORDER BY emp_id",
    );
    assert_eq!(
        got,
        vec![
            vec![Datum::Text("Amy (1)".into())],
            vec![Datum::Text("Cy (3)".into())],
        ]
    );
}

#[test]
fn update_delete_and_row_counts() {
    let mut db = db();
    let n = db
        .execute("UPDATE emp SET salary = salary * 1.1 WHERE dept_id = 1")
        .unwrap()
        .count()
        .unwrap();
    assert_eq!(n, 2);
    let got = rows(&mut db, "SELECT salary FROM emp WHERE emp_id = 1");
    assert_eq!(got, vec![vec![Datum::Double(99000.00000000001)]]);
    let n = db
        .execute("DELETE FROM emp WHERE salary < 60000")
        .unwrap()
        .count()
        .unwrap();
    assert_eq!(n, 1); // Ed
    assert_eq!(db.table("emp").unwrap().len(), 4);
}

#[test]
fn transaction_spanning_multiple_tables() {
    let mut db = db();
    db.execute("BEGIN").unwrap();
    db.execute("DELETE FROM emp").unwrap();
    db.execute("UPDATE dept SET budget = 0").unwrap();
    db.execute("INSERT INTO dept VALUES (9, 'ghost', 1)")
        .unwrap();
    db.execute("ROLLBACK").unwrap();
    assert_eq!(db.table("emp").unwrap().len(), 5);
    let got = rows(&mut db, "SELECT COUNT(*) FROM dept WHERE budget > 0");
    assert_eq!(got, vec![vec![Datum::Int(2)]]);
    assert!(db.table("dept").unwrap().len() == 3);
}

#[test]
fn distinct_across_joined_duplicates() {
    let mut db = db();
    let got = rows(
        &mut db,
        "SELECT DISTINCT d.name FROM dept d JOIN emp e ON d.dept_id = e.dept_id \
         ORDER BY d.name",
    );
    assert_eq!(got.len(), 2);
}

#[test]
fn having_filters_groups_not_rows() {
    let mut db = db();
    let got = rows(
        &mut db,
        "SELECT dept_id, MAX(salary) FROM emp WHERE dept_id IS NOT NULL \
         GROUP BY dept_id HAVING MAX(salary) > 100000",
    );
    assert_eq!(got, vec![vec![Datum::Int(2), Datum::Double(120000.0)]]);
}

#[test]
fn three_way_join() {
    let mut db = db();
    db.execute("CREATE TABLE grants (dept_id INT, amount DOUBLE)")
        .unwrap();
    db.execute("INSERT INTO grants VALUES (1, 5000), (1, 2500), (2, 10000)")
        .unwrap();
    let got = rows(
        &mut db,
        "SELECT d.name, e.name, g.amount FROM dept d \
         JOIN emp e ON d.dept_id = e.dept_id \
         JOIN grants g ON g.dept_id = d.dept_id \
         WHERE e.salary > 85000 ORDER BY d.name, g.amount",
    );
    // Amy (cardiology, 2 grants) + Cy (oncology, 1 grant).
    assert_eq!(got.len(), 3);
    assert_eq!(got[0][0], Datum::Text("cardiology".into()));
    assert_eq!(got[2][2], Datum::Double(10000.0));
}

#[test]
fn dialect_gating_matches_vendor_capabilities() {
    for (dialect, agg_ok) in [
        (Dialect::Oracle, true),
        (Dialect::Db2, true),
        (Dialect::Sybase, true),
        (Dialect::MSql, false),
    ] {
        let mut db = Database::new("d", dialect);
        db.execute("CREATE TABLE t (x INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        let result = db.execute("SELECT SUM(x) FROM t");
        assert_eq!(result.is_ok(), agg_ok, "{dialect} aggregate support");
        // Plain scans always work.
        assert!(db.execute("SELECT x FROM t WHERE x = 1").is_ok());
    }
}

#[test]
fn error_paths_are_clean() {
    let mut db = db();
    assert!(db.execute("SELECT missing FROM emp").is_err());
    assert!(db.execute("SELECT * FROM nonexistent").is_err());
    assert!(db
        .execute("INSERT INTO emp VALUES (1, 'dup', 1, 1, NULL)")
        .is_err()); // pk
    assert!(db.execute("INSERT INTO emp (emp_id) VALUES (99)").is_err()); // NOT NULL name
    assert!(db.execute("SELECT 1/0 FROM emp").is_err());
    // The engine is still fine afterwards.
    assert_eq!(db.table("emp").unwrap().len(), 5);
}

#[test]
fn explain_reflects_executor_decisions() {
    let mut db = db();
    db.execute("CREATE INDEX emp_dept ON emp (dept_id)")
        .unwrap();

    let plan_text = |db: &mut Database, sql: &str| -> String {
        let rs = db.execute(sql).unwrap();
        rs.rows()
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };

    // Primary-key point lookup.
    let p = plan_text(&mut db, "EXPLAIN SELECT name FROM emp WHERE emp_id = 3");
    assert!(
        p.contains("index lookup emp.emp_id = 3 via PRIMARY KEY"),
        "{p}"
    );

    // A range answers its own conjuncts: no filter re-checks them, and
    // one that the range does not answer is all the filter holds.
    let p = plan_text(
        &mut db,
        "EXPLAIN SELECT name FROM emp WHERE emp_id BETWEEN 1 AND 3",
    );
    assert!(
        p.contains("index range scan emp.emp_id >= 1 AND emp_id <= 3"),
        "{p}"
    );
    assert!(!p.contains("filter"), "{p}");
    let p = plan_text(
        &mut db,
        "EXPLAIN SELECT name FROM emp WHERE emp_id BETWEEN 1 AND 3 AND salary > 1",
    );
    let filters: Vec<&str> = p.lines().filter(|l| l.contains("filter")).collect();
    assert_eq!(filters, ["  filter: (salary > 1)"], "{p}");

    // Secondary index.
    let p = plan_text(&mut db, "EXPLAIN SELECT name FROM emp WHERE dept_id = 1");
    assert!(p.contains("via secondary index"), "{p}");

    // No usable index → scan.
    let p = plan_text(&mut db, "EXPLAIN SELECT name FROM emp WHERE salary > 1");
    assert!(p.contains("scan emp (5 rows)"), "{p}");
    assert!(p.contains("filter: (salary > 1)"), "{p}");

    // Hash join for equi-conditions, nested loop otherwise.
    let p = plan_text(
        &mut db,
        "EXPLAIN SELECT e.name FROM emp e JOIN dept d ON e.dept_id = d.dept_id",
    );
    assert!(p.contains("hash join dept"), "{p}");
    let p = plan_text(
        &mut db,
        "EXPLAIN SELECT e.name FROM emp e JOIN dept d ON e.salary > d.budget",
    );
    assert!(p.contains("nested-loop inner join dept"), "{p}");

    // Aggregation, sort, limit, projection all described.
    let p = plan_text(
        &mut db,
        "EXPLAIN SELECT dept_id, COUNT(*) n FROM emp GROUP BY dept_id \
         HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 3",
    );
    assert!(p.contains("hash group by: dept_id"), "{p}");
    assert!(p.contains("having: (COUNT(*) > 1)"), "{p}");
    assert!(p.contains("sort: n DESC"), "{p}");
    assert!(p.contains("limit: 3"), "{p}");
    assert!(p.contains("project: dept_id, n"), "{p}");

    // EXPLAIN must not execute: row counts unchanged, stats unaffected
    // beyond the EXPLAIN statements themselves.
    assert_eq!(db.table("emp").unwrap().len(), 5);
}
