//! Property tests for the planned, pipelined executor.
//!
//! Two contracts from the query-engine refactor:
//!
//! 1. **Result equivalence** — over generated schemas, data, and
//!    queries, the cost-informed planner + pipelined executor must
//!    produce the same results as the retained naive reference
//!    executor (`exec::execute_select_naive`): exact sequences when the
//!    query orders by a unique key, multisets otherwise, and for
//!    `LIMIT` a correctly-sized subset of the unlimited result. Rows
//!    are compared cell by cell in a typed text form (doubles by their
//!    bits), not through `Datum`'s own `==`, under which `1` equals
//!    `1.0`.
//! 2. **EXPLAIN consistency** — the rendered `EXPLAIN` output comes
//!    from the same [`PhysicalPlan`] the executor runs, so the
//!    operators named in the plan are exactly the operators
//!    [`ExecMetrics`] says executed.

use webfindit_base::prop::{cases, pick};
use webfindit_base::rng::StdRng;
use webfindit_relstore::exec::{execute_select_naive, ResultSet};
use webfindit_relstore::sql::{parse_statement, Statement};
use webfindit_relstore::{plan_select, Database, Datum, Dialect, RelResult};

const WORDS: [&str; 5] = ["ward", "icu", "lab", "er", "hospice"];
const QUARTERS: [&str; 4] = ["0", "25", "5", "75"];

/// A fresh two-table database with `n1`/`n2` generated rows.
///
/// `t1(id pk, a indexed, b, c)` and `t2(id pk, t1_id indexed, d)`;
/// every non-key column is nullable and NULLs are generated, so the
/// properties exercise three-valued logic, NULL grouping, and the
/// rule that NULL never equi-joins. `c` is a multiple of 0.25, some of
/// them whole numbers: its sums are exact in any order, so `SUM`/`AVG`
/// must agree to the bit even where the planner's access path feeds
/// rows in index order and the reference in heap order.
fn gen_db(rng: &mut StdRng) -> Database {
    let mut db = Database::new("prop", Dialect::Canonical);
    db.execute("CREATE TABLE t1 (id INT PRIMARY KEY, a INT, b TEXT, c DOUBLE)")
        .unwrap();
    db.execute("CREATE INDEX t1_a ON t1 (a)").unwrap();
    db.execute("CREATE TABLE t2 (id INT PRIMARY KEY, t1_id INT, d TEXT)")
        .unwrap();
    db.execute("CREATE INDEX t2_t1 ON t2 (t1_id)").unwrap();

    let n1 = rng.gen_range(0..40usize);
    for id in 0..n1 {
        let a = if rng.gen_bool(0.15) {
            "NULL".to_owned()
        } else {
            rng.gen_range(0..10usize).to_string()
        };
        let b = if rng.gen_bool(0.15) {
            "NULL".to_owned()
        } else {
            format!("'{}'", pick(rng, &WORDS))
        };
        let c = if rng.gen_bool(0.15) {
            "NULL".to_owned()
        } else {
            format!("{}.{}", rng.gen_range(0..100usize), pick(rng, &QUARTERS))
        };
        db.execute(&format!("INSERT INTO t1 VALUES ({id}, {a}, {b}, {c})"))
            .unwrap();
    }
    let n2 = rng.gen_range(0..40usize);
    for id in 0..n2 {
        let fk = if rng.gen_bool(0.15) {
            "NULL".to_owned()
        } else {
            rng.gen_range(0..40usize).to_string()
        };
        let d = format!("'{}'", pick(rng, &WORDS));
        db.execute(&format!("INSERT INTO t2 VALUES ({id}, {fk}, {d})"))
            .unwrap();
    }
    db
}

/// A random predicate over `t1` columns (optionally qualified).
fn gen_pred(rng: &mut StdRng, qualify: bool) -> String {
    let q = if qualify { "t1." } else { "" };
    let k = rng.gen_range(0..10usize);
    let v = rng.gen_range(0..40usize);
    let w = pick(rng, &WORDS);
    let atoms = [
        format!("{q}a = {k}"),
        format!("{q}a > {k}"),
        format!("{q}a <= {k}"),
        format!("{q}id BETWEEN {} AND {}", v.min(20), v.min(20) + 10),
        format!("{q}id >= {v}"),
        format!("{q}b = '{w}'"),
        format!("{q}c >= {k}0.5"),
        format!("{q}b IS NULL"),
    ];
    match rng.gen_range(0..4usize) {
        0 => format!("{} AND {}", pick(rng, &atoms), pick(rng, &atoms)),
        1 => format!("{} OR {}", pick(rng, &atoms), pick(rng, &atoms)),
        _ => pick(rng, &atoms).clone(),
    }
}

/// A generated query: the SQL, whether its output order is fully
/// determined (ORDER BY over a unique key), and the LIMIT if any.
struct GenQuery {
    sql: String,
    ordered: bool,
    limit: Option<usize>,
}

/// An aggregate query over `from` (`t1`, alone or left-joined to `t2`):
/// no, one or two GROUP BY keys out of `keys`, two to four aggregate
/// calls out of `aggs`, and optionally WHERE, HAVING, ORDER BY (an
/// aggregate first, then every key, so the order is total) and LIMIT.
fn gen_aggregate(rng: &mut StdRng, from: &str, keys: &[&str], aggs: &[&str]) -> GenQuery {
    let mut group: Vec<&str> = Vec::new();
    for _ in 0..rng.gen_range(0..3usize) {
        let k = *pick(rng, keys);
        if !group.contains(&k) {
            group.push(k);
        }
    }
    let mut calls: Vec<&str> = Vec::new();
    for _ in 0..rng.gen_range(2..5usize) {
        calls.push(*pick(rng, aggs));
    }
    let mut items: Vec<String> = group.iter().map(|k| k.to_string()).collect();
    items.extend(calls.iter().enumerate().map(|(i, c)| format!("{c} x{i}")));
    let mut sql = format!("SELECT {} FROM {from}", items.join(", "));
    match rng.gen_range(0..4usize) {
        // No input rows at all: an ungrouped aggregate still answers.
        0 => sql.push_str(" WHERE t1.id < 0"),
        1 => sql.push_str(&format!(" WHERE {}", gen_pred(rng, true))),
        _ => {}
    }
    if !group.is_empty() {
        sql.push_str(&format!(" GROUP BY {}", group.join(", ")));
    }
    if rng.gen_bool(0.3) {
        let having = [
            "COUNT(*) > 1",
            "SUM(t1.a) >= 4",
            "MIN(t1.b) < 'lab'",
            "AVG(t1.c) > 40",
        ];
        sql.push_str(&format!(" HAVING {}", pick(rng, &having)));
    }
    // Group keys are unique per output row, so ordering by all of them
    // (after an optional aggregate) is a total order.
    let ordered = rng.gen_bool(0.6);
    if ordered {
        let mut order: Vec<String> = Vec::new();
        if rng.gen_bool(0.5) {
            let desc = if rng.gen_bool(0.5) { " DESC" } else { "" };
            order.push(format!("{}{desc}", pick(rng, &calls)));
        }
        order.extend(group.iter().map(|k| k.to_string()));
        if !order.is_empty() {
            sql.push_str(&format!(" ORDER BY {}", order.join(", ")));
        }
    }
    let limit = rng.gen_bool(0.3).then(|| rng.gen_range(1..5usize));
    if let Some(n) = limit {
        sql.push_str(&format!(" LIMIT {n}"));
    }
    GenQuery {
        sql,
        // Without GROUP BY there is one row: any order is total.
        ordered: ordered || group.is_empty(),
        limit,
    }
}

fn gen_query(rng: &mut StdRng) -> GenQuery {
    match rng.gen_range(0..7usize) {
        // Single-table scan/filter, optional DISTINCT / ORDER BY id / LIMIT.
        0 => {
            let distinct = if rng.gen_bool(0.3) { "DISTINCT " } else { "" };
            let cols = if distinct.is_empty() {
                "id, a, b, c"
            } else {
                "a, b"
            };
            let mut sql = format!("SELECT {distinct}{cols} FROM t1");
            if rng.gen_bool(0.8) {
                sql.push_str(&format!(" WHERE {}", gen_pred(rng, false)));
            }
            // A unique order key only exists when id is projected.
            let ordered = distinct.is_empty() && rng.gen_bool(0.5);
            if ordered {
                sql.push_str(" ORDER BY id");
            }
            let limit = rng.gen_bool(0.4).then(|| rng.gen_range(1..8usize));
            if let Some(n) = limit {
                sql.push_str(&format!(" LIMIT {n}"));
            }
            GenQuery {
                sql,
                ordered,
                limit,
            }
        }
        // Aggregation over t1.
        1 => {
            let having = if rng.gen_bool(0.4) {
                " HAVING COUNT(*) > 1"
            } else {
                ""
            };
            let ordered = rng.gen_bool(0.5);
            let order = if ordered { " ORDER BY a" } else { "" };
            let mut sql = format!(
                "SELECT a, COUNT(*) n, SUM(c) s, MIN(id) lo FROM t1{} GROUP BY a{having}{order}",
                if rng.gen_bool(0.5) {
                    format!(" WHERE {}", gen_pred(rng, false))
                } else {
                    String::new()
                }
            );
            let limit = rng.gen_bool(0.3).then(|| rng.gen_range(1..5usize));
            if let Some(n) = limit {
                sql.push_str(&format!(" LIMIT {n}"));
            }
            GenQuery {
                sql,
                ordered,
                limit,
            }
        }
        // Equi-join on the indexed foreign key (inner or left).
        2 => {
            let kind = if rng.gen_bool(0.5) {
                "JOIN"
            } else {
                "LEFT JOIN"
            };
            let mut sql = format!("SELECT t1.id, t1.b, t2.d FROM t1 {kind} t2 ON t1.id = t2.t1_id");
            if rng.gen_bool(0.6) {
                sql.push_str(&format!(" WHERE {}", gen_pred(rng, true)));
            }
            let limit = rng.gen_bool(0.3).then(|| rng.gen_range(1..8usize));
            if let Some(n) = limit {
                sql.push_str(&format!(" LIMIT {n}"));
            }
            GenQuery {
                sql,
                ordered: false,
                limit,
            }
        }
        // Aggregates over t1: nullable Int, Text and Double keys, alone
        // and in pairs; every aggregate function over every type it
        // accepts.
        4 | 5 => gen_aggregate(
            rng,
            "t1",
            &["t1.a", "t1.b", "t1.c"],
            &[
                "COUNT(*)",
                "COUNT(t1.c)",
                "COUNT(DISTINCT t1.a)",
                "COUNT(DISTINCT t1.b)",
                "COUNT(DISTINCT t1.c)",
                "SUM(t1.a)",
                "SUM(t1.c)",
                "SUM(DISTINCT t1.a)",
                "AVG(t1.a)",
                "AVG(t1.c)",
                "MIN(t1.b)",
                "MAX(t1.b)",
                "MIN(t1.c)",
                "MAX(t1.id)",
                "SUM(t1.a + t1.c)",
            ],
        ),
        // LEFT JOIN feeding an aggregate: unmatched t1 rows arrive with
        // a NULL-padded t2 side, and t2.d groups them under NULL.
        6 => gen_aggregate(
            rng,
            "t1 LEFT JOIN t2 ON t1.id = t2.t1_id",
            &["t1.b", "t2.d", "t1.a"],
            &[
                "COUNT(*)",
                "COUNT(t2.id)",
                "COUNT(DISTINCT t2.d)",
                "SUM(t2.id)",
                "AVG(t1.c)",
                "MIN(t2.d)",
                "MAX(t2.d)",
                "MAX(t1.b)",
            ],
        ),
        // Join + aggregate.
        _ => {
            let ordered = rng.gen_bool(0.5);
            let order = if ordered { " ORDER BY t2.d" } else { "" };
            let sql = format!(
                "SELECT t2.d, COUNT(*) n FROM t1 JOIN t2 ON t1.id = t2.t1_id \
                 GROUP BY t2.d{order}"
            );
            // t2.d has duplicates across groups? No — GROUP BY t2.d makes
            // each output row's key unique, so ORDER BY t2.d is total.
            GenQuery {
                sql,
                ordered,
                limit: None,
            }
        }
    }
}

/// Canonical text form of a row: NULL-safe, typed (`Int(1)` is not
/// `Double(1.0)`), doubles by their bits.
fn canon(row: &[Datum]) -> String {
    let parts: Vec<String> = row
        .iter()
        .map(|d| match d {
            Datum::Double(v) => format!("Double(#{:016x})", v.to_bits()),
            other => format!("{other:?}"),
        })
        .collect();
    parts.join("|")
}

fn sequence(rows: &[Vec<Datum>]) -> Vec<String> {
    rows.iter().map(|r| canon(r)).collect()
}

fn multiset(rows: &[Vec<Datum>]) -> Vec<String> {
    let mut v = sequence(rows);
    v.sort();
    v
}

/// Run a SELECT through the naive reference executor over `db`'s tables.
fn run_naive(db: &Database, sql: &str) -> RelResult<ResultSet> {
    let Statement::Select(select) = parse_statement(sql)? else {
        panic!("{sql}: the reference only runs SELECT");
    };
    execute_select_naive(&select, db.tables())
}

#[test]
fn planned_executor_matches_the_naive_reference() {
    cases(60, |rng| {
        let mut db = gen_db(rng);
        for _ in 0..4 {
            let q = gen_query(rng);
            let planned = db
                .execute(&q.sql)
                .unwrap_or_else(|e| panic!("planned {}: {e}", q.sql))
                .rows()
                .unwrap_or_else(|| panic!("{}: expected rows", q.sql))
                .clone();
            let naive = run_naive(&db, &q.sql).unwrap_or_else(|e| panic!("naive {}: {e}", q.sql));
            assert_eq!(planned.columns, naive.columns, "columns for {}", q.sql);
            match (q.limit, q.ordered) {
                // LIMIT without a total order: both executors may keep
                // different rows. The planned result must be the right
                // size and a sub-multiset of the unlimited result.
                (Some(_), false) => {
                    assert_eq!(planned.rows.len(), naive.rows.len(), "{}", q.sql);
                    let unlimited = q.sql[..q.sql.rfind(" LIMIT").unwrap()].to_owned();
                    let full = multiset(&run_naive(&db, &unlimited).unwrap().rows);
                    for row in &planned.rows {
                        assert!(
                            full.contains(&canon(row)),
                            "{}: row {:?} not in unlimited result",
                            q.sql,
                            row
                        );
                    }
                }
                // A total order: exact sequence equality.
                (_, true) => {
                    assert_eq!(sequence(&planned.rows), sequence(&naive.rows), "{}", q.sql);
                }
                // No order: multiset equality.
                (None, false) => {
                    assert_eq!(multiset(&planned.rows), multiset(&naive.rows), "{}", q.sql);
                }
            }
        }
    });
}

/// Build a small fixed database whose queries exercise every physical
/// operator at least once.
fn fixed_db() -> Database {
    let mut db = Database::new("fixed", Dialect::Canonical);
    db.execute("CREATE TABLE t1 (id INT PRIMARY KEY, a INT, b TEXT, c DOUBLE)")
        .unwrap();
    db.execute("CREATE INDEX t1_a ON t1 (a)").unwrap();
    db.execute("CREATE TABLE t2 (id INT PRIMARY KEY, t1_id INT, d TEXT)")
        .unwrap();
    db.execute("CREATE INDEX t2_t1 ON t2 (t1_id)").unwrap();
    db.execute(
        "INSERT INTO t1 VALUES (0, 1, 'ward', 1.5), (1, 1, 'icu', 2.5), \
         (2, 2, 'lab', NULL), (3, NULL, 'er', 4.0), (4, 3, 'ward', 0.5)",
    )
    .unwrap();
    db.execute("INSERT INTO t2 VALUES (0, 1, 'x'), (1, 1, 'y'), (2, 3, 'x'), (3, NULL, 'z')")
        .unwrap();
    db
}

#[test]
fn explain_names_the_operators_that_ran() {
    let mut db = fixed_db();
    // One query per plan shape; together they cover every operator:
    // seq scan, index scan (point and range), filter, nested-loop join,
    // hash join, index join, hash aggregate, project, distinct, sort,
    // limit.
    let queries = [
        "SELECT id, b FROM t1",
        "SELECT id FROM t1 WHERE id = 2",
        "SELECT id FROM t1 WHERE a > 1 AND b = 'ward'",
        "SELECT id, b FROM t1 WHERE id BETWEEN 1 AND 3",
        "SELECT t1.b, t2.d FROM t1 JOIN t2 ON t1.id = t2.t1_id",
        "SELECT t1.b, t2.d FROM t1 LEFT JOIN t2 ON t1.id = t2.t1_id WHERE t1.a = 1",
        "SELECT t1.b, t2.d FROM t1, t2 LIMIT 3",
        "SELECT a, COUNT(*) n FROM t1 GROUP BY a HAVING COUNT(*) > 1 ORDER BY n DESC",
        "SELECT DISTINCT b FROM t1 ORDER BY b LIMIT 2",
    ];
    for sql in queries {
        let stmt = parse_statement(sql).unwrap();
        let Statement::Select(select) = stmt else {
            panic!("{sql}: expected SELECT");
        };
        // Plan once against the live catalog; take the operator list
        // and rendering the planner would hand to EXPLAIN.
        let (expected_ops, rendered) = {
            let plan = plan_select(&select, db.tables()).unwrap();
            (plan.operator_names(), plan.render())
        };

        // Execute: metrics must list exactly the planned operators.
        db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let ran = db.last_exec_metrics().expect("metrics after SELECT");
        assert_eq!(ran.operators, expected_ops, "operators for {sql}");

        // EXPLAIN must render that same plan, line for line.
        let explained = db
            .execute(&format!("EXPLAIN {sql}"))
            .unwrap()
            .rows()
            .expect("EXPLAIN rows")
            .clone();
        let lines: Vec<String> = explained
            .rows
            .iter()
            .map(|r| match &r[0] {
                Datum::Text(t) => t.clone(),
                other => panic!("EXPLAIN row {other:?}"),
            })
            .collect();
        assert_eq!(lines, rendered, "EXPLAIN text for {sql}");
    }
}
