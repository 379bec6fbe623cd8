//! Property tests for the planned, pipelined executor.
//!
//! A unit-test module of the relstore library (see `lib.rs`), so that
//! it can run the reference interpreter, which only test builds carry.
//!
//! Three contracts from the query-engine refactor:
//!
//! 1. **Result equivalence** — over generated schemas, data, and
//!    queries, the cost-informed planner + pipelined executor must
//!    produce the same results as the naive reference interpreter
//!    (`tests/support/naive.rs`): exact sequences when the
//!    query orders by a unique key, multisets otherwise, and for
//!    `LIMIT` a correctly-sized subset of the unlimited result. Rows
//!    are compared cell by cell in a typed text form (doubles by their
//!    bits), not through `Datum`'s own `==`, under which `1` equals
//!    `1.0`.
//! 2. **EXPLAIN consistency** — the rendered `EXPLAIN` output comes
//!    from the same [`crate::PhysicalPlan`] the executor runs, so the
//!    operators named in the plan are exactly the operators
//!    [`ExecMetrics`] says executed, a primary-key point lookup
//!    included.
//! 3. **Sink parity** — the rows `execute_plan_into` and
//!    `Database::select_into` hand a sink, made owned, are the rows a
//!    [`ResultSet`] collects from them, column names first, with equal
//!    [`ExecMetrics`].
//! 4. **Exact ranges** — `Table::index_range` returns exactly the rows
//!    a heap scan keeps under `sql_cmp` for the conjuncts merged into
//!    its range, so the residual filter holds only the conjuncts the
//!    range does not answer, and no filter when it answers all; the
//!    answers, errors included, are still the reference's.

use crate::exec::naive::execute_select_naive;
use crate::exec::{execute_plan_into, execute_plan_one_at_a_time, ResultSet};
use crate::expr::{BinOp, Expr};
use crate::sql::{parse_statement, Statement};
use crate::storage::PROBE_BATCH;
use crate::types::{format_date, parse_date};
use crate::{
    plan_select, Column, DataType, Database, Datum, Dialect, ExecMetrics, PhysicalPlan, RelError,
    RelResult, RowSink, Sarg, TableSchema,
};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Bound;
use webfindit_base::prop::{cases, pick};
use webfindit_base::rng::StdRng;

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
        range_pair(rng, q),
    ];
    match rng.gen_range(0..6usize) {
        0 => format!("{} AND {}", pick(rng, &atoms), pick(rng, &atoms)),
        1 => format!("{} OR {}", pick(rng, &atoms), pick(rng, &atoms)),
        // Three range conjuncts on one column intersect into one sarg.
        2 => {
            let col = *pick(rng, &["id", "a"]);
            format!("{} AND {}", range_pair(rng, q), range_bound(rng, q, col))
        }
        3 => {
            let parts: Vec<String> = (0..rng.gen_range(2..9usize))
                .map(|_| pick(rng, &atoms).clone())
                .collect();
            let kw = *pick(rng, &[" AND ", " OR "]);
            flat_chain(rng, &parts, kw)
        }
        _ => pick(rng, &atoms).clone(),
    }
}

/// `parts` joined by `kw`, as one flat chain or with a run of two or
/// more of them in parentheses: the same kind of chain inside its own
/// kind, which parses into the same list.
fn flat_chain(rng: &mut StdRng, parts: &[String], kw: &str) -> String {
    let n = parts.len();
    if n < 3 || rng.gen_bool(0.5) {
        return parts.join(kw);
    }
    let from = rng.gen_range(0..n - 1);
    let to = rng.gen_range(from + 2..=n);
    let inner = format!("({})", parts[from..to].join(kw));
    let mut out: Vec<&str> = parts[..from].iter().map(String::as_str).collect();
    out.push(&inner);
    out.extend(parts[to..].iter().map(String::as_str));
    out.join(kw)
}

/// One range conjunct on `col`: any of the four comparisons, with the
/// literal on either side (`5 < id`), an Int or a Double bound.
fn range_bound(rng: &mut StdRng, q: &str, col: &str) -> String {
    let op = *pick(rng, &["<", "<=", ">", ">="]);
    let lit = match rng.gen_range(0..4usize) {
        0 => format!("{}.5", rng.gen_range(0..40usize)),
        1 => format!("{}.0", rng.gen_range(0..40usize)),
        _ => rng.gen_range(0..40usize).to_string(),
    };
    if rng.gen_bool(0.5) {
        format!("{q}{col} {op} {lit}")
    } else {
        format!("{lit} {op} {q}{col}")
    }
}

/// Two range conjuncts on the primary key `id` or the secondary-indexed
/// `a`: random bounds (so inverted pairs too), or both bounds on one
/// key with one or both ends excluded.
fn range_pair(rng: &mut StdRng, q: &str) -> String {
    let col = *pick(rng, &["id", "a"]);
    if rng.gen_bool(0.5) {
        return format!(
            "{} AND {}",
            range_bound(rng, q, col),
            range_bound(rng, q, col)
        );
    }
    let k = rng.gen_range(0..40usize);
    let lo = *pick(rng, &[">", ">="]);
    let hi = *pick(rng, &["<", "<="]);
    format!("{q}{col} {lo} {k} AND {q}{col} {hi} {k}")
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
                // A conjunct on the joined side, which no base range
                // answers; NULL-padded under a LEFT JOIN.
                if rng.gen_bool(0.5) {
                    let t2 = ["t2.d IS NULL", "t2.d = 'ward'", "t2.id > 5"];
                    sql.push_str(&format!(" AND {}", pick(rng, &t2)));
                }
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

/// A sink that keeps `into_owned` of each cell it is handed, leaving
/// the executor's row as it was, and checks the column names come first.
#[derive(Default)]
struct Owned {
    columns: Option<Vec<String>>,
    rows: Vec<Vec<Datum>>,
}

impl RowSink for Owned {
    fn columns(&mut self, columns: &[String]) -> RelResult<()> {
        assert!(self.columns.is_none() && self.rows.is_empty());
        self.columns = Some(columns.to_vec());
        Ok(())
    }

    fn row(&mut self, row: &mut [Cow<'_, Datum>]) -> RelResult<()> {
        assert!(self.columns.is_some(), "a row before the column names");
        self.rows
            .push(row.iter().map(|c| c.clone().into_owned()).collect());
        Ok(())
    }
}

/// The sink paths against the collecting ones for `sql` over `db`: the
/// planned pipeline and `Database::select`. Returns the streamed rows.
fn sink_parity(db: &Database, sql: &str) -> Vec<Vec<Datum>> {
    let stmt = parse_statement(sql).unwrap();
    let Statement::Select(select) = &stmt else {
        panic!("{sql}: expected SELECT");
    };
    let plan = plan_select(select, db.tables()).unwrap();
    let (collected, m) =
        ResultSet::collect(|rs| execute_plan_into(&plan, db.tables(), rs)).unwrap();
    let mut owned = Owned::default();
    let streamed: ExecMetrics = execute_plan_into(&plan, db.tables(), &mut owned).unwrap();
    assert_eq!(owned.columns.as_ref(), Some(&collected.columns), "{sql}");
    assert_eq!(sequence(&owned.rows), sequence(&collected.rows), "{sql}");
    assert_eq!(streamed, m, "plan metrics for {sql}");
    assert_eq!(streamed.operators, plan.operator_names(), "{sql}");

    let (selected, m) = db.select(&stmt).unwrap();
    let mut owned = Owned::default();
    let streamed: ExecMetrics = db.select_into(&stmt, &mut owned).unwrap();
    assert_eq!(owned.columns.as_ref(), Some(&selected.columns), "{sql}");
    assert_eq!(sequence(&owned.rows), sequence(&selected.rows), "{sql}");
    assert_eq!(streamed, m, "select metrics for {sql}");
    owned.rows
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
            assert_residual(&db, &q.sql);
            let streamed = sink_parity(&db, &q.sql);
            for rows in [&planned.rows, &streamed] {
                match (q.limit, q.ordered) {
                    // LIMIT without a total order: both executors may keep
                    // different rows. The planned result must be the right
                    // size and a sub-multiset of the unlimited result.
                    (Some(_), false) => {
                        assert_eq!(rows.len(), naive.rows.len(), "{}", q.sql);
                        let unlimited = q.sql[..q.sql.rfind(" LIMIT").unwrap()].to_owned();
                        let full = multiset(&run_naive(&db, &unlimited).unwrap().rows);
                        for row in rows {
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
                        assert_eq!(sequence(rows), sequence(&naive.rows), "{}", q.sql);
                    }
                    // No order: multiset equality.
                    (None, false) => {
                        assert_eq!(multiset(rows), multiset(&naive.rows), "{}", q.sql);
                    }
                }
            }
        }
    });
}

/// At least four distinct values from `pool`, in a random order.
fn some_of<'p>(rng: &mut StdRng, pool: &[&'p str]) -> Vec<&'p str> {
    let mut v = pool.to_vec();
    rng.shuffle(&mut v);
    v.truncate(rng.gen_range(4..=pool.len()));
    v
}

const DAYS: [&str; 6] = [
    "'2024-01-04'",
    "'2024-01-05'",
    "'2024-1-5'",
    "'2024-01-06'",
    "'2024-1-7'",
    "'2024-01-08'",
];

/// Tables keyed on each type, `ki` INT, `kd` DOUBLE, `kt` TEXT and
/// `kday` DATE (`k PRIMARY KEY, v INT`), and `src`, whose nullable
/// columns `i` INT, `d` DOUBLE, `day` DATE and `t` TEXT join them.
/// TEXT keys and `t` hold two spellings of some days. `src` holds at
/// most three rows and a keyed table at least three, so every join the
/// key types allow is an index join.
fn gen_keyed_db(rng: &mut StdRng) -> Database {
    let mut db = Database::new("keyed", Dialect::Canonical);
    let ints: Vec<String> = (0..12).map(|n| n.to_string()).collect();
    let doubles: Vec<String> = (0..6)
        .flat_map(|n| [format!("{n}.0"), format!("{n}.5")])
        .collect();
    let texts = ["'ward'", "'icu'", "'4'"];
    let pools: [(&str, &str, Vec<&str>); 4] = [
        ("ki", "INT", ints.iter().map(String::as_str).collect()),
        ("kd", "DOUBLE", doubles.iter().map(String::as_str).collect()),
        ("kt", "TEXT", DAYS.iter().chain(&texts).copied().collect()),
        ("kday", "DATE", DAYS.to_vec()),
    ];
    for (name, ty, pool) in &pools {
        db.execute(&format!("CREATE TABLE {name} (k {ty} PRIMARY KEY, v INT)"))
            .unwrap();
        for (v, k) in some_of(rng, pool).iter().enumerate() {
            // Two spellings of one day are one DATE key.
            let _ = db.execute(&format!("INSERT INTO {name} VALUES ({k}, {v})"));
        }
    }
    db.execute("CREATE TABLE src (id INT PRIMARY KEY, i INT, d DOUBLE, day DATE, t TEXT)")
        .unwrap();
    for id in 0..rng.gen_range(0..4usize) {
        let mut cell = |values: &[&str]| -> String {
            if rng.gen_bool(0.15) {
                "NULL".to_owned()
            } else {
                pick(rng, values).to_string()
            }
        };
        let i = cell(&["0", "3", "5", "11", "12"]);
        let d = cell(&["0.0", "3.0", "3.5", "5", "11.0"]);
        let day = cell(&DAYS);
        let t = cell(&[
            "'2024-01-05'",
            "'2024-1-5'",
            "'2024-01-08'",
            "'ward'",
            "'4'",
        ]);
        db.execute(&format!(
            "INSERT INTO src VALUES ({id}, {i}, {d}, {day}, {t})"
        ))
        .unwrap();
    }
    db
}

/// Primary-key points and joins whose literal or probe type differs
/// from the key's (`k = 3.0` on INT, an integer on DOUBLE, text on
/// DATE, a DATE on TEXT), planned against the reference, which reads
/// only the heap. A join of numeric or same-typed keys runs as an index
/// join; any other pair, a DATE column against a TEXT key among them,
/// hash-joins under `GroupKey` equality, where no DATE equals a TEXT. A
/// point on a key runs as an index scan, except a DATE literal on TEXT,
/// which equals every spelling of its day.
#[test]
fn cross_type_key_probes_match_the_naive_reference() {
    cases(60, |rng| {
        let db = gen_keyed_db(rng);
        let n = rng.gen_range(0..7usize);
        let day = *pick(rng, &DAYS);
        let points = [
            (format!("SELECT * FROM ki WHERE k = {n}.0"), true),
            (format!("SELECT * FROM ki WHERE k = {n}.5"), true),
            (format!("SELECT * FROM ki WHERE k = {n}"), true),
            (format!("SELECT v FROM kd WHERE k = {n}"), true),
            (format!("SELECT v FROM kd WHERE {n}.5 = k"), true),
            (format!("SELECT v FROM kday WHERE k = {day}"), true),
            (format!("SELECT v FROM kday WHERE k = DATE {day}"), true),
            (format!("SELECT v FROM kt WHERE k = {day}"), true),
            (format!("SELECT v FROM kt WHERE k = '{n}'"), true),
            (format!("SELECT v FROM kt WHERE k = DATE {day}"), false),
            (format!("SELECT * FROM ki WHERE k = '{n}'"), true),
        ];
        let joins = [
            ("ki", "src.d", "index join"),
            ("kd", "src.i", "index join"),
            ("kday", "src.day", "index join"),
            ("kt", "src.t", "index join"),
            ("kt", "src.day", "hash join"),
            ("kday", "src.t", "hash join"),
            ("ki", "src.t", "hash join"),
        ];
        let mut queries: Vec<(String, Option<&str>)> = Vec::new();
        for (sql, indexed) in points {
            queries.push((sql, Some(if indexed { "index scan" } else { "seq scan" })));
        }
        for (table, col, op) in joins {
            let kind = *pick(rng, &["JOIN", "LEFT JOIN"]);
            let sql =
                format!("SELECT src.id, {table}.v FROM src {kind} {table} ON {col} = {table}.k");
            queries.push((sql, (kind == "JOIN").then_some(op)));
        }
        for (sql, op) in queries {
            let planned = db
                .select(&parse_statement(&sql).unwrap())
                .unwrap_or_else(|e| panic!("planned {sql}: {e}"));
            let naive = run_naive(&db, &sql).unwrap_or_else(|e| panic!("naive {sql}: {e}"));
            assert_eq!(multiset(&planned.0.rows), multiset(&naive.rows), "{sql}");
            if let Some(op) = op {
                assert!(
                    planned.1.operators.contains(&op),
                    "{sql}: {:?}",
                    planned.1.operators
                );
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

        // Execute: metrics must list exactly the planned operators, on
        // the sink path too.
        sink_parity(&db, sql);
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

    // Generated PK points, with an explicit select list and with `*`,
    // the key stored or not: `Database::select` runs the planned tree.
    cases(20, |rng| {
        let db = gen_db(rng);
        let key = rng.gen_range(0..45usize);
        let cols = *pick(rng, &["b", "a, c", "id, b, c", "c AS cost, id"]);
        for list in [cols, "*"] {
            let sql = format!("SELECT {list} FROM t1 WHERE id = {key}");
            let stmt = parse_statement(&sql).unwrap();
            let Statement::Select(select) = &stmt else {
                unreachable!()
            };
            let plan = plan_select(select, db.tables()).unwrap();
            assert_eq!(
                plan.operator_names(),
                ["index scan", "filter", "project"],
                "{sql}"
            );
            let (rs, m) = db.select(&stmt).unwrap();
            assert_eq!(m.operators, plan.operator_names(), "{sql}");
            assert_eq!(rs.columns, plan.output_columns(), "{sql}");
            assert!(rs.rows.len() <= 1, "{sql}");
            sink_parity(&db, &sql);
        }
    });
}

/// Both bounds of `seq >= 7000 AND seq < 8500` narrow one index walk:
/// the scan touches the 1 500 keys in range, not the 8 500 below the
/// upper bound.
#[test]
fn a_two_sided_range_walks_only_its_keys() {
    let mut db = Database::new("visits", Dialect::Canonical);
    db.execute("CREATE TABLE visits (seq INT PRIMARY KEY, cost DOUBLE)")
        .unwrap();
    for chunk in (0..20_000).collect::<Vec<i64>>().chunks(1_000) {
        let values: Vec<String> = chunk.iter().map(|s| format!("({s}, {s}.5)")).collect();
        db.execute(&format!("INSERT INTO visits VALUES {}", values.join(", ")))
            .unwrap();
    }
    let sql = "SELECT cost FROM visits WHERE seq >= 7000 AND seq < 8500";
    let Statement::Select(select) = parse_statement(sql).unwrap() else {
        unreachable!()
    };
    let plan = plan_select(&select, db.tables()).unwrap().render();
    assert!(
        plan.iter()
            .any(|l| l.contains("index range scan visits.seq >= 7000 AND seq < 8500")),
        "{plan:?}"
    );
    let rows = db.execute(sql).unwrap().rows().unwrap().rows.len();
    assert_eq!(rows, 1_500);
    let m = db.last_exec_metrics().unwrap();
    assert_eq!((m.rows_scanned, m.index_hits), (1_500, 1_500));
}

/// Whether a range scan of `column`, of type `ty`, answers conjunct `c`:
/// a comparison or a `BETWEEN` of the base column with non-NULL
/// literals its type holds, the literal on either side.
fn answered_by_range(c: &Expr, column: &str, ty: DataType) -> bool {
    let is_col = |e: &Expr| {
        matches!(e, Expr::Column { table, name }
            if name == column && table.as_deref().is_none_or(|t| t == "t1"))
    };
    let holds = |e: &Expr| matches!(e, Expr::Literal(d) if !d.is_null() && d.coerce(ty).is_some());
    match c {
        Expr::Binary {
            op: BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge,
            left,
            right,
        } => (is_col(left) && holds(right)) || (holds(left) && is_col(right)),
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => is_col(expr) && holds(low) && holds(high),
        _ => false,
    }
}

/// The filter `sql`'s plan must carry: under a range scan the WHERE
/// conjuncts the range does not answer, AND-ed in written order, and
/// none when it answers all; under any other access path the whole
/// clause. Checked on the plan's `Filter` node and on its rendering.
fn assert_residual(db: &Database, sql: &str) {
    let Statement::Select(select) = parse_statement(sql).unwrap() else {
        panic!("{sql}: expected SELECT");
    };
    let plan = plan_select(&select, db.tables()).unwrap();
    let (mut leaf, mut filter) = (&plan, None);
    while let Some(input) = leaf.input() {
        if let PhysicalPlan::Filter(f) = leaf {
            filter = Some(f.pred_written.to_sql());
        }
        leaf = input;
    }
    let expected = match (&select.filter, leaf) {
        (Some(w), PhysicalPlan::IxScan(scan)) if matches!(scan.sarg, Sarg::Range { .. }) => {
            let ty = db.tables()[&scan.table].schema.columns[scan.col_idx].data_type;
            let all = w.conjuncts();
            let rest: Vec<Expr> = all
                .iter()
                .filter(|c| !answered_by_range(c, &scan.column, ty))
                .cloned()
                .collect();
            assert!(
                rest.len() < all.len(),
                "{sql}: a range that answers nothing"
            );
            (!rest.is_empty()).then(|| Expr::junction(Expr::And, rest))
        }
        (w, _) => w.clone(),
    }
    .map(|e| e.to_sql());
    assert_eq!(filter, expected, "{sql}");
    let rendered: Vec<String> = plan
        .render()
        .iter()
        .filter_map(|l| l.trim_start().strip_prefix("filter: ").map(str::to_owned))
        .collect();
    assert_eq!(rendered, Vec::from_iter(expected), "{sql}");
}

/// Range conjuncts on the primary key, which the index answers exactly,
/// then one that raises an error on some or every row it reaches: the
/// planned answer, or its error, is the reference's, over a single
/// table and under an inner or left join. The range comes first, and on
/// a key that is never NULL: where the failing conjunct comes first, or
/// the range is unknown (a NULL key), the reference reaches it on rows
/// no index returns.
#[test]
fn a_covered_range_keeps_the_errors_of_its_other_conjuncts() {
    cases(60, |rng| {
        let db = gen_db(rng);
        let range = match rng.gen_range(0..3usize) {
            0 => format!(
                "{} AND {}",
                range_bound(rng, "t1.", "id"),
                range_bound(rng, "t1.", "id")
            ),
            1 => {
                let lo = rng.gen_range(0..40usize);
                format!("t1.id BETWEEN {lo} AND {}", lo + rng.gen_range(0..10usize))
            }
            _ => range_bound(rng, "t1.", "id"),
        };
        // Messages that do not depend on the row that raised them, as
        // the index walk meets rows in another order than the heap.
        let failing = *pick(
            rng,
            &[
                "(t1.id >= 0) + 1 > 0",
                "t1.id / (t1.id - 5) > 0",
                "'ward' LIKE 3",
                "t1.id / (t1.id - 5) > 0 AND t1.b = 'icu'",
            ],
        );
        let from = *pick(
            rng,
            &[
                "t1",
                "t1 JOIN t2 ON t1.id = t2.t1_id",
                "t1 LEFT JOIN t2 ON t1.id = t2.t1_id",
            ],
        );
        let sql = format!("SELECT t1.id, t1.c FROM {from} WHERE {range} AND {failing}");
        assert_residual(&db, &sql);
        let planned = db.select(&parse_statement(&sql).unwrap());
        let naive = run_naive(&db, &sql);
        match (planned, naive) {
            (Ok((p, _)), Ok(n)) => assert_eq!(multiset(&p.rows), multiset(&n.rows), "{sql}"),
            (p, n) => assert_eq!(
                p.map(|_| ()).map_err(|e| e.to_string()),
                n.map(|_| ()).map_err(|e| e.to_string()),
                "{sql}"
            ),
        }
    });
}

/// The divergence DESIGN states for rows an index never returns: they
/// are never evaluated. A range on the nullable indexed `a`, beside a
/// conjunct that raises, answers without error, while the reference,
/// which reads every row, reaches that conjunct on a row whose `a` is
/// NULL (the range is unknown there), or first when it is written
/// before the range, and raises TypeMismatch.
#[test]
fn rows_a_range_never_returns_are_never_evaluated() {
    let mut db = Database::new("prop", Dialect::Canonical);
    db.execute("CREATE TABLE t1 (id INT PRIMARY KEY, a INT, b TEXT, c DOUBLE)")
        .unwrap();
    db.execute("CREATE INDEX t1_a ON t1 (a)").unwrap();
    db.execute("INSERT INTO t1 VALUES (1, 3, 'icu', 1.0), (2, NULL, 'ward', NULL)")
        .unwrap();
    for sql in [
        "SELECT t1.id FROM t1 WHERE t1.a > 32 AND t1.a < 32 AND (t1.id >= 0) + 1 > 0",
        "SELECT t1.id FROM t1 WHERE (t1.id >= 0) + 1 > 0 AND t1.a > 32 AND t1.a < 32",
    ] {
        let Statement::Select(select) = parse_statement(sql).unwrap() else {
            unreachable!()
        };
        let plan = plan_select(&select, db.tables()).unwrap();
        let mut leaf = &plan;
        while let Some(input) = leaf.input() {
            leaf = input;
        }
        assert!(
            matches!(leaf, PhysicalPlan::IxScan(s) if s.column == "a" && matches!(s.sarg, Sarg::Range { .. })),
            "{sql}: {leaf:?}"
        );
        assert_residual(&db, sql);
        let (planned, _) = db.select(&Statement::Select(select)).unwrap();
        assert!(planned.rows.is_empty(), "{sql}");
        let naive = run_naive(&db, sql);
        assert!(
            matches!(naive, Err(RelError::TypeMismatch { .. })),
            "{sql}: {naive:?}"
        );
    }
}

/// Keys of one type that a table can hold but a SQL literal mostly
/// cannot name: NaN, both zeros, both infinities, negatives, integral
/// doubles, two spellings of one day as TEXT.
fn key_pool(ty: DataType) -> Vec<Datum> {
    let day = |s: &str| Datum::Date(parse_date(s).unwrap());
    match ty {
        DataType::Int => [i64::MIN, -5, -1, 0, 1, 2, 3, 5, 8, 13, i64::MAX]
            .map(Datum::Int)
            .to_vec(),
        DataType::Double => [
            f64::NAN,
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.5,
            1.0,
            2.0,
            2.5,
            3.0,
            7.0,
            1e300,
        ]
        .map(Datum::Double)
        .to_vec(),
        DataType::Text => [
            "",
            "4",
            "icu",
            "ward",
            "ward2",
            "2024-01-05",
            "2024-1-5",
            "Z",
        ]
        .map(|t| Datum::Text(t.into()))
        .to_vec(),
        _ => [
            "1969-12-31",
            "2024-01-04",
            "2024-01-05",
            "2024-01-07",
            "2024-01-09",
            "2024-01-10",
        ]
        .map(day)
        .to_vec(),
    }
}

/// Literals `sarg_of` accepts on a column of type `ty`: INT and DOUBLE
/// bounds on DOUBLE, text dates in either spelling and DATE literals on
/// DATE.
fn literal_pool(ty: DataType) -> &'static [&'static str] {
    match ty {
        DataType::Int => &["0", "1", "2", "3", "5", "8", "12"],
        DataType::Double => &["0", "1", "2", "3", "0.0", "2.0", "2.5", "7.5"],
        DataType::Text => &["''", "'4'", "'icu'", "'ward'", "'2024-1-5'", "'a'"],
        // '2024-1-9' sorts after '2024-01-10' as text.
        _ => &[
            "'2024-01-05'",
            "'2024-1-5'",
            "'2024-1-9'",
            "'2024-01-10'",
            "DATE '2024-01-07'",
        ],
    }
}

/// Whether key `k` satisfies conjunct `c` over the column `k`, under
/// `sql_cmp`.
fn accepts(c: &Expr, k: &Datum) -> bool {
    let value = |e: &Expr| match e {
        Expr::Literal(d) => d.clone(),
        _ => k.clone(),
    };
    match c {
        Expr::Binary { op, left, right } => {
            value(left)
                .sql_cmp(&value(right))
                .is_some_and(|o| match op {
                    BinOp::Lt => o.is_lt(),
                    BinOp::Le => o.is_le(),
                    BinOp::Gt => o.is_gt(),
                    BinOp::Ge => o.is_ge(),
                    _ => unreachable!("{c:?}"),
                })
        }
        Expr::Between { low, high, .. } => {
            k.sql_cmp(&value(low)).is_some_and(Ordering::is_ge)
                && k.sql_cmp(&value(high)).is_some_and(Ordering::is_le)
        }
        _ => unreachable!("{c:?}"),
    }
}

/// The bounds conjunct `c` puts on its column, literals as written.
fn raw_bounds(c: &Expr) -> (Bound<&Datum>, Bound<&Datum>) {
    fn lit(e: &Expr) -> Option<&Datum> {
        match e {
            Expr::Literal(d) => Some(d),
            _ => None,
        }
    }
    match c {
        Expr::Binary { op, left, right } => {
            let (op, d) = match (lit(left), lit(right)) {
                (None, Some(d)) => (*op, d),
                // `lit < k` is `k > lit`.
                (Some(d), None) => match op {
                    BinOp::Lt => (BinOp::Gt, d),
                    BinOp::Le => (BinOp::Ge, d),
                    BinOp::Gt => (BinOp::Lt, d),
                    _ => (BinOp::Le, d),
                },
                _ => unreachable!("{c:?}"),
            };
            match op {
                BinOp::Lt => (Bound::Unbounded, Bound::Excluded(d)),
                BinOp::Le => (Bound::Unbounded, Bound::Included(d)),
                BinOp::Gt => (Bound::Excluded(d), Bound::Unbounded),
                _ => (Bound::Included(d), Bound::Unbounded),
            }
        }
        Expr::Between { low, high, .. } => (
            Bound::Included(lit(low).unwrap()),
            Bound::Included(lit(high).unwrap()),
        ),
        _ => unreachable!("{c:?}"),
    }
}

/// Over keys of every indexable type, NULLs and NaN among them, in a
/// primary key and in a secondary index: one to three range conjuncts
/// on the key (either side, excluded and inverted bounds, BETWEEN) are
/// all merged into one index range, no filter is left, and the range
/// returns exactly the slots a heap scan keeps under `sql_cmp`, in key
/// order. Each conjunct's bounds as written, handed to
/// `Table::index_range` directly, are as exact; and the planned answer
/// is the reference's.
#[test]
fn a_range_is_exactly_its_conjuncts() {
    cases(400, |rng| {
        let ty = *pick(
            rng,
            &[
                DataType::Int,
                DataType::Double,
                DataType::Text,
                DataType::Date,
            ],
        );
        let pool = key_pool(ty);
        let mut db = Database::new("ranges", Dialect::Canonical);
        // `p`: the key alone, each value once (0.0 and -0.0 are one).
        let mut keys: Vec<Datum> = Vec::new();
        for _ in 0..rng.gen_range(0..12usize) {
            let k = pick(rng, &pool).clone();
            if !keys.iter().any(|o| o.group_eq(&k)) {
                keys.push(k);
            }
        }
        let schema = TableSchema::new("p", vec![Column::new("k", ty).primary_key()]);
        db.import_table(schema, keys.into_iter().map(|k| vec![k]).collect())
            .unwrap();
        // `s`: the key under a secondary index, repeated and NULL.
        let rows = (0..rng.gen_range(0..16i64))
            .map(|id| {
                let k = if rng.gen_bool(0.2) {
                    Datum::Null
                } else {
                    pick(rng, &pool).clone()
                };
                vec![Datum::Int(id), k]
            })
            .collect();
        let schema = TableSchema::new(
            "s",
            vec![
                Column::new("id", DataType::Int).primary_key(),
                Column::new("k", ty),
            ],
        );
        db.import_table(schema, rows).unwrap();
        db.execute("CREATE INDEX s_k ON s (k)").unwrap();

        let mut conjs: Vec<String> = Vec::new();
        for _ in 0..rng.gen_range(1..4usize) {
            let lits = literal_pool(ty);
            let (a, b) = (*pick(rng, lits), *pick(rng, lits));
            let op = *pick(rng, &["<", "<=", ">", ">=", "BETWEEN"]);
            conjs.push(match (op, rng.gen_bool(0.5)) {
                ("BETWEEN", _) => format!("k BETWEEN {a} AND {b}"),
                (op, true) => format!("k {op} {a}"),
                (op, false) => format!("{a} {op} k"),
            });
        }
        for (name, col) in [("p", 0), ("s", 1)] {
            let sql = format!("SELECT * FROM {name} WHERE {}", conjs.join(" AND "));
            let stmt = parse_statement(&sql).unwrap();
            let Statement::Select(select) = &stmt else {
                unreachable!()
            };
            let plan = plan_select(select, db.tables()).unwrap();
            assert_eq!(plan.operator_names(), ["index scan", "project"], "{sql}");
            let Some(PhysicalPlan::IxScan(scan)) = plan.input() else {
                panic!("{sql}: {:?}", plan.render());
            };
            let Sarg::Range { lo, hi } = &scan.sarg else {
                panic!("{sql}: {:?}", scan.sarg);
            };
            let table = &db.tables()[name];
            let written = select.filter.as_ref().unwrap().conjuncts();
            let heap = |cs: &[Expr]| -> Vec<usize> {
                table
                    .scan()
                    .filter(|(_, r)| cs.iter().all(|c| accepts(c, &r[col])))
                    .map(|(slot, _)| slot)
                    .collect()
            };
            let sorted = |mut v: Vec<usize>| {
                v.sort_unstable();
                v
            };
            let slots = table.index_range(col, lo.as_ref(), hi.as_ref()).unwrap();
            let key = |slot: usize| &table.row(slot).unwrap()[col];
            assert!(
                slots.windows(2).all(|w| key(w[0]) <= key(w[1])),
                "{sql}: not in key order"
            );
            assert_eq!(sorted(slots), heap(written), "{sql}");
            for c in written {
                let (lo, hi) = raw_bounds(c);
                let slots = table.index_range(col, lo, hi).unwrap();
                let one = std::slice::from_ref(c);
                assert_eq!(sorted(slots), heap(one), "{sql}: {}", c.to_sql());
            }
            let (planned, _) = db.select(&stmt).unwrap();
            let naive = run_naive(&db, &sql).unwrap();
            assert_eq!(multiset(&planned.rows), multiset(&naive.rows), "{sql}");
        }
    });
}

/// A sink that keeps every row it is handed, so that the rows a
/// statement emitted before an error can be compared too.
#[derive(Default)]
struct Kept(Vec<Vec<Datum>>);

impl RowSink for Kept {
    fn columns(&mut self, _: &[String]) -> RelResult<()> {
        Ok(())
    }

    fn row(&mut self, row: &mut [Cow<'_, Datum>]) -> RelResult<()> {
        self.0
            .push(row.iter().map(|c| c.clone().into_owned()).collect());
        Ok(())
    }
}

/// `src(id, i, d, day, t)` of `n` rows, ids `0..n` in heap order, whose
/// nullable columns join tables keyed on each type as in
/// [`gen_keyed_db`]: `ki` INT, `kd` DOUBLE, `kt` TEXT, `kday` DATE
/// (`k PRIMARY KEY, v INT`), and `dup(id, k, v)`, whose `k` a secondary
/// index holds with duplicates. Each keyed table holds more rows than
/// `src`, so every join the key types allow is an index join. `src`
/// holds NULL, absent and duplicate keys; TEXT keys and `t` hold two
/// spellings of some days.
fn gen_batch_db(rng: &mut StdRng, n: usize) -> Database {
    let mut db = Database::new("batch", Dialect::Canonical);
    let first = parse_date("2024-01-01").unwrap();
    // The unpadded spelling of day `k`, where it has one.
    let spell = |k: i64| {
        let padded = format_date(first + k as i32);
        if k < 9 && k % 2 == 0 {
            format!("2024-1-{}", k + 1)
        } else {
            padded
        }
    };
    let keys: Vec<i64> = (0..2 * n as i64 + 8)
        .filter(|k| k % 2 == 0 || rng.gen_bool(0.5))
        .collect();
    let key = |ty, k: i64| match ty {
        DataType::Int => Datum::Int(k),
        DataType::Double => Datum::Double(k as f64 / 2.0),
        DataType::Date => Datum::Date(first + k as i32),
        _ => Datum::Text(format_date(first + k as i32)),
    };
    let keyed = [
        ("ki", DataType::Int),
        ("kd", DataType::Double),
        ("kday", DataType::Date),
        ("kt", DataType::Text),
    ];
    for (name, ty) in keyed {
        let schema = TableSchema::new(
            name,
            vec![
                Column::new("k", ty).primary_key(),
                Column::new("v", DataType::Int),
            ],
        );
        let rows = keys.iter().map(|&k| vec![key(ty, k), Datum::Int(k * 10)]);
        db.import_table(schema, rows.collect()).unwrap();
    }
    let schema = TableSchema::new(
        "dup",
        vec![
            Column::new("id", DataType::Int).primary_key(),
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Int),
        ],
    );
    let rows = (0..n as i64 + 4).map(|id| {
        let k = rng.gen_range(0..n as i64 / 2 + 2);
        vec![Datum::Int(id), Datum::Int(k), Datum::Int(id * 10)]
    });
    db.import_table(schema, rows.collect()).unwrap();
    db.execute("CREATE INDEX dup_k ON dup (k)").unwrap();
    let schema = TableSchema::new(
        "src",
        vec![
            Column::new("id", DataType::Int).primary_key(),
            Column::new("i", DataType::Int),
            Column::new("d", DataType::Double),
            Column::new("day", DataType::Date),
            Column::new("t", DataType::Text),
        ],
    );
    let rows = (0..n as i64).map(|id| {
        let k = rng.gen_range(0..2 * n as i64 + 12);
        let mut cell = |d: Datum| if rng.gen_bool(0.15) { Datum::Null } else { d };
        vec![
            Datum::Int(id),
            cell(Datum::Int(k)),
            cell(Datum::Double(k as f64 / 2.0)),
            cell(Datum::Date(first + k as i32)),
            cell(Datum::Text(if k % 7 == 6 {
                "ward".into()
            } else {
                spell(k)
            })),
        ]
    });
    db.import_table(schema, rows.collect()).unwrap();
    db
}

/// `plan` with its filter moved below the index join it sits on. The
/// filter reads only `src`, the join's left side, so the rows are the
/// same; an error it raises now comes from the join's input.
fn push_filter_below_join(plan: PhysicalPlan) -> PhysicalPlan {
    match plan {
        PhysicalPlan::Filter(mut f) => match *f.input {
            PhysicalPlan::IxJoin(mut j) => {
                f.input = j.input;
                j.input = Box::new(PhysicalPlan::Filter(f));
                PhysicalPlan::IxJoin(j)
            }
            input => {
                f.input = Box::new(push_filter_below_join(input));
                PhysicalPlan::Filter(f)
            }
        },
        PhysicalPlan::Project(mut n) => {
            n.input = Box::new(push_filter_below_join(*n.input));
            PhysicalPlan::Project(n)
        }
        PhysicalPlan::Limit(mut n) => {
            n.input = Box::new(push_filter_below_join(*n.input));
            PhysicalPlan::Limit(n)
        }
        other => other,
    }
}

/// Index joins that probe their left rows in batches answer as the
/// one-tuple pull does: the same rows in the same order, the same error
/// after the same rows, and equal [`ExecMetrics`] (`rows_scanned` and
/// `index_hits` among them); without an error and a LIMIT, the rows are
/// the reference's too. `src` has a length on either side of a multiple
/// of the batch width, and joins every key type, NULL, absent and
/// duplicate keys among its own. A filter moved below the join raises on
/// one row, near a batch edge, so the error arrives while a batch is
/// filling. A LIMIT over a join (through `DISTINCT` or not) streams, so
/// the join pulls no row ahead of it; under an aggregate or a sort the
/// join drains, and batches.
#[test]
fn batched_index_join_matches_the_reference() {
    cases(40, |rng| {
        let w = PROBE_BATCH as i64;
        let n = (rng.gen_range(0..4i64) * w + rng.gen_range(-1..=1i64)).max(0) as usize;
        let db = gen_batch_db(rng, n);
        // A row on either side of a batch edge, or none.
        let raise_at = rng.gen_range(0..4i64) * w + rng.gen_range(-1..=1i64);
        let raises = format!("(src.id - {raise_at}) / (src.id - {raise_at}) = 1");
        let limit = rng.gen_range(0..n + 3);
        let joins = [
            ("ki", "src.i"),
            ("ki", "src.d"),
            ("kd", "src.i"),
            ("kday", "src.day"),
            ("kt", "src.t"),
            ("dup", "src.i"),
        ];
        let (table, col) = *pick(rng, &joins);
        let from = format!("FROM src JOIN {table} ON {col} = {table}.k");
        let chained = "FROM src JOIN ki ON src.i = ki.k JOIN dup ON src.i = dup.k";
        // (SQL, whether the filter moves below the join, whether the
        // answer is the reference's as a multiset.)
        let queries = [
            (format!("SELECT src.id, {table}.v {from}"), false, true),
            (format!("SELECT src.id, ki.v, dup.v {chained}"), false, true),
            (
                format!("SELECT src.id, {table}.v {from} LIMIT {limit}"),
                false,
                false,
            ),
            (
                format!("SELECT DISTINCT {table}.v {from} LIMIT {limit}"),
                false,
                false,
            ),
            (
                format!("SELECT {table}.v, COUNT(*), SUM(src.id) {from} GROUP BY {table}.v"),
                false,
                true,
            ),
            (
                format!("SELECT src.id, {table}.v {from} ORDER BY src.id DESC LIMIT {limit}"),
                false,
                false,
            ),
            (
                format!("SELECT src.id, {table}.v {from} WHERE {raises}"),
                true,
                true,
            ),
            (
                format!("SELECT src.id, {table}.v {from} WHERE {raises} LIMIT {limit}"),
                true,
                false,
            ),
            (
                format!("SELECT src.id, ki.v, dup.v {chained} WHERE {raises}"),
                true,
                true,
            ),
        ];
        for (sql, push, whole) in queries {
            let Statement::Select(select) = parse_statement(&sql).unwrap() else {
                unreachable!()
            };
            let mut plan = plan_select(&select, db.tables()).unwrap();
            assert!(
                plan.operator_names().contains(&"index join"),
                "{sql}: {:?}",
                plan.operator_names()
            );
            if push {
                plan = push_filter_below_join(plan);
            }
            let (mut batched, mut one) = (Kept::default(), Kept::default());
            let got = execute_plan_into(&plan, db.tables(), &mut batched);
            let want = execute_plan_one_at_a_time(&plan, db.tables(), &mut one);
            assert_eq!(sequence(&batched.0), sequence(&one.0), "{sql}");
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{sql}");
            if whole && got.is_ok() {
                let naive = run_naive(&db, &sql).unwrap_or_else(|e| panic!("naive {sql}: {e}"));
                assert_eq!(multiset(&batched.0), multiset(&naive.rows), "{sql}");
            }
        }
    });
}
