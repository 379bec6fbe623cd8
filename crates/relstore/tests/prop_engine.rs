//! Property-based tests for the relational engine.
//!
//! Invariants:
//! * expression printing parses back to the same AST (printer/parser
//!   round-trip);
//! * a primary key's point index agrees with a heap scan under every
//!   writer, for keys of one or two columns of any type;
//! * insert-then-count is consistent under random batches with random
//!   duplicate keys (statement atomicity);
//! * `ORDER BY` output is actually sorted under the engine's total order;
//! * date parse/format round-trips across a wide range.

use std::sync::Arc;
use webfindit_base::prop::{self, pick, string_from, vec_of};
use webfindit_base::rng::StdRng;
use webfindit_relstore::expr::{BinOp, Expr};
use webfindit_relstore::file_mgr::{SimVfs, Vfs};
use webfindit_relstore::sql::ast::Statement;
use webfindit_relstore::sql::parse_statement;
use webfindit_relstore::types::{format_date, parse_date, DataType, Datum, Row};
use webfindit_relstore::{Column, Database, Dialect, ExecOutcome, RelError, TableSchema};

const ALNUM_SPACE: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const IDENT_TAIL: &str = "abcdefghijklmnopqrstuvwxyz0123456789_";

fn arb_datum(rng: &mut StdRng) -> Datum {
    match rng.gen_range(0..5) {
        0 => Datum::Null,
        // Non-negative only: `-1` prints as a unary-negation expression,
        // which is a different (equivalent) AST after reparsing.
        1 => Datum::Int(rng.gen_range(0i32..i32::MAX) as i64),
        2 => Datum::Double(rng.gen_range(0.0f64..1.0e6)),
        3 => {
            let len = rng.gen_range(0usize..13);
            Datum::Text(string_from(rng, ALNUM_SPACE, len))
        }
        _ => Datum::Bool(rng.gen_bool(0.5)),
    }
}

fn arb_cmp_op(rng: &mut StdRng) -> BinOp {
    [
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ][rng.gen_range(0..6usize)]
}

fn arb_ident(rng: &mut StdRng, max_tail: usize) -> String {
    loop {
        let mut s = string_from(rng, LOWER, 1);
        let tail = rng.gen_range(0..=max_tail);
        s.push_str(&string_from(rng, IDENT_TAIL, tail));
        if !is_keyword(&s) {
            return s;
        }
    }
}

/// A small generator of printable-and-parsable expressions.
fn arb_expr(rng: &mut StdRng, depth: u32) -> Expr {
    let pick = if depth == 0 {
        rng.gen_range(0..3)
    } else {
        rng.gen_range(0..8)
    };
    match pick {
        0 => Expr::lit(arb_datum(rng)),
        1 => Expr::col(arb_ident(rng, 8)),
        2 => Expr::qcol(arb_ident(rng, 6), arb_ident(rng, 6)),
        3 => {
            let op = arb_cmp_op(rng);
            Expr::bin(op, arb_expr(rng, depth - 1), arb_expr(rng, depth - 1))
        }
        4 => Expr::bin(
            BinOp::Add,
            arb_expr(rng, depth - 1),
            arb_expr(rng, depth - 1),
        ),
        // A flat AND or OR list of 2 to 8 parts.
        5 | 6 => {
            let parts = vec_of(rng, 2..9, |r| arb_expr(r, depth - 1));
            if pick == 5 {
                Expr::junction(Expr::And, parts)
            } else {
                Expr::junction(Expr::Or, parts)
            }
        }
        _ => Expr::IsNull {
            expr: Box::new(arb_expr(rng, depth - 1)),
            negated: rng.gen_bool(0.5),
        },
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "select"
            | "from"
            | "where"
            | "group"
            | "having"
            | "order"
            | "limit"
            | "and"
            | "or"
            | "not"
            | "in"
            | "between"
            | "like"
            | "is"
            | "null"
            | "true"
            | "false"
            | "join"
            | "inner"
            | "left"
            | "on"
            | "as"
            | "by"
            | "desc"
            | "asc"
            | "date"
            | "count"
            | "sum"
            | "avg"
            | "min"
            | "max"
            | "distinct"
            | "union"
            | "set"
            | "outer"
            | "all"
    )
}

#[test]
fn expr_print_parse_roundtrip() {
    prop::cases(128, |rng| {
        let e = arb_expr(rng, 3);
        // NaN-free and keyword-free by construction, so printing then
        // parsing inside a SELECT must reproduce the AST.
        let sql = format!("SELECT {} FROM dual_t", e.to_sql());
        let stmt = parse_statement(&sql).unwrap();
        match stmt {
            Statement::Select(s) => match &s.items[0] {
                webfindit_relstore::sql::ast::SelectItem::Expr { expr, .. } => {
                    assert_eq!(expr, &e);
                }
                other => panic!("unexpected item {other:?}"),
            },
            other => panic!("unexpected stmt {other:?}"),
        }
    });
}

/// A list written with a run of its parts in parentheses, `(a AND b)
/// AND c` or `a OR (b OR c) OR d`, parses into the one flat list the
/// constructor builds from the same parts.
#[test]
fn a_parenthesised_run_of_a_list_parses_into_the_list() {
    prop::cases(128, |rng| {
        let and = rng.gen_bool(0.5);
        let parts = vec_of(rng, 3..9, |r| arb_expr(r, 2));
        let from = rng.gen_range(0..parts.len() - 1);
        let to = rng.gen_range(from + 2..=parts.len());
        let (kw, join): (&str, fn(Vec<Expr>) -> Expr) = if and {
            (" AND ", Expr::And)
        } else {
            (" OR ", Expr::Or)
        };
        let text = |ps: &[Expr]| {
            let texts: Vec<String> = ps.iter().map(Expr::to_sql).collect();
            texts.join(kw)
        };
        let sql = format!(
            "SELECT {}{}({}){}{} FROM dual_t",
            text(&parts[..from]),
            if from > 0 { kw } else { "" },
            text(&parts[from..to]),
            if to < parts.len() { kw } else { "" },
            text(&parts[to..]),
        );
        let Statement::Select(s) = parse_statement(&sql).unwrap() else {
            panic!("{sql}: not a SELECT");
        };
        let webfindit_relstore::sql::ast::SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!("{sql}: not an expression");
        };
        assert_eq!(expr, &Expr::junction(join, parts), "{sql}");
    });
}

#[test]
fn date_roundtrip() {
    prop::cases(128, |rng| {
        let days = rng.gen_range(-40_000i32..80_000);
        let s = format_date(days);
        assert_eq!(parse_date(&s), Some(days));
    });
}

/// One generated literal: its SQL text and the value it parses to.
#[derive(Clone)]
struct Lit {
    sql: String,
    value: Datum,
}

const KEY_TYPES: [DataType; 5] = [
    DataType::Int,
    DataType::Double,
    DataType::Text,
    DataType::Bool,
    DataType::Date,
];

/// A literal a key column of type `ty` can store, from a domain small
/// enough that generated keys collide. Some are written in another type
/// the column converts: an integer for DOUBLE, text for DATE; and TEXT
/// holds two spellings of one date.
fn key_lit(rng: &mut StdRng, ty: DataType) -> Lit {
    let n = rng.gen_range(0i64..4);
    let day = rng.gen_range(5..8);
    let (sql, value) = match (ty, rng.gen_range(0..3)) {
        (DataType::Int, _) | (DataType::Double, 0) => (n.to_string(), Datum::Int(n)),
        (DataType::Double, 1) => (format!("{n}.5"), Datum::Double(n as f64 + 0.5)),
        (DataType::Double, _) => (format!("{n}.0"), Datum::Double(n as f64)),
        (DataType::Text, _) => {
            let t = *pick(
                rng,
                &["ward", "icu", "2024-01-05", "2024-1-5", "2024-01-06"],
            );
            (format!("'{t}'"), Datum::Text(t.into()))
        }
        (DataType::Bool, _) => {
            let b = rng.gen_bool(0.5);
            (b.to_string().to_uppercase(), Datum::Bool(b))
        }
        (DataType::Date, 0) => {
            let t = format!("2024-01-0{day}");
            (format!("DATE '{t}'"), Datum::Date(parse_date(&t).unwrap()))
        }
        (DataType::Date, 1) => {
            let t = format!("2024-1-{day}");
            (format!("'{t}'"), Datum::Text(t))
        }
        (DataType::Date, _) => {
            let t = format!("2024-01-0{day}");
            (format!("'{t}'"), Datum::Text(t))
        }
    };
    Lit { sql, value }
}

/// A literal compared with a key of type `ty`: mostly one of its own,
/// else one for any key type (`3.0` on INT, an integer on DOUBLE, a DATE
/// on TEXT), or NULL.
fn probe_lit(rng: &mut StdRng, ty: DataType) -> Lit {
    match rng.gen_range(0..10) {
        0 => Lit {
            sql: "NULL".into(),
            value: Datum::Null,
        },
        1..=4 => {
            let other = *pick(rng, &KEY_TYPES);
            key_lit(rng, other)
        }
        _ => key_lit(rng, ty),
    }
}

/// `k0 = l0 AND k1 = l1 ...`
fn key_is(names: &[String], lits: &[Lit]) -> String {
    let terms: Vec<String> = names
        .iter()
        .zip(lits)
        .map(|(n, l)| format!("{n} = {}", l.sql))
        .collect();
    terms.join(" AND ")
}

/// The rows `sql` selects, as an order-free list.
fn selected(db: &mut Database, sql: &str) -> Vec<String> {
    let out = db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let mut rows: Vec<String> = out
        .rows()
        .unwrap()
        .rows
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    rows.sort();
    rows
}

/// How many rows of `t` satisfy `filter`.
fn count_where(db: &mut Database, filter: &str) -> usize {
    selected(db, &format!("SELECT * FROM t WHERE {filter}")).len()
}

/// `sql` on both databases: the same outcome, or the same error.
fn both(keyed: &mut Database, heap: &mut Database, sql: &str) {
    let show = |r: Result<ExecOutcome, RelError>| match r {
        Ok(out) => format!("{out:?}"),
        Err(e) => e.to_string(),
    };
    assert_eq!(show(keyed.execute(sql)), show(heap.execute(sql)), "{sql}");
}

/// `sql` must fail on the keyed table for its key; its heap-only twin
/// skips the statement, as its scan found the key already held.
fn duplicate(keyed: &mut Database, sql: &str) {
    match keyed.execute(sql) {
        Err(RelError::DuplicateKey(_)) => {}
        other => panic!("{sql}: expected a duplicate key, got {other:?}"),
    }
}

/// A primary key's point index agrees with a heap scan under every
/// writer. A table keyed on one or two columns of any type runs random
/// INSERTs (many of a held key), DELETEs, key-changing UPDATEs and
/// BEGIN...ROLLBACK/COMMIT beside an unkeyed twin whose uniqueness the
/// harness decides by scanning it. After every statement both hold the
/// same rows and answer the same probes, absent keys and literals of
/// other types included, and a one-column key answers through the index.
#[test]
fn index_agrees_with_scan() {
    prop::cases(128, |rng| {
        let types: Vec<DataType> = (0..rng.gen_range(1..3usize))
            .map(|_| *pick(rng, &KEY_TYPES))
            .collect();
        let names: Vec<String> = (0..types.len()).map(|i| format!("k{i}")).collect();
        let cols: Vec<String> = names
            .iter()
            .zip(&types)
            .map(|(n, t)| format!("{n} {t} NOT NULL"))
            .collect();
        let mut keyed = Database::new("keyed", Dialect::Canonical);
        keyed
            .execute(&format!(
                "CREATE TABLE t ({}, v INT, PRIMARY KEY ({}))",
                cols.join(", "),
                names.join(", ")
            ))
            .unwrap();
        let mut heap = Database::new("heap", Dialect::Canonical);
        heap.execute(&format!("CREATE TABLE t ({}, v INT)", cols.join(", ")))
            .unwrap();
        let mut in_txn = false;
        for step in 0..rng.gen_range(10..40) {
            let lits: Vec<Lit> = types.iter().map(|&t| key_lit(rng, t)).collect();
            let target = key_is(&names, &lits);
            match rng.gen_range(0..10) {
                0..=4 => {
                    let mut row = lits.clone();
                    if rng.gen_bool(0.2) {
                        let c = rng.gen_range(0..types.len());
                        row[c] = probe_lit(rng, types[c]);
                    }
                    let values: Vec<&str> = row.iter().map(|l| l.sql.as_str()).collect();
                    let sql = format!("INSERT INTO t VALUES ({}, {step})", values.join(", "));
                    let storable = row
                        .iter()
                        .zip(&types)
                        .all(|(l, &t)| !l.value.is_null() && l.value.coerce(t).is_some());
                    if storable && count_where(&mut heap, &key_is(&names, &row)) > 0 {
                        duplicate(&mut keyed, &sql);
                    } else {
                        both(&mut keyed, &mut heap, &sql);
                    }
                }
                5 | 6 => both(
                    &mut keyed,
                    &mut heap,
                    &format!("DELETE FROM t WHERE {target}"),
                ),
                7 | 8 => {
                    let c = rng.gen_range(0..types.len());
                    let mut moved = lits.clone();
                    moved[c] = key_lit(rng, types[c]);
                    let sql = format!(
                        "UPDATE t SET {} = {} WHERE {target}",
                        names[c], moved[c].sql
                    );
                    let others = format!(
                        "{} AND NOT ({} = {})",
                        key_is(&names, &moved),
                        names[c],
                        lits[c].sql
                    );
                    if count_where(&mut heap, &target) == 1 && count_where(&mut heap, &others) > 0 {
                        duplicate(&mut keyed, &sql);
                    } else {
                        both(&mut keyed, &mut heap, &sql);
                    }
                }
                _ => {
                    let sql = match (in_txn, rng.gen_bool(0.7)) {
                        (false, _) => "BEGIN",
                        (true, true) => "ROLLBACK",
                        (true, false) => "COMMIT",
                    };
                    both(&mut keyed, &mut heap, sql);
                    in_txn = !in_txn;
                }
            }
            let all = "SELECT * FROM t";
            assert_eq!(selected(&mut keyed, all), selected(&mut heap, all));
            for _ in 0..2 {
                let probes: Vec<Lit> = types.iter().map(|&t| probe_lit(rng, t)).collect();
                let first = format!("SELECT * FROM t WHERE {} = {}", names[0], probes[0].sql);
                let whole = format!("SELECT * FROM t WHERE {}", key_is(&names, &probes));
                for q in [&first, &whole] {
                    assert_eq!(selected(&mut keyed, q), selected(&mut heap, q), "{q}");
                }
                // A DATE literal equals every TEXT spelling of its day, so
                // it alone is left to the scan.
                let date_on_text = matches!(
                    (&probes[0].value, types[0]),
                    (Datum::Date(_), DataType::Text)
                );
                if types.len() == 1 && !date_on_text {
                    let ran = &keyed.last_exec_metrics().unwrap().operators;
                    assert!(ran.contains(&"index scan"), "{whole}: {ran:?}");
                }
            }
        }
    });
}

#[test]
fn order_by_is_sorted() {
    prop::cases(128, |rng| {
        let values = vec_of(rng, 0..50, |r| r.gen_range(-1000i64..1000));
        let mut db = Database::new("s", Dialect::Canonical);
        db.execute("CREATE TABLE t (v INT)").unwrap();
        for v in &values {
            db.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
        }
        let rs = db.execute("SELECT v FROM t ORDER BY v").unwrap();
        let rows = &rs.rows().unwrap().rows;
        assert_eq!(rows.len(), values.len());
        for w in rows.windows(2) {
            let a = match &w[0][0] {
                Datum::Int(v) => *v,
                _ => unreachable!(),
            };
            let b = match &w[1][0] {
                Datum::Int(v) => *v,
                _ => unreachable!(),
            };
            assert!(a <= b);
        }
    });
}

#[test]
fn duplicate_keys_keep_count_consistent() {
    prop::cases(128, |rng| {
        let inserts = vec_of(rng, 1..40, |r| r.gen_range(0i64..20));
        let mut db = Database::new("d", Dialect::Canonical);
        db.execute("CREATE TABLE t (k INT PRIMARY KEY)").unwrap();
        let mut expected = std::collections::BTreeSet::new();
        for k in &inserts {
            let res = db.execute(&format!("INSERT INTO t VALUES ({k})"));
            if expected.insert(*k) {
                assert!(res.is_ok());
            } else {
                assert!(res.is_err());
            }
        }
        let rs = db.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(
            rs.rows().unwrap().rows[0][0],
            Datum::Int(expected.len() as i64)
        );
    });
}

/// One statement a rolled-back transaction may run: DML on `t`
/// (key-changing updates included), and DDL on `t`, `u` and `w`.
#[derive(Debug)]
enum TxnOp {
    Sql(String),
    Import(&'static str, Vec<(i64, i64)>),
}

fn arb_txn_op(rng: &mut StdRng) -> TxnOp {
    let (k, v) = (rng.gen_range(0i64..50), rng.gen_range(-100i64..100));
    let name = *pick(rng, &["t", "u", "w"]);
    TxnOp::Sql(match rng.gen_range(0u8..16) {
        0..=3 => format!("INSERT INTO t VALUES ({k}, {v})"),
        4..=5 => format!("UPDATE t SET v = {v} WHERE k = {k}"),
        6 => format!("UPDATE t SET k = {k} WHERE v < {v}"),
        7..=8 => format!("DELETE FROM t WHERE k = {k}"),
        9 => format!("CREATE INDEX {name}_i{} ON {name} (v)", k % 3),
        10 => format!("DROP TABLE {name}"),
        11 => format!("CREATE TABLE {name} (k INT PRIMARY KEY, v INT)"),
        12 => format!("INSERT INTO {name} VALUES ({k}, {v})"),
        _ => {
            let rows = vec_of(rng, 0..6, |r| {
                (r.gen_range(0i64..50), r.gen_range(-100i64..100))
            });
            return TxnOp::Import(name, rows);
        }
    })
}

/// Every table's live `(slot, row)` pairs and index names, in table
/// name order: the physical state a ROLLBACK must put back.
type Layout = Vec<(String, Vec<(usize, Row)>, Vec<String>)>;

fn layout(db: &Database) -> Layout {
    let mut tables: Layout = db
        .tables()
        .iter()
        .map(|(name, t)| {
            let rows = t.scan().map(|(s, r)| (s, r.clone())).collect();
            let mut idx = t.index_names();
            idx.sort();
            (name.clone(), rows, idx)
        })
        .collect();
    tables.sort_by(|a, b| a.0.cmp(&b.0));
    tables
}

/// The slots `t`'s index on `v` holds for each probed value, sorted: a
/// reversed change must leave no stale entry and miss none.
fn v_postings(db: &Database, probes: &[i64]) -> Vec<Option<Vec<usize>>> {
    let t = db.table("t").expect("t is back after ROLLBACK");
    probes
        .iter()
        .map(|&v| {
            let mut slots = t.index_lookup(1, &Datum::Int(v))?.to_vec();
            slots.sort_unstable();
            Some(slots)
        })
        .collect()
}

/// ROLLBACK is the exact inverse of what its transaction did, on an
/// in-memory database and on its durable twin alike: DML (key changes
/// included), CREATE INDEX, DROP TABLE, CREATE TABLE and `import_table`
/// leave every table's `(slot, row)` pairs and index names as they were
/// before BEGIN, and `t`'s secondary index answers as it did. The
/// durable twin holds the same content again after a reopen.
#[test]
fn rollback_is_exact_inverse() {
    prop::cases(128, |rng| {
        let seed = vec_of(rng, 1..20, |r| {
            (r.gen_range(0i64..50), r.gen_range(-100i64..100))
        });
        let txn_ops = vec_of(rng, 0..15, arb_txn_op);
        let mut probes: Vec<i64> = seed.iter().map(|&(_, v)| v).collect();
        for op in &txn_ops {
            if let TxnOp::Import(_, rows) = op {
                probes.extend(rows.iter().map(|&(_, v)| v));
            }
        }
        let vfs = SimVfs::new();
        let durable = Database::open_vfs(Arc::clone(&vfs) as Arc<dyn Vfs>, "r", Dialect::Canonical);
        for mut db in [Database::new("r", Dialect::Canonical), durable.unwrap()] {
            for sql in [
                "CREATE TABLE t (k INT PRIMARY KEY, v INT)",
                "CREATE INDEX t_v ON t (v)",
                "CREATE TABLE u (k INT PRIMARY KEY, v INT)",
                "INSERT INTO u VALUES (1, 1), (2, 2)",
            ] {
                db.execute(sql).unwrap();
            }
            for (k, v) in &seed {
                let _ = db.execute(&format!("INSERT INTO t VALUES ({k}, {v})"));
            }
            let before = layout(&db);
            let postings = v_postings(&db, &probes);
            db.execute("BEGIN").unwrap();
            for op in &txn_ops {
                // Failures (a held key, a missing table) are fine: the
                // transaction goes on.
                let _ = match op {
                    TxnOp::Sql(sql) => db.execute(sql).map(|_| ()),
                    TxnOp::Import(name, rows) => {
                        let rows = rows
                            .iter()
                            .map(|&(k, v)| vec![Datum::Int(k), Datum::Int(v)]);
                        db.import_table(kv_schema(name), rows.collect()).map(|_| ())
                    }
                };
            }
            db.execute("ROLLBACK").unwrap();
            let durable = db.is_durable();
            assert_eq!(layout(&db), before, "durable: {durable}, ops: {txn_ops:?}");
            assert_eq!(v_postings(&db, &probes), postings, "durable: {durable}");
            if durable {
                db.reopen().unwrap();
                assert_eq!(content(&layout(&db)), content(&before));
            }
        }
    });
}

fn kv_schema(name: &str) -> TableSchema {
    TableSchema::new(
        name,
        vec![
            Column::new("k", DataType::Int).primary_key(),
            Column::new("v", DataType::Int),
        ],
    )
}

/// What recovery keeps of a layout: per table, the sorted rows and the
/// index names. Slot ids are physical and may differ.
fn content(layout: &Layout) -> Vec<(String, Vec<String>, Vec<String>)> {
    layout
        .iter()
        .map(|(name, rows, idx)| {
            let mut rows: Vec<String> = rows.iter().map(|(_, r)| format!("{r:?}")).collect();
            rows.sort();
            (name.clone(), rows, idx.clone())
        })
        .collect()
}
