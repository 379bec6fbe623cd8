//! E10 — pipelined, index-aware query execution in the relational
//! wrapper store.
//!
//! Loads the paper's §5 `medical_students` corpus plus a two-table
//! patient/history workload at 100 000 rows per table (5 000 under
//! `--quick`), then times each query of a fixed corpus under both
//! executors:
//!
//! * **naive**   — the retained reference interpreter
//!   (`Database::query_naive`): materialize, join, filter, project
//!   vector-at-a-time, with index use only for single-table equality.
//! * **planned** — the cost-informed physical planner + pull-based
//!   pipelined executor behind `Database::execute`, with index point
//!   and range sargs, index-aware joins, and LIMIT pushdown.
//!
//! Every query's result sets are checked for equivalence between the
//! two paths before timing. p50/p95 latencies and the p50 speedup are
//! printed and written to `BENCH_query.json`; EXPERIMENTS.md records
//! them as E10. Queries tagged `"tagged": true` carry the acceptance
//! bar (≥10× planned-over-naive at full scale).

use std::time::Instant;
use webfindit_bench::{header, percentile};
use webfindit_relstore::{Column, DataType, Database, Datum, Dialect, Row, TableSchema};

struct Query {
    name: &'static str,
    sql: &'static str,
    /// Carries the ≥10× acceptance bar (indexed join / LIMIT pushdown).
    tagged: bool,
}

const QUERIES: [Query; 8] = [
    Query {
        name: "s5_students",
        sql: "SELECT name FROM medical_students WHERE course = 'Databases'",
        tagged: false,
    },
    Query {
        name: "pk_point",
        sql: "SELECT name, age FROM patient WHERE patient_id = 777",
        tagged: false,
    },
    // A point lookup the executor's plan-free PK path declines (the
    // wildcard needs the layout), so it runs the planned pipeline.
    Query {
        name: "pk_point_star",
        sql: "SELECT * FROM patient WHERE patient_id = 777",
        tagged: false,
    },
    Query {
        name: "range_scan",
        sql: "SELECT name FROM patient WHERE patient_id BETWEEN 100 AND 120",
        tagged: false,
    },
    Query {
        name: "indexed_join",
        sql: "SELECT p.name, h.diagnosis FROM patient p \
              JOIN history h ON p.patient_id = h.patient_id \
              WHERE p.patient_id = 4242",
        tagged: true,
    },
    Query {
        name: "limit_pushdown",
        sql: "SELECT name FROM patient LIMIT 10",
        tagged: true,
    },
    Query {
        name: "join_agg",
        sql: "SELECT p.gender, COUNT(*) n, AVG(h.cost) avg_cost FROM patient p \
              JOIN history h ON p.patient_id = h.patient_id \
              GROUP BY p.gender ORDER BY p.gender",
        tagged: false,
    },
    // The same aggregate as BENCHMARK.json's `join_agg` workload spells
    // it: driven from `history`, probing `patient` by primary key.
    Query {
        name: "join_agg_from_history",
        sql: "SELECT p.gender, COUNT(*) n, AVG(h.cost) avg_cost FROM history h \
              JOIN patient p ON h.patient_id = p.patient_id \
              GROUP BY p.gender ORDER BY p.gender",
        tagged: false,
    },
];

const COURSES: [&str; 5] = [
    "Databases",
    "Networks",
    "Anatomy",
    "Pharmacology",
    "Biostatistics",
];
const DIAGNOSES: [&str; 6] = [
    "hypertension",
    "fracture",
    "influenza",
    "diabetes",
    "asthma",
    "migraine",
];

/// Build the workload database: the §5 student corpus plus `n`-row
/// patient and history tables, with secondary indexes on
/// `medical_students.course` and `history.patient_id`.
fn build_db(n: usize) -> Database {
    let mut db = Database::new("exp10", Dialect::Canonical);

    db.execute(
        "CREATE TABLE medical_students (student_id INT PRIMARY KEY, \
         name TEXT NOT NULL, course TEXT)",
    )
    .expect("create medical_students");
    for i in 0..200 {
        db.execute(&format!(
            "INSERT INTO medical_students VALUES ({i}, 'student-{i}', '{}')",
            COURSES[i % COURSES.len()],
        ))
        .expect("insert student");
    }
    db.execute("CREATE INDEX ms_course ON medical_students (course)")
        .expect("index course");

    let patient = TableSchema::new(
        "patient",
        vec![
            Column::new("patient_id", DataType::Int).primary_key(),
            Column::new("name", DataType::Text),
            Column::new("gender", DataType::Text),
            Column::new("age", DataType::Int),
        ],
    );
    let rows: Vec<Row> = (0..n as i64)
        .map(|i| {
            vec![
                Datum::Int(i),
                Datum::Text(format!("patient-{i}")),
                Datum::Text(if i % 2 == 0 { "F" } else { "M" }.to_owned()),
                Datum::Int(20 + i % 60),
            ]
        })
        .collect();
    db.import_table(patient, rows).expect("import patient");

    let history = TableSchema::new(
        "history",
        vec![
            Column::new("hist_id", DataType::Int).primary_key(),
            Column::new("patient_id", DataType::Int),
            Column::new("diagnosis", DataType::Text),
            Column::new("cost", DataType::Double),
        ],
    );
    let rows: Vec<Row> = (0..n as i64)
        .map(|i| {
            // A deterministic scatter of visits over patients.
            let pid = (i * 7919) % n as i64;
            vec![
                Datum::Int(i),
                Datum::Int(pid),
                Datum::Text(DIAGNOSES[i as usize % DIAGNOSES.len()].to_owned()),
                Datum::Double(50.0 + (i % 1000) as f64),
            ]
        })
        .collect();
    db.import_table(history, rows).expect("import history");
    db.execute("CREATE INDEX hist_patient ON history (patient_id)")
        .expect("index history.patient_id");

    db
}

/// Order-insensitive canonical form of a result for the equivalence
/// check.
fn multiset(rows: &[Row]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = if quick { 5_000 } else { 100_000 };
    let iterations = if quick { 5 } else { 30 };

    header(
        "E10",
        "planned pipelined executor vs naive reference interpreter",
    );
    println!("rows per table: {n}, iterations: {iterations}\n");
    let mut db = build_db(n);

    println!(
        "{:<21} | {:>12} {:>12} | {:>12} {:>12} | {:>9} | ok",
        "query", "naive p50", "naive p95", "plan p50", "plan p95", "speedup"
    );

    let mut objects = Vec::new();
    for q in &QUERIES {
        // Equivalence first: the planner must not change answers.
        let planned_rows = db
            .execute(q.sql)
            .expect(q.name)
            .rows()
            .expect("rows")
            .rows
            .clone();
        let naive_rows = db.query_naive(q.sql).expect(q.name).rows;
        let identical = multiset(&planned_rows) == multiset(&naive_rows);
        assert!(identical, "{}: planned and naive results differ", q.name);

        let mut naive_us = Vec::with_capacity(iterations);
        let mut planned_us = Vec::with_capacity(iterations);
        for _ in 0..iterations {
            let t = Instant::now();
            let _ = db.query_naive(q.sql).expect(q.name);
            naive_us.push(t.elapsed().as_secs_f64() * 1e6);

            let t = Instant::now();
            let _ = db.execute(q.sql).expect(q.name);
            planned_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let naive_p50 = percentile(&naive_us, 50.0);
        let naive_p95 = percentile(&naive_us, 95.0);
        let planned_p50 = percentile(&planned_us, 50.0);
        let planned_p95 = percentile(&planned_us, 95.0);
        let speedup = naive_p50 / planned_p50.max(0.001);

        println!(
            "{:<21} | {:>12.1} {:>12.1} | {:>12.1} {:>12.1} | {:>8.1}x | {}",
            q.name, naive_p50, naive_p95, planned_p50, planned_p95, speedup, identical
        );

        objects.push(format!(
            "    {{\"name\": \"{}\", \"sql\": \"{}\", \"tagged\": {}, \
             \"naive_p50_us\": {:.1}, \"naive_p95_us\": {:.1}, \
             \"planned_p50_us\": {:.1}, \"planned_p95_us\": {:.1}, \
             \"speedup_p50\": {:.2}, \"identical_results\": {}}}",
            q.name,
            q.sql.replace('"', "\\\""),
            q.tagged,
            naive_p50,
            naive_p95,
            planned_p50,
            planned_p95,
            speedup,
            identical
        ));
    }

    let json = format!(
        "{{\n  \"experiment\": \"E10\",\n  \"rows\": {n},\n  \"quick\": {quick},\n  \
         \"iterations\": {iterations},\n  \"queries\": [\n{}\n  ]\n}}\n",
        objects.join(",\n")
    );
    std::fs::write("BENCH_query.json", &json).expect("write BENCH_query.json");
    println!("\nwrote BENCH_query.json ({} queries)", QUERIES.len());
}
