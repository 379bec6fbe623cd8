//! E3 — per-bridge overhead: the same logical lookup through the three
//! connection paths of Figure 2 (JDBC → Oracle, JNI → Ontos, C++
//! method invocation → ObjectStore), plus the gateway-compensation path
//! (an aggregate against mSQL that the wrapper must stage locally).
//!
//! Every operation's answer is checked once before it is timed; the
//! timing is an `Instant` loop per operation, reported as p50/p95.

use std::sync::Arc;
use std::time::Instant;
use webfindit_bench::{header, percentile};
use webfindit_connect::manager::standard_manager;
use webfindit_connect::{
    CompensatingConnection, ConnectError, Connection, DataSourceRegistry, QueryOutput,
};
use webfindit_oostore::method::MethodTable;
use webfindit_oostore::model::{ClassDef, OType, OValue};
use webfindit_oostore::ObjectStore;
use webfindit_relstore::{Database, Dialect, RelError};

/// Timed calls per operation, after as many untimed warm-up calls.
const ITERS: usize = 5000;

const OQL_FILTER: &str = "select name from Treatment where cost > 4000";
const MSQL_AGGREGATE: &str = "SELECT client_id, SUM(amount) FROM payments GROUP BY client_id";

/// A relational instance with one 200-row table.
fn relational(dialect: Dialect, table: &str, columns: &str, row: fn(i64) -> String) -> Database {
    let mut db = Database::new(table, dialect);
    let rows: Vec<String> = (0..200).map(row).collect();
    db.execute(&format!("CREATE TABLE {table} ({columns})"))
        .unwrap();
    db.execute(&format!("INSERT INTO {table} VALUES {}", rows.join(", ")))
        .unwrap();
    db
}

/// 200 rows at Oracle and mSQL, 200 objects at each object store.
fn registry() -> Arc<DataSourceRegistry> {
    let reg = DataSourceRegistry::new();
    let oracle = relational(
        Dialect::Oracle,
        "items",
        "id INT PRIMARY KEY, v TEXT",
        |i| format!("({i}, 'value-{i}')"),
    );
    reg.register_relational("oracle", "RBH", oracle);
    let msql = relational(
        Dialect::MSql,
        "payments",
        "client_id INT, amount DOUBLE",
        |i| format!("({}, {})", i % 20, (i * 13) % 700),
    );
    reg.register_relational("msql", "CentreLink", msql);

    for vendor in ["ontos", "objectstore"] {
        let mut store = ObjectStore::new("PCH");
        let class = ClassDef::root("Treatment")
            .attr("name", OType::Text)
            .attr("cost", OType::Double);
        store.define_class(class).unwrap();
        for i in 0..200 {
            let name = ("name".to_string(), OValue::Text(format!("treatment-{i}")));
            let cost = ("cost".to_string(), OValue::Double((i * 37 % 5000) as f64));
            store.create("Treatment", [name, cost]).unwrap();
        }
        let mut methods = MethodTable::new();
        methods.register("Treatment", "count_all", |s, _r, _a| {
            Ok(OValue::Int(s.instances_of("Treatment", true)?.len() as i64))
        });
        reg.register_object(vendor, "PCH", store, methods);
    }
    reg
}

/// Check `op`'s answer has `rows` rows (a method's value counts as
/// one), then time `ITERS` calls after as many warm-up calls.
fn time_op(path: &str, operation: &str, rows: usize, mut op: impl FnMut() -> QueryOutput) {
    let got = match op() {
        QueryOutput::Value(_) => 1,
        other => other.row_count(),
    };
    assert_eq!(got, rows, "{path} {operation}");
    (1..ITERS).for_each(|_| drop(op()));
    let mut lat = Vec::with_capacity(ITERS);
    for _ in 0..ITERS {
        let t = Instant::now();
        op();
        lat.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let (p50, p95) = (percentile(&lat, 50.0), percentile(&lat, 95.0));
    println!("{path:<30} {operation:<36} {rows:>5} {p50:>10.2} {p95:>10.2}");
}

fn main() {
    header("Experiment E3", "Bridge overhead on Figure 2's paths");
    let manager = standard_manager(registry());
    let connect = |url: &str| manager.get_connection(url).unwrap();

    println!("\n{ITERS} timed calls per operation after {ITERS} warm-up calls; latency in us.\n");
    let (path, operation, rows, p50, p95) = ("path", "operation", "rows", "p50", "p95");
    println!("{path:<30} {operation:<36} {rows:>5} {p50:>10} {p95:>10}");
    println!("{}", "-".repeat(95));

    let mut oracle = connect("jdbc:oracle://h/RBH");
    time_op("JDBC -> Oracle", "indexed point query", 1, || {
        oracle
            .execute("SELECT v FROM items WHERE id = 123")
            .unwrap()
    });
    let mut ontos = connect("jni:ontos://h/PCH");
    time_op("JNI -> Ontos", "OQL filter (index scan)", 27, || {
        ontos.execute(OQL_FILTER).unwrap()
    });
    let mut objectstore = connect("native:objectstore://h/PCH");
    let path = "C++ invocation -> ObjectStore";
    time_op(path, "OQL filter (index scan)", 27, || {
        objectstore.execute(OQL_FILTER).unwrap()
    });
    time_op("JNI -> Ontos", "access-routine invocation", 1, || {
        ontos.invoke("Treatment.count_all", &[]).unwrap()
    });
    let mut msql = connect("jdbc:msql://h/CentreLink");
    time_op("JDBC -> mSQL", "native filter", 10, || {
        let filter = "SELECT amount FROM payments WHERE client_id = 7";
        msql.execute(filter).unwrap()
    });

    // mSQL has no aggregates: the plain connection refuses the
    // statement, and the compensating one stages `payments` at the
    // gateway and finishes the query there.
    let refused = msql.execute(MSQL_AGGREGATE);
    assert!(
        matches!(refused, Err(ConnectError::Rel(RelError::Unsupported(_)))),
        "mSQL must refuse GROUP BY, got {refused:?}"
    );
    let mut compensated = CompensatingConnection::new(connect("jdbc:msql://h/CentreLink"));
    time_op("JDBC -> mSQL", "compensated aggregate (staged)", 20, || {
        compensated.execute(MSQL_AGGREGATE).unwrap()
    });

    println!(
        "\nmSQL refused the GROUP BY directly; the compensating connection \
         staged it {} times ({} calls).",
        compensated.compensations(),
        2 * ITERS
    );
    println!(
        "\nReading: the indexed relational path is fastest; the OQL filter reads\n\
         its cost index, whose range answers the whole filter, and projects\n\
         the objects it returns with no recheck;\n\
         the compensated mSQL aggregate pays a full fetch of the\n\
         base table plus a local re-execution on every call — the price of\n\
         the fetch-and-compute wrapper trick for a missing vendor feature."
    );
}
