//! The relational table codec (`value_map::write_result_set` /
//! `read_result_set`) against the path it replaced: a `ResultSet`
//! mapped to a `Value` tree and encoded with `Value::encode`.
//!
//! * **Differential** — over random tables of every `Datum` kind, in
//!   both byte orders and at the body offset of a GIOP frame, the codec
//!   writes the old bytes, reads back its input, and `Value::decode` of
//!   its bytes is the old tree.
//! * **Hostile bodies** — truncation, bad tags, counts past the bytes
//!   left, a non-string column name, a bad date and bad UTF-8 each give
//!   a typed error, never a panic.
//! * **On the wire** — such a reply, sent by a live servant, fails its
//!   one call; the next call on the same client ORB succeeds.
//! * **Streamed replies** — the ISI writes a SELECT's rows from the
//!   executor straight into the reply. Over random tables, queries and
//!   row caps, in both byte orders, its bytes are `write_result_set` of
//!   the collected `ResultSet`, cut to the cap, and its counters move as
//!   the collecting path's do; likewise for an mSQL GROUP BY finished by
//!   compensation and for a SELECT that owes a durable site a
//!   checkpoint. A division by zero half-way through the rows fails the
//!   call with one exception.
//! * **Oversized replies** — a result too large to frame fails its call
//!   at once with a MARSHAL exception, remote or collocated, and the
//!   client serves on.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use webfindit::orb::servant::{InvokeResult, Servant, ServantError};
use webfindit::orb::{CallOptions, Orb, OrbConfig, OrbDomain, OrbError};
use webfindit::servants::{IsiServant, IsiSnapshot};
use webfindit::value_map::{is_result_set, read_result_set, write_result_set};
use webfindit::wire::value::tag;
use webfindit::wire::{ByteOrder, CdrReader, CdrWriter, Value, WireError};
use webfindit::WebfinditError;
use webfindit_base::prop;
use webfindit_base::rng::StdRng;
use webfindit_connect::manager::standard_manager;
use webfindit_connect::registry::Instance;
use webfindit_connect::{CompensatingConnection, Connection, DataMetrics, DataSourceRegistry};
use webfindit_relstore::exec::ResultSet;
use webfindit_relstore::file_mgr::{SimVfs, Vfs};
use webfindit_relstore::sql::parse_statement;
use webfindit_relstore::types::{format_date, Datum};
use webfindit_relstore::{Column, DataType, Database, Dialect, TableSchema};

/// The encoding the table codec replaced, kept here as its oracle.
fn old_result_set_to_value(rs: &ResultSet) -> Value {
    Value::record([
        (
            "columns",
            Value::Sequence(
                rs.columns
                    .iter()
                    .map(|c| Value::string(c.clone()))
                    .collect(),
            ),
        ),
        (
            "rows",
            Value::Sequence(
                rs.rows
                    .iter()
                    .map(|r| Value::Sequence(r.iter().map(old_datum_to_value).collect()))
                    .collect(),
            ),
        ),
    ])
}

fn old_datum_to_value(d: &Datum) -> Value {
    match d {
        Datum::Null => Value::Null,
        Datum::Int(v) => Value::LongLong(*v),
        Datum::Double(v) => Value::Double(*v),
        Datum::Text(s) => Value::Str(s.clone()),
        Datum::Bool(b) => Value::Bool(*b),
        Datum::Date(days) => Value::record([("date", Value::string(format_date(*days)))]),
    }
}

const TEXT: &str = "abcXYZ 019_-'\"é日本🦀";

fn datum(rng: &mut StdRng) -> Datum {
    match rng.gen_range(0u32..9) {
        0 => Datum::Null,
        1 => Datum::Int(rng.gen_range(-1_000_000i64..1_000_000)),
        2 => Datum::Int(*prop::pick(rng, &[i64::MIN, -1, 0, i64::MAX])),
        3 => Datum::Double(*prop::pick(
            rng,
            &[
                0.0,
                -0.0,
                1.5,
                -2.25,
                f64::MIN_POSITIVE,
                f64::MAX,
                f64::INFINITY,
            ],
        )),
        4 => {
            let v = f64::from_bits(rng.next_u64());
            Datum::Double(if v.is_nan() { -7.5 } else { v })
        }
        5 => Datum::Text(prop::string_of(rng, TEXT, 0..12)),
        6 => Datum::Text(String::new()),
        7 => Datum::Bool(rng.gen_bool(0.5)),
        // 1900-01-01 ..= 2100-12-31 as days from 1970-01-01.
        _ => Datum::Date(rng.gen_range(-25_567i32..47_847)),
    }
}

fn table(rng: &mut StdRng) -> ResultSet {
    let width = rng.gen_range(0usize..6);
    let columns = (0..width)
        .map(|_| prop::string_of(rng, TEXT, 0..8))
        .collect();
    let rows = prop::vec_of(rng, 0..20, |rng| (0..width).map(|_| datum(rng)).collect());
    ResultSet { columns, rows }
}

/// A frame writer: CDR alignment counts from byte 12, as in a GIOP body.
fn frame_bytes(order: ByteOrder, write: impl FnOnce(&mut CdrWriter)) -> Vec<u8> {
    let mut w = CdrWriter::frame(order, Vec::new());
    write(&mut w);
    w.into_bytes()
}

#[test]
fn the_table_codec_writes_the_old_bytes_and_reads_them_back() {
    prop::cases(2_000, |rng| {
        let rs = table(rng);
        let old = old_result_set_to_value(&rs);
        for order in [ByteOrder::BigEndian, ByteOrder::LittleEndian] {
            let new_bytes = frame_bytes(order, |w| write_result_set(&rs, w).unwrap());
            let old_bytes = frame_bytes(order, |w| old.encode(w).unwrap());
            assert_eq!(new_bytes, old_bytes, "{order:?}: bytes differ");

            let body = &new_bytes[12..];
            let mut r = CdrReader::new(body, order);
            assert!(is_result_set(&r));
            assert_eq!(read_result_set(&mut r).unwrap(), rs);
            assert!(r.is_exhausted(), "the table reader left bytes behind");

            let decoded = Value::decode(&mut CdrReader::new(body, order)).unwrap();
            assert_eq!(decoded, old);
        }
    });
}

/// The body of a one-column, one-row table whose cell is written by
/// `cell`, in big-endian order.
fn one_cell(cell: impl FnOnce(&mut CdrWriter)) -> Vec<u8> {
    let mut w = CdrWriter::new(ByteOrder::BigEndian);
    w.write_octet(tag::STRUCT);
    w.write_ulong(2);
    w.write_string("columns").unwrap();
    w.write_octet(tag::SEQUENCE);
    w.write_ulong(1);
    w.write_octet(tag::STRING);
    w.write_string("c").unwrap();
    w.write_string("rows").unwrap();
    w.write_octet(tag::SEQUENCE);
    w.write_ulong(1);
    w.write_octet(tag::SEQUENCE);
    w.write_ulong(1);
    cell(&mut w);
    w.into_bytes()
}

fn read(bytes: &[u8]) -> Result<ResultSet, WebfinditError> {
    read_result_set(&mut CdrReader::new(bytes, ByteOrder::BigEndian))
}

fn wire_error(e: WebfinditError) -> WireError {
    match e {
        WebfinditError::Orb(OrbError::Wire(e)) => e,
        other => panic!("expected a wire error, got {other}"),
    }
}

/// The offset, in `bytes`, of the count that follows the `nth`
/// SEQUENCE tag (0 = columns, 1 = rows).
fn count_at(bytes: &[u8], nth: usize) -> usize {
    let mut r = CdrReader::new(bytes, ByteOrder::BigEndian);
    r.read_octet().unwrap();
    r.read_ulong().unwrap();
    r.read_str().unwrap();
    r.read_octet().unwrap();
    r.align(4).unwrap();
    let columns = bytes.len() - r.remaining();
    if nth == 0 {
        return columns;
    }
    r.read_ulong().unwrap();
    r.read_octet().unwrap();
    r.read_str().unwrap();
    r.read_str().unwrap();
    r.read_octet().unwrap();
    r.align(4).unwrap();
    bytes.len() - r.remaining()
}

/// A cut either ends a read early or leaves a count larger than the
/// bytes after it.
#[test]
fn a_truncated_table_is_refused_at_every_cut() {
    let rs = ResultSet {
        columns: vec!["id".into(), "when".into()],
        rows: vec![vec![Datum::Int(1), Datum::Date(10_000)]],
    };
    let mut w = CdrWriter::new(ByteOrder::BigEndian);
    write_result_set(&rs, &mut w).unwrap();
    let bytes = w.into_bytes();
    assert_eq!(read(&bytes).unwrap(), rs);
    for cut in 0..bytes.len() {
        let err = wire_error(read(&bytes[..cut]).unwrap_err());
        assert!(
            matches!(
                err,
                WireError::UnexpectedEof { .. } | WireError::TooLarge { .. }
            ),
            "cut at {cut}: {err}"
        );
    }
}

#[test]
fn a_bad_cell_tag_is_a_bad_tag() {
    for bad in [tag::OCTET, tag::SEQUENCE, tag::OBJECT_REF, 14, 255] {
        let bytes = one_cell(|w| w.write_octet(bad));
        let err = wire_error(read(&bytes).unwrap_err());
        assert!(matches!(err, WireError::BadTag { .. }), "tag {bad}: {err}");
    }
}

#[test]
fn a_count_past_the_bytes_left_is_refused_before_anything_is_sized_by_it() {
    let good = one_cell(|w| w.write_octet(tag::NULL));
    for nth in [0, 1] {
        let at = count_at(&good, nth);
        let remaining = (good.len() - at - 4) as u32;
        for count in [remaining + 1, u32::MAX] {
            let mut bytes = good.clone();
            bytes[at..at + 4].copy_from_slice(&count.to_be_bytes());
            let err = wire_error(read(&bytes).unwrap_err());
            assert!(
                matches!(err, WireError::TooLarge { declared, .. } if declared == u64::from(count)),
                "count {count} at sequence {nth}: {err}"
            );
        }
    }
}

#[test]
fn a_non_string_column_name_is_a_bad_tag() {
    let mut w = CdrWriter::new(ByteOrder::BigEndian);
    w.write_octet(tag::STRUCT);
    w.write_ulong(2);
    w.write_string("columns").unwrap();
    w.write_octet(tag::SEQUENCE);
    w.write_ulong(1);
    w.write_octet(tag::LONG);
    w.write_long(7);
    let err = wire_error(read(&w.into_bytes()).unwrap_err());
    assert!(matches!(
        err,
        WireError::BadTag {
            context: "result set column name",
            ..
        }
    ));
}

#[test]
fn a_bad_date_is_a_protocol_error() {
    for iso in ["1999-13-01", "yesterday", ""] {
        let bytes = one_cell(|w| {
            w.write_octet(tag::STRUCT);
            w.write_ulong(1);
            w.write_string("date").unwrap();
            w.write_octet(tag::STRING);
            w.write_string(iso).unwrap();
        });
        assert!(
            matches!(read(&bytes), Err(WebfinditError::Protocol(m)) if m.contains("bad date")),
            "{iso:?}"
        );
    }
    let not_a_date = one_cell(|w| {
        w.write_octet(tag::STRUCT);
        w.write_ulong(1);
        w.write_string("oid").unwrap();
        w.write_octet(tag::ULONG);
        w.write_ulong(1);
    });
    assert!(matches!(
        read(&not_a_date),
        Err(WebfinditError::Protocol(_))
    ));
}

#[test]
fn bad_utf8_is_invalid_utf8() {
    let bytes = one_cell(|w| {
        w.write_octet(tag::STRING);
        w.write_ulong(3);
        w.write_raw(&[0xC3, 0x28, 0]);
    });
    let err = wire_error(read(&bytes).unwrap_err());
    assert!(matches!(err, WireError::InvalidUtf8));
}

/// Answers `hostile` with a table whose row count is `u32::MAX`, written
/// straight into the reply frame, and `table` with a good one.
struct HostileServant;

impl Servant for HostileServant {
    fn interface_id(&self) -> &str {
        "IDL:test/Hostile:1.0"
    }

    fn invoke(&self, operation: &str, _args: &[Value]) -> InvokeResult {
        Err(ServantError::UnknownOperation(operation.into()))
    }

    fn invoke_into(
        &self,
        operation: &str,
        _args: &[Value],
        out: &mut CdrWriter,
    ) -> Result<(), ServantError> {
        let rs = ResultSet {
            columns: vec!["n".into()],
            rows: vec![vec![Datum::Int(7)]],
        };
        match operation {
            "hostile" => {
                out.write_octet(tag::STRUCT);
                out.write_ulong(2);
                out.write_string("columns").unwrap();
                out.write_octet(tag::SEQUENCE);
                out.write_ulong(u32::MAX);
                Ok(())
            }
            "table" => write_result_set(&rs, out).map_err(|e| ServantError::Marshal(e.to_string())),
            other => Err(ServantError::UnknownOperation(other.into())),
        }
    }
}

#[test]
fn a_hostile_table_reply_fails_its_call_and_the_client_serves_on() {
    let domain = OrbDomain::new();
    let server = Orb::start(
        OrbConfig::new("S", "hostile-s.net", 1, ByteOrder::BigEndian),
        Arc::clone(&domain),
    )
    .unwrap();
    let client = Orb::start(
        OrbConfig::new("C", "hostile-c.net", 2, ByteOrder::LittleEndian),
        Arc::clone(&domain),
    )
    .unwrap();
    let ior = server.activate("hostile", Arc::new(HostileServant));
    let opts = CallOptions::default();

    let as_table = |op| client.invoke_as(&ior, op, &[], &opts, read_result_set);
    match as_table("hostile") {
        Err(WebfinditError::Orb(OrbError::Wire(WireError::TooLarge { declared, .. }))) => {
            assert_eq!(declared, u64::from(u32::MAX))
        }
        other => panic!("expected TooLarge, got {other:?}"),
    }
    // The plain `Value` decoder refuses the same bytes the same way.
    assert!(matches!(
        client.invoke(&ior, "hostile", &[]),
        Err(OrbError::Wire(WireError::TooLarge { .. }))
    ));
    let good = as_table("table").unwrap();
    assert_eq!(good.rows, vec![vec![Datum::Int(7)]]);

    // The bad replies failed their calls, not the connection.
    let c = client.metrics().snapshot();
    assert_eq!(c.evictions, 0);
    assert_eq!(c.requests_sent, 3);

    server.shutdown();
    client.shutdown();
}

// ---- Streamed replies ----------------------------------------------------

/// `ward(id INT PK, n INT, x DOUBLE, s TEXT, ok BOOL, day DATE)` with
/// 0..25 random rows, every non-key column sometimes NULL, and
/// `stay(id INT PK, ward_id INT, nights INT)` for joins.
fn ward_db(rng: &mut StdRng, name: &str, dialect: Dialect) -> Database {
    let mut db = Database::new(name, dialect);
    let ward = TableSchema::new(
        "ward",
        vec![
            Column::new("id", DataType::Int).primary_key(),
            Column::new("n", DataType::Int),
            Column::new("x", DataType::Double),
            Column::new("s", DataType::Text),
            Column::new("ok", DataType::Bool),
            Column::new("day", DataType::Date),
        ],
    );
    let n = rng.gen_range(0..25usize);
    let null_or = |rng: &mut StdRng, d: Datum| if rng.gen_bool(0.15) { Datum::Null } else { d };
    let rows = (0..n as i64)
        .map(|id| {
            let cells = [
                Datum::Int(rng.gen_range(-1_000i64..1_000)),
                match datum(rng) {
                    d @ Datum::Double(_) => d,
                    _ => Datum::Double(rng.gen_range(-4i64..4) as f64 * 0.25),
                },
                Datum::Text(prop::string_of(rng, TEXT, 0..6)),
                Datum::Bool(rng.gen_bool(0.5)),
                Datum::Date(rng.gen_range(-25_567i32..47_847)),
            ];
            let mut row = vec![Datum::Int(id)];
            row.extend(cells.into_iter().map(|d| null_or(rng, d)));
            row
        })
        .collect();
    db.import_table(ward, rows).unwrap();
    let stay = TableSchema::new(
        "stay",
        vec![
            Column::new("id", DataType::Int).primary_key(),
            Column::new("ward_id", DataType::Int),
            Column::new("nights", DataType::Int),
        ],
    );
    let rows = (0..rng.gen_range(0..25i64))
        .map(|id| {
            let ward_id = rng.gen_range(0..30i64);
            vec![Datum::Int(id), Datum::Int(ward_id), Datum::Int(id % 7)]
        })
        .collect();
    db.import_table(stay, rows).unwrap();
    db
}

/// A SELECT over `ward_db` of one of the shapes the executor runs.
fn ward_query(rng: &mut StdRng) -> String {
    let k = rng.gen_range(0..25i64);
    match rng.gen_range(0..10u32) {
        0 => "SELECT * FROM ward".into(),
        1 => format!("SELECT id, n * 2 + 1 AS twice, s, day, ok, x FROM ward WHERE n > {k}"),
        2 => format!("SELECT s, x FROM ward WHERE id >= {k} AND id < {}", k + 8),
        3 => "SELECT id, s, day FROM ward ORDER BY n DESC, id".into(),
        4 => "SELECT DISTINCT ok, s FROM ward".into(),
        5 => "SELECT ok, COUNT(*) AS c, SUM(n) AS total, MAX(x) FROM ward GROUP BY ok".into(),
        6 => format!("SELECT id, day FROM ward LIMIT {k}"),
        7 => "SELECT w.s, y.nights FROM ward w JOIN stay y ON w.id = y.ward_id".into(),
        8 => format!("SELECT id, s, x, day FROM ward WHERE id = {k}"),
        _ => format!("SELECT s, day FROM ward ORDER BY id LIMIT {k}"),
    }
}

/// The data-layer counters of one statement, in `IsiSnapshot` order.
fn data_counters(m: DataMetrics) -> Vec<u64> {
    vec![
        m.rows_scanned,
        m.bytes_scanned,
        m.index_hits,
        m.rows_spilled,
        m.wal_appends,
        m.pages_flushed,
        m.recovery_redo,
        m.recovery_undo,
    ]
}

fn isi_counters(s: IsiSnapshot) -> Vec<u64> {
    s.iter().map(|(_, v)| v).collect()
}

/// The body the ISI writes for `execute(sql[, max_rows])` at a frame's
/// body offset, and how far its counters moved.
fn isi_reply(
    isi: &IsiServant,
    sql: &str,
    max_rows: Option<u32>,
    order: ByteOrder,
) -> (Result<Vec<u8>, ServantError>, Vec<u64>) {
    let mut args = vec![Value::string(sql)];
    args.extend(max_rows.map(Value::ULong));
    let before = isi.metrics().snapshot();
    let mut w = CdrWriter::frame(order, Vec::new());
    let done = isi.invoke_into("execute", &args, &mut w);
    let moved = isi_counters(isi.metrics().snapshot().since(&before));
    (done.map(|()| w.into_bytes()), moved)
}

/// `write_result_set` of `rs` cut to `max_rows` rows, as the ISI wrote
/// a table before it streamed.
fn materialized(mut rs: ResultSet, max_rows: Option<u32>, order: ByteOrder) -> Vec<u8> {
    if let Some(n) = max_rows {
        rs.rows.truncate(n as usize);
    }
    frame_bytes(order, |w| write_result_set(&rs, w).unwrap())
}

/// The ISI of a one-site registry holding `db` as `vendor`, its
/// manager (for an oracle connection) and the site.
struct Site {
    isi: IsiServant,
    manager: Arc<webfindit_connect::DriverManager>,
    db: Arc<Instance<Database>>,
    url: String,
}

fn site(db: Database, vendor: &str) -> Site {
    let registry = DataSourceRegistry::new();
    let url = format!("jdbc:{vendor}://h/{}", db.name());
    let name = db.name().to_owned();
    let db = registry.register_relational(vendor, &name, db);
    let manager = Arc::new(standard_manager(registry));
    let isi = IsiServant::new(Arc::clone(&manager), url.clone());
    Site {
        isi,
        manager,
        db,
        url,
    }
}

impl Site {
    /// The materialized answer and counters of a collecting connection
    /// through the compensating gateway, as the ISI used to run it.
    fn collected(&self, sql: &str) -> (ResultSet, Vec<u64>) {
        let inner = self.manager.get_connection(&self.url).unwrap();
        let mut conn = CompensatingConnection::new(inner);
        let out = conn.execute(sql).unwrap();
        let rs = out.result_set().expect("a table").clone();
        (rs, data_counters(conn.last_data_metrics().unwrap()))
    }
}

/// Every row cap from none to one past the row count.
fn caps(rows: usize) -> impl Iterator<Item = Option<u32>> {
    std::iter::once(None).chain((0..=rows as u32 + 1).map(Some))
}

#[test]
fn the_isi_streams_the_bytes_and_counters_of_the_collected_table() {
    prop::cases(60, |rng| {
        let site = site(ward_db(rng, "Ward", Dialect::Oracle), "oracle");
        for _ in 0..4 {
            let sql = ward_query(rng);
            let (rs, m) = site
                .db
                .read()
                .select(&parse_statement(&sql).unwrap())
                .unwrap();
            let counters = data_counters(DataMetrics {
                rows_scanned: m.rows_scanned,
                bytes_scanned: m.bytes_scanned,
                index_hits: m.index_hits,
                rows_spilled: m.rows_spilled,
                ..DataMetrics::default()
            });
            for max_rows in caps(rs.rows.len()) {
                for order in [ByteOrder::BigEndian, ByteOrder::LittleEndian] {
                    let (streamed, moved) = isi_reply(&site.isi, &sql, max_rows, order);
                    let want = materialized(rs.clone(), max_rows, order);
                    assert_eq!(streamed.unwrap(), want, "{sql} cap {max_rows:?} {order:?}");
                    assert_eq!(moved, counters, "{sql} cap {max_rows:?}");
                }
            }
        }
    });
}

/// mSQL has no GROUP BY: the vendor refuses before handing over a row,
/// and the gateway's staged answer is written whole.
#[test]
fn an_msql_group_by_is_compensated_into_the_same_reply() {
    prop::cases(20, |rng| {
        let site = site(ward_db(rng, "Centre", Dialect::MSql), "msql");
        let sql = "SELECT ok, COUNT(*) AS c, SUM(n) AS total FROM ward GROUP BY ok ORDER BY c";
        let (rs, counters) = site.collected(sql);
        for max_rows in caps(rs.rows.len()) {
            for order in [ByteOrder::BigEndian, ByteOrder::LittleEndian] {
                let (streamed, moved) = isi_reply(&site.isi, sql, max_rows, order);
                assert_eq!(streamed.unwrap(), materialized(rs.clone(), max_rows, order));
                assert_eq!(moved, counters);
            }
        }
    });
}

/// A durable site that owes a checkpoint after four commits.
fn owing_site() -> Site {
    let vfs = SimVfs::new();
    let mut db = Database::open_vfs(vfs as Arc<dyn Vfs>, "Ledger", Dialect::Oracle).unwrap();
    db.set_checkpoint_every(4);
    db.execute("CREATE TABLE beds (bed_id INT PRIMARY KEY, location TEXT)")
        .unwrap();
    for id in 0..3 {
        db.execute(&format!("INSERT INTO beds VALUES ({id}, 'ward {id}')"))
            .unwrap();
    }
    assert!(db.owes_checkpoint());
    site(db, "oracle")
}

/// A SELECT that owes the site a checkpoint runs under the exclusive
/// guard and takes it; its table and counters are the collected ones.
#[test]
fn a_select_that_owes_a_checkpoint_takes_it_and_writes_the_same_reply() {
    let sql = "SELECT bed_id, location FROM beds WHERE bed_id > 0";
    for order in [ByteOrder::BigEndian, ByteOrder::LittleEndian] {
        let (streamed, moved) = {
            let site = owing_site();
            let reply = isi_reply(&site.isi, sql, None, order);
            assert!(!site.db.read().owes_checkpoint());
            reply
        };
        let (rs, counters) = owing_site().collected(sql);
        assert!(counters[5] > 0, "the SELECT flushed no checkpoint page");
        assert_eq!(streamed.unwrap(), materialized(rs, None, order));
        assert_eq!(moved, counters);
    }
}

fn two_orbs(tag: &str) -> (Arc<Orb>, Arc<Orb>) {
    let domain = OrbDomain::new();
    let server = Orb::start(
        OrbConfig::new("S", format!("{tag}-s.net"), 1, ByteOrder::BigEndian),
        Arc::clone(&domain),
    )
    .unwrap();
    let client = Orb::start(
        OrbConfig::new("C", format!("{tag}-c.net"), 2, ByteOrder::LittleEndian),
        Arc::clone(&domain),
    )
    .unwrap();
    (server, client)
}

/// Row 500 of 1 000 divides by zero after 499 rows are in the reply:
/// the call fails with one user exception and the client serves on.
#[test]
fn a_division_by_zero_mid_stream_fails_the_call_with_one_exception() {
    let mut db = Database::new("Ward", Dialect::Oracle);
    let schema = TableSchema::new("ward", vec![Column::new("id", DataType::Int).primary_key()]);
    let rows = (1..=1_000).map(|id| vec![Datum::Int(id)]).collect();
    db.import_table(schema, rows).unwrap();
    let site = site(db, "oracle");
    let (server, client) = two_orbs("divide");
    let ior = server.activate("isi", Arc::new(site.isi));
    let opts = CallOptions::default();
    let call = |sql: &str| {
        let args = [Value::string(sql)];
        client.invoke_as(&ior, "execute", &args, &opts, read_result_set)
    };

    match call("SELECT id, 100 / (id - 500) FROM ward") {
        Err(WebfinditError::Orb(OrbError::RemoteException {
            system: false,
            description,
        })) => assert!(description.contains("division by zero"), "{description}"),
        other => panic!("expected a user exception, got {other:?}"),
    }
    assert_eq!(
        call("SELECT id FROM ward WHERE id < 4").unwrap().rows.len(),
        3
    );

    let c = client.metrics().snapshot();
    assert_eq!((c.evictions, c.requests_sent), (0, 2));
    assert_eq!(server.metrics().snapshot().exceptions_sent, 1);
    server.shutdown();
    client.shutdown();
}

// ---- Oversized replies ---------------------------------------------------

/// Answers `fat` with 17 one-MiB strings, a body past
/// `MAX_MESSAGE_SIZE`, and `ping` with a small reply.
struct FatServant;

impl Servant for FatServant {
    fn interface_id(&self) -> &str {
        "IDL:test/Fat:1.0"
    }

    fn invoke(&self, operation: &str, _args: &[Value]) -> InvokeResult {
        match operation {
            "fat" => Ok(Value::Sequence(vec![
                Value::string("x".repeat(1 << 20));
                17
            ])),
            "ping" => Ok(Value::string("pong")),
            other => Err(ServantError::UnknownOperation(other.into())),
        }
    }
}

/// Run `f` on its own thread; a call that hangs fails the test instead
/// of the suite.
fn within<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || tx.send(f()).unwrap());
    rx.recv_timeout(Duration::from_secs(60))
        .expect("the call hung: a reply was lost")
}

fn is_marshal(r: Result<Value, OrbError>) -> bool {
    matches!(r, Err(OrbError::RemoteException { system: true, ref description })
        if description.starts_with("MARSHAL"))
}

#[test]
fn a_reply_too_large_to_frame_is_a_marshal_exception_remote_or_collocated() {
    let (server, client) = two_orbs("fat");
    let fat = server.activate("fat", Arc::new(FatServant));
    let mut db = Database::new("Fat", Dialect::Oracle);
    let schema = TableSchema::new(
        "fat",
        vec![
            Column::new("id", DataType::Int).primary_key(),
            Column::new("s", DataType::Text),
        ],
    );
    let rows = (0..17)
        .map(|id| vec![Datum::Int(id), Datum::Text("y".repeat(1 << 20))])
        .collect();
    db.import_table(schema, rows).unwrap();
    let isi = server.activate("isi", Arc::new(site(db, "oracle").isi));

    let none = CallOptions::default();
    assert_eq!(none.deadline, None);
    let calls = [
        (Arc::clone(&client), fat.clone(), "fat", vec![]),
        (Arc::clone(&server), fat.clone(), "fat", vec![]),
        (
            Arc::clone(&client),
            isi.clone(),
            "execute",
            vec![Value::string("SELECT s FROM fat")],
        ),
        (
            Arc::clone(&server),
            isi.clone(),
            "execute",
            vec![Value::string("SELECT s FROM fat")],
        ),
    ];
    for (orb, ior, op, args) in calls {
        let opts = none.clone();
        let reply = within(move || orb.invoke_with(&ior, op, &args, &opts));
        assert!(is_marshal(reply), "{op}: expected MARSHAL");
    }
    let ping = within({
        let (client, fat) = (Arc::clone(&client), fat.clone());
        move || client.invoke(&fat, "ping", &[])
    });
    assert_eq!(ping.unwrap(), Value::string("pong"));

    let c = client.metrics().snapshot();
    assert_eq!((c.evictions, c.requests_sent), (0, 3));
    server.shutdown();
    client.shutdown();
}
