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

use std::sync::Arc;
use webfindit::orb::servant::{InvokeResult, Servant, ServantError};
use webfindit::orb::{CallOptions, Orb, OrbConfig, OrbDomain, OrbError};
use webfindit::value_map::{is_result_set, read_result_set, write_result_set};
use webfindit::wire::value::tag;
use webfindit::wire::{ByteOrder, CdrReader, CdrWriter, Value, WireError};
use webfindit::WebfinditError;
use webfindit_base::prop;
use webfindit_base::rng::StdRng;
use webfindit_relstore::exec::ResultSet;
use webfindit_relstore::types::{format_date, Datum};

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
