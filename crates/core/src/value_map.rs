//! Serialization between engine-level results and the wire.
//!
//! Descriptors, object rows and name lists cross an ORB boundary as
//! self-describing [`Value`]s, with strict decoders (malformed payloads
//! become [`WebfinditError::Protocol`]). A table skips the `Value`
//! tree. One row writer, `TableWriter`, encodes a relational table: the
//! ISI hands it the executor's rows as they are produced, so a SELECT
//! answered on the shared path goes into the reply frame with no
//! `ResultSet` on the server, and [`write_result_set`] feeds it a
//! collected [`ResultSet`]. It reserves the row count and patches it at
//! the end, drops rows past a cap, and fails a row that takes the body
//! past `MAX_MESSAGE_SIZE`. [`read_result_set`] reads a table straight
//! back, and [`write_object_rows`] writes an OQL answer. The bytes
//! are those `Value::encode` writes for the record `{columns: [Str],
//! rows: [[cell]]}`, a date cell being `{date: "iso"}`; an object table
//! leads each row with its OID and ends with `object_rows: true`.

use crate::{WebfinditError, WfResult};
use std::borrow::Borrow;
use webfindit_codb::{ExportedFunction, ExportedType, InformationSource};
use webfindit_oostore::{OValue, Oid};
use webfindit_relstore::exec::ResultSet;
use webfindit_relstore::types::{format_date, parse_date, Datum};
use webfindit_wire::value::tag;
use webfindit_wire::{CdrReader, CdrWriter, Value, WireError, WireResult, MAX_MESSAGE_SIZE};

/// Write `rs` as the record `{columns: [Str], rows: [[cell]]}`.
pub fn write_result_set(rs: &ResultSet, w: &mut CdrWriter) -> WireResult<()> {
    let mut table = TableWriter::new(w, None);
    table.head(&rs.columns)?;
    for row in &rs.rows {
        table.row(row.as_slice())?;
    }
    table.finish();
    Ok(())
}

/// Writes a relational table as its rows arrive: the head with the row
/// count reserved, each row, and the count patched in by
/// [`TableWriter::finish`]. [`write_result_set`] feeds it a
/// [`ResultSet`] and the ISI feeds it the executor's rows, so a table
/// has one encoder.
pub(crate) struct TableWriter<'w> {
    w: &'w mut CdrWriter,
    /// Rows past this many are dropped unwritten.
    max_rows: usize,
    /// Where the row count sits, once the head is written.
    count_at: Option<usize>,
    rows: usize,
}

impl<'w> TableWriter<'w> {
    /// A writer of at most `max_rows` rows (all of them for `None`).
    pub(crate) fn new(w: &'w mut CdrWriter, max_rows: Option<usize>) -> TableWriter<'w> {
        TableWriter {
            w,
            max_rows: max_rows.unwrap_or(usize::MAX),
            count_at: None,
            rows: 0,
        }
    }

    /// Write the head, up to the row count, which is reserved.
    pub(crate) fn head(&mut self, columns: &[String]) -> WireResult<()> {
        write_head(self.w, 2, columns)?;
        self.count_at = Some(self.w.reserve_ulong());
        Ok(())
    }

    /// Write one row, unless `max_rows` are written already. A body
    /// grown past [`MAX_MESSAGE_SIZE`] could never be sent, so the row
    /// that takes it there fails.
    pub(crate) fn row<D: Borrow<Datum>>(&mut self, cells: &[D]) -> WireResult<()> {
        if self.rows == self.max_rows {
            return Ok(());
        }
        self.rows += 1;
        let w = &mut *self.w;
        write_count(w, cells.len());
        for d in cells {
            match d.borrow() {
                Datum::Null => write_scalar(w, Scalar::Null)?,
                Datum::Int(v) => write_scalar(w, Scalar::Int(*v))?,
                Datum::Double(v) => write_scalar(w, Scalar::Double(*v))?,
                Datum::Text(s) => write_scalar(w, Scalar::Text(s))?,
                Datum::Bool(b) => write_scalar(w, Scalar::Bool(*b))?,
                Datum::Date(days) => {
                    w.write_octet(tag::STRUCT);
                    w.write_ulong(1);
                    w.write_string("date")?;
                    write_scalar(w, Scalar::Text(&format_date(*days)))?;
                }
            }
        }
        if w.len() > MAX_MESSAGE_SIZE as usize {
            return Err(WireError::TooLarge {
                declared: w.len() as u64,
                limit: u64::from(MAX_MESSAGE_SIZE),
            });
        }
        Ok(())
    }

    /// Patch in the count of rows written.
    pub(crate) fn finish(self) {
        if let Some(at) = self.count_at {
            self.w.patch_ulong(at, self.rows as u32);
        }
    }
}

/// Write an OQL answer as the record `{columns: [Str], rows: [[ULong
/// oid, cell…]], object_rows: true}`: the bytes `Value::encode` writes
/// for it, a reference cell being `{oid: ULong}`.
pub(crate) fn write_object_rows(
    columns: &[String],
    rows: &[(Oid, Vec<OValue>)],
    w: &mut CdrWriter,
) -> WireResult<()> {
    write_head(w, 3, columns)?;
    w.write_ulong(rows.len() as u32);
    for (oid, cells) in rows {
        write_count(w, cells.len() + 1);
        write_oid(w, *oid);
        for v in cells {
            write_ovalue(w, v)?;
        }
    }
    w.write_string("object_rows")?;
    w.write_octet(tag::BOOL);
    w.write_bool(true);
    Ok(())
}

/// Write an [`OValue`] as its `Value` (object references travel as
/// their OID number).
pub(crate) fn write_ovalue(w: &mut CdrWriter, v: &OValue) -> WireResult<()> {
    match v {
        OValue::Null => write_scalar(w, Scalar::Null),
        OValue::Int(i) => write_scalar(w, Scalar::Int(*i)),
        OValue::Double(d) => write_scalar(w, Scalar::Double(*d)),
        OValue::Text(s) => write_scalar(w, Scalar::Text(s)),
        OValue::Bool(b) => write_scalar(w, Scalar::Bool(*b)),
        OValue::List(items) => {
            write_count(w, items.len());
            items.iter().try_for_each(|item| write_ovalue(w, item))
        }
        OValue::Ref(oid) => {
            w.write_octet(tag::STRUCT);
            w.write_ulong(1);
            w.write_string("oid")?;
            write_oid(w, *oid);
            Ok(())
        }
    }
}

/// An object identity on the wire: its number as a `ULong`.
fn write_oid(w: &mut CdrWriter, oid: Oid) {
    w.write_octet(tag::ULONG);
    w.write_ulong(oid.0 as u32);
}

/// A scalar cell, which a relational and an object table write alike.
enum Scalar<'a> {
    Null,
    Int(i64),
    Double(f64),
    Text(&'a str),
    Bool(bool),
}

fn write_scalar(w: &mut CdrWriter, cell: Scalar<'_>) -> WireResult<()> {
    match cell {
        Scalar::Null => w.write_octet(tag::NULL),
        Scalar::Int(v) => {
            w.write_octet(tag::LONGLONG);
            w.write_longlong(v);
        }
        Scalar::Double(v) => {
            w.write_octet(tag::DOUBLE);
            w.write_double(v);
        }
        Scalar::Text(s) => {
            w.write_octet(tag::STRING);
            w.write_string(s)?;
        }
        Scalar::Bool(b) => {
            w.write_octet(tag::BOOL);
            w.write_bool(b);
        }
    }
    Ok(())
}

/// A table record's head: `fields` fields, the first two `columns` and
/// `rows`, written up to the count of `rows`, which the caller writes.
fn write_head(w: &mut CdrWriter, fields: u32, columns: &[String]) -> WireResult<()> {
    w.write_octet(tag::STRUCT);
    w.write_ulong(fields);
    w.write_string("columns")?;
    write_count(w, columns.len());
    for c in columns {
        write_scalar(w, Scalar::Text(c))?;
    }
    w.write_string("rows")?;
    w.write_octet(tag::SEQUENCE);
    Ok(())
}

fn write_count(w: &mut CdrWriter, n: usize) {
    w.write_octet(tag::SEQUENCE);
    w.write_ulong(n as u32);
}

/// True when `r` is at a two-field record whose first field is
/// `columns`: a table. Looks ahead without consuming.
pub fn is_result_set(r: &CdrReader<'_>) -> bool {
    table_fields(r) == Some(2)
}

/// The field count of the record `r` is at, when its first field is
/// `columns`: 2 for a relational table, 3 for an object one. Looks
/// ahead without consuming.
pub(crate) fn table_fields(r: &CdrReader<'_>) -> Option<u32> {
    let mut r = r.clone();
    if r.read_octet().ok()? != tag::STRUCT {
        return None;
    }
    let fields = r.read_ulong().ok()?;
    (r.read_str().ok()? == "columns").then_some(fields)
}

/// Read what [`write_result_set`] wrote, with the checks `Value::decode`
/// makes: every tag is checked, every count is checked against the bytes
/// left before anything is sized by it, and bad UTF-8 or a bad date is an
/// error, never a panic.
pub fn read_result_set(r: &mut CdrReader<'_>) -> WfResult<ResultSet> {
    let (columns, n) = read_head(r, 2)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let mut row = Vec::with_capacity(read_row_len(r)?);
        for _ in 0..row.capacity() {
            row.push(read_datum(r)?);
        }
        rows.push(row);
    }
    Ok(ResultSet { columns, rows })
}

/// Read what [`write_head`] wrote for a record of `fields` fields: the
/// columns and the count of rows that follow.
pub(crate) fn read_head(r: &mut CdrReader<'_>, fields: u32) -> WfResult<(Vec<String>, usize)> {
    expect_tag(r, tag::STRUCT, "result set")?;
    if r.read_ulong()? != fields || r.read_str()? != "columns" {
        return Err(WebfinditError::Protocol("result set lacks columns".into()));
    }
    let mut columns = Vec::with_capacity(read_count(r, "result set columns")?);
    for _ in 0..columns.capacity() {
        expect_tag(r, tag::STRING, "result set column name")?;
        columns.push(r.read_string()?);
    }
    if r.read_str()? != "rows" {
        return Err(WebfinditError::Protocol("result set lacks rows".into()));
    }
    Ok((columns, read_count(r, "result set rows")?))
}

/// The count of cells in the row `r` is at.
pub(crate) fn read_row_len(r: &mut CdrReader<'_>) -> WireResult<usize> {
    read_count(r, "result set row")
}

/// Read what [`write_oid`] wrote.
pub(crate) fn read_oid(r: &mut CdrReader<'_>) -> WireResult<Oid> {
    expect_tag(r, tag::ULONG, "object row oid")?;
    Ok(Oid(u64::from(r.read_ulong()?)))
}

fn expect_tag(r: &mut CdrReader<'_>, want: u8, context: &'static str) -> WireResult<()> {
    match r.read_octet()? {
        t if t == want => Ok(()),
        t => Err(WireError::BadTag {
            context,
            tag: t.into(),
        }),
    }
}

/// A sequence's count, which must fit in the bytes left: each element
/// is at least one octet.
fn read_count(r: &mut CdrReader<'_>, context: &'static str) -> WireResult<usize> {
    expect_tag(r, tag::SEQUENCE, context)?;
    let n = r.read_ulong()? as usize;
    if n > r.remaining() {
        return Err(WireError::TooLarge {
            declared: n as u64,
            limit: r.remaining() as u64,
        });
    }
    Ok(n)
}

fn read_datum(r: &mut CdrReader<'_>) -> WfResult<Datum> {
    Ok(match r.read_octet()? {
        tag::NULL => Datum::Null,
        tag::LONGLONG => Datum::Int(r.read_longlong()?),
        tag::DOUBLE => Datum::Double(r.read_double()?),
        tag::STRING => Datum::Text(r.read_string()?),
        tag::BOOL => Datum::Bool(r.read_bool()?),
        tag::STRUCT => {
            if r.read_ulong()? != 1 || r.read_str()? != "date" {
                return Err(WebfinditError::Protocol("cell is not a date".into()));
            }
            expect_tag(r, tag::STRING, "date datum")?;
            let iso = r.read_str()?;
            let date = parse_date(iso);
            Datum::Date(date.ok_or_else(|| WebfinditError::Protocol(format!("bad date {iso}")))?)
        }
        t => Err(WireError::BadTag {
            context: "result set cell",
            tag: t.into(),
        })?,
    })
}

/// Encode an information-source descriptor.
pub fn descriptor_to_value(d: &InformationSource) -> Value {
    let interface = d.interface.iter().map(exported_type_to_value).collect();
    Value::record([
        ("name", Value::string(&d.name)),
        ("information_type", Value::string(&d.information_type)),
        ("documentation", Value::string(&d.documentation_url)),
        ("location", Value::string(&d.location)),
        ("wrapper", Value::string(&d.wrapper)),
        ("interface", Value::Sequence(interface)),
    ])
}

fn exported_type_to_value(t: &ExportedType) -> Value {
    let attribute = |(ty, name): &(String, String)| {
        Value::record([("type", Value::string(ty)), ("name", Value::string(name))])
    };
    let function = |f: &ExportedFunction| {
        Value::record([
            ("name", Value::string(&f.name)),
            ("returns", Value::string(&f.returns)),
            ("params", strings_to_value(f.params.iter().cloned())),
            ("description", Value::string(&f.description)),
        ])
    };
    Value::record([
        ("name", Value::string(&t.name)),
        ("description", Value::string(&t.description)),
        (
            "attributes",
            Value::Sequence(t.attributes.iter().map(attribute).collect()),
        ),
        (
            "functions",
            Value::Sequence(t.functions.iter().map(function).collect()),
        ),
    ])
}

/// Decode an information-source descriptor.
pub fn value_to_descriptor(v: &Value) -> WfResult<InformationSource> {
    let get = |name| text(v, name, None);
    let mut interface = Vec::new();
    if let Some(types) = v.field("interface").and_then(Value::as_sequence) {
        for t in types {
            interface.push(value_to_exported_type(t)?);
        }
    }
    Ok(InformationSource {
        name: get("name")?,
        information_type: get("information_type")?,
        documentation_url: get("documentation")?,
        location: get("location")?,
        wrapper: get("wrapper")?,
        interface,
    })
}

fn value_to_exported_type(v: &Value) -> WfResult<ExportedType> {
    let list = |name| v.field(name).and_then(Value::as_sequence).unwrap_or(&[]);
    Ok(ExportedType {
        name: text(v, "name", None)?,
        description: text(v, "description", Some(""))?,
        attributes: list("attributes")
            .iter()
            .map(|a| Ok((text(a, "type", Some("string"))?, text(a, "name", None)?)))
            .collect::<WfResult<_>>()?,
        functions: list("functions")
            .iter()
            .map(|f| {
                Ok(ExportedFunction {
                    name: text(f, "name", None)?,
                    returns: text(f, "returns", Some("void"))?,
                    params: f
                        .field("params")
                        .and_then(Value::as_sequence)
                        .map(|ps| {
                            ps.iter()
                                .filter_map(Value::as_str)
                                .map(str::to_owned)
                                .collect()
                        })
                        .unwrap_or_default(),
                    description: text(f, "description", Some(""))?,
                })
            })
            .collect::<WfResult<_>>()?,
    })
}

/// The string field `name` of a record: `default` when absent, and an
/// error when absent with no default.
fn text(v: &Value, name: &str, default: Option<&str>) -> WfResult<String> {
    v.field(name)
        .and_then(Value::as_str)
        .or(default)
        .map(str::to_owned)
        .ok_or_else(|| WebfinditError::Protocol(format!("record missing {name}: {v}")))
}

/// Decode a list of strings (coalition names, member names, …).
pub fn value_to_strings(v: &Value) -> WfResult<Vec<String>> {
    v.as_sequence()
        .ok_or_else(|| WebfinditError::Protocol("expected a string sequence".into()))?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_owned)
                .ok_or_else(|| WebfinditError::Protocol("expected a string".into()))
        })
        .collect()
}

/// Encode a list of strings.
pub fn strings_to_value<I: IntoIterator<Item = String>>(items: I) -> Value {
    Value::Sequence(items.into_iter().map(Value::Str).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_roundtrip(rs: ResultSet) {
        let order = webfindit_wire::ByteOrder::LittleEndian;
        let mut w = CdrWriter::new(order);
        write_result_set(&rs, &mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes, order);
        assert!(is_result_set(&r));
        assert_eq!(read_result_set(&mut r).unwrap(), rs);
        assert!(r.is_exhausted(), "table decode left trailing bytes");
    }

    #[test]
    fn datum_roundtrip() {
        let date = Datum::Date(parse_date("1999-06-15").unwrap());
        for d in [Datum::Null, Datum::Int(42), Datum::Double(2.5), date] {
            let (columns, rows) = (vec!["c".into()], vec![vec![d]]);
            table_roundtrip(ResultSet { columns, rows });
        }
    }

    #[test]
    fn result_set_roundtrip() {
        table_roundtrip(ResultSet {
            columns: vec!["id".into(), "name".into(), "ok".into()],
            rows: vec![
                vec![Datum::Int(1), Datum::Text("a".into()), Datum::Bool(true)],
                vec![Datum::Int(2), Datum::Null, Datum::Bool(false)],
            ],
        });
    }

    #[test]
    fn descriptor_roundtrip() {
        let d = InformationSource {
            name: "RBH".into(),
            information_type: "Research and Medical".into(),
            documentation_url: "http://docs/RBH".into(),
            location: "dba.icis.qut.edu.au".into(),
            wrapper: "dba.icis.qut.edu.au/WebTassiliOracle".into(),
            interface: vec![ExportedType {
                name: "ResearchProjects".into(),
                attributes: vec![("string".into(), "Title".into())],
                functions: vec![ExportedFunction {
                    name: "Funding".into(),
                    params: vec!["Title x".into()],
                    returns: "real".into(),
                    description: "budget".into(),
                }],
                description: "projects".into(),
            }],
        };
        let v = descriptor_to_value(&d);
        assert_eq!(value_to_descriptor(&v).unwrap(), d);
    }

    #[test]
    fn malformed_payloads_rejected() {
        let long_5 = [tag::LONG, 0, 0, 0, 0, 0, 0, 5];
        let r = CdrReader::new(&long_5, webfindit_wire::ByteOrder::BigEndian);
        assert!(!is_result_set(&r));
        assert!(read_result_set(&mut r.clone()).is_err());
        assert!(value_to_descriptor(&Value::record([("name", Value::Long(1))])).is_err());
        assert!(value_to_strings(&Value::Long(1)).is_err());
    }
}
