//! Tables between engine-level results and the wire.
//!
//! A table skips the `Value` tree. One row writer, `TableWriter`,
//! encodes every table, relational or object: the ISI hands it the
//! connection's rows as they are produced, so a SELECT answered on the
//! shared path goes into the reply frame with no `ResultSet` on the
//! server, and [`write_result_set`] feeds it a collected [`ResultSet`].
//! It reserves the row count and patches it at the end, drops rows past
//! a cap, and fails a row that takes the body past `MAX_MESSAGE_SIZE`.
//! [`read_result_set`] reads a table straight back. The bytes are those
//! `Value::encode` writes for the record `{columns: [Str], rows:
//! [[cell]]}`, a date cell being `{date: "iso"}`. An OQL answer is such
//! a table whose first column, `oid`, holds each object's identity as a
//! `LongLong`.

use crate::{WebfinditError, WfResult};
use std::borrow::Borrow;
use webfindit_relstore::exec::ResultSet;
use webfindit_relstore::types::{format_date, parse_date, Datum};
use webfindit_wire::marshal::{expect_tag, read_count};
use webfindit_wire::value::tag;
use webfindit_wire::{CdrReader, CdrWriter, WireError, WireResult, MAX_MESSAGE_SIZE};

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
        write_head(self.w, columns)?;
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
                Datum::Null => w.write_octet(tag::NULL),
                Datum::Int(v) => {
                    w.write_octet(tag::LONGLONG);
                    w.write_longlong(*v);
                }
                Datum::Double(v) => {
                    w.write_octet(tag::DOUBLE);
                    w.write_double(*v);
                }
                Datum::Text(s) => write_text(w, s)?,
                Datum::Bool(b) => {
                    w.write_octet(tag::BOOL);
                    w.write_bool(*b);
                }
                Datum::Date(days) => {
                    w.write_octet(tag::STRUCT);
                    w.write_ulong(1);
                    w.write_string("date")?;
                    write_text(w, &format_date(*days))?;
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

fn write_text(w: &mut CdrWriter, s: &str) -> WireResult<()> {
    w.write_octet(tag::STRING);
    w.write_string(s)
}

/// A table record's head, written up to the count of `rows`, which the
/// caller writes.
fn write_head(w: &mut CdrWriter, columns: &[String]) -> WireResult<()> {
    w.write_octet(tag::STRUCT);
    w.write_ulong(2);
    w.write_string("columns")?;
    write_count(w, columns.len());
    for c in columns {
        write_text(w, c)?;
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
    let mut r = r.clone();
    r.read_octet().ok() == Some(tag::STRUCT)
        && r.read_ulong().ok() == Some(2)
        && r.read_str().ok() == Some("columns")
}

/// Read what [`write_result_set`] wrote, with the checks `Value::decode`
/// makes: every tag is checked, every count is checked against the bytes
/// left before anything is sized by it, and bad UTF-8 or a bad date is an
/// error, never a panic.
pub fn read_result_set(r: &mut CdrReader<'_>) -> WfResult<ResultSet> {
    let (columns, n) = read_head(r)?;
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

/// Read what [`write_head`] wrote: the columns and the count of rows
/// that follow.
pub(crate) fn read_head(r: &mut CdrReader<'_>) -> WfResult<(Vec<String>, usize)> {
    expect_tag(r, tag::STRUCT, "result set")?;
    if r.read_ulong()? != 2 || r.read_str()? != "columns" {
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

/// Read one cell: a datum as [`TableWriter`] writes it. Any other tag
/// is a `BadTag` error.
pub(crate) fn read_datum(r: &mut CdrReader<'_>) -> WfResult<Datum> {
    let t = r.read_octet()?;
    read_tagged_datum(t, r)
}

/// [`read_datum`] after its tag `t`.
pub(crate) fn read_tagged_datum(t: u8, r: &mut CdrReader<'_>) -> WfResult<Datum> {
    Ok(match t {
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

#[cfg(test)]
mod tests {
    use super::*;
    use webfindit_wire::Marshal;

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
        use webfindit_codb::{ExportedFunction, ExportedType, InformationSource};
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
        let order = webfindit_wire::ByteOrder::BigEndian;
        let mut w = CdrWriter::new(order);
        d.write(&mut w).unwrap();
        let bytes = w.into_bytes();
        let back = InformationSource::read(&mut CdrReader::new(&bytes, order)).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn malformed_payloads_rejected() {
        use webfindit_codb::InformationSource;
        let order = webfindit_wire::ByteOrder::BigEndian;
        let long_5 = [tag::LONG, 0, 0, 0, 0, 0, 0, 5];
        let r = CdrReader::new(&long_5, order);
        assert!(!is_result_set(&r));
        assert!(read_result_set(&mut r.clone()).is_err());
        assert!(Vec::<String>::read(&mut r.clone()).is_err());
        let mut w = CdrWriter::new(order);
        webfindit_wire::Value::record([("name", webfindit_wire::Value::Long(1))])
            .encode(&mut w)
            .unwrap();
        let bytes = w.into_bytes();
        assert!(InformationSource::read(&mut CdrReader::new(&bytes, order)).is_err());
    }
}
