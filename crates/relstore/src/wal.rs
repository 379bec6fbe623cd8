//! The write-ahead log: ARIES-style REDO/UNDO records and the log
//! manager.
//!
//! Every durable mutation appends one [`WalRecord`] carrying both the
//! redo image and the undo (before) image, framed as
//! `[len u32][fnv1a64 u64][payload]` so a torn tail is detected by
//! checksum and truncated rather than replayed as garbage. The log is
//! forced (`fsync`) when a transaction commits — the only durability
//! barrier a committed transaction needs, since data pages are written
//! lazily at checkpoints (no-steal for data, force for the log).
//!
//! [`CrashPoint`] is the fault-injection hook of the crash harness:
//! the storage layer consults an armed [`CrashInjector`] at the three
//! interesting instants (after a WAL append, between checkpoint page
//! flushes, just before the commit record) and simulates process death
//! by poisoning the database until it is reopened.

use crate::file_mgr::{fnv1a64, Vfs};
use crate::schema::{Column, TableSchema};
use crate::types::{DataType, Datum, Row};
use crate::{RelError, RelResult};
use std::fmt;
use std::sync::Arc;

/// One WAL record. DML records carry before images for UNDO and after
/// images for REDO; `DropTable` snapshots the whole table so an
/// uncommitted drop can be rolled back during recovery.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Transaction `tx` started.
    Begin {
        /// Transaction id.
        tx: u64,
    },
    /// Transaction `tx` committed; everything before this is durable.
    Commit {
        /// Transaction id.
        tx: u64,
    },
    /// A row was inserted into `table` at `slot`.
    Insert {
        /// Transaction id.
        tx: u64,
        /// Target table (lowercase).
        table: String,
        /// Heap slot the row landed in.
        slot: u64,
        /// The inserted row (redo image; undo is "delete the slot").
        row: Row,
    },
    /// The row at `slot` of `table` was deleted.
    Delete {
        /// Transaction id.
        tx: u64,
        /// Target table (lowercase).
        table: String,
        /// Heap slot the row left.
        slot: u64,
        /// The deleted row (undo image; redo is "delete the slot").
        row: Row,
    },
    /// The row at `slot` of `table` was replaced.
    Update {
        /// Transaction id.
        tx: u64,
        /// Target table (lowercase).
        table: String,
        /// Heap slot.
        slot: u64,
        /// Before image (undo).
        old: Row,
        /// After image (redo).
        new: Row,
    },
    /// `CREATE TABLE` ran.
    CreateTable {
        /// Transaction id.
        tx: u64,
        /// The created schema.
        schema: TableSchema,
    },
    /// `DROP TABLE` ran; the full table content rides along for UNDO.
    DropTable {
        /// Transaction id.
        tx: u64,
        /// The dropped table, snapshot at drop time.
        table: TableImage,
    },
    /// `CREATE INDEX` ran.
    CreateIndex {
        /// Transaction id.
        tx: u64,
        /// Target table (lowercase).
        table: String,
        /// Index name (lowercase).
        name: String,
        /// Indexed column position.
        column: u32,
    },
}

impl WalRecord {
    /// The owning transaction id.
    pub fn tx(&self) -> u64 {
        match self {
            WalRecord::Begin { tx }
            | WalRecord::Commit { tx }
            | WalRecord::Insert { tx, .. }
            | WalRecord::Delete { tx, .. }
            | WalRecord::Update { tx, .. }
            | WalRecord::CreateTable { tx, .. }
            | WalRecord::DropTable { tx, .. }
            | WalRecord::CreateIndex { tx, .. } => *tx,
        }
    }
}

/// A serializable snapshot of one table: schema, heap layout (slot ids
/// preserved, tombstones included), and secondary index definitions.
/// Used by `DropTable` records and by checkpoint snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct TableImage {
    /// The table's schema.
    pub schema: TableSchema,
    /// Total heap slots ever allocated (live + tombstoned).
    pub slot_count: u64,
    /// Live `(slot, row)` pairs in slot order.
    pub rows: Vec<(u64, Row)>,
    /// Secondary index definitions `(name, column)`.
    pub indexes: Vec<(String, u32)>,
}

impl TableImage {
    /// Snapshot a live table.
    pub fn of(table: &crate::storage::Table) -> TableImage {
        TableImage {
            schema: table.schema.clone(),
            slot_count: table.slot_count() as u64,
            rows: table
                .scan()
                .map(|(slot, row)| (slot as u64, row.clone()))
                .collect(),
            indexes: table
                .secondary_defs()
                .into_iter()
                .map(|(n, c)| (n, c as u32))
                .collect(),
        }
    }

    /// Rebuild the live table this image was taken from, preserving
    /// slot ids (log replay depends on them).
    pub fn restore(&self) -> crate::storage::Table {
        let mut t = crate::storage::Table::new(self.schema.clone());
        for (slot, row) in &self.rows {
            t.force_restore(*slot as usize, row.clone());
        }
        t.pad_slots(self.slot_count as usize);
        for (name, column) in &self.indexes {
            // Index names were unique when captured.
            let _ = t.create_index(name, *column as usize);
        }
        t
    }
}

// ---- binary encoding ----------------------------------------------------
//
// Dependency-free little-endian encoding. Strings and rows are length-
// prefixed; datum tags are one byte. The format is internal to this
// crate (WAL + snapshot files), versioned by the superblock.

/// Byte-writer extension helpers.
pub(crate) struct Enc(pub Vec<u8>);

impl Enc {
    pub(crate) fn new() -> Enc {
        Enc(Vec::new())
    }
    pub(crate) fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn i32(&mut self, v: i32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    /// Write a `u32` count, then each item through `f`; the count is
    /// patched in afterwards, so `items` need not know its length.
    fn counted<T>(&mut self, items: impl Iterator<Item = T>, mut f: impl FnMut(&mut Enc, T)) {
        let at = self.0.len();
        self.u32(0);
        let mut n = 0u32;
        for item in items {
            f(self, item);
            n += 1;
        }
        self.0[at..at + 4].copy_from_slice(&n.to_le_bytes());
    }
}

/// Byte-reader over a borrowed buffer; every read is bounds-checked so
/// corrupt input decodes to an error, never a panic.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn short() -> RelError {
    RelError::Corrupt("record truncated mid-field".into())
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }
    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
    fn take(&mut self, n: usize) -> RelResult<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(short());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    pub(crate) fn u8(&mut self) -> RelResult<u8> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u32(&mut self) -> RelResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    pub(crate) fn u64(&mut self) -> RelResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    pub(crate) fn i64(&mut self) -> RelResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    pub(crate) fn f64(&mut self) -> RelResult<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    pub(crate) fn i32(&mut self) -> RelResult<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    pub(crate) fn str(&mut self) -> RelResult<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| RelError::Corrupt("non-UTF8 string".into()))
    }
}

fn enc_datum(e: &mut Enc, d: &Datum) {
    match d {
        Datum::Null => e.u8(0),
        Datum::Int(v) => {
            e.u8(1);
            e.i64(*v);
        }
        Datum::Double(v) => {
            e.u8(2);
            e.f64(*v);
        }
        Datum::Text(s) => {
            e.u8(3);
            e.str(s);
        }
        Datum::Bool(b) => {
            e.u8(4);
            e.u8(*b as u8);
        }
        Datum::Date(v) => {
            e.u8(5);
            e.i32(*v);
        }
    }
}

fn dec_datum(d: &mut Dec<'_>) -> RelResult<Datum> {
    Ok(match d.u8()? {
        0 => Datum::Null,
        1 => Datum::Int(d.i64()?),
        2 => Datum::Double(d.f64()?),
        3 => Datum::Text(d.str()?),
        4 => Datum::Bool(d.u8()? != 0),
        5 => Datum::Date(d.i32()?),
        t => return Err(RelError::Corrupt(format!("unknown datum tag {t}"))),
    })
}

fn enc_row(e: &mut Enc, row: &Row) {
    e.u32(row.len() as u32);
    for d in row {
        enc_datum(e, d);
    }
}

fn dec_row(d: &mut Dec<'_>) -> RelResult<Row> {
    let n = d.u32()? as usize;
    if n > 1 << 20 {
        return Err(RelError::Corrupt(format!("absurd row arity {n}")));
    }
    (0..n).map(|_| dec_datum(d)).collect()
}

fn data_type_tag(t: DataType) -> u8 {
    match t {
        DataType::Int => 0,
        DataType::Double => 1,
        DataType::Text => 2,
        DataType::Bool => 3,
        DataType::Date => 4,
    }
}

fn data_type_of(tag: u8) -> RelResult<DataType> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Double,
        2 => DataType::Text,
        3 => DataType::Bool,
        4 => DataType::Date,
        t => return Err(RelError::Corrupt(format!("unknown type tag {t}"))),
    })
}

fn enc_schema(e: &mut Enc, s: &TableSchema) {
    e.str(&s.name);
    e.u32(s.columns.len() as u32);
    for c in &s.columns {
        e.str(&c.name);
        e.u8(data_type_tag(c.data_type));
        e.u8(c.not_null as u8);
        e.u8(c.primary_key as u8);
    }
}

fn dec_schema(d: &mut Dec<'_>) -> RelResult<TableSchema> {
    let name = d.str()?;
    let n = d.u32()? as usize;
    if n > 1 << 16 {
        return Err(RelError::Corrupt(format!("absurd column count {n}")));
    }
    let mut columns = Vec::with_capacity(n);
    for _ in 0..n {
        let cname = d.str()?;
        let data_type = data_type_of(d.u8()?)?;
        let not_null = d.u8()? != 0;
        let primary_key = d.u8()? != 0;
        let mut col = Column::new(cname, data_type);
        col.not_null = not_null;
        col.primary_key = primary_key;
        columns.push(col);
    }
    Ok(TableSchema { name, columns })
}

/// The one writer of the table format that snapshots and `DropTable`
/// records share: schema, heap length, the live `(slot, row)` pairs in
/// slot order, then the secondary index definitions.
fn enc_table_parts<'r, 'i>(
    e: &mut Enc,
    schema: &TableSchema,
    slot_count: u64,
    rows: impl Iterator<Item = (u64, &'r Row)>,
    indexes: impl Iterator<Item = (&'i str, u32)>,
) {
    enc_schema(e, schema);
    e.u64(slot_count);
    e.counted(rows, |e, (slot, row)| {
        e.u64(slot);
        enc_row(e, row);
    });
    e.counted(indexes, |e, (name, column)| {
        e.str(name);
        e.u32(column);
    });
}

/// Encode a live table straight from its heap, in the same bytes
/// [`enc_table_image`] writes for `TableImage::of(table)`.
pub(crate) fn enc_table(e: &mut Enc, table: &crate::storage::Table) {
    let defs = table.secondary_defs();
    enc_table_parts(
        e,
        &table.schema,
        table.slot_count() as u64,
        table.scan().map(|(slot, row)| (slot as u64, row)),
        defs.iter()
            .map(|(name, column)| (name.as_str(), *column as u32)),
    );
}

pub(crate) fn enc_table_image(e: &mut Enc, img: &TableImage) {
    enc_table_parts(
        e,
        &img.schema,
        img.slot_count,
        img.rows.iter().map(|(slot, row)| (*slot, row)),
        img.indexes
            .iter()
            .map(|(name, column)| (name.as_str(), *column)),
    );
}

pub(crate) fn dec_table_image(d: &mut Dec<'_>) -> RelResult<TableImage> {
    let schema = dec_schema(d)?;
    let slot_count = d.u64()?;
    let n = d.u32()? as usize;
    let mut rows = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let slot = d.u64()?;
        rows.push((slot, dec_row(d)?));
    }
    let ni = d.u32()? as usize;
    let mut indexes = Vec::with_capacity(ni.min(1 << 16));
    for _ in 0..ni {
        let name = d.str()?;
        indexes.push((name, d.u32()?));
    }
    Ok(TableImage {
        schema,
        slot_count,
        rows,
        indexes,
    })
}

/// Record tags are part of the on-disk format. Tag 2 belonged to an
/// abort record, never written since commits started appending whole
/// batches; it stays unassigned.
fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut e = Enc::new();
    match rec {
        WalRecord::Begin { tx } => {
            e.u8(0);
            e.u64(*tx);
        }
        WalRecord::Commit { tx } => {
            e.u8(1);
            e.u64(*tx);
        }
        WalRecord::Insert {
            tx,
            table,
            slot,
            row,
        } => {
            e.u8(3);
            e.u64(*tx);
            e.str(table);
            e.u64(*slot);
            enc_row(&mut e, row);
        }
        WalRecord::Delete {
            tx,
            table,
            slot,
            row,
        } => {
            e.u8(4);
            e.u64(*tx);
            e.str(table);
            e.u64(*slot);
            enc_row(&mut e, row);
        }
        WalRecord::Update {
            tx,
            table,
            slot,
            old,
            new,
        } => {
            e.u8(5);
            e.u64(*tx);
            e.str(table);
            e.u64(*slot);
            enc_row(&mut e, old);
            enc_row(&mut e, new);
        }
        WalRecord::CreateTable { tx, schema } => {
            e.u8(6);
            e.u64(*tx);
            enc_schema(&mut e, schema);
        }
        WalRecord::DropTable { tx, table } => {
            e.u8(7);
            e.u64(*tx);
            enc_table_image(&mut e, table);
        }
        WalRecord::CreateIndex {
            tx,
            table,
            name,
            column,
        } => {
            e.u8(8);
            e.u64(*tx);
            e.str(table);
            e.str(name);
            e.u32(*column);
        }
    }
    e.0
}

fn decode_record(payload: &[u8]) -> RelResult<WalRecord> {
    let mut d = Dec::new(payload);
    let rec = match d.u8()? {
        0 => WalRecord::Begin { tx: d.u64()? },
        1 => WalRecord::Commit { tx: d.u64()? },
        3 => WalRecord::Insert {
            tx: d.u64()?,
            table: d.str()?,
            slot: d.u64()?,
            row: dec_row(&mut d)?,
        },
        4 => WalRecord::Delete {
            tx: d.u64()?,
            table: d.str()?,
            slot: d.u64()?,
            row: dec_row(&mut d)?,
        },
        5 => WalRecord::Update {
            tx: d.u64()?,
            table: d.str()?,
            slot: d.u64()?,
            old: dec_row(&mut d)?,
            new: dec_row(&mut d)?,
        },
        6 => WalRecord::CreateTable {
            tx: d.u64()?,
            schema: dec_schema(&mut d)?,
        },
        7 => WalRecord::DropTable {
            tx: d.u64()?,
            table: dec_table_image(&mut d)?,
        },
        8 => WalRecord::CreateIndex {
            tx: d.u64()?,
            table: d.str()?,
            name: d.str()?,
            column: d.u32()?,
        },
        t => return Err(RelError::Corrupt(format!("unknown WAL record tag {t}"))),
    };
    if !d.done() {
        return Err(RelError::Corrupt("trailing bytes after WAL record".into()));
    }
    Ok(rec)
}

/// Frame header: 4-byte payload length + 8-byte payload checksum.
const FRAME_HDR: u64 = 12;

/// What [`LogMgr::scan`] found on open.
#[derive(Debug)]
pub struct LogScan {
    /// Decoded `(byte offset, record)` pairs in log order.
    pub records: Vec<(u64, WalRecord)>,
    /// Byte offset one past the last valid record.
    pub valid_end: u64,
    /// True when a torn/corrupt tail was found past `valid_end`.
    pub torn_tail: bool,
}

/// The append-only log manager.
#[derive(Debug)]
pub struct LogMgr {
    vfs: Arc<dyn Vfs>,
    file: String,
    tail: u64,
}

impl LogMgr {
    /// Open the log on `file`, positioned to append at `tail`.
    pub fn new(vfs: Arc<dyn Vfs>, file: impl Into<String>, tail: u64) -> LogMgr {
        LogMgr {
            vfs,
            file: file.into(),
            tail,
        }
    }

    /// Byte offset the next append will land at (the next LSN).
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Append `rec`, returning its LSN (byte offset). Not durable
    /// until [`LogMgr::flush`].
    pub fn append(&mut self, rec: &WalRecord) -> RelResult<u64> {
        let payload = encode_record(rec);
        let mut frame = Vec::with_capacity(payload.len() + FRAME_HDR as usize);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let lsn = self.tail;
        self.vfs.write_at(&self.file, lsn, &frame)?;
        self.tail += frame.len() as u64;
        Ok(lsn)
    }

    /// Force the log to durable storage.
    pub fn flush(&mut self) -> RelResult<()> {
        self.vfs.sync(&self.file)
    }

    /// Scan all records from `start`. Decoding stops at the first
    /// frame that is short, oversized, or fails its checksum — the
    /// torn tail a crash mid-append leaves behind.
    pub fn scan(vfs: &Arc<dyn Vfs>, file: &str, start: u64) -> RelResult<LogScan> {
        let len = vfs.len(file)?;
        let mut records = Vec::new();
        let mut off = start.min(len);
        let mut torn_tail = false;
        while off + FRAME_HDR <= len {
            let mut hdr = [0u8; FRAME_HDR as usize];
            if vfs.read_at(file, off, &mut hdr)? < FRAME_HDR as usize {
                torn_tail = true;
                break;
            }
            let plen = u32::from_le_bytes(hdr[0..4].try_into().expect("4")) as u64;
            let sum = u64::from_le_bytes(hdr[4..12].try_into().expect("8"));
            if plen == 0 || plen > 1 << 26 || off + FRAME_HDR + plen > len {
                torn_tail = true;
                break;
            }
            let mut payload = vec![0u8; plen as usize];
            if vfs.read_at(file, off + FRAME_HDR, &mut payload)? < plen as usize {
                torn_tail = true;
                break;
            }
            if fnv1a64(&payload) != sum {
                torn_tail = true;
                break;
            }
            match decode_record(&payload) {
                Ok(rec) => records.push((off, rec)),
                Err(_) => {
                    torn_tail = true;
                    break;
                }
            }
            off += FRAME_HDR + plen;
        }
        if off < len && !torn_tail {
            // A few trailing bytes shorter than a frame header.
            torn_tail = true;
        }
        Ok(LogScan {
            records,
            valid_end: off,
            torn_tail,
        })
    }

    /// Truncate the log to `end` (dropping a torn tail) and sync.
    pub fn truncate_to(&mut self, end: u64) -> RelResult<()> {
        self.vfs.truncate(&self.file, end)?;
        self.vfs.sync(&self.file)?;
        self.tail = end;
        Ok(())
    }

    /// Start the log over (post-compaction).
    pub fn reset(&mut self) -> RelResult<()> {
        self.truncate_to(0)
    }
}

// ---- crash points -------------------------------------------------------

/// Where the crash harness can kill the storage stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Right after a DML/DDL record reaches the log buffer.
    AfterWalAppend,
    /// Between two page writes of a checkpoint snapshot.
    MidPageFlush,
    /// Just before the commit record is appended.
    PreCommitRecord,
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CrashPoint::AfterWalAppend => "after-wal-append",
            CrashPoint::MidPageFlush => "mid-page-flush",
            CrashPoint::PreCommitRecord => "pre-commit-record",
        };
        f.write_str(s)
    }
}

/// A one-shot countdown trigger for one [`CrashPoint`].
#[derive(Debug, Default)]
pub struct CrashInjector {
    armed: Option<(CrashPoint, u64)>,
}

impl CrashInjector {
    /// Arm the injector: the `n`-th future occurrence of `point`
    /// (1-based) crashes the stack.
    pub fn arm(&mut self, point: CrashPoint, n: u64) {
        self.armed = Some((point, n.max(1)));
    }

    /// Report an occurrence of `point`; true means "crash now" (the
    /// injector disarms itself).
    pub fn hit(&mut self, point: CrashPoint) -> bool {
        match &mut self.armed {
            Some((p, n)) if *p == point => {
                *n -= 1;
                if *n == 0 {
                    self.armed = None;
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file_mgr::SimVfs;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Begin { tx: 1 },
            WalRecord::Insert {
                tx: 1,
                table: "beds".into(),
                slot: 0,
                row: vec![
                    Datum::Int(1),
                    Datum::Text("ward A".into()),
                    Datum::Null,
                    Datum::Bool(true),
                    Datum::Double(2.5),
                    Datum::Date(19000),
                ],
            },
            WalRecord::Update {
                tx: 1,
                table: "beds".into(),
                slot: 0,
                old: vec![Datum::Int(1)],
                new: vec![Datum::Int(2)],
            },
            WalRecord::Delete {
                tx: 1,
                table: "beds".into(),
                slot: 0,
                row: vec![Datum::Int(2)],
            },
            WalRecord::CreateTable {
                tx: 1,
                schema: TableSchema::new(
                    "t2",
                    vec![
                        Column::new("id", DataType::Int).primary_key(),
                        Column::new("v", DataType::Text).not_null(),
                    ],
                ),
            },
            WalRecord::CreateIndex {
                tx: 1,
                table: "t2".into(),
                name: "t2_v".into(),
                column: 1,
            },
            WalRecord::Commit { tx: 1 },
        ]
    }

    #[test]
    fn records_roundtrip_through_the_log() {
        let vfs = SimVfs::new() as Arc<dyn Vfs>;
        let mut log = LogMgr::new(Arc::clone(&vfs), "wal", 0);
        let recs = sample_records();
        for r in &recs {
            log.append(r).unwrap();
        }
        log.flush().unwrap();
        let scan = LogMgr::scan(&vfs, "wal", 0).unwrap();
        assert!(!scan.torn_tail);
        assert_eq!(scan.valid_end, log.tail());
        let decoded: Vec<WalRecord> = scan.records.into_iter().map(|(_, r)| r).collect();
        assert_eq!(decoded, recs);
    }

    #[test]
    fn torn_tail_is_detected_and_truncatable() {
        let vfs = SimVfs::new();
        let dyn_vfs = Arc::clone(&vfs) as Arc<dyn Vfs>;
        let mut log = LogMgr::new(Arc::clone(&dyn_vfs), "wal", 0);
        log.append(&WalRecord::Begin { tx: 1 }).unwrap();
        let good_end = log.tail();
        log.append(&WalRecord::Commit { tx: 1 }).unwrap();
        log.flush().unwrap();
        // Deliberately truncate the last record mid-frame.
        vfs.corrupt("wal", 0, &[]); // no-op write to flush pending model
        let full = dyn_vfs.len("wal").unwrap();
        dyn_vfs.truncate("wal", full - 3).unwrap();
        dyn_vfs.sync("wal").unwrap();

        let scan = LogMgr::scan(&dyn_vfs, "wal", 0).unwrap();
        assert!(scan.torn_tail);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_end, good_end);

        let mut log2 = LogMgr::new(Arc::clone(&dyn_vfs), "wal", scan.valid_end);
        log2.truncate_to(scan.valid_end).unwrap();
        let rescan = LogMgr::scan(&dyn_vfs, "wal", 0).unwrap();
        assert!(!rescan.torn_tail);
        assert_eq!(rescan.records.len(), 1);
    }

    #[test]
    fn corrupted_payload_stops_the_scan() {
        let vfs = SimVfs::new();
        let dyn_vfs = Arc::clone(&vfs) as Arc<dyn Vfs>;
        let mut log = LogMgr::new(Arc::clone(&dyn_vfs), "wal", 0);
        log.append(&WalRecord::Begin { tx: 1 }).unwrap();
        let second = log.tail();
        log.append(&WalRecord::Commit { tx: 1 }).unwrap();
        log.flush().unwrap();
        // Flip a byte inside the second record's payload.
        vfs.corrupt("wal", second as usize + 13, &[0xff]);
        let scan = LogMgr::scan(&dyn_vfs, "wal", 0).unwrap();
        assert!(scan.torn_tail);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_end, second);
    }

    #[test]
    fn table_image_restores_slots_and_indexes() {
        use crate::storage::Table;
        let mut t = Table::new(TableSchema::new(
            "beds",
            vec![
                Column::new("id", DataType::Int).primary_key(),
                Column::new("loc", DataType::Text),
            ],
        ));
        let s0 = t
            .insert(vec![Datum::Int(1), Datum::Text("a".into())])
            .unwrap();
        t.insert(vec![Datum::Int(2), Datum::Text("b".into())])
            .unwrap();
        t.insert(vec![Datum::Int(3), Datum::Text("a".into())])
            .unwrap();
        t.delete_slot(s0);
        t.create_index("beds_loc", 1).unwrap();

        let img = TableImage::of(&t);
        let mut e = Enc::new();
        enc_table_image(&mut e, &img);
        let mut live = Enc::new();
        enc_table(&mut live, &t);
        assert_eq!(live.0, e.0, "a live table encodes as its image does");
        let img2 = dec_table_image(&mut Dec::new(&e.0)).unwrap();
        assert_eq!(img, img2);

        let restored = img2.restore();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.slot_count(), t.slot_count());
        assert_eq!(restored.index_names(), vec!["beds_loc".to_string()]);
        // Tombstoned slot stays free; next insert lands past it.
        let rows: Vec<(usize, Row)> = restored.scan().map(|(s, r)| (s, r.clone())).collect();
        let orig: Vec<(usize, Row)> = t.scan().map(|(s, r)| (s, r.clone())).collect();
        assert_eq!(rows, orig);
    }

    #[test]
    fn crash_injector_counts_down_and_fires_once() {
        let mut inj = CrashInjector::default();
        inj.arm(CrashPoint::AfterWalAppend, 3);
        assert!(!inj.hit(CrashPoint::AfterWalAppend));
        assert!(!inj.hit(CrashPoint::PreCommitRecord));
        assert!(!inj.hit(CrashPoint::AfterWalAppend));
        assert!(inj.hit(CrashPoint::AfterWalAppend));
        assert!(!inj.hit(CrashPoint::AfterWalAppend), "one-shot");
        assert_eq!(CrashPoint::MidPageFlush.to_string(), "mid-page-flush");
    }
}
