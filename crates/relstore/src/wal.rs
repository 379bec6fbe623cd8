//! The write-ahead log: ARIES-style REDO/UNDO records and the log
//! manager.
//!
//! Every durable mutation is one [`Change`], carrying both the redo
//! image and the undo (before) image, and is appended at commit as one
//! [`WalRecord`], framed as
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
use crate::storage::Table;
use crate::types::{DataType, Datum, Row};
use crate::{RelError, RelResult};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// One mutation of a database, the only description of one: an open
/// transaction holds its changes in order, ROLLBACK undoes them newest
/// first (`recovery::undo`), COMMIT writes them to the log as
/// `Begin, Op*, Commit`, and recovery redoes and undoes them. DML
/// changes carry the before image UNDO needs and the after image REDO
/// needs; `DropTable` carries the dropped table itself.
#[derive(Debug, Clone)]
pub enum Change {
    /// A row was inserted into `table` at `slot`.
    Insert {
        /// Target table (lowercase).
        table: String,
        /// Heap slot the row landed in.
        slot: usize,
        /// The inserted row as stored (redo image; undo is "delete the
        /// slot").
        row: Row,
    },
    /// The row at `slot` of `table` was deleted.
    Delete {
        /// Target table (lowercase).
        table: String,
        /// Heap slot the row left.
        slot: usize,
        /// The deleted row (undo image; redo is "delete the slot").
        row: Row,
    },
    /// The row at `slot` of `table` was replaced.
    Update {
        /// Target table (lowercase).
        table: String,
        /// Heap slot.
        slot: usize,
        /// Before image (undo).
        old: Row,
        /// After image as stored (redo).
        new: Row,
    },
    /// `CREATE TABLE` ran, or `Database::import_table` created a table.
    CreateTable {
        /// The created schema.
        schema: TableSchema,
    },
    /// `DROP TABLE` ran; the table rides along for UNDO.
    DropTable {
        /// The dropped table, moved out of the catalog.
        table: Box<Table>,
    },
    /// `CREATE INDEX` ran.
    CreateIndex {
        /// Target table (lowercase).
        table: String,
        /// Index name (lowercase).
        name: String,
        /// Indexed column position.
        column: usize,
    },
}

/// One WAL record: a transaction's bracket or one of its changes. A
/// commit logs the open transaction's changes borrowed; a scan reads
/// them back owned.
#[derive(Debug)]
pub enum WalRecord<'c> {
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
    /// Transaction `tx` made `change`.
    Op {
        /// Transaction id.
        tx: u64,
        /// What it changed.
        change: Cow<'c, Change>,
    },
}

impl WalRecord<'_> {
    /// The owning transaction id.
    pub fn tx(&self) -> u64 {
        match self {
            WalRecord::Begin { tx } | WalRecord::Commit { tx } | WalRecord::Op { tx, .. } => *tx,
        }
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
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
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

/// The table format that snapshots and `DropTable` records share:
/// schema, heap length, the live `(slot, row)` pairs in slot order,
/// then the secondary index definitions.
pub(crate) fn enc_table(e: &mut Enc, table: &Table) {
    enc_schema(e, &table.schema);
    e.u64(table.slot_count() as u64);
    e.counted(table.scan(), |e, (slot, row)| {
        e.u64(slot as u64);
        enc_row(e, row);
    });
    e.counted(table.secondary_defs(), |e, (name, column)| {
        e.str(name);
        e.u32(column as u32);
    });
}

/// Read back what [`enc_table`] wrote: the rows go straight into their
/// slots through the bulk load that [`Table::insert_all`] uses.
pub(crate) fn dec_table(d: &mut Dec<'_>) -> RelResult<Table> {
    let mut table = Table::new(dec_schema(d)?);
    let slot_count = d.u64()?;
    let n = d.u32()? as usize;
    // A row takes at least its slot and its arity, 12 bytes.
    if n > d.remaining() / 12 {
        return Err(RelError::Corrupt(format!("absurd row count {n}")));
    }
    table.bulk_load(n, |t| {
        for _ in 0..n {
            let slot = d.u64()? as usize;
            t.force_restore(slot, dec_row(d)?);
        }
        Ok(())
    })?;
    table.pad_slots(slot_count as usize);
    for _ in 0..d.u32()? {
        let name = d.str()?;
        // Index names were unique when written.
        let _ = table.create_index(&name, d.u32()? as usize);
    }
    Ok(table)
}

/// Record tags are part of the on-disk format. Tag 2 belonged to an
/// abort record, never written since commits started appending whole
/// batches; it stays unassigned.
fn encode_record(rec: &WalRecord<'_>) -> Vec<u8> {
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
        WalRecord::Op { tx, change } => enc_change(&mut e, *tx, change),
    }
    e.0
}

/// A change record: its tag, `tx`, then the change's fields.
fn enc_change(e: &mut Enc, tx: u64, change: &Change) {
    match change {
        Change::Insert { table, slot, row } => {
            e.u8(3);
            e.u64(tx);
            e.str(table);
            e.u64(*slot as u64);
            enc_row(e, row);
        }
        Change::Delete { table, slot, row } => {
            e.u8(4);
            e.u64(tx);
            e.str(table);
            e.u64(*slot as u64);
            enc_row(e, row);
        }
        Change::Update {
            table,
            slot,
            old,
            new,
        } => {
            e.u8(5);
            e.u64(tx);
            e.str(table);
            e.u64(*slot as u64);
            enc_row(e, old);
            enc_row(e, new);
        }
        Change::CreateTable { schema } => {
            e.u8(6);
            e.u64(tx);
            enc_schema(e, schema);
        }
        Change::DropTable { table } => {
            e.u8(7);
            e.u64(tx);
            enc_table(e, table);
        }
        Change::CreateIndex {
            table,
            name,
            column,
        } => {
            e.u8(8);
            e.u64(tx);
            e.str(table);
            e.str(name);
            e.u32(*column as u32);
        }
    }
}

fn decode_record(payload: &[u8]) -> RelResult<WalRecord<'static>> {
    let mut d = Dec::new(payload);
    let tag = d.u8()?;
    let tx = d.u64()?;
    let rec = match tag {
        0 => WalRecord::Begin { tx },
        1 => WalRecord::Commit { tx },
        tag => WalRecord::Op {
            tx,
            change: Cow::Owned(dec_change(&mut d, tag)?),
        },
    };
    if !d.done() {
        return Err(RelError::Corrupt("trailing bytes after WAL record".into()));
    }
    Ok(rec)
}

/// The body of a change record whose tag is `tag`.
fn dec_change(d: &mut Dec<'_>, tag: u8) -> RelResult<Change> {
    Ok(match tag {
        3 => Change::Insert {
            table: d.str()?,
            slot: d.u64()? as usize,
            row: dec_row(d)?,
        },
        4 => Change::Delete {
            table: d.str()?,
            slot: d.u64()? as usize,
            row: dec_row(d)?,
        },
        5 => Change::Update {
            table: d.str()?,
            slot: d.u64()? as usize,
            old: dec_row(d)?,
            new: dec_row(d)?,
        },
        6 => Change::CreateTable {
            schema: dec_schema(d)?,
        },
        7 => Change::DropTable {
            table: Box::new(dec_table(d)?),
        },
        8 => Change::CreateIndex {
            table: d.str()?,
            name: d.str()?,
            column: d.u32()? as usize,
        },
        t => return Err(RelError::Corrupt(format!("unknown WAL record tag {t}"))),
    })
}

/// Frame header: 4-byte payload length + 8-byte payload checksum.
const FRAME_HDR: u64 = 12;

/// What [`LogMgr::scan`] found on open.
#[derive(Debug)]
pub struct LogScan {
    /// Decoded `(byte offset, record)` pairs in log order.
    pub records: Vec<(u64, WalRecord<'static>)>,
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
    pub fn append(&mut self, rec: &WalRecord<'_>) -> RelResult<u64> {
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
    use std::ops::Bound;

    fn sample_records() -> Vec<WalRecord<'static>> {
        let op = |change| WalRecord::Op {
            tx: 1,
            change: Cow::Owned(change),
        };
        let mut dropped = Table::new(TableSchema::new(
            "gone",
            vec![Column::new("id", DataType::Int).primary_key()],
        ));
        dropped.insert(vec![Datum::Int(7)]).unwrap();
        vec![
            WalRecord::Begin { tx: 1 },
            op(Change::Insert {
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
            }),
            op(Change::Update {
                table: "beds".into(),
                slot: 0,
                old: vec![Datum::Int(1)],
                new: vec![Datum::Int(2)],
            }),
            op(Change::Delete {
                table: "beds".into(),
                slot: 0,
                row: vec![Datum::Int(2)],
            }),
            op(Change::CreateTable {
                schema: TableSchema::new(
                    "t2",
                    vec![
                        Column::new("id", DataType::Int).primary_key(),
                        Column::new("v", DataType::Text).not_null(),
                    ],
                ),
            }),
            op(Change::CreateIndex {
                table: "t2".into(),
                name: "t2_v".into(),
                column: 1,
            }),
            op(Change::DropTable {
                table: Box::new(dropped),
            }),
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
        // Records compare by the bytes the log stores of them.
        let decoded: Vec<Vec<u8>> = scan.records.iter().map(|(_, r)| encode_record(r)).collect();
        let written: Vec<Vec<u8>> = recs.iter().map(encode_record).collect();
        assert_eq!(decoded, written);
        let txs: Vec<u64> = scan.records.iter().map(|(_, r)| r.tx()).collect();
        assert_eq!(txs, vec![1; recs.len()]);
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
        t.insert(vec![Datum::Int(4), Datum::Text("c".into())])
            .unwrap();
        let last = t.slot_count();
        t.delete_slot(last - 1);

        let mut e = Enc::new();
        enc_table(&mut e, &t);
        let mut d = Dec::new(&e.0);
        let restored = dec_table(&mut d).unwrap();
        assert!(d.done());
        let mut again = Enc::new();
        enc_table(&mut again, &restored);
        assert_eq!(again.0, e.0, "a decoded table encodes as it was written");

        assert_eq!(restored.len(), 2);
        assert_eq!(restored.slot_count(), t.slot_count());
        assert_eq!(restored.index_names(), vec!["beds_loc".to_string()]);
        // Tombstoned slots stay free, the last one included.
        let rows: Vec<(usize, Row)> = restored.scan().map(|(s, r)| (s, r.clone())).collect();
        let orig: Vec<(usize, Row)> = t.scan().map(|(s, r)| (s, r.clone())).collect();
        assert_eq!(rows, orig);
        // Every index answers as the original's does.
        for key in [Datum::Int(1), Datum::Int(2), Datum::Int(3)] {
            assert_eq!(restored.index_lookup(0, &key), t.index_lookup(0, &key));
        }
        let a = Datum::Text("a".into());
        assert_eq!(restored.index_lookup(1, &a), t.index_lookup(1, &a));
        let all = |t: &Table| t.index_range(0, Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all(&restored), all(&t));
    }

    #[test]
    fn a_table_whose_row_count_outruns_its_bytes_is_corrupt() {
        let t = Table::new(TableSchema::new(
            "beds",
            vec![Column::new("id", DataType::Int)],
        ));
        let mut e = Enc::new();
        enc_table(&mut e, &t);
        // Claim a billion rows in a record of a few dozen bytes.
        let at = e.0.len() - 8;
        e.0[at..at + 4].copy_from_slice(&1_000_000_000u32.to_le_bytes());
        assert!(matches!(
            dec_table(&mut Dec::new(&e.0)),
            Err(RelError::Corrupt(_))
        ));
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
