//! Recovery manager: checkpoint snapshots, meta slots, and the
//! ARIES-style open-time replay.
//!
//! On-"disk" layout of a durable database (all files live on one
//! [`Vfs`]):
//!
//! ```text
//! meta.0 / meta.1   two alternating superblock slots; the valid slot
//!                   with the highest epoch wins. Points at the active
//!                   snapshot generation and the WAL watermark.
//! snap.0 / snap.1   double-buffered checkpoint snapshots, stored as
//!                   checksummed pages written by [`write_snapshot`].
//!                   A checkpoint always writes the INACTIVE generation
//!                   and then flips meta, so the active snapshot is
//!                   never overwritten in place.
//! wal               the write-ahead log (see [`crate::wal`]).
//! ```
//!
//! [`recover`] repeats history: load the active snapshot (a
//! transaction-consistent image — checkpoints only run at commit
//! boundaries), REDO every WAL record past the watermark in log order,
//! then UNDO the loser transactions (no commit record) in reverse. A
//! torn WAL tail is detected by frame checksum and truncated; a torn
//! last page of a snapshot is detected by page checksum and recovery
//! falls back to the other meta slot rather than panicking.

use crate::file_mgr::{fnv1a64, PageFileMgr, Vfs, PAGE_CAPACITY};
use crate::storage::Table;
use crate::wal::{dec_table, enc_table, Change, Dec, Enc, LogMgr, WalRecord};
use crate::{RelError, RelResult};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The WAL file name on a database Vfs.
pub const WAL_FILE: &str = "wal";

/// Meta slot file name for slot 0/1.
pub fn meta_file(slot: u8) -> String {
    format!("meta.{}", slot & 1)
}

/// Snapshot file name for generation 0/1.
pub fn snap_file(gen: u8) -> String {
    format!("snap.{}", gen & 1)
}

const META_MAGIC: u32 = 0x5746_4d31; // "WFM1"

/// The superblock: which snapshot is live and where WAL replay starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meta {
    /// Monotonic write counter; the higher of the two slots is current.
    pub epoch: u64,
    /// Active snapshot generation (0 or 1).
    pub active_gen: u8,
    /// WAL byte offset the active snapshot already reflects.
    pub watermark: u64,
    /// Next transaction id to hand out.
    pub next_tx: u64,
}

impl Meta {
    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(META_MAGIC);
        e.u64(self.epoch);
        e.u8(self.active_gen);
        e.u64(self.watermark);
        e.u64(self.next_tx);
        let mut framed = Enc::new();
        framed.u32(e.0.len() as u32);
        framed.u64(fnv1a64(&e.0));
        framed.0.extend_from_slice(&e.0);
        framed.0
    }

    fn decode(buf: &[u8]) -> Option<Meta> {
        let mut d = Dec::new(buf);
        let len = d.u32().ok()? as usize;
        let sum = d.u64().ok()?;
        if buf.len() < 12 + len {
            return None;
        }
        let payload = &buf[12..12 + len];
        if fnv1a64(payload) != sum {
            return None;
        }
        let mut p = Dec::new(payload);
        if p.u32().ok()? != META_MAGIC {
            return None;
        }
        Some(Meta {
            epoch: p.u64().ok()?,
            active_gen: p.u8().ok()? & 1,
            watermark: p.u64().ok()?,
            next_tx: p.u64().ok()?,
        })
    }
}

/// Write `meta` into slot `epoch % 2` and sync it. Alternating slots
/// mean a crash mid-write can only corrupt the slot being replaced,
/// never the currently valid one.
pub fn write_meta(vfs: &Arc<dyn Vfs>, meta: &Meta) -> RelResult<()> {
    let file = meta_file((meta.epoch % 2) as u8);
    let bytes = meta.encode();
    vfs.truncate(&file, 0)?;
    vfs.write_at(&file, 0, &bytes)?;
    vfs.sync(&file)?;
    Ok(())
}

fn read_meta_slot(vfs: &Arc<dyn Vfs>, slot: u8) -> Option<Meta> {
    let file = meta_file(slot);
    let len = vfs.len(&file).ok()?;
    if len == 0 || len > 4096 {
        return None;
    }
    let mut buf = vec![0u8; len as usize];
    let n = vfs.read_at(&file, 0, &mut buf).ok()?;
    buf.truncate(n);
    Meta::decode(&buf)
}

/// Both decodable meta slots, best (highest epoch) first.
pub fn read_metas(vfs: &Arc<dyn Vfs>) -> Vec<Meta> {
    let mut metas: Vec<Meta> = [0u8, 1]
        .iter()
        .filter_map(|&s| read_meta_slot(vfs, s))
        .collect();
    metas.sort_by_key(|m| std::cmp::Reverse(m.epoch));
    metas
}

// ---- snapshots ----------------------------------------------------------

/// Serialize the full table catalog + heaps into one byte stream:
/// `[u64 body length][u32 table count][table images...]`. The rows are
/// encoded straight from each heap into one buffer of `capacity` bytes
/// (the last snapshot's length is a good guess), and the body length is
/// patched in at the end.
pub fn encode_snapshot(tables: &HashMap<String, Table>, capacity: usize) -> Vec<u8> {
    let mut out = Enc(Vec::with_capacity(capacity));
    out.u64(0);
    let mut names: Vec<&String> = tables.keys().collect();
    names.sort();
    out.u32(names.len() as u32);
    for name in names {
        out.str(name);
        enc_table(&mut out, &tables[name]);
    }
    let body_len = (out.0.len() - 8) as u64;
    out.0[..8].copy_from_slice(&body_len.to_le_bytes());
    out.0
}

fn decode_snapshot(bytes: &[u8]) -> RelResult<HashMap<String, Table>> {
    let mut d = Dec::new(bytes);
    let n = d.u32()? as usize;
    if n > 1 << 16 {
        return Err(RelError::Corrupt(format!("absurd table count {n}")));
    }
    let mut tables = HashMap::with_capacity(n);
    for _ in 0..n {
        let name = d.str()?;
        tables.insert(name, dec_table(&mut d)?);
    }
    Ok(tables)
}

/// Write `stream` as checksummed pages of `mgr`'s file, invoking
/// `between_pages` after each page write (the mid-page-flush crash
/// point, and where the caller counts pages), then sync. The file is
/// cleared first so stale pages from a previous, larger snapshot
/// cannot trail the new one.
pub fn write_snapshot(
    mgr: &PageFileMgr,
    stream: &[u8],
    mut between_pages: impl FnMut() -> RelResult<()>,
) -> RelResult<()> {
    mgr.clear()?;
    let chunks: Vec<&[u8]> = if stream.is_empty() {
        vec![&[]]
    } else {
        stream.chunks(PAGE_CAPACITY).collect()
    };
    for (no, chunk) in chunks.iter().enumerate() {
        mgr.write_page(no as u64, chunk)?;
        between_pages()?;
    }
    mgr.sync()
}

/// Read page `no` of a snapshot; a missing or checksum-failing page is
/// [`RelError::Corrupt`].
fn snapshot_page(mgr: &PageFileMgr, no: u64) -> RelResult<Vec<u8>> {
    mgr.read_page(no)?.ok_or_else(|| {
        RelError::Corrupt(format!(
            "page {no} of {} is missing or fails its checksum",
            mgr.file()
        ))
    })
}

/// Load a snapshot previously written by [`write_snapshot`], reading
/// its pages in order. Errors with [`RelError::Corrupt`] on a missing
/// or checksum-failing page.
pub fn load_snapshot(mgr: &PageFileMgr) -> RelResult<HashMap<String, Table>> {
    let mut bytes = snapshot_page(mgr, 0)?;
    if bytes.len() < 8 {
        return Err(RelError::Corrupt("snapshot header short".into()));
    }
    let body_len = u64::from_le_bytes(bytes[0..8].try_into().expect("8")) as usize;
    let total = body_len + 8;
    let mut no = 1u64;
    while bytes.len() < total {
        bytes.extend_from_slice(&snapshot_page(mgr, no)?);
        no += 1;
    }
    decode_snapshot(&bytes[8..total])
}

// ---- recovery -----------------------------------------------------------

/// What one [`recover`] pass did (folded into storage stats).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Op records re-applied during REDO.
    pub redo: u64,
    /// Op records reversed during UNDO (loser transactions).
    pub undo: u64,
    /// 1 when a torn WAL tail was truncated.
    pub torn_tail_truncations: u64,
    /// 1 when the active snapshot was unreadable and recovery fell
    /// back to the older meta slot (or an empty state).
    pub snapshot_fallbacks: u64,
}

/// The state [`recover`] hands back to the engine.
#[derive(Debug)]
pub struct Recovered {
    /// The reconstructed table catalog.
    pub tables: HashMap<String, Table>,
    /// First unused transaction id.
    pub next_tx: u64,
    /// WAL tail after torn-tail truncation (the next LSN).
    pub wal_tail: u64,
    /// Epoch of the meta slot recovery trusted (0 when none).
    pub epoch: u64,
    /// Active snapshot generation recovery trusted.
    pub active_gen: u8,
    /// Replay counters.
    pub stats: RecoveryStats,
}

/// REDO one change (repeat history). Defensive against impossible
/// states: a redo onto unexpected state applies the after-image rather
/// than panicking.
fn redo(tables: &mut HashMap<String, Table>, change: &Change) {
    match change {
        Change::Insert { table, slot, row } => {
            if let Some(t) = tables.get_mut(table) {
                t.delete_slot(*slot);
                t.force_restore(*slot, row.clone());
            }
        }
        Change::Delete { table, slot, .. } => {
            if let Some(t) = tables.get_mut(table) {
                t.delete_slot(*slot);
            }
        }
        Change::Update {
            table, slot, new, ..
        } => {
            if let Some(t) = tables.get_mut(table) {
                t.delete_slot(*slot);
                t.force_restore(*slot, new.clone());
            }
        }
        Change::CreateTable { schema } => {
            tables
                .entry(schema.name.clone())
                .or_insert_with(|| Table::new(schema.clone()));
        }
        Change::DropTable { table } => {
            tables.remove(&table.schema.name);
        }
        Change::CreateIndex {
            table,
            name,
            column,
        } => {
            if let Some(t) = tables.get_mut(table) {
                let _ = t.create_index(name, *column);
            }
        }
    }
}

/// UNDO one change: ROLLBACK undoes an open transaction's changes
/// through here newest first, and recovery a loser's records in
/// reverse log order. An update puts the old row back in place, as
/// [`Table::update_slot`] does, so a secondary index keeps the slot
/// where it was unless the indexed column changed. A change to a
/// missing table is passed over, and an update whose slot is empty
/// has its old row restored there.
pub(crate) fn undo(tables: &mut HashMap<String, Table>, change: Change) {
    match change {
        Change::Insert { table, slot, .. } => {
            if let Some(t) = tables.get_mut(&table) {
                t.delete_slot(slot);
            }
        }
        Change::Delete { table, slot, row } => {
            if let Some(t) = tables.get_mut(&table) {
                t.force_restore(slot, row);
            }
        }
        Change::Update {
            table, slot, old, ..
        } => {
            if let Some(t) = tables.get_mut(&table) {
                if t.row(slot).is_some() {
                    // The old row held its key until this change.
                    let _ = t.update_slot(slot, old);
                } else {
                    t.force_restore(slot, old);
                }
            }
        }
        Change::CreateTable { schema } => {
            tables.remove(&schema.name);
        }
        Change::DropTable { table } => {
            tables.insert(table.schema.name.clone(), *table);
        }
        Change::CreateIndex { table, name, .. } => {
            if let Some(t) = tables.get_mut(&table) {
                t.drop_index(&name);
            }
        }
    }
}

/// Recover the database on `vfs` to its last committed state.
///
/// The WAL is truncated past its last valid record as a side effect
/// (so a reopened log manager can append immediately).
pub fn recover(vfs: &Arc<dyn Vfs>) -> RelResult<Recovered> {
    let mut stats = RecoveryStats::default();

    // 1. Superblock: best meta slot first; each candidate names a
    // snapshot generation and watermark. The empty-state candidate
    // (replay the whole log) is the final fallback.
    let mut candidates: Vec<(Option<Meta>, u8, u64)> = read_metas(vfs)
        .into_iter()
        .map(|m| (Some(m), m.active_gen, m.watermark))
        .collect();
    candidates.push((None, 0, 0));

    let mut chosen: Option<(Option<Meta>, HashMap<String, Table>, u64)> = None;
    for (meta, gen, watermark) in candidates.iter() {
        let tables = if meta.is_some() {
            match load_snapshot(&PageFileMgr::new(Arc::clone(vfs), snap_file(*gen))) {
                Ok(t) => t,
                Err(_) => {
                    stats.snapshot_fallbacks += 1;
                    continue;
                }
            }
        } else {
            HashMap::new()
        };
        chosen = Some((*meta, tables, *watermark));
        break;
    }
    let (meta, mut tables, watermark) = chosen.expect("empty-state candidate always loads");

    // 2. WAL scan from the watermark; truncate a torn tail.
    let wal_len = vfs.len(WAL_FILE)?;
    let start = watermark.min(wal_len);
    let scan = LogMgr::scan(vfs, WAL_FILE, start)?;
    if scan.torn_tail {
        stats.torn_tail_truncations += 1;
        let mut log = LogMgr::new(Arc::clone(vfs), WAL_FILE, scan.valid_end);
        log.truncate_to(scan.valid_end)?;
    }

    // 3. Analysis: winners have a commit record.
    let mut committed: HashSet<u64> = HashSet::new();
    let mut max_tx = 0u64;
    for (_, rec) in &scan.records {
        max_tx = max_tx.max(rec.tx());
        if let WalRecord::Commit { tx } = rec {
            committed.insert(*tx);
        }
    }

    // 4. REDO: repeat history in log order.
    for (_, rec) in &scan.records {
        if let WalRecord::Op { change, .. } = rec {
            redo(&mut tables, change);
            stats.redo += 1;
        }
    }

    // 5. UNDO losers in reverse log order. The engine keeps an open
    // transaction's changes in memory and appends them only at COMMIT,
    // so the only losers that can exist are a torn tail batch (crash
    // between the batch append and the commit fsync) — never followed
    // by a committed record, which is what makes this physical
    // slot-level undo sound.
    for (_, rec) in scan.records.into_iter().rev() {
        if let WalRecord::Op { tx, change } = rec {
            if !committed.contains(&tx) {
                undo(&mut tables, change.into_owned());
                stats.undo += 1;
            }
        }
    }

    let next_tx = meta.map(|m| m.next_tx).unwrap_or(1).max(max_tx + 1).max(1);
    Ok(Recovered {
        tables,
        next_tx,
        wal_tail: scan.valid_end,
        epoch: meta.map(|m| m.epoch).unwrap_or(0),
        active_gen: meta.map(|m| m.active_gen).unwrap_or(0),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file_mgr::SimVfs;
    use crate::schema::{Column, TableSchema};
    use crate::types::{DataType, Datum};
    use std::borrow::Cow;

    fn dyn_vfs() -> (Arc<SimVfs>, Arc<dyn Vfs>) {
        let v = SimVfs::new();
        let d = Arc::clone(&v) as Arc<dyn Vfs>;
        (v, d)
    }

    fn beds_table(rows: i64) -> Table {
        let mut t = Table::new(TableSchema::new(
            "beds",
            vec![
                Column::new("id", DataType::Int).primary_key(),
                Column::new("loc", DataType::Text),
            ],
        ));
        for i in 0..rows {
            t.insert(vec![Datum::Int(i), Datum::Text(format!("w{i}"))])
                .unwrap();
        }
        t
    }

    #[test]
    fn meta_slots_alternate_and_highest_epoch_wins() {
        let (_v, vfs) = dyn_vfs();
        let m1 = Meta {
            epoch: 1,
            active_gen: 0,
            watermark: 0,
            next_tx: 1,
        };
        let m2 = Meta {
            epoch: 2,
            active_gen: 1,
            watermark: 99,
            next_tx: 7,
        };
        write_meta(&vfs, &m1).unwrap();
        write_meta(&vfs, &m2).unwrap();
        let metas = read_metas(&vfs);
        assert_eq!(metas, vec![m2, m1]);
        // Corrupting the newest slot falls back to the older.
        vfs.write_at(&meta_file(0), 15, &[0xba, 0xad]).unwrap();
        vfs.sync(&meta_file(0)).unwrap();
        assert_eq!(read_metas(&vfs), vec![m1]);
    }

    #[test]
    fn snapshot_roundtrips_through_pages() {
        let (_v, vfs) = dyn_vfs();
        let mut tables = HashMap::new();
        tables.insert("beds".to_string(), beds_table(500));
        let stream = encode_snapshot(&tables, 0);
        assert!(stream.len() > PAGE_CAPACITY, "multi-page snapshot");
        let mgr = PageFileMgr::new(Arc::clone(&vfs), snap_file(0));
        let mut pages = 0;
        write_snapshot(&mgr, &stream, || {
            pages += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(pages, stream.len().div_ceil(PAGE_CAPACITY));

        let loaded = load_snapshot(&PageFileMgr::new(Arc::clone(&vfs), snap_file(0))).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded["beds"].len(), 500);
        assert_eq!(
            loaded["beds"].row(123).unwrap()[1],
            Datum::Text("w123".into())
        );
    }

    #[test]
    fn recover_from_nothing_is_empty() {
        let (_v, vfs) = dyn_vfs();
        let r = recover(&vfs).unwrap();
        assert!(r.tables.is_empty());
        assert_eq!(r.next_tx, 1);
        assert_eq!(r.wal_tail, 0);
    }

    #[test]
    fn committed_survive_and_losers_roll_back() {
        let (_v, vfs) = dyn_vfs();
        let schema = TableSchema::new(
            "beds",
            vec![
                Column::new("id", DataType::Int).primary_key(),
                Column::new("loc", DataType::Text),
            ],
        );
        let mut log = LogMgr::new(Arc::clone(&vfs), WAL_FILE, 0);
        // tx1 commits: create table + one insert. tx2 loses: one
        // insert + one update of tx1's row + one delete of its own.
        let op = |tx, change| WalRecord::Op {
            tx,
            change: Cow::Owned(change),
        };
        for rec in [
            WalRecord::Begin { tx: 1 },
            op(
                1,
                Change::CreateTable {
                    schema: schema.clone(),
                },
            ),
            op(
                1,
                Change::Insert {
                    table: "beds".into(),
                    slot: 0,
                    row: vec![Datum::Int(1), Datum::Text("a".into())],
                },
            ),
            WalRecord::Commit { tx: 1 },
            WalRecord::Begin { tx: 2 },
            op(
                2,
                Change::Insert {
                    table: "beds".into(),
                    slot: 1,
                    row: vec![Datum::Int(2), Datum::Text("b".into())],
                },
            ),
            op(
                2,
                Change::Update {
                    table: "beds".into(),
                    slot: 0,
                    old: vec![Datum::Int(1), Datum::Text("a".into())],
                    new: vec![Datum::Int(1), Datum::Text("hijacked".into())],
                },
            ),
        ] {
            log.append(&rec).unwrap();
        }
        log.flush().unwrap();

        let r = recover(&vfs).unwrap();
        let beds = &r.tables["beds"];
        assert_eq!(beds.len(), 1, "loser insert rolled back");
        assert_eq!(
            beds.row(0).unwrap(),
            &vec![Datum::Int(1), Datum::Text("a".into())],
            "loser update reversed to the committed image"
        );
        assert!(r.stats.redo >= 4);
        assert!(r.stats.undo >= 2);
        assert_eq!(r.next_tx, 3);
    }

    #[test]
    fn torn_wal_tail_is_truncated_not_fatal() {
        let (_v, vfs) = dyn_vfs();
        let mut log = LogMgr::new(Arc::clone(&vfs), WAL_FILE, 0);
        log.append(&WalRecord::Begin { tx: 1 }).unwrap();
        log.append(&WalRecord::Commit { tx: 1 }).unwrap();
        let good = log.tail();
        log.append(&WalRecord::Begin { tx: 2 }).unwrap();
        log.flush().unwrap();
        let full = vfs.len(WAL_FILE).unwrap();
        vfs.truncate(WAL_FILE, full - 5).unwrap();
        vfs.sync(WAL_FILE).unwrap();

        let r = recover(&vfs).unwrap();
        assert_eq!(r.stats.torn_tail_truncations, 1);
        assert_eq!(r.wal_tail, good);
        assert_eq!(vfs.len(WAL_FILE).unwrap(), good, "tail physically dropped");
        assert_eq!(r.next_tx, 2);
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_older_meta() {
        let (sim, vfs) = dyn_vfs();
        // Gen 0 snapshot with 3 rows (older), gen 1 with 5 (newer).
        for (gen, rows, epoch) in [(0u8, 3i64, 1u64), (1, 5, 2)] {
            let mut tables = HashMap::new();
            tables.insert("beds".to_string(), beds_table(rows));
            let mgr = PageFileMgr::new(Arc::clone(&vfs), snap_file(gen));
            write_snapshot(&mgr, &encode_snapshot(&tables, 0), || Ok(())).unwrap();
            write_meta(
                &vfs,
                &Meta {
                    epoch,
                    active_gen: gen,
                    watermark: 0,
                    next_tx: 10,
                },
            )
            .unwrap();
        }
        // Intact: newest meta wins.
        let r = recover(&vfs).unwrap();
        assert_eq!(r.tables["beds"].len(), 5);
        assert_eq!(r.stats.snapshot_fallbacks, 0);
        // Corrupt gen 1's pages: recovery falls back to gen 0.
        sim.corrupt(&snap_file(1), 30, &[0xde, 0xad]);
        let r = recover(&vfs).unwrap();
        assert_eq!(r.tables["beds"].len(), 3);
        assert_eq!(r.stats.snapshot_fallbacks, 1);
    }
}
