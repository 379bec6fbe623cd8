//! Page-granular file management: the virtual file system and the
//! checksummed page file manager.
//!
//! Durable state lives in named byte files behind the [`Vfs`] trait so
//! the same storage stack runs against the real disk ([`DiskVfs`]) and
//! against the crash-point harness's power-loss simulator ([`SimVfs`]).
//! [`PageFileMgr`] reads and writes fixed-size pages whose header
//! carries an FNV-1a checksum of the payload — a torn or partial page
//! write is detected on read instead of surfacing as garbage rows.

use crate::{RelError, RelResult};
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::Arc;
use webfindit_base::rng::StdRng;
use webfindit_base::sync::{detect, Mutex};

/// Fixed page size of every data file.
pub const PAGE_SIZE: usize = 4096;

/// Page header: 8-byte FNV-1a checksum + 4-byte payload length.
const PAGE_HDR: usize = 12;

/// Usable payload bytes per page.
pub const PAGE_CAPACITY: usize = PAGE_SIZE - PAGE_HDR;

/// FNV-1a 64-bit hash — the same dependency-free digest the chaos
/// transcripts use, reused here as the page and WAL record checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A named-file byte store: the only interface the storage stack uses
/// to touch durable bytes.
///
/// Writes become durable only at [`Vfs::sync`]; a power loss may keep
/// any prefix of the unsynced writes (and may tear the last one). The
/// disk implementation maps `sync` to `fsync`; the simulator models
/// the loss explicitly.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Read up to `buf.len()` bytes at `offset`, returning how many
    /// were available.
    fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> RelResult<usize>;
    /// Write `data` at `offset`, extending the file as needed.
    fn write_at(&self, file: &str, offset: u64, data: &[u8]) -> RelResult<()>;
    /// Current length of `file` (0 when it does not exist).
    fn len(&self, file: &str) -> RelResult<u64>;
    /// Make every prior write to `file` durable.
    fn sync(&self, file: &str) -> RelResult<()>;
    /// Truncate `file` to `len` bytes.
    fn truncate(&self, file: &str, len: u64) -> RelResult<()>;
}

fn io_err(op: &str, file: &str, e: std::io::Error) -> RelError {
    RelError::Storage(format!("{op} {file}: {e}"))
}

/// The real-disk VFS: every named file is a file under one directory.
#[derive(Debug)]
pub struct DiskVfs {
    dir: PathBuf,
    // One cached handle per file; the guard is held across single
    // read/write/fsync calls only, serializing I/O per VFS.
    handles: Mutex<HashMap<String, File>>,
}

impl DiskVfs {
    /// Open (creating if needed) a disk VFS rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> RelResult<DiskVfs> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| io_err("create_dir", &dir.display().to_string(), e))?;
        Ok(DiskVfs {
            dir,
            handles: Mutex::new_labeled(HashMap::new(), "relstore.diskvfs.handles")
                .allow_hold_across_blocking(
                    "per-file handle cache serializes page and WAL I/O; held for one syscall",
                ),
        })
    }

    fn ensure_open<'a>(
        &self,
        handles: &'a mut HashMap<String, File>,
        file: &str,
    ) -> RelResult<&'a mut File> {
        if !handles.contains_key(file) {
            let path = self.dir.join(file);
            let h = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)
                .map_err(|e| io_err("open", file, e))?;
            handles.insert(file.to_owned(), h);
        }
        Ok(handles.get_mut(file).expect("handle just inserted"))
    }

    fn with_file<R>(
        &self,
        file: &str,
        f: impl FnOnce(&mut File) -> std::io::Result<R>,
    ) -> RelResult<R> {
        let mut handles = self.handles.lock();
        let h = self.ensure_open(&mut handles, file)?;
        f(h).map_err(|e| io_err("io", file, e))
    }
}

impl Vfs for DiskVfs {
    fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> RelResult<usize> {
        self.with_file(file, |h| {
            h.seek(SeekFrom::Start(offset))?;
            let mut read = 0;
            while read < buf.len() {
                let n = h.read(&mut buf[read..])?;
                if n == 0 {
                    break;
                }
                read += n;
            }
            Ok(read)
        })
    }

    fn write_at(&self, file: &str, offset: u64, data: &[u8]) -> RelResult<()> {
        self.with_file(file, |h| {
            h.seek(SeekFrom::Start(offset))?;
            h.write_all(data)
        })
    }

    fn len(&self, file: &str) -> RelResult<u64> {
        match std::fs::metadata(self.dir.join(file)) {
            Ok(m) => Ok(m.len()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(io_err("metadata", file, e)),
        }
    }

    fn sync(&self, file: &str) -> RelResult<()> {
        // fsync can block for as long as the device needs, and the
        // handle-cache guard is deliberately held across it: the cache
        // serializes all I/O on a file, so a concurrent write may not
        // reorder past the flush. Both detectors know: the lock carries
        // allow_hold_across_blocking, the static hold is in xlint.toml,
        // and blocking_region makes the runtime detector check every
        // *other* tracked lock a caller might be holding here.
        let mut handles = self.handles.lock();
        let h = self.ensure_open(&mut handles, file)?;
        detect::blocking_region("relstore.diskvfs.fsync", || h.sync_all())
            .map_err(|e| io_err("sync", file, e))
    }

    fn truncate(&self, file: &str, len: u64) -> RelResult<()> {
        self.with_file(file, |h| h.set_len(len))
    }
}

/// One pending (unsynced) mutation in the simulated VFS.
#[derive(Debug, Clone)]
enum PendingOp {
    Write { offset: u64, data: Vec<u8> },
    Truncate { len: u64 },
}

#[derive(Debug, Default, Clone)]
struct SimFile {
    /// Bytes as of the last sync — what a power loss is guaranteed to keep.
    durable: Vec<u8>,
    /// Bytes as the process currently sees them (all writes applied).
    current: Vec<u8>,
    /// Mutations since the last sync, in order, for partial-loss replay.
    pending: Vec<PendingOp>,
}

fn apply_op(bytes: &mut Vec<u8>, op: &PendingOp) {
    match op {
        PendingOp::Write { offset, data } => {
            let end = *offset as usize + data.len();
            if bytes.len() < end {
                bytes.resize(end, 0);
            }
            bytes[*offset as usize..end].copy_from_slice(data);
        }
        PendingOp::Truncate { len } => {
            let len = *len as usize;
            if bytes.len() > len {
                bytes.truncate(len);
            } else {
                bytes.resize(len, 0);
            }
        }
    }
}

/// The crash-harness VFS: an in-memory byte store with an explicit
/// power-loss model.
///
/// Writes land in `current` immediately but only reach `durable` at
/// [`Vfs::sync`]. [`SimVfs::power_loss`] replays a seeded-random
/// prefix of the unsynced mutations onto the durable image — possibly
/// tearing the last surviving write in half — which is exactly the
/// contract a real disk gives a crashing process. Recovery must cope
/// with every prefix.
#[derive(Debug, Default)]
pub struct SimVfs {
    files: Mutex<HashMap<String, SimFile>>,
}

impl SimVfs {
    /// Create an empty simulated VFS.
    pub fn new() -> Arc<SimVfs> {
        Arc::new(SimVfs {
            files: Mutex::new_labeled(HashMap::new(), "relstore.simvfs.files"),
        })
    }

    /// Simulate a power loss: for every file, keep a seeded-random
    /// prefix of the unsynced mutations (the last kept write may be
    /// torn mid-way), discard the rest, and make the survivors the new
    /// durable image.
    pub fn power_loss(&self, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut files = self.files.lock();
        let mut names: Vec<String> = files.keys().cloned().collect();
        names.sort();
        for name in names {
            let f = files.get_mut(&name).expect("file listed");
            if !f.pending.is_empty() {
                let keep = rng.gen_range(0..=f.pending.len());
                let mut bytes = std::mem::take(&mut f.durable);
                for (i, op) in f.pending.iter().take(keep).enumerate() {
                    let last_kept = i + 1 == keep && keep < f.pending.len();
                    match op {
                        PendingOp::Write { offset, data }
                            if last_kept && data.len() > 1 && rng.gen_bool(0.5) =>
                        {
                            // Torn write: only a prefix of the final
                            // surviving write reached the platter.
                            let cut = rng.gen_range(1..data.len());
                            apply_op(
                                &mut bytes,
                                &PendingOp::Write {
                                    offset: *offset,
                                    data: data[..cut].to_vec(),
                                },
                            );
                        }
                        op => apply_op(&mut bytes, op),
                    }
                }
                f.durable = bytes;
            }
            f.current = f.durable.clone();
            f.pending.clear();
        }
    }

    /// Total unsynced mutations across all files (test observability).
    pub fn pending_ops(&self) -> usize {
        self.files.lock().values().map(|f| f.pending.len()).sum()
    }

    /// Overwrite raw durable bytes of `file` (test corruption helper).
    pub fn corrupt(&self, file: &str, offset: usize, bytes: &[u8]) {
        let mut files = self.files.lock();
        let f = files.entry(file.to_owned()).or_default();
        apply_op(
            &mut f.durable,
            &PendingOp::Write {
                offset: offset as u64,
                data: bytes.to_vec(),
            },
        );
        f.current = f.durable.clone();
        f.pending.clear();
    }
}

impl Vfs for SimVfs {
    fn read_at(&self, file: &str, offset: u64, buf: &mut [u8]) -> RelResult<usize> {
        let files = self.files.lock();
        let Some(f) = files.get(file) else {
            return Ok(0);
        };
        let start = (offset as usize).min(f.current.len());
        let n = buf.len().min(f.current.len() - start);
        buf[..n].copy_from_slice(&f.current[start..start + n]);
        Ok(n)
    }

    fn write_at(&self, file: &str, offset: u64, data: &[u8]) -> RelResult<()> {
        let mut files = self.files.lock();
        let f = files.entry(file.to_owned()).or_default();
        let op = PendingOp::Write {
            offset,
            data: data.to_vec(),
        };
        apply_op(&mut f.current, &op);
        f.pending.push(op);
        Ok(())
    }

    fn len(&self, file: &str) -> RelResult<u64> {
        Ok(self
            .files
            .lock()
            .get(file)
            .map(|f| f.current.len() as u64)
            .unwrap_or(0))
    }

    fn sync(&self, file: &str) -> RelResult<()> {
        let mut files = self.files.lock();
        if let Some(f) = files.get_mut(file) {
            // `current` is `durable` with `pending` applied, so replaying
            // the pending ops costs what was written since the last sync,
            // not the whole file (a WAL grows to a snapshot's length).
            for op in f.pending.drain(..) {
                apply_op(&mut f.durable, &op);
            }
        }
        Ok(())
    }

    fn truncate(&self, file: &str, len: u64) -> RelResult<()> {
        let mut files = self.files.lock();
        let f = files.entry(file.to_owned()).or_default();
        let op = PendingOp::Truncate { len };
        apply_op(&mut f.current, &op);
        f.pending.push(op);
        Ok(())
    }
}

/// Checksummed fixed-size page I/O over one VFS file.
#[derive(Debug, Clone)]
pub struct PageFileMgr {
    vfs: Arc<dyn Vfs>,
    file: String,
}

impl PageFileMgr {
    /// Manage `file` on `vfs` as an array of [`PAGE_SIZE`] pages.
    pub fn new(vfs: Arc<dyn Vfs>, file: impl Into<String>) -> PageFileMgr {
        PageFileMgr {
            vfs,
            file: file.into(),
        }
    }

    /// The managed file name.
    pub fn file(&self) -> &str {
        &self.file
    }

    /// Read page `no`, verifying its checksum. `Ok(None)` means the
    /// page is absent, short, or torn — corruption the caller can
    /// recover from, as opposed to an I/O error.
    pub fn read_page(&self, no: u64) -> RelResult<Option<Vec<u8>>> {
        let mut raw = vec![0u8; PAGE_SIZE];
        let n = self
            .vfs
            .read_at(&self.file, no * PAGE_SIZE as u64, &mut raw)?;
        if n < PAGE_HDR {
            return Ok(None);
        }
        let sum = u64::from_le_bytes(raw[0..8].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(raw[8..12].try_into().expect("4 bytes")) as usize;
        if len > PAGE_CAPACITY || PAGE_HDR + len > n {
            return Ok(None);
        }
        let payload = &raw[PAGE_HDR..PAGE_HDR + len];
        if fnv1a64(payload) != sum {
            return Ok(None);
        }
        Ok(Some(payload.to_vec()))
    }

    /// Write `payload` (≤ [`PAGE_CAPACITY`] bytes) as page `no` with a
    /// fresh checksum header. Durable only after [`PageFileMgr::sync`].
    pub fn write_page(&self, no: u64, payload: &[u8]) -> RelResult<()> {
        if payload.len() > PAGE_CAPACITY {
            return Err(RelError::Storage(format!(
                "page payload {} exceeds capacity {}",
                payload.len(),
                PAGE_CAPACITY
            )));
        }
        let mut raw = vec![0u8; PAGE_SIZE];
        raw[0..8].copy_from_slice(&fnv1a64(payload).to_le_bytes());
        raw[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        raw[PAGE_HDR..PAGE_HDR + payload.len()].copy_from_slice(payload);
        self.vfs.write_at(&self.file, no * PAGE_SIZE as u64, &raw)
    }

    /// Make every written page durable.
    pub fn sync(&self) -> RelResult<()> {
        self.vfs.sync(&self.file)
    }

    /// Drop all pages (start the file over).
    pub fn clear(&self) -> RelResult<()> {
        self.vfs.truncate(&self.file, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_roundtrip_and_corruption_detection() {
        let vfs = SimVfs::new();
        let mgr = PageFileMgr::new(vfs.clone() as Arc<dyn Vfs>, "snap.0");
        mgr.write_page(0, b"hello pages").unwrap();
        mgr.write_page(1, &[7u8; PAGE_CAPACITY]).unwrap();
        mgr.sync().unwrap();
        assert_eq!(mgr.read_page(0).unwrap().unwrap(), b"hello pages");
        assert_eq!(mgr.read_page(1).unwrap().unwrap().len(), PAGE_CAPACITY);
        assert!(mgr.read_page(2).unwrap().is_none());
        // Flip a payload byte: checksum must catch it.
        vfs.corrupt("snap.0", PAGE_SIZE + 100, &[0xff]);
        assert!(mgr.read_page(1).unwrap().is_none());
        assert!(mgr.read_page(0).unwrap().is_some());
    }

    #[test]
    fn oversized_payload_rejected() {
        let mgr = PageFileMgr::new(SimVfs::new() as Arc<dyn Vfs>, "f");
        assert!(matches!(
            mgr.write_page(0, &vec![0u8; PAGE_CAPACITY + 1]),
            Err(RelError::Storage(_))
        ));
    }

    #[test]
    fn sim_power_loss_drops_unsynced_suffix() {
        let vfs = SimVfs::new();
        vfs.write_at("wal", 0, b"aaaa").unwrap();
        vfs.sync("wal").unwrap();
        vfs.write_at("wal", 4, b"bbbb").unwrap();
        vfs.write_at("wal", 8, b"cccc").unwrap();
        assert_eq!(vfs.pending_ops(), 2);
        vfs.power_loss(0); // keep nothing, everything, or a torn prefix
        let kept = vfs.len("wal").unwrap();
        assert!((4..=12).contains(&kept), "kept {kept}");
        let mut buf = vec![0u8; 4];
        vfs.read_at("wal", 0, &mut buf).unwrap();
        assert_eq!(&buf, b"aaaa", "synced bytes always survive");
        assert_eq!(vfs.pending_ops(), 0);
    }

    #[test]
    fn sim_sync_makes_every_pending_op_durable() {
        let vfs = SimVfs::new();
        vfs.write_at("f", 0, b"abcdefgh").unwrap();
        vfs.sync("f").unwrap();
        vfs.write_at("f", 2, b"XY").unwrap();
        vfs.truncate("f", 6).unwrap();
        vfs.write_at("f", 8, b"zz").unwrap();
        vfs.truncate("f", 12).unwrap();
        vfs.sync("f").unwrap();
        vfs.power_loss(3);
        let mut buf = vec![0u8; 16];
        let n = vfs.read_at("f", 0, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"abXYef\0\0zz\0\0");
    }

    #[test]
    fn sim_power_loss_is_seeded_and_deterministic() {
        let observe = |seed: u64| {
            let vfs = SimVfs::new();
            for i in 0..8u64 {
                vfs.write_at("f", i * 4, &[i as u8; 4]).unwrap();
            }
            vfs.power_loss(seed);
            let mut buf = vec![0u8; 32];
            let n = vfs.read_at("f", 0, &mut buf).unwrap();
            buf.truncate(n);
            buf
        };
        assert_eq!(observe(7), observe(7));
        // Across many seeds, both extremes occur.
        let lens: Vec<usize> = (0..32).map(|s| observe(s).len()).collect();
        assert!(lens.contains(&0), "some loss drops everything");
        assert!(lens.contains(&32), "some loss keeps everything");
    }

    #[test]
    fn disk_vfs_roundtrip() {
        let dir = std::env::temp_dir().join(format!("wf_diskvfs_{}", std::process::id()));
        let vfs = DiskVfs::new(&dir).unwrap();
        vfs.write_at("meta", 0, b"0123456789").unwrap();
        vfs.sync("meta").unwrap();
        assert_eq!(vfs.len("meta").unwrap(), 10);
        let mut buf = vec![0u8; 4];
        assert_eq!(vfs.read_at("meta", 2, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"2345");
        vfs.truncate("meta", 3).unwrap();
        assert_eq!(vfs.len("meta").unwrap(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
