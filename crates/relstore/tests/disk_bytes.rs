//! The durable tier's on-disk bytes, pinned.
//!
//! A fixed schedule runs on a [`SimVfs`] with a checkpoint every four
//! commits: DDL, autocommit INSERT/UPDATE/DELETE, an explicit
//! transaction that commits, one that rolls back, and a reopen. The
//! test then hashes each file the tier writes. A refactor of the WAL,
//! the snapshot writer or transaction-id bookkeeping that changes one
//! byte on disk fails here, even when every behavioural test still
//! passes.

use std::sync::Arc;
use webfindit_relstore::file_mgr::{fnv1a64, SimVfs, Vfs};
use webfindit_relstore::{Database, Dialect};

/// FNV-1a digest of each file the durable tier writes, after the
/// schedule below.
const EXPECTED: [(&str, u64); 5] = [
    ("wal", 0xd5ad_fb8b_39e3_3294),
    ("meta.0", 0xad72_4972_326f_703e),
    ("meta.1", 0x6a70_33a1_da5d_fd7c),
    ("snap.0", 0x1edf_119b_e712_ad14),
    ("snap.1", 0xf9a1_b180_90e0_10d8),
];

fn run_schedule(vfs: &Arc<SimVfs>) {
    let mut db =
        Database::open_vfs(Arc::clone(vfs) as Arc<dyn Vfs>, "Bytes", Dialect::Canonical).unwrap();
    db.set_checkpoint_every(4);
    // DDL.
    db.execute("CREATE TABLE ward (id INT PRIMARY KEY, name TEXT NOT NULL, beds INT)")
        .unwrap();
    db.execute("CREATE INDEX ward_name ON ward (name)").unwrap();
    // Autocommit DML; the first insert spans several snapshot pages.
    let rows: Vec<String> = (0..300)
        .map(|i| format!("({i}, 'ward number {i} of the north wing', {})", i % 17))
        .collect();
    db.execute(&format!("INSERT INTO ward VALUES {}", rows.join(", ")))
        .unwrap();
    db.execute("UPDATE ward SET beds = beds + 1 WHERE id < 40")
        .unwrap();
    db.execute("DELETE FROM ward WHERE id >= 250").unwrap();
    for i in 300..306 {
        db.execute(&format!("INSERT INTO ward VALUES ({i}, 'annex {i}', 2)"))
            .unwrap();
    }
    // An explicit transaction that commits.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO ward VALUES (400, 'day surgery', 9)")
        .unwrap();
    db.execute("UPDATE ward SET name = 'renamed' WHERE id = 3")
        .unwrap();
    db.execute("DELETE FROM ward WHERE id = 4").unwrap();
    db.execute("COMMIT").unwrap();
    // One that rolls back.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO ward VALUES (401, 'never', 1)")
        .unwrap();
    db.execute("DELETE FROM ward WHERE id < 100").unwrap();
    db.execute("ROLLBACK").unwrap();
    // A last autocommit write rides in the WAL past the final
    // checkpoint, then the instance reopens through recovery.
    db.execute("INSERT INTO ward VALUES (402, 'overflow', 3)")
        .unwrap();
    db.reopen().unwrap();
    db.execute("UPDATE ward SET beds = 0 WHERE id = 402")
        .unwrap();
}

fn file_digest(vfs: &Arc<SimVfs>, file: &str) -> u64 {
    let len = vfs.len(file).unwrap() as usize;
    let mut buf = vec![0u8; len];
    assert_eq!(vfs.read_at(file, 0, &mut buf).unwrap(), len, "{file}");
    fnv1a64(&buf)
}

#[test]
fn schedule_writes_the_pinned_bytes() {
    let vfs = SimVfs::new();
    run_schedule(&vfs);
    let got: Vec<(&str, u64)> = EXPECTED
        .iter()
        .map(|&(file, _)| (file, file_digest(&vfs, file)))
        .collect();
    assert_eq!(got, EXPECTED, "on-disk bytes moved");
}
