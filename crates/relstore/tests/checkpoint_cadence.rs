//! When a durable database checkpoints.
//!
//! By default a checkpoint is owed once at least 32 commits have passed
//! since the last one and the WAL written since then is as long as the
//! snapshot that checkpoint wrote. A small database therefore folds its
//! log every 32 commits, and a large one once per snapshot's worth of
//! log. `set_checkpoint_every(n)` pins the cadence to exactly `n`
//! commits. Everything runs on a [`SimVfs`] and counts checkpoints
//! through `storage_stats().checkpoints`.

use std::sync::Arc;
use webfindit_relstore::file_mgr::{SimVfs, Vfs};
use webfindit_relstore::recovery::{encode_snapshot, WAL_FILE};
use webfindit_relstore::{Column, DataType, Database, Datum, Dialect, Row, TableSchema};

/// Rows in the table that is too large to checkpoint every 32 commits.
const LARGE_ROWS: i64 = 2_000;

fn open(vfs: &Arc<SimVfs>) -> Database {
    Database::open_vfs(
        Arc::clone(vfs) as Arc<dyn Vfs>,
        "Cadence",
        Dialect::Canonical,
    )
    .unwrap()
}

fn checkpoints(db: &Database) -> u64 {
    db.storage_stats().unwrap().checkpoints
}

fn wal_len(vfs: &Arc<SimVfs>) -> u64 {
    vfs.len(WAL_FILE).unwrap()
}

fn count(db: &mut Database) -> i64 {
    match &db
        .execute("SELECT COUNT(*) FROM ledger")
        .unwrap()
        .rows()
        .unwrap()
        .rows[0][0]
    {
        Datum::Int(n) => *n,
        other => panic!("{other:?}"),
    }
}

fn insert(db: &mut Database, id: i64) {
    db.execute(&format!(
        "INSERT INTO ledger VALUES ({id}, 'opened at the front desk')"
    ))
    .unwrap();
}

/// A durable database holding `LARGE_ROWS` ledger rows, just
/// checkpointed, and the length of the snapshot that checkpoint wrote.
fn large_db(vfs: &Arc<SimVfs>) -> (Database, u64) {
    let mut db = open(vfs);
    let schema = TableSchema::new(
        "ledger",
        vec![
            Column::new("id", DataType::Int).primary_key(),
            Column::new("memo", DataType::Text),
        ],
    );
    let rows: Vec<Row> = (0..LARGE_ROWS)
        .map(|id| {
            vec![
                Datum::Int(id),
                Datum::Text(format!("account {id} carried over")),
            ]
        })
        .collect();
    db.import_table(schema, rows).unwrap();
    db.checkpoint().unwrap();
    assert_eq!(wal_len(vfs), 0, "a checkpoint empties the WAL");
    let snapshot_len = encode_snapshot(db.tables(), 0).len() as u64;
    (db, snapshot_len)
}

/// Autocommit INSERTs into a just-checkpointed [`large_db`] up to the
/// first commit after which a checkpoint is owed; returns the ids
/// acknowledged and checks the rule on the way.
fn insert_until_owed(db: &mut Database, vfs: &Arc<SimVfs>, snapshot_len: u64) -> Vec<i64> {
    let before = checkpoints(db);
    let mut acked = Vec::new();
    while !db.owes_checkpoint() {
        let id = LARGE_ROWS + acked.len() as i64;
        insert(db, id);
        acked.push(id);
        let wal = wal_len(vfs);
        assert_eq!(checkpoints(db), before, "no checkpoint before one is owed");
        assert_eq!(
            db.owes_checkpoint(),
            acked.len() >= 32 && wal >= snapshot_len,
            "after {} commits the WAL holds {wal} of {snapshot_len} snapshot bytes",
            acked.len()
        );
    }
    acked
}

#[test]
fn a_small_table_checkpoints_every_32_commits() {
    let vfs = SimVfs::new();
    let mut db = open(&vfs);
    db.execute("CREATE TABLE beds (id INT PRIMARY KEY, ward TEXT)")
        .unwrap();
    db.execute("INSERT INTO beds VALUES (1, 'ward A'), (2, 'ward B'), (3, 'ward C')")
        .unwrap();
    // Two commits so far: the CREATE and the INSERT.
    let mut at = Vec::new();
    for commits in 2u32..202 {
        let before = checkpoints(&db);
        assert_eq!(
            db.owes_checkpoint(),
            commits.is_multiple_of(32),
            "commit {commits}"
        );
        db.execute(&format!(
            "UPDATE beds SET ward = 'ward {commits}' WHERE id = {}",
            commits % 3 + 1
        ))
        .unwrap();
        if checkpoints(&db) != before {
            at.push(commits);
        }
    }
    assert_eq!(
        at,
        vec![32, 64, 96, 128, 160, 192],
        "the statement after every 32nd commit checkpoints first"
    );
}

#[test]
fn a_large_table_checkpoints_once_its_wal_is_as_long_as_its_snapshot() {
    let vfs = SimVfs::new();
    let (mut db, snapshot_len) = large_db(&vfs);
    let before = checkpoints(&db);
    // Commit 32 owes nothing: its WAL is far shorter than the snapshot.
    let acked = insert_until_owed(&mut db, &vfs, snapshot_len).len();
    assert!(
        acked > 32 * 4,
        "{acked} commits before the first owed checkpoint"
    );

    // The owed checkpoint is the next statement's prefix, a SELECT's too.
    assert_eq!(count(&mut db), LARGE_ROWS + acked as i64);
    assert_eq!(checkpoints(&db), before + 1);
    assert_eq!(wal_len(&vfs), 0, "the checkpoint compacted the WAL");
    assert!(!db.owes_checkpoint());
}

#[test]
fn a_pinned_cadence_ignores_the_snapshot_size() {
    let vfs = SimVfs::new();
    let (mut db, _) = large_db(&vfs);
    db.set_checkpoint_every(4);
    let start = checkpoints(&db);
    for i in 0..40 {
        assert_eq!(db.owes_checkpoint(), i > 0 && i % 4 == 0, "commit {i}");
        insert(&mut db, LARGE_ROWS + i);
        assert_eq!(checkpoints(&db), start + i as u64 / 4);
    }
}

/// Crash as the WAL reaches the snapshot's length, by `crash`, then lose
/// power: recovery brings back every acknowledged row by replaying the
/// commits since the last checkpoint.
fn crash_at_the_owed_checkpoint(crash: impl FnOnce(&mut Database), seed: u64) {
    let vfs = SimVfs::new();
    let (mut db, snapshot_len) = large_db(&vfs);
    let acked = insert_until_owed(&mut db, &vfs, snapshot_len);
    let wal = wal_len(&vfs);
    assert!(
        wal >= snapshot_len && wal < snapshot_len + snapshot_len / 10,
        "WAL {wal} is about the snapshot's {snapshot_len} bytes"
    );
    let redo_before = db.storage_stats().unwrap().recovery_redo;
    crash(&mut db);
    assert!(db.is_crashed());
    vfs.power_loss(seed);
    db.reopen().unwrap();
    let redo = db.storage_stats().unwrap().recovery_redo - redo_before;
    assert_eq!(
        redo,
        acked.len() as u64,
        "REDO replays one insert per commit since the checkpoint"
    );
    assert_eq!(count(&mut db), LARGE_ROWS + acked.len() as i64);
    let last = acked.last().unwrap();
    let found = db
        .execute(&format!("SELECT memo FROM ledger WHERE id = {last}"))
        .unwrap();
    assert_eq!(found.rows().unwrap().rows.len(), 1, "the last acked row");
}

#[test]
fn a_crash_just_before_the_owed_checkpoint_keeps_every_acked_row() {
    crash_at_the_owed_checkpoint(
        |db| {
            db.simulate_crash();
        },
        1999,
    );
}

#[test]
fn a_crash_inside_the_owed_checkpoint_keeps_every_acked_row() {
    crash_at_the_owed_checkpoint(
        |db| {
            db.arm_crash_point(webfindit_relstore::CrashPoint::MidPageFlush, 2);
            assert!(db.execute("SELECT COUNT(*) FROM ledger").is_err());
        },
        2026,
    );
}
