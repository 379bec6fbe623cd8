//! Crash-point recovery property suite — the durable tier's proof.
//!
//! Each case builds a durable database on a [`SimVfs`], runs a seeded
//! random workload (auto-commit statements and explicit `BEGIN` /
//! `COMMIT` / `ROLLBACK` transactions over inserts, updates, deletes,
//! index creation, and table drop/recreate) with a seeded crash point
//! armed (after-WAL-append, mid-page-flush, or pre-commit-record).
//! When the crash fires — or at a seeded point if it never does — the
//! VFS simulates power loss (unsynced writes survive only as a random,
//! possibly torn prefix) and the database reopens through recovery.
//!
//! **Property:** post-recovery state equals replaying exactly the
//! *acknowledged-committed* statement prefix on a fresh in-memory
//! database (the reference-model pattern of the planner suite's naive
//! executor, applied to durability). Committed transactions
//! survive; uncommitted and unacknowledged ones vanish entirely.

use std::collections::BTreeMap;
use std::sync::Arc;
use webfindit_base::prop::{cases, cases_from, pick};
use webfindit_base::rng::StdRng;
use webfindit_relstore::file_mgr::{SimVfs, Vfs};
use webfindit_relstore::{CrashPoint, Database, Dialect, RelError};

const SETUP: [&str; 4] = [
    "CREATE TABLE t1 (id INT PRIMARY KEY, v INT, w TEXT)",
    "CREATE TABLE t2 (id INT PRIMARY KEY, fk INT)",
    "INSERT INTO t1 VALUES (0, 0, 'seed'), (1, 1, 'seed'), (2, 2, 'seed')",
    "INSERT INTO t2 VALUES (0, 0), (1, 1)",
];

/// One random workload statement. Primary keys are never updated so
/// that statement outcomes cannot depend on heap slot order (which
/// legitimately differs between the recovered and reference runs).
fn gen_stmt(rng: &mut StdRng) -> String {
    let id = rng.gen_range(0..24i64);
    let v = rng.gen_range(0..10i64);
    match rng.gen_range(0..20u32) {
        0..=4 => format!("INSERT INTO t1 VALUES ({id}, {v}, 'w{v}')"),
        5 => format!(
            "INSERT INTO t1 VALUES ({id}, {v}, 'a'), ({}, {v}, 'b')",
            id + 24
        ),
        6..=8 => format!("UPDATE t1 SET v = v + 1 WHERE id < {id}"),
        9 => format!("UPDATE t1 SET w = 'u{v}' WHERE v = {v}"),
        10..=11 => format!("DELETE FROM t1 WHERE id = {id}"),
        12 => format!("DELETE FROM t1 WHERE v > {}", v + 5),
        13..=14 => format!("INSERT INTO t2 VALUES ({id}, {v})"),
        15 => format!("UPDATE t2 SET fk = {v} WHERE id < {id}"),
        16 => format!("DELETE FROM t2 WHERE fk = {v}"),
        17 => "CREATE INDEX t1_v ON t1 (v)".to_string(),
        18 => "DROP TABLE t2".to_string(),
        _ => "CREATE TABLE t2 (id INT PRIMARY KEY, fk INT)".to_string(),
    }
}

/// Content fingerprint: per table, the sorted row multiset plus the
/// sorted secondary-index names. Heap slot ids are deliberately
/// excluded — they are physical layout, not logical state.
fn state_of(db: &Database) -> BTreeMap<String, (Vec<String>, Vec<String>)> {
    db.tables()
        .iter()
        .map(|(name, t)| {
            let mut rows: Vec<String> = t.scan().map(|(_, r)| format!("{r:?}")).collect();
            rows.sort();
            let mut idx = t.index_names();
            idx.sort();
            (name.clone(), (rows, idx))
        })
        .collect()
}

fn is_unavailable(e: &RelError) -> bool {
    matches!(e, RelError::Unavailable(_))
}

/// Run one seeded workload×crash-point schedule and check the
/// committed-prefix property.
fn run_schedule(rng: &mut StdRng) {
    let vfs = SimVfs::new();
    let mut db =
        Database::open_vfs(Arc::clone(&vfs) as Arc<dyn Vfs>, "prop", Dialect::Canonical).unwrap();
    db.set_checkpoint_every(rng.gen_range(1..8usize) as u32);

    let mut committed: Vec<String> = Vec::new();
    for s in SETUP {
        db.execute(s).unwrap();
        committed.push(s.to_string());
    }

    let point = *pick(
        rng,
        &[
            CrashPoint::AfterWalAppend,
            CrashPoint::MidPageFlush,
            CrashPoint::PreCommitRecord,
        ],
    );
    db.arm_crash_point(point, rng.gen_range(1..20usize) as u64);

    let steps = rng.gen_range(8..36usize);
    let mut crashed = false;
    'workload: for _ in 0..steps {
        if rng.gen_bool(0.35) {
            // Explicit transaction.
            match db.execute("BEGIN") {
                Ok(_) => {}
                Err(e) if is_unavailable(&e) => {
                    crashed = true;
                    break;
                }
                Err(_) => continue,
            }
            let mut pending: Vec<String> = Vec::new();
            for _ in 0..rng.gen_range(1..6usize) {
                let s = gen_stmt(rng);
                match db.execute(&s) {
                    Ok(_) => pending.push(s),
                    Err(e) if is_unavailable(&e) => {
                        crashed = true;
                        break 'workload;
                    }
                    Err(_) => {} // SQL error: statement had no effect
                }
            }
            if rng.gen_bool(0.7) {
                match db.execute("COMMIT") {
                    // The ack invariant: COMMIT returned Ok ⟺ the
                    // commit record is durable.
                    Ok(_) => committed.extend(pending),
                    Err(e) if is_unavailable(&e) => {
                        crashed = true;
                        break;
                    }
                    Err(e) => panic!("unexpected COMMIT error: {e}"),
                }
            } else {
                match db.execute("ROLLBACK") {
                    Err(e) if is_unavailable(&e) => {
                        crashed = true;
                        break;
                    }
                    _ => {}
                }
            }
        } else {
            let s = gen_stmt(rng);
            match db.execute(&s) {
                Ok(_) => committed.push(s),
                Err(e) if is_unavailable(&e) => {
                    crashed = true;
                    break;
                }
                Err(_) => {}
            }
        }
    }

    if !crashed {
        // The armed point never fired; crash at a seeded boundary,
        // sometimes with a transaction still in flight.
        if rng.gen_bool(0.5) && db.execute("BEGIN").is_ok() {
            let _ = db.execute(&gen_stmt(rng));
        }
        assert!(db.simulate_crash());
    }
    assert!(db.is_crashed());

    // Power loss: unsynced writes survive only as a seeded prefix,
    // the last one possibly torn.
    vfs.power_loss(rng.next_u64());
    db.reopen().expect("recovery must not fail");

    // Reference model: the committed prefix replayed on a fresh
    // in-memory database.
    let mut reference = Database::new("ref", Dialect::Canonical);
    for s in &committed {
        reference
            .execute(s)
            .unwrap_or_else(|e| panic!("committed statement must replay: {s}: {e}"));
    }
    assert_eq!(
        state_of(&db),
        state_of(&reference),
        "post-recovery state diverged from committed-prefix replay \
         (crash point {point})"
    );

    // The recovered database is live again.
    db.execute("INSERT INTO t1 VALUES (9999, 0, 'post-recovery')")
        .unwrap();
    db.execute("SELECT COUNT(*) FROM t1").unwrap();
}

#[test]
fn committed_prefix_replay_equivalence() {
    cases(64, run_schedule);
}

// The CI durability job pins these two seed bands; together with the
// main sweep the suite covers 80 workload×crash-point schedules.

#[test]
fn fixed_seed_band_1999() {
    cases_from(1999, 8, run_schedule);
}

#[test]
fn fixed_seed_band_2026() {
    cases_from(2026, 8, run_schedule);
}

/// Double recovery (crash during the post-crash session) still
/// converges to the committed prefix.
#[test]
fn recovery_is_stable_under_repeated_crashes() {
    cases(12, |rng| {
        let vfs = SimVfs::new();
        let mut db =
            Database::open_vfs(Arc::clone(&vfs) as Arc<dyn Vfs>, "p", Dialect::Canonical).unwrap();
        let mut committed = Vec::new();
        for s in SETUP {
            db.execute(s).unwrap();
            committed.push(s.to_string());
        }
        for round in 0..3 {
            for _ in 0..rng.gen_range(2..8usize) {
                let s = gen_stmt(rng);
                if db.execute(&s).is_ok() {
                    committed.push(s);
                }
            }
            // Leave a loser in flight every other round.
            if round % 2 == 0 && db.execute("BEGIN").is_ok() {
                let _ = db.execute(&gen_stmt(rng));
            }
            db.simulate_crash();
            vfs.power_loss(rng.next_u64());
            db.reopen().unwrap();
        }
        let mut reference = Database::new("ref", Dialect::Canonical);
        for s in &committed {
            reference.execute(s).unwrap();
        }
        assert_eq!(state_of(&db), state_of(&reference));
    });
}
