//! Multi-statement isolation tests for the engine's one-transaction-
//! at-a-time rule under concurrent connection load.
//!
//! Two contracts are pinned here:
//!
//! * **No-wait admission.** The engine admits one open transaction at
//!   a time; a second connection's `BEGIN` is rejected immediately
//!   (never blocked, never deadlocked).
//! * **Atomic interleaving.** Connections that retry around the
//!   rejection commit exactly their own multi-statement work: after a
//!   concurrent run the table holds every committed row and nothing
//!   from rolled-back transactions.

use std::sync::{Arc, Mutex};
use webfindit_relstore::file_mgr::{SimVfs, Vfs};
use webfindit_relstore::{Database, Datum, Dialect, RelError};

fn durable_db() -> Database {
    let vfs = SimVfs::new();
    let mut db = Database::new("iso", Dialect::Canonical);
    db.execute("CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance INT)")
        .unwrap();
    db.execute("INSERT INTO accounts VALUES (1, 'alice', 100), (2, 'bob', 100)")
        .unwrap();
    db.make_durable(vfs as Arc<dyn Vfs>).unwrap();
    db
}

fn count(db: &mut Database) -> i64 {
    match &db
        .execute("SELECT COUNT(*) c FROM accounts")
        .unwrap()
        .rows()
        .unwrap()
        .rows[0][0]
    {
        Datum::Int(n) => *n,
        other => panic!("{other:?}"),
    }
}

#[test]
fn second_begin_is_rejected_no_wait() {
    let mut db = durable_db();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO accounts VALUES (3, 'carol', 50)")
        .unwrap();
    // A second connection's BEGIN arrives while the transaction is
    // open: immediate rejection, no blocking.
    let err = db.execute("BEGIN").unwrap_err();
    assert!(
        matches!(err, RelError::TransactionState(_)),
        "no-wait rejection, got {err:?}"
    );
    // The open transaction is unharmed by the rejected intruder.
    db.execute("UPDATE accounts SET balance = balance - 50 WHERE id = 1")
        .unwrap();
    db.execute("COMMIT").unwrap();
    assert_eq!(count(&mut db), 3);
}

#[test]
fn rollback_undoes_the_whole_multi_statement_transaction() {
    let mut db = durable_db();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO accounts VALUES (3, 'carol', 50)")
        .unwrap();
    db.execute("UPDATE accounts SET balance = 0 WHERE id = 2")
        .unwrap();
    db.execute("DELETE FROM accounts WHERE id = 1").unwrap();
    db.execute("ROLLBACK").unwrap();
    assert_eq!(count(&mut db), 2, "insert undone");
    let rs = db
        .execute("SELECT balance FROM accounts WHERE id = 2")
        .unwrap()
        .rows()
        .unwrap()
        .rows
        .clone();
    assert_eq!(rs, vec![vec![Datum::Int(100)]], "update undone");
}

#[test]
fn concurrent_connections_commit_exactly_their_own_work() {
    // Two connections share the engine the way the connect layer's
    // bridges do (a mutex per statement, not per transaction), each
    // running multi-statement transactions with retry on the no-wait
    // rejection. Every acknowledged commit must be in the final state;
    // every rolled-back transaction must not.
    let db = Arc::new(Mutex::new(durable_db()));
    let per_thread = 20;
    let mut handles = Vec::new();
    for t in 0..2i64 {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            let mut committed = 0i64;
            let mut rejected = 0u32;
            for i in 0..per_thread {
                let id = 100 + t * per_thread + i;
                loop {
                    let mut guard = db.lock().unwrap();
                    match guard.execute("BEGIN") {
                        Ok(_) => {}
                        Err(RelError::TransactionState(_)) => {
                            rejected += 1;
                            drop(guard);
                            std::thread::yield_now();
                            continue;
                        }
                        Err(e) => panic!("{e}"),
                    }
                    guard
                        .execute(&format!("INSERT INTO accounts VALUES ({id}, 't{t}', {i})"))
                        .unwrap();
                    if i % 5 == 4 {
                        // Every fifth transaction changes its mind.
                        guard.execute("ROLLBACK").unwrap();
                    } else {
                        guard
                            .execute(&format!(
                                "UPDATE accounts SET balance = balance + 1 WHERE id = {id}"
                            ))
                            .unwrap();
                        guard.execute("COMMIT").unwrap();
                        committed += 1;
                    }
                    break;
                }
            }
            (committed, rejected)
        }));
    }
    let mut committed = 0i64;
    for h in handles {
        committed += h.join().unwrap().0;
    }
    let mut guard = db.lock().unwrap();
    assert_eq!(committed, 2 * 16, "4 of every 20 roll back");
    assert_eq!(count(&mut guard), 2 + committed);
    // Committed work survives a crash; nothing else reappears.
    assert!(guard.simulate_crash());
    guard.reopen().unwrap();
    assert_eq!(count(&mut guard), 2 + committed, "recovery agrees");
}
