//! A site serves its readers at once: a SELECT through the ISI takes the
//! instance's shared guard, while DML, DDL, transaction control and owed
//! checkpoints take it alone.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;
use webfindit::orb::servant::Servant;
use webfindit::servants::IsiServant;
use webfindit::value_map::read_result_set;
use webfindit::wire::{ByteOrder, CdrReader, CdrWriter, Value};
use webfindit_base::sync::detect;
use webfindit_connect::manager::standard_manager;
use webfindit_connect::DataSourceRegistry;
use webfindit_relstore::file_mgr::{SimVfs, Vfs};
use webfindit_relstore::{Database, Datum, Dialect};

const URL: &str = "jdbc:oracle://dba.icis.qut.edu.au/RBH";

/// A deadline for a call that should return at once; reaching it means
/// the call is waiting for a guard it should not need.
const PROMPT: Duration = Duration::from_secs(10);

fn beds(db: &mut Database) {
    db.execute("CREATE TABLE beds (bed_id INT PRIMARY KEY, location TEXT)")
        .unwrap();
    db.execute("INSERT INTO beds VALUES (1, 'ward A'), (2, 'ward B')")
        .unwrap();
}

fn count(isi: &IsiServant) -> i64 {
    let mut out = CdrWriter::new(ByteOrder::BigEndian);
    isi.invoke_into(
        "execute",
        &[Value::string("SELECT COUNT(*) FROM beds")],
        &mut out,
    )
    .unwrap();
    let bytes = out.into_bytes();
    let mut r = CdrReader::new(&bytes, ByteOrder::BigEndian);
    match read_result_set(&mut r).unwrap().rows[0][0] {
        Datum::Int(n) => n,
        ref other => panic!("COUNT(*) returned {other:?}"),
    }
}

fn insert(isi: &IsiServant, id: u64) {
    let sql = format!("INSERT INTO beds VALUES ({id}, 'ward')");
    isi.invoke("execute", &[Value::string(sql)]).unwrap();
}

/// A SELECT runs beside a reader that holds the site, and an INSERT
/// waits for that reader to let go.
#[test]
fn a_select_shares_the_site_with_a_reader_and_an_insert_waits_for_it() {
    let registry = DataSourceRegistry::new();
    let mut db = Database::new("RBH", Dialect::Oracle);
    beds(&mut db);
    let site = registry.register_relational("oracle", "RBH", db);
    let isi = Arc::new(IsiServant::new(Arc::new(standard_manager(registry)), URL));

    let reader = site.read();
    let (tx, rx) = mpsc::channel();
    let select = {
        let (isi, tx) = (Arc::clone(&isi), tx.clone());
        thread::spawn(move || tx.send(count(&isi)).unwrap())
    };
    assert_eq!(
        rx.recv_timeout(PROMPT),
        Ok(2),
        "a SELECT must not wait for another reader"
    );
    select.join().unwrap();

    let write = {
        let isi = Arc::clone(&isi);
        thread::spawn(move || {
            insert(&isi, 3);
            tx.send(0).unwrap();
        })
    };
    // The writer cannot finish while the guard is held, however long
    // this waits; the wait only gives a wrong implementation the time
    // to show itself.
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(200)),
        Err(RecvTimeoutError::Timeout),
        "an INSERT must wait for the reader"
    );
    drop(reader);
    assert_eq!(rx.recv_timeout(PROMPT), Ok(0));
    write.join().unwrap();
    assert_eq!(count(&isi), 3);
}

const WRITES: u64 = 500;
const READS_PER_READER: usize = 750;

/// Two readers and an autocommit writer on a durable site that owes a
/// checkpoint every four commits. Every count a reader sees lies
/// between the inserts acknowledged before its SELECT and the inserts
/// issued by the time it returned; the writer finishes; and a SELECT
/// that finds a checkpoint owed takes it under the exclusive guard.
#[test]
fn shared_read_stress_on_a_durable_site() {
    let (done, finished) = mpsc::channel();
    let body = thread::spawn(move || {
        let registry = DataSourceRegistry::new();
        let vfs = SimVfs::new();
        let mut db = Database::open_vfs(vfs as Arc<dyn Vfs>, "RBH", Dialect::Oracle).unwrap();
        db.set_checkpoint_every(4);
        // CREATE TABLE and the INSERT are two commits since the open.
        beds(&mut db);
        registry.register_relational("oracle", "RBH", db);
        let manager = Arc::new(standard_manager(registry));
        let reads = Arc::new(IsiServant::new(Arc::clone(&manager), URL));
        let writes = IsiServant::new(manager, URL);
        // Two more commits: the next statement owes a checkpoint.
        insert(&writes, 3);
        insert(&writes, 4);
        let base = 4;

        let acked = Arc::new(AtomicU64::new(0));
        let issued = Arc::new(AtomicU64::new(0));
        // Both readers run a SELECT before the writer starts, so the
        // owed checkpoint falls to a SELECT.
        let start = Arc::new(Barrier::new(3));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (reads, acked, issued, start) = (
                    Arc::clone(&reads),
                    Arc::clone(&acked),
                    Arc::clone(&issued),
                    Arc::clone(&start),
                );
                thread::spawn(move || {
                    for i in 0..READS_PER_READER {
                        let lo = base + acked.load(Ordering::SeqCst) as i64;
                        let n = count(&reads);
                        let hi = base + issued.load(Ordering::SeqCst) as i64;
                        assert!(lo <= n && n <= hi, "count {n} outside [{lo}, {hi}]");
                        if i == 0 {
                            start.wait();
                        }
                    }
                })
            })
            .collect();
        start.wait();
        for i in 0..WRITES {
            issued.fetch_add(1, Ordering::SeqCst);
            insert(&writes, 100 + i);
            acked.fetch_add(1, Ordering::SeqCst);
        }
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(count(&reads), base + WRITES as i64);
        assert!(
            reads.metrics().snapshot().pages_flushed > 0,
            "no SELECT took an owed checkpoint"
        );
        done.send(()).unwrap();
    });
    match finished.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => body.join().unwrap(),
        // The body panicked: join to report its message.
        Err(RecvTimeoutError::Disconnected) => body.join().unwrap(),
        Err(RecvTimeoutError::Timeout) => panic!("shared-read stress hung for 60 s"),
    }
    let violations = detect::take_violations();
    assert!(violations.is_empty(), "detector reports: {violations:#?}");
}
