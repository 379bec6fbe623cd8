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
use webfindit_base::rng::StdRng;
use webfindit_base::sync::detect;
use webfindit_connect::manager::standard_manager;
use webfindit_connect::DataSourceRegistry;
use webfindit_oostore::method::MethodTable;
use webfindit_oostore::{ClassDef, OType, OValue, ObjectStore, Oid, OqlQuery};
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

const OBJECT_WRITES: u64 = 1_500;
const OQL_READERS: usize = 3;
const OQL_READS_PER_READER: usize = 300;

fn define_urgent(store: &mut ObjectStore) {
    store
        .define_class(ClassDef::root("Urgent").extends("Visit"))
        .unwrap();
}

/// One `Visit` or `Urgent` object numbered `seq`.
fn visit(store: &mut ObjectStore, urgent: bool, seq: i64) -> Oid {
    let attrs = [
        ("seq".to_string(), OValue::Int(seq)),
        ("ward".to_string(), OValue::Text(format!("w{}", seq % 7))),
        ("cost".to_string(), OValue::Double((seq % 97) as f64 / 4.0)),
    ];
    let class = if urgent { "Urgent" } else { "Visit" };
    store.create(class, attrs).unwrap()
}

/// Readers run OQL range queries on an object site under its shared
/// guard, so they build its attribute indexes beside one another, while
/// a writer creates, updates and deletes objects under the exclusive
/// guard and now and then drops and redefines the subclass, whose
/// indexes the next readers build again. Under each guard, a reader's
/// range query, which reads an index, and the same query with an `OR`
/// no index can serve, which scans the extent, return the same rows.
#[test]
fn oql_index_build_stress_on_an_object_site() {
    let (done, finished) = mpsc::channel();
    let body = thread::spawn(move || {
        let mut store = ObjectStore::new("Archive");
        store
            .define_class(
                ClassDef::root("Visit")
                    .attr("seq", OType::Int)
                    .attr("ward", OType::Text)
                    .attr("cost", OType::Double),
            )
            .unwrap();
        define_urgent(&mut store);
        let mut live: Vec<(Oid, bool)> = (0..500)
            .map(|seq| (visit(&mut store, seq % 5 == 0, seq), seq % 5 == 0))
            .collect();
        let registry = DataSourceRegistry::new();
        let site = registry.register_object("objectstore", "Archive", store, MethodTable::new());

        let start = Arc::new(Barrier::new(OQL_READERS + 1));
        let readers: Vec<_> = (0..OQL_READERS)
            .map(|r| {
                let (site, start) = (Arc::clone(&site), Arc::clone(&start));
                thread::spawn(move || {
                    start.wait();
                    let mut rng = StdRng::seed_from_u64(r as u64);
                    for _ in 0..OQL_READS_PER_READER {
                        let lo = rng.gen_range(0i64..2_000);
                        let range = match rng.gen_range(0..3) {
                            0 => format!("seq >= {lo} and seq < {}", lo + 150),
                            1 => format!("cost > {} and cost <= {}", lo % 20, lo % 20 + 3),
                            _ => format!("ward in ('w{}', 'w{}')", lo % 7, lo % 3),
                        };
                        let class = if lo % 4 == 0 { "Urgent" } else { "Visit" };
                        let indexed = format!("select seq, cost from {class} where {range}");
                        let scanned = format!("{indexed} or ward = 'nowhere'");
                        let guard = site.read();
                        let run = |text: &str, leaf: &str| {
                            let q = OqlQuery::parse(text).unwrap();
                            let (rows, m) = q.execute_with_metrics(&guard.store).unwrap();
                            assert_eq!(m.operators[0], leaf, "{text}");
                            rows.rows
                        };
                        assert_eq!(run(&indexed, "index scan"), run(&scanned, "extent scan"));
                    }
                })
            })
            .collect();
        start.wait();
        let mut rng = StdRng::seed_from_u64(99);
        let mut next_seq = 500;
        for i in 0..OBJECT_WRITES {
            let mut guard = site.lock();
            let store = &mut guard.store;
            match i % 10 {
                0..=4 => {
                    let urgent = rng.gen_bool(0.3);
                    live.push((visit(store, urgent, next_seq), urgent));
                    next_seq += 1;
                }
                5..=7 if !live.is_empty() => {
                    let (oid, _) = live[rng.gen_range(0..live.len())];
                    let attr = ["seq", "cost", "ward"][rng.gen_range(0usize..3)];
                    let value = match attr {
                        "seq" => OValue::Int(rng.gen_range(0i64..2_000)),
                        "cost" => OValue::Double(rng.gen_range(0i64..100) as f64 / 4.0),
                        _ => OValue::Text(format!("w{}", rng.gen_range(0..7))),
                    };
                    store.set_attr(oid, attr, value).unwrap();
                }
                8 if !live.is_empty() => {
                    let (oid, _) = live.swap_remove(rng.gen_range(0..live.len()));
                    store.delete(oid).unwrap();
                }
                _ if i % 100 == 9 => {
                    store.drop_class("Urgent").unwrap();
                    live.retain(|(_, urgent)| !urgent);
                    define_urgent(store);
                }
                _ => {}
            }
        }
        for r in readers {
            r.join().unwrap();
        }
        done.send(()).unwrap();
    });
    match finished.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => body.join().unwrap(),
        // The body panicked: join to report its message.
        Err(RecvTimeoutError::Disconnected) => body.join().unwrap(),
        Err(RecvTimeoutError::Timeout) => panic!("OQL index-build stress hung for 60 s"),
    }
    let violations = detect::take_violations();
    assert!(violations.is_empty(), "detector reports: {violations:#?}");
}
