//! Which requests a site answers on the reactor thread that read them.
//!
//! An ISI `execute` whose statement is a primary-key point probe, and a
//! co-database `probe` or `members`, run on the reactor
//! (`Servant::invoke_now`) and are counted in the serving ORB's
//! `requests inline`; every other request goes to the dispatch pool,
//! and so does one of those that would have to wait: one that finds
//! its site's or co-database's exclusive guard held, or a stall gate
//! set. Against a live federation:
//!
//! * **Classification** — a point read, a `probe` and a `members` count
//!   as inline; a `BETWEEN` range, a join, `GROUP BY`, an INSERT, an OQL
//!   query, the co-database's writes (`advertise`, `withdraw`,
//!   `create_coalition`) and its other reads (`find_links`, `subclasses`,
//!   `descriptor`), and an echo `ping` do not.
//! * **A held guard** — the point read or probe waits on a worker, and
//!   the reactor keeps answering another connection.
//! * **A stall gate** — the point read or probe is held as long as the
//!   gate says, on a worker.
//! * **Byte equality** — 200 seeded point probes (absent keys, NULL,
//!   literals of other types, a DATE on a TEXT key, a crashed site), and
//!   200 seeded `probe`s and `members` (known and unknown topics; a
//!   current, stale and absent stamp; an unknown coalition) answer
//!   inline exactly what `Servant::invoke_into` writes, and a deferred
//!   one has written nothing.
//! * **A long statement** — 200 000 conjuncts, which the reactor parses
//!   to see whether they are a point read, get their reply on the
//!   inline path and on the pool path; a 200 000-term `+` chain gets
//!   the typed too-deep exception. The server then answers a point read.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use webfindit::federation::SiteVendor;
use webfindit::isi;
use webfindit::orb::servant::{echo, EchoServant, Servant};
use webfindit::orb::{CallOptions, Operation, Orb, OrbConfig, OrbError};
use webfindit::servants::CoDatabaseServant;
use webfindit::value_map::read_result_set;
use webfindit::wire::{ByteOrder, CdrReader, CdrWriter, Ior, Trailing, Value};
use webfindit::{codb, Federation, SiteHandle, SiteSpec, StallGate, WebfinditError};
use webfindit_base::rng::StdRng;
use webfindit_codb::{LinkEnd, ServiceLink};
use webfindit_oostore::method::MethodTable;
use webfindit_oostore::model::{ClassDef, OType, OValue};
use webfindit_oostore::ObjectStore;
use webfindit_relstore::exec::ResultSet;
use webfindit_relstore::file_mgr::{SimVfs, Vfs};
use webfindit_relstore::{Database, Datum, Dialect};

const CLINIC: &str = "Inline Clinic";
const LEDGER: &str = "Inline Ledger";
const ARCHIVE: &str = "Inline Archive";
const PATIENTS: i64 = 50;

/// A deadline for a call that should return at once.
const PROMPT: Duration = Duration::from_secs(10);

/// A federation with one ORB serving an in-memory relational site, a
/// durable one, an object site and an echo object, and a second client
/// ORB, whose calls arrive on a connection of their own.
struct Live {
    fed: Arc<Federation>,
    server: Arc<Orb>,
    prober: Arc<Orb>,
    clinic: SiteHandle,
    ledger: SiteHandle,
    archive: SiteHandle,
    echo: Ior,
}

impl Drop for Live {
    fn drop(&mut self) {
        self.prober.shutdown();
        self.fed.shutdown();
    }
}

fn spec(name: &str, vendor: SiteVendor) -> SiteSpec {
    SiteSpec {
        name: name.into(),
        orb: "Orbix".into(),
        vendor,
        host: format!(
            "{}.inline.test",
            name.to_ascii_lowercase().replace(' ', "-")
        ),
        information_type: "patients".into(),
        documentation_url: "http://docs.inline.test".into(),
        interface: Vec::new(),
    }
}

fn live() -> Live {
    let fed = Federation::new().unwrap();
    let server = fed
        .add_orb("Orbix", "orbix.inline.test", 9000, ByteOrder::BigEndian)
        .unwrap();

    let mut db = Database::new(CLINIC, Dialect::Oracle);
    db.execute("CREATE TABLE patient (id INT PRIMARY KEY, name TEXT, age INT, ward TEXT)")
        .unwrap();
    db.execute("CREATE TABLE ward (code TEXT PRIMARY KEY, beds INT)")
        .unwrap();
    for id in 1..=PATIENTS {
        let ward = ["A", "B", "C"][id as usize % 3];
        let sql = format!(
            "INSERT INTO patient VALUES ({id}, 'patient {id}', {}, '{ward}')",
            20 + id % 7
        );
        db.execute(&sql).unwrap();
    }
    db.execute("INSERT INTO ward VALUES ('A', 4), ('B', 6), ('C', 8)")
        .unwrap();
    let relational = SiteVendor::Relational(Dialect::Oracle);
    let clinic = fed.add_relational_site(spec(CLINIC, relational), db);

    let vfs = SimVfs::new();
    let mut ledger = Database::open_vfs(vfs as Arc<dyn Vfs>, LEDGER, Dialect::Oracle).unwrap();
    ledger
        .execute("CREATE TABLE patient (id INT PRIMARY KEY, name TEXT, age INT, ward TEXT)")
        .unwrap();
    ledger
        .execute("INSERT INTO patient VALUES (1, 'patient 1', 30, 'A')")
        .unwrap();
    let ledger = fed.add_relational_site(spec(LEDGER, relational), ledger);

    let mut store = ObjectStore::new(ARCHIVE);
    store
        .define_class(ClassDef::root("Visit").attr("seq", OType::Int))
        .unwrap();
    store
        .create("Visit", [("seq".to_string(), OValue::Int(1))])
        .unwrap();
    let archive = fed.add_object_site(
        spec(ARCHIVE, SiteVendor::ObjectStore),
        store,
        MethodTable::new(),
    );

    let echo = server.activate("echo/inline", Arc::new(EchoServant));
    let prober = Orb::start(
        OrbConfig::new(
            "Prober",
            "prober.inline.test",
            9100,
            ByteOrder::LittleEndian,
        ),
        Arc::clone(fed.domain()),
    )
    .unwrap();
    Live {
        clinic: clinic.unwrap(),
        ledger: ledger.unwrap(),
        archive: archive.unwrap(),
        fed,
        server,
        prober,
        echo,
    }
}

/// The decoder of a table reply.
type ReadTable = fn(&mut CdrReader<'_>) -> Result<ResultSet, WebfinditError>;

/// A typed `execute` of `sql` that reads a table back.
fn select(sql: &str) -> isi::Execute<ReadTable> {
    isi::Execute {
        text: sql.to_owned(),
        max_rows: Trailing(None),
        read: read_result_set,
    }
}

impl Live {
    fn inline(&self) -> u64 {
        self.server.metrics().snapshot().requests_inline
    }

    fn served(&self) -> u64 {
        self.server.metrics().snapshot().requests_served
    }

    /// How many of the requests `f` sends the server answered inline;
    /// each `f` here sends exactly one.
    fn inline_in(&self, f: impl FnOnce()) -> u64 {
        let (inline, served) = (self.inline(), self.served());
        f();
        assert_eq!(self.served(), served + 1, "one request per probe");
        self.inline() - inline
    }

    /// `execute` of `sql` at `site` by name, through the client ORB.
    fn execute(&self, site: &SiteHandle, sql: &str) -> Result<Value, WebfinditError> {
        self.fed
            .invoke(&site.isi_ior, "execute", &[Value::string(sql)])
    }

    /// Wait until the server has read `n` requests in all.
    fn await_served(&self, n: u64) {
        let start = Instant::now();
        while self.served() < n {
            assert!(start.elapsed() < PROMPT, "the request never arrived");
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// A `ping` on the prober's own connection, and how long it took.
    fn ping(&self) -> Duration {
        let start = Instant::now();
        let options = CallOptions::with_deadline(PROMPT);
        let pong = self.prober.call(&self.echo, echo::Ping {}, &options);
        assert_eq!(pong.unwrap(), "pong");
        start.elapsed()
    }
}

#[test]
fn only_a_primary_key_point_read_runs_inline() {
    let live = live();
    let clinic = &live.clinic;
    let point = || {
        let rows = live
            .fed
            .call(
                &clinic.isi_ior,
                select("SELECT name FROM patient WHERE id = 7"),
            )
            .unwrap();
        assert_eq!(rows.rows, [[Datum::Text("patient 7".into())]]);
    };
    assert_eq!(live.inline_in(point), 1, "a point read runs inline");
    // The reactor does not parse a statement over 1 KiB, whatever it is.
    let padded = || {
        let sql = format!("SELECT name FROM patient WHERE id = 7{}", " ".repeat(1024));
        let rows = live.fed.call(&clinic.isi_ior, select(&sql)).unwrap();
        assert_eq!(rows.rows, [[Datum::Text("patient 7".into())]]);
    };
    assert_eq!(live.inline_in(padded), 0, "a point read over 1 KiB");

    for sql in [
        "SELECT name FROM patient WHERE id BETWEEN 3 AND 3",
        "SELECT p.name, w.beds FROM patient p JOIN ward w ON p.ward = w.code WHERE p.id = 3",
        "SELECT age, COUNT(*) FROM patient WHERE id = 3 GROUP BY age",
        "INSERT INTO patient VALUES (1000, 'late', 40, 'A')",
    ] {
        let sent = || {
            live.execute(clinic, sql).unwrap();
        };
        assert_eq!(live.inline_in(sent), 0, "{sql}");
    }
    let oql = || {
        live.execute(&live.archive, "select seq from Visit")
            .unwrap();
    };
    assert_eq!(live.inline_in(oql), 0, "an OQL query");
    let ping = || {
        live.fed.call(&live.echo, echo::Ping {}).unwrap();
    };
    assert_eq!(live.inline_in(ping), 0, "an echo ping");
}

#[test]
fn only_a_probe_and_members_of_a_co_database_run_inline() {
    let live = live();
    let ior = &live.clinic.codb_ior;
    let coalition = || "Inline Research".to_string();
    let create = || {
        let call = codb::CreateCoalition {
            name: coalition(),
            parent: None,
            documentation: "inline research".into(),
        };
        live.fed.call(ior, call).unwrap();
    };
    assert_eq!(live.inline_in(create), 0, "create_coalition");
    let advertise = || {
        let descriptor = live.clinic.descriptor.clone();
        let call = codb::Advertise {
            coalition: coalition(),
            descriptor,
        };
        live.fed.call(ior, call).unwrap();
    };
    assert_eq!(live.inline_in(advertise), 0, "advertise");

    let probe = || {
        let topic = "inline research".to_string();
        let reply = live.fed.call(ior, codb::Probe { topic, known: None });
        let answer = reply.unwrap().answer.expect("answered in full");
        assert_eq!(answer.coalitions, [coalition()]);
    };
    assert_eq!(live.inline_in(probe), 1, "a co-database probe");
    let members = || {
        let reply = live.fed.call(
            ior,
            codb::Members {
                coalition: coalition(),
            },
        );
        assert_eq!(reply.unwrap(), [CLINIC]);
    };
    assert_eq!(live.inline_in(members), 1, "members");

    let find_links = || {
        let topic = "inline research".to_string();
        live.fed.call(ior, codb::FindLinks { topic }).unwrap();
    };
    assert_eq!(live.inline_in(find_links), 0, "find_links");
    let subclasses = || {
        live.fed
            .call(ior, codb::Subclasses { class: coalition() })
            .unwrap();
    };
    assert_eq!(live.inline_in(subclasses), 0, "subclasses");
    let descriptor = || {
        let source = CLINIC.to_string();
        live.fed.call(ior, codb::Descriptor { source }).unwrap();
    };
    assert_eq!(live.inline_in(descriptor), 0, "descriptor");
    let withdraw = || {
        let source = CLINIC.to_string();
        let call = codb::Withdraw {
            coalition: coalition(),
            source,
        };
        live.fed.call(ior, call).unwrap();
    };
    assert_eq!(live.inline_in(withdraw), 0, "withdraw");
}

#[test]
fn a_point_read_that_finds_the_site_held_waits_on_a_worker() {
    let live = live();
    let site = live.fed.registry().relational("oracle", CLINIC).unwrap();
    let (inline, served) = (live.inline(), live.served());
    let held = site.lock();
    let (tx, rx) = mpsc::channel();
    let reader = {
        let (fed, ior) = (Arc::clone(&live.fed), live.clinic.isi_ior.clone());
        thread::spawn(move || {
            let read = select("SELECT name FROM patient WHERE id = 9");
            tx.send(fed.call(&ior, read).map(|rs| rs.rows)).unwrap();
        })
    };
    live.await_served(served + 1);
    assert!(
        live.ping() < Duration::from_secs(1),
        "the reactor must answer another connection while the read waits"
    );
    assert!(
        rx.recv_timeout(Duration::from_millis(100)).is_err(),
        "the read cannot finish while the site is held"
    );
    drop(held);
    let rows = rx.recv_timeout(PROMPT).expect("the read finishes").unwrap();
    assert_eq!(rows, [[Datum::Text("patient 9".into())]]);
    reader.join().unwrap();
    assert_eq!(
        live.inline(),
        inline,
        "neither the read nor the ping ran inline"
    );
}

#[test]
fn a_stalled_point_read_is_held_by_a_worker() {
    let live = live();
    let (inline, served) = (live.inline(), live.served());
    live.clinic.isi_stall.stall(200);
    let reader = {
        let (fed, ior) = (Arc::clone(&live.fed), live.clinic.isi_ior.clone());
        thread::spawn(move || {
            let start = Instant::now();
            let rows = fed
                .call(&ior, select("SELECT name FROM patient WHERE id = 4"))
                .unwrap();
            (start.elapsed(), rows.rows)
        })
    };
    live.await_served(served + 1);
    let ping = live.ping();
    let (took, rows) = reader.join().unwrap();
    live.clinic.isi_stall.clear();
    assert!(took >= Duration::from_millis(200), "the read took {took:?}");
    assert!(ping < Duration::from_millis(200), "the ping took {ping:?}");
    assert_eq!(rows, [[Datum::Text("patient 4".into())]]);
    assert_eq!(
        live.inline(),
        inline,
        "neither the read nor the ping ran inline"
    );
}

/// A `probe` of the clinic's co-database from its own thread, with how
/// long it took.
fn probe_from_a_thread(live: &Live) -> thread::JoinHandle<(Duration, u64)> {
    let (fed, ior) = (Arc::clone(&live.fed), live.clinic.codb_ior.clone());
    thread::spawn(move || {
        let start = Instant::now();
        let topic = "patients".to_string();
        let reply = fed.call(&ior, codb::Probe { topic, known: None });
        (start.elapsed(), reply.unwrap().version)
    })
}

#[test]
fn a_probe_that_finds_the_co_database_held_waits_on_a_worker() {
    let live = live();
    let (inline, served) = (live.inline(), live.served());
    // Another thread holds the exclusive guard, so this one holds no
    // lock while it waits on the network.
    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let holder = {
        let codb = Arc::clone(&live.clinic.codb);
        thread::spawn(move || {
            let guard = codb.write();
            held_tx.send(guard.version()).unwrap();
            release_rx.recv().unwrap();
        })
    };
    let version = held_rx.recv_timeout(PROMPT).expect("the guard is taken");
    let prober = probe_from_a_thread(&live);
    live.await_served(served + 1);
    assert!(
        live.ping() < Duration::from_secs(1),
        "the reactor must answer another connection while the probe waits"
    );
    thread::sleep(Duration::from_millis(100));
    assert!(
        !prober.is_finished(),
        "the probe cannot finish while the co-database is held"
    );
    release_tx.send(()).unwrap();
    holder.join().unwrap();
    let (_, answered) = prober.join().unwrap();
    assert_eq!(answered, version);
    assert_eq!(
        live.inline(),
        inline,
        "neither the probe nor the ping ran inline"
    );
}

#[test]
fn a_stalled_probe_is_held_by_a_worker() {
    let live = live();
    let inline = live.inline();
    live.clinic.stall.stall(200);
    let (took, _) = probe_from_a_thread(&live).join().unwrap();
    live.clinic.stall.clear();
    assert!(
        took >= Duration::from_millis(200),
        "the probe took {took:?}"
    );
    assert_eq!(
        live.inline(),
        inline,
        "the stalled probe did not run inline"
    );
}

/// A point probe's text: mostly keys that exist, and every literal the
/// planner's point shape accepts or turns away.
fn probe_text(rng: &mut StdRng) -> String {
    let id = rng.gen_range(-5..PATIENTS + 10);
    let columns = ["name", "name, age", "*", "age, ward, name"][rng.gen_range(0..4usize)];
    let filter = match rng.gen_range(0..9u32) {
        0 => format!("{id} = id"),
        1 => format!("patient.id = {id}"),
        2 => "id = NULL".to_string(),
        3 => format!("id = 'x{id}'"),
        4 => format!("id = {id}.5"),
        5 => format!("id = {id}.0"),
        6 => {
            return format!(
                "SELECT beds FROM ward WHERE code = DATE '2024-01-0{}'",
                id.rem_euclid(9) + 1
            )
        }
        7 => {
            return format!(
                "SELECT beds FROM ward WHERE code = '{}'",
                ["A", "B", "Z"][id.rem_euclid(3) as usize]
            )
        }
        _ => format!("id = {id}"),
    };
    format!("SELECT {columns} FROM patient WHERE {filter}")
}

#[test]
fn an_inline_reply_is_the_reply_the_pool_writes() {
    let live = live();
    assert!(live.fed.registry().crash_relational("oracle", LEDGER));
    let mut rng = StdRng::seed_from_u64(39);
    let (mut answered, mut deferred, mut crashed) = (0, 0, 0);
    for _ in 0..200 {
        let site = if rng.gen_bool(0.2) {
            &live.ledger
        } else {
            &live.clinic
        };
        let text = probe_text(&mut rng);
        let mut args = vec![Value::string(text.clone())];
        if rng.gen_bool(0.2) {
            args.push(Value::ULong(rng.gen_range(0..2u32)));
        }

        let order = [ByteOrder::BigEndian, ByteOrder::LittleEndian][rng.gen_range(0..2usize)];
        let mut now_out = CdrWriter::new(order);
        let now = site.isi.invoke_now("execute", &args, &mut now_out);
        let mut pool_out = CdrWriter::new(order);
        let pooled = site.isi.invoke_into("execute", &args, &mut pool_out);
        let pool_bytes = pool_out.into_bytes();
        match &now {
            Some(answer) => {
                answered += 1;
                crashed += usize::from(site.name == LEDGER);
                assert_eq!(answer, &pooled, "{text}");
                if answer.is_ok() {
                    assert_eq!(now_out.into_bytes(), pool_bytes, "{text}");
                }
            }
            None => {
                deferred += 1;
                assert_eq!(now_out.len(), 0, "a deferred call wrote nothing: {text}");
            }
        }

        // Over the wire, the reactor answers inline exactly the probes
        // the servant answers at once, and the caller reads the reply the
        // pool would have sent.
        let inline = live.inline();
        let over_wire = live.fed.invoke(&site.isi_ior, "execute", &args);
        assert_eq!(live.inline() - inline, u64::from(now.is_some()), "{text}");
        match (over_wire, pooled) {
            (Ok(value), Ok(())) => {
                let expected = Value::decode(&mut CdrReader::new(&pool_bytes, order)).unwrap();
                assert_eq!(value, expected, "{text}");
            }
            (
                Err(WebfinditError::Orb(OrbError::RemoteException {
                    system,
                    description,
                })),
                Err(e),
            ) => {
                assert_eq!(
                    (system, description),
                    (e.is_system(), e.description()),
                    "{text}"
                );
            }
            (got, expected) => panic!("{text}: got {got:?}, the pool answers {expected:?}"),
        }
    }
    assert!(answered >= 100, "{answered} of 200 answered inline");
    assert!(deferred > 0, "the DATE-on-TEXT probes defer");
    assert!(crashed > 0, "a crashed site answers its error inline");
}

/// Give the clinic's co-database coalitions, members and a link to
/// answer from.
fn populate(live: &Live) {
    let mut codb = live.clinic.codb.write();
    codb.create_coalition("Research", None, "medical research")
        .unwrap();
    codb.create_coalition("Oncology", Some("Research"), "cancer research")
        .unwrap();
    codb.create_coalition("Wards", None, "ward occupancy")
        .unwrap();
    for (coalition, site) in [
        ("Research", &live.clinic),
        ("Oncology", &live.ledger),
        ("Wards", &live.archive),
    ] {
        codb.advertise(coalition, site.descriptor.clone()).unwrap();
    }
    codb.add_service_link(ServiceLink {
        from: LinkEnd::Database(LEDGER.into()),
        to: LinkEnd::Coalition("Wards".into()),
        description: "bed transfers".into(),
    })
    .unwrap();
}

/// The arguments of a seeded `probe` or `members` of a co-database at
/// `version`, or of one with a mistyped argument.
fn codb_call(rng: &mut StdRng, version: i64) -> (&'static str, Vec<Value>) {
    let topics = [
        "medical research",
        "cancer research",
        "ward occupancy",
        "bed transfers",
        "patients",
        "astronomy",
        "",
    ];
    let coalitions = ["Research", "Oncology", "Wards", "research", "Ghost"];
    match rng.gen_range(0..10u32) {
        0..=5 => {
            let topic = topics[rng.gen_range(0..topics.len())].to_string();
            let known = match rng.gen_range(0..3u32) {
                0 => Some(version),
                1 => Some(version - 1 - rng.gen_range(0..3i64)),
                _ => None,
            };
            let call = codb::Probe { topic, known };
            (codb::Probe::NAME, call.args().unwrap())
        }
        6..=8 => {
            let coalition = coalitions[rng.gen_range(0..coalitions.len())].to_string();
            let call = codb::Members { coalition };
            (codb::Members::NAME, call.args().unwrap())
        }
        _ => {
            let op = [codb::Probe::NAME, codb::Members::NAME][rng.gen_range(0..2usize)];
            (op, vec![Value::ULong(7)])
        }
    }
}

#[test]
fn an_inline_co_database_reply_is_the_reply_the_pool_writes() {
    let live = live();
    populate(&live);
    let servant = CoDatabaseServant::with_gate(Arc::clone(&live.clinic.codb), StallGate::new());
    let ior = &live.clinic.codb_ior;
    let mut rng = StdRng::seed_from_u64(41);
    let (mut answered, mut deferred, mut refused) = (0, 0, 0);
    for i in 0..200 {
        if i % 50 == 25 {
            // A registration moves the stamp under the callers.
            let mut codb = live.clinic.codb.write();
            codb.create_coalition(&format!("Late {i}"), Some("Research"), "late research")
                .unwrap();
        }
        let version = live.clinic.codb.read().version() as i64;
        let (op, args) = codb_call(&mut rng, version);
        let order = [ByteOrder::BigEndian, ByteOrder::LittleEndian][rng.gen_range(0..2usize)];
        let mut now_out = CdrWriter::new(order);
        let now = servant.invoke_now(op, &args, &mut now_out);
        let mut pool_out = CdrWriter::new(order);
        let pooled = servant.invoke_into(op, &args, &mut pool_out);
        let pool_bytes = pool_out.into_bytes();
        let what = format!("{op} {args:?}");
        match &now {
            Some(answer) => {
                answered += 1;
                refused += usize::from(answer.is_err());
                assert_eq!(answer, &pooled, "{what}");
                if answer.is_ok() {
                    assert_eq!(now_out.into_bytes(), pool_bytes, "{what}");
                }
            }
            None => {
                deferred += 1;
                assert!(pooled.is_err(), "only a mistyped call defers: {what}");
                assert_eq!(now_out.len(), 0, "a deferred call wrote nothing: {what}");
            }
        }

        let inline = live.inline();
        let over_wire = live.fed.invoke(ior, op, &args);
        assert_eq!(live.inline() - inline, u64::from(now.is_some()), "{what}");
        match (over_wire, pooled) {
            (Ok(value), Ok(())) => {
                let expected = Value::decode(&mut CdrReader::new(&pool_bytes, order)).unwrap();
                assert_eq!(value, expected, "{what}");
            }
            (
                Err(WebfinditError::Orb(OrbError::RemoteException {
                    system,
                    description,
                })),
                Err(e),
            ) => {
                assert_eq!(
                    (system, description),
                    (e.is_system(), e.description()),
                    "{what}"
                );
            }
            (got, expected) => panic!("{what}: got {got:?}, the pool answers {expected:?}"),
        }
    }
    assert!(answered >= 150, "{answered} of 200 answered inline");
    assert!(refused > 0, "an unknown coalition answers its error inline");
    assert!(deferred > 0, "a mistyped call defers");
}

/// Every thread the ORB spawns has a 2 MiB stack. A statement of
/// 200 000 conjuncts, about 2.6 MB, is too long for the reactor to
/// parse, so it goes to a worker unparsed and the worker answers it;
/// neither statement counts as answered inline. A 200 000-term `+`
/// chain, refused as too deep, comes back as an exception on both
/// paths. After each, the site still answers a point read.
#[test]
fn a_long_statement_gets_a_reply_or_an_exception_on_either_path() {
    let live = live();
    let clinic = &live.clinic;
    let long = |kw: &str, term: &str| {
        let mut sql = String::from("SELECT name FROM patient WHERE id = 7");
        for _ in 1..200_000 {
            sql.push_str(kw);
            sql.push_str(term);
        }
        sql
    };
    let conjuncts = long(" AND ", "age = 20");
    let chain = long(" + ", "0");
    let patient_7 = [[Datum::Text("patient 7".into())]];
    for stall in [0, 5] {
        clinic.isi_stall.stall(stall);
        let conjuncts = || {
            let rows = live.fed.call(&clinic.isi_ior, select(&conjuncts));
            assert_eq!(rows.unwrap().rows, patient_7, "stall {stall}");
        };
        assert_eq!(live.inline_in(conjuncts), 0, "stall {stall}: conjuncts");
        let chain = || {
            let refused = live.fed.call(&clinic.isi_ior, select(&chain)).unwrap_err();
            assert!(
                refused.to_string().contains("nest deeper than 64 levels"),
                "stall {stall}: {refused}"
            );
        };
        assert_eq!(live.inline_in(chain), 0, "stall {stall}: chain");
        clinic.isi_stall.clear();
        let point = select("SELECT name FROM patient WHERE id = 7");
        let rows = live.fed.call(&clinic.isi_ior, point).unwrap();
        assert_eq!(rows.rows, patient_7, "stall {stall}");
    }
}
