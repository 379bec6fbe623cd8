//! Which requests a site answers on the reactor thread that read them.
//!
//! An ISI `execute` whose statement is a primary-key point probe runs on
//! the reactor (`Servant::invoke_now`) and is counted in the serving
//! ORB's `requests inline`; every other request goes to the dispatch
//! pool, and so does a point probe that would have to wait: one that
//! finds the site's exclusive guard held, or a stall gate set. Against
//! a live federation:
//!
//! * **Classification** — a point read counts as inline; a `BETWEEN`
//!   range, a join, `GROUP BY`, an INSERT, an OQL query, a co-database
//!   `probe` and an echo `ping` do not.
//! * **A held guard** — the point read waits on a worker, and the reactor
//!   keeps answering another connection.
//! * **A stall gate** — the point read is held as long as the gate says,
//!   and the reactor keeps answering another connection.
//! * **Byte equality** — 200 seeded point probes (absent keys, NULL,
//!   literals of other types, a DATE on a TEXT key, a crashed site)
//!   answer inline exactly what `Servant::invoke_into` writes, and a
//!   deferred one has written nothing.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use webfindit::federation::SiteVendor;
use webfindit::isi;
use webfindit::orb::servant::{echo, EchoServant, Servant};
use webfindit::orb::{CallOptions, Orb, OrbConfig, OrbError};
use webfindit::value_map::read_result_set;
use webfindit::wire::{ByteOrder, CdrReader, CdrWriter, Ior, Trailing, Value};
use webfindit::{codb, Federation, SiteHandle, SiteSpec, WebfinditError};
use webfindit_base::rng::StdRng;
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
    let probe = || {
        let topic = "patients".to_string();
        let call = codb::Probe { topic, known: None };
        live.fed.call(&clinic.codb_ior, call).unwrap();
    };
    assert_eq!(live.inline_in(probe), 0, "a co-database probe");
    let ping = || {
        live.fed.call(&live.echo, echo::Ping {}).unwrap();
    };
    assert_eq!(live.inline_in(ping), 0, "an echo ping");
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
