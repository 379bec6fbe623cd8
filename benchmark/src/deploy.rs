//! Deployment and seeded data: the paper's healthcare federation plus
//! the bench sites a workload uses, added through the public
//! `Federation` entry points.
//!
//! Every generated row is a pure function of `(seed, key)`, so the
//! correctness oracles recompute the expected answer for any key without
//! asking the system under test.

use std::path::PathBuf;
use std::sync::Arc;

use webfindit::federation::{SiteSpec, SiteVendor};
use webfindit::Federation;
use webfindit_base::rng::StdRng;
use webfindit_codb::ExportedType;
use webfindit_healthcare::build_healthcare;
use webfindit_oostore::method::MethodTable;
use webfindit_oostore::model::{ClassDef, OType, OValue};
use webfindit_oostore::ObjectStore;
use webfindit_relstore::{Column, DataType, Database, Datum, Dialect, Row, TableSchema};

use crate::workloads::Workload;

pub const CLINIC: &str = "Bench Clinic";
pub const NORTH: &str = "Bench North";
pub const SOUTH: &str = "Bench South";
pub const ARCHIVE: &str = "Bench Archive";
pub const LEDGER: &str = "Bench Ledger";
pub const RECORDS_COALITION: &str = "Bench Records";

/// `patient` rows at Bench Clinic.
pub const PATIENT_ROWS: i64 = 100_000;
/// `history` rows at Bench Clinic; sized so `join_agg` alone in relstore
/// (depth D3) has a median of 5-15 ms on the reference sandbox.
pub const HISTORY_ROWS: i64 = 4_000;
/// Instances of the shared type at each Bench Records member.
pub const VISIT_ROWS: i64 = 20_000;
/// `accounts` rows preloaded at Bench Ledger.
pub const ACCOUNT_ROWS: i64 = 10_000;

const DIAGNOSES: [&str; 6] = [
    "hypertension",
    "fracture",
    "influenza",
    "diabetes",
    "asthma",
    "migraine",
];
const WARDS: [&str; 5] = ["north", "south", "east", "west", "day"];

/// 64 seeded bits for `(table, key)`.
fn bits(seed: u64, table: u64, key: i64) -> u64 {
    StdRng::seed_from_u64(seed ^ (table << 56) ^ key as u64).next_u64()
}

pub struct Patient {
    pub name: String,
    pub gender: &'static str,
    pub age: i64,
}

pub fn patient(seed: u64, id: i64) -> Patient {
    let h = bits(seed, 1, id);
    Patient {
        name: format!("patient-{id}-{:04x}", h & 0xffff),
        gender: if (h >> 16) & 1 == 0 { "F" } else { "M" },
        age: 20 + ((h >> 17) % 60) as i64,
    }
}

/// `(patient_id, diagnosis, cost)` of history row `i`. Costs are
/// multiples of 0.25 so sums are exact in any order.
pub fn history(seed: u64, i: i64) -> (i64, &'static str, f64) {
    let h = bits(seed, 2, i);
    (
        (h % PATIENT_ROWS as u64) as i64,
        DIAGNOSES[((h >> 32) % 6) as usize],
        50.0 + ((h >> 40) % 4000) as f64 / 4.0,
    )
}

/// `(ward, cost)` of visit `seq` at Bench Records member `member`
/// (index into the sorted member names).
pub fn visit(seed: u64, member: usize, seq: i64) -> (&'static str, f64) {
    let h = bits(seed, 3 + member as u64, seq);
    (WARDS[(h % 5) as usize], ((h >> 8) % 400_000) as f64 / 4.0)
}

/// `(owner, balance)` of preloaded account `id`.
pub fn account(seed: u64, id: i64) -> (String, f64) {
    let h = bits(seed, 7, id);
    (
        format!("owner-{id}-{:03x}", h & 0xfff),
        ((h >> 12) % 4_000_000) as f64 / 4.0,
    )
}

/// A running deployment. Dropping it shuts every ORB down and removes
/// the durable site's data directory.
pub struct Deployment {
    pub fed: Arc<Federation>,
    data_dir: Option<PathBuf>,
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.fed.shutdown();
        if let Some(dir) = &self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Directory for this process's durable data and outputs.
pub fn out_dir() -> PathBuf {
    PathBuf::from("target/benchmark")
}

/// Remove this process's data directory, and `data/` itself once the last
/// process has left it (every `Deployment` drop removes only its own
/// sub-directory).
pub fn remove_pid_dir() {
    let data = out_dir().join("data");
    let _ = std::fs::remove_dir(data.join(std::process::id().to_string()));
    let _ = std::fs::remove_dir(data);
}

fn exported(name: &str, what: &str) -> Vec<ExportedType> {
    vec![ExportedType {
        name: name.into(),
        attributes: Vec::new(),
        functions: Vec::new(),
        description: what.into(),
    }]
}

/// Bench sites follow healthcare's product-to-ORB assignment, so the
/// three Bench Records members sit behind three different ORBs.
fn spec(name: &str, vendor: SiteVendor, interface: Vec<ExportedType>) -> SiteSpec {
    let orb = match vendor {
        SiteVendor::Relational(Dialect::Oracle) => "VisiBroker",
        SiteVendor::ObjectStore => "Orbix",
        _ => "OrbixWeb",
    };
    let slug = name.to_ascii_lowercase().replace(' ', "-");
    SiteSpec {
        name: name.into(),
        orb: orb.into(),
        vendor,
        host: format!("{slug}.bench.webfindit.net"),
        information_type: "benchmark fixture".into(),
        documentation_url: format!("http://docs.webfindit.net/{slug}"),
        interface,
    }
}

fn clinic_db(seed: u64) -> Database {
    let mut db = Database::new(CLINIC, Dialect::Oracle);
    let schema = TableSchema::new(
        "patient",
        vec![
            Column::new("patient_id", DataType::Int).primary_key(),
            Column::new("name", DataType::Text),
            Column::new("gender", DataType::Text),
            Column::new("age", DataType::Int),
        ],
    );
    let rows: Vec<Row> = (0..PATIENT_ROWS)
        .map(|id| {
            let p = patient(seed, id);
            vec![
                Datum::Int(id),
                Datum::Text(p.name),
                Datum::Text(p.gender.into()),
                Datum::Int(p.age),
            ]
        })
        .collect();
    db.import_table(schema, rows).expect("import patient");

    let schema = TableSchema::new(
        "history",
        vec![
            Column::new("hist_id", DataType::Int).primary_key(),
            Column::new("patient_id", DataType::Int),
            Column::new("diagnosis", DataType::Text),
            Column::new("cost", DataType::Double),
        ],
    );
    let rows: Vec<Row> = (0..HISTORY_ROWS)
        .map(|i| {
            let (pid, diagnosis, cost) = history(seed, i);
            vec![
                Datum::Int(i),
                Datum::Int(pid),
                Datum::Text(diagnosis.into()),
                Datum::Double(cost),
            ]
        })
        .collect();
    db.import_table(schema, rows).expect("import history");
    db.execute("CREATE INDEX hist_patient ON history (patient_id)")
        .expect("index history.patient_id");
    db
}

fn visits_db(name: &str, dialect: Dialect, seed: u64, member: usize, rows: i64) -> Database {
    let mut db = Database::new(name, dialect);
    let schema = TableSchema::new(
        "visits",
        vec![
            Column::new("seq", DataType::Int).primary_key(),
            Column::new("ward", DataType::Text),
            Column::new("cost", DataType::Double),
        ],
    );
    let rows: Vec<Row> = (0..rows)
        .map(|seq| {
            let (ward, cost) = visit(seed, member, seq);
            vec![
                Datum::Int(seq),
                Datum::Text(ward.into()),
                Datum::Double(cost),
            ]
        })
        .collect();
    db.import_table(schema, rows).expect("import visits");
    db
}

fn visits_store(seed: u64, member: usize, rows: i64) -> ObjectStore {
    let mut store = ObjectStore::new(ARCHIVE);
    store
        .define_class(
            ClassDef::root("Visit")
                .attr("seq", OType::Int)
                .attr("ward", OType::Text)
                .attr("cost", OType::Double),
        )
        .expect("fresh class");
    for seq in 0..rows {
        let (ward, cost) = visit(seed, member, seq);
        store
            .create(
                "Visit",
                [
                    ("seq".to_string(), OValue::Int(seq)),
                    ("ward".to_string(), OValue::Text(ward.into())),
                    ("cost".to_string(), OValue::Double(cost)),
                ],
            )
            .expect("valid object");
    }
    store
}

/// Bench Records members in merge (sorted-name) order.
pub const RECORDS_MEMBERS: [&str; 3] = [ARCHIVE, NORTH, SOUTH];

fn add_records_sites(fed: &Federation, seed: u64, rows: i64) -> Result<(), String> {
    fed.add_object_site(
        spec(
            ARCHIVE,
            SiteVendor::ObjectStore,
            exported("Visit", "visit extent"),
        ),
        visits_store(seed, 0, rows),
        MethodTable::new(),
    )
    .map_err(|e| e.to_string())?;
    for (member, name, dialect) in [(1, NORTH, Dialect::Oracle), (2, SOUTH, Dialect::Db2)] {
        fed.add_relational_site(
            spec(
                name,
                SiteVendor::Relational(dialect),
                exported("Visits", "visits table"),
            ),
            visits_db(name, dialect, seed, member, rows),
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Stand up healthcare plus the bench sites `workload` uses.
pub fn deploy(workload: Workload, seed: u64, instance: u32) -> Result<Deployment, String> {
    let fed = build_healthcare(seed).map_err(|e| e.to_string())?.fed;
    let mut dep = Deployment {
        fed,
        data_dir: None,
    };
    let fed = &dep.fed;
    match workload {
        Workload::PointRead | Workload::BulkRead | Workload::JoinAgg => {
            fed.add_relational_site(
                spec(
                    CLINIC,
                    SiteVendor::Relational(Dialect::Oracle),
                    exported("Patient", "patients and their histories"),
                ),
                clinic_db(seed),
            )
            .map_err(|e| e.to_string())?;
        }
        Workload::DiscoverChurn => {
            // Only the co-databases of the churning sites take part.
            add_records_sites(fed, seed, 0)?;
        }
        Workload::FedUnion => {
            add_records_sites(fed, seed, VISIT_ROWS)?;
            fed.form_coalition(
                RECORDS_COALITION,
                None,
                "benchmark visit records",
                &RECORDS_MEMBERS,
            )
            .map_err(|e| e.to_string())?;
        }
        Workload::TxnMixed => {
            let dir = out_dir()
                .join("data")
                .join(std::process::id().to_string())
                .join(format!("ledger-{instance}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            dep.data_dir = Some(dir.clone());
            let mut db = Database::open(dir, LEDGER, Dialect::Oracle).map_err(|e| e.to_string())?;
            let schema = TableSchema::new(
                "accounts",
                vec![
                    Column::new("acct_id", DataType::Int).primary_key(),
                    Column::new("owner", DataType::Text),
                    Column::new("balance", DataType::Double),
                ],
            );
            let rows: Vec<Row> = (0..ACCOUNT_ROWS)
                .map(|id| {
                    let (owner, balance) = account(seed, id);
                    vec![Datum::Int(id), Datum::Text(owner), Datum::Double(balance)]
                })
                .collect();
            db.import_table(schema, rows).map_err(|e| e.to_string())?;
            dep.fed
                .add_relational_site(
                    spec(
                        LEDGER,
                        SiteVendor::Relational(Dialect::Oracle),
                        exported("Accounts", "ledger accounts"),
                    ),
                    db,
                )
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(dep)
}
