//! Per-database schemas and seeded data generators.
//!
//! The Royal Brisbane Hospital schema is the paper's §2.2 relation list
//! verbatim (Patient, Beds, Occupancy, History, Doctors,
//! ResearchProjects, MedicalStudent(s), ResearchProjectAttendants),
//! including the `AIDS and drugs` research project whose budget the
//! paper's `Funding()` example retrieves. Every generator is seeded, so
//! the deployment is identical on every run.

use webfindit_base::rng::StdRng;
use webfindit_codb::{ExportedFunction, ExportedType};
use webfindit_oostore::method::MethodTable;
use webfindit_oostore::model::{ClassDef, OType, OValue};
use webfindit_oostore::ObjectStore;
use webfindit_relstore::{Database, Dialect};

use crate::topology::{DatabaseInfo, Dbms};

/// A built data source: the engine instance plus its exported interface.
pub enum BuiltSource {
    /// A relational database (boxed: the engine carries its durable
    /// tier inline, dwarfing the object variant).
    Relational(Box<Database>, Vec<ExportedType>),
    /// An object database with its access routines.
    Object(ObjectStore, MethodTable, Vec<ExportedType>),
}

const FIRST_NAMES: &[&str] = &[
    "Alice", "Bob", "Carol", "Dan", "Erin", "Farid", "Grace", "Hiro", "Ines", "Jack", "Kim",
    "Lena", "Mei", "Noah", "Oma", "Priya", "Quinn", "Rosa", "Sam", "Tara",
];
const LAST_NAMES: &[&str] = &[
    "Chen", "Patel", "Nguyen", "Smith", "Brown", "Garcia", "Kim", "Okafor", "Rossi", "Silva",
    "Tanaka", "Novak", "Jones", "Khan", "Larsen",
];
const SUBURBS: &[&str] = &[
    "Herston",
    "Kelvin Grove",
    "Chermside",
    "Toowong",
    "Woolloongabba",
    "Spring Hill",
    "Fortitude Valley",
    "Indooroopilly",
];

fn person_name(rng: &mut StdRng) -> String {
    format!(
        "{} {}",
        FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())],
        LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())]
    )
}

fn date(rng: &mut StdRng, year_lo: i32, year_hi: i32) -> String {
    format!(
        "{:04}-{:02}-{:02}",
        rng.gen_range(year_lo..=year_hi),
        rng.gen_range(1..=12),
        rng.gen_range(1..=28)
    )
}

fn sql_escape(s: &str) -> String {
    s.replace('\'', "''")
}

/// Build the data source for one database of the deployment.
pub fn build_database(info: &DatabaseInfo, seed: u64) -> BuiltSource {
    let mut rng = StdRng::seed_from_u64(seed ^ hash_name(info.name));
    match info.dbms {
        Dbms::Oracle => BuiltSource::Relational(
            Box::new(build_oracle(info, &mut rng)),
            relational_interface(info),
        ),
        Dbms::MSql => BuiltSource::Relational(
            Box::new(build_msql(info, &mut rng)),
            relational_interface(info),
        ),
        Dbms::Db2 => BuiltSource::Relational(
            Box::new(build_db2(info, &mut rng)),
            relational_interface(info),
        ),
        Dbms::ObjectStore | Dbms::Ontos => {
            let (store, methods) = build_object(info, &mut rng);
            BuiltSource::Object(store, methods, object_interface(info))
        }
    }
}

fn hash_name(name: &str) -> u64 {
    name.bytes()
        .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64))
}

// ---- Oracle sites --------------------------------------------------------

fn build_oracle(info: &DatabaseInfo, rng: &mut StdRng) -> Database {
    let mut db = Database::new(info.name, Dialect::Oracle);
    match info.name {
        "Royal Brisbane Hospital" => build_rbh(&mut db, rng),
        "QUT Research" => {
            exec(&mut db, "CREATE TABLE researchprojects (project_id INT PRIMARY KEY, title TEXT NOT NULL, keywords TEXT, funding DOUBLE, begin_date DATE)");
            let topics = [
                "public health surveys",
                "telemedicine trials",
                "hospital logistics",
                "aged care outcomes",
                "childhood nutrition",
            ];
            for i in 0..24 {
                let t = topics[rng.gen_range(0..topics.len())];
                exec(
                    &mut db,
                    &format!(
                        "INSERT INTO researchprojects VALUES ({i}, '{} study {i}', '{}', {}, '{}')",
                        t,
                        t.split(' ').next().unwrap_or("health"),
                        rng.gen_range(20_000..400_000),
                        date(rng, 1995, 1998),
                    ),
                );
            }
        }
        "Medicare" => {
            exec(&mut db, "CREATE TABLE claims (claim_id INT PRIMARY KEY, patient_name TEXT, item INT, amount DOUBLE, claim_date DATE)");
            exec(
                &mut db,
                "CREATE TABLE providers (provider_id INT PRIMARY KEY, name TEXT, specialty TEXT)",
            );
            for i in 0..40 {
                exec(
                    &mut db,
                    &format!(
                        "INSERT INTO claims VALUES ({i}, '{}', {}, {:.2}, '{}')",
                        person_name(rng),
                        rng.gen_range(1..900),
                        rng.gen_range(20.0..600.0),
                        date(rng, 1997, 1998),
                    ),
                );
            }
            let specialties = ["GP", "cardiology", "oncology", "radiology"];
            for i in 0..12 {
                exec(
                    &mut db,
                    &format!(
                        "INSERT INTO providers VALUES ({i}, 'Dr {}', '{}')",
                        person_name(rng),
                        specialties[rng.gen_range(0..specialties.len())],
                    ),
                );
            }
        }
        "Medibank" => {
            exec(&mut db, "CREATE TABLE members (member_id INT PRIMARY KEY, name TEXT, plan TEXT, premium DOUBLE)");
            let plans = ["basic", "family", "premium"];
            for i in 0..30 {
                exec(
                    &mut db,
                    &format!(
                        "INSERT INTO members VALUES ({i}, '{}', '{}', {:.2})",
                        person_name(rng),
                        plans[rng.gen_range(0..plans.len())],
                        rng.gen_range(40.0..220.0),
                    ),
                );
            }
        }
        other => panic!("unknown Oracle site {other}"),
    }
    db
}

/// The paper's §2.2 Royal Brisbane Hospital schema, data included.
fn build_rbh(db: &mut Database, rng: &mut StdRng) {
    exec(db, "CREATE TABLE patient (patient_id INT PRIMARY KEY, name TEXT NOT NULL, date_of_birth DATE, gender TEXT, address TEXT)");
    exec(db, "CREATE TABLE beds (bed_id INT PRIMARY KEY, location TEXT NOT NULL, default_patient_type TEXT)");
    exec(db, "CREATE TABLE occupancy (bed_id INT, patient_id INT, date_from DATE, date_to DATE, PRIMARY KEY (bed_id, patient_id))");
    exec(db, "CREATE TABLE history (patient_id INT, date_recorded DATE, description TEXT, description_notes TEXT, doctor_id INT)");
    exec(
        db,
        "CREATE TABLE doctors (employee_id INT PRIMARY KEY, qualification TEXT, position TEXT)",
    );
    exec(db, "CREATE TABLE researchprojects (project_id INT PRIMARY KEY, title TEXT NOT NULL, keywords TEXT, supervising_doctor INT, begin_date DATE, completed_date DATE, funding DOUBLE)");
    exec(db, "CREATE TABLE medical_students (student_id INT PRIMARY KEY, name TEXT NOT NULL, course TEXT, year INT)");
    exec(db, "CREATE TABLE researchprojectattendants (project_id INT, student_id INT, task TEXT, date_started DATE, date_completed DATE, results TEXT, PRIMARY KEY (project_id, student_id))");
    exec(db, "CREATE INDEX history_patient ON history (patient_id)");
    exec(
        db,
        "CREATE INDEX projects_title ON researchprojects (title)",
    );

    let n_patients = 60;
    for i in 0..n_patients {
        let gender = if rng.gen_bool(0.5) { "F" } else { "M" };
        exec(
            db,
            &format!(
                "INSERT INTO patient VALUES ({i}, '{}', '{}', '{gender}', '{} St, {}')",
                person_name(rng),
                date(rng, 1930, 1990),
                rng.gen_range(1..200),
                SUBURBS[rng.gen_range(0..SUBURBS.len())],
            ),
        );
    }
    let wards = ["ward A", "ward B", "ICU", "maternity", "oncology"];
    for i in 0..30 {
        exec(
            db,
            &format!(
                "INSERT INTO beds VALUES ({i}, '{}', '{}')",
                wards[rng.gen_range(0..wards.len())],
                if rng.gen_bool(0.3) {
                    "acute"
                } else {
                    "general"
                },
            ),
        );
    }
    for bed in 0..30 {
        let patient = rng.gen_range(0..n_patients);
        exec(
            db,
            &format!(
                "INSERT INTO occupancy VALUES ({bed}, {patient}, '{}', '{}')",
                date(rng, 1997, 1997),
                date(rng, 1998, 1998),
            ),
        );
    }
    for i in 0..12 {
        let positions = ["registrar", "consultant", "resident", "intern"];
        exec(
            db,
            &format!(
                "INSERT INTO doctors VALUES ({i}, 'MBBS', '{}')",
                positions[rng.gen_range(0..positions.len())],
            ),
        );
    }
    let ailments = [
        "influenza",
        "fracture",
        "hypertension",
        "appendicitis",
        "asthma",
        "migraine",
    ];
    for i in 0..120 {
        exec(
            db,
            &format!(
                "INSERT INTO history VALUES ({}, '{}', '{}', 'episode {i}', {})",
                rng.gen_range(0..n_patients),
                date(rng, 1996, 1998),
                ailments[rng.gen_range(0..ailments.len())],
                rng.gen_range(0..12),
            ),
        );
    }
    // The paper's example project, with a fixed budget the Funding()
    // translation test can assert on.
    exec(
        db,
        "INSERT INTO researchprojects VALUES (0, 'AIDS and drugs', 'aids, drugs, treatment', 3, '1996-02-01', NULL, 250000.0)",
    );
    let titles = [
        "burn recovery outcomes",
        "cardiac imaging",
        "antibiotic resistance",
        "palliative care",
        "trauma triage",
    ];
    for i in 1..16 {
        exec(
            db,
            &format!(
                "INSERT INTO researchprojects VALUES ({i}, '{}', '{}', {}, '{}', NULL, {})",
                titles[(i - 1) % titles.len()],
                titles[(i - 1) % titles.len()]
                    .split(' ')
                    .next()
                    .unwrap_or("x"),
                rng.gen_range(0..12),
                date(rng, 1994, 1998),
                rng.gen_range(30_000..500_000),
            ),
        );
    }
    let courses = ["MBBS", "Nursing", "Pharmacy"];
    for i in 0..20 {
        exec(
            db,
            &format!(
                "INSERT INTO medical_students VALUES ({i}, '{}', '{}', {})",
                person_name(rng),
                courses[rng.gen_range(0..courses.len())],
                rng.gen_range(1..=6),
            ),
        );
    }
    for student in 0..12 {
        let project = rng.gen_range(0..16);
        exec(
            db,
            &format!(
                "INSERT INTO researchprojectattendants VALUES ({project}, {student}, 'data collection', '{}', NULL, NULL)",
                date(rng, 1997, 1998),
            ),
        );
    }
}

// ---- mSQL sites ----------------------------------------------------------

fn build_msql(info: &DatabaseInfo, rng: &mut StdRng) -> Database {
    let mut db = Database::new(info.name, Dialect::MSql);
    match info.name {
        "Centre Link" => {
            exec(&mut db, "CREATE TABLE payments (client_id INT, name TEXT, benefit_type TEXT, amount DOUBLE)");
            let benefits = ["sickness allowance", "disability support", "carer payment"];
            for i in 0..30 {
                exec(
                    &mut db,
                    &format!(
                        "INSERT INTO payments VALUES ({i}, '{}', '{}', {:.2})",
                        person_name(rng),
                        benefits[rng.gen_range(0..benefits.len())],
                        rng.gen_range(150.0..900.0),
                    ),
                );
            }
        }
        "State Government Funding" => {
            exec(&mut db, "CREATE TABLE grants (grant_id INT PRIMARY KEY, recipient TEXT, program TEXT, amount DOUBLE, year INT)");
            let programs = ["hospital upgrade", "rural health", "medicare supplement"];
            let recipients = [
                "Royal Brisbane Hospital",
                "Prince Charles Hospital",
                "Medicare",
                "Ambulance",
            ];
            for i in 0..20 {
                exec(
                    &mut db,
                    &format!(
                        "INSERT INTO grants VALUES ({i}, '{}', '{}', {}, {})",
                        recipients[rng.gen_range(0..recipients.len())],
                        programs[rng.gen_range(0..programs.len())],
                        rng.gen_range(100_000..5_000_000),
                        rng.gen_range(1995..=1998),
                    ),
                );
            }
        }
        "RBH Workers Union" => {
            exec(&mut db, "CREATE TABLE members (member_id INT PRIMARY KEY, name TEXT, role TEXT, joined DATE)");
            let roles = ["nurse", "orderly", "technician", "administrator"];
            for i in 0..25 {
                exec(
                    &mut db,
                    &format!(
                        "INSERT INTO members VALUES ({i}, '{}', '{}', '{}')",
                        person_name(rng),
                        roles[rng.gen_range(0..roles.len())],
                        date(rng, 1988, 1998),
                    ),
                );
            }
        }
        other => panic!("unknown mSQL site {other}"),
    }
    db
}

// ---- DB2 sites -----------------------------------------------------------

fn build_db2(info: &DatabaseInfo, rng: &mut StdRng) -> Database {
    let mut db = Database::new(info.name, Dialect::Db2);
    match info.name {
        "Australian Taxation Office" => {
            exec(
                &mut db,
                "CREATE TABLE taxpayers (tfn INT PRIMARY KEY, name TEXT, bracket TEXT)",
            );
            exec(&mut db, "CREATE TABLE levies (tfn INT, year INT, medicare_levy DOUBLE, PRIMARY KEY (tfn, year))");
            for i in 0..30 {
                let brackets = ["low", "middle", "high"];
                exec(
                    &mut db,
                    &format!(
                        "INSERT INTO taxpayers VALUES ({i}, '{}', '{}')",
                        person_name(rng),
                        brackets[rng.gen_range(0..brackets.len())],
                    ),
                );
                exec(
                    &mut db,
                    &format!(
                        "INSERT INTO levies VALUES ({i}, 1997, {:.2})",
                        rng.gen_range(200.0..2500.0),
                    ),
                );
            }
        }
        "MBF" => {
            exec(&mut db, "CREATE TABLE policies (policy_id INT PRIMARY KEY, holder TEXT, cover TEXT, premium DOUBLE)");
            let covers = ["hospital", "extras", "combined"];
            for i in 0..25 {
                exec(
                    &mut db,
                    &format!(
                        "INSERT INTO policies VALUES ({i}, '{}', '{}', {:.2})",
                        person_name(rng),
                        covers[rng.gen_range(0..covers.len())],
                        rng.gen_range(50.0..300.0),
                    ),
                );
            }
        }
        other => panic!("unknown DB2 site {other}"),
    }
    db
}

// ---- object sites --------------------------------------------------------

fn build_object(info: &DatabaseInfo, rng: &mut StdRng) -> (ObjectStore, MethodTable) {
    let mut store = ObjectStore::new(info.name);
    let mut methods = MethodTable::new();
    match info.name {
        "RMIT Medical Research" => {
            store
                .define_class(
                    ClassDef::root("ResearchProject")
                        .attr("title", OType::Text)
                        .attr("keywords", OType::Text)
                        .attr("funding", OType::Double),
                )
                .expect("fresh class");
            store
                .define_class(
                    ClassDef::root("ClinicalTrial")
                        .extends("ResearchProject")
                        .attr("phase", OType::Int),
                )
                .expect("fresh class");
            let topics = ["gene therapy", "oncology screening", "vaccine response"];
            for i in 0..15 {
                let t = topics[rng.gen_range(0..topics.len())];
                let class = if i % 3 == 0 {
                    "ClinicalTrial"
                } else {
                    "ResearchProject"
                };
                let mut attrs = vec![
                    ("title".to_string(), OValue::Text(format!("{t} {i}"))),
                    ("keywords".to_string(), OValue::Text(t.into())),
                    (
                        "funding".to_string(),
                        OValue::Double(rng.gen_range(50_000.0..800_000.0)),
                    ),
                ];
                if class == "ClinicalTrial" {
                    attrs.push(("phase".to_string(), OValue::Int(rng.gen_range(1i64..4))));
                }
                store.create(class, attrs).expect("valid object");
            }
            methods.register("ResearchProject", "total_funding", |s, _r, _a| {
                let mut total = 0.0;
                for oid in s.instances_of("ResearchProject", true).unwrap_or_default() {
                    if let Ok(o) = s.object(oid) {
                        total += o.get("funding").as_double().unwrap_or(0.0);
                    }
                }
                Ok(OValue::Double(total))
            });
        }
        "Queensland Cancer Fund" => {
            store
                .define_class(
                    ClassDef::root("Grant")
                        .attr("recipient", OType::Text)
                        .attr("amount", OType::Double)
                        .attr("year", OType::Int),
                )
                .expect("fresh class");
            for _ in 0..12 {
                store
                    .create(
                        "Grant",
                        [
                            ("recipient".to_string(), OValue::Text(person_name(rng))),
                            (
                                "amount".to_string(),
                                OValue::Double(rng.gen_range(10_000.0..200_000.0)),
                            ),
                            (
                                "year".to_string(),
                                OValue::Int(rng.gen_range(1994i64..1999)),
                            ),
                        ],
                    )
                    .expect("valid object");
            }
        }
        "Ambulance" => {
            store
                .define_class(
                    ClassDef::root("Callout")
                        .attr("suburb", OType::Text)
                        .attr("priority", OType::Int)
                        .attr("minutes", OType::Int),
                )
                .expect("fresh class");
            for _ in 0..20 {
                store
                    .create(
                        "Callout",
                        [
                            (
                                "suburb".to_string(),
                                OValue::Text(SUBURBS[rng.gen_range(0..SUBURBS.len())].into()),
                            ),
                            ("priority".to_string(), OValue::Int(rng.gen_range(1i64..4))),
                            ("minutes".to_string(), OValue::Int(rng.gen_range(4i64..45))),
                        ],
                    )
                    .expect("valid object");
            }
        }
        "AMP" => {
            store
                .define_class(
                    ClassDef::root("Account")
                        .attr("holder", OType::Text)
                        .attr("balance", OType::Double),
                )
                .expect("fresh class");
            for _ in 0..18 {
                store
                    .create(
                        "Account",
                        [
                            ("holder".to_string(), OValue::Text(person_name(rng))),
                            (
                                "balance".to_string(),
                                OValue::Double(rng.gen_range(1_000.0..400_000.0)),
                            ),
                        ],
                    )
                    .expect("valid object");
            }
        }
        "Prince Charles Hospital" => {
            store
                .define_class(
                    ClassDef::root("Treatment")
                        .attr("name", OType::Text)
                        .attr("cost", OType::Double),
                )
                .expect("fresh class");
            store
                .define_class(
                    ClassDef::root("Ward")
                        .attr("name", OType::Text)
                        .attr("beds", OType::Int),
                )
                .expect("fresh class");
            let treatments = [
                ("dialysis", 850.0),
                ("bypass surgery", 24_000.0),
                ("chemotherapy", 3_200.0),
                ("physiotherapy", 120.0),
            ];
            for (name, cost) in treatments {
                store
                    .create(
                        "Treatment",
                        [
                            ("name".to_string(), OValue::Text(name.into())),
                            ("cost".to_string(), OValue::Double(cost)),
                        ],
                    )
                    .expect("valid object");
            }
            for (name, beds) in [("cardiac", 24i64), ("renal", 16), ("general", 40)] {
                store
                    .create(
                        "Ward",
                        [
                            ("name".to_string(), OValue::Text(name.into())),
                            ("beds".to_string(), OValue::Int(beds)),
                        ],
                    )
                    .expect("valid object");
            }
            methods.register("Treatment", "average_cost", |s, _r, _a| {
                let oids = s.instances_of("Treatment", true).unwrap_or_default();
                if oids.is_empty() {
                    return Ok(OValue::Null);
                }
                let sum: f64 = oids
                    .iter()
                    .filter_map(|o| s.object(*o).ok())
                    .filter_map(|o| o.get("cost").as_double())
                    .sum();
                Ok(OValue::Double(sum / oids.len() as f64))
            });
        }
        other => panic!("unknown object site {other}"),
    }
    (store, methods)
}

// ---- exported interfaces ----------------------------------------------

/// The exported interface of a relational site. RBH's matches the paper
/// (ResearchProjects + PatientHistory with the `Funding` and
/// `Description` functions); the rest export their primary table.
fn relational_interface(info: &DatabaseInfo) -> Vec<ExportedType> {
    match info.name {
        "Royal Brisbane Hospital" => vec![
            ExportedType {
                name: "ResearchProjects".into(),
                attributes: vec![
                    ("String".into(), "ResearchProjects.Title".into()),
                    ("string".into(), "ResearchProjects.keywords".into()),
                    ("Date".into(), "ResearchProjects.BeginDate".into()),
                ],
                functions: vec![ExportedFunction {
                    name: "Funding".into(),
                    params: vec!["ResearchProjects.Title x".into(), "Predicate(x)".into()],
                    returns: "real".into(),
                    description: "returns the budget of a given research project".into(),
                }],
                description: "research projects at the hospital".into(),
            },
            ExportedType {
                name: "PatientHistory".into(),
                attributes: vec![
                    ("string".into(), "Patient.Name".into()),
                    ("int".into(), "History.DateRecorded".into()),
                ],
                functions: vec![ExportedFunction {
                    name: "Description".into(),
                    params: vec![
                        "string Patient.Name".into(),
                        "int Date History.DateRecorded".into(),
                    ],
                    returns: "string".into(),
                    description: "the description of a patient sickness at a given date".into(),
                }],
                description: "patient medical histories".into(),
            },
        ],
        _ => {
            let table = match info.name {
                "QUT Research" => "ResearchProjects",
                "Medicare" => "Claims",
                "Medibank" => "Members",
                "Centre Link" => "Payments",
                "State Government Funding" => "Grants",
                "RBH Workers Union" => "Members",
                "Australian Taxation Office" => "Taxpayers",
                "MBF" => "Policies",
                _ => "Records",
            };
            vec![ExportedType {
                name: table.into(),
                attributes: Vec::new(),
                functions: Vec::new(),
                description: format!("{} of {}", table, info.name),
            }]
        }
    }
}

fn object_interface(info: &DatabaseInfo) -> Vec<ExportedType> {
    let class = match info.name {
        "RMIT Medical Research" => "ResearchProject",
        "Queensland Cancer Fund" => "Grant",
        "Ambulance" => "Callout",
        "AMP" => "Account",
        "Prince Charles Hospital" => "Treatment",
        _ => "Object",
    };
    vec![ExportedType {
        name: class.into(),
        attributes: Vec::new(),
        functions: Vec::new(),
        description: format!("{} extent of {}", class, info.name),
    }]
}

fn exec(db: &mut Database, sql: &str) {
    if let Err(e) = db.execute(sql) {
        panic!("seeding {}: {e}\n  sql: {sql}", db.name());
    }
}

/// Escape helper re-exported for deployment code building ad-hoc SQL.
pub fn escape(s: &str) -> String {
    sql_escape(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::databases;

    #[test]
    fn every_database_builds() {
        for info in databases() {
            match build_database(&info, 1999) {
                BuiltSource::Relational(db, iface) => {
                    assert!(!db.table_names().is_empty(), "{} has tables", info.name);
                    assert!(!iface.is_empty());
                }
                BuiltSource::Object(store, _, iface) => {
                    assert!(!store.class_names().is_empty(), "{} has classes", info.name);
                    assert!(store.object_count() > 0, "{} has objects", info.name);
                    assert!(!iface.is_empty());
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let info = databases()
            .into_iter()
            .find(|d| d.name == "Royal Brisbane Hospital")
            .unwrap();
        let count = |seed| match build_database(&info, seed) {
            BuiltSource::Relational(mut db, _) => {
                let rs = db
                    .execute("SELECT name FROM patient ORDER BY patient_id LIMIT 5")
                    .unwrap();
                format!("{:?}", rs.rows().unwrap().rows)
            }
            _ => unreachable!(),
        };
        assert_eq!(count(1999), count(1999));
        assert_ne!(count(1999), count(2000));
    }

    #[test]
    fn rbh_has_the_papers_schema_and_example_project() {
        let info = databases()
            .into_iter()
            .find(|d| d.name == "Royal Brisbane Hospital")
            .unwrap();
        let BuiltSource::Relational(mut db, iface) = build_database(&info, 1999) else {
            panic!("RBH is relational");
        };
        assert_eq!(
            db.table_names(),
            vec![
                "beds",
                "doctors",
                "history",
                "medical_students",
                "occupancy",
                "patient",
                "researchprojectattendants",
                "researchprojects",
            ]
        );
        // The paper's Funding() example must return the seeded budget.
        let rs = db
            .execute("SELECT a.funding FROM researchprojects a WHERE a.title = 'AIDS and drugs'")
            .unwrap();
        assert_eq!(
            rs.rows().unwrap().rows,
            vec![vec![webfindit_relstore::Datum::Double(250000.0)]]
        );
        // Exported interface matches §2.2.
        assert_eq!(iface.len(), 2);
        assert_eq!(iface[0].name, "ResearchProjects");
        assert_eq!(iface[1].name, "PatientHistory");
    }

    #[test]
    fn msql_sites_reject_aggregates_natively() {
        let info = databases()
            .into_iter()
            .find(|d| d.name == "Centre Link")
            .unwrap();
        let BuiltSource::Relational(mut db, _) = build_database(&info, 1999) else {
            panic!("Centre Link is relational");
        };
        assert!(db.execute("SELECT COUNT(*) FROM payments").is_err());
        assert!(db
            .execute("SELECT amount FROM payments WHERE client_id = 1")
            .is_ok());
    }

    #[test]
    fn prince_charles_average_cost_routine() {
        let info = databases()
            .into_iter()
            .find(|d| d.name == "Prince Charles Hospital")
            .unwrap();
        let BuiltSource::Object(store, methods, _) = build_database(&info, 1999) else {
            panic!("PCH is an object site");
        };
        let avg = methods
            .invoke_on_class(&store, "Treatment", None, "average_cost", &[])
            .unwrap();
        let v = avg.as_double().unwrap();
        assert!((7042.5 - v).abs() < 1e-9, "avg cost {v}");
    }
}
