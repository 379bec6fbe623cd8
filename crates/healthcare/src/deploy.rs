//! Standing up the healthcare federation (§4–5).

use crate::schemas::{build_database, BuiltSource};
use crate::topology::{coalitions, databases, service_links, OrbName};
use std::sync::Arc;
use webfindit::docs::{DocFormat, Document};
use webfindit::federation::{Federation, SiteSpec, SiteVendor};
use webfindit::orb::chaos::{ChaosPlan, ChaosRegistry, ChaosTargets};
use webfindit::wire::cdr::ByteOrder;
use webfindit::WfResult;
use webfindit_relstore::file_mgr::SimVfs;
use webfindit_relstore::Dialect;

/// A running healthcare deployment.
pub struct HealthcareDeployment {
    /// The federation.
    pub fed: Arc<Federation>,
    /// Total ORB invocations spent wiring coalitions and links.
    pub wiring_calls: u64,
    /// The seed used for data generation.
    pub seed: u64,
}

impl HealthcareDeployment {
    /// The sites and advertised ORB endpoints a chaos plan may target
    /// in this deployment.
    pub fn chaos_targets(&self) -> ChaosTargets {
        self.fed.chaos_targets()
    }

    /// Generate a seeded, replayable fault schedule of `events` events
    /// against this deployment's sites and endpoints. The same seed over
    /// the same topology yields the identical schedule, so a chaos run
    /// can be reproduced exactly from its seed alone.
    pub fn chaos_plan(&self, seed: u64, events: usize) -> ChaosPlan {
        ChaosPlan::generate(seed, &self.chaos_targets(), events)
    }

    /// The fault-control plane shared by every channel in the
    /// federation's ORB domain.
    pub fn chaos_registry(&self) -> Arc<ChaosRegistry> {
        self.fed.chaos_registry()
    }
}

/// Build the full 14-database healthcare federation: three ORBs
/// (Orbix big-endian C++-flavored, OrbixWeb and VisiBroker
/// little-endian Java-flavored), every database with its co-database,
/// the five coalitions, the nine service links, and the documentation
/// store contents.
pub fn build_healthcare(seed: u64) -> WfResult<HealthcareDeployment> {
    build_healthcare_with(seed, false)
}

/// [`build_healthcare`], but every relational site gets the durable
/// storage tier on its own simulated disk ([`SimVfs`]): its generated
/// data is written as the initial checkpoint, and from then on commits
/// go through the WAL. Killing a hosting ORB then loses the site's
/// volatile state exactly as a machine crash would, and restarting it
/// runs crash recovery — the committed rows survive, in-flight
/// transactions do not. Object sites stay in-memory (the paper's
/// Ontos/ObjectStore wrappers never promised durability).
pub fn build_healthcare_durable(seed: u64) -> WfResult<HealthcareDeployment> {
    build_healthcare_with(seed, true)
}

fn build_healthcare_with(seed: u64, durable: bool) -> WfResult<HealthcareDeployment> {
    let fed = Federation::new()?;

    // Figure 2's three ORBs. Byte orders differ so cross-ORB calls are
    // genuinely cross-endian.
    fed.add_orb("Orbix", "orbix.qut.edu.au", 9000, ByteOrder::BigEndian)?;
    fed.add_orb(
        "OrbixWeb",
        "orbixweb.qut.edu.au",
        9001,
        ByteOrder::LittleEndian,
    )?;
    fed.add_orb(
        "VisiBroker",
        "visibroker.qut.edu.au",
        9002,
        ByteOrder::LittleEndian,
    )?;

    // The fourteen sites.
    for info in databases() {
        let orb = match info.dbms.orb() {
            OrbName::Orbix => "Orbix",
            OrbName::OrbixWeb => "OrbixWeb",
            OrbName::VisiBroker => "VisiBroker",
        };
        let built = build_database(&info, seed);
        let vendor = match &built {
            BuiltSource::Relational(db, _) => match db.dialect() {
                Dialect::Oracle => SiteVendor::Relational(Dialect::Oracle),
                Dialect::MSql => SiteVendor::Relational(Dialect::MSql),
                Dialect::Db2 => SiteVendor::Relational(Dialect::Db2),
                Dialect::Sybase => SiteVendor::Relational(Dialect::Sybase),
                Dialect::Canonical => SiteVendor::Relational(Dialect::Canonical),
            },
            BuiltSource::Object(..) => match info.dbms {
                crate::topology::Dbms::Ontos => SiteVendor::Ontos,
                _ => SiteVendor::ObjectStore,
            },
        };
        let interface = match &built {
            BuiltSource::Relational(_, iface) => iface.clone(),
            BuiltSource::Object(_, _, iface) => iface.clone(),
        };
        let spec = SiteSpec {
            name: info.name.to_owned(),
            orb: orb.to_owned(),
            vendor,
            host: info.host.to_owned(),
            information_type: info.information_type.to_owned(),
            documentation_url: info.documentation_url.to_owned(),
            interface,
        };
        match built {
            BuiltSource::Relational(mut db, _) => {
                if durable {
                    db.make_durable(SimVfs::new())
                        .map_err(webfindit_connect::ConnectError::Rel)?;
                }
                fed.add_relational_site(spec, *db)?;
            }
            BuiltSource::Object(store, methods, _) => {
                fed.add_object_site(spec, store, methods)?;
            }
        }
        publish_documentation(&fed, &info);
    }

    // Coalitions and service links from Figure 1.
    let mut wiring_calls = 0;
    for (name, doc, members) in coalitions() {
        wiring_calls += fed.form_coalition(name, None, doc, &members)?;
    }
    for link in service_links() {
        wiring_calls += fed.add_service_link(&link)?;
    }

    // Lattice refinement: the Figure-4 session displays SubClasses of
    // Research, so the taxonomy has at least one level below the
    // coalitions. Cancer Research specializes Research; every Research
    // member learns the subclass, with Queensland Cancer Fund as its
    // instance.
    {
        use webfindit::codb;
        let qcf = fed.site("Queensland Cancer Fund")?;
        let research_members = coalitions()
            .into_iter()
            .find(|(n, _, _)| *n == "Research")
            .map(|(_, _, m)| m)
            .unwrap_or_default();
        for member in research_members {
            let site = fed.site(member)?;
            let create = codb::CreateCoalition {
                name: "Cancer Research".into(),
                parent: Some("Research".into()),
                documentation: "cancer-specific medical research".into(),
            };
            fed.call(&site.codb_ior, create)?;
            let advertise = codb::Advertise {
                coalition: "Cancer Research".into(),
                descriptor: qcf.descriptor.clone(),
            };
            fed.call(&site.codb_ior, advertise)?;
            wiring_calls += 2;
        }
    }

    Ok(HealthcareDeployment {
        fed,
        wiring_calls,
        seed,
    })
}

/// Publish the documentation the Figure-4 format picker offers. RBH
/// gets text, HTML (the Figure-5 page), and a Java-applet placeholder.
fn publish_documentation(fed: &Arc<Federation>, info: &crate::topology::DatabaseInfo) {
    let docs = fed.docs();
    docs.publish(
        info.documentation_url,
        Document {
            format: DocFormat::Text,
            content: format!(
                "{} — {}. Hosted at {} on {}.",
                info.name,
                info.information_type,
                info.host,
                info.dbms.name()
            ),
        },
    );
    if info.name == "Royal Brisbane Hospital" {
        docs.publish(
            info.documentation_url,
            Document {
                format: DocFormat::Html,
                content: "<html><head><title>Royal Brisbane Hospital</title></head>\n\
                          <body>\n<h1>Royal Brisbane Hospital</h1>\n\
                          <p>The Royal Brisbane Hospital is a teaching hospital \
                          conducting medical research and providing patient care. \
                          Its database exports the ResearchProjects and \
                          PatientHistory types.</p>\n\
                          <p>Contact: dba.icis.qut.edu.au</p>\n</body></html>"
                    .to_owned(),
            },
        );
        docs.publish(
            info.documentation_url,
            Document {
                format: DocFormat::Applet,
                content: "applet: RBHVirtualTour.class (video clip of the campus)".to_owned(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_deployment_comes_up() {
        let dep = build_healthcare(1999).unwrap();
        // 14 sites, 3 ORBs (plus the bootstrap one), 28 servants (a
        // co-database and an ISI per site).
        assert_eq!(dep.fed.site_names().len(), 14);
        assert_eq!(dep.fed.orb_names().len(), 3);
        let mut servants = 0;
        for orb_name in dep.fed.orb_names() {
            servants += dep.fed.orb(&orb_name).unwrap().adapter().len();
        }
        assert_eq!(servants, 28, "14 co-databases + 14 ISIs");
        assert!(dep.wiring_calls > 0);
        dep.fed.shutdown();
    }

    #[test]
    fn durable_deployment_survives_an_orb_crash() {
        let dep = build_healthcare_durable(1999).unwrap();
        let rbh = dep.fed.site("Royal Brisbane Hospital").unwrap();
        let parts = webfindit_connect::parse_url(&rbh.url).unwrap();
        let registry = dep.fed.registry();
        let db = registry.relational(parts.vendor, parts.instance).unwrap();
        assert!(db.lock().is_durable());

        // Committed work before the crash...
        let baseline = db
            .lock()
            .execute("SELECT COUNT(*) c FROM researchprojects")
            .unwrap()
            .rows()
            .unwrap()
            .rows[0][0]
            .clone();
        db.lock()
            .execute("INSERT INTO researchprojects VALUES (9001, 'Durability study', 'wal, recovery', 3, '1999-01-01', NULL, 42000.0)")
            .unwrap();
        // ...and an in-flight transaction that must not survive.
        {
            let mut guard = db.lock();
            guard.begin().unwrap();
            guard
                .execute("INSERT INTO researchprojects VALUES (9002, 'Lost update', 'none', 3, '1999-01-02', NULL, 1.0)")
                .unwrap();
        }

        dep.fed.kill_orb(&rbh.orb_name).unwrap();
        assert!(db.lock().is_crashed(), "durable site dies with its ORB");
        dep.fed.restart_orb(&rbh.orb_name).unwrap();

        let mut guard = db.lock();
        assert!(!guard.is_crashed(), "restart runs recovery");
        let committed = guard
            .execute("SELECT project_id FROM researchprojects WHERE project_id >= 9001")
            .unwrap();
        assert_eq!(
            committed.rows().unwrap().rows,
            vec![vec![webfindit_relstore::Datum::Int(9001)]],
            "committed row survives, in-flight row does not"
        );
        let after = guard
            .execute("SELECT COUNT(*) c FROM researchprojects")
            .unwrap()
            .rows()
            .unwrap()
            .rows[0][0]
            .clone();
        assert_eq!(
            after,
            match baseline {
                webfindit_relstore::Datum::Int(n) => webfindit_relstore::Datum::Int(n + 1),
                other => other,
            }
        );
        drop(guard);
        dep.fed.shutdown();
    }

    #[test]
    fn chaos_plans_replay_over_the_real_topology() {
        let dep = build_healthcare(1999).unwrap();
        let targets = dep.chaos_targets();
        assert_eq!(targets.sites.len(), 14);
        assert_eq!(targets.endpoints.len(), 3, "one endpoint per named ORB");
        let a = dep.chaos_plan(7, 10);
        let b = dep.chaos_plan(7, 10);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), dep.chaos_plan(8, 10).digest());
        dep.fed.shutdown();
    }

    #[test]
    fn rbh_codb_knows_its_two_coalitions_and_links() {
        let dep = build_healthcare(1999).unwrap();
        let rbh = dep.fed.site("Royal Brisbane Hospital").unwrap();
        let codb = rbh.codb.read();
        let memberships = codb.memberships("Royal Brisbane Hospital");
        assert!(
            memberships.contains(&"Research".to_string()),
            "{memberships:?}"
        );
        assert!(
            memberships.contains(&"Medical".to_string()),
            "{memberships:?}"
        );
        // Links involving Medical are known at RBH (a Medical member).
        assert!(codb
            .service_links()
            .iter()
            .any(|l| l.from.name() == "Medical" || l.to.name() == "Medical"));
        drop(codb);
        dep.fed.shutdown();
    }
}
