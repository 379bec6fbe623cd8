//! The co-database proper: coalition lattice, memberships, service links.

use crate::descriptor::InformationSource;
use crate::{CodbError, CodbResult};
use std::collections::BTreeMap;
use webfindit_oostore::model::{ClassDef, OType, OValue};
use webfindit_oostore::{ObjectStore, Oid};

/// Root class name for the coalition lattice.
pub const INFORMATION_TYPE_ROOT: &str = "InformationType";

/// One endpoint of a service link.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum LinkEnd {
    /// A coalition, by name.
    Coalition(String),
    /// A database (information source), by name.
    Database(String),
}

impl LinkEnd {
    /// The endpoint's display name.
    pub fn name(&self) -> &str {
        match self {
            LinkEnd::Coalition(n) | LinkEnd::Database(n) => n,
        }
    }
}

impl std::fmt::Display for LinkEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkEnd::Coalition(n) => write!(f, "coalition {n}"),
            LinkEnd::Database(n) => write!(f, "database {n}"),
        }
    }
}

/// A service link: a low-overhead sharing agreement (§2.1 — the three
/// kinds are coalition↔coalition, database↔database, coalition↔database).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceLink {
    /// The offering end.
    pub from: LinkEnd,
    /// The consuming end.
    pub to: LinkEnd,
    /// The minimal description of the shared information type.
    pub description: String,
}

impl ServiceLink {
    /// The paper's naming convention, e.g. `SGF_to_Medical`.
    pub fn link_name(&self) -> String {
        format!(
            "{}_to_{}",
            self.from.name().replace(' ', ""),
            self.to.name().replace(' ', "")
        )
    }
}

/// A co-database: the metadata layer attached to one participating
/// database ("the proposed approach is enabled by the introduction of a
/// layer of meta-data that surrounds each local DBMS").
pub struct CoDatabase {
    /// The database this co-database belongs to.
    owner: String,
    /// The coalition lattice + source descriptors, stored as a real
    /// object database (the ObjectStore/Ontos role).
    store: ObjectStore,
    /// Full descriptors by lowercase source name (the oostore instance
    /// holds the flat advertisement; structured interfaces live here).
    descriptors: BTreeMap<String, InformationSource>,
    /// OID of each source's instance object per coalition.
    instances: BTreeMap<(String, String), Oid>,
    /// Known service links.
    links: Vec<ServiceLink>,
    /// Metadata version stamp: bumped by every successful mutation
    /// (coalition creation/dissolution, advertisement, withdrawal,
    /// link changes). Remote readers key cached answers on this stamp,
    /// so any registration or evolution invalidates their caches.
    version: u64,
}

impl CoDatabase {
    /// Create an empty co-database for `owner`.
    pub fn new(owner: impl Into<String>) -> CoDatabase {
        let owner = owner.into();
        let mut store = ObjectStore::new(format!("codb-{owner}"));
        store
            .define_class(
                ClassDef::root(INFORMATION_TYPE_ROOT)
                    .attr("name", OType::Text)
                    .attr("information_type", OType::Text)
                    .attr("documentation", OType::Text)
                    .attr("location", OType::Text)
                    .attr("wrapper", OType::Text)
                    .attr("interface", OType::List)
                    .doc("root of the information-type lattice"),
            )
            .expect("fresh store accepts the root class");
        CoDatabase {
            owner,
            store,
            descriptors: BTreeMap::new(),
            instances: BTreeMap::new(),
            links: Vec::new(),
            version: 0,
        }
    }

    /// The owning database's name.
    pub fn owner(&self) -> &str {
        &self.owner
    }

    /// The current metadata version stamp. Strictly increases with
    /// every successful mutation; equal stamps guarantee identical
    /// metadata, so cached answers keyed on a stamp are never stale.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Record one successful mutation.
    fn bump_version(&mut self) {
        self.version += 1;
    }

    /// Read access to the underlying object store (for OQL etc.).
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    // ---- coalitions -----------------------------------------------------

    /// Create a coalition class. `parent` of `None` attaches it under the
    /// information-type root; otherwise under the named coalition (the
    /// lattice can be arbitrarily deep: Research → MedicalResearch …).
    pub fn create_coalition(
        &mut self,
        name: &str,
        parent: Option<&str>,
        documentation: &str,
    ) -> CodbResult<()> {
        let parent_class = match parent {
            Some(p) => {
                self.coalition_exists(p)?;
                p.to_owned()
            }
            None => INFORMATION_TYPE_ROOT.to_owned(),
        };
        let def = ClassDef::root(name)
            .extends(parent_class)
            .doc(documentation);
        self.store.define_class(def).map_err(|e| match e {
            webfindit_oostore::OoError::ClassExists(c) => CodbError::CoalitionExists(c),
            other => CodbError::Oo(other),
        })?;
        self.bump_version();
        Ok(())
    }

    fn coalition_exists(&self, name: &str) -> CodbResult<()> {
        match self.store.class(name) {
            Ok(_) => Ok(()),
            Err(_) => Err(CodbError::NoSuchCoalition(name.to_owned())),
        }
    }

    /// All coalition names (everything in the lattice except the root).
    pub fn coalitions(&self) -> Vec<String> {
        self.store
            .class_names()
            .into_iter()
            .filter(|c| c != INFORMATION_TYPE_ROOT)
            .collect()
    }

    /// Direct subclasses of a coalition (or of the root).
    pub fn subclasses(&self, name: &str) -> CodbResult<Vec<String>> {
        self.store
            .subclasses(name)
            .map_err(|_| CodbError::NoSuchCoalition(name.to_owned()))
    }

    /// The documentation string of a coalition.
    pub fn coalition_documentation(&self, name: &str) -> CodbResult<String> {
        self.store
            .class(name)
            .map(|c| c.documentation.clone())
            .map_err(|_| CodbError::NoSuchCoalition(name.to_owned()))
    }

    // ---- sources ----------------------------------------------------------

    /// Advertise a source as a member of `coalition` (§2.2: "if the
    /// database administrator decides to make public some of these
    /// relations, they should be advertised through the co-database").
    pub fn advertise(&mut self, coalition: &str, source: InformationSource) -> CodbResult<()> {
        self.coalition_exists(coalition)?;
        let key = (
            coalition.to_ascii_lowercase(),
            source.name.to_ascii_lowercase(),
        );
        if self.instances.contains_key(&key) {
            return Err(CodbError::AlreadyMember {
                source: source.name,
                coalition: coalition.to_owned(),
            });
        }
        let iface: Vec<OValue> = source
            .interface_names()
            .into_iter()
            .map(OValue::Text)
            .collect();
        let oid = self.store.create(
            coalition,
            [
                ("name".to_string(), OValue::Text(source.name.clone())),
                (
                    "information_type".to_string(),
                    OValue::Text(source.information_type.clone()),
                ),
                (
                    "documentation".to_string(),
                    OValue::Text(source.documentation_url.clone()),
                ),
                (
                    "location".to_string(),
                    OValue::Text(source.location.clone()),
                ),
                ("wrapper".to_string(), OValue::Text(source.wrapper.clone())),
                ("interface".to_string(), OValue::List(iface)),
            ],
        )?;
        self.instances.insert(key, oid);
        self.descriptors
            .insert(source.name.to_ascii_lowercase(), source);
        self.bump_version();
        Ok(())
    }

    /// Withdraw a source from one coalition. The descriptor stays known
    /// while the source is a member of any other coalition.
    pub fn withdraw(&mut self, coalition: &str, source: &str) -> CodbResult<()> {
        let key = (coalition.to_ascii_lowercase(), source.to_ascii_lowercase());
        let oid = self
            .instances
            .remove(&key)
            .ok_or_else(|| CodbError::NoSuchSource(source.to_owned()))?;
        self.store.delete(oid)?;
        let still_member = self
            .instances
            .keys()
            .any(|(_, s)| s == &source.to_ascii_lowercase());
        if !still_member {
            self.descriptors.remove(&source.to_ascii_lowercase());
        }
        self.bump_version();
        Ok(())
    }

    /// Member source names of a coalition, including members of its
    /// sub-coalitions (instance closure).
    pub fn members(&self, coalition: &str) -> CodbResult<Vec<String>> {
        self.coalition_exists(coalition)?;
        let oids = self.store.instances_of(coalition, true)?;
        let mut names: Vec<&str> = oids
            .into_iter()
            .filter_map(|o| self.store.object(o).ok()?.get("name").as_text())
            .collect();
        names.sort_unstable();
        names.dedup();
        Ok(names.into_iter().map(str::to_owned).collect())
    }

    /// The coalitions a source belongs to (direct memberships).
    pub fn memberships(&self, source: &str) -> Vec<String> {
        let s = source.to_ascii_lowercase();
        let mut out: Vec<String> = self
            .instances
            .keys()
            .filter(|(_, src)| *src == s)
            .map(|(c, _)| {
                // Canonical case from the class definition.
                self.store
                    .class(c)
                    .map(|d| d.name.clone())
                    .unwrap_or_else(|_| c.clone())
            })
            .collect();
        out.sort();
        out
    }

    /// Full descriptor of a source (the `Display Access Information`
    /// payload).
    pub fn descriptor(&self, source: &str) -> CodbResult<&InformationSource> {
        self.descriptors
            .get(&source.to_ascii_lowercase())
            .ok_or_else(|| CodbError::NoSuchSource(source.to_owned()))
    }

    /// All advertised source names.
    pub fn sources(&self) -> Vec<String> {
        self.descriptors.values().map(|d| d.name.clone()).collect()
    }

    /// Direct member names of one coalition (no subclass closure) —
    /// used by dissolution, which walks the doomed subtree itself.
    pub fn members_direct(&self, coalition: &str) -> Vec<String> {
        let c = coalition.to_ascii_lowercase();
        let mut out: Vec<String> = self
            .instances
            .iter()
            .filter(|((co, _), _)| *co == c)
            .filter_map(|((_, _), oid)| {
                self.store
                    .object(*oid)
                    .ok()
                    .and_then(|obj| obj.get("name").as_text().map(str::to_owned))
            })
            .collect();
        out.sort();
        out
    }

    /// Drop the coalition's class subtree from the lattice. Membership
    /// bookkeeping must already be clean (dissolution withdraws first);
    /// any stragglers are cleaned defensively.
    pub(crate) fn drop_coalition_classes(&mut self, name: &str) -> CodbResult<Vec<String>> {
        let removed = self
            .store
            .drop_class(name)
            .map_err(|_| CodbError::NoSuchCoalition(name.to_owned()))?;
        let removed_keys: std::collections::BTreeSet<String> =
            removed.iter().map(|c| c.to_ascii_lowercase()).collect();
        self.instances.retain(|(c, _), _| !removed_keys.contains(c));
        self.bump_version();
        Ok(removed)
    }

    // ---- service links ------------------------------------------------------

    /// Record a service link.
    pub fn add_service_link(&mut self, link: ServiceLink) -> CodbResult<()> {
        if self
            .links
            .iter()
            .any(|l| l.from == link.from && l.to == link.to)
        {
            return Err(CodbError::DuplicateLink);
        }
        self.links.push(link);
        self.bump_version();
        Ok(())
    }

    /// Remove a service link by endpoints. Returns true if found.
    pub fn remove_service_link(&mut self, from: &LinkEnd, to: &LinkEnd) -> bool {
        let before = self.links.len();
        self.links.retain(|l| !(&l.from == from && &l.to == to));
        if self.links.len() != before {
            self.bump_version();
            return true;
        }
        false
    }

    /// All known service links.
    pub fn service_links(&self) -> &[ServiceLink] {
        &self.links
    }

    // ---- information-type matching -----------------------------------------

    /// Coalitions in this co-database that advertise `information_type`:
    /// matched against coalition names, their documentation, and their
    /// members' advertised information types (case-insensitive word
    /// containment both ways).
    pub fn find_coalitions(&self, information_type: &str) -> Vec<String> {
        let needle = information_type.to_ascii_lowercase();
        let mut out = Vec::new();
        for class in self.coalitions() {
            let doc = self
                .coalition_documentation(&class)
                .unwrap_or_default()
                .to_ascii_lowercase();
            let class_l = class.to_ascii_lowercase();
            let mut hit = topic_matches(&class_l, &needle) || topic_matches(&doc, &needle);
            if !hit {
                if let Ok(oids) = self.store.instances_of(&class, false) {
                    hit = oids.iter().any(|o| {
                        self.store
                            .object(*o)
                            .ok()
                            .and_then(|obj| {
                                obj.get("information_type")
                                    .as_text()
                                    .map(|t| topic_matches(&t.to_ascii_lowercase(), &needle))
                            })
                            .unwrap_or(false)
                    });
                }
            }
            if hit {
                out.push(class);
            }
        }
        out
    }

    /// Service links whose description matches `information_type`.
    pub fn find_links(&self, information_type: &str) -> Vec<&ServiceLink> {
        let needle = information_type.to_ascii_lowercase();
        self.links
            .iter()
            .filter(|l| topic_matches(&l.description.to_ascii_lowercase(), &needle))
            .collect()
    }
}

/// Loose topic matching: every word of the query must appear in the
/// candidate, or the candidate (as a phrase) must appear in the query.
/// "Medical Research" thus matches the coalition "Research" documented
/// as "medical research conducted in hospitals", and also a coalition
/// literally named "MedicalResearch".
pub fn topic_matches(candidate: &str, query: &str) -> bool {
    if candidate.is_empty() || query.is_empty() {
        return false;
    }
    let compact_candidate: String = candidate
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect();
    let words: Vec<&str> = query
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|w| !w.is_empty())
        .collect();
    if words
        .iter()
        .all(|w| candidate.contains(w) || compact_candidate.contains(w))
    {
        return true;
    }
    // Or: candidate phrase inside query ("medical" inside "medical insurance").
    query.contains(candidate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rbh_source() -> InformationSource {
        InformationSource {
            name: "Royal Brisbane Hospital".into(),
            information_type: "Research and Medical".into(),
            documentation_url: "http://www.medicine.uq.edu.au/RBH".into(),
            location: "dba.icis.qut.edu.au".into(),
            wrapper: "dba.icis.qut.edu.au/WebTassiliOracle".into(),
            interface: Vec::new(),
        }
    }

    fn codb() -> CoDatabase {
        let mut c = CoDatabase::new("Royal Brisbane Hospital");
        c.create_coalition("Research", None, "medical research conducted in hospitals")
            .unwrap();
        c.create_coalition("Medical", None, "hospitals and medical providers")
            .unwrap();
        c.create_coalition("CancerResearch", Some("Research"), "cancer research")
            .unwrap();
        c.advertise("Research", rbh_source()).unwrap();
        c.advertise("Medical", rbh_source()).unwrap();
        c
    }

    #[test]
    fn coalition_lattice() {
        let mut c = codb();
        assert_eq!(
            c.coalitions(),
            vec!["CancerResearch", "Medical", "Research"]
        );
        assert_eq!(c.subclasses("Research").unwrap(), vec!["CancerResearch"]);
        assert!(matches!(
            c.subclasses("Ghost"),
            Err(CodbError::NoSuchCoalition(_))
        ));
        assert!(matches!(
            c.create_coalition("Research", None, ""),
            Err(CodbError::CoalitionExists(_))
        ));
    }

    #[test]
    fn membership_and_descriptor() {
        let c = codb();
        assert_eq!(
            c.members("Research").unwrap(),
            vec!["Royal Brisbane Hospital"]
        );
        assert_eq!(
            c.memberships("royal brisbane hospital"),
            vec!["Medical", "Research"]
        );
        let d = c.descriptor("Royal Brisbane Hospital").unwrap();
        assert_eq!(d.location, "dba.icis.qut.edu.au");
        assert!(matches!(
            c.descriptor("Ghost"),
            Err(CodbError::NoSuchSource(_))
        ));
    }

    #[test]
    fn duplicate_membership_rejected() {
        let mut c = codb();
        assert!(matches!(
            c.advertise("Research", rbh_source()),
            Err(CodbError::AlreadyMember { .. })
        ));
    }

    #[test]
    fn withdraw_keeps_descriptor_until_last_membership() {
        let mut c = codb();
        c.withdraw("Research", "Royal Brisbane Hospital").unwrap();
        assert!(c.descriptor("Royal Brisbane Hospital").is_ok());
        assert_eq!(c.memberships("Royal Brisbane Hospital"), vec!["Medical"]);
        c.withdraw("Medical", "Royal Brisbane Hospital").unwrap();
        assert!(c.descriptor("Royal Brisbane Hospital").is_err());
        assert!(c.withdraw("Medical", "Royal Brisbane Hospital").is_err());
    }

    #[test]
    fn member_closure_includes_subcoalitions() {
        let mut c = codb();
        let mut qcf = rbh_source();
        qcf.name = "Queensland Cancer Fund".into();
        qcf.information_type = "cancer research".into();
        c.advertise("CancerResearch", qcf).unwrap();
        let members = c.members("Research").unwrap();
        assert_eq!(
            members,
            vec!["Queensland Cancer Fund", "Royal Brisbane Hospital"]
        );
    }

    #[test]
    fn service_links() {
        let mut c = codb();
        let link = ServiceLink {
            from: LinkEnd::Coalition("Medical".into()),
            to: LinkEnd::Coalition("Medical Insurance".into()),
            description: "medical insurance information".into(),
        };
        c.add_service_link(link.clone()).unwrap();
        assert!(matches!(
            c.add_service_link(link.clone()),
            Err(CodbError::DuplicateLink)
        ));
        assert_eq!(link.link_name(), "Medical_to_MedicalInsurance");
        assert_eq!(c.service_links(), std::slice::from_ref(&link));
        assert_eq!(c.find_links("medical insurance").len(), 1);
        assert!(c.remove_service_link(&link.from, &link.to));
        assert!(!c.remove_service_link(&link.from, &link.to));
    }

    #[test]
    fn find_coalitions_by_name_doc_and_member_types() {
        let c = codb();
        // By documentation: the paper's Medical Research query.
        let hits = c.find_coalitions("Medical Research");
        assert!(hits.contains(&"Research".to_string()), "{hits:?}");
        // By class name.
        assert!(c
            .find_coalitions("cancerresearch")
            .contains(&"CancerResearch".to_string()));
        // By member's information type ("Research and Medical").
        assert!(c
            .find_coalitions("Medical")
            .contains(&"Medical".to_string()));
        // Miss.
        assert!(c.find_coalitions("astrophysics").is_empty());
    }

    #[test]
    fn version_stamp_tracks_every_mutation() {
        let mut c = CoDatabase::new("RBH");
        assert_eq!(c.version(), 0);
        c.create_coalition("Research", None, "research").unwrap();
        let v1 = c.version();
        assert!(v1 > 0);
        // Failed mutations leave the stamp unchanged.
        assert!(c.create_coalition("Research", None, "").is_err());
        assert_eq!(c.version(), v1);
        c.advertise("Research", rbh_source()).unwrap();
        let v2 = c.version();
        assert!(v2 > v1);
        // Reads never move the stamp.
        let _ = c.members("Research").unwrap();
        let _ = c.find_coalitions("research");
        assert_eq!(c.version(), v2);
        let link = ServiceLink {
            from: LinkEnd::Coalition("Research".into()),
            to: LinkEnd::Database("ATO".into()),
            description: "grants".into(),
        };
        c.add_service_link(link.clone()).unwrap();
        let v3 = c.version();
        assert!(v3 > v2);
        assert!(c.remove_service_link(&link.from, &link.to));
        let v4 = c.version();
        assert!(v4 > v3);
        // A no-op removal does not bump.
        assert!(!c.remove_service_link(&link.from, &link.to));
        assert_eq!(c.version(), v4);
        c.withdraw("Research", "Royal Brisbane Hospital").unwrap();
        assert!(c.version() > v4);
    }

    #[test]
    fn topic_matching_rules() {
        assert!(topic_matches("research", "medical research")); // phrase containment
        assert!(topic_matches(
            "medical research conducted",
            "medical research"
        ));
        assert!(topic_matches("medicalresearch", "medical research")); // compact form
        assert!(!topic_matches("insurance", "medical research"));
        assert!(!topic_matches("", "x"));
        assert!(!topic_matches("x", ""));
    }
}
