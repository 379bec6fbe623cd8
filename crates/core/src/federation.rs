//! Federation deployment: ORBs, sites, naming, and metadata wiring.
//!
//! A [`Federation`] owns the moving parts of one WebFINDIT deployment:
//! the ORB domain with its ORB instances, the data-source registry and
//! driver manager, the naming service (hosted on a bootstrap ORB), the
//! document store, and one [`SiteHandle`] per participating database —
//! each site being a database + co-database pair exported as two CORBA
//! servants.
//!
//! The metadata-propagation helpers ([`Federation::form_coalition`],
//! [`Federation::join_coalition`], [`Federation::add_service_link`], …)
//! implement the paper's registration semantics: every member of a
//! coalition stores the coalition and descriptions of *all* its
//! members in its own co-database. Propagation happens through real
//! ORB invocations on the co-database servants, so the churn
//! experiments can count its cost in IIOP round-trips.

use crate::discovery::DiscoveryMetrics;
use crate::docs::DocStore;
use crate::failure::is_breaker_rejection;
use crate::fedquery::FedMetrics;
use crate::servants::{link_to_value, CoDatabaseServant, IsiServant, StallGate};
use crate::value_map::{descriptor_to_value, value_to_strings};
use crate::{WebfinditError, WfResult};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use webfindit_base::sync::RwLock;
use webfindit_codb::{CoDatabase, InformationSource, ServiceLink};
use webfindit_connect::manager::standard_manager;
use webfindit_connect::{BridgeKind, DataSourceRegistry, DriverManager};
use webfindit_oostore::method::MethodTable;
use webfindit_oostore::ObjectStore;
use webfindit_orb::chaos::{ChaosHost, ChaosRegistry, ChaosTargets};
use webfindit_orb::naming::{IorCache, NamingClient, NamingService, NAMING_OBJECT_KEY};
use webfindit_orb::{CallOptions, Invocation, Orb, OrbConfig, OrbDomain};
use webfindit_relstore::{Database, Dialect};
use webfindit_wire::cdr::ByteOrder;
use webfindit_wire::{CdrReader, Ior, Value};

/// Which product a site runs, deciding dialect, URL scheme, and bridge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteVendor {
    /// A relational product (Oracle, mSQL, DB2, Sybase).
    Relational(Dialect),
    /// The Ontos object database (reached over JNI).
    Ontos,
    /// The ObjectStore object database (reached over C++ invocation).
    ObjectStore,
}

impl SiteVendor {
    /// Product name as shown in deployment listings.
    pub fn product(&self) -> &'static str {
        match self {
            SiteVendor::Relational(d) => d.name(),
            SiteVendor::Ontos => "Ontos",
            SiteVendor::ObjectStore => "ObjectStore",
        }
    }

    /// The bridge kind connections will use.
    pub fn bridge(&self) -> BridgeKind {
        match self {
            SiteVendor::Relational(_) => BridgeKind::Jdbc,
            SiteVendor::Ontos => BridgeKind::Jni,
            SiteVendor::ObjectStore => BridgeKind::NativeCpp,
        }
    }

    fn url(&self, host: &str, instance: &str) -> String {
        match self {
            SiteVendor::Relational(d) => {
                let vendor = match d {
                    Dialect::Oracle => "oracle",
                    Dialect::MSql => "msql",
                    Dialect::Db2 => "db2",
                    Dialect::Sybase => "sybase",
                    Dialect::Canonical => "canonical",
                };
                format!("jdbc:{vendor}://{host}/{instance}")
            }
            SiteVendor::Ontos => format!("jni:ontos://{host}/{instance}"),
            SiteVendor::ObjectStore => format!("native:objectstore://{host}/{instance}"),
        }
    }

    fn registry_vendor(&self) -> &'static str {
        match self {
            SiteVendor::Relational(Dialect::Oracle) => "oracle",
            SiteVendor::Relational(Dialect::MSql) => "msql",
            SiteVendor::Relational(Dialect::Db2) => "db2",
            SiteVendor::Relational(Dialect::Sybase) => "sybase",
            SiteVendor::Relational(Dialect::Canonical) => "canonical",
            SiteVendor::Ontos => "ontos",
            SiteVendor::ObjectStore => "objectstore",
        }
    }
}

/// Everything needed to deploy one site.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// Site (database) name, e.g. `"Royal Brisbane Hospital"`.
    pub name: String,
    /// Name of the ORB hosting this site's servants.
    pub orb: String,
    /// Product.
    pub vendor: SiteVendor,
    /// Advertised host.
    pub host: String,
    /// Advertised information type, e.g. `"Research and Medical"`.
    pub information_type: String,
    /// Documentation URL.
    pub documentation_url: String,
    /// Exported interface.
    pub interface: Vec<webfindit_codb::ExportedType>,
}

/// A deployed site: handles to its servants and metadata.
#[derive(Clone)]
pub struct SiteHandle {
    /// Site name.
    pub name: String,
    /// Hosting ORB's name.
    pub orb_name: String,
    /// Product name.
    pub product: String,
    /// Bridge kind used by the ISI.
    pub bridge: BridgeKind,
    /// Connection URL the ISI uses.
    pub url: String,
    /// The site's co-database (shared with its servant).
    pub codb: Arc<RwLock<CoDatabase>>,
    /// IOR of the co-database servant.
    pub codb_ior: Ior,
    /// IOR of the information-source-interface servant.
    pub isi_ior: Ior,
    /// The ISI servant itself: it owns the site's data-layer counters
    /// and is re-activated as-is when its hosting ORB restarts.
    pub isi: Arc<IsiServant>,
    /// The full advertisement descriptor.
    pub descriptor: InformationSource,
    /// Shared stall gate of the co-database servant (chaos hook).
    pub stall: StallGate,
    /// Shared stall gate of the ISI servant (chaos hook; tests use it to
    /// shape per-site data-path latency independently of metadata).
    pub isi_stall: StallGate,
}

/// One WebFINDIT deployment.
pub struct Federation {
    domain: Arc<OrbDomain>,
    registry: Arc<DataSourceRegistry>,
    manager: Arc<DriverManager>,
    docs: Arc<DocStore>,
    orbs: RwLock<BTreeMap<String, Arc<Orb>>>,
    sites: RwLock<BTreeMap<String, SiteHandle>>,
    bootstrap_orb: Arc<Orb>,
    naming: Arc<NamingService>,
    naming_ior: Ior,
    /// Shared TTL'd cache of naming resolutions, consulted by every
    /// [`Federation::naming_client`] stub. Entries are invalidated
    /// eagerly when an invocation on a cached reference fails.
    ior_cache: Arc<IorCache>,
    /// Per-call policy (deadline, retry) applied to every outgoing
    /// invocation made on this federation's behalf.
    call_options: RwLock<CallOptions>,
    /// ORBs currently killed by a chaos plan (kill is idempotent;
    /// restart only brings back what kill took down).
    downed_orbs: RwLock<BTreeSet<String>>,
    /// Counters of every discovery engine run over this federation.
    discovery_metrics: DiscoveryMetrics,
    /// Counters of every federated executor run over this federation.
    fed_metrics: FedMetrics,
}

impl Federation {
    /// Create a federation with a bootstrap ORB hosting the naming
    /// service.
    pub fn new() -> WfResult<Arc<Federation>> {
        let domain = OrbDomain::new();
        let registry = DataSourceRegistry::new();
        let manager = Arc::new(standard_manager(Arc::clone(&registry)));
        let bootstrap_orb = Orb::start(
            OrbConfig::new(
                "WebFINDIT-UI",
                "ui.webfindit.net",
                9999,
                ByteOrder::BigEndian,
            ),
            Arc::clone(&domain),
        )?;
        let naming = NamingService::new();
        let naming_ior = bootstrap_orb.activate(NAMING_OBJECT_KEY, Arc::clone(&naming) as _);
        Ok(Arc::new(Federation {
            domain,
            registry,
            manager,
            docs: Arc::new(DocStore::new()),
            orbs: RwLock::new(BTreeMap::new()),
            sites: RwLock::new(BTreeMap::new()),
            bootstrap_orb,
            naming,
            naming_ior,
            ior_cache: IorCache::new(std::time::Duration::from_secs(30)),
            call_options: RwLock::new(CallOptions::default()),
            downed_orbs: RwLock::new(BTreeSet::new()),
            discovery_metrics: DiscoveryMetrics::default(),
            fed_metrics: FedMetrics::default(),
        }))
    }

    /// The shared ORB domain.
    pub fn domain(&self) -> &Arc<OrbDomain> {
        &self.domain
    }

    /// The data-source registry.
    pub fn registry(&self) -> &Arc<DataSourceRegistry> {
        &self.registry
    }

    /// The driver manager.
    pub fn manager(&self) -> &Arc<DriverManager> {
        &self.manager
    }

    /// The document store (the Web stand-in).
    pub fn docs(&self) -> &Arc<DocStore> {
        &self.docs
    }

    /// The ORB the query layer uses for its outgoing invocations.
    pub fn client_orb(&self) -> &Arc<Orb> {
        &self.bootstrap_orb
    }

    /// Fan-out and answer-cache counters, bumped by every
    /// [`crate::DiscoveryEngine`] over this federation.
    pub fn discovery_metrics(&self) -> &DiscoveryMetrics {
        &self.discovery_metrics
    }

    /// Federated-query counters, bumped by every
    /// [`crate::FedExecutor`] over this federation.
    pub fn fed_metrics(&self) -> &FedMetrics {
        &self.fed_metrics
    }

    /// The per-call policy applied to the federation's invocations.
    pub fn call_options(&self) -> CallOptions {
        self.call_options.read().clone()
    }

    /// Replace the per-call policy (deadline, retry) used for every
    /// subsequent invocation the federation's layers make.
    pub fn set_call_options(&self, options: CallOptions) {
        *self.call_options.write() = options;
    }

    /// Invoke an operation through the client ORB under the
    /// federation-wide [`CallOptions`]. All query-layer components
    /// (discovery, query processor, baselines) route through this, so a
    /// deadline set on the federation bounds every remote hop.
    pub fn invoke(&self, ior: &Ior, operation: &str, args: &[Value]) -> WfResult<Value> {
        self.invoke_as(ior, operation, args, |r| Ok(Value::decode(r)?))
    }

    /// [`Federation::invoke`] with the caller's decoder of a successful
    /// result (see [`Orb::invoke_as`]).
    pub fn invoke_as<T>(
        &self,
        ior: &Ior,
        operation: &str,
        args: &[Value],
        decode: impl Fn(&mut CdrReader<'_>) -> WfResult<T>,
    ) -> WfResult<T> {
        self.bootstrap_orb
            .invoke_as(ior, operation, args, &self.call_options(), decode)
    }

    /// Pipeline `operation` on every `(target, args)` through the client
    /// ORB under the federation-wide [`CallOptions`] (see
    /// [`Orb::invoke_all`]); the outcomes come back in call order.
    pub fn invoke_all(
        &self,
        operation: &str,
        calls: &[(&Ior, Vec<Value>)],
    ) -> Vec<WfResult<Value>> {
        self.invoke_all_as(operation, calls, |r| Ok(Value::decode(r)?))
    }

    /// [`Federation::invoke_all`] with the caller's decoder of each
    /// successful result (see [`Orb::invoke_all_as`]).
    pub fn invoke_all_as<T>(
        &self,
        operation: &str,
        calls: &[(&Ior, Vec<Value>)],
        decode: impl Fn(&mut CdrReader<'_>) -> WfResult<T>,
    ) -> Vec<WfResult<T>> {
        let calls: Vec<Invocation<'_>> = calls
            .iter()
            .map(|(target, args)| Invocation {
                target,
                operation,
                args,
            })
            .collect();
        self.bootstrap_orb
            .invoke_all_as(&calls, &self.call_options(), decode)
    }

    /// A naming-service client over the wire, backed by the
    /// federation's shared [`IorCache`].
    pub fn naming_client(&self) -> NamingClient {
        NamingClient::with_cache(
            Arc::clone(&self.bootstrap_orb),
            self.naming_ior.clone(),
            Arc::clone(&self.ior_cache),
        )
    }

    /// The shared client-side cache of naming resolutions.
    pub fn ior_cache(&self) -> &Arc<IorCache> {
        &self.ior_cache
    }

    /// Direct handle to the naming service (bootstrap only).
    pub fn naming(&self) -> &Arc<NamingService> {
        &self.naming
    }

    /// Start an ORB instance (e.g. `"Orbix"`, big-endian, at
    /// `qut.orbix.net:9000`).
    pub fn add_orb(
        &self,
        name: &str,
        host: &str,
        port: u16,
        order: ByteOrder,
    ) -> WfResult<Arc<Orb>> {
        let orb = Orb::start(
            OrbConfig::new(name, host, port, order),
            Arc::clone(&self.domain),
        )?;
        self.orbs.write().insert(name.to_owned(), Arc::clone(&orb));
        Ok(orb)
    }

    /// A started ORB by name.
    pub fn orb(&self, name: &str) -> WfResult<Arc<Orb>> {
        self.orbs
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| WebfinditError::UnknownSite(format!("ORB {name}")))
    }

    /// Names of all ORBs (excluding the bootstrap ORB).
    pub fn orb_names(&self) -> Vec<String> {
        self.orbs.read().keys().cloned().collect()
    }

    /// Deploy a relational site.
    pub fn add_relational_site(&self, spec: SiteSpec, db: Database) -> WfResult<SiteHandle> {
        let dialect = match spec.vendor {
            SiteVendor::Relational(d) => d,
            _ => {
                return Err(WebfinditError::Protocol(
                    "add_relational_site needs a relational vendor".into(),
                ))
            }
        };
        debug_assert_eq!(db.dialect(), dialect, "instance dialect matches spec");
        self.registry
            .register_relational(spec.vendor.registry_vendor(), &spec.name, db);
        self.deploy_site(spec)
    }

    /// Deploy an object-database site.
    pub fn add_object_site(
        &self,
        spec: SiteSpec,
        store: ObjectStore,
        methods: MethodTable,
    ) -> WfResult<SiteHandle> {
        if matches!(spec.vendor, SiteVendor::Relational(_)) {
            return Err(WebfinditError::Protocol(
                "add_object_site needs an object vendor".into(),
            ));
        }
        self.registry
            .register_object(spec.vendor.registry_vendor(), &spec.name, store, methods);
        self.deploy_site(spec)
    }

    fn deploy_site(&self, spec: SiteSpec) -> WfResult<SiteHandle> {
        let orb = self.orb(&spec.orb)?;
        let url = spec.vendor.url(&spec.host, &spec.name);
        let descriptor = InformationSource {
            name: spec.name.clone(),
            information_type: spec.information_type.clone(),
            documentation_url: spec.documentation_url.clone(),
            location: spec.host.clone(),
            wrapper: url.clone(),
            interface: spec.interface.clone(),
        };

        let codb = Arc::new(RwLock::new(CoDatabase::new(spec.name.clone())));
        let stall = StallGate::new();
        let codb_key = format!("codb/{}", spec.name);
        let codb_ior = orb.activate(
            codb_key.as_bytes().to_vec(),
            Arc::new(CoDatabaseServant::with_gate(
                Arc::clone(&codb),
                stall.clone(),
            )),
        );
        let isi_stall = StallGate::new();
        let isi_key = format!("isi/{}", spec.name);
        let isi = Arc::new(
            IsiServant::new(Arc::clone(&self.manager), url.clone()).with_gate(isi_stall.clone()),
        );
        let isi_ior = orb.activate(isi_key.as_bytes().to_vec(), Arc::clone(&isi) as _);

        // Bind both servants in the naming service, over the wire.
        let nc = self.naming_client();
        nc.bind(&codb_key, &codb_ior)?;
        nc.bind(&isi_key, &isi_ior)?;

        let handle = SiteHandle {
            name: spec.name.clone(),
            orb_name: spec.orb.clone(),
            product: spec.vendor.product().to_owned(),
            bridge: spec.vendor.bridge(),
            url,
            codb,
            codb_ior,
            isi_ior,
            isi,
            descriptor,
            stall,
            isi_stall,
        };
        self.sites
            .write()
            .insert(spec.name.to_ascii_lowercase(), handle.clone());
        Ok(handle)
    }

    /// A deployed site by (case-insensitive) name.
    pub fn site(&self, name: &str) -> WfResult<SiteHandle> {
        self.sites
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| WebfinditError::UnknownSite(name.to_owned()))
    }

    /// All site names, sorted.
    pub fn site_names(&self) -> Vec<String> {
        self.sites.read().values().map(|s| s.name.clone()).collect()
    }

    // ---- metadata propagation (all via ORB invocations) ----------------

    fn invoke_codb(&self, site: &SiteHandle, op: &str, args: &[Value]) -> WfResult<Value> {
        self.invoke(&site.codb_ior, op, args)
    }

    /// Form (or extend) a coalition: every member's co-database gets the
    /// coalition class and descriptions of *all* members.
    ///
    /// Returns the number of ORB invocations performed — the
    /// registration cost the churn experiment measures.
    pub fn form_coalition(
        &self,
        name: &str,
        parent: Option<&str>,
        documentation: &str,
        members: &[&str],
    ) -> WfResult<u64> {
        let mut calls = 0;
        let handles: Vec<SiteHandle> = members
            .iter()
            .map(|m| self.site(m))
            .collect::<WfResult<_>>()?;
        for member in &handles {
            let mut args = vec![Value::string(name)];
            if let Some(p) = parent {
                args.push(Value::string(p));
            } else {
                args.push(Value::Null);
            }
            args.push(Value::string(documentation));
            match self.invoke_codb(member, "create_coalition", &args) {
                Ok(_) => {}
                Err(WebfinditError::Orb(webfindit_orb::OrbError::RemoteException {
                    system: false,
                    description,
                })) if description.contains("already exists") => {}
                Err(e) => return Err(e),
            }
            calls += 1;
            for other in &handles {
                match self.invoke_codb(
                    member,
                    "advertise",
                    &[Value::string(name), descriptor_to_value(&other.descriptor)],
                ) {
                    Ok(_) => {}
                    Err(WebfinditError::Orb(webfindit_orb::OrbError::RemoteException {
                        system: false,
                        description,
                    })) if description.contains("already a member") => {}
                    Err(e) => return Err(e),
                }
                calls += 1;
            }
        }
        Ok(calls)
    }

    /// A site joins an existing coalition: it learns the coalition and
    /// all current members; every current member learns the newcomer.
    pub fn join_coalition(
        &self,
        site: &str,
        coalition: &str,
        documentation: &str,
    ) -> WfResult<u64> {
        let _ = self.site(site)?; // validate the joiner exists
                                  // Find the current members by asking over the wire like a real
                                  // joiner would; union across co-databases because some hold only
                                  // a contact-member view.
        let mut calls = self.sites.read().len() as u64;
        let current = self.coalition_members(coalition)?;
        let member_refs: Vec<&str> = current.iter().map(String::as_str).collect();
        let mut all: Vec<&str> = member_refs.clone();
        all.push(site);
        calls += self.form_coalition(coalition, None, documentation, &all)?;
        Ok(calls)
    }

    /// A site leaves a coalition: every member's co-database (including
    /// its own) withdraws the advertisement.
    pub fn leave_coalition(&self, site: &str, coalition: &str) -> WfResult<u64> {
        let leaver = self.site(site)?;
        let mut calls = 0;
        // Snapshot the handles first: invoke_codb goes over IIOP, and
        // iterating `values()` directly would hold the sites read guard
        // across every one of those blocking calls.
        let handles: Vec<SiteHandle> = self.sites.read().values().cloned().collect();
        for s in &handles {
            calls += 1;
            match self.invoke_codb(
                s,
                "withdraw",
                &[Value::string(coalition), Value::string(&leaver.name)],
            ) {
                Ok(_) => {}
                Err(WebfinditError::Orb(webfindit_orb::OrbError::RemoteException {
                    system: false,
                    ..
                })) => {} // that co-database did not know the membership
                Err(e) => return Err(e),
            }
        }
        Ok(calls)
    }

    /// Members of a coalition endpoint, asked of the sites that know it.
    ///
    /// Some co-databases hold only a *minimal description* of a
    /// coalition (the contact member recorded by a service link), so no
    /// single answer can be trusted to be complete: take the union over
    /// every co-database that knows the coalition.
    pub fn coalition_members(&self, coalition: &str) -> WfResult<Vec<String>> {
        // Same discipline as leave_coalition: no guard across invokes.
        let asks: Vec<(Ior, &str)> = self
            .sites
            .read()
            .values()
            .map(|s| (s.codb_ior.clone(), coalition))
            .collect();
        self.members_union(&asks)
    }

    /// The sorted, deduplicated union of `members(coalition)` asked of
    /// each `(co-database, coalition)` pair in one pipelined batch. A
    /// co-database that cannot answer is skipped.
    pub(crate) fn members_union(&self, asks: &[(Ior, &str)]) -> WfResult<Vec<String>> {
        let calls: Vec<(&Ior, Vec<Value>)> = asks
            .iter()
            .map(|(codb, coalition)| (codb, vec![Value::string(*coalition)]))
            .collect();
        let answers = crate::wave::batched(
            &calls,
            calls.len(),
            |batch| self.invoke_all("members", batch),
            |answer| answer.as_ref().is_err_and(is_breaker_rejection),
        );
        let mut union: Vec<String> = Vec::new();
        for members in answers.into_iter().flatten() {
            union.extend(value_to_strings(&members)?);
        }
        union.sort();
        union.dedup();
        Ok(union)
    }

    /// Record a service link in the co-databases of the sites that need
    /// to know it: all members of coalition endpoints, and the named
    /// sites of database endpoints.
    ///
    /// Per the paper, a service link carries only a *minimal description*
    /// of the other side — so in addition to the link record, each
    /// involved site learns the opposite coalition as a class documented
    /// with the link description plus one **contact member** (enough to
    /// reach the other side's metadata, nothing more). This is what
    /// makes multi-hop discovery traverse links without replicating full
    /// coalition state.
    pub fn add_service_link(&self, link: &ServiceLink) -> WfResult<u64> {
        use webfindit_codb::LinkEnd;
        // Per-endpoint: the sites that must record the link, and (for
        // coalitions) the contact descriptor offered to the other side.
        let mut involved_by_end: Vec<Vec<String>> = Vec::new();
        let mut contact_by_end: Vec<Option<(String, InformationSource)>> = Vec::new();
        for end in [&link.from, &link.to] {
            match end {
                LinkEnd::Database(name) => {
                    involved_by_end.push(vec![name.clone()]);
                    let contact = self
                        .site(name)
                        .ok()
                        .map(|h| (name.clone(), h.descriptor.clone()));
                    contact_by_end.push(contact);
                }
                LinkEnd::Coalition(coalition) => {
                    let members = self.coalition_members(coalition)?;
                    let contact = members
                        .first()
                        .and_then(|m| self.site(m).ok())
                        .map(|h| (coalition.clone(), h.descriptor.clone()));
                    involved_by_end.push(members);
                    contact_by_end.push(contact);
                }
            }
        }

        let ends = [&link.from, &link.to];
        let mut calls = 0;
        for (side, involved) in involved_by_end.iter().enumerate() {
            let other = 1 - side;
            for name in involved {
                let Ok(site) = self.site(name) else { continue };
                match self.invoke_codb(&site, "add_link", &[link_to_value(link)]) {
                    Ok(_) => calls += 1,
                    Err(WebfinditError::Orb(webfindit_orb::OrbError::RemoteException {
                        system: false,
                        description,
                    })) if description.contains("already exists") => {}
                    Err(e) => return Err(e),
                }
                // Minimal description of the opposite coalition.
                if let (LinkEnd::Coalition(other_coalition), Some((_, contact_desc))) =
                    (ends[other], &contact_by_end[other])
                {
                    match self.invoke_codb(
                        &site,
                        "create_coalition",
                        &[
                            Value::string(other_coalition.clone()),
                            Value::Null,
                            Value::string(link.description.clone()),
                        ],
                    ) {
                        Ok(_) => calls += 1,
                        Err(WebfinditError::Orb(webfindit_orb::OrbError::RemoteException {
                            system: false,
                            description,
                        })) if description.contains("already exists") => {}
                        Err(e) => return Err(e),
                    }
                    match self.invoke_codb(
                        &site,
                        "advertise",
                        &[
                            Value::string(other_coalition.clone()),
                            descriptor_to_value(contact_desc),
                        ],
                    ) {
                        Ok(_) => calls += 1,
                        Err(WebfinditError::Orb(webfindit_orb::OrbError::RemoteException {
                            system: false,
                            description,
                        })) if description.contains("already a member") => {}
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        Ok(calls)
    }

    // ---- chaos: killing, restarting, degrading ------------------------

    /// The fault-control plane shared with every IIOP channel.
    pub fn chaos_registry(&self) -> Arc<ChaosRegistry> {
        self.domain.chaos_registry()
    }

    /// What a generated [`webfindit_orb::ChaosPlan`] may target in this
    /// deployment: every site, and every ORB's advertised endpoint.
    pub fn chaos_targets(&self) -> ChaosTargets {
        ChaosTargets {
            sites: self.site_names(),
            endpoints: self
                .orbs
                .read()
                .values()
                .map(|orb| orb.advertised_endpoint())
                .collect(),
        }
    }

    /// Kill an ORB: its server loop stops, its endpoint leaves the
    /// domain, every site it hosts goes dark. Returns `false` when the
    /// ORB is already down (kill is idempotent).
    pub fn kill_orb(&self, name: &str) -> WfResult<bool> {
        let orb = self.orb(name)?;
        if !self.downed_orbs.write().insert(name.to_owned()) {
            return Ok(false);
        }
        orb.shutdown();
        // A machine crash takes the hosted databases down with the ORB:
        // durable instances lose power mid-flight and stay Unavailable
        // until restart_orb runs recovery; in-memory instances report
        // false from crash_relational and keep their state, as before.
        for site in self.sites.read().values() {
            if site.orb_name != name {
                continue;
            }
            if let Some(parts) = webfindit_connect::parse_url(&site.url) {
                self.registry.crash_relational(parts.vendor, parts.instance);
            }
        }
        Ok(true)
    }

    /// Restart a killed ORB on its original advertised endpoint and
    /// re-activate the servants of every site it hosts. Existing IORs
    /// stay valid: they carry the advertised `(host, port)`, which now
    /// resolves to the new listener. Returns `false` when the ORB was
    /// not down.
    pub fn restart_orb(&self, name: &str) -> WfResult<bool> {
        let old = self.orb(name)?;
        if !self.downed_orbs.write().remove(name) {
            return Ok(false);
        }
        let (host, port) = old.advertised_endpoint();
        let orb = Orb::start(
            OrbConfig::new(name, host, port, old.byte_order()),
            Arc::clone(&self.domain),
        )?;
        for site in self.sites.read().values() {
            if site.orb_name != name {
                continue;
            }
            // Bring crashed durable databases back first: WAL replay +
            // loser rollback, so the re-activated ISI servant serves the
            // last committed state.
            if let Some(parts) = webfindit_connect::parse_url(&site.url) {
                let _ = self
                    .registry
                    .restart_relational(parts.vendor, parts.instance);
            }
            let codb_key = format!("codb/{}", site.name);
            orb.activate(
                codb_key.as_bytes().to_vec(),
                Arc::new(CoDatabaseServant::with_gate(
                    Arc::clone(&site.codb),
                    site.stall.clone(),
                )),
            );
            let isi_key = format!("isi/{}", site.name);
            orb.activate(isi_key.as_bytes().to_vec(), Arc::clone(&site.isi) as _);
        }
        self.orbs.write().insert(name.to_owned(), orb);
        Ok(true)
    }

    /// ORB names currently killed by [`Federation::kill_orb`].
    pub fn downed_orbs(&self) -> Vec<String> {
        self.downed_orbs.read().iter().cloned().collect()
    }

    /// Shut down every ORB (bootstrap last).
    pub fn shutdown(&self) {
        // Orb::shutdown pokes its own listener over TCP; collect the
        // handles so the orbs read guard is not held across that.
        let orbs: Vec<Arc<webfindit_orb::Orb>> = self.orbs.read().values().cloned().collect();
        for orb in orbs {
            orb.shutdown();
        }
        self.bootstrap_orb.shutdown();
    }
}

impl Drop for Federation {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Lets a [`webfindit_orb::ChaosPlan`] drive a live federation.
///
/// "Site" actions resolve through the site's hosting ORB: killing a
/// site kills its ORB's server loop (taking sibling sites down with it,
/// exactly as a machine crash would in the paper's deployment), and
/// stalls flip the site's servant-level [`StallGate`]. Unknown sites
/// and redundant kills report `false` so plans can log no-ops.
impl ChaosHost for Federation {
    fn kill_site(&self, site: &str) -> bool {
        let Ok(handle) = self.site(site) else {
            return false;
        };
        self.kill_orb(&handle.orb_name).unwrap_or(false)
    }

    fn restart_site(&self, site: &str) -> bool {
        let Ok(handle) = self.site(site) else {
            return false;
        };
        self.restart_orb(&handle.orb_name).unwrap_or(false)
    }

    fn stall_site(&self, site: &str, millis: u64) -> bool {
        let Ok(handle) = self.site(site) else {
            return false;
        };
        handle.stall.stall(millis);
        handle.isi_stall.stall(millis);
        true
    }

    fn unstall_site(&self, site: &str) -> bool {
        let Ok(handle) = self.site(site) else {
            return false;
        };
        handle.stall.clear();
        handle.isi_stall.clear();
        true
    }

    fn chaos_registry(&self) -> Arc<ChaosRegistry> {
        self.domain.chaos_registry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_site(name: &str, orb: &str) -> (SiteSpec, Database) {
        let spec = SiteSpec {
            name: name.to_owned(),
            orb: orb.to_owned(),
            vendor: SiteVendor::Relational(Dialect::Oracle),
            host: format!("{}.host.net", name.to_ascii_lowercase().replace(' ', "-")),
            information_type: "testing".into(),
            documentation_url: format!("http://docs/{name}"),
            interface: Vec::new(),
        };
        (spec, Database::new(name, Dialect::Oracle))
    }

    #[test]
    fn deploy_two_sites_and_propagate_a_coalition() {
        let fed = Federation::new().unwrap();
        fed.add_orb("Orbix", "orbix.net", 9000, ByteOrder::BigEndian)
            .unwrap();
        fed.add_orb("VisiBroker", "visi.net", 9001, ByteOrder::LittleEndian)
            .unwrap();
        let (spec_a, db_a) = simple_site("Alpha", "Orbix");
        let (spec_b, db_b) = simple_site("Beta", "VisiBroker");
        fed.add_relational_site(spec_a, db_a).unwrap();
        fed.add_relational_site(spec_b, db_b).unwrap();

        assert_eq!(fed.site_names(), vec!["Alpha", "Beta"]);

        let calls = fed
            .form_coalition("Research", None, "research things", &["Alpha", "Beta"])
            .unwrap();
        // 2 create_coalition + 2×2 advertise = 6 ORB invocations.
        assert_eq!(calls, 6);

        // Both co-databases know both members.
        for name in ["Alpha", "Beta"] {
            let site = fed.site(name).unwrap();
            assert_eq!(
                site.codb.read().members("Research").unwrap(),
                vec!["Alpha", "Beta"]
            );
        }
        fed.shutdown();
    }

    #[test]
    fn naming_binds_servants() {
        let fed = Federation::new().unwrap();
        fed.add_orb("Orbix", "orbix.net", 9000, ByteOrder::BigEndian)
            .unwrap();
        let (spec, db) = simple_site("Alpha", "Orbix");
        let handle = fed.add_relational_site(spec, db).unwrap();
        let nc = fed.naming_client();
        assert_eq!(nc.resolve("codb/Alpha").unwrap(), handle.codb_ior);
        assert_eq!(nc.resolve("isi/Alpha").unwrap(), handle.isi_ior);
        fed.shutdown();
    }

    #[test]
    fn join_and_leave() {
        let fed = Federation::new().unwrap();
        fed.add_orb("Orbix", "orbix.net", 9000, ByteOrder::BigEndian)
            .unwrap();
        for name in ["Alpha", "Beta", "Gamma"] {
            let (spec, db) = simple_site(name, "Orbix");
            fed.add_relational_site(spec, db).unwrap();
        }
        fed.form_coalition("Medical", None, "medicine", &["Alpha", "Beta"])
            .unwrap();
        fed.join_coalition("Gamma", "Medical", "medicine").unwrap();
        let site = fed.site("Alpha").unwrap();
        assert_eq!(
            site.codb.read().members("Medical").unwrap(),
            vec!["Alpha", "Beta", "Gamma"]
        );
        fed.leave_coalition("Beta", "Medical").unwrap();
        assert_eq!(
            site.codb.read().members("Medical").unwrap(),
            vec!["Alpha", "Gamma"]
        );
        fed.shutdown();
    }

    #[test]
    fn unknown_site_and_orb_errors() {
        let fed = Federation::new().unwrap();
        assert!(matches!(
            fed.site("Ghost"),
            Err(WebfinditError::UnknownSite(_))
        ));
        assert!(fed.orb("Ghost").is_err());
        let (spec, db) = simple_site("Alpha", "MissingOrb");
        assert!(fed.add_relational_site(spec, db).is_err());
        fed.shutdown();
    }
}
