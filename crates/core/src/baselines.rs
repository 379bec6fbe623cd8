//! Comparison systems for the scalability experiments.
//!
//! The paper argues (§1, §6) that neither extreme scales for Web-scale
//! federations: tightly-coupled global schemas "do not scale up given
//! the complexity when constructing the global schema for a large
//! number of heterogeneous systems", and loosely-coupled systems
//! "expect users to know the semantics and locations of the available
//! systems". Experiment E1 quantifies that argument against two
//! baselines:
//!
//! * [`FlatBroadcast`] — no organization at all: a query probes *every*
//!   co-database in the federation (what a user without WebFINDIT's
//!   two-level organization must do).
//! * [`CentralIndex`] — the multidatabase/global-schema approach: one
//!   central repository ingests every advertisement, so queries are one
//!   round-trip but registration and maintenance all funnel through
//!   (and scale with) the center.

use crate::discovery::{DiscoveryOutcome, DiscoveryStats, Lead};
use crate::federation::Federation;
use crate::servants::{codb, CoDatabaseServant};
use crate::{WebfinditError, WfResult};
use std::sync::Arc;
use webfindit_base::sync::RwLock;
use webfindit_codb::CoDatabase;
use webfindit_wire::Ior;

/// The no-organization baseline: ask everyone, every time.
pub struct FlatBroadcast {
    fed: Arc<Federation>,
}

impl FlatBroadcast {
    /// Create a broadcaster over the federation.
    pub fn new(fed: Arc<Federation>) -> FlatBroadcast {
        FlatBroadcast { fed }
    }

    /// Find `topic` by probing every site's co-database. A broadcaster
    /// has no way to stop early — it pays the full fan-out each query.
    pub fn find(&self, topic: &str) -> WfResult<DiscoveryOutcome> {
        let mut stats = DiscoveryStats::default();
        let mut leads = Vec::new();
        let nc = self.fed.naming_client();
        for site in self.fed.site_names() {
            stats.sites_visited += 1;
            stats.naming_lookups += 1;
            let ior = match nc.resolve(&format!("codb/{site}")) {
                Ok(ior) => ior,
                Err(_) => continue,
            };
            stats.codb_queries += 1;
            let topic = topic.to_owned();
            let find = codb::FindCoalitions {
                topic: topic.clone(),
            };
            for name in self.fed.call(&ior, find).unwrap_or_default() {
                leads.push(Lead::Coalition {
                    name,
                    via_site: site.clone(),
                    distance: 1,
                });
            }
            stats.codb_queries += 1;
            for link in self
                .fed
                .call(&ior, codb::FindLinks { topic })
                .unwrap_or_default()
            {
                leads.push(Lead::Link {
                    link,
                    via_site: site.clone(),
                    distance: 1,
                });
            }
        }
        if !leads.is_empty() {
            stats.found_at_level = Some(1);
        }
        Ok(DiscoveryOutcome {
            leads,
            degraded: Vec::new(),
            stats,
        })
    }
}

/// The centralized global-index baseline.
///
/// Built by replaying every site's coalitions, advertisements, and
/// links into one central co-database, hosted as a servant on the
/// bootstrap ORB so queries still pay one real GIOP round-trip.
pub struct CentralIndex {
    fed: Arc<Federation>,
    central_ior: Ior,
    /// ORB invocations spent building the index.
    pub registration_calls: u64,
}

impl CentralIndex {
    /// Build the index from the current federation state.
    ///
    /// Every (coalition, member) advertisement and every service link
    /// costs one registration call to the center — the maintenance
    /// funnel that makes the approach scale poorly.
    pub fn build(fed: Arc<Federation>) -> WfResult<CentralIndex> {
        let central = Arc::new(RwLock::new(CoDatabase::new("central-index")));
        let servant = Arc::new(CoDatabaseServant::new(Arc::clone(&central)));
        let central_ior = fed
            .client_orb()
            .activate(b"codb/central-index".to_vec(), servant);

        let mut registration_calls = 0u64;
        for site in fed.site_names() {
            let handle = fed.site(&site)?;
            // Snapshot the registrations under the read guard and release
            // it before the IIOP calls: the guard must not span a GIOP
            // round-trip (xlint: guard-across-blocking).
            let (coalition_data, links) = {
                let codb = handle.codb.read();
                let coalition_data: Vec<_> = codb
                    .coalitions()
                    .into_iter()
                    .map(|coalition| {
                        let doc = codb.coalition_documentation(&coalition).unwrap_or_default();
                        let descriptors: Vec<_> = codb
                            .members_direct(&coalition)
                            .into_iter()
                            .filter_map(|member| codb.descriptor(&member).ok().cloned())
                            .collect();
                        (coalition, doc, descriptors)
                    })
                    .collect();
                (coalition_data, codb.service_links().to_vec())
            };
            for (coalition, doc, descriptors) in coalition_data {
                registration_calls += 1;
                let create = codb::CreateCoalition {
                    name: coalition.clone(),
                    parent: None,
                    documentation: doc,
                };
                match fed.call(&central_ior, create) {
                    Ok(_) => {}
                    Err(WebfinditError::Orb(webfindit_orb::OrbError::RemoteException {
                        system: false,
                        ..
                    })) => {}
                    Err(e) => return Err(e),
                }
                for d in &descriptors {
                    registration_calls += 1;
                    let advertise = codb::Advertise {
                        coalition: coalition.clone(),
                        descriptor: d.clone(),
                    };
                    match fed.call(&central_ior, advertise) {
                        Ok(_) => {}
                        Err(WebfinditError::Orb(webfindit_orb::OrbError::RemoteException {
                            system: false,
                            ..
                        })) => {}
                        Err(e) => return Err(e),
                    }
                }
            }
            for link in &links {
                registration_calls += 1;
                match fed.call(&central_ior, codb::AddLink { link: link.clone() }) {
                    Ok(_) => {}
                    Err(WebfinditError::Orb(webfindit_orb::OrbError::RemoteException {
                        system: false,
                        ..
                    })) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(CentralIndex {
            fed,
            central_ior,
            registration_calls,
        })
    }

    /// Find `topic`: one naming-free round-trip to the center.
    pub fn find(&self, topic: &str) -> WfResult<DiscoveryOutcome> {
        let mut stats = DiscoveryStats {
            sites_visited: 1,
            ..Default::default()
        };
        stats.codb_queries += 1;
        let ior = &self.central_ior;
        let topic = topic.to_owned();
        let find = codb::FindCoalitions {
            topic: topic.clone(),
        };
        let mut leads: Vec<Lead> = self
            .fed
            .call(ior, find)?
            .into_iter()
            .map(|name| Lead::Coalition {
                name,
                via_site: "central-index".into(),
                distance: 1,
            })
            .collect();
        stats.codb_queries += 1;
        for link in self.fed.call(ior, codb::FindLinks { topic })? {
            leads.push(Lead::Link {
                link,
                via_site: "central-index".into(),
                distance: 1,
            });
        }
        if !leads.is_empty() {
            stats.found_at_level = Some(1);
        }
        Ok(DiscoveryOutcome {
            leads,
            degraded: Vec::new(),
            stats,
        })
    }
}
