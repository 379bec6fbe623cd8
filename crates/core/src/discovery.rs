//! The incremental discovery algorithm of §2, parallelized.
//!
//! "Initially, the user specifies the query in terms of relevant
//! information […] The query is sent to a local metadata repository […]
//! If the local metadata repository fails to resolve the user's query,
//! using the information on clusters' inter-relationships, the local
//! repository sends the query to one or more remote metadata
//! repositories."
//!
//! [`DiscoveryEngine::find`] implements that as a breadth-first search
//! over co-databases:
//!
//! * **Level 0** — the local co-database (a local lookup; the user is a
//!   user of a participating database, so this costs no network).
//! * **Level k ≥ 1** — remote co-databases reached through the previous
//!   level's inter-relationships: coalition peers (other members of the
//!   coalitions known there) and service-link endpoints. Each remote
//!   probe is a naming lookup plus GIOP invocations, all counted in
//!   [`DiscoveryStats`].
//!
//! The search stops at the first level that produces leads (all leads
//! of that level are returned, supporting the paper's "the system
//! prompts the user to select the most interesting leads").
//!
//! # Parallel wave fanout
//!
//! The sites of one BFS wave are independent: each probe talks to a
//! different co-database. [`DiscoveryEngine::find`] therefore dispatches
//! every wave over the bounded pool of `crate::wave`
//! ([`DiscoveryEngine::max_workers`] threads), so naming resolution,
//! the `find_coalitions` / `find_links` queries, and coalition-member
//! expansion of several sites are in flight at once. Results are merged
//! **in site-name order**, so
//! the outcome (leads, degraded sites, visit counts) is byte-identical
//! to a serial run (`max_workers = 1`); parallelism changes only the
//! wall-clock. Chaos-killed sites surface in
//! [`DiscoveryOutcome::degraded`] exactly as they do serially.
//!
//! # Metadata caching
//!
//! Two caches cut the per-probe round-trips:
//!
//! * the federation-wide [`webfindit_orb::naming::IorCache`] in front of
//!   naming resolution (a hit skips the naming round-trip entirely;
//!   entries are invalidated the moment an invocation on the cached
//!   reference fails), and
//! * a per-site [`CodbAnswerCache`] of co-database answers (topic →
//!   coalitions/links, coalition → members, the coalition and link
//!   lists), keyed by the co-database's **version stamp**. Every visit
//!   makes exactly one live `version` call — the liveness probe and the
//!   coherence check in one round-trip. Any registration or mutation
//!   bumps the stamp, so stale answers are never served; a site that
//!   cannot answer the version call is degraded, never served from
//!   cache.

use crate::failure::{degrade_reason, is_breaker_rejection};
use crate::federation::Federation;
use crate::servants::value_to_link;
use crate::value_map::value_to_strings;
use crate::{WebfinditError, WfResult};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use webfindit_base::sync::Mutex;
use webfindit_codb::{LinkEnd, ServiceLink};
use webfindit_wire::{Ior, Value};

/// What a discovery found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lead {
    /// A coalition advertising the requested information.
    Coalition {
        /// Coalition name.
        name: String,
        /// The site whose co-database reported it.
        via_site: String,
        /// BFS distance (0 = local).
        distance: usize,
    },
    /// A service link whose description matches the request.
    Link {
        /// The link.
        link: ServiceLink,
        /// The site whose co-database reported it.
        via_site: String,
        /// BFS distance.
        distance: usize,
    },
}

impl Lead {
    /// Distance at which this lead was found.
    pub fn distance(&self) -> usize {
        match self {
            Lead::Coalition { distance, .. } | Lead::Link { distance, .. } => *distance,
        }
    }

    /// The coalition name, if this is a coalition lead.
    pub fn coalition_name(&self) -> Option<&str> {
        match self {
            Lead::Coalition { name, .. } => Some(name),
            Lead::Link { .. } => None,
        }
    }
}

/// Cost accounting for one discovery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiscoveryStats {
    /// GIOP invocations on remote co-database servants. Answers served
    /// from the metadata cache cost none; the per-visit `version` probe
    /// always costs one.
    pub codb_queries: u64,
    /// Naming-service resolutions that went to the wire ([`IorCache`]
    /// hits cost none).
    ///
    /// [`IorCache`]: webfindit_orb::naming::IorCache
    pub naming_lookups: u64,
    /// Distinct sites whose co-database was consulted (incl. local).
    pub sites_visited: usize,
    /// BFS level at which the first lead appeared (None = nothing found).
    pub found_at_level: Option<usize>,
}

impl DiscoveryStats {
    /// Total remote round-trips (codb queries + naming lookups).
    pub fn total_round_trips(&self) -> u64 {
        self.codb_queries + self.naming_lookups
    }
}

pub use crate::failure::SiteFailure;

/// The outcome of one discovery.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveryOutcome {
    /// All leads found at the first productive level.
    pub leads: Vec<Lead>,
    /// Sites the traversal could not reach; non-empty means `leads`
    /// covers only the surviving subtree of the federation.
    pub degraded: Vec<SiteFailure>,
    /// Cost accounting.
    pub stats: DiscoveryStats,
}

impl DiscoveryOutcome {
    /// True if anything was found.
    pub fn found(&self) -> bool {
        !self.leads.is_empty()
    }

    /// True if every consulted site answered (the result is complete).
    pub fn complete(&self) -> bool {
        self.degraded.is_empty()
    }

    /// Names of the sites that could not be consulted.
    pub fn degraded_sites(&self) -> Vec<&str> {
        self.degraded.iter().map(|f| f.site.as_str()).collect()
    }
}

/// Cached answers of one co-database, valid for one version stamp.
#[derive(Debug, Clone, Default)]
struct SiteAnswers {
    version: u64,
    coalitions_by_topic: HashMap<String, Vec<String>>,
    links_by_topic: HashMap<String, Vec<ServiceLink>>,
    coalition_list: Option<Vec<String>>,
    members: HashMap<String, Vec<String>>,
    service_links: Option<Vec<ServiceLink>>,
}

webfindit_base::counter_set! {
    /// What the discovery engines over one federation did: remote BFS
    /// waves fanned out, and co-database answers served from cache.
    pub struct DiscoveryMetrics => DiscoverySnapshot {
        /// Discovery waves dispatched concurrently (one per remote BFS
        /// level actually fanned out).
        counter fanout_waves "waves",
        /// Sites dispatched across all fanned-out waves.
        counter fanout_sites "fanout sites",
        /// Widest single wave observed.
        peak fanout_peak_width "peak width",
        /// Co-database answer-cache hits (answer reused under a matching
        /// metadata version stamp).
        counter codb_cache_hits "codb cache hits",
        /// Co-database answer-cache misses (no entry, or the remote
        /// version stamp moved).
        counter codb_cache_misses "codb cache misses",
    }
}

/// A per-site cache of co-database answers, keyed by version stamp.
///
/// Every [`webfindit_codb::CoDatabase`] mutation bumps its version
/// stamp; a cached answer is served only when a **live** `version` call
/// on the site returns the stamp the answer was recorded under, so the
/// cache can never hide a registration, a withdrawal, or a dead site.
/// Hits and misses are counted in the federation's
/// [`DiscoveryMetrics`].
#[derive(Debug, Default)]
pub struct CodbAnswerCache {
    sites: Mutex<HashMap<String, SiteAnswers>>,
}

impl CodbAnswerCache {
    /// An empty cache.
    pub fn new() -> CodbAnswerCache {
        CodbAnswerCache::default()
    }

    /// Number of sites with cached answers.
    pub fn len(&self) -> usize {
        self.sites.lock().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.sites.lock().is_empty()
    }

    /// Drop every cached answer.
    pub fn clear(&self) {
        self.sites.lock().clear();
    }

    /// Drop whatever is cached for `site` (its probe failed).
    fn forget(&self, site: &str) {
        self.sites.lock().remove(&site.to_ascii_lowercase());
    }

    fn with_current<T>(
        &self,
        site: &str,
        version: u64,
        read: impl FnOnce(&SiteAnswers) -> Option<T>,
    ) -> Option<T> {
        let guard = self.sites.lock();
        guard
            .get(site)
            .filter(|e| e.version == version)
            .and_then(read)
    }

    fn store(&self, site: &str, version: u64, write: impl FnOnce(&mut SiteAnswers)) {
        let mut guard = self.sites.lock();
        let entry = guard.entry(site.to_owned()).or_default();
        if entry.version != version {
            *entry = SiteAnswers {
                version,
                ..SiteAnswers::default()
            };
        }
        write(entry);
    }
}

/// One probe's view of a site's cached answers: the cache, the site's
/// key in it, and the version stamp the probe's live `version` call
/// just returned.
struct CachedSite<'a> {
    cache: &'a CodbAnswerCache,
    metrics: &'a DiscoveryMetrics,
    key: String,
    version: u64,
}

impl CachedSite<'_> {
    /// Answer one co-database question cache-first: serve what `read`
    /// finds recorded under the current version stamp, otherwise count
    /// one remote query in `queries`, `fetch` the answer live and
    /// record it through `write`. A failed fetch records nothing and is
    /// the caller's to fail on or tolerate.
    fn answer<T: Clone>(
        &self,
        queries: &mut u64,
        read: impl FnOnce(&SiteAnswers) -> Option<T>,
        fetch: impl FnOnce() -> WfResult<T>,
        write: impl FnOnce(&mut SiteAnswers, T),
    ) -> WfResult<T> {
        let hit = self.cache.with_current(&self.key, self.version, read);
        let counter = match hit {
            Some(_) => &self.metrics.codb_cache_hits,
            None => &self.metrics.codb_cache_misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(hit) = hit {
            return Ok(hit);
        }
        *queries += 1;
        let fetched = fetch()?;
        self.cache
            .store(&self.key, self.version, |e| write(e, fetched.clone()));
        Ok(fetched)
    }
}

/// Expand a co-database's inter-relationships into candidate sites:
/// members of every known coalition, database link endpoints directly,
/// and coalition link endpoints via the member lists. `members_of`
/// answers `None` for unknown coalitions (or unreachable servants);
/// those expand to nothing, matching the tolerant serial behaviour.
fn expand_interrelationships(
    coalitions: &[String],
    links: &[ServiceLink],
    members_of: &mut dyn FnMut(&str) -> Option<Vec<String>>,
    out: &mut Vec<String>,
) {
    for c in coalitions {
        if let Some(m) = members_of(c) {
            out.extend(m);
        }
    }
    for link in links {
        for end in [&link.from, &link.to] {
            match end {
                LinkEnd::Database(name) => out.push(name.clone()),
                LinkEnd::Coalition(c) => {
                    if let Some(m) = members_of(c) {
                        out.extend(m);
                    }
                }
            }
        }
    }
}

/// Case-normalized frontier insertion: one entry per site regardless of
/// the case its name arrived in, keeping the first-seen spelling for
/// the (case-sensitive) naming lookup.
fn propose(frontier: &mut BTreeMap<String, String>, name: String) {
    frontier.entry(name.to_ascii_lowercase()).or_insert(name);
}

/// Everything one site probe produced, merged serially after the wave.
struct SiteProbe {
    site: String,
    leads: Vec<Lead>,
    failure: Option<SiteFailure>,
    expansion: Vec<String>,
    naming_lookups: u64,
    codb_queries: u64,
    /// The failure was a circuit-breaker rejection — possibly a
    /// half-open race against a wave-mate (see `crate::wave`).
    breaker_rejected: bool,
}

impl SiteProbe {
    fn new(site: &str) -> SiteProbe {
        SiteProbe {
            site: site.to_owned(),
            leads: Vec::new(),
            failure: None,
            expansion: Vec::new(),
            naming_lookups: 0,
            codb_queries: 0,
            breaker_rejected: false,
        }
    }

    fn fail(&mut self, distance: usize, e: &WebfinditError) {
        self.breaker_rejected = is_breaker_rejection(e);
        self.failure = Some(SiteFailure {
            site: self.site.clone(),
            distance,
            reason: degrade_reason(e),
        });
    }
}

/// The §2 resolution engine.
pub struct DiscoveryEngine {
    fed: Arc<Federation>,
    /// Maximum BFS depth (levels of remote expansion).
    pub max_depth: usize,
    /// Worker-pool bound for one wave's concurrent site probes.
    /// `1` reproduces the serial engine exactly; larger values change
    /// only the wall-clock, never the outcome.
    pub max_workers: usize,
    codb_cache: Arc<CodbAnswerCache>,
}

impl DiscoveryEngine {
    /// Create an engine over a federation with the default depth and
    /// fanout bounds.
    pub fn new(fed: Arc<Federation>) -> DiscoveryEngine {
        DiscoveryEngine {
            fed,
            max_depth: 8,
            max_workers: 8,
            codb_cache: Arc::new(CodbAnswerCache::new()),
        }
    }

    /// The engine's co-database answer cache (kept across finds; a
    /// benchmark clears it to measure cold-cache latency).
    pub fn codb_cache(&self) -> &Arc<CodbAnswerCache> {
        &self.codb_cache
    }

    fn fetch_strings(&self, ior: &Ior, op: &str, args: &[Value]) -> WfResult<Vec<String>> {
        let v = self.fed.invoke(ior, op, args)?;
        value_to_strings(&v)
    }

    fn fetch_links(&self, ior: &Ior, op: &str, args: &[Value]) -> WfResult<Vec<ServiceLink>> {
        let v = self.fed.invoke(ior, op, args)?;
        v.as_sequence()
            .ok_or_else(|| WebfinditError::Protocol("expected link sequence".into()))?
            .iter()
            .map(|l| value_to_link(l).map_err(|e| WebfinditError::Protocol(e.to_string())))
            .collect()
    }

    /// Probe one remote site: resolve its co-database, check liveness
    /// and cache coherence with a single `version` call, collect leads,
    /// and (when it has none) expand its inter-relationships. Runs on a
    /// wave worker thread; everything it touches is `Sync`.
    fn probe_site(&self, site: &str, topic: &str, depth: usize) -> SiteProbe {
        let mut probe = SiteProbe::new(site);
        let nc = self.fed.naming_client();
        let binding = format!("codb/{site}");
        let (ior, from_cache) = match nc.resolve_detailed(&binding) {
            Ok(r) => r,
            Err(e) => {
                probe.fail(depth, &WebfinditError::Orb(e));
                return probe;
            }
        };
        if !from_cache {
            probe.naming_lookups += 1;
        }

        // The one mandatory live call: liveness probe + coherence check.
        probe.codb_queries += 1;
        let version = match self.fed.invoke(&ior, "version", &[]) {
            Ok(Value::LongLong(n)) => n as u64,
            Ok(_) => 0,
            Err(e) => {
                // The cached reference (if any) is unusable and the
                // site's cached answers are unverifiable: drop both.
                nc.invalidate(&binding);
                self.codb_cache.forget(site);
                probe.fail(depth, &e);
                return probe;
            }
        };

        let cached = CachedSite {
            cache: &self.codb_cache,
            metrics: self.fed.discovery_metrics(),
            key: site.to_ascii_lowercase(),
            version,
        };
        let topic_arg = [Value::string(topic)];

        // Leads: find_coalitions then find_links. A site that cannot
        // answer one of them is degraded, keeping the leads it gave.
        let coalitions = match cached.answer(
            &mut probe.codb_queries,
            |e| e.coalitions_by_topic.get(topic).cloned(),
            || self.fetch_strings(&ior, "find_coalitions", &topic_arg),
            |e, v| {
                e.coalitions_by_topic.insert(topic.to_owned(), v);
            },
        ) {
            Ok(v) => v,
            Err(e) => {
                nc.invalidate(&binding);
                probe.fail(depth, &e);
                return probe;
            }
        };
        for name in coalitions {
            probe.leads.push(Lead::Coalition {
                name,
                via_site: probe.site.clone(),
                distance: depth,
            });
        }
        let links = match cached.answer(
            &mut probe.codb_queries,
            |e| e.links_by_topic.get(topic).cloned(),
            || self.fetch_links(&ior, "find_links", &topic_arg),
            |e, v| {
                e.links_by_topic.insert(topic.to_owned(), v);
            },
        ) {
            Ok(v) => v,
            Err(e) => {
                nc.invalidate(&binding);
                probe.fail(depth, &e);
                return probe;
            }
        };
        for link in links {
            probe.leads.push(Lead::Link {
                link,
                via_site: probe.site.clone(),
                distance: depth,
            });
        }
        if !probe.leads.is_empty() {
            return probe;
        }

        // No leads here: expand its inter-relationships. Expansion
        // failures are tolerated (the reachable part still expands).
        let coalition_list = cached
            .answer(
                &mut probe.codb_queries,
                |e| e.coalition_list.clone(),
                || self.fetch_strings(&ior, "coalitions", &[]),
                |e, v| e.coalition_list = Some(v),
            )
            .unwrap_or_default();
        let service_links = cached
            .answer(
                &mut probe.codb_queries,
                |e| e.service_links.clone(),
                || self.fetch_links(&ior, "service_links", &[]),
                |e, v| e.service_links = Some(v),
            )
            .unwrap_or_default();
        let mut members_of = |c: &str| -> Option<Vec<String>> {
            cached
                .answer(
                    &mut probe.codb_queries,
                    |e| e.members.get(c).cloned(),
                    || self.fetch_strings(&ior, "members", &[Value::string(c)]),
                    |e, v| {
                        e.members.insert(c.to_owned(), v);
                    },
                )
                .ok()
        };
        expand_interrelationships(
            &coalition_list,
            &service_links,
            &mut members_of,
            &mut probe.expansion,
        );
        probe
    }

    /// Probe every site of one wave on the bounded pool, returning the
    /// probes **in wave (site-name) order** regardless of completion
    /// order; breaker-rejected probes get the pool's one serial re-run.
    fn run_wave(&self, wave: &[String], topic: &str, depth: usize) -> Vec<SiteProbe> {
        crate::wave::run_ordered(
            wave,
            self.max_workers,
            |site| self.probe_site(site, topic, depth),
            |probe| probe.breaker_rejected,
        )
    }

    /// Run discovery for `topic`, starting at `start_site`.
    ///
    /// A dead or unreachable site never aborts the traversal: it is
    /// recorded in [`DiscoveryOutcome::degraded`] and the search keeps
    /// walking the surviving subtree of coalitions and service links.
    /// Each wave's sites are probed concurrently (see
    /// [`DiscoveryEngine::max_workers`]); the merge is in site-name
    /// order, so the outcome is identical to a serial traversal.
    pub fn find(&self, start_site: &str, topic: &str) -> WfResult<DiscoveryOutcome> {
        let mut stats = DiscoveryStats::default();
        let mut degraded: Vec<SiteFailure> = Vec::new();
        let start = self.fed.site(start_site)?;
        let mut visited: BTreeSet<String> = BTreeSet::new();
        visited.insert(start.name.to_ascii_lowercase());
        stats.sites_visited = 1;

        // ---- level 0: the local co-database, no network ----
        let mut leads: Vec<Lead> = Vec::new();
        let mut frontier: BTreeMap<String, String> = BTreeMap::new();
        {
            let codb = start.codb.read();
            for c in codb.find_coalitions(topic) {
                leads.push(Lead::Coalition {
                    name: c,
                    via_site: start.name.clone(),
                    distance: 0,
                });
            }
            for l in codb.find_links(topic) {
                leads.push(Lead::Link {
                    link: l.clone(),
                    via_site: start.name.clone(),
                    distance: 0,
                });
            }
            if leads.is_empty() {
                // Expand through local inter-relationships.
                let coalitions = codb.coalitions();
                let links: Vec<ServiceLink> = codb.service_links().to_vec();
                let mut proposals = Vec::new();
                expand_interrelationships(
                    &coalitions,
                    &links,
                    &mut |c| codb.members(c).ok(),
                    &mut proposals,
                );
                for name in proposals {
                    propose(&mut frontier, name);
                }
            }
        }
        if !leads.is_empty() {
            stats.found_at_level = Some(0);
            return Ok(DiscoveryOutcome {
                leads,
                degraded,
                stats,
            });
        }

        // ---- levels 1..max_depth: remote co-databases, one wave each ----
        let metrics = self.fed.discovery_metrics();
        for depth in 1..=self.max_depth {
            let wave: Vec<String> = frontier
                .iter()
                .filter(|(key, _)| !visited.contains(key.as_str()))
                .map(|(_, raw)| raw.clone())
                .collect();
            frontier.clear();
            if wave.is_empty() {
                break;
            }
            for site in &wave {
                visited.insert(site.to_ascii_lowercase());
            }
            stats.sites_visited += wave.len();
            let width = wave.len() as u64;
            metrics.fanout_waves.fetch_add(1, Ordering::Relaxed);
            metrics.fanout_sites.fetch_add(width, Ordering::Relaxed);
            metrics
                .fanout_peak_width
                .fetch_max(width, Ordering::Relaxed);

            // Merge in wave order — the probes ran concurrently, the
            // outcome reads as if they ran one by one.
            for probe in self.run_wave(&wave, topic, depth) {
                stats.naming_lookups += probe.naming_lookups;
                stats.codb_queries += probe.codb_queries;
                leads.extend(probe.leads);
                if let Some(failure) = probe.failure {
                    degraded.push(failure);
                }
                for name in probe.expansion {
                    propose(&mut frontier, name);
                }
            }
            if !leads.is_empty() {
                stats.found_at_level = Some(depth);
                return Ok(DiscoveryOutcome {
                    leads,
                    degraded,
                    stats,
                });
            }
        }
        Ok(DiscoveryOutcome {
            leads,
            degraded,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webfindit_orb::OrbError;

    #[test]
    fn every_discovery_counter_is_listed_and_rendered_once() {
        let m = DiscoveryMetrics::default();
        let table = [
            (&m.fanout_waves, "waves"),
            (&m.fanout_sites, "fanout sites"),
            (&m.fanout_peak_width, "peak width"),
            (&m.codb_cache_hits, "codb cache hits"),
            (&m.codb_cache_misses, "codb cache misses"),
        ];
        crate::trace::assert_listed_and_rendered_once(&table, || m.snapshot().iter());
        // The peak is a max, not a sum: a delta carries the later mark.
        let before = m.snapshot();
        m.fanout_peak_width.fetch_max(2, Ordering::Relaxed);
        assert_eq!(m.snapshot().since(&before).fanout_peak_width, 3);
    }

    #[test]
    fn answer_cache_serves_only_matching_versions() {
        let cache = CodbAnswerCache::new();
        assert!(cache.is_empty());
        cache.store("rbh", 3, |e| {
            e.coalition_list = Some(vec!["Research".into()]);
            e.members.insert("Research".into(), vec!["RBH".into()]);
        });
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.with_current("rbh", 3, |e| e.coalition_list.clone()),
            Some(vec!["Research".to_string()])
        );
        // A bumped version makes every cached answer invisible…
        assert_eq!(
            cache.with_current("rbh", 4, |e| e.coalition_list.clone()),
            None
        );
        // …and the first store under the new version resets the entry.
        cache.store("rbh", 4, |e| {
            e.coalition_list = Some(vec!["Medical".into()])
        });
        assert_eq!(
            cache.with_current("rbh", 4, |e| e.members.get("Research").cloned()),
            None,
            "stale members must not survive a version bump"
        );
        assert_eq!(
            cache.with_current("rbh", 4, |e| e.coalition_list.clone()),
            Some(vec!["Medical".to_string()])
        );
        cache.forget("rbh");
        assert!(cache.is_empty());
        cache.clear();
    }

    #[test]
    fn frontier_proposals_normalize_case_keeping_first_spelling() {
        let mut frontier = BTreeMap::new();
        propose(&mut frontier, "Royal Brisbane Hospital".into());
        propose(&mut frontier, "ROYAL BRISBANE HOSPITAL".into());
        propose(&mut frontier, "royal brisbane hospital".into());
        propose(&mut frontier, "Medicare".into());
        assert_eq!(frontier.len(), 2, "one entry per site, not per spelling");
        assert_eq!(
            frontier.get("royal brisbane hospital").map(String::as_str),
            Some("Royal Brisbane Hospital"),
            "the first-seen spelling is kept for the naming lookup"
        );
    }

    #[test]
    fn unreachable_endpoints_degrade_to_one_canonical_reason() {
        let unknown = WebfinditError::Orb(OrbError::UnknownHost {
            host: "qut.orbix.net".into(),
            port: 9000,
        });
        let open = WebfinditError::Orb(OrbError::CircuitOpen {
            host: "qut.orbix.net".into(),
            port: 9000,
        });
        assert_eq!(degrade_reason(&unknown), degrade_reason(&open));
        let other = WebfinditError::Protocol("bad frame".into());
        assert_eq!(degrade_reason(&other), other.to_string());
    }
}
