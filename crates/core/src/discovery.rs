//! The incremental discovery algorithm of §2, pipelined.
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
//!   visit is a naming lookup plus one GIOP `probe`, all counted in
//!   [`DiscoveryStats`].
//!
//! The search stops at the first level that produces leads (all leads
//! of that level are returned, supporting the paper's "the system
//! prompts the user to select the most interesting leads").
//!
//! # One conditional probe per site
//!
//! A remote visit is the paper's "one query per remote repository": a
//! single `probe(topic, known_version)` call. The co-database answers
//! under one read lock — with its version stamp alone when that matches
//! the stamp the engine's cached answer was recorded under, otherwise
//! with the stamp plus its answer to the topic: the coalitions and
//! service links advertising it or, when there are none, the sites its
//! inter-relationships point at. A servant computes that answer with
//! the same `TopicAnswer::of` level 0 runs on the local co-database, so
//! a remote visit answers exactly as a local one would.
//!
//! The serving ORB answers a probe on the reactor thread that read it
//! (`Servant::invoke_now`) when the co-database's shared guard is free
//! and no stall is set: an in-memory read under a `try_read` cannot
//! wait, so it skips the hand-off to a dispatch worker and back. A
//! probe that finds the guard held by a writer (a Join or Leave, which
//! always run on the pool) goes to the pool and waits there. The
//! engine sends the same probe either way.
//!
//! # Pipelined waves
//!
//! The sites of one BFS wave are independent: each probe talks to a
//! different co-database. [`DiscoveryEngine::find`] sends a wave's
//! probes from the calling thread through [`Federation::call_all`],
//! [`DiscoveryEngine::max_workers`] at a time, each batch sent whole
//! before any of its replies is read — the round trips overlap and no
//! thread is spawned (`crate::wave::batched`, the step every read
//! fan-out in the core shares). Results are merged **in site-name
//! order**, so the outcome (leads, degraded sites, visit counts) is
//! byte-identical to a serial run (`max_workers = 1`); batching changes
//! only the wall-clock. Chaos-killed sites surface in
//! [`DiscoveryOutcome::degraded`] exactly as they do serially.
//!
//! # Metadata caching
//!
//! Two caches cut the per-visit round-trips:
//!
//! * the federation-wide [`webfindit_orb::naming::IorCache`] in front of
//!   naming resolution (a hit skips the naming round-trip entirely;
//!   entries are invalidated the moment an invocation on the cached
//!   reference fails), and
//! * a per-site [`CodbAnswerCache`] of co-database answers (one per
//!   topic), keyed by the co-database's **version stamp**. Every visit
//!   makes exactly one live `probe` call — liveness, coherence check
//!   and, on a miss, the answer in one round-trip. Any registration or
//!   mutation bumps the stamp, so stale answers are never served; a site
//!   that cannot answer the probe is degraded, never served from cache.

use crate::failure::{degrade_reason, is_breaker_rejection};
use crate::federation::Federation;
use crate::servants::codb;
use crate::{WebfinditError, WfResult};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use webfindit_base::sync::Mutex;
use webfindit_codb::{CoDatabase, LinkEnd, ServiceLink};
use webfindit_wire::marshal::{read_field, read_record, write_field, write_record};
use webfindit_wire::{CdrReader, CdrWriter, Ior, Marshal, WireError, WireResult};

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
    /// GIOP invocations on remote co-database servants: one `probe` per
    /// remote site whose co-database resolved, cache hit or not.
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

/// What one co-database says about one topic: the coalitions and
/// service links advertising it or, when there are none, the sites its
/// inter-relationships point at.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopicAnswer {
    /// Coalitions advertising the topic.
    pub coalitions: Vec<String>,
    /// Service links whose description matches it.
    pub links: Vec<ServiceLink>,
    /// With no leads: the sites to visit next.
    pub expansion: Vec<String>,
}

impl TopicAnswer {
    /// Answer `topic` from `codb` — level 0 on the local co-database, a
    /// probed servant on its own. The expansion lists the members of
    /// every known coalition, then each service link's ends: a database
    /// directly, a coalition by its members (an unknown one by none).
    fn of(codb: &CoDatabase, topic: &str) -> TopicAnswer {
        let coalitions = codb.find_coalitions(topic);
        let links: Vec<ServiceLink> = codb.find_links(topic).into_iter().cloned().collect();
        let mut expansion = Vec::new();
        if coalitions.is_empty() && links.is_empty() {
            let members = |c: &str| codb.members(c).unwrap_or_default();
            for c in codb.coalitions() {
                expansion.extend(members(&c));
            }
            for link in codb.service_links() {
                for end in [&link.from, &link.to] {
                    match end {
                        LinkEnd::Database(name) => expansion.push(name.clone()),
                        LinkEnd::Coalition(c) => expansion.extend(members(c)),
                    }
                }
            }
        }
        TopicAnswer {
            coalitions,
            links,
            expansion,
        }
    }

    /// Record this answer's leads as found at `site`, `distance` hops
    /// out, and return the sites it points at (none when it had leads).
    fn into_leads(self, site: &str, distance: usize, leads: &mut Vec<Lead>) -> Vec<String> {
        leads.extend(self.coalitions.into_iter().map(|name| Lead::Coalition {
            name,
            via_site: site.to_owned(),
            distance,
        }));
        leads.extend(self.links.into_iter().map(|link| Lead::Link {
            link,
            via_site: site.to_owned(),
            distance,
        }));
        self.expansion
    }
}

/// A co-database's reply to `probe(topic, known)`: its version stamp
/// alone when `known` is that stamp, else the stamp and its answer. On
/// the wire, the record `{version: LongLong}` or `{version, coalitions,
/// links, expansion}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeReply {
    /// The co-database's version stamp.
    pub version: u64,
    /// Its answer, unless the caller holds the current stamp.
    pub answer: Option<TopicAnswer>,
}

impl ProbeReply {
    /// Answer a probe of `codb`.
    pub(crate) fn of(codb: &CoDatabase, topic: &str, known: Option<i64>) -> ProbeReply {
        let version = codb.version();
        let answer = (known != Some(version as i64)).then(|| TopicAnswer::of(codb, topic));
        ProbeReply { version, answer }
    }
}

impl Marshal for ProbeReply {
    fn write(&self, w: &mut CdrWriter) -> WireResult<()> {
        write_record(w, if self.answer.is_some() { 4 } else { 1 });
        write_field(w, "version", &(self.version as i64))?;
        let Some(answer) = &self.answer else {
            return Ok(());
        };
        write_field(w, "coalitions", &answer.coalitions)?;
        write_field(w, "links", &answer.links)?;
        write_field(w, "expansion", &answer.expansion)
    }

    fn read(r: &mut CdrReader<'_>) -> WireResult<ProbeReply> {
        let fields = read_record(r, "probe reply")?;
        let version = read_field::<i64>(r, "version")? as u64;
        let answer = match fields {
            1 => None,
            4 => Some(TopicAnswer {
                coalitions: read_field(r, "coalitions")?,
                links: read_field(r, "links")?,
                expansion: read_field(r, "expansion")?,
            }),
            _ => return Err(WireError::Shape("probe reply")),
        };
        Ok(ProbeReply { version, answer })
    }
}

/// Cached answers of one co-database, all valid for one version stamp.
#[derive(Debug, Default)]
struct SiteAnswers {
    version: u64,
    by_topic: HashMap<String, TopicAnswer>,
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
        /// Probes answered with the stamp alone: the cached answer
        /// recorded under it was reused.
        counter codb_cache_hits "codb cache hits",
        /// Probes answered in full (no cached answer, or the stamp
        /// moved).
        counter codb_cache_misses "codb cache misses",
    }
}

/// A per-site cache of co-database answers, keyed by version stamp.
///
/// Every [`webfindit_codb::CoDatabase`] mutation bumps its version
/// stamp; a cached answer is served only when a **live** `probe` of the
/// site confirms the stamp the answer was recorded under, so the cache
/// can never hide a registration, a withdrawal, or a dead site. Hits and
/// misses are counted in the federation's [`DiscoveryMetrics`].
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

    /// `site`'s cached answer to `topic`, with the stamp it was
    /// recorded under.
    fn get(&self, site: &str, topic: &str) -> Option<(u64, TopicAnswer)> {
        let guard = self.sites.lock();
        let entry = guard.get(&site.to_ascii_lowercase())?;
        let answer = entry.by_topic.get(topic)?;
        Some((entry.version, answer.clone()))
    }

    /// Record `site`'s `answer` to `topic` under `version`; a new stamp
    /// first drops every answer recorded under the old one.
    fn store(&self, site: &str, version: u64, topic: &str, answer: TopicAnswer) {
        let mut guard = self.sites.lock();
        let entry = guard.entry(site.to_ascii_lowercase()).or_default();
        if entry.version != version {
            *entry = SiteAnswers {
                version,
                by_topic: HashMap::new(),
            };
        }
        entry.by_topic.insert(topic.to_owned(), answer);
    }
}

/// Case-normalized frontier insertion: one entry per site regardless of
/// the case its name arrived in, keeping the first-seen spelling for
/// the (case-sensitive) naming lookup.
fn propose(frontier: &mut BTreeMap<String, String>, name: String) {
    frontier.entry(name.to_ascii_lowercase()).or_insert(name);
}

/// One site's part in a wave, merged serially after it.
#[derive(Default)]
struct SiteProbe {
    site: String,
    /// What the site answered; `None` when it could not be consulted.
    answer: Option<TopicAnswer>,
    failure: Option<SiteFailure>,
    naming_lookups: u64,
    codb_queries: u64,
    /// The failure was a circuit-breaker rejection — possibly a
    /// half-open race against a wave-mate.
    breaker_rejected: bool,
}

impl SiteProbe {
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
    /// Bound on one wave's probes in flight at once: a wave is sent in
    /// batches of this many, each batch whole before any of its replies
    /// is read. `1` reproduces the serial engine exactly; larger values
    /// change only the wall-clock, never the outcome.
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

    /// Probe `sites` as one pipelined batch: resolve each co-database,
    /// then send every probe before reading any reply. The probes come
    /// back in `sites` order.
    fn probe_sites(&self, sites: &[String], topic: &str, depth: usize) -> Vec<SiteProbe> {
        let nc = self.fed.naming_client();
        let binding = |site: &str| format!("codb/{site}");
        let mut probes: Vec<SiteProbe> = sites
            .iter()
            .map(|site| SiteProbe {
                site: site.clone(),
                ..SiteProbe::default()
            })
            .collect();
        // (probe index, co-database reference, cached answer)
        let mut targets = Vec::with_capacity(sites.len());
        for (i, probe) in probes.iter_mut().enumerate() {
            match nc.resolve_detailed(&binding(&probe.site)) {
                Ok((ior, from_cache)) => {
                    probe.naming_lookups += u64::from(!from_cache);
                    targets.push((i, ior, self.codb_cache.get(&probe.site, topic)));
                }
                Err(e) => probe.fail(depth, &WebfinditError::Orb(e)),
            }
        }
        let calls: Vec<(&Ior, codb::Probe)> = targets
            .iter()
            .map(|(_, ior, cached)| {
                let probe = codb::Probe {
                    topic: topic.to_owned(),
                    known: cached.as_ref().map(|(v, _)| *v as i64),
                };
                (ior, probe)
            })
            .collect();
        let replies = self.fed.call_all(&calls);
        for ((i, _, cached), reply) in targets.into_iter().zip(replies) {
            let probe = &mut probes[i];
            probe.codb_queries += 1;
            match reply.and_then(|r| self.answer(&probe.site, topic, r, cached)) {
                Ok(answer) => probe.answer = Some(answer),
                Err(e) => {
                    // The cached reference (if any) is unusable and the
                    // site's cached answers are unverifiable: drop both.
                    nc.invalidate(&binding(&probe.site));
                    self.codb_cache.forget(&probe.site);
                    probe.fail(depth, &e);
                }
            }
        }
        probes
    }

    /// `site`'s answer from its probe reply: the fresh one it carries
    /// (recorded for the next visit) or, when the reply confirms the
    /// stamp of the `cached` answer, that one.
    fn answer(
        &self,
        site: &str,
        topic: &str,
        reply: ProbeReply,
        cached: Option<(u64, TopicAnswer)>,
    ) -> WfResult<TopicAnswer> {
        let metrics = self.fed.discovery_metrics();
        match ((reply.version, reply.answer), cached) {
            ((version, Some(fresh)), _) => {
                metrics.codb_cache_misses.fetch_add(1, Ordering::Relaxed);
                self.codb_cache.store(site, version, topic, fresh.clone());
                Ok(fresh)
            }
            ((version, None), Some((known, answer))) if known == version => {
                metrics.codb_cache_hits.fetch_add(1, Ordering::Relaxed);
                Ok(answer)
            }
            _ => Err(WebfinditError::Protocol(
                "probe reply confirms a stamp no answer was cached under".into(),
            )),
        }
    }

    /// Probe every site of one wave, [`DiscoveryEngine::max_workers`]
    /// in flight at once, returning the probes **in wave (site-name)
    /// order**; breaker-rejected probes get `crate::wave::batched`'s
    /// one re-run.
    fn run_wave(&self, wave: &[String], topic: &str, depth: usize) -> Vec<SiteProbe> {
        crate::wave::batched(
            wave,
            self.max_workers,
            |sites| self.probe_sites(sites, topic, depth),
            |probe| probe.breaker_rejected,
        )
    }

    /// The member databases of every coalition lead, asked of the
    /// co-database that reported it in one pipelined batch
    /// (`Federation::members_union`).
    pub(crate) fn lead_members(&self, leads: &[Lead]) -> WfResult<Vec<String>> {
        let nc = self.fed.naming_client();
        let asks = leads
            .iter()
            .filter_map(|lead| match lead {
                Lead::Coalition { name, via_site, .. } => Some((via_site, name.as_str())),
                Lead::Link { .. } => None,
            })
            .map(|(via_site, name)| Ok((nc.resolve(&format!("codb/{via_site}"))?, name)))
            .collect::<WfResult<Vec<_>>>()?;
        self.fed.members_union(&asks)
    }

    /// Run discovery for `topic`, starting at `start_site`.
    ///
    /// A dead or unreachable site never aborts the traversal: it is
    /// recorded in [`DiscoveryOutcome::degraded`] and the search keeps
    /// walking the surviving subtree of coalitions and service links.
    /// Each wave's sites are probed in pipelined batches (see
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
        let local = TopicAnswer::of(&start.codb.read(), topic);
        for name in local.into_leads(&start.name, 0, &mut leads) {
            propose(&mut frontier, name);
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

            // Merge in wave order — the probes overlapped, the outcome
            // reads as if they ran one by one.
            for probe in self.run_wave(&wave, topic, depth) {
                stats.naming_lookups += probe.naming_lookups;
                stats.codb_queries += probe.codb_queries;
                degraded.extend(probe.failure);
                if let Some(answer) = probe.answer {
                    for name in answer.into_leads(&probe.site, depth, &mut leads) {
                        propose(&mut frontier, name);
                    }
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
    use webfindit_codb::InformationSource;
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

    fn answer(coalitions: &[&str]) -> TopicAnswer {
        TopicAnswer {
            coalitions: coalitions.iter().map(|c| c.to_string()).collect(),
            ..TopicAnswer::default()
        }
    }

    #[test]
    fn answer_cache_serves_only_matching_versions() {
        let cache = CodbAnswerCache::new();
        assert!(cache.is_empty());
        cache.store("RBH", 3, "research", answer(&["Research"]));
        cache.store("rbh", 3, "medicine", answer(&["Medical"]));
        assert_eq!(cache.len(), 1, "one entry per site, whatever the case");
        assert_eq!(
            cache.get("rbh", "research"),
            Some((3, answer(&["Research"])))
        );
        assert_eq!(cache.get("rbh", "tax"), None);
        // The first store under a new stamp drops every answer of the
        // old one.
        cache.store("rbh", 4, "research", answer(&["Research", "Grants"]));
        assert_eq!(
            cache.get("rbh", "medicine"),
            None,
            "stale answers must not survive a version bump"
        );
        assert_eq!(
            cache.get("RBH", "research"),
            Some((4, answer(&["Research", "Grants"])))
        );
        cache.forget("RBH");
        assert!(cache.is_empty());
        cache.store("rbh", 4, "research", answer(&[]));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn a_probe_reply_round_trips_its_answer_or_confirms_the_stamp() {
        let mut codb = CoDatabase::new("RBH");
        codb.create_coalition("Research", None, "medical research")
            .unwrap();
        codb.advertise(
            "Research",
            InformationSource {
                name: "Royal Brisbane Hospital".into(),
                information_type: "Research and Medical".into(),
                documentation_url: "http://docs/RBH".into(),
                location: "dba.icis.qut.edu.au".into(),
                wrapper: "jdbc:oracle://dba.icis.qut.edu.au/RBH".into(),
                interface: Vec::new(),
            },
        )
        .unwrap();
        codb.add_service_link(ServiceLink {
            from: LinkEnd::Coalition("Research".into()),
            to: LinkEnd::Database("ATO".into()),
            description: "tax data for research grants".into(),
        })
        .unwrap();
        let version = codb.version();
        let order = webfindit_wire::ByteOrder::LittleEndian;
        let round_trip = |reply: ProbeReply| {
            let mut w = CdrWriter::new(order);
            reply.write(&mut w).unwrap();
            let bytes = w.into_bytes();
            ProbeReply::read(&mut CdrReader::new(&bytes, order)).unwrap()
        };
        for topic in ["medical research", "tax data", "welfare"] {
            let full = round_trip(ProbeReply::of(&codb, topic, None));
            assert_eq!(full.version, version);
            assert_eq!(full.answer, Some(TopicAnswer::of(&codb, topic)), "{topic}");
            let confirmed = round_trip(ProbeReply::of(&codb, topic, Some(version as i64)));
            let answer = None;
            assert_eq!(confirmed, ProbeReply { version, answer });
        }
        // No leads for welfare: the answer is the expansion — coalition
        // members, then the link's ends (a coalition by its members).
        let rbh = "Royal Brisbane Hospital".to_string();
        assert_eq!(
            TopicAnswer::of(&codb, "welfare").expansion,
            vec![rbh.clone(), rbh, "ATO".into()]
        );
        let null = [webfindit_wire::value::tag::NULL];
        assert!(ProbeReply::read(&mut CdrReader::new(&null, order)).is_err());
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
