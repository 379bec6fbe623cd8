//! Scripted, deterministic fault injection for a running federation.
//!
//! The paper's sites are *autonomous*: they join, crash, and leave the
//! federation without coordination, and WebFINDIT is expected to keep
//! educating the user from whatever metadata remains reachable. This
//! module supplies the adversary for that claim. A [`ChaosPlan`] scripts
//! a schedule of faults — kill or restart a site's server loop, stall a
//! servant, drop/corrupt/delay frames on a specific endpoint, make a
//! co-database refuse connections — keyed to integer *steps* that the
//! test interleaves with its own invocations. Schedules are either
//! hand-written or generated from a `webfindit-base` seed, so a chaos
//! run replays exactly: same seed, same schedule, same outcome.
//!
//! The plumbing half is the [`ChaosRegistry`], shared by every
//! [`IiopChannel`](crate::channel::IiopChannel) in a domain. It owns one
//! [`FaultSlot`] per advertised endpoint (installed into each dialed
//! connection, so flips reach *live* traffic) and the set of endpoints
//! currently refusing connections. The actions a registry cannot express
//! — killing and restarting whole server loops, stalling servants — are
//! delegated to the deployment layer through the [`ChaosHost`] trait.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use webfindit_base::rng::StdRng;
use webfindit_base::sync::RwLock;
use webfindit_wire::transport::{Fault, FaultSlot};

/// Shared fault-control plane for every channel in an ORB domain.
///
/// Channels consult the registry at dial time (connection refusals,
/// fault-slot installation); chaos plans mutate it at any time.
#[derive(Default)]
pub struct ChaosRegistry {
    slots: RwLock<BTreeMap<(String, u16), FaultSlot>>,
    refusals: RwLock<BTreeSet<(String, u16)>>,
}

impl ChaosRegistry {
    /// A fresh registry with no faults scheduled.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The shared fault slot for an advertised endpoint, created on
    /// first use. Every connection dialed to the endpoint installs this
    /// slot, so setting a fault here reaches live traffic immediately.
    pub fn fault_slot(&self, host: &str, port: u16) -> FaultSlot {
        let key = (host.to_owned(), port);
        if let Some(slot) = self.slots.read().get(&key) {
            return slot.clone();
        }
        self.slots.write().entry(key).or_default().clone()
    }

    /// Activate `fault` on every current and future connection to the
    /// endpoint.
    pub fn set_fault(&self, host: &str, port: u16, fault: Fault) {
        self.fault_slot(host, port).set(fault);
    }

    /// Restore faultless delivery for the endpoint.
    pub fn clear_fault(&self, host: &str, port: u16) {
        self.fault_slot(host, port).clear();
    }

    /// Make new connections to the endpoint fail as if refused.
    pub fn refuse(&self, host: &str, port: u16) {
        self.refusals.write().insert((host.to_owned(), port));
    }

    /// Let the endpoint accept connections again.
    pub fn accept(&self, host: &str, port: u16) {
        self.refusals.write().remove(&(host.to_owned(), port));
    }

    /// Whether the endpoint currently refuses new connections.
    pub fn refuses(&self, host: &str, port: u16) -> bool {
        self.refusals.read().contains(&(host.to_owned(), port))
    }

    /// Clear every scheduled fault and refusal.
    pub fn reset(&self) {
        for slot in self.slots.read().values() {
            slot.clear();
        }
        self.refusals.write().clear();
    }
}

impl fmt::Debug for ChaosRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosRegistry")
            .field("endpoints", &self.slots.read().len())
            .field("refusals", &self.refusals.read().len())
            .finish()
    }
}

/// One fault to inflict on the federation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosAction {
    /// Tear down a site's server loop; its IORs go dark.
    KillSite(String),
    /// Bring a killed site back on its advertised endpoint.
    RestartSite(String),
    /// Make the site's servants hold every request for `millis`.
    StallSite {
        /// Site to stall.
        site: String,
        /// Hold time per request, in milliseconds.
        millis: u64,
    },
    /// Lift a stall.
    UnstallSite(String),
    /// Activate a wire fault on all traffic to an endpoint.
    EndpointFault {
        /// Advertised host.
        host: String,
        /// Advertised port.
        port: u16,
        /// The wire fault to inject.
        fault: Fault,
    },
    /// Restore faultless delivery to an endpoint.
    ClearEndpoint {
        /// Advertised host.
        host: String,
        /// Advertised port.
        port: u16,
    },
    /// Make an endpoint (a co-database) refuse new connections.
    RefuseConnections {
        /// Advertised host.
        host: String,
        /// Advertised port.
        port: u16,
    },
    /// Let a refusing endpoint accept connections again.
    AcceptConnections {
        /// Advertised host.
        host: String,
        /// Advertised port.
        port: u16,
    },
}

/// A [`ChaosAction`] scheduled at a test-defined step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosEvent {
    /// The step at which the action fires (tests advance steps between
    /// their own invocations; steps are logical, never wall-clock).
    pub step: u32,
    /// What happens at that step.
    pub action: ChaosAction,
}

/// The sites and endpoints a generated plan may target.
#[derive(Debug, Clone, Default)]
pub struct ChaosTargets {
    /// Site identifiers understood by the [`ChaosHost`].
    pub sites: Vec<String>,
    /// Advertised endpoints faults may be placed on.
    pub endpoints: Vec<(String, u16)>,
}

/// What a deployment must expose for a plan to act on it.
///
/// The registry half (frame faults, refusals) is generic; killing,
/// restarting, and stalling are deployment-specific, so the federation
/// layer implements this trait.
pub trait ChaosHost {
    /// Tear down the named site's server loop. Returns `false` if the
    /// site is unknown or already down.
    fn kill_site(&self, site: &str) -> bool;
    /// Restart a killed site on its original advertised endpoint.
    /// Returns `false` if the site is unknown or already up.
    fn restart_site(&self, site: &str) -> bool;
    /// Make the site's servants stall each request for `millis`.
    /// Returns `false` if the site is unknown.
    fn stall_site(&self, site: &str, millis: u64) -> bool;
    /// Lift a stall. Returns `false` if the site is unknown.
    fn unstall_site(&self, site: &str) -> bool;
    /// The registry shared with the deployment's channels.
    fn chaos_registry(&self) -> Arc<ChaosRegistry>;
}

/// A deterministic, replayable schedule of faults.
///
/// Build one by hand with [`ChaosPlan::push`], or generate one from a
/// seed with [`ChaosPlan::generate`]; either way, [`ChaosPlan::digest`]
/// fingerprints the schedule so two runs can prove they executed the
/// same faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    seed: u64,
    events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// An empty plan labeled with `seed` (use [`ChaosPlan::push`] to
    /// script it by hand).
    pub fn new(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// The seed this plan was labeled or generated with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Schedule `action` at `step`.
    pub fn push(&mut self, step: u32, action: ChaosAction) -> &mut Self {
        self.events.push(ChaosEvent { step, action });
        self
    }

    /// Generate `count` scheduled faults against `targets` from `seed`.
    ///
    /// The schedule is a pure function of `(seed, targets, count)`:
    /// kills are followed by restarts of the same site later in the
    /// plan, endpoint faults by clears, refusals by accepts — so a
    /// generated plan always returns the federation to health by its
    /// final step.
    pub fn generate(seed: u64, targets: &ChaosTargets, count: usize) -> ChaosPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = ChaosPlan::new(seed);
        let mut step = 1u32;
        for _ in 0..count {
            let (inflict, heal) = Self::random_pair(&mut rng, targets);
            let Some(inflict) = inflict else { continue };
            plan.push(step, inflict);
            let gap = rng.gen_range(1u32..=3);
            if let Some(heal) = heal {
                plan.push(step + gap, heal);
            }
            step += gap + 1;
        }
        plan
    }

    /// One random inflict/heal action pair over `targets`.
    fn random_pair(
        rng: &mut StdRng,
        targets: &ChaosTargets,
    ) -> (Option<ChaosAction>, Option<ChaosAction>) {
        let endpoint = |rng: &mut StdRng| {
            let (h, p) = targets.endpoints[rng.gen_range(0..targets.endpoints.len())].clone();
            (h, p)
        };
        // Draw the kind first so the stream of rng values consumed per
        // event is stable regardless of which targets exist.
        let kind = rng.gen_range(0u32..4);
        match kind {
            0 if !targets.sites.is_empty() => {
                let site = targets.sites[rng.gen_range(0..targets.sites.len())].clone();
                (
                    Some(ChaosAction::KillSite(site.clone())),
                    Some(ChaosAction::RestartSite(site)),
                )
            }
            1 if !targets.sites.is_empty() => {
                let site = targets.sites[rng.gen_range(0..targets.sites.len())].clone();
                let millis = rng.gen_range(5u64..=40);
                (
                    Some(ChaosAction::StallSite {
                        site: site.clone(),
                        millis,
                    }),
                    Some(ChaosAction::UnstallSite(site)),
                )
            }
            2 if !targets.endpoints.is_empty() => {
                let (host, port) = endpoint(rng);
                // No fault counts frames: which pooled connection
                // carries which request is scheduler-dependent, so a
                // frame-counting fault would make replay transcripts
                // diverge.
                let fault = match rng.gen_range(0u32..4) {
                    0 => Fault::DropFrames,
                    1 => Fault::DelayMs(rng.gen_range(1u64..=20)),
                    2 => Fault::CloseMidFrame,
                    _ => Fault::CorruptMagic,
                };
                (
                    Some(ChaosAction::EndpointFault {
                        host: host.clone(),
                        port,
                        fault,
                    }),
                    Some(ChaosAction::ClearEndpoint { host, port }),
                )
            }
            3 if !targets.endpoints.is_empty() => {
                let (host, port) = endpoint(rng);
                (
                    Some(ChaosAction::RefuseConnections {
                        host: host.clone(),
                        port,
                    }),
                    Some(ChaosAction::AcceptConnections { host, port }),
                )
            }
            _ => (None, None),
        }
    }

    /// Events scheduled at exactly `step`, in insertion order.
    pub fn events_at(&self, step: u32) -> impl Iterator<Item = &ChaosEvent> {
        self.events.iter().filter(move |e| e.step == step)
    }

    /// The last step any event is scheduled at (0 for an empty plan).
    pub fn last_step(&self) -> u32 {
        self.events.iter().map(|e| e.step).max().unwrap_or(0)
    }

    /// Apply every event scheduled at `step` to `host`, returning one
    /// human-readable line per event (for trace output).
    pub fn apply_step(&self, step: u32, host: &dyn ChaosHost) -> Vec<String> {
        let registry = host.chaos_registry();
        let mut applied = Vec::new();
        for event in self.events_at(step) {
            let ok = match &event.action {
                ChaosAction::KillSite(site) => host.kill_site(site),
                ChaosAction::RestartSite(site) => host.restart_site(site),
                ChaosAction::StallSite { site, millis } => host.stall_site(site, *millis),
                ChaosAction::UnstallSite(site) => host.unstall_site(site),
                ChaosAction::EndpointFault {
                    host: h,
                    port,
                    fault,
                } => {
                    registry.set_fault(h, *port, *fault);
                    true
                }
                ChaosAction::ClearEndpoint { host: h, port } => {
                    registry.clear_fault(h, *port);
                    true
                }
                ChaosAction::RefuseConnections { host: h, port } => {
                    registry.refuse(h, *port);
                    true
                }
                ChaosAction::AcceptConnections { host: h, port } => {
                    registry.accept(h, *port);
                    true
                }
            };
            let tag = if ok { "applied" } else { "no-op" };
            applied.push(format!("step {step}: {tag} {:?}", event.action));
        }
        applied
    }

    /// Run the whole plan step by step, calling `between(step)` after
    /// each step's events fire — the hook where a test issues its own
    /// invocations against the degraded federation.
    pub fn run(&self, host: &dyn ChaosHost, mut between: impl FnMut(u32)) -> Vec<String> {
        let mut log = Vec::new();
        for step in 1..=self.last_step() {
            log.extend(self.apply_step(step, host));
            between(step);
        }
        log
    }

    /// A stable fingerprint of the schedule (FNV-1a over the debug
    /// rendering of every event). Two runs of the same seeded plan must
    /// produce identical digests; the CI chaos job fails on divergence.
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for event in &self.events {
            for byte in format!("{event:?}").bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webfindit_base::sync::Mutex;

    fn targets() -> ChaosTargets {
        ChaosTargets {
            sites: vec!["site-a".into(), "site-b".into(), "site-c".into()],
            endpoints: vec![("host-a".into(), 9000), ("host-b".into(), 9001)],
        }
    }

    #[test]
    fn registry_shares_slots_with_live_handles() {
        let reg = ChaosRegistry::new();
        let slot = reg.fault_slot("h", 1);
        assert_eq!(slot.get(), Fault::None);
        reg.set_fault("h", 1, Fault::DropFrames);
        // The handle taken before the fault was set sees the flip.
        assert_eq!(slot.get(), Fault::DropFrames);
        reg.clear_fault("h", 1);
        assert_eq!(slot.get(), Fault::None);
    }

    #[test]
    fn registry_tracks_refusals() {
        let reg = ChaosRegistry::new();
        assert!(!reg.refuses("h", 1));
        reg.refuse("h", 1);
        assert!(reg.refuses("h", 1));
        assert!(!reg.refuses("h", 2));
        reg.accept("h", 1);
        assert!(!reg.refuses("h", 1));
    }

    #[test]
    fn reset_clears_faults_and_refusals() {
        let reg = ChaosRegistry::new();
        let slot = reg.fault_slot("h", 1);
        reg.set_fault("h", 1, Fault::CorruptMagic);
        reg.refuse("h", 2);
        reg.reset();
        assert_eq!(slot.get(), Fault::None);
        assert!(!reg.refuses("h", 2));
    }

    #[test]
    fn generated_plans_replay_exactly() {
        let t = targets();
        let a = ChaosPlan::generate(1999, &t, 12);
        let b = ChaosPlan::generate(1999, &t, 12);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert!(!a.events().is_empty());
        let c = ChaosPlan::generate(7, &t, 12);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn generated_plans_heal_every_inflicted_fault() {
        let t = targets();
        let plan = ChaosPlan::generate(42, &t, 20);
        let mut down: BTreeSet<String> = BTreeSet::new();
        let mut faulted: BTreeSet<(String, u16)> = BTreeSet::new();
        let mut refusing: BTreeSet<(String, u16)> = BTreeSet::new();
        let mut stalled: BTreeSet<String> = BTreeSet::new();
        for step in 1..=plan.last_step() {
            for e in plan.events_at(step) {
                match &e.action {
                    ChaosAction::KillSite(s) => {
                        down.insert(s.clone());
                    }
                    ChaosAction::RestartSite(s) => {
                        down.remove(s);
                    }
                    ChaosAction::StallSite { site, .. } => {
                        stalled.insert(site.clone());
                    }
                    ChaosAction::UnstallSite(s) => {
                        stalled.remove(s);
                    }
                    ChaosAction::EndpointFault { host, port, .. } => {
                        faulted.insert((host.clone(), *port));
                    }
                    ChaosAction::ClearEndpoint { host, port } => {
                        faulted.remove(&(host.clone(), *port));
                    }
                    ChaosAction::RefuseConnections { host, port } => {
                        refusing.insert((host.clone(), *port));
                    }
                    ChaosAction::AcceptConnections { host, port } => {
                        refusing.remove(&(host.clone(), *port));
                    }
                }
            }
        }
        assert!(down.is_empty(), "unrestarted sites: {down:?}");
        assert!(stalled.is_empty(), "unstalled sites: {stalled:?}");
        assert!(faulted.is_empty(), "uncleared faults: {faulted:?}");
        assert!(refusing.is_empty(), "unaccepted refusals: {refusing:?}");
    }

    struct FakeHost {
        registry: Arc<ChaosRegistry>,
        up: Mutex<BTreeSet<String>>,
        log: Mutex<Vec<String>>,
    }

    impl ChaosHost for FakeHost {
        fn kill_site(&self, site: &str) -> bool {
            self.log.lock().push(format!("kill {site}"));
            self.up.lock().remove(site)
        }
        fn restart_site(&self, site: &str) -> bool {
            self.log.lock().push(format!("restart {site}"));
            self.up.lock().insert(site.to_owned())
        }
        fn stall_site(&self, site: &str, millis: u64) -> bool {
            self.log.lock().push(format!("stall {site} {millis}"));
            self.up.lock().contains(site)
        }
        fn unstall_site(&self, site: &str) -> bool {
            self.log.lock().push(format!("unstall {site}"));
            self.up.lock().contains(site)
        }
        fn chaos_registry(&self) -> Arc<ChaosRegistry> {
            Arc::clone(&self.registry)
        }
    }

    #[test]
    fn scripted_plan_drives_the_host_in_step_order() {
        let host = FakeHost {
            registry: ChaosRegistry::new(),
            up: Mutex::new(["a".to_owned()].into()),
            log: Mutex::new(Vec::new()),
        };
        let mut plan = ChaosPlan::new(0);
        plan.push(1, ChaosAction::KillSite("a".into()))
            .push(
                2,
                ChaosAction::RefuseConnections {
                    host: "h".into(),
                    port: 1,
                },
            )
            .push(3, ChaosAction::RestartSite("a".into()))
            .push(
                3,
                ChaosAction::AcceptConnections {
                    host: "h".into(),
                    port: 1,
                },
            );
        let mut steps_seen = Vec::new();
        let log = plan.run(&host, |s| {
            steps_seen.push(s);
            if s == 2 {
                assert!(
                    host.registry.refuses("h", 1),
                    "refusal should be active mid-plan"
                );
            }
        });
        assert_eq!(steps_seen, vec![1, 2, 3]);
        assert_eq!(*host.log.lock(), vec!["kill a", "restart a"]);
        assert!(host.up.lock().contains("a"));
        assert!(!host.registry.refuses("h", 1));
        assert_eq!(log.len(), 4);
        assert!(log[0].contains("applied"));

        // Unknown site → reported as a no-op, not a panic.
        let mut bad = ChaosPlan::new(0);
        bad.push(1, ChaosAction::KillSite("ghost".into()));
        let lines = bad.apply_step(1, &host);
        assert!(lines[0].contains("no-op"));
    }
}
