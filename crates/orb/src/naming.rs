//! A CORBA-style naming service, implemented as an ordinary servant.
//!
//! WebFINDIT needs a bootstrap step: given the *name* of a co-database
//! or information source ("RBH", "Medicare"), obtain its IOR. CORBA
//! solves this with the COS Naming service — itself a CORBA object — and
//! so do we: [`NamingService`] is a [`Servant`](crate::Servant) whose `bind`/`resolve`/
//! `unbind`/`list` operations travel through GIOP like any other call.
//! IORs cross the wire in their stringified `IOR:…` form, exactly how
//! 1990s deployments moved references between ORBs.

use crate::servant::ServantError;
use crate::{CallOptions, Operation, Orb, OrbError, OrbResult};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use webfindit_base::sync::{Mutex, RwLock};
use webfindit_wire::Ior;

/// Conventional object key under which the naming servant is activated.
pub const NAMING_OBJECT_KEY: &[u8] = b"naming/root";

crate::interface! {
    /// A flat naming context: names bound to object references.
    pub trait NamingOperations for NamingService as context = "IDL:webfindit/NamingContext:1.0" {
        /// Bind `name` to `ior`, replacing any earlier binding.
        Bind: fn bind(name: String, ior: Ior) -> ();
        /// The reference bound to `name`.
        Resolve: fn resolve(name: String) -> Ior;
        /// Remove the binding of `name`.
        Unbind: fn unbind(name: String) -> ();
        /// Every bound name, sorted.
        List: fn list() -> Vec<String>;
    }
}

/// The server-side naming context: a flat name → IOR table.
#[derive(Default)]
pub struct NamingService {
    bindings: RwLock<BTreeMap<String, Ior>>,
}

impl NamingService {
    /// Create an empty naming context.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.bindings.read().len()
    }

    /// True when no names are bound.
    pub fn is_empty(&self) -> bool {
        self.bindings.read().is_empty()
    }
}

fn not_found(name: &str) -> ServantError {
    ServantError::Application(format!("NotFound: {name}"))
}

impl NamingOperations for NamingService {
    fn bind(&self, name: String, ior: Ior) -> Result<(), ServantError> {
        self.bindings.write().insert(name, ior);
        Ok(())
    }

    fn resolve(&self, name: String) -> Result<Ior, ServantError> {
        let bindings = self.bindings.read();
        bindings.get(&name).cloned().ok_or_else(|| not_found(&name))
    }

    fn unbind(&self, name: String) -> Result<(), ServantError> {
        let removed = self.bindings.write().remove(&name);
        removed.map(|_| ()).ok_or_else(|| not_found(&name))
    }

    fn list(&self) -> Result<Vec<String>, ServantError> {
        Ok(self.bindings.read().keys().cloned().collect())
    }
}

/// A client-side TTL'd cache of naming resolutions.
///
/// Naming lookups dominate lookup-heavy workloads (every discovery
/// probe starts with a `resolve`), yet bindings change only at
/// deployment or restart time. The cache keeps resolved IORs for a
/// bounded lifetime and is **invalidated eagerly** the moment an
/// invocation on a cached reference fails (connection failure,
/// deadline, breaker-open) — the standard client-side-caching fix for
/// CORBA naming traffic. Shared via `Arc` across every stub a
/// deployment hands out.
pub struct IorCache {
    ttl: Duration,
    entries: Mutex<HashMap<String, (Ior, Instant)>>,
}

impl IorCache {
    /// Create an empty cache whose entries expire after `ttl`.
    pub fn new(ttl: Duration) -> Arc<IorCache> {
        Arc::new(IorCache {
            ttl,
            entries: Mutex::new_labeled(HashMap::new(), "orb::IorCache.entries"),
        })
    }

    /// The configured entry lifetime.
    pub fn ttl(&self) -> Duration {
        self.ttl
    }

    /// A cached, unexpired resolution of `name`. Expired entries are
    /// dropped on access.
    pub fn get(&self, name: &str) -> Option<Ior> {
        let mut entries = self.entries.lock();
        match entries.get(name) {
            Some((_, at)) if at.elapsed() >= self.ttl => {
                entries.remove(name);
                None
            }
            Some((ior, _)) => Some(ior.clone()),
            None => None,
        }
    }

    /// Cache a fresh resolution.
    pub fn put(&self, name: &str, ior: &Ior) {
        self.entries
            .lock()
            .insert(name.to_owned(), (ior.clone(), Instant::now()));
    }

    /// Drop the entry for `name` (an invocation on it failed).
    /// Returns true when an entry was actually dropped.
    pub fn invalidate(&self, name: &str) -> bool {
        self.entries.lock().remove(name).is_some()
    }

    /// Drop every entry.
    pub fn clear(&self) {
        self.entries.lock().clear();
    }

    /// Number of live entries (including any not yet swept).
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

/// Client-side stub for a (possibly remote) naming service.
pub struct NamingClient {
    orb: Arc<Orb>,
    naming_ior: Ior,
    cache: Option<Arc<IorCache>>,
}

impl NamingClient {
    /// Create a stub that calls the naming service at `naming_ior`
    /// through `orb`.
    pub fn new(orb: Arc<Orb>, naming_ior: Ior) -> Self {
        NamingClient {
            orb,
            naming_ior,
            cache: None,
        }
    }

    /// Create a stub that consults (and feeds) a shared [`IorCache`]
    /// before going to the wire. Hits and misses are counted in the
    /// client ORB's [`crate::OrbMetrics`].
    pub fn with_cache(orb: Arc<Orb>, naming_ior: Ior, cache: Arc<IorCache>) -> Self {
        NamingClient {
            orb,
            naming_ior,
            cache: Some(cache),
        }
    }

    /// The shared IOR cache, when this stub carries one.
    pub fn cache(&self) -> Option<&Arc<IorCache>> {
        self.cache.as_ref()
    }

    /// Bind `name` to `ior`.
    pub fn bind(&self, name: &str, ior: &Ior) -> OrbResult<()> {
        let ior = ior.clone();
        self.call(context::Bind {
            name: name.into(),
            ior,
        })?;
        // A rebind supersedes whatever the cache held for the name.
        if let Some(cache) = &self.cache {
            cache.invalidate(name);
        }
        Ok(())
    }

    /// Resolve `name` to an IOR, consulting the cache first when one is
    /// attached.
    pub fn resolve(&self, name: &str) -> OrbResult<Ior> {
        self.resolve_detailed(name).map(|(ior, _)| ior)
    }

    /// Resolve `name`, also reporting whether the answer came from the
    /// cache (`true`) or cost a naming-service round-trip (`false`).
    pub fn resolve_detailed(&self, name: &str) -> OrbResult<(Ior, bool)> {
        let metrics = self.orb.metrics();
        if let Some(cache) = &self.cache {
            if let Some(ior) = cache.get(name) {
                metrics.ior_cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((ior, true));
            }
            metrics.ior_cache_misses.fetch_add(1, Ordering::Relaxed);
        }
        let ior = self.resolve_remote(name)?;
        if let Some(cache) = &self.cache {
            cache.put(name, &ior);
        }
        Ok((ior, false))
    }

    /// Drop `name` from the attached cache because an invocation on the
    /// cached reference failed (or the endpoint's breaker opened). The
    /// next resolve will go back to the naming service.
    pub fn invalidate(&self, name: &str) {
        if let Some(cache) = &self.cache {
            if cache.invalidate(name) {
                self.orb
                    .metrics()
                    .ior_cache_invalidations
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn resolve_remote(&self, name: &str) -> OrbResult<Ior> {
        match self.call(context::Resolve { name: name.into() }) {
            Err(OrbError::RemoteException {
                system: false,
                description,
            }) if description.starts_with("NotFound") => Err(OrbError::NameNotFound {
                name: name.to_owned(),
            }),
            other => other,
        }
    }

    /// Call the naming service.
    fn call<O: Operation<Error = OrbError>>(&self, op: O) -> OrbResult<O::Reply> {
        self.orb.call(&self.naming_ior, op, &CallOptions::default())
    }

    /// Remove the binding for `name`.
    pub fn unbind(&self, name: &str) -> OrbResult<()> {
        self.call(context::Unbind { name: name.into() })?;
        if let Some(cache) = &self.cache {
            cache.invalidate(name);
        }
        Ok(())
    }

    /// All bound names.
    pub fn list(&self) -> OrbResult<Vec<String>> {
        self.call(context::List {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orb::OrbConfig;
    use crate::servant::{echo, EchoServant, Servant};
    use crate::OrbDomain;
    use webfindit_wire::cdr::ByteOrder;
    use webfindit_wire::Value;

    #[test]
    fn naming_over_the_wire() {
        let domain = OrbDomain::new();
        let server = Orb::start(
            OrbConfig::new("Orbix", "ns.qut.edu.au", 9000, ByteOrder::BigEndian),
            Arc::clone(&domain),
        )
        .unwrap();
        let client_orb = Orb::start(
            OrbConfig::new("OrbixWeb", "cl.qut.edu.au", 9001, ByteOrder::LittleEndian),
            Arc::clone(&domain),
        )
        .unwrap();

        let naming = NamingService::new();
        let naming_ior = server.activate(NAMING_OBJECT_KEY, naming);
        let echo_ior = server.activate("echo/1", Arc::new(EchoServant));

        let nc = NamingClient::new(Arc::clone(&client_orb), naming_ior);
        nc.bind("RBH", &echo_ior).unwrap();
        assert_eq!(nc.list().unwrap(), vec!["RBH".to_string()]);

        let resolved = nc.resolve("RBH").unwrap();
        assert_eq!(resolved, echo_ior);

        // The resolved reference is usable.
        let out = client_orb.call(&resolved, echo::Ping {}, &CallOptions::default());
        assert_eq!(out.unwrap(), "pong");

        nc.unbind("RBH").unwrap();
        assert!(matches!(
            nc.resolve("RBH"),
            Err(OrbError::NameNotFound { .. })
        ));

        server.shutdown();
        client_orb.shutdown();
    }

    #[test]
    fn cached_resolution_hits_skip_the_wire_and_invalidate_on_demand() {
        let domain = OrbDomain::new();
        let server = Orb::start(
            OrbConfig::new("Orbix", "ns.qut.edu.au", 9010, ByteOrder::BigEndian),
            Arc::clone(&domain),
        )
        .unwrap();
        let client_orb = Orb::start(
            OrbConfig::new("OrbixWeb", "cl.qut.edu.au", 9011, ByteOrder::LittleEndian),
            Arc::clone(&domain),
        )
        .unwrap();
        let naming = NamingService::new();
        let naming_ior = server.activate(NAMING_OBJECT_KEY, naming);
        let echo_ior = server.activate("echo/1", Arc::new(EchoServant));

        let cache = IorCache::new(Duration::from_secs(60));
        let nc = NamingClient::with_cache(Arc::clone(&client_orb), naming_ior, Arc::clone(&cache));
        nc.bind("RBH", &echo_ior).unwrap();

        let before = client_orb.metrics().snapshot();
        let (first, hit1) = nc.resolve_detailed("RBH").unwrap();
        let (second, hit2) = nc.resolve_detailed("RBH").unwrap();
        assert_eq!(first, echo_ior);
        assert_eq!(second, echo_ior);
        assert!(!hit1, "cold resolve goes to the wire");
        assert!(hit2, "warm resolve is served from cache");
        let d = client_orb.metrics().snapshot().since(&before);
        assert_eq!(d.ior_cache_hits, 1);
        assert_eq!(d.ior_cache_misses, 1);
        assert_eq!(
            d.requests_sent, 1,
            "only the miss costs a naming round-trip"
        );

        // Invalidation forces the next resolve back to the wire.
        nc.invalidate("RBH");
        let (_, hit3) = nc.resolve_detailed("RBH").unwrap();
        assert!(!hit3, "invalidated entry must re-resolve");
        assert_eq!(client_orb.metrics().snapshot().ior_cache_invalidations, 1);

        // Unbinding drops the cache entry too: no stale hit after the
        // binding is gone.
        nc.unbind("RBH").unwrap();
        assert!(matches!(
            nc.resolve("RBH"),
            Err(OrbError::NameNotFound { .. })
        ));

        server.shutdown();
        client_orb.shutdown();
    }

    #[test]
    fn ior_cache_entries_expire_after_ttl() {
        let cache = IorCache::new(Duration::from_millis(20));
        let ior = Ior::new_iiop("IDL:X:1.0", "h", 1, b"k".to_vec());
        cache.put("a", &ior);
        assert_eq!(cache.get("a"), Some(ior));
        assert_eq!(cache.len(), 1);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(cache.get("a"), None, "entry outlived its TTL");
        assert!(cache.is_empty(), "expired entry is swept on access");
        assert!(!cache.invalidate("a"));
    }

    #[test]
    fn direct_bindings() {
        let ns = NamingService::new();
        assert!(ns.is_empty());
        // In process, through the servant's own operations.
        let ior = Ior::new_iiop("IDL:X:1.0", "h", 1, b"k".to_vec());
        ns.bind("a".into(), ior.clone()).unwrap();
        assert_eq!(ns.len(), 1);
        assert_eq!(ns.resolve("a".into()).unwrap(), ior);
        assert!(ns.resolve("b".into()).is_err());
        // The DSI answers with the stringified reference.
        let name = [Value::string("a")];
        let dsi = ns.invoke(context::Resolve::NAME, &name).unwrap();
        assert_eq!(dsi, Value::string(ior.to_stringified()));
    }

    #[test]
    fn bad_arguments_rejected() {
        let ns = NamingService::new();
        let bind = context::Bind::NAME;
        assert!(ns.invoke(bind, &[]).is_err());
        let junk = [Value::string("x"), Value::string("junk")];
        assert!(ns.invoke(bind, &junk).is_err());
        assert!(ns
            .invoke(context::Resolve::NAME, &[Value::Long(1)])
            .is_err());
        assert!(ns.invoke("nonsense", &[]).is_err());
    }
}
