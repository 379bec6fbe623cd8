//! The data-source registry: the simulated network of database servers.
//!
//! In the paper, URLs inside co-database descriptors name real hosts.
//! Here, a [`DataSourceRegistry`] plays the network: deployments register
//! running engine instances under `(vendor, instance)` keys, and drivers
//! resolve connection URLs against it.

use crate::{ConnectError, ConnectResult};
use std::cmp::Ordering;
use std::sync::Arc;
use webfindit_base::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use webfindit_oostore::method::MethodTable;
use webfindit_oostore::ObjectStore;
use webfindit_relstore::{Database, Dialect};

/// A registered object database: the store plus its access routines.
pub struct OoInstance {
    /// The object store.
    pub store: ObjectStore,
    /// Registered access routines.
    pub methods: MethodTable,
}

/// A registered engine instance. Queries share it through [`Instance::read`];
/// anything that may write (DML, DDL, transaction control, a checkpoint,
/// crash and restart) holds it alone through [`Instance::lock`].
pub struct Instance<T> {
    engine: RwLock<T>,
    /// The SQL dialect a relational engine speaks (`None` for an object
    /// store). It never changes, so it is read without the guard.
    dialect: Option<Dialect>,
}

impl<T> Instance<T> {
    /// The exclusive guard.
    #[track_caller]
    pub fn lock(&self) -> RwLockWriteGuard<'_, T> {
        self.engine.write()
    }

    /// The shared guard.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.engine.read()
    }

    /// The shared guard if nobody holds the exclusive one, without
    /// waiting.
    #[track_caller]
    pub(crate) fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        self.engine.try_read()
    }

    /// The dialect the instance was registered with.
    pub(crate) fn dialect(&self) -> Option<Dialect> {
        self.dialect
    }
}

/// A registered instance under its lowercased `(vendor, instance)` key.
type Entry<T> = ((String, String), Arc<Instance<T>>);

/// Registered instances sorted by key, so a lookup folds case as it
/// compares and builds no key.
type InstanceMap<T> = RwLock<Vec<Entry<T>>>;

/// `key`, stored lowercase, against `(vendor, name)` in any case.
fn cmp_folded(key: &(String, String), vendor: &str, name: &str) -> Ordering {
    fn folded(s: &str) -> impl Iterator<Item = u8> + '_ {
        s.bytes().map(|b| b.to_ascii_lowercase())
    }
    key.0
        .bytes()
        .cmp(folded(vendor))
        .then_with(|| key.1.bytes().cmp(folded(name)))
}

/// Where `(vendor, name)` is in `map`, or where it would go.
fn position<T>(map: &[Entry<T>], vendor: &str, name: &str) -> Result<usize, usize> {
    map.binary_search_by(|(key, _)| cmp_folded(key, vendor, name))
}

/// Resolve `(vendor, name)` in `map`.
fn resolve<T>(map: &InstanceMap<T>, vendor: &str, name: &str) -> ConnectResult<Arc<Instance<T>>> {
    let map = map.read();
    match position(&map, vendor, name) {
        Ok(at) => Ok(Arc::clone(&map[at].1)),
        Err(_) => Err(ConnectError::UnknownDataSource(format!("{vendor}/{name}"))),
    }
}

/// Register `handle` under `(vendor, name)`, replacing any instance
/// registered there.
fn insert<T>(map: &InstanceMap<T>, vendor: &str, name: &str, handle: &Arc<Instance<T>>) {
    let mut map = map.write();
    match position(&map, vendor, name) {
        Ok(at) => map[at].1 = Arc::clone(handle),
        Err(at) => {
            let key = (vendor.to_ascii_lowercase(), name.to_ascii_lowercase());
            map.insert(at, (key, Arc::clone(handle)));
        }
    }
}

/// Remove `(vendor, name)` from `map`; true if it was there.
fn remove<T>(map: &InstanceMap<T>, vendor: &str, name: &str) -> bool {
    let mut map = map.write();
    let found = position(&map, vendor, name);
    if let Ok(at) = found {
        map.remove(at);
    }
    found.is_ok()
}

/// Shared registry of running database instances.
#[derive(Default)]
pub struct DataSourceRegistry {
    relational: InstanceMap<Database>,
    object: InstanceMap<OoInstance>,
}

impl DataSourceRegistry {
    /// Create an empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Register a relational instance under `(vendor, name)`.
    pub fn register_relational(
        &self,
        vendor: &str,
        name: &str,
        db: Database,
    ) -> Arc<Instance<Database>> {
        // Durable instances fsync their WAL inside COMMIT while the
        // exclusive guard is held; that hold-across-blocking is
        // deliberate (writers are serialised so the WAL order is the
        // commit order, and readers must not see a half-applied
        // statement) and exempted from the runtime detector. A shared
        // guard only reads and never reaches the WAL.
        let dialect = Some(db.dialect());
        let handle = Arc::new(Instance {
            engine: RwLock::new_labeled(db, "connect.registry.relational-db")
                .allow_hold_across_blocking(
                    "commit-path fsync runs under the per-instance database lock",
                ),
            dialect,
        });
        insert(&self.relational, vendor, name, &handle);
        handle
    }

    /// Register an object instance under `(vendor, name)`.
    pub fn register_object(
        &self,
        vendor: &str,
        name: &str,
        store: ObjectStore,
        methods: MethodTable,
    ) -> Arc<Instance<OoInstance>> {
        let handle = Arc::new(Instance {
            engine: RwLock::new(OoInstance { store, methods }),
            dialect: None,
        });
        insert(&self.object, vendor, name, &handle);
        handle
    }

    /// Resolve a relational instance.
    pub fn relational(&self, vendor: &str, name: &str) -> ConnectResult<Arc<Instance<Database>>> {
        resolve(&self.relational, vendor, name)
    }

    /// Resolve an object instance.
    pub fn object(&self, vendor: &str, name: &str) -> ConnectResult<Arc<Instance<OoInstance>>> {
        resolve(&self.object, vendor, name)
    }

    /// Simulate a crash of a relational instance (the site loses
    /// power mid-flight). The handle stays registered — connections
    /// fail with the engine's `Unavailable` error until
    /// [`DataSourceRegistry::restart_relational`] runs recovery.
    /// Returns false for unknown or in-memory (non-durable) instances,
    /// whose state cannot survive a crash in any meaningful sense.
    pub fn crash_relational(&self, vendor: &str, name: &str) -> bool {
        match self.relational(vendor, name) {
            Ok(db) => db.lock().simulate_crash(),
            Err(_) => false,
        }
    }

    /// Restart a crashed relational instance: replay the WAL, roll
    /// back in-flight transactions, and bring the handle back online.
    /// A no-op for instances that are not crashed.
    pub fn restart_relational(&self, vendor: &str, name: &str) -> ConnectResult<()> {
        let db = self.relational(vendor, name)?;
        let mut guard = db.lock();
        if guard.is_crashed() {
            guard.reopen()?;
        }
        Ok(())
    }

    /// Remove an instance (database taken offline). Returns true if it
    /// existed. Used by the failure-injection tests.
    pub fn unregister(&self, vendor: &str, name: &str) -> bool {
        let a = remove(&self.relational, vendor, name);
        let b = remove(&self.object, vendor, name);
        a || b
    }

    /// All registered `(vendor, instance)` pairs, for deployment listings.
    pub fn list(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .relational
            .read()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        out.extend(self.object.read().iter().map(|(k, _)| k.clone()));
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webfindit_relstore::Dialect;

    #[test]
    fn register_resolve_unregister() {
        let reg = DataSourceRegistry::new();
        reg.register_relational("Oracle", "RBH", Database::new("RBH", Dialect::Oracle));
        assert!(reg.relational("oracle", "rbh").is_ok());
        assert!(reg.relational("oracle", "ghost").is_err());
        assert!(reg.unregister("ORACLE", "RBH"));
        assert!(!reg.unregister("oracle", "rbh"));
        assert!(reg.relational("oracle", "rbh").is_err());
    }

    #[test]
    fn a_lookup_folds_case_and_keeps_the_callers_name_in_its_error() {
        let reg = DataSourceRegistry::new();
        for name in ["Zeta", "alpha", "MBF Health", "mid"] {
            reg.register_relational("Oracle", name, Database::new(name, Dialect::Oracle));
        }
        let mbf = reg.relational("oracle", "mbf health").unwrap();
        for (vendor, name) in [
            ("ORACLE", "MBF HEALTH"),
            ("Oracle", "Mbf Health"),
            ("oRaClE", "mBF hEALTH"),
        ] {
            assert!(
                Arc::ptr_eq(&reg.relational(vendor, name).unwrap(), &mbf),
                "{vendor}/{name}"
            );
        }
        for (vendor, name) in [
            ("Oracle", "Ghost"),
            ("DB2", "MBF Health"),
            ("Oracle", "MBF Health "),
        ] {
            match reg.relational(vendor, name) {
                Err(e @ ConnectError::UnknownDataSource(_)) => {
                    let today = ConnectError::UnknownDataSource(format!("{vendor}/{name}"));
                    assert_eq!(e.to_string(), today.to_string());
                }
                other => panic!("{vendor}/{name}: {:?}", other.map(|_| ())),
            }
        }
        // Re-registering under another case replaces the instance.
        let again =
            reg.register_relational("ORACLE", "mbf HEALTH", Database::new("m", Dialect::Oracle));
        assert!(Arc::ptr_eq(
            &reg.relational("oracle", "mbf health").unwrap(),
            &again
        ));
        assert_eq!(reg.list().len(), 4);
    }

    #[test]
    fn listing_is_sorted_and_merged() {
        let reg = DataSourceRegistry::new();
        reg.register_relational("oracle", "b", Database::new("b", Dialect::Oracle));
        reg.register_object("ontos", "a", ObjectStore::new("a"), MethodTable::new());
        assert_eq!(
            reg.list(),
            vec![
                ("ontos".to_string(), "a".to_string()),
                ("oracle".to_string(), "b".to_string())
            ]
        );
    }
}
