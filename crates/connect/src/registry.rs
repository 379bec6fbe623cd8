//! The data-source registry: the simulated network of database servers.
//!
//! In the paper, URLs inside co-database descriptors name real hosts.
//! Here, a [`DataSourceRegistry`] plays the network: deployments register
//! running engine instances under `(vendor, instance)` keys, and drivers
//! resolve connection URLs against it.

use crate::{ConnectError, ConnectResult};
use std::collections::BTreeMap;
use std::sync::Arc;
use webfindit_base::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use webfindit_oostore::method::MethodTable;
use webfindit_oostore::ObjectStore;
use webfindit_relstore::Database;

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
pub struct Instance<T>(RwLock<T>);

impl<T> Instance<T> {
    /// The exclusive guard.
    #[track_caller]
    pub fn lock(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write()
    }

    /// The shared guard.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read()
    }
}

/// `(vendor, instance)` → shared engine handle.
type InstanceMap<T> = RwLock<BTreeMap<(String, String), Arc<Instance<T>>>>;

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
        let handle = Arc::new(Instance(
            RwLock::new_labeled(db, "connect.registry.relational-db").allow_hold_across_blocking(
                "commit-path fsync runs under the per-instance database lock",
            ),
        ));
        self.relational.write().insert(
            (vendor.to_ascii_lowercase(), name.to_ascii_lowercase()),
            Arc::clone(&handle),
        );
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
        let handle = Arc::new(Instance(RwLock::new(OoInstance { store, methods })));
        self.object.write().insert(
            (vendor.to_ascii_lowercase(), name.to_ascii_lowercase()),
            Arc::clone(&handle),
        );
        handle
    }

    /// Resolve a relational instance.
    pub fn relational(&self, vendor: &str, name: &str) -> ConnectResult<Arc<Instance<Database>>> {
        self.relational
            .read()
            .get(&(vendor.to_ascii_lowercase(), name.to_ascii_lowercase()))
            .cloned()
            .ok_or_else(|| ConnectError::UnknownDataSource(format!("{vendor}/{name}")))
    }

    /// Resolve an object instance.
    pub fn object(&self, vendor: &str, name: &str) -> ConnectResult<Arc<Instance<OoInstance>>> {
        self.object
            .read()
            .get(&(vendor.to_ascii_lowercase(), name.to_ascii_lowercase()))
            .cloned()
            .ok_or_else(|| ConnectError::UnknownDataSource(format!("{vendor}/{name}")))
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
        let key = (vendor.to_ascii_lowercase(), name.to_ascii_lowercase());
        let a = self.relational.write().remove(&key).is_some();
        let b = self.object.write().remove(&key).is_some();
        a || b
    }

    /// All registered `(vendor, instance)` pairs, for deployment listings.
    pub fn list(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .relational
            .read()
            .keys()
            .chain(self.object.read().keys())
            .cloned()
            .collect();
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
