//! The driver manager (the `java.sql.DriverManager` analog).

use crate::api::{Connection, Driver};
use crate::{ConnectError, ConnectResult};
use std::sync::Arc;
use webfindit_base::sync::RwLock;

/// Registry of drivers; connections are opened by URL, first driver that
/// accepts wins (JDBC semantics).
#[derive(Default)]
pub struct DriverManager {
    drivers: RwLock<Vec<Arc<dyn Driver>>>,
}

impl DriverManager {
    /// Create an empty manager.
    pub fn new() -> DriverManager {
        DriverManager::default()
    }

    /// Register a driver.
    pub fn register(&self, driver: Arc<dyn Driver>) {
        self.drivers.write().push(driver);
    }

    /// Open a connection to `url`.
    pub fn get_connection(&self, url: &str) -> ConnectResult<Box<dyn Connection>> {
        for driver in self.drivers.read().iter() {
            if driver.accepts(url) {
                return driver.connect(url);
            }
        }
        Err(ConnectError::NoDriver(url.to_owned()))
    }
}

/// Build a manager with the full vendor complement used by the paper's
/// deployment, all resolving against `registry`.
pub fn standard_manager(registry: Arc<crate::registry::DataSourceRegistry>) -> DriverManager {
    use crate::drivers::{ObjectDriver, RelationalDriver};
    use webfindit_relstore::Dialect;

    let m = DriverManager::new();
    for dialect in [
        Dialect::Oracle,
        Dialect::MSql,
        Dialect::Db2,
        Dialect::Sybase,
    ] {
        m.register(Arc::new(RelationalDriver::new(
            dialect,
            Arc::clone(&registry),
        )));
    }
    m.register(Arc::new(ObjectDriver::ontos(Arc::clone(&registry))));
    m.register(Arc::new(ObjectDriver::objectstore(registry)));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::DataSourceRegistry;
    use webfindit_relstore::{Database, Dialect};

    #[test]
    fn url_dispatch() {
        let reg = DataSourceRegistry::new();
        reg.register_relational("db2", "ATO", Database::new("ATO", Dialect::Db2));
        let m = standard_manager(Arc::clone(&reg));
        assert_eq!(m.drivers.read().len(), 6);
        assert!(m.get_connection("jdbc:db2://h/ATO").is_ok());
        assert!(matches!(
            m.get_connection("jdbc:postgres://h/ATO"),
            Err(ConnectError::NoDriver(_))
        ));
        assert!(matches!(
            m.get_connection("not a url"),
            Err(ConnectError::NoDriver(_))
        ));
    }
}
