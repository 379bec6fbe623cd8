//! The driver manager (the `java.sql.DriverManager` analog).

use crate::api::{Connection, Driver};
use crate::{ConnectError, ConnectResult};
use std::sync::Arc;

/// The drivers, fixed when the manager is built; connections are opened
/// by URL, first driver that accepts wins (JDBC semantics).
pub struct DriverManager {
    drivers: Vec<Box<dyn Driver>>,
}

impl DriverManager {
    /// A manager over `drivers`, tried in this order.
    pub fn new(drivers: Vec<Box<dyn Driver>>) -> DriverManager {
        DriverManager { drivers }
    }

    /// Open a connection to `url`.
    pub fn get_connection(&self, url: &str) -> ConnectResult<Box<dyn Connection>> {
        for driver in &self.drivers {
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

    let mut drivers: Vec<Box<dyn Driver>> = [
        Dialect::Oracle,
        Dialect::MSql,
        Dialect::Db2,
        Dialect::Sybase,
    ]
    .into_iter()
    .map(|dialect| {
        Box::new(RelationalDriver::new(dialect, Arc::clone(&registry))) as Box<dyn Driver>
    })
    .collect();
    drivers.push(Box::new(ObjectDriver::ontos(Arc::clone(&registry))));
    drivers.push(Box::new(ObjectDriver::objectstore(registry)));
    DriverManager::new(drivers)
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
        assert_eq!(m.drivers.len(), 6);
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
