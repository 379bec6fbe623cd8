//! # webfindit-connect — the JDBC/JNI connectivity substrate
//!
//! The paper reaches its databases through three kinds of bridges
//! (Figure 2):
//!
//! * **JDBC** — relational products (Oracle, mSQL, DB2, Sybase) accessed
//!   from Java CORBA servers through the driver-manager/driver/
//!   connection API;
//! * **JNI** — the Ontos object database accessed from a Java CORBA
//!   server through native glue;
//! * **C++ method invocation** — ObjectStore accessed in-process from
//!   C++ CORBA servers.
//!
//! This crate rebuilds that stack against the simulated engines:
//!
//! * [`manager`] — a `DriverManager` with URL-scheme driver
//!   registration (`jdbc:oracle://host/db`, `jni:ontos://host/db`,
//!   `native:objectstore://host/db`);
//! * [`api`] — `Driver` / `Connection` traits and result types;
//! * [`drivers`] — one relational driver per vendor, plus the two OO
//!   bridges, each tagged with its [`BridgeKind`];
//! * [`registry`] — the "network" of running database instances that
//!   URLs resolve against;
//! * [`compensate`] — a gateway-side compensating connection that
//!   absorbs vendor feature gaps (mSQL's missing aggregates/joins) by
//!   staging base tables locally and finishing the query in a canonical
//!   engine — exactly the fetch-and-compute wrapper trick of the era.

#![warn(missing_docs)]

pub mod api;
pub mod compensate;
pub mod drivers;
pub mod manager;
pub mod registry;

pub use api::{parse_url, BridgeKind, Connection, DataMetrics, Driver, QueryOutput, UrlParts};
pub use compensate::CompensatingConnection;
pub use manager::DriverManager;
pub use registry::DataSourceRegistry;

use std::fmt;
use webfindit_oostore::OoError;
use webfindit_relstore::RelError;

/// Errors surfaced by the connectivity layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum ConnectError {
    /// No registered driver accepts the URL.
    NoDriver(String),
    /// The URL is syntactically malformed.
    BadUrl(String),
    /// The URL names a data source that is not registered.
    UnknownDataSource(String),
    /// The underlying relational engine failed.
    Rel(RelError),
    /// The underlying object store failed.
    Oo(OoError),
    /// The connection has been closed.
    Closed,
    /// The operation is not meaningful for this connection kind
    /// (e.g. SQL against an object store).
    WrongParadigm(String),
    /// The consumer of a statement's rows refused one (a reply that
    /// outgrew its size limit); the statement stopped there.
    Sink(String),
}

impl fmt::Display for ConnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnectError::NoDriver(url) => write!(f, "no suitable driver for {url}"),
            ConnectError::BadUrl(url) => write!(f, "malformed connection URL: {url}"),
            ConnectError::UnknownDataSource(name) => {
                write!(f, "unknown data source: {name}")
            }
            ConnectError::Rel(e) => write!(f, "relational engine: {e}"),
            ConnectError::Oo(e) => write!(f, "object store: {e}"),
            ConnectError::Closed => write!(f, "connection is closed"),
            ConnectError::WrongParadigm(msg) => write!(f, "wrong paradigm: {msg}"),
            ConnectError::Sink(msg) => write!(f, "row sink: {msg}"),
        }
    }
}

impl std::error::Error for ConnectError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConnectError::Rel(e) => Some(e),
            ConnectError::Oo(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelError> for ConnectError {
    fn from(e: RelError) -> Self {
        ConnectError::Rel(e)
    }
}

impl From<OoError> for ConnectError {
    fn from(e: OoError) -> Self {
        ConnectError::Oo(e)
    }
}

/// Result alias for connectivity operations.
pub type ConnectResult<T> = Result<T, ConnectError>;
