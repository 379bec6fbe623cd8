//! # webfindit-orb — a from-scratch CORBA-like ORB
//!
//! The WebFINDIT paper encapsulates every database and co-database in a
//! CORBA server object, deploys those objects across three vendor ORBs
//! (Orbix, OrbixWeb, VisiBroker for Java), and relies on IIOP for the
//! ORBs to interoperate. This crate rebuilds that substrate:
//!
//! * [`servant::Servant`] — the server-side object implementation trait
//!   (the skeleton side of IDL), and [`interface!`], which declares an
//!   interface once and generates its skeleton and its typed client
//!   [`Operation`]s.
//! * [`adapter::ObjectAdapter`] — a POA-style adapter mapping opaque
//!   object keys to active servants.
//! * [`orb::Orb`] — a named ORB instance with an IIOP listener, client
//!   connection pool, request dispatch, and metrics. Several `Orb`s in
//!   one process genuinely exchange CDR-marshalled GIOP frames over
//!   loopback TCP, exactly as the paper's three ORBs did over a LAN.
//! * [`domain::OrbDomain`] — the shared name→endpoint resolver standing
//!   in for DNS, so IORs can carry the paper's hostnames
//!   (`dba.icis.qut.edu.au`) while sockets bind to loopback.
//! * [`naming::NamingService`] — a CORBA-style naming context,
//!   implemented *as a servant* so that name resolution itself travels
//!   through GIOP like any other invocation.
//! * [`metrics`] — per-ORB counters (requests, bytes, local dispatches)
//!   that the scalability experiments read.

#![warn(missing_docs)]

pub mod adapter;
pub mod channel;
pub mod chaos;
pub mod domain;
pub mod interface;
pub mod metrics;
pub mod naming;
pub mod orb;
mod reactor;
pub mod servant;

pub use adapter::ObjectAdapter;
pub use channel::{BreakerConfig, BreakerState, CallOptions, IiopChannel, RetryPolicy};
pub use chaos::{ChaosAction, ChaosEvent, ChaosHost, ChaosPlan, ChaosRegistry, ChaosTargets};
pub use domain::OrbDomain;
pub use interface::Operation;
pub use metrics::{OrbMetrics, OrbSnapshot};
pub use naming::{IorCache, NamingClient, NamingService};
pub use orb::{Invocation, Orb, OrbConfig};
pub use servant::{Servant, ServantError};

use std::fmt;
use webfindit_wire::WireError;

/// Errors surfaced by ORB operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum OrbError {
    /// The wire layer failed (marshalling, transport, protocol).
    Wire(WireError),
    /// The remote servant raised an exception.
    RemoteException {
        /// True for system exceptions (ORB/infrastructure failures),
        /// false for user exceptions (application-declared).
        system: bool,
        /// Human-readable description carried in the reply body.
        description: String,
    },
    /// No servant is registered under the requested object key.
    UnknownObject {
        /// The key that failed to resolve.
        key: String,
    },
    /// The IOR has no usable IIOP profile.
    NoEndpoint,
    /// The IOR's hostname could not be resolved to a socket address.
    UnknownHost {
        /// Advertised host name.
        host: String,
        /// Advertised port.
        port: u16,
    },
    /// The ORB has been shut down.
    ShutDown,
    /// The call's deadline expired before a reply arrived; a GIOP
    /// CancelRequest was sent to the server on a best-effort basis.
    DeadlineExpired {
        /// The deadline the caller set.
        operation_deadline: std::time::Duration,
    },
    /// A name was not found in the naming service.
    NameNotFound {
        /// The unresolved name.
        name: String,
    },
    /// The endpoint's circuit breaker is open: recent calls failed
    /// consecutively and the cooldown has not elapsed, so the call was
    /// rejected without touching the wire. Safe to retry elsewhere.
    CircuitOpen {
        /// Advertised host of the tripped endpoint.
        host: String,
        /// Advertised port of the tripped endpoint.
        port: u16,
    },
}

impl fmt::Display for OrbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrbError::Wire(e) => write!(f, "wire error: {e}"),
            OrbError::RemoteException {
                system,
                description,
            } => {
                let kind = if *system { "system" } else { "user" };
                write!(f, "remote {kind} exception: {description}")
            }
            OrbError::UnknownObject { key } => write!(f, "unknown object key {key:?}"),
            OrbError::NoEndpoint => write!(f, "object reference has no IIOP profile"),
            OrbError::UnknownHost { host, port } => {
                write!(f, "cannot resolve endpoint {host}:{port}")
            }
            OrbError::ShutDown => write!(f, "ORB has been shut down"),
            OrbError::DeadlineExpired { operation_deadline } => {
                write!(f, "deadline of {operation_deadline:?} expired before reply")
            }
            OrbError::NameNotFound { name } => write!(f, "name not bound: {name}"),
            OrbError::CircuitOpen { host, port } => {
                write!(f, "circuit breaker open for endpoint {host}:{port}")
            }
        }
    }
}

impl std::error::Error for OrbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OrbError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for OrbError {
    fn from(e: WireError) -> Self {
        OrbError::Wire(e)
    }
}

/// Result alias for ORB operations.
pub type OrbResult<T> = Result<T, OrbError>;
