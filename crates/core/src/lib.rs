//! # webfindit — dynamic content-based coupling of Internet databases
//!
//! The core crate of the WebFINDIT reproduction: it assembles the four
//! layers of the paper's architecture (Figure 3) from the substrate
//! crates and implements everything above them.
//!
//! * **Query layer** — [`processor::Processor`] executes WebTassili
//!   statements; [`session::BrowserSession`] is the browser stand-in,
//!   holding the user's navigation context and transcript.
//! * **Communication layer** — ORB instances from `webfindit-orb`;
//!   every inter-site interaction is a GIOP invocation through them.
//! * **Metadata layer** — one [`webfindit_codb::CoDatabase`] per site,
//!   exported as a CORBA servant ([`servants::CoDatabaseServant`]).
//! * **Data layer** — databases behind Information Source Interfaces
//!   ([`servants::IsiServant`]) reached through the JDBC/JNI/native
//!   bridges of `webfindit-connect`.
//!
//! On top of the layers:
//!
//! * [`federation::Federation`] — deployment: ORBs, sites, naming,
//!   document store, and the wiring between them.
//! * [`discovery`] — the incremental query-resolution algorithm of §2
//!   (local co-database → service links → coalition peers, breadth
//!   first), with per-query cost accounting.
//! * [`fedquery`] — federated cross-site query execution: member-set
//!   resolution via discovery, per-site subquery decomposition with
//!   filter/limit pushdown and semi-join key shipping, parallel
//!   shipping over the multiplexed channels, and a deterministic merge
//!   that degrades gracefully per site ([`failure::SiteFailure`]).
//! * [`baselines`] — the comparison systems for the scalability
//!   experiments: flat broadcast and a centralized global index.
//! * [`synth`] — deterministic synthetic federation generator used by
//!   experiments E1/E4/E6.
//! * [`docs`] — the Web stand-in resolving documentation URLs.
//! * [`trace`] — layered execution traces (the Figure 3 regeneration).

#![warn(missing_docs)]

pub mod baselines;
pub mod discovery;
pub mod docs;
pub mod failure;
pub mod federation;
pub mod fedquery;
pub mod processor;
pub mod servants;
pub mod session;
pub mod synth;
pub mod trace;
pub mod value_map;
pub(crate) mod wave;

pub use discovery::{CodbAnswerCache, DiscoveryEngine, DiscoveryOutcome, Lead};
pub use docs::{DocFormat, DocStore, Document};
pub use failure::SiteFailure;
pub use federation::{Federation, SiteHandle, SiteSpec};
pub use fedquery::{FedExecutor, FedOutcome, FedPlan, FedStats};
pub use processor::{Processor, Response};
pub use servants::StallGate;
pub use session::BrowserSession;
pub use trace::{Layer, Trace, TraceEvent};
/// Re-export of the communication layer (needed by deployments for
/// chaos plans and breaker configuration).
pub use webfindit_orb as orb;
/// Re-export of the wire layer (needed by deployments for [`federation::Federation::add_orb`]).
pub use webfindit_wire as wire;

use std::fmt;

/// Errors surfaced by the WebFINDIT core.
#[derive(Debug)]
#[non_exhaustive]
pub enum WebfinditError {
    /// The communication layer failed.
    Orb(webfindit_orb::OrbError),
    /// The connectivity layer failed.
    Connect(webfindit_connect::ConnectError),
    /// A co-database operation failed.
    Codb(webfindit_codb::CodbError),
    /// WebTassili parsing or translation failed.
    Tassili(webfindit_tassili::TassiliError),
    /// A referenced site is not part of the federation.
    UnknownSite(String),
    /// A referenced document URL is not resolvable.
    UnknownDocument(String),
    /// The requested information type matched nothing anywhere.
    NothingFound(String),
    /// A session operation needed a coalition connection first.
    NotConnected,
    /// Malformed payload crossing the ORB boundary.
    Protocol(String),
}

impl fmt::Display for WebfinditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WebfinditError::Orb(e) => write!(f, "communication layer: {e}"),
            WebfinditError::Connect(e) => write!(f, "data layer: {e}"),
            WebfinditError::Codb(e) => write!(f, "metadata layer: {e}"),
            WebfinditError::Tassili(e) => write!(f, "query layer: {e}"),
            WebfinditError::UnknownSite(s) => write!(f, "unknown site: {s}"),
            WebfinditError::UnknownDocument(u) => write!(f, "unresolvable document: {u}"),
            WebfinditError::NothingFound(t) => {
                write!(f, "no coalition or service link advertises: {t}")
            }
            WebfinditError::NotConnected => {
                write!(f, "connect to a coalition first (Connect To Coalition …)")
            }
            WebfinditError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for WebfinditError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WebfinditError::Orb(e) => Some(e),
            WebfinditError::Connect(e) => Some(e),
            WebfinditError::Codb(e) => Some(e),
            WebfinditError::Tassili(e) => Some(e),
            _ => None,
        }
    }
}

impl From<webfindit_orb::OrbError> for WebfinditError {
    fn from(e: webfindit_orb::OrbError) -> Self {
        WebfinditError::Orb(e)
    }
}
/// A result that does not decode is the communication layer's failure:
/// the bytes came off the wire.
impl From<webfindit_wire::WireError> for WebfinditError {
    fn from(e: webfindit_wire::WireError) -> Self {
        WebfinditError::Orb(webfindit_orb::OrbError::Wire(e))
    }
}
impl From<webfindit_connect::ConnectError> for WebfinditError {
    fn from(e: webfindit_connect::ConnectError) -> Self {
        WebfinditError::Connect(e)
    }
}
impl From<webfindit_codb::CodbError> for WebfinditError {
    fn from(e: webfindit_codb::CodbError) -> Self {
        WebfinditError::Codb(e)
    }
}
impl From<webfindit_tassili::TassiliError> for WebfinditError {
    fn from(e: webfindit_tassili::TassiliError) -> Self {
        WebfinditError::Tassili(e)
    }
}

/// Result alias for WebFINDIT operations.
pub type WfResult<T> = Result<T, WebfinditError>;
