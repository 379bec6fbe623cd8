//! # webfindit-codb — co-databases, coalitions, and service links
//!
//! The heart of WebFINDIT's two-level organization (paper §2.1–2.2):
//! every participating database carries a **co-database**, an
//! object-oriented database describing
//!
//! * the **coalitions** (topic clusters) the database belongs to —
//!   represented as a *class lattice* whose instances are
//!   information-source descriptors;
//! * the **service links** — low-overhead sharing agreements between
//!   coalition↔coalition, database↔database, and coalition↔database;
//! * the **access information** of the database itself: documentation
//!   URL, location, wrapper URL, and the exported interface of types
//!   with attributes and access functions.
//!
//! [`CoDatabase`] builds that schema on a [`webfindit_oostore::ObjectStore`]
//! and offers the local operations the WebTassili processor needs:
//! `find_coalitions`, subclass/instance display, documentation and
//! access-info retrieval, plus the evolution operations (§2.1: "new
//! coalitions may form, old coalitions may be dissolved").

#![warn(missing_docs)]

pub mod descriptor;
pub mod evolution;
mod marshal;
pub mod metadata;

pub use descriptor::{ExportedFunction, ExportedType, InformationSource};
pub use metadata::{topic_matches, CoDatabase, LinkEnd, ServiceLink};

use std::fmt;
use webfindit_oostore::OoError;

/// Errors from co-database operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CodbError {
    /// The underlying object store failed.
    Oo(OoError),
    /// A referenced coalition does not exist in this co-database.
    NoSuchCoalition(String),
    /// A referenced information source is not advertised here.
    NoSuchSource(String),
    /// A coalition with this name already exists.
    CoalitionExists(String),
    /// The source is already a member of the coalition.
    AlreadyMember {
        /// The source.
        source: String,
        /// The coalition.
        coalition: String,
    },
    /// A service link with identical endpoints already exists.
    DuplicateLink,
}

impl fmt::Display for CodbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodbError::Oo(e) => write!(f, "object store: {e}"),
            CodbError::NoSuchCoalition(c) => write!(f, "no such coalition: {c}"),
            CodbError::NoSuchSource(s) => write!(f, "no such information source: {s}"),
            CodbError::CoalitionExists(c) => write!(f, "coalition already exists: {c}"),
            CodbError::AlreadyMember { source, coalition } => {
                write!(f, "{source} is already a member of {coalition}")
            }
            CodbError::DuplicateLink => write!(f, "service link already exists"),
        }
    }
}

impl std::error::Error for CodbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodbError::Oo(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OoError> for CodbError {
    fn from(e: OoError) -> Self {
        CodbError::Oo(e)
    }
}

/// Result alias for co-database operations.
pub type CodbResult<T> = Result<T, CodbError>;
