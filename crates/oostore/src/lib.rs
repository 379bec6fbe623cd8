//! # webfindit-oostore — a from-scratch object-oriented database
//!
//! The paper stores every **co-database** in an object-oriented DBMS
//! (ObjectStore or Ontos) because the metadata model is inherently a
//! class lattice: "a set of databases exporting a certain type of
//! information is represented by a class", coalitions are classes, and
//! `Display SubClasses of Class Research` is a lattice walk. This crate
//! rebuilds that substrate:
//!
//! * [`model`] — class definitions with (multiple) inheritance,
//!   typed attributes, and declared methods;
//! * [`store`] — the object store: extents, object identity (OIDs),
//!   attribute access with inheritance, lattice queries
//!   (sub/superclasses, instances-of with subclass closure);
//! * [`oql`] — a small OQL-flavoured query language over extents
//!   (`select <attrs> from <Class> where <predicate>`), which reads
//!   ordered attribute indexes for a range on one attribute;
//! * [`method`] — registered access routines (the paper's
//!   `Description()` / `Funding()` functions), invokable per class.

#![warn(missing_docs)]

mod index;
pub mod method;
pub mod model;
pub mod oql;
pub mod store;

pub use index::KeyRange;
pub use model::{AttrDef, ClassDef, OType, OValue, Oid};
pub use oql::{OoExecMetrics, OqlPlan, OqlQuery};
pub use store::{Object, ObjectStore};

use std::fmt;

/// Errors produced by the object store.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OoError {
    /// A class was defined twice.
    ClassExists(String),
    /// A referenced class does not exist.
    NoSuchClass(String),
    /// Class definition would create an inheritance cycle.
    InheritanceCycle(String),
    /// A referenced attribute does not exist on the class (or ancestors).
    NoSuchAttribute {
        /// The class searched.
        class: String,
        /// The missing attribute.
        attribute: String,
    },
    /// An attribute value did not match its declared type.
    TypeMismatch {
        /// Attribute name.
        attribute: String,
        /// Declared type.
        expected: String,
        /// Offending value.
        found: String,
    },
    /// The referenced object id is not live.
    NoSuchObject(Oid),
    /// A method is not registered for the class.
    NoSuchMethod {
        /// Class name.
        class: String,
        /// Method name.
        method: String,
    },
    /// A method implementation failed.
    MethodFailed(String),
    /// OQL text failed to parse.
    Parse {
        /// Description.
        message: String,
        /// Byte offset.
        offset: usize,
    },
    /// OQL text nests predicates deeper than [`oql::MAX_PRED_DEPTH`].
    TooDeep {
        /// The nesting limit.
        limit: usize,
        /// Byte offset where the limit was reached.
        offset: usize,
    },
}

impl fmt::Display for OoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OoError::ClassExists(c) => write!(f, "class already exists: {c}"),
            OoError::NoSuchClass(c) => write!(f, "no such class: {c}"),
            OoError::InheritanceCycle(c) => {
                write!(f, "class {c} would create an inheritance cycle")
            }
            OoError::NoSuchAttribute { class, attribute } => {
                write!(f, "class {class} has no attribute {attribute}")
            }
            OoError::TypeMismatch {
                attribute,
                expected,
                found,
            } => write!(
                f,
                "attribute {attribute}: expected {expected}, found {found}"
            ),
            OoError::NoSuchObject(oid) => write!(f, "no such object: {oid}"),
            OoError::NoSuchMethod { class, method } => {
                write!(f, "class {class} has no method {method}")
            }
            OoError::MethodFailed(msg) => write!(f, "method failed: {msg}"),
            OoError::Parse { message, offset } => {
                write!(f, "OQL parse error at byte {offset}: {message}")
            }
            OoError::TooDeep { limit, offset } => write!(
                f,
                "OQL parse error at byte {offset}: predicates nest deeper than {limit} levels"
            ),
        }
    }
}

impl std::error::Error for OoError {}

/// Result alias for object-store operations.
pub type OoResult<T> = Result<T, OoError>;
