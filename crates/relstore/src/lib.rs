//! # webfindit-relstore — a from-scratch relational engine
//!
//! WebFINDIT's data layer wraps relational products — Oracle, mSQL, DB2,
//! Sybase — behind Information Source Interfaces. Since none of those
//! 1990s products can ship with this reproduction, this crate implements
//! the substrate itself: a small but real relational DBMS with
//!
//! * a typed catalog ([`schema`]) with primary-key and NOT NULL
//!   constraints;
//! * heap table storage with B-tree primary and secondary indexes
//!   ([`storage`]);
//! * a SQL subset ([`sql`]) — `CREATE TABLE/INDEX`, `INSERT`, `UPDATE`,
//!   `DELETE`, and `SELECT` with joins, aggregation, `GROUP BY`/`HAVING`,
//!   `ORDER BY`, `DISTINCT`, and `LIMIT`;
//! * an expression evaluator with SQL three-valued logic ([`expr`]);
//! * a cost-informed physical planner ([`plan`]) choosing index point
//!   lookups, index range scans, and hash/index/nested-loop joins from
//!   lightweight per-table statistics;
//! * a pull-based pipelined executor ([`exec`]) that runs the planned
//!   operator tree over borrowed rows and plan-time-bound columns,
//!   aggregates as it pulls, stops pulling at `LIMIT`, and reports
//!   [`exec::ExecMetrics`]; `EXPLAIN` renders the very plan it runs;
//! * statement atomicity plus multi-statement transactions with an undo
//!   log ([`engine`]);
//! * vendor dialect flavoring ([`dialect`]) so that the same logical
//!   query arrives in visibly different SQL per "product", which is the
//!   heterogeneity WebFINDIT's wrappers absorb;
//! * an optional durable storage tier — a checksummed page file manager
//!   over a pluggable [`file_mgr::Vfs`] ([`file_mgr`]), a pinning buffer
//!   pool with clock-sweep eviction ([`buffer`]), an ARIES-style
//!   write-ahead log ([`wal`]), a recovery manager that repeats history
//!   and rolls back losers on open ([`recovery`]), and a lock-table
//!   transaction manager ([`tx`]).
//!
//! The engine is deliberately synchronous: the paper's experiments
//! stress *federation* behaviour, not single-node throughput.
//! [`Database::new`] stays purely in-memory (the fast path);
//! [`Database::open`] attaches the durable tier and recovers to the
//! last committed state, which is what makes the federation's
//! kill/restart chaos scenarios honest.

#![warn(missing_docs)]

pub mod buffer;
pub mod dialect;
pub mod engine;
pub mod exec;
pub mod expr;
pub mod file_mgr;
pub mod plan;
pub mod recovery;
pub mod schema;
pub mod sql;
pub mod storage;
pub mod tx;
pub mod types;
pub mod wal;

pub use dialect::Dialect;
pub use engine::{Database, ExecOutcome, StorageStats};
pub use exec::ExecMetrics;
pub use plan::{plan_select, PhysicalPlan, Sarg};
pub use schema::{Column, TableSchema};
pub use storage::{IndexKind, TableStats};
pub use types::{DataType, Datum, Row};
pub use wal::CrashPoint;

use std::fmt;

/// Errors produced by the relational engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RelError {
    /// SQL text failed to lex or parse.
    Parse {
        /// Human-readable description.
        message: String,
        /// Byte offset where the problem was noticed.
        offset: usize,
    },
    /// A referenced table does not exist.
    NoSuchTable(String),
    /// A referenced column does not exist.
    NoSuchColumn(String),
    /// A table with this name already exists.
    TableExists(String),
    /// An index with this name already exists.
    IndexExists(String),
    /// A value's type did not match the column or operator.
    TypeMismatch {
        /// What was expected.
        expected: String,
        /// What was found.
        found: String,
    },
    /// NOT NULL or primary-key constraint violated.
    ConstraintViolation(String),
    /// A duplicate primary key was inserted.
    DuplicateKey(String),
    /// Arity mismatch between columns and values.
    ArityMismatch {
        /// Expected count.
        expected: usize,
        /// Found count.
        found: usize,
    },
    /// Division by zero during expression evaluation.
    DivisionByZero,
    /// Aggregate misuse (e.g. nested aggregates, aggregate in WHERE).
    AggregateMisuse(String),
    /// A column reference was ambiguous across joined tables.
    AmbiguousColumn(String),
    /// Transaction state error (e.g. COMMIT without BEGIN).
    TransactionState(String),
    /// The statement is valid SQL but not supported by this engine.
    Unsupported(String),
    /// Durable storage failed (I/O, buffer pool exhaustion).
    Storage(String),
    /// On-disk data failed a checksum or decoded to garbage.
    Corrupt(String),
    /// The database crashed (or was crash-injected) and must be
    /// reopened before use.
    Unavailable(String),
    /// A table lock is held by another live transaction.
    LockConflict(String),
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::Parse { message, offset } => {
                write!(f, "SQL parse error at byte {offset}: {message}")
            }
            RelError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            RelError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            RelError::TableExists(t) => write!(f, "table already exists: {t}"),
            RelError::IndexExists(i) => write!(f, "index already exists: {i}"),
            RelError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            RelError::ConstraintViolation(msg) => write!(f, "constraint violation: {msg}"),
            RelError::DuplicateKey(k) => write!(f, "duplicate primary key: {k}"),
            RelError::ArityMismatch { expected, found } => {
                write!(f, "expected {expected} values, found {found}")
            }
            RelError::DivisionByZero => write!(f, "division by zero"),
            RelError::AggregateMisuse(msg) => write!(f, "aggregate misuse: {msg}"),
            RelError::AmbiguousColumn(c) => write!(f, "ambiguous column: {c}"),
            RelError::TransactionState(msg) => write!(f, "transaction error: {msg}"),
            RelError::Unsupported(msg) => write!(f, "unsupported SQL: {msg}"),
            RelError::Storage(msg) => write!(f, "storage error: {msg}"),
            RelError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            RelError::Unavailable(msg) => write!(f, "database unavailable: {msg}"),
            RelError::LockConflict(msg) => write!(f, "lock conflict: {msg}"),
        }
    }
}

impl std::error::Error for RelError {}

/// Result alias for engine operations.
pub type RelResult<T> = Result<T, RelError>;
