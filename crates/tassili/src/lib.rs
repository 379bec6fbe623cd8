//! # webfindit-tassili — the WebTassili language
//!
//! WebTassili (paper §2.3) is WebFINDIT's special-purpose language. It
//! serves three roles, all implemented here:
//!
//! 1. **Exploration / user education** — locating coalitions and
//!    databases by information type and browsing the metadata space:
//!    `Find Coalitions With Information Medical Research`,
//!    `Display SubClasses of Class Research`,
//!    `Display Instances of Class Research`,
//!    `Display Document of Instance Royal Brisbane Hospital Of Class
//!    Research`, `Display Access Information of Instance …`,
//!    `Connect To Coalition Research`.
//! 2. **Data queries** — invoking a source's exported access functions
//!    (`Invoke … On Instance …`) or submitting native queries
//!    (`Submit Native '…' To Instance …`), with [`translate`] producing
//!    the vendor SQL exactly as the paper shows for
//!    `Funding(ResearchProjects.Title, Title = 'AIDS and drugs')` →
//!    `SELECT a.Funding FROM ResearchProjects a WHERE a.Title = '…'`.
//! 3. **Information-space management** — definition and maintenance of
//!    the architecture: `Create Coalition`, `Dissolve Coalition`,
//!    `Join/Leave`, `Link … To …`.
//!
//! The crate is dependency-free: parsing produces a plain AST that the
//! WebFINDIT query processor (in the `webfindit` core crate) executes
//! against co-databases and data sources.

#![warn(missing_docs)]

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod translate;

pub use ast::{Arg, LinkTarget, Literal, PredOp, Predicate, Statement};
pub use parser::parse;
pub use translate::{predicate_to_sql, translate_invoke_to_sql};

use std::fmt;

/// Errors from WebTassili parsing or translation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TassiliError {
    /// The input failed to parse.
    Parse {
        /// Description of the problem.
        message: String,
        /// Byte offset where it was noticed.
        offset: usize,
    },
    /// The input nests deeper than [`parser::MAX_DEPTH`].
    TooDeep {
        /// The nesting limit.
        limit: usize,
        /// Byte offset where the limit was reached.
        offset: usize,
    },
    /// A translation was requested that the target cannot express.
    Translate(String),
}

impl fmt::Display for TassiliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TassiliError::Parse { message, offset } => {
                write!(f, "WebTassili parse error at byte {offset}: {message}")
            }
            TassiliError::TooDeep { limit, offset } => write!(
                f,
                "WebTassili parse error at byte {offset}: statement nests deeper than {limit} levels"
            ),
            TassiliError::Translate(msg) => write!(f, "translation error: {msg}"),
        }
    }
}

impl std::error::Error for TassiliError {}

/// Result alias for WebTassili operations.
pub type TassiliResult<T> = Result<T, TassiliError>;
