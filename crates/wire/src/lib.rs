//! # webfindit-wire — the IIOP substrate
//!
//! A from-scratch implementation of the wire layer that the WebFINDIT paper
//! relies on for inter-ORB interoperability: the CORBA 2.0 **Common Data
//! Representation** (CDR), the **General Inter-ORB Protocol** (GIOP) message
//! set, **Interoperable Object References** (IORs), and GIOP framing over
//! TCP (IIOP).
//!
//! The paper's prototype connects three commercial ORBs (Orbix, OrbixWeb,
//! VisiBroker) that can only talk to each other because they all speak GIOP
//! over TCP/IP (IIOP). This crate provides that common tongue so that the
//! ORB instances built in `webfindit-orb` interoperate through real
//! marshalled bytes rather than shared-memory shortcuts.
//!
//! ## Layout
//!
//! * [`bufpool`] — recycled byte buffers backing the CDR encode path.
//! * [`cdr`] — aligned CDR encoding/decoding with both byte orders.
//! * [`value`] — a self-describing value model (the `any`/TypeCode analog)
//!   used by dynamic invocation.
//! * [`giop`] — GIOP message headers and bodies (Request, Reply,
//!   LocateRequest/Reply, CancelRequest, CloseConnection, MessageError,
//!   Fragment).
//! * [`ior`] — interoperable object references with tagged IIOP profiles.
//! * [`poll`] — a minimal `poll(2)` readiness binding for the reactor core.
//! * [`transport`] — GIOP framing over TCP: the one incremental frame
//!   reader, a blocking connection with chaos fault injection, and the
//!   reactor's nonblocking send half.

#![warn(missing_docs)]

pub mod bufpool;
pub mod cdr;
pub mod giop;
pub mod ior;
pub mod poll;
pub mod transport;
pub mod value;

pub use bufpool::{BufPool, FrameBuf, PooledBuf};
pub use cdr::{ByteOrder, CdrReader, CdrWriter};
pub use giop::{
    FragmentAssembler, GiopHeader, GiopMessage, MessageKind, ReplyStatus, RequestHeader,
};
pub use ior::{IiopProfile, Ior, TaggedProfile};
pub use transport::{Fault, FaultSlot, FrameReader, FramedTcp, NbSender};
pub use value::Value;

use std::fmt;

/// Maximum GIOP message body size this implementation will accept.
///
/// A defensive bound: a corrupted or malicious header cannot make the
/// reader allocate unbounded memory.
pub const MAX_MESSAGE_SIZE: u32 = 16 * 1024 * 1024;

/// Errors produced by the wire layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ended before a complete value could be decoded.
    UnexpectedEof {
        /// How many bytes the decoder needed.
        needed: usize,
        /// How many bytes remained.
        remaining: usize,
    },
    /// A GIOP frame did not start with the `GIOP` magic bytes.
    BadMagic([u8; 4]),
    /// The GIOP version in a header is not one we speak.
    UnsupportedVersion {
        /// Major version found.
        major: u8,
        /// Minor version found.
        minor: u8,
    },
    /// An enum discriminant or type tag had no defined meaning.
    BadTag {
        /// What was being decoded.
        context: &'static str,
        /// The offending tag value.
        tag: u32,
    },
    /// A decoded string was not valid UTF-8.
    InvalidUtf8,
    /// A decoded boolean octet was neither 0 nor 1.
    InvalidBoolean(u8),
    /// A message or sequence length exceeded a defensive limit.
    TooLarge {
        /// The declared size.
        declared: u64,
        /// The enforced limit.
        limit: u64,
    },
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The peer closed the connection or pipe.
    Closed,
    /// A string that must not contain a NUL byte contained one.
    EmbeddedNul,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { needed, remaining } => write!(
                f,
                "unexpected end of CDR buffer: needed {needed} bytes, {remaining} remain"
            ),
            WireError::BadMagic(m) => write!(f, "bad GIOP magic {m:?} (expected \"GIOP\")"),
            WireError::UnsupportedVersion { major, minor } => {
                write!(f, "unsupported GIOP version {major}.{minor}")
            }
            WireError::BadTag { context, tag } => {
                write!(f, "invalid tag {tag} while decoding {context}")
            }
            WireError::InvalidUtf8 => write!(f, "decoded string is not valid UTF-8"),
            WireError::InvalidBoolean(b) => write!(f, "invalid boolean octet {b}"),
            WireError::TooLarge { declared, limit } => {
                write!(f, "declared size {declared} exceeds limit {limit}")
            }
            WireError::Io(e) => write!(f, "transport I/O error: {e}"),
            WireError::Closed => write!(f, "transport closed by peer"),
            WireError::EmbeddedNul => write!(f, "string contains an embedded NUL byte"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Convenient result alias for wire operations.
pub type WireResult<T> = Result<T, WireError>;
