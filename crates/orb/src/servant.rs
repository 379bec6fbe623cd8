//! The servant trait — the server-side implementation of a CORBA object.
//!
//! The ORB dispatches every request through [`Servant::invoke_into`],
//! which writes the result straight into the reply frame, unless the
//! servant answers it at once through [`Servant::invoke_now`].
//!
//! The skeletons of the system's own interfaces (co-database,
//! information source, naming, echo) are generated: each interface is
//! declared once with [`interface!`](crate::interface!), whose skeleton
//! reads typed arguments and writes typed results, and whose client types
//! make a misspelt operation or a mistyped argument a compile error.
//!
//! The Dynamic Skeleton Interface remains for dynamic servants, which
//! dispatch on the operation name with self-describing [`Value`]
//! arguments: a servant may implement [`Servant::invoke`] alone, and the
//! default `invoke_into` encodes what it returns.

use std::fmt;
use webfindit_wire::{CdrWriter, Rest, Value};

/// Errors a servant can raise; mapped onto GIOP reply statuses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServantError {
    /// The servant does not implement the requested operation.
    /// Becomes a `BAD_OPERATION` system exception.
    UnknownOperation(String),
    /// Arguments did not match the operation's signature.
    /// Becomes a `BAD_PARAM` system exception.
    BadArguments(String),
    /// A declared, application-level failure (e.g. "no such coalition").
    /// Becomes a user exception.
    Application(String),
    /// The underlying resource (database, file) failed.
    /// Becomes a `PERSIST_STORE` system exception.
    Resource(String),
    /// The result could not be marshalled (a string with a NUL in it).
    /// Becomes a `MARSHAL` system exception.
    Marshal(String),
}

impl ServantError {
    /// Whether this error maps to a GIOP *system* exception.
    pub fn is_system(&self) -> bool {
        !matches!(self, ServantError::Application(_))
    }

    /// The exception description placed in the reply body.
    pub fn description(&self) -> String {
        match self {
            ServantError::UnknownOperation(op) => format!("BAD_OPERATION: {op}"),
            ServantError::BadArguments(msg) => format!("BAD_PARAM: {msg}"),
            ServantError::Application(msg) => msg.clone(),
            ServantError::Resource(msg) => format!("PERSIST_STORE: {msg}"),
            ServantError::Marshal(msg) => format!("MARSHAL: {msg}"),
        }
    }
}

impl fmt::Display for ServantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.description())
    }
}

impl std::error::Error for ServantError {}

/// Result alias for servant invocations.
pub type InvokeResult = Result<Value, ServantError>;

/// A server-side object implementation.
///
/// Implementations must be `Send + Sync`: the ORB dispatches requests
/// from multiple connection handler threads.
pub trait Servant: Send + Sync {
    /// The repository id of the interface this servant implements,
    /// e.g. `IDL:webfindit/CoDatabase:1.0`. Stored in IORs and checked
    /// by diagnostics, never used for dispatch.
    fn interface_id(&self) -> &str;

    /// Invoke `operation` with `args`, returning the result value.
    fn invoke(&self, operation: &str, args: &[Value]) -> InvokeResult;

    /// Invoke `operation` with `args`, writing the result into `out`,
    /// the reply frame, as [`Value::encode`] would write it. The ORB
    /// dispatches every call through here; the default encodes what
    /// [`Servant::invoke`] returns. On `Err` (or a panic) whatever was
    /// written is discarded and the caller gets the exception.
    fn invoke_into(
        &self,
        operation: &str,
        args: &[Value],
        out: &mut CdrWriter,
    ) -> Result<(), ServantError> {
        let result = self.invoke(operation, args)?;
        result
            .encode(out)
            .map_err(|e| ServantError::Marshal(e.to_string()))
    }

    /// Answer a call on the reactor thread that read it, if nothing on
    /// its path can wait: no blocking lock, no sleep, no I/O, no remote
    /// call, and a bounded amount of work. The answer is what
    /// [`Servant::invoke_into`] answers for the same call, written into
    /// `out` alike. `None` means the call is not answered here and
    /// nothing was written; the ORB then hands it to its dispatch pool.
    /// The default answers nothing.
    fn invoke_now(
        &self,
        _operation: &str,
        _args: &[Value],
        _out: &mut CdrWriter,
    ) -> Option<Result<(), ServantError>> {
        None
    }
}

crate::interface! {
    /// A trivial interface for tests and liveness probes.
    pub trait EchoOperations for EchoServant as echo = "IDL:webfindit/Echo:1.0" {
        /// The arguments, as one sequence.
        Echo: fn echo(values: Rest<Value>) -> Vec<Value>;
        /// `"pong"`.
        Ping: fn ping() -> String;
        /// Always a user exception.
        FailUser: fn fail_user() -> ();
        /// Always a system exception.
        FailSystem: fn fail_system() -> ();
    }
}

/// The [`EchoOperations`] servant.
pub struct EchoServant;

impl EchoOperations for EchoServant {
    fn echo(&self, values: Rest<Value>) -> Result<Vec<Value>, ServantError> {
        Ok(values.0)
    }

    fn ping(&self) -> Result<String, ServantError> {
        Ok("pong".into())
    }

    fn fail_user(&self) -> Result<(), ServantError> {
        Err(ServantError::Application("declared failure".into()))
    }

    fn fail_system(&self) -> Result<(), ServantError> {
        Err(ServantError::Resource("backing store on fire".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Operation;

    #[test]
    fn echo_round() {
        let s = EchoServant;
        let out = s
            .invoke(echo::Echo::NAME, &[Value::Long(1), Value::string("x")])
            .unwrap();
        assert_eq!(
            out,
            Value::Sequence(vec![Value::Long(1), Value::string("x")])
        );
    }

    #[test]
    fn unknown_operation_is_system_exception() {
        let s = EchoServant;
        let err = s.invoke("nope", &[]).unwrap_err();
        assert!(err.is_system());
        assert!(err.description().contains("BAD_OPERATION"));
    }

    #[test]
    fn application_errors_are_user_exceptions() {
        let s = EchoServant;
        let err = s.invoke(echo::FailUser::NAME, &[]).unwrap_err();
        assert!(!err.is_system());
    }
}
