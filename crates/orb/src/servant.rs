//! The servant trait — the server-side implementation of a CORBA object.
//!
//! In IDL-based CORBA a compiler generates a skeleton per interface; here
//! a servant is any type implementing [`Servant`], dispatching on the
//! operation name with self-describing [`Value`] arguments (the Dynamic
//! Skeleton Interface model, which is what 1990s database gateways used
//! too, since wrappers could not know the exported schema at compile
//! time).
//!
//! The ORB dispatches through [`Servant::invoke_into`], which writes the
//! result straight into the reply frame. Its default encodes what
//! [`Servant::invoke`] returns; a servant whose results are large and
//! typed (the ISI's tables) overrides it and skips the `Value` tree.

use std::fmt;
use webfindit_wire::{CdrWriter, Value};

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

    /// Operations this servant understands, for `Display Access
    /// Information` style introspection. Default: unknown.
    fn operations(&self) -> Vec<String> {
        Vec::new()
    }
}

/// A trivial servant used by tests and liveness probes: echoes its
/// arguments and reports a fixed interface id.
pub struct EchoServant;

impl Servant for EchoServant {
    fn interface_id(&self) -> &str {
        "IDL:webfindit/Echo:1.0"
    }

    fn invoke(&self, operation: &str, args: &[Value]) -> InvokeResult {
        match operation {
            "echo" => Ok(Value::Sequence(args.to_vec())),
            "ping" => Ok(Value::string("pong")),
            "fail_user" => Err(ServantError::Application("declared failure".into())),
            "fail_system" => Err(ServantError::Resource("backing store on fire".into())),
            other => Err(ServantError::UnknownOperation(other.to_owned())),
        }
    }

    fn operations(&self) -> Vec<String> {
        ["echo", "ping", "fail_user", "fail_system"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_round() {
        let s = EchoServant;
        let out = s
            .invoke("echo", &[Value::Long(1), Value::string("x")])
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
        let err = s.invoke("fail_user", &[]).unwrap_err();
        assert!(!err.is_system());
    }
}
