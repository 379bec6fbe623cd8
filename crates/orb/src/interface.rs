//! Typed interfaces: one declaration generates the skeleton and the stubs.
//!
//! The paper's ORBs compile each IDL interface into a client stub and a
//! server skeleton, so a misspelt operation cannot be sent.
//! [`interface!`](macro@crate::interface) is that compiler: one
//! declaration of an interface's operations, with typed arguments and
//! results, generates
//!
//! * the servant trait, with one method per operation;
//! * the [`Servant`] skeleton of the implementing type:
//!   `interface_id`, `invoke_into` dispatch that reads each typed argument
//!   from the request's `&[Value]` (a missing or mistyped one is
//!   `BAD_PARAM`) and writes the typed result into the reply, and the DSI
//!   `invoke`, which reads that reply back as a `Value`;
//! * a module of client operation types, one per operation, each an
//!   [`Operation`] that `Orb::call` and `Orb::call_all` send.
//!
//! Every argument and result type is [`Marshal`], whose bytes are those of
//! its `Value` shape, so a typed caller and a dynamic (DII) caller get the
//! same replies, byte for byte.

use crate::servant::{InvokeResult, Servant, ServantError};
use crate::OrbError;
use webfindit_wire::ByteOrder;
pub use webfindit_wire::{CdrReader, CdrWriter, Marshal, Value, WireResult};

/// One operation of a declared interface with its arguments: what a
/// typed client sends.
pub trait Operation {
    /// The operation's name on the wire.
    const NAME: &'static str;
    /// What a successful call answers.
    type Reply;
    /// How a call fails: the ORB's error, or the caller's decoder's.
    type Error: From<OrbError>;
    /// The request's arguments.
    fn args(&self) -> WireResult<Vec<Value>>;
    /// Read a successful reply's result.
    fn read_reply(&self, r: &mut CdrReader<'_>) -> Result<Self::Reply, Self::Error>;
}

/// Skeleton side: argument `*at` of `operation`'s request as a `T`, then
/// move `at` past it.
pub fn arg<T: Marshal>(
    args: &[Value],
    at: &mut usize,
    operation: &str,
    name: &str,
) -> Result<T, ServantError> {
    let value = T::from_args(args, *at).ok_or_else(|| {
        ServantError::BadArguments(format!(
            "{operation}: argument {at} ({name}) is missing or of another type"
        ))
    })?;
    *at += 1;
    Ok(value)
}

/// Skeleton side: write an operation's result into the reply.
pub fn write_reply<T: Marshal>(reply: &T, out: &mut CdrWriter) -> Result<(), ServantError> {
    reply
        .write(out)
        .map_err(|e| ServantError::Marshal(e.to_string()))
}

/// The DSI entry point of a generated skeleton: the typed reply, read
/// back as the `Value` a dynamic caller would decode.
pub fn read_back(servant: &dyn Servant, operation: &str, args: &[Value]) -> InvokeResult {
    let order = ByteOrder::BigEndian;
    let mut w = CdrWriter::new(order);
    servant.invoke_into(operation, args, &mut w)?;
    let bytes = w.into_bytes();
    Value::decode(&mut CdrReader::new(&bytes, order))
        .map_err(|e| ServantError::Marshal(e.to_string()))
}

/// Declare a CORBA interface once; see the [module docs](self).
///
/// ```ignore
/// interface! {
///     /// Doc of the servant trait.
///     pub trait NamingOperations for NamingService as context = "IDL:webfindit/NamingContext:1.0" {
///         /// Doc of the operation and its client type.
///         Resolve: fn resolve(name: String) -> Ior;
///     }
///     // Optional: operations whose servant writes the reply itself
///     // (it gets the reply writer as a last parameter), and whose
///     // caller supplies the decoder in the client type's `read` field.
///     writes {
///         Execute: fn execute(text: String, max_rows: Trailing<u32>);
///     }
/// }
/// ```
///
/// The servant trait also has `admit`, run before every request is
/// dispatched (a stall gate holds requests there), which does nothing
/// by default, and `invoke_now`, the skeleton's
/// [`Servant::invoke_now`](crate::Servant::invoke_now), which answers
/// nothing by default.
#[macro_export]
macro_rules! interface {
    (
        $(#[$meta:meta])*
        $vis:vis trait $Trait:ident for $Servant:ty as $ops:ident = $id:literal {
            $(
                $(#[$op_meta:meta])*
                $Op:ident: fn $op:ident($($arg:ident: $aty:ty),* $(,)?) -> $ret:ty;
            )*
        }
        $(writes {
            $(
                $(#[$w_meta:meta])*
                $WOp:ident: fn $wop:ident($($warg:ident: $waty:ty),* $(,)?);
            )*
        })?
    ) => {
        $(#[$meta])*
        $vis trait $Trait: Send + Sync {
            /// Runs before each request is dispatched, whatever its
            /// operation.
            fn admit(&self) {}
            /// Answer a call on the reactor thread that read it; see
            /// `Servant::invoke_now`.
            fn invoke_now(
                &self,
                _operation: &str,
                _args: &[$crate::interface::Value],
                _out: &mut $crate::interface::CdrWriter,
            ) -> Option<Result<(), $crate::ServantError>> {
                None
            }
            $(
                $(#[$op_meta])*
                fn $op(&self, $($arg: $aty),*) -> Result<$ret, $crate::ServantError>;
            )*
            $($(
                $(#[$w_meta])*
                fn $wop(
                    &self,
                    $($warg: $waty,)*
                    out: &mut $crate::interface::CdrWriter,
                ) -> Result<(), $crate::ServantError>;
            )*)?
        }

        impl $crate::Servant for $Servant {
            fn interface_id(&self) -> &str {
                $id
            }

            fn invoke(
                &self,
                operation: &str,
                args: &[$crate::interface::Value],
            ) -> $crate::servant::InvokeResult {
                $crate::interface::read_back(self, operation, args)
            }

            fn invoke_into(
                &self,
                operation: &str,
                args: &[$crate::interface::Value],
                out: &mut $crate::interface::CdrWriter,
            ) -> Result<(), $crate::ServantError> {
                <Self as $Trait>::admit(self);
                #[allow(unused_mut, unused_variables)]
                let mut at = 0usize;
                match operation {
                    $(stringify!($op) => {
                        $(let $arg = $crate::interface::arg(args, &mut at, operation, stringify!($arg))?;)*
                        let reply = <Self as $Trait>::$op(self, $($arg),*)?;
                        $crate::interface::write_reply(&reply, out)
                    })*
                    $($(stringify!($wop) => {
                        $(let $warg = $crate::interface::arg(args, &mut at, operation, stringify!($warg))?;)*
                        <Self as $Trait>::$wop(self, $($warg,)* out)
                    })*)?
                    other => Err($crate::ServantError::UnknownOperation(other.to_owned())),
                }
            }

            fn invoke_now(
                &self,
                operation: &str,
                args: &[$crate::interface::Value],
                out: &mut $crate::interface::CdrWriter,
            ) -> Option<Result<(), $crate::ServantError>> {
                <Self as $Trait>::invoke_now(self, operation, args, out)
            }
        }

        /// Client operation types of the interface, one per operation.
        $vis mod $ops {
            #[allow(unused_imports)]
            use super::*;
            use $crate::interface::{CdrReader, Marshal, Operation, Value, WireResult};

            /// The interface's repository id.
            pub const INTERFACE_ID: &str = $id;

            $(
                $(#[$op_meta])*
                #[derive(Debug, Clone)]
                pub struct $Op {
                    $(#[allow(missing_docs)] pub $arg: $aty,)*
                }

                impl Operation for $Op {
                    const NAME: &'static str = stringify!($op);
                    type Reply = $ret;
                    type Error = $crate::OrbError;

                    fn args(&self) -> WireResult<Vec<Value>> {
                        #[allow(unused_mut)]
                        let mut args = Vec::new();
                        $(Marshal::to_args(&self.$arg, &mut args)?;)*
                        Ok(args)
                    }

                    fn read_reply(&self, r: &mut CdrReader<'_>) -> Result<$ret, $crate::OrbError> {
                        Ok(<$ret as Marshal>::read(r)?)
                    }
                }
            )*

            $($(
                $(#[$w_meta])*
                /// `read` decodes the reply, which the servant wrote.
                #[derive(Debug, Clone)]
                pub struct $WOp<R> {
                    $(#[allow(missing_docs)] pub $warg: $waty,)*
                    /// The decoder of a successful reply.
                    pub read: R,
                }

                impl<R, T, E> Operation for $WOp<R>
                where
                    R: Fn(&mut CdrReader<'_>) -> Result<T, E>,
                    E: From<$crate::OrbError>,
                {
                    const NAME: &'static str = stringify!($wop);
                    type Reply = T;
                    type Error = E;

                    fn args(&self) -> WireResult<Vec<Value>> {
                        let mut args = Vec::new();
                        $(Marshal::to_args(&self.$warg, &mut args)?;)*
                        Ok(args)
                    }

                    fn read_reply(&self, r: &mut CdrReader<'_>) -> Result<T, E> {
                        (self.read)(r)
                    }
                }
            )*)?
        }
    };
}
