//! The object adapter: maps opaque object keys to active servants.
//!
//! This is the POA (Portable Object Adapter) role: the server-side
//! registry that turns the `object_key` octets arriving in a GIOP
//! Request into a servant invocation. Keys are opaque to clients; here
//! they are human-readable UTF-8 paths like `codb/RBH` or
//! `isi/Medicare`, which makes traces and experiments legible.

use crate::servant::{Servant, ServantError};
use std::collections::BTreeMap;
use std::sync::Arc;
use webfindit_base::sync::RwLock;
use webfindit_wire::{CdrWriter, Value};

/// A shared, thread-safe servant registry.
#[derive(Default)]
pub struct ObjectAdapter {
    servants: RwLock<BTreeMap<Vec<u8>, Arc<dyn Servant>>>,
}

impl ObjectAdapter {
    /// Create an empty adapter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Activate `servant` under `key`, replacing any previous activation.
    ///
    /// Returns true if a servant was replaced.
    pub fn activate(&self, key: impl Into<Vec<u8>>, servant: Arc<dyn Servant>) -> bool {
        self.servants.write().insert(key.into(), servant).is_some()
    }

    /// Deactivate the servant under `key`. Returns true if one existed.
    pub fn deactivate(&self, key: &[u8]) -> bool {
        self.servants.write().remove(key).is_some()
    }

    /// Whether a servant is active under `key`.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.servants.read().contains_key(key)
    }

    /// Number of active servants.
    pub fn len(&self) -> usize {
        self.servants.read().len()
    }

    /// True when no servants are active.
    pub fn is_empty(&self) -> bool {
        self.servants.read().is_empty()
    }

    /// All active keys, in sorted order (keys are UTF-8 paths by
    /// convention; invalid UTF-8 is rendered lossily).
    pub fn keys(&self) -> Vec<String> {
        self.servants
            .read()
            .keys()
            .map(|k| String::from_utf8_lossy(k).into_owned())
            .collect()
    }

    /// Look up the servant under `key`.
    pub fn lookup(&self, key: &[u8]) -> Option<Arc<dyn Servant>> {
        self.servants.read().get(key).cloned()
    }

    /// Dispatch an invocation to the servant under `key`, its result
    /// written into `out` (see [`Servant::invoke_into`]).
    ///
    /// Missing keys become an `OBJECT_NOT_EXIST`-style error so the ORB
    /// can turn them into a system exception reply.
    pub fn dispatch(
        &self,
        key: &[u8],
        operation: &str,
        args: &[Value],
        out: &mut CdrWriter,
    ) -> Result<(), ServantError> {
        let servant = self.lookup(key).ok_or_else(|| {
            ServantError::Resource(format!(
                "OBJECT_NOT_EXIST: {}",
                String::from_utf8_lossy(key)
            ))
        })?;
        servant.invoke_into(operation, args, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::servant::EchoServant;
    use webfindit_wire::{ByteOrder, CdrReader};

    fn dispatch(oa: &ObjectAdapter, key: &[u8], op: &str) -> Result<Value, ServantError> {
        let mut w = CdrWriter::new(ByteOrder::BigEndian);
        oa.dispatch(key, op, &[], &mut w)?;
        let bytes = w.into_bytes();
        Ok(Value::decode(&mut CdrReader::new(&bytes, ByteOrder::BigEndian)).unwrap())
    }

    #[test]
    fn activate_lookup_dispatch() {
        let oa = ObjectAdapter::new();
        assert!(oa.is_empty());
        assert!(!oa.activate("echo/1", Arc::new(EchoServant)));
        assert!(oa.contains(b"echo/1"));
        assert_eq!(oa.len(), 1);
        let out = dispatch(&oa, b"echo/1", "ping").unwrap();
        assert_eq!(out, Value::string("pong"));
    }

    #[test]
    fn replacing_activation_reports_it() {
        let oa = ObjectAdapter::new();
        oa.activate("k", Arc::new(EchoServant));
        assert!(oa.activate("k", Arc::new(EchoServant)));
        assert_eq!(oa.len(), 1);
    }

    #[test]
    fn deactivate_then_dispatch_fails() {
        let oa = ObjectAdapter::new();
        oa.activate("k", Arc::new(EchoServant));
        assert!(oa.deactivate(b"k"));
        assert!(!oa.deactivate(b"k"));
        let err = dispatch(&oa, b"k", "ping").unwrap_err();
        assert!(err.description().contains("OBJECT_NOT_EXIST"));
    }

    #[test]
    fn keys_are_sorted() {
        let oa = ObjectAdapter::new();
        oa.activate("b", Arc::new(EchoServant));
        oa.activate("a", Arc::new(EchoServant));
        assert_eq!(oa.keys(), vec!["a".to_string(), "b".to_string()]);
    }
}
