//! Access routines: callable methods registered per class.
//!
//! The paper's exported interfaces include *functions* alongside
//! attributes — e.g. `Description(Patient.Name, Date)` "written in
//! Oracle's C interface", or `Funding(Title, Predicate)` which translates
//! to SQL. In the object store these are **access routines**: named
//! implementations registered against a class, dispatched dynamically,
//! and inherited by subclasses.

use crate::model::{OValue, Oid};
use crate::store::ObjectStore;
use crate::{OoError, OoResult};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The implementation signature of an access routine: it receives the
/// store, the receiver object (or `None` for class-level routines), and
/// the argument list.
pub type RoutineFn =
    Arc<dyn Fn(&ObjectStore, Option<Oid>, &[OValue]) -> OoResult<OValue> + Send + Sync>;

/// A registry of access routines, keyed by `(class, method)`.
///
/// Kept separate from [`ObjectStore`] so that stores stay `Clone` and
/// plain-data; a co-database pairs a store with its routine table.
#[derive(Default, Clone)]
pub struct MethodTable {
    routines: BTreeMap<(String, String), RoutineFn>,
}

impl MethodTable {
    /// Create an empty table.
    pub fn new() -> MethodTable {
        MethodTable::default()
    }

    /// Register `method` on `class`.
    pub fn register(
        &mut self,
        class: &str,
        method: &str,
        f: impl Fn(&ObjectStore, Option<Oid>, &[OValue]) -> OoResult<OValue> + Send + Sync + 'static,
    ) {
        self.routines.insert(
            (class.to_ascii_lowercase(), method.to_ascii_lowercase()),
            Arc::new(f),
        );
    }

    /// Invoke `method` on an instance, walking up the inheritance chain
    /// until an implementation is found (dynamic dispatch).
    pub fn invoke(
        &self,
        store: &ObjectStore,
        receiver: Oid,
        method: &str,
        args: &[OValue],
    ) -> OoResult<OValue> {
        let class = store.object(receiver)?.class.clone();
        self.invoke_on_class(store, &class, Some(receiver), method, args)
    }

    /// Invoke `method` resolved against `class` (optionally with a
    /// receiver), searching the class and its ancestors breadth-first.
    pub fn invoke_on_class(
        &self,
        store: &ObjectStore,
        class: &str,
        receiver: Option<Oid>,
        method: &str,
        args: &[OValue],
    ) -> OoResult<OValue> {
        let m = method.to_ascii_lowercase();
        let mut frontier = vec![class.to_ascii_lowercase()];
        let mut seen = std::collections::BTreeSet::new();
        while let Some(c) = frontier.pop() {
            if !seen.insert(c.clone()) {
                continue;
            }
            if let Some(f) = self.routines.get(&(c.clone(), m.clone())) {
                return f(store, receiver, args);
            }
            for p in store.superclasses(&c)? {
                frontier.push(p.to_ascii_lowercase());
            }
        }
        Err(OoError::NoSuchMethod {
            class: class.to_owned(),
            method: method.to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ClassDef, OType};

    fn setup() -> (ObjectStore, MethodTable, Oid) {
        let mut s = ObjectStore::new("codb");
        s.define_class(
            ClassDef::root("Research")
                .attr("name", OType::Text)
                .attr("funding", OType::Double),
        )
        .unwrap();
        s.define_class(ClassDef::root("MedicalResearch").extends("Research"))
            .unwrap();
        let oid = s
            .create(
                "MedicalResearch",
                [
                    ("name".to_string(), OValue::from("AIDS and drugs")),
                    ("funding".to_string(), OValue::from(250_000.0)),
                ],
            )
            .unwrap();

        let mut mt = MethodTable::new();
        // The paper's Funding() access routine: returns the budget.
        mt.register("Research", "funding_of", |store, recv, _args| {
            let oid = recv.ok_or_else(|| OoError::MethodFailed("needs receiver".into()))?;
            Ok(store.object(oid)?.get("funding").clone())
        });
        mt.register("Research", "describe", |store, recv, args| {
            let oid = recv.ok_or_else(|| OoError::MethodFailed("needs receiver".into()))?;
            let prefix = args.first().and_then(OValue::as_text).unwrap_or("project");
            Ok(OValue::Text(format!(
                "{prefix}: {}",
                store.object(oid)?.get("name")
            )))
        });
        (s, mt, oid)
    }

    #[test]
    fn inherited_dispatch() {
        let (s, mt, oid) = setup();
        // Registered on Research, invoked on a MedicalResearch instance.
        let out = mt.invoke(&s, oid, "funding_of", &[]).unwrap();
        assert_eq!(out, OValue::Double(250_000.0));
    }

    #[test]
    fn arguments_are_passed() {
        let (s, mt, oid) = setup();
        let out = mt
            .invoke(&s, oid, "describe", &[OValue::from("grant")])
            .unwrap();
        assert_eq!(out.as_text(), Some("grant: AIDS and drugs"));
    }

    #[test]
    fn missing_method_reports_class() {
        let (s, mt, oid) = setup();
        match mt.invoke(&s, oid, "nope", &[]) {
            Err(OoError::NoSuchMethod { class, method }) => {
                assert_eq!(class, "MedicalResearch");
                assert_eq!(method, "nope");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn subclass_overrides_win() {
        let (s, mut mt, oid) = setup();
        mt.register("MedicalResearch", "funding_of", |_s, _r, _a| {
            Ok(OValue::Double(0.0))
        });
        let out = mt.invoke(&s, oid, "funding_of", &[]).unwrap();
        assert_eq!(out, OValue::Double(0.0));
    }

    #[test]
    fn class_level_invocation() {
        let (s, mt, _) = setup();
        // No receiver: routines that need one fail gracefully.
        assert!(matches!(
            mt.invoke_on_class(&s, "Research", None, "funding_of", &[]),
            Err(OoError::MethodFailed(_))
        ));
    }

    #[test]
    fn methods_of_lists_direct_only() {
        let (_, mt, _) = setup();
        let on = |class: &str| mt.routines.keys().filter(|(c, _)| c == class).count();
        assert_eq!(on("research"), 2);
        assert_eq!(on("medicalresearch"), 0);
    }
}
