//! The object store: classes, extents, objects, lattice queries.

use crate::index::{AttrIndex, KeyRange};
use crate::model::{AttrDef, ClassDef, OValue, Oid};
use crate::{OoError, OoResult};
use std::collections::{BTreeMap, BTreeSet};
use webfindit_base::sync::RwLock;

/// A stored object: its class and attribute values.
#[derive(Debug, Clone, PartialEq)]
pub struct Object {
    /// Class name (canonical case as defined).
    pub class: String,
    /// Attribute values (keys lowercase).
    pub attrs: BTreeMap<String, OValue>,
}

impl Object {
    /// Borrow one attribute by name, in any case (Null if unset). Only
    /// a name with an uppercase letter is lowercased first.
    pub fn get(&self, name: &str) -> &OValue {
        if name.bytes().any(|b| b.is_ascii_uppercase()) {
            self.attr(&name.to_ascii_lowercase())
        } else {
            self.attr(name)
        }
    }

    /// Borrow one attribute by its lowercase name (Null if unset).
    pub(crate) fn attr(&self, lname: &str) -> &OValue {
        const NULL: &OValue = &OValue::Null;
        self.attrs.get(lname).unwrap_or(NULL)
    }
}

/// Built attribute indexes: lowercase class name → attribute → index
/// over that class's own extent.
type Indexes = BTreeMap<String, BTreeMap<String, AttrIndex>>;

/// An object-oriented database instance (the ObjectStore/Ontos stand-in).
#[derive(Debug, Default)]
pub struct ObjectStore {
    name: String,
    /// Lowercase class name → definition.
    classes: BTreeMap<String, ClassDef>,
    /// Lowercase class name → direct extent (own instances only).
    extents: BTreeMap<String, Vec<Oid>>,
    /// Every object ever created, in the slot its OID numbers. OIDs are
    /// handed out densely and never reused, so a deleted object leaves
    /// an empty slot.
    objects: Vec<Option<Object>>,
    /// How many slots hold an object.
    live: usize,
    /// Attribute indexes, each bulk-built the first time a query
    /// constrains its attribute. A query holding only `&self` builds
    /// under the lock; writers own `&mut self` and keep every built
    /// index current without taking it.
    indexes: RwLock<Indexes>,
}

impl Clone for ObjectStore {
    fn clone(&self) -> ObjectStore {
        ObjectStore {
            name: self.name.clone(),
            classes: self.classes.clone(),
            extents: self.extents.clone(),
            objects: self.objects.clone(),
            live: self.live,
            indexes: RwLock::new(self.indexes.read().clone()),
        }
    }
}

impl ObjectStore {
    /// Create an empty store.
    pub fn new(name: impl Into<String>) -> ObjectStore {
        ObjectStore {
            name: name.into(),
            ..Default::default()
        }
    }

    /// The store's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.live
    }

    // ---- schema -------------------------------------------------------

    /// Define a class. Parents must already exist; cycles are impossible
    /// by construction but double-checked.
    pub fn define_class(&mut self, def: ClassDef) -> OoResult<()> {
        let key = def.name.to_ascii_lowercase();
        if self.classes.contains_key(&key) {
            return Err(OoError::ClassExists(def.name));
        }
        for p in &def.parents {
            let pk = p.to_ascii_lowercase();
            if pk == key {
                return Err(OoError::InheritanceCycle(def.name));
            }
            if !self.classes.contains_key(&pk) {
                return Err(OoError::NoSuchClass(p.clone()));
            }
        }
        self.extents.insert(key.clone(), Vec::new());
        self.classes.insert(key, def);
        Ok(())
    }

    /// Remove a class, its subclass closure, and all their instances.
    /// Returns the removed class names (canonical case).
    pub fn drop_class(&mut self, name: &str) -> OoResult<Vec<String>> {
        let key = name.to_ascii_lowercase();
        if !self.classes.contains_key(&key) {
            return Err(OoError::NoSuchClass(name.to_owned()));
        }
        let mut doomed = self.subclasses_transitive(&key)?;
        doomed.push(self.classes[&key].name.clone());
        for class in &doomed {
            let ck = class.to_ascii_lowercase();
            if let Some(extent) = self.extents.remove(&ck) {
                self.live -= extent.len();
                for oid in extent {
                    self.objects[oid.0 as usize] = None;
                }
            }
            self.indexes.get_mut().remove(&ck);
            self.classes.remove(&ck);
        }
        // Remove dangling parent references from remaining classes.
        let doomed_keys: BTreeSet<String> = doomed.iter().map(|c| c.to_ascii_lowercase()).collect();
        for def in self.classes.values_mut() {
            def.parents
                .retain(|p| !doomed_keys.contains(&p.to_ascii_lowercase()));
        }
        Ok(doomed)
    }

    /// The class definition (case-insensitive lookup).
    pub fn class(&self, name: &str) -> OoResult<&ClassDef> {
        self.classes
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| OoError::NoSuchClass(name.to_owned()))
    }

    /// All class names, sorted.
    pub fn class_names(&self) -> Vec<String> {
        self.classes.values().map(|c| c.name.clone()).collect()
    }

    /// Direct subclasses of `name`.
    pub fn subclasses(&self, name: &str) -> OoResult<Vec<String>> {
        let key = name.to_ascii_lowercase();
        self.class(&key)?; // existence check
        Ok(self
            .classes
            .values()
            .filter(|c| c.parents.iter().any(|p| p.to_ascii_lowercase() == key))
            .map(|c| c.name.clone())
            .collect())
    }

    /// All transitive subclasses of `name` (excluding itself).
    pub fn subclasses_transitive(&self, name: &str) -> OoResult<Vec<String>> {
        let mut out = Vec::new();
        let mut frontier = vec![name.to_ascii_lowercase()];
        let mut seen = BTreeSet::new();
        self.class(name)?;
        while let Some(c) = frontier.pop() {
            for sub in self.subclasses(&c)? {
                let sk = sub.to_ascii_lowercase();
                if seen.insert(sk.clone()) {
                    out.push(sub);
                    frontier.push(sk);
                }
            }
        }
        Ok(out)
    }

    /// Direct parents of `name`.
    pub fn superclasses(&self, name: &str) -> OoResult<Vec<String>> {
        Ok(self.class(name)?.parents.clone())
    }

    /// All attributes visible on `name`, inherited ones first
    /// (C3-free: simple depth-first, duplicates by name removed).
    pub fn all_attributes(&self, name: &str) -> OoResult<Vec<AttrDef>> {
        let mut out: Vec<AttrDef> = Vec::new();
        let mut seen = BTreeSet::new();
        let mut stack = vec![name.to_ascii_lowercase()];
        let mut chain = Vec::new();
        while let Some(c) = stack.pop() {
            let def = self.class(&c)?;
            chain.push(def);
            for p in &def.parents {
                stack.push(p.to_ascii_lowercase());
            }
        }
        // Parents first so subclasses can shadow.
        for def in chain.iter().rev() {
            for a in &def.attributes {
                if seen.insert(a.name.clone()) {
                    out.push(a.clone());
                }
            }
        }
        Ok(out)
    }

    /// Whether `class` equals or transitively inherits from `ancestor`.
    pub fn is_subclass_of(&self, class: &str, ancestor: &str) -> OoResult<bool> {
        let target = ancestor.to_ascii_lowercase();
        let mut stack = vec![class.to_ascii_lowercase()];
        let mut seen = BTreeSet::new();
        while let Some(c) = stack.pop() {
            if c == target {
                return Ok(true);
            }
            if !seen.insert(c.clone()) {
                continue;
            }
            for p in &self.class(&c)?.parents {
                stack.push(p.to_ascii_lowercase());
            }
        }
        Ok(false)
    }

    // ---- objects ------------------------------------------------------

    /// Create an object of `class` with the given attributes, validating
    /// names and types against the class (including inherited attributes).
    pub fn create(
        &mut self,
        class: &str,
        attrs: impl IntoIterator<Item = (String, OValue)>,
    ) -> OoResult<Oid> {
        let def = self.class(class)?;
        let canonical = def.name.clone();
        let key = canonical.to_ascii_lowercase();
        let visible = self.all_attributes(&key)?;
        let mut map = BTreeMap::new();
        for (name, value) in attrs {
            let lname = name.to_ascii_lowercase();
            let decl = visible.iter().find(|a| a.name == lname).ok_or_else(|| {
                OoError::NoSuchAttribute {
                    class: canonical.clone(),
                    attribute: name.clone(),
                }
            })?;
            if let Some(t) = value.otype() {
                // Int is accepted where Double is declared.
                let ok = t == decl.otype
                    || (decl.otype == crate::model::OType::Double && t == crate::model::OType::Int);
                if !ok {
                    return Err(OoError::TypeMismatch {
                        attribute: lname,
                        expected: decl.otype.to_string(),
                        found: value.to_string(),
                    });
                }
            }
            map.insert(lname, value);
        }
        let oid = Oid(self.objects.len() as u64);
        if let Some(built) = self.indexes.get_mut().get_mut(&key) {
            for (attr, ix) in built {
                ix.insert(oid, map.get(attr).unwrap_or(&OValue::Null));
            }
        }
        self.objects.push(Some(Object {
            class: canonical,
            attrs: map,
        }));
        self.live += 1;
        self.extents.get_mut(&key).expect("extent exists").push(oid);
        Ok(oid)
    }

    /// Delete an object.
    pub fn delete(&mut self, oid: Oid) -> OoResult<()> {
        let obj = self
            .objects
            .get_mut(oid.0 as usize)
            .and_then(Option::take)
            .ok_or(OoError::NoSuchObject(oid))?;
        self.live -= 1;
        let key = obj.class.to_ascii_lowercase();
        if let Some(extent) = self.extents.get_mut(&key) {
            extent.retain(|&o| o != oid);
        }
        if let Some(built) = self.indexes.get_mut().get_mut(&key) {
            for (attr, ix) in built {
                ix.remove(oid, obj.attr(attr));
            }
        }
        Ok(())
    }

    /// Borrow an object.
    pub fn object(&self, oid: Oid) -> OoResult<&Object> {
        self.objects
            .get(oid.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(OoError::NoSuchObject(oid))
    }

    /// Set one attribute (validated like `create`).
    pub fn set_attr(&mut self, oid: Oid, name: &str, value: OValue) -> OoResult<()> {
        let class = self.object(oid)?.class.clone();
        let visible = self.all_attributes(&class)?;
        let lname = name.to_ascii_lowercase();
        let decl =
            visible
                .iter()
                .find(|a| a.name == lname)
                .ok_or_else(|| OoError::NoSuchAttribute {
                    class: class.clone(),
                    attribute: name.to_owned(),
                })?;
        if let Some(t) = value.otype() {
            let ok = t == decl.otype
                || (decl.otype == crate::model::OType::Double && t == crate::model::OType::Int);
            if !ok {
                return Err(OoError::TypeMismatch {
                    attribute: lname,
                    expected: decl.otype.to_string(),
                    found: value.to_string(),
                });
            }
        }
        let attrs = &mut self.objects[oid.0 as usize]
            .as_mut()
            .expect("checked above")
            .attrs;
        let ix = self
            .indexes
            .get_mut()
            .get_mut(&class.to_ascii_lowercase())
            .and_then(|built| built.get_mut(&lname));
        if let Some(ix) = ix {
            if let Some(old) = attrs.get(&lname) {
                ix.remove(oid, old);
            }
            ix.insert(oid, &value);
        }
        attrs.insert(lname, value);
        Ok(())
    }

    /// Instances of `class`; with `include_subclasses`, the full extent
    /// closure (the default semantics of OQL `from Class`).
    pub fn instances_of(&self, class: &str, include_subclasses: bool) -> OoResult<Vec<Oid>> {
        if include_subclasses {
            return Ok(self.closure_oids(&self.closure(class)?));
        }
        let key = class.to_ascii_lowercase();
        self.class(&key)?;
        Ok(self.extents[&key].clone())
    }

    /// The lowercase names of `class` and every class below it: the
    /// classes whose extents make up its extent closure.
    pub(crate) fn closure(&self, class: &str) -> OoResult<Vec<String>> {
        let key = class.to_ascii_lowercase();
        let subs = self.subclasses_transitive(&key)?;
        let mut out = vec![key];
        out.extend(subs.iter().map(|s| s.to_ascii_lowercase()));
        Ok(out)
    }

    /// How many objects the extents of `closure` hold.
    pub(crate) fn closure_len(&self, closure: &[String]) -> usize {
        closure.iter().map(|c| self.extents[c].len()).sum()
    }

    /// Every object in the extents of `closure`, in OID order.
    pub(crate) fn closure_oids(&self, closure: &[String]) -> Vec<Oid> {
        let mut out = Vec::with_capacity(self.closure_len(closure));
        for c in closure {
            out.extend_from_slice(&self.extents[c]);
        }
        // One extent is already in OID order.
        if closure.len() > 1 {
            out.sort_unstable();
        }
        out
    }

    /// The objects in the extents of `closure` whose `attr` (lowercase)
    /// has a key in `range`, and no other, in OID order. Builds each
    /// missing index in one sorted bulk load; a class that does not
    /// declare `attr` holds no object with it and gets no index.
    pub(crate) fn index_candidates(
        &self,
        closure: &[String],
        attr: &str,
        range: &KeyRange,
    ) -> OoResult<Vec<Oid>> {
        let missing: Vec<&String> = {
            let built = self.indexes.read();
            closure
                .iter()
                .filter(|c| !built.get(*c).is_some_and(|ixs| ixs.contains_key(attr)))
                .collect()
        };
        for class in missing {
            if !self.all_attributes(class)?.iter().any(|a| a.name == attr) {
                continue;
            }
            let ix = AttrIndex::build(self.extents[class].iter().map(|oid| {
                let obj = self.objects[oid.0 as usize].as_ref();
                (*oid, obj.expect("an extent holds live objects").attr(attr))
            }));
            self.indexes
                .write()
                .entry(class.clone())
                .or_default()
                .entry(attr.to_owned())
                .or_insert(ix);
        }
        let mut out = Vec::new();
        let built = self.indexes.read();
        for ix in closure
            .iter()
            .filter_map(|c| built.get(c).and_then(|ixs| ixs.get(attr)))
        {
            ix.scan(range, &mut out);
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::OType;

    /// The co-database-like lattice from the paper: InformationType at
    /// the root, coalitions below, databases as instances.
    fn medical_lattice() -> ObjectStore {
        let mut s = ObjectStore::new("codb-RBH");
        s.define_class(
            ClassDef::root("InformationType")
                .attr("name", OType::Text)
                .attr("description", OType::Text),
        )
        .unwrap();
        s.define_class(
            ClassDef::root("Research")
                .extends("InformationType")
                .attr("domain", OType::Text),
        )
        .unwrap();
        s.define_class(ClassDef::root("MedicalResearch").extends("Research"))
            .unwrap();
        s.define_class(ClassDef::root("CancerResearch").extends("MedicalResearch"))
            .unwrap();
        s
    }

    #[test]
    fn lattice_queries() {
        let s = medical_lattice();
        assert_eq!(s.subclasses("InformationType").unwrap(), vec!["Research"]);
        assert_eq!(
            s.subclasses_transitive("information_type".to_ascii_lowercase().as_str())
                .unwrap_or_default()
                .len(),
            0,
            "underscore name is not the class"
        );
        let subs = s.subclasses_transitive("InformationType").unwrap();
        assert_eq!(subs.len(), 3);
        assert!(s
            .is_subclass_of("CancerResearch", "InformationType")
            .unwrap());
        assert!(!s.is_subclass_of("Research", "CancerResearch").unwrap());
        assert_eq!(
            s.superclasses("CancerResearch").unwrap(),
            vec!["MedicalResearch"]
        );
    }

    #[test]
    fn unknown_parent_rejected() {
        let mut s = ObjectStore::new("x");
        assert!(matches!(
            s.define_class(ClassDef::root("A").extends("Missing")),
            Err(OoError::NoSuchClass(_))
        ));
        s.define_class(ClassDef::root("A")).unwrap();
        assert!(matches!(
            s.define_class(ClassDef::root("A")),
            Err(OoError::ClassExists(_))
        ));
        assert!(matches!(
            s.define_class(ClassDef::root("B").extends("B")),
            Err(OoError::InheritanceCycle(_))
        ));
    }

    #[test]
    fn attributes_inherit_and_shadow() {
        let mut s = medical_lattice();
        s.define_class(
            ClassDef::root("Special")
                .extends("Research")
                .attr("description", OType::Text) // shadows root's
                .attr("extra", OType::Int),
        )
        .unwrap();
        let attrs = s.all_attributes("Special").unwrap();
        let names: Vec<&str> = attrs.iter().map(|a| a.name.as_str()).collect();
        assert!(names.contains(&"name"));
        assert!(names.contains(&"domain"));
        assert!(names.contains(&"extra"));
        assert_eq!(
            names.iter().filter(|n| **n == "description").count(),
            1,
            "shadowed attribute appears once"
        );
    }

    #[test]
    fn create_and_extent_closure() {
        let mut s = medical_lattice();
        let a = s
            .create(
                "Research",
                [("name".to_string(), OValue::from("QUT Research"))],
            )
            .unwrap();
        let b = s
            .create(
                "CancerResearch",
                [("name".to_string(), OValue::from("Qld Cancer Fund"))],
            )
            .unwrap();
        assert_eq!(s.instances_of("Research", false).unwrap(), vec![a]);
        assert_eq!(s.instances_of("Research", true).unwrap(), vec![a, b]);
        assert_eq!(s.instances_of("InformationType", true).unwrap(), vec![a, b]);
        assert_eq!(
            s.object(b).unwrap().get("name").as_text(),
            Some("Qld Cancer Fund")
        );
    }

    #[test]
    fn type_validation() {
        let mut s = medical_lattice();
        assert!(matches!(
            s.create("Research", [("name".to_string(), OValue::Int(5))]),
            Err(OoError::TypeMismatch { .. })
        ));
        assert!(matches!(
            s.create("Research", [("bogus".to_string(), OValue::Int(5))]),
            Err(OoError::NoSuchAttribute { .. })
        ));
        // Int accepted where Double declared.
        s.define_class(ClassDef::root("F").attr("x", OType::Double))
            .unwrap();
        s.create("F", [("x".to_string(), OValue::Int(3))]).unwrap();
    }

    #[test]
    fn set_attr_and_delete() {
        let mut s = medical_lattice();
        let o = s
            .create("Research", [("name".to_string(), OValue::from("X"))])
            .unwrap();
        s.set_attr(o, "description", OValue::from("about X"))
            .unwrap();
        assert_eq!(
            s.object(o).unwrap().get("description").as_text(),
            Some("about X")
        );
        assert!(s.set_attr(o, "nope", OValue::Null).is_err());
        s.delete(o).unwrap();
        assert!(matches!(s.object(o), Err(OoError::NoSuchObject(_))));
        assert!(s.instances_of("Research", false).unwrap().is_empty());
        assert!(s.delete(o).is_err());
    }

    #[test]
    fn drop_class_removes_subtree() {
        let mut s = medical_lattice();
        s.create("MedicalResearch", []).unwrap();
        s.create("CancerResearch", []).unwrap();
        let keep = s.create("Research", []).unwrap();
        let removed = s.drop_class("MedicalResearch").unwrap();
        assert_eq!(removed.len(), 2); // MedicalResearch + CancerResearch
        assert!(s.class("CancerResearch").is_err());
        assert_eq!(s.object_count(), 1);
        assert_eq!(s.instances_of("Research", true).unwrap(), vec![keep]);
    }

    #[test]
    fn multiple_inheritance() {
        let mut s = ObjectStore::new("x");
        s.define_class(ClassDef::root("A").attr("a", OType::Int))
            .unwrap();
        s.define_class(ClassDef::root("B").attr("b", OType::Int))
            .unwrap();
        s.define_class(ClassDef::root("C").extends("A").extends("B"))
            .unwrap();
        let names: Vec<String> = s
            .all_attributes("C")
            .unwrap()
            .into_iter()
            .map(|a| a.name)
            .collect();
        assert!(names.contains(&"a".to_string()) && names.contains(&"b".to_string()));
        assert!(s.is_subclass_of("C", "A").unwrap());
        assert!(s.is_subclass_of("C", "B").unwrap());
        // C appears in both parents' subclass lists.
        assert_eq!(s.subclasses("A").unwrap(), vec!["C"]);
        assert_eq!(s.subclasses("B").unwrap(), vec!["C"]);
    }
}
