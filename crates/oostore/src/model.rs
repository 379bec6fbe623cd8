//! The object model: OIDs, values, attribute and class definitions.

use std::fmt;

/// An object identifier, unique within one store for its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Oid(pub u64);

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Attribute value types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OType {
    /// 64-bit integer.
    Int,
    /// Double float.
    Double,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Bool,
    /// Ordered list of values (untyped elements).
    List,
    /// Reference to another object.
    Ref,
}

impl fmt::Display for OType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OType::Int => "int",
            OType::Double => "double",
            OType::Text => "string",
            OType::Bool => "bool",
            OType::List => "list",
            OType::Ref => "ref",
        };
        f.write_str(s)
    }
}

/// A runtime attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum OValue {
    /// Absent value.
    Null,
    /// Integer.
    Int(i64),
    /// Double.
    Double(f64),
    /// String.
    Text(String),
    /// Boolean.
    Bool(bool),
    /// List.
    List(Vec<OValue>),
    /// Object reference.
    Ref(Oid),
}

impl OValue {
    /// The value's type, or `None` for Null.
    pub fn otype(&self) -> Option<OType> {
        Some(match self {
            OValue::Null => return None,
            OValue::Int(_) => OType::Int,
            OValue::Double(_) => OType::Double,
            OValue::Text(_) => OType::Text,
            OValue::Bool(_) => OType::Bool,
            OValue::List(_) => OType::List,
            OValue::Ref(_) => OType::Ref,
        })
    }

    /// True for Null.
    pub fn is_null(&self) -> bool {
        matches!(self, OValue::Null)
    }

    /// String view.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            OValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Float view (widening Int).
    pub fn as_double(&self) -> Option<f64> {
        match self {
            OValue::Double(v) => Some(*v),
            OValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// SQL-style comparison: `None` for Null operands or incomparable
    /// types; Int and Double compare cross-type.
    pub fn compare(&self, other: &OValue) -> Option<std::cmp::Ordering> {
        use OValue::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Double(a), Double(b)) => a.partial_cmp(b),
            (Int(a), Double(b)) => (*a as f64).partial_cmp(b),
            (Double(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Text(a), Text(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Ref(a), Ref(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl fmt::Display for OValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OValue::Null => write!(f, "null"),
            OValue::Int(v) => write!(f, "{v}"),
            OValue::Double(v) => write!(f, "{v}"),
            OValue::Text(s) => write!(f, "{s}"),
            OValue::Bool(b) => write!(f, "{b}"),
            OValue::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            OValue::Ref(o) => write!(f, "{o}"),
        }
    }
}

impl From<&str> for OValue {
    fn from(s: &str) -> Self {
        OValue::Text(s.to_owned())
    }
}
impl From<String> for OValue {
    fn from(s: String) -> Self {
        OValue::Text(s)
    }
}
impl From<i64> for OValue {
    fn from(v: i64) -> Self {
        OValue::Int(v)
    }
}
impl From<f64> for OValue {
    fn from(v: f64) -> Self {
        OValue::Double(v)
    }
}
impl From<bool> for OValue {
    fn from(v: bool) -> Self {
        OValue::Bool(v)
    }
}
impl From<Vec<OValue>> for OValue {
    fn from(v: Vec<OValue>) -> Self {
        OValue::List(v)
    }
}

/// One attribute declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrDef {
    /// Attribute name (lowercase).
    pub name: String,
    /// Declared type.
    pub otype: OType,
}

impl AttrDef {
    /// Create an attribute definition; the name is lowercased.
    pub fn new(name: impl Into<String>, otype: OType) -> AttrDef {
        AttrDef {
            name: name.into().to_ascii_lowercase(),
            otype,
        }
    }
}

/// A class definition. Classes form a lattice via multiple inheritance
/// (the paper's co-database schema is explicitly "a lattice of classes").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDef {
    /// Class name (original case preserved for display; lookups are
    /// case-insensitive).
    pub name: String,
    /// Parent class names.
    pub parents: Vec<String>,
    /// Attributes declared directly on this class.
    pub attributes: Vec<AttrDef>,
    /// Documentation string shown by `Display Document of Class …`.
    pub documentation: String,
}

impl ClassDef {
    /// Create a root class (no parents).
    pub fn root(name: impl Into<String>) -> ClassDef {
        ClassDef {
            name: name.into(),
            parents: Vec::new(),
            attributes: Vec::new(),
            documentation: String::new(),
        }
    }

    /// Builder: add a parent.
    pub fn extends(mut self, parent: impl Into<String>) -> ClassDef {
        self.parents.push(parent.into());
        self
    }

    /// Builder: add an attribute.
    pub fn attr(mut self, name: impl Into<String>, otype: OType) -> ClassDef {
        self.attributes.push(AttrDef::new(name, otype));
        self
    }

    /// Builder: set documentation.
    pub fn doc(mut self, text: impl Into<String>) -> ClassDef {
        self.documentation = text.into();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_comparisons() {
        assert_eq!(
            OValue::Int(1).compare(&OValue::Double(1.0)),
            Some(std::cmp::Ordering::Equal)
        );
        assert_eq!(OValue::Null.compare(&OValue::Int(1)), None);
        assert_eq!(
            OValue::Text("a".into()).compare(&OValue::Text("b".into())),
            Some(std::cmp::Ordering::Less)
        );
        assert_eq!(OValue::Text("a".into()).compare(&OValue::Int(1)), None);
    }

    #[test]
    fn builder_and_display() {
        let c = ClassDef::root("Research")
            .attr("Title", OType::Text)
            .attr("funding", OType::Double)
            .doc("research databases");
        assert_eq!(c.attributes[0].name, "title");
        assert_eq!(
            OValue::List(vec![OValue::Int(1), OValue::Text("x".into())]).to_string(),
            "[1, x]"
        );
        assert_eq!(Oid(7).to_string(), "@7");
    }
}
