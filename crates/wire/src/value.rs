//! A self-describing value model — the analog of CORBA's `any`/TypeCode.
//!
//! WebFINDIT's query processor builds requests dynamically (it cannot know
//! at compile time which operations a remote information source exports),
//! which in CORBA terms is the Dynamic Invocation Interface. DII requires
//! values that carry their own type description on the wire. [`Value`] is
//! that model: each value is encoded as a one-octet type tag followed by
//! its CDR representation, so any receiver can decode it without IDL.

use crate::cdr::{CdrReader, CdrWriter};
use crate::ior::Ior;
use crate::{WireError, WireResult};
use std::fmt;
use webfindit_base::float::write_double;

/// Type tags used on the wire, one octet each. Public so that a typed
/// codec elsewhere (a result-set table, say) can write and read the
/// same bytes `Value::encode` and `Value::decode` do without building a
/// `Value` tree.
pub mod tag {
    /// [`super::Value::Void`].
    pub const VOID: u8 = 0;
    /// [`super::Value::Bool`].
    pub const BOOL: u8 = 1;
    /// [`super::Value::Octet`].
    pub const OCTET: u8 = 2;
    /// [`super::Value::Short`].
    pub const SHORT: u8 = 3;
    /// [`super::Value::Long`].
    pub const LONG: u8 = 4;
    /// [`super::Value::LongLong`].
    pub const LONGLONG: u8 = 5;
    /// [`super::Value::ULong`].
    pub const ULONG: u8 = 6;
    /// [`super::Value::Float`].
    pub const FLOAT: u8 = 7;
    /// [`super::Value::Double`].
    pub const DOUBLE: u8 = 8;
    /// [`super::Value::Str`].
    pub const STRING: u8 = 9;
    /// [`super::Value::Sequence`]: a ulong count, then the items.
    pub const SEQUENCE: u8 = 10;
    /// [`super::Value::Struct`]: a ulong count, then (name, value) pairs.
    pub const STRUCT: u8 = 11;
    /// [`super::Value::ObjectRef`].
    pub const OBJECT_REF: u8 = 12;
    /// [`super::Value::Null`].
    pub const NULL: u8 = 13;
}

/// How many `SEQUENCE`/`STRUCT` containers a decoded [`Value`] may sit
/// inside. Decoding recurses once per level, so without a bound a peer
/// could send a small frame of nested tags that overflows the decoding
/// thread's stack, which aborts the whole process. The rows, records
/// and descriptors this system sends nest a handful of levels.
pub const MAX_VALUE_DEPTH: usize = 64;

/// A dynamically-typed, self-describing value.
///
/// This is the currency of every WebFINDIT remote invocation: operation
/// arguments, result rows, metadata descriptors, and exceptions all travel
/// as `Value`s inside GIOP Request/Reply bodies.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// No value (an operation with no result).
    Void,
    /// Explicit null / absent value (SQL NULL travels as this).
    Null,
    /// Boolean.
    Bool(bool),
    /// Single octet.
    Octet(u8),
    /// 16-bit signed integer.
    Short(i16),
    /// 32-bit signed integer.
    Long(i32),
    /// 64-bit signed integer.
    LongLong(i64),
    /// 32-bit unsigned integer.
    ULong(u32),
    /// Single-precision float.
    Float(f32),
    /// Double-precision float.
    Double(f64),
    /// UTF-8 string.
    Str(String),
    /// Homogeneous-or-not ordered collection.
    Sequence(Vec<Value>),
    /// Named-field record. Field order is significant on the wire.
    Struct(Vec<(String, Value)>),
    /// A reference to a remote CORBA object.
    ObjectRef(Ior),
}

impl Value {
    /// Build a struct value from `(name, value)` pairs.
    pub fn record<I, S>(fields: I) -> Value
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<String>,
    {
        Value::Struct(fields.into_iter().map(|(n, v)| (n.into(), v)).collect())
    }

    /// Shorthand for a string value.
    pub fn string(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Look up a field of a struct value by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Struct(fields) => fields.iter().find(|(n, _)| n == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// View as a string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// View as an i64, widening any integer variant.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Short(v) => Some(*v as i64),
            Value::Long(v) => Some(*v as i64),
            Value::LongLong(v) => Some(*v),
            Value::ULong(v) => Some(*v as i64),
            Value::Octet(v) => Some(*v as i64),
            _ => None,
        }
    }

    /// View as an f64, widening floats and integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v as f64),
            Value::Double(v) => Some(*v),
            other => other.as_i64().map(|i| i as f64),
        }
    }

    /// View as a sequence slice.
    pub fn as_sequence(&self) -> Option<&[Value]> {
        match self {
            Value::Sequence(v) => Some(v),
            _ => None,
        }
    }

    /// True for `Null` and `Void`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null | Value::Void)
    }

    /// Encode this value (tag + body) into a CDR writer.
    pub fn encode(&self, w: &mut CdrWriter) -> WireResult<()> {
        match self {
            Value::Void => w.write_octet(tag::VOID),
            Value::Null => w.write_octet(tag::NULL),
            Value::Bool(b) => {
                w.write_octet(tag::BOOL);
                w.write_bool(*b);
            }
            Value::Octet(v) => {
                w.write_octet(tag::OCTET);
                w.write_octet(*v);
            }
            Value::Short(v) => {
                w.write_octet(tag::SHORT);
                w.write_short(*v);
            }
            Value::Long(v) => {
                w.write_octet(tag::LONG);
                w.write_long(*v);
            }
            Value::LongLong(v) => {
                w.write_octet(tag::LONGLONG);
                w.write_longlong(*v);
            }
            Value::ULong(v) => {
                w.write_octet(tag::ULONG);
                w.write_ulong(*v);
            }
            Value::Float(v) => {
                w.write_octet(tag::FLOAT);
                w.write_float(*v);
            }
            Value::Double(v) => {
                w.write_octet(tag::DOUBLE);
                w.write_double(*v);
            }
            Value::Str(s) => {
                w.write_octet(tag::STRING);
                w.write_string(s)?;
            }
            Value::Sequence(items) => {
                w.write_octet(tag::SEQUENCE);
                w.write_ulong(items.len() as u32);
                for item in items {
                    item.encode(w)?;
                }
            }
            Value::Struct(fields) => {
                w.write_octet(tag::STRUCT);
                w.write_ulong(fields.len() as u32);
                for (name, value) in fields {
                    w.write_string(name)?;
                    value.encode(w)?;
                }
            }
            Value::ObjectRef(ior) => {
                w.write_octet(tag::OBJECT_REF);
                ior.encode(w)?;
            }
        }
        Ok(())
    }

    /// Decode a value (tag + body) from a CDR reader. A value nested
    /// inside more than [`MAX_VALUE_DEPTH`] containers is refused with
    /// [`WireError::TooDeep`] before the recursion can exhaust the stack.
    pub fn decode(r: &mut CdrReader<'_>) -> WireResult<Value> {
        Value::decode_nested(r, 0)
    }

    /// Decode a value that sits inside `depth` containers.
    fn decode_nested(r: &mut CdrReader<'_>, depth: usize) -> WireResult<Value> {
        if depth > MAX_VALUE_DEPTH {
            return Err(WireError::TooDeep {
                limit: MAX_VALUE_DEPTH,
            });
        }
        let t = r.read_octet()?;
        Ok(match t {
            tag::VOID => Value::Void,
            tag::NULL => Value::Null,
            tag::BOOL => Value::Bool(r.read_bool()?),
            tag::OCTET => Value::Octet(r.read_octet()?),
            tag::SHORT => Value::Short(r.read_short()?),
            tag::LONG => Value::Long(r.read_long()?),
            tag::LONGLONG => Value::LongLong(r.read_longlong()?),
            tag::ULONG => Value::ULong(r.read_ulong()?),
            tag::FLOAT => Value::Float(r.read_float()?),
            tag::DOUBLE => Value::Double(r.read_double()?),
            tag::STRING => Value::Str(r.read_string()?),
            tag::SEQUENCE => {
                let n = r.read_ulong()? as usize;
                // Each element is at least one tag octet; reject lengths
                // that could not possibly fit in the remaining buffer.
                if n > r.remaining() {
                    return Err(WireError::TooLarge {
                        declared: n as u64,
                        limit: r.remaining() as u64,
                    });
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(Value::decode_nested(r, depth + 1)?);
                }
                Value::Sequence(items)
            }
            tag::STRUCT => {
                let n = r.read_ulong()? as usize;
                if n > r.remaining() {
                    return Err(WireError::TooLarge {
                        declared: n as u64,
                        limit: r.remaining() as u64,
                    });
                }
                let mut fields = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = r.read_string()?;
                    let value = Value::decode_nested(r, depth + 1)?;
                    fields.push((name, value));
                }
                Value::Struct(fields)
            }
            tag::OBJECT_REF => Value::ObjectRef(Ior::decode(r)?),
            other => {
                return Err(WireError::BadTag {
                    context: "value type tag",
                    tag: other as u32,
                })
            }
        })
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Void => write!(f, "void"),
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Octet(v) => write!(f, "{v}"),
            Value::Short(v) => write!(f, "{v}"),
            Value::Long(v) => write!(f, "{v}"),
            Value::LongLong(v) => write!(f, "{v}"),
            Value::ULong(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Double(v) => write_double(f, *v),
            Value::Str(s) => write!(f, "{s}"),
            Value::Sequence(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Struct(fields) => {
                write!(f, "{{")?;
                for (i, (name, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{name}: {value}")?;
                }
                write!(f, "}}")
            }
            Value::ObjectRef(ior) => write!(f, "<objref {}>", ior.type_id),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i16> for Value {
    fn from(v: i16) -> Self {
        Value::Short(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Long(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::LongLong(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::ULong(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Sequence(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdr::ByteOrder;

    fn roundtrip(v: &Value, order: ByteOrder) -> Value {
        let mut w = CdrWriter::new(order);
        v.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes, order);
        let back = Value::decode(&mut r).unwrap();
        assert!(r.is_exhausted(), "value decode left trailing bytes");
        back
    }

    #[test]
    fn primitive_roundtrips() {
        for order in [ByteOrder::BigEndian, ByteOrder::LittleEndian] {
            for v in [
                Value::Void,
                Value::Null,
                Value::Bool(true),
                Value::Octet(200),
                Value::Short(-7),
                Value::Long(123_456),
                Value::LongLong(-9_876_543_210),
                Value::ULong(4_000_000_000),
                Value::Float(0.5),
                Value::Double(std::f64::consts::PI),
                Value::string("Royal Brisbane Hospital"),
            ] {
                assert_eq!(roundtrip(&v, order), v);
            }
        }
    }

    #[test]
    fn nested_struct_roundtrip() {
        let v = Value::record([
            ("name", Value::string("AIDS and drugs")),
            ("funding", Value::Double(250_000.0)),
            (
                "keywords",
                Value::Sequence(vec![Value::string("aids"), Value::string("drugs")]),
            ),
            (
                "pi",
                Value::record([("id", Value::Long(42)), ("active", Value::Bool(true))]),
            ),
        ]);
        assert_eq!(roundtrip(&v, ByteOrder::LittleEndian), v);
    }

    #[test]
    fn field_lookup() {
        let v = Value::record([("a", Value::Long(1)), ("b", Value::string("x"))]);
        assert_eq!(v.field("b").and_then(Value::as_str), Some("x"));
        assert!(v.field("missing").is_none());
        assert!(Value::Long(3).field("a").is_none());
    }

    #[test]
    fn numeric_widening() {
        assert_eq!(Value::Short(-2).as_i64(), Some(-2));
        assert_eq!(Value::ULong(7).as_f64(), Some(7.0));
        assert_eq!(Value::string("x").as_i64(), None);
    }

    #[test]
    fn bad_tag_is_rejected() {
        let bytes = [99u8];
        let mut r = CdrReader::new(&bytes, ByteOrder::BigEndian);
        assert!(matches!(
            Value::decode(&mut r),
            Err(WireError::BadTag { .. })
        ));
    }

    #[test]
    fn hostile_sequence_length_is_rejected() {
        // tag SEQUENCE + length u32::MAX, then nothing.
        let mut w = CdrWriter::new(ByteOrder::BigEndian);
        w.write_octet(10);
        w.write_ulong(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes, ByteOrder::BigEndian);
        assert!(matches!(
            Value::decode(&mut r),
            Err(WireError::TooLarge { .. })
        ));
    }

    /// Decode `levels` nested one-element sequences around a null. Each
    /// level is a tag, three alignment octets and a length: 8 bytes.
    fn decode_nested_sequences(levels: usize) -> WireResult<Value> {
        let mut w = CdrWriter::new(ByteOrder::BigEndian);
        for _ in 0..levels {
            w.write_octet(tag::SEQUENCE);
            w.write_ulong(1);
        }
        w.write_octet(tag::NULL);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 8 * levels + 1);
        Value::decode(&mut CdrReader::new(&bytes, ByteOrder::BigEndian))
    }

    /// Nesting up to the limit decodes and one level more is refused.
    /// Without the limit, 20 000 levels (160 001 bytes) recurse once per
    /// level and overflow a 2 MiB thread stack, which aborts the process.
    #[test]
    fn deep_nesting_is_refused_on_a_small_stack() {
        assert!(decode_nested_sequences(MAX_VALUE_DEPTH).is_ok());
        let too_deep = decode_nested_sequences(MAX_VALUE_DEPTH + 1);
        assert!(matches!(too_deep, Err(WireError::TooDeep { limit: 64 })));
        let decoded = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| decode_nested_sequences(20_000).map(|_| ()))
            .unwrap()
            .join()
            .expect("decoder thread returns");
        assert!(matches!(decoded, Err(WireError::TooDeep { .. })));
    }

    #[test]
    fn display_is_readable() {
        let v = Value::record([("title", Value::string("t")), ("n", Value::Long(3))]);
        assert_eq!(v.to_string(), "{title: t, n: 3}");
    }
}
