//! Typed marshalling: the static twin of [`Value`].
//!
//! A typed CORBA interface (`webfindit_orb::interface!`) sends and
//! receives Rust types, not `Value` trees. [`Marshal`] is how each of
//! those types crosses the wire: it writes exactly the bytes
//! [`Value::encode`] writes for the type's `Value` shape, so a typed peer
//! and a dynamic (DII/DSI) peer read each other's messages byte for byte.
//!
//! Request arguments still travel as `Value`s (GIOP requests carry a
//! `Value` list, and a servant's DSI entry point takes `&[Value]`);
//! [`Marshal::to_args`] and [`Marshal::from_args`] convert through the
//! bytes by default, so a type's shape is defined once, by
//! [`Marshal::write`].

use crate::cdr::{ByteOrder, CdrReader, CdrWriter};
use crate::ior::Ior;
use crate::value::{tag, Value};
use crate::{WireError, WireResult};

/// A type that crosses a typed interface as an argument or a result.
pub trait Marshal: Sized {
    /// Write `self` as [`Value::encode`] writes its `Value` shape.
    fn write(&self, w: &mut CdrWriter) -> WireResult<()>;

    /// Read what [`Marshal::write`] wrote, checking every tag, count and
    /// field name.
    fn read(r: &mut CdrReader<'_>) -> WireResult<Self>;

    /// Append `self` to a request's arguments.
    fn to_args(&self, args: &mut Vec<Value>) -> WireResult<()> {
        let mut w = CdrWriter::new(SCRATCH);
        self.write(&mut w)?;
        let bytes = w.into_bytes();
        args.push(Value::decode(&mut CdrReader::new(&bytes, SCRATCH))?);
        Ok(())
    }

    /// Argument `at` of a request: `None` when it is missing or has
    /// another shape.
    fn from_args(args: &[Value], at: usize) -> Option<Self> {
        let mut w = CdrWriter::new(SCRATCH);
        args.get(at)?.encode(&mut w).ok()?;
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes, SCRATCH);
        Self::read(&mut r).ok().filter(|_| r.is_exhausted())
    }
}

/// The byte order of the default argument conversions' scratch bytes.
const SCRATCH: ByteOrder = ByteOrder::BigEndian;

/// Read a type tag, failing unless it is `want`.
pub fn expect_tag(r: &mut CdrReader<'_>, want: u8, context: &'static str) -> WireResult<()> {
    match r.read_octet()? {
        t if t == want => Ok(()),
        t => Err(WireError::BadTag {
            context,
            tag: t.into(),
        }),
    }
}

/// Read a sequence head: its count, which must fit in the bytes left
/// (each element is at least one octet).
pub fn read_count(r: &mut CdrReader<'_>, context: &'static str) -> WireResult<usize> {
    expect_tag(r, tag::SEQUENCE, context)?;
    let n = r.read_ulong()? as usize;
    if n > r.remaining() {
        return Err(WireError::TooLarge {
            declared: n as u64,
            limit: r.remaining() as u64,
        });
    }
    Ok(n)
}

/// Write a record head: `fields` named fields follow.
pub fn write_record(w: &mut CdrWriter, fields: u32) {
    w.write_octet(tag::STRUCT);
    w.write_ulong(fields);
}

/// Write the record field `name`.
pub fn write_field<T: Marshal>(w: &mut CdrWriter, name: &str, value: &T) -> WireResult<()> {
    w.write_string(name)?;
    value.write(w)
}

/// Read a record head: its field count.
pub fn read_record(r: &mut CdrReader<'_>, context: &'static str) -> WireResult<u32> {
    expect_tag(r, tag::STRUCT, context)?;
    r.read_ulong()
}

/// Read the record field `name`, which must come next.
pub fn read_field<T: Marshal>(r: &mut CdrReader<'_>, name: &'static str) -> WireResult<T> {
    if r.read_str()? != name {
        return Err(WireError::Shape(name));
    }
    T::read(r)
}

/// Read a record head of exactly `fields` fields.
pub fn read_record_of(r: &mut CdrReader<'_>, fields: u32, context: &'static str) -> WireResult<()> {
    if read_record(r, context)? != fields {
        return Err(WireError::Shape(context));
    }
    Ok(())
}

/// `void`: an operation with no result.
impl Marshal for () {
    fn write(&self, w: &mut CdrWriter) -> WireResult<()> {
        w.write_octet(tag::VOID);
        Ok(())
    }

    fn read(r: &mut CdrReader<'_>) -> WireResult<()> {
        expect_tag(r, tag::VOID, "void")
    }
}

/// A `long long`. As an argument, any integer `Value` widens to it.
impl Marshal for i64 {
    fn write(&self, w: &mut CdrWriter) -> WireResult<()> {
        w.write_octet(tag::LONGLONG);
        w.write_longlong(*self);
        Ok(())
    }

    fn read(r: &mut CdrReader<'_>) -> WireResult<i64> {
        expect_tag(r, tag::LONGLONG, "long long")?;
        r.read_longlong()
    }

    fn to_args(&self, args: &mut Vec<Value>) -> WireResult<()> {
        args.push(Value::LongLong(*self));
        Ok(())
    }

    fn from_args(args: &[Value], at: usize) -> Option<i64> {
        args.get(at)?.as_i64()
    }
}

/// An `unsigned long`.
impl Marshal for u32 {
    fn write(&self, w: &mut CdrWriter) -> WireResult<()> {
        w.write_octet(tag::ULONG);
        w.write_ulong(*self);
        Ok(())
    }

    fn read(r: &mut CdrReader<'_>) -> WireResult<u32> {
        expect_tag(r, tag::ULONG, "unsigned long")?;
        r.read_ulong()
    }

    fn to_args(&self, args: &mut Vec<Value>) -> WireResult<()> {
        args.push(Value::ULong(*self));
        Ok(())
    }

    fn from_args(args: &[Value], at: usize) -> Option<u32> {
        match args.get(at)? {
            Value::ULong(n) => Some(*n),
            _ => None,
        }
    }
}

impl Marshal for String {
    fn write(&self, w: &mut CdrWriter) -> WireResult<()> {
        w.write_octet(tag::STRING);
        w.write_string(self)
    }

    fn read(r: &mut CdrReader<'_>) -> WireResult<String> {
        expect_tag(r, tag::STRING, "string")?;
        r.read_string()
    }

    fn to_args(&self, args: &mut Vec<Value>) -> WireResult<()> {
        args.push(Value::Str(self.clone()));
        Ok(())
    }

    fn from_args(args: &[Value], at: usize) -> Option<String> {
        args.get(at)?.as_str().map(str::to_owned)
    }
}

/// `NULL` when absent. As an argument, a missing one is absent too.
impl<T: Marshal> Marshal for Option<T> {
    fn write(&self, w: &mut CdrWriter) -> WireResult<()> {
        match self {
            Some(v) => v.write(w),
            None => {
                w.write_octet(tag::NULL);
                Ok(())
            }
        }
    }

    fn read(r: &mut CdrReader<'_>) -> WireResult<Option<T>> {
        if r.clone().read_octet()? == tag::NULL {
            r.read_octet()?;
            return Ok(None);
        }
        T::read(r).map(Some)
    }

    fn to_args(&self, args: &mut Vec<Value>) -> WireResult<()> {
        match self {
            Some(v) => v.to_args(args),
            None => {
                args.push(Value::Null);
                Ok(())
            }
        }
    }

    fn from_args(args: &[Value], at: usize) -> Option<Option<T>> {
        match args.get(at) {
            None | Some(Value::Null) => Some(None),
            Some(_) => T::from_args(args, at).map(Some),
        }
    }
}

/// A sequence.
impl<T: Marshal> Marshal for Vec<T> {
    fn write(&self, w: &mut CdrWriter) -> WireResult<()> {
        w.write_octet(tag::SEQUENCE);
        w.write_ulong(self.len() as u32);
        self.iter().try_for_each(|item| item.write(w))
    }

    fn read(r: &mut CdrReader<'_>) -> WireResult<Vec<T>> {
        let n = read_count(r, "sequence")?;
        (0..n).map(|_| T::read(r)).collect()
    }
}

/// Any value at all: the dynamic shape, passed through.
impl Marshal for Value {
    fn write(&self, w: &mut CdrWriter) -> WireResult<()> {
        self.encode(w)
    }

    fn read(r: &mut CdrReader<'_>) -> WireResult<Value> {
        Value::decode(r)
    }

    fn to_args(&self, args: &mut Vec<Value>) -> WireResult<()> {
        args.push(self.clone());
        Ok(())
    }

    fn from_args(args: &[Value], at: usize) -> Option<Value> {
        args.get(at).cloned()
    }
}

/// An object reference in its stringified `IOR:…` form, the way the
/// naming service moves references between ORBs.
impl Marshal for Ior {
    fn write(&self, w: &mut CdrWriter) -> WireResult<()> {
        self.to_stringified().write(w)
    }

    fn read(r: &mut CdrReader<'_>) -> WireResult<Ior> {
        Ior::from_stringified(&String::read(r)?)
    }

    fn to_args(&self, args: &mut Vec<Value>) -> WireResult<()> {
        self.to_stringified().to_args(args)
    }

    fn from_args(args: &[Value], at: usize) -> Option<Ior> {
        Ior::from_stringified(args.get(at)?.as_str()?).ok()
    }
}

/// Every remaining argument of a request, each a `T`: an operation that
/// takes a variable number of arguments declares its last one so.
#[derive(Debug, Clone, PartialEq)]
pub struct Rest<T>(pub Vec<T>);

impl<T: Marshal> Marshal for Rest<T> {
    /// Each item, one after another, as a request lays out arguments.
    fn write(&self, w: &mut CdrWriter) -> WireResult<()> {
        self.0.iter().try_for_each(|item| item.write(w))
    }

    /// Items until the bytes run out.
    fn read(r: &mut CdrReader<'_>) -> WireResult<Rest<T>> {
        let mut items = Vec::new();
        while !r.is_exhausted() {
            items.push(T::read(r)?);
        }
        Ok(Rest(items))
    }

    fn to_args(&self, args: &mut Vec<Value>) -> WireResult<()> {
        self.0.iter().try_for_each(|item| item.to_args(args))
    }

    fn from_args(args: &[Value], at: usize) -> Option<Rest<T>> {
        (at..args.len().max(at))
            .map(|i| T::from_args(args, i))
            .collect::<Option<_>>()
            .map(Rest)
    }
}

/// A last argument the caller may leave off: `None` sends no argument at
/// all, and a missing or `NULL` one reads as `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trailing<T>(pub Option<T>);

impl<T: Marshal> Marshal for Trailing<T> {
    /// The value, or nothing.
    fn write(&self, w: &mut CdrWriter) -> WireResult<()> {
        self.0.as_ref().map_or(Ok(()), |v| v.write(w))
    }

    /// A value, unless the bytes have run out.
    fn read(r: &mut CdrReader<'_>) -> WireResult<Trailing<T>> {
        if r.is_exhausted() {
            return Ok(Trailing(None));
        }
        Option::<T>::read(r).map(Trailing)
    }

    fn to_args(&self, args: &mut Vec<Value>) -> WireResult<()> {
        self.0.as_ref().map_or(Ok(()), |v| v.to_args(args))
    }

    fn from_args(args: &[Value], at: usize) -> Option<Trailing<T>> {
        Option::<T>::from_args(args, at).map(Trailing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of(v: &impl Marshal, order: ByteOrder) -> Vec<u8> {
        let mut w = CdrWriter::new(order);
        v.write(&mut w).unwrap();
        w.into_bytes()
    }

    fn value_bytes(v: &Value, order: ByteOrder) -> Vec<u8> {
        let mut w = CdrWriter::new(order);
        v.encode(&mut w).unwrap();
        w.into_bytes()
    }

    #[test]
    fn scalars_and_containers_write_their_value_shape() {
        for order in [ByteOrder::BigEndian, ByteOrder::LittleEndian] {
            let names = vec!["a".to_owned(), "bc".to_owned()];
            let shape = Value::Sequence(vec![Value::string("a"), Value::string("bc")]);
            assert_eq!(bytes_of(&names, order), value_bytes(&shape, order));
            assert_eq!(bytes_of(&(), order), value_bytes(&Value::Void, order));
            assert_eq!(
                bytes_of(&-7i64, order),
                value_bytes(&Value::LongLong(-7), order)
            );
            assert_eq!(bytes_of(&9u32, order), value_bytes(&Value::ULong(9), order));
            let none: Option<String> = None;
            assert_eq!(bytes_of(&none, order), value_bytes(&Value::Null, order));
            let bytes = bytes_of(&names, order);
            let back = Vec::<String>::read(&mut CdrReader::new(&bytes, order)).unwrap();
            assert_eq!(back, names);
        }
    }

    #[test]
    fn arguments_read_strictly_but_widen_integers() {
        let args = [Value::string("x"), Value::Long(3), Value::Null];
        assert_eq!(String::from_args(&args, 0).as_deref(), Some("x"));
        assert_eq!(String::from_args(&args, 1), None);
        assert_eq!(i64::from_args(&args, 1), Some(3));
        assert_eq!(Option::<i64>::from_args(&args, 2), Some(None));
        assert_eq!(Option::<i64>::from_args(&args, 9), Some(None));
        assert_eq!(Option::<i64>::from_args(&args, 0), None);
        assert_eq!(u32::from_args(&args, 1), None);
        assert_eq!(Trailing::<u32>::from_args(&args, 3), Some(Trailing(None)));
        assert_eq!(
            Rest::<Value>::from_args(&args, 1),
            Some(Rest(args[1..].to_vec()))
        );
        assert_eq!(Rest::<String>::from_args(&args, 3), Some(Rest(vec![])));
        let mut sent = Vec::new();
        Trailing::<u32>(None).to_args(&mut sent).unwrap();
        Some(5u32).to_args(&mut sent).unwrap();
        None::<u32>.to_args(&mut sent).unwrap();
        assert_eq!(sent, [Value::ULong(5), Value::Null]);
    }

    #[test]
    fn records_check_their_field_names() {
        let mut w = CdrWriter::new(ByteOrder::BigEndian);
        write_record(&mut w, 1);
        write_field(&mut w, "version", &4i64).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(
            bytes,
            value_bytes(
                &Value::record([("version", Value::LongLong(4))]),
                ByteOrder::BigEndian
            )
        );
        let mut r = CdrReader::new(&bytes, ByteOrder::BigEndian);
        read_record_of(&mut r, 1, "stamp").unwrap();
        assert!(read_field::<i64>(&mut r.clone(), "stamp").is_err());
        assert_eq!(read_field::<i64>(&mut r, "version").unwrap(), 4);
    }
}
