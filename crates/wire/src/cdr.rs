//! CORBA 2.0 Common Data Representation (CDR).
//!
//! CDR is the marshalling format GIOP uses for every message body. Its two
//! defining properties, both implemented here:
//!
//! 1. **Receiver-makes-right byte order**: every encapsulation carries a
//!    byte-order flag; the sender writes in its native order and the
//!    receiver swaps if needed. We support encoding and decoding in both
//!    orders so that "ORBs from different vendors" genuinely exchange
//!    differently-ordered bytes in tests.
//! 2. **Natural alignment**: a primitive of size *n* is aligned to an
//!    *n*-byte boundary measured from the start of the enclosing message
//!    or encapsulation, with padding octets inserted as needed.
//!
//! The [`CdrWriter`] and [`CdrReader`] below implement the primitive types,
//! strings (length-prefixed, NUL-terminated, as the spec requires),
//! sequences, and nested encapsulations (used by tagged IOR profiles).

use crate::{WireError, WireResult, MAX_MESSAGE_SIZE};

/// Byte order used by an encoder or found in an encapsulation flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ByteOrder {
    /// Most-significant byte first (network order).
    BigEndian,
    /// Least-significant byte first.
    LittleEndian,
}

impl ByteOrder {
    /// The flag octet CDR uses inside encapsulations: 0 = big, 1 = little.
    pub fn flag(self) -> u8 {
        match self {
            ByteOrder::BigEndian => 0,
            ByteOrder::LittleEndian => 1,
        }
    }

    /// Parse an encapsulation flag octet.
    pub fn from_flag(flag: u8) -> WireResult<Self> {
        match flag {
            0 => Ok(ByteOrder::BigEndian),
            1 => Ok(ByteOrder::LittleEndian),
            other => Err(WireError::BadTag {
                context: "byte-order flag",
                tag: other as u32,
            }),
        }
    }
}

/// An aligned CDR encoder.
///
/// Alignment is computed relative to the start of the buffer handed to this
/// writer, which must therefore coincide with the start of the GIOP message
/// body or encapsulation being produced.
#[derive(Debug)]
pub struct CdrWriter {
    buf: Vec<u8>,
    order: ByteOrder,
    /// Offset of the encapsulation start within `buf`; alignment is
    /// measured from here. Nonzero only for frame writers, where the
    /// buffer opens with a 12-byte GIOP header preamble so header and
    /// body share one allocation.
    base: usize,
}

impl CdrWriter {
    /// Create a writer producing bytes in the given order.
    pub fn new(order: ByteOrder) -> Self {
        CdrWriter::new_in(order, Vec::with_capacity(128))
    }

    /// Create a writer over recycled storage (cleared before use). The
    /// buffer pool hands storage in here; `into_bytes` hands it back out.
    pub fn new_in(order: ByteOrder, mut buf: Vec<u8>) -> Self {
        buf.clear();
        CdrWriter {
            buf,
            order,
            base: 0,
        }
    }

    /// Create a *frame* writer over recycled storage: the first 12 bytes
    /// are reserved (zeroed) for a GIOP header to be patched in later,
    /// and CDR alignment is measured from byte 12 — the body start — as
    /// the spec requires. This lets header and body be encoded into a
    /// single buffer with no assembly copy.
    pub fn frame(order: ByteOrder, mut buf: Vec<u8>) -> Self {
        buf.clear();
        buf.resize(12, 0);
        CdrWriter {
            buf,
            order,
            base: 12,
        }
    }

    /// The byte order this writer emits.
    pub fn order(&self) -> ByteOrder {
        self.order
    }

    /// Number of body bytes written so far (excludes any frame preamble).
    pub fn len(&self) -> usize {
        self.buf.len() - self.base
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consume the writer, returning the encoded bytes (for a frame
    /// writer this includes the 12-byte header preamble).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Pad with zero octets until the cursor is aligned to `align` bytes.
    pub fn align(&mut self, align: usize) {
        debug_assert!(align.is_power_of_two());
        let misalign = (self.buf.len() - self.base) % align;
        if misalign != 0 {
            for _ in 0..(align - misalign) {
                self.buf.push(0);
            }
        }
    }

    /// Write a single octet (no alignment needed).
    pub fn write_octet(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a boolean as a single octet (1 = true, 0 = false).
    pub fn write_bool(&mut self, v: bool) {
        self.write_octet(u8::from(v));
    }

    /// Write a signed 16-bit integer, aligned to 2.
    pub fn write_short(&mut self, v: i16) {
        self.align(2);
        match self.order {
            ByteOrder::BigEndian => self.buf.extend_from_slice(&v.to_be_bytes()),
            ByteOrder::LittleEndian => self.buf.extend_from_slice(&v.to_le_bytes()),
        }
    }

    /// Write an unsigned 16-bit integer, aligned to 2.
    pub fn write_ushort(&mut self, v: u16) {
        self.align(2);
        match self.order {
            ByteOrder::BigEndian => self.buf.extend_from_slice(&v.to_be_bytes()),
            ByteOrder::LittleEndian => self.buf.extend_from_slice(&v.to_le_bytes()),
        }
    }

    /// Write a signed 32-bit integer, aligned to 4.
    pub fn write_long(&mut self, v: i32) {
        self.align(4);
        match self.order {
            ByteOrder::BigEndian => self.buf.extend_from_slice(&v.to_be_bytes()),
            ByteOrder::LittleEndian => self.buf.extend_from_slice(&v.to_le_bytes()),
        }
    }

    /// Write an unsigned 32-bit integer, aligned to 4.
    pub fn write_ulong(&mut self, v: u32) {
        self.align(4);
        match self.order {
            ByteOrder::BigEndian => self.buf.extend_from_slice(&v.to_be_bytes()),
            ByteOrder::LittleEndian => self.buf.extend_from_slice(&v.to_le_bytes()),
        }
    }

    /// Write a placeholder `ulong`, aligned as [`CdrWriter::write_ulong`]
    /// aligns one, for a count not known yet; returns where it sits, for
    /// [`CdrWriter::patch_ulong`].
    pub fn reserve_ulong(&mut self) -> usize {
        self.write_ulong(0);
        self.buf.len() - 4
    }

    /// Fill in a `ulong` that [`CdrWriter::reserve_ulong`] reserved at
    /// `at`, in this writer's byte order.
    pub fn patch_ulong(&mut self, at: usize, v: u32) {
        let bytes = match self.order {
            ByteOrder::BigEndian => v.to_be_bytes(),
            ByteOrder::LittleEndian => v.to_le_bytes(),
        };
        self.buf[at..at + 4].copy_from_slice(&bytes);
    }

    /// Write a signed 64-bit integer, aligned to 8.
    pub fn write_longlong(&mut self, v: i64) {
        self.align(8);
        match self.order {
            ByteOrder::BigEndian => self.buf.extend_from_slice(&v.to_be_bytes()),
            ByteOrder::LittleEndian => self.buf.extend_from_slice(&v.to_le_bytes()),
        }
    }

    /// Write an unsigned 64-bit integer, aligned to 8.
    pub fn write_ulonglong(&mut self, v: u64) {
        self.align(8);
        match self.order {
            ByteOrder::BigEndian => self.buf.extend_from_slice(&v.to_be_bytes()),
            ByteOrder::LittleEndian => self.buf.extend_from_slice(&v.to_le_bytes()),
        }
    }

    /// Write an IEEE-754 single-precision float, aligned to 4.
    pub fn write_float(&mut self, v: f32) {
        self.align(4);
        match self.order {
            ByteOrder::BigEndian => self.buf.extend_from_slice(&v.to_be_bytes()),
            ByteOrder::LittleEndian => self.buf.extend_from_slice(&v.to_le_bytes()),
        }
    }

    /// Write an IEEE-754 double-precision float, aligned to 8.
    pub fn write_double(&mut self, v: f64) {
        self.align(8);
        match self.order {
            ByteOrder::BigEndian => self.buf.extend_from_slice(&v.to_be_bytes()),
            ByteOrder::LittleEndian => self.buf.extend_from_slice(&v.to_le_bytes()),
        }
    }

    /// Write a CDR string: ulong length (including the terminating NUL),
    /// the UTF-8 bytes, then a NUL octet.
    ///
    /// Returns an error if the string itself contains a NUL, which CDR
    /// cannot represent.
    pub fn write_string(&mut self, s: &str) -> WireResult<()> {
        if s.as_bytes().contains(&0) {
            return Err(WireError::EmbeddedNul);
        }
        self.write_ulong(s.len() as u32 + 1);
        self.buf.extend_from_slice(s.as_bytes());
        self.buf.push(0);
        Ok(())
    }

    /// Write a `sequence<octet>`: ulong length then raw bytes.
    pub fn write_octets(&mut self, bytes: &[u8]) {
        self.write_ulong(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }

    /// Write raw bytes with no length prefix (caller manages framing).
    pub fn write_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Write a nested encapsulation: a `sequence<octet>` whose first octet
    /// is a byte-order flag, produced by `f` writing into a fresh writer.
    ///
    /// Tagged IOR profiles and service contexts are encoded this way, which
    /// is what lets an ORB forward profiles it does not understand.
    pub fn write_encapsulation<F>(&mut self, order: ByteOrder, f: F) -> WireResult<()>
    where
        F: FnOnce(&mut CdrWriter) -> WireResult<()>,
    {
        let mut inner = CdrWriter::new(order);
        inner.write_octet(order.flag());
        f(&mut inner)?;
        self.write_octets(&inner.into_bytes());
        Ok(())
    }
}

/// An aligned CDR decoder over a borrowed byte slice.
///
/// Like the writer, alignment is relative to the start of the slice, which
/// must be the start of a message body or encapsulation. Cloning a
/// reader is cheap and lets a decoder look ahead without consuming.
#[derive(Debug, Clone)]
pub struct CdrReader<'a> {
    buf: &'a [u8],
    pos: usize,
    order: ByteOrder,
}

impl<'a> CdrReader<'a> {
    /// Create a reader decoding in the given byte order.
    pub fn new(buf: &'a [u8], order: ByteOrder) -> Self {
        CdrReader { buf, pos: 0, order }
    }

    /// Create a reader over `buf` whose next read starts at `pos`;
    /// alignment is still measured from the start of `buf`.
    pub(crate) fn at(buf: &'a [u8], pos: usize, order: ByteOrder) -> Self {
        CdrReader { buf, pos, order }
    }

    /// Offset of the next read from the start of the buffer.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// Create a reader over an encapsulation: the first octet is consumed
    /// as the byte-order flag.
    pub fn for_encapsulation(buf: &'a [u8]) -> WireResult<Self> {
        if buf.is_empty() {
            return Err(WireError::UnexpectedEof {
                needed: 1,
                remaining: 0,
            });
        }
        let order = ByteOrder::from_flag(buf[0])?;
        Ok(CdrReader { buf, pos: 1, order })
    }

    /// The byte order this reader decodes with.
    pub fn order(&self) -> ByteOrder {
        self.order
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Skip padding until the cursor is aligned to `align` bytes.
    pub fn align(&mut self, align: usize) -> WireResult<()> {
        debug_assert!(align.is_power_of_two());
        let misalign = self.pos % align;
        if misalign != 0 {
            self.take(align - misalign)?;
        }
        Ok(())
    }

    /// Read a single octet.
    pub fn read_octet(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a boolean octet, rejecting values other than 0 or 1.
    pub fn read_bool(&mut self) -> WireResult<bool> {
        match self.read_octet()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::InvalidBoolean(other)),
        }
    }

    /// Read an aligned signed 16-bit integer.
    pub fn read_short(&mut self) -> WireResult<i16> {
        self.align(2)?;
        let b: [u8; 2] = self.take(2)?.try_into().expect("take returned 2 bytes");
        Ok(match self.order {
            ByteOrder::BigEndian => i16::from_be_bytes(b),
            ByteOrder::LittleEndian => i16::from_le_bytes(b),
        })
    }

    /// Read an aligned unsigned 16-bit integer.
    pub fn read_ushort(&mut self) -> WireResult<u16> {
        self.align(2)?;
        let b: [u8; 2] = self.take(2)?.try_into().expect("take returned 2 bytes");
        Ok(match self.order {
            ByteOrder::BigEndian => u16::from_be_bytes(b),
            ByteOrder::LittleEndian => u16::from_le_bytes(b),
        })
    }

    /// Read an aligned signed 32-bit integer.
    pub fn read_long(&mut self) -> WireResult<i32> {
        self.align(4)?;
        let b: [u8; 4] = self.take(4)?.try_into().expect("take returned 4 bytes");
        Ok(match self.order {
            ByteOrder::BigEndian => i32::from_be_bytes(b),
            ByteOrder::LittleEndian => i32::from_le_bytes(b),
        })
    }

    /// Read an aligned unsigned 32-bit integer.
    pub fn read_ulong(&mut self) -> WireResult<u32> {
        self.align(4)?;
        let b: [u8; 4] = self.take(4)?.try_into().expect("take returned 4 bytes");
        Ok(match self.order {
            ByteOrder::BigEndian => u32::from_be_bytes(b),
            ByteOrder::LittleEndian => u32::from_le_bytes(b),
        })
    }

    /// Read an aligned signed 64-bit integer.
    pub fn read_longlong(&mut self) -> WireResult<i64> {
        self.align(8)?;
        let b: [u8; 8] = self.take(8)?.try_into().expect("take returned 8 bytes");
        Ok(match self.order {
            ByteOrder::BigEndian => i64::from_be_bytes(b),
            ByteOrder::LittleEndian => i64::from_le_bytes(b),
        })
    }

    /// Read an aligned unsigned 64-bit integer.
    pub fn read_ulonglong(&mut self) -> WireResult<u64> {
        self.align(8)?;
        let b: [u8; 8] = self.take(8)?.try_into().expect("take returned 8 bytes");
        Ok(match self.order {
            ByteOrder::BigEndian => u64::from_be_bytes(b),
            ByteOrder::LittleEndian => u64::from_le_bytes(b),
        })
    }

    /// Read an aligned single-precision float.
    pub fn read_float(&mut self) -> WireResult<f32> {
        self.align(4)?;
        let b: [u8; 4] = self.take(4)?.try_into().expect("take returned 4 bytes");
        Ok(match self.order {
            ByteOrder::BigEndian => f32::from_be_bytes(b),
            ByteOrder::LittleEndian => f32::from_le_bytes(b),
        })
    }

    /// Read an aligned double-precision float.
    pub fn read_double(&mut self) -> WireResult<f64> {
        self.align(8)?;
        let b: [u8; 8] = self.take(8)?.try_into().expect("take returned 8 bytes");
        Ok(match self.order {
            ByteOrder::BigEndian => f64::from_be_bytes(b),
            ByteOrder::LittleEndian => f64::from_le_bytes(b),
        })
    }

    /// Read a CDR string (length includes trailing NUL, which is checked
    /// and stripped).
    pub fn read_string(&mut self) -> WireResult<String> {
        self.read_str().map(str::to_owned)
    }

    /// Read a CDR string as a slice of the buffer, without copying it.
    pub fn read_str(&mut self) -> WireResult<&'a str> {
        let len = self.read_ulong_seq_len()? as usize;
        if len == 0 {
            // Some encoders emit length 0 for an empty string instead of
            // length 1 + NUL; accept both.
            return Ok("");
        }
        let bytes = self.take(len)?;
        let (body, nul) = bytes.split_at(len - 1);
        if nul != [0] {
            return Err(WireError::BadTag {
                context: "string terminator",
                tag: nul[0] as u32,
            });
        }
        std::str::from_utf8(body).map_err(|_| WireError::InvalidUtf8)
    }

    /// Read a `sequence<octet>`.
    pub fn read_octets(&mut self) -> WireResult<Vec<u8>> {
        let len = self.read_ulong_seq_len()? as usize;
        Ok(self.take(len)?.to_vec())
    }
}

/// Helper namespace for defensive size checking on sequence lengths.
struct ByteLimit;

impl ByteLimit {
    fn check_seq(v: u32) -> WireResult<u32> {
        if v > MAX_MESSAGE_SIZE {
            Err(WireError::TooLarge {
                declared: v as u64,
                limit: MAX_MESSAGE_SIZE as u64,
            })
        } else {
            Ok(v)
        }
    }
}

impl<'a> CdrReader<'a> {
    /// Read a sequence length, enforcing the defensive size limit so a
    /// corrupt header cannot trigger an unbounded allocation.
    fn read_ulong_seq_len(&mut self) -> WireResult<u32> {
        let v = self.read_ulong()?;
        ByteLimit::check_seq(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(order: ByteOrder) {
        let mut w = CdrWriter::new(order);
        w.write_octet(7);
        w.write_bool(true);
        w.write_short(-42);
        w.write_ushort(42);
        w.write_long(-70000);
        w.write_ulong(70000);
        w.write_longlong(-1 << 40);
        w.write_ulonglong(1 << 40);
        w.write_float(1.5);
        w.write_double(-2.25);
        w.write_string("hello webfindit").unwrap();
        w.write_octets(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = CdrReader::new(&bytes, order);
        assert_eq!(r.read_octet().unwrap(), 7);
        assert!(r.read_bool().unwrap());
        assert_eq!(r.read_short().unwrap(), -42);
        assert_eq!(r.read_ushort().unwrap(), 42);
        assert_eq!(r.read_long().unwrap(), -70000);
        assert_eq!(r.read_ulong().unwrap(), 70000);
        assert_eq!(r.read_longlong().unwrap(), -1 << 40);
        assert_eq!(r.read_ulonglong().unwrap(), 1 << 40);
        assert_eq!(r.read_float().unwrap(), 1.5);
        assert_eq!(r.read_double().unwrap(), -2.25);
        assert_eq!(r.read_string().unwrap(), "hello webfindit");
        assert_eq!(r.read_octets().unwrap(), vec![1, 2, 3]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn roundtrip_big_endian() {
        roundtrip(ByteOrder::BigEndian);
    }

    #[test]
    fn roundtrip_little_endian() {
        roundtrip(ByteOrder::LittleEndian);
    }

    #[test]
    fn alignment_inserts_padding() {
        let mut w = CdrWriter::new(ByteOrder::BigEndian);
        w.write_octet(1); // pos 1
        w.write_ulong(0xAABBCCDD); // pads to 4
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 8);
        assert_eq!(&bytes[1..4], &[0, 0, 0]);
        assert_eq!(&bytes[4..8], &[0xAA, 0xBB, 0xCC, 0xDD]);
    }

    #[test]
    fn alignment_is_relative_to_buffer_start() {
        let mut w = CdrWriter::new(ByteOrder::LittleEndian);
        w.write_ushort(1); // pos 2
        w.write_double(3.0); // must pad to 8
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 16);
        let mut r = CdrReader::new(&bytes, ByteOrder::LittleEndian);
        assert_eq!(r.read_ushort().unwrap(), 1);
        assert_eq!(r.read_double().unwrap(), 3.0);
    }

    #[test]
    fn frame_writer_aligns_relative_to_body_start() {
        // A frame writer reserves 12 preamble bytes; CDR alignment must
        // be measured from the body start, not the buffer start, or
        // 8-aligned primitives land off by four.
        let mut w = CdrWriter::frame(ByteOrder::BigEndian, Vec::new());
        w.write_octet(1); // body pos 1
        w.write_double(2.5); // pads to body pos 8
        assert_eq!(w.len(), 16);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 12 + 16);
        assert_eq!(&bytes[..12], &[0u8; 12]);
        let mut r = CdrReader::new(&bytes[12..], ByteOrder::BigEndian);
        assert_eq!(r.read_octet().unwrap(), 1);
        assert_eq!(r.read_double().unwrap(), 2.5);
    }

    #[test]
    fn a_patched_ulong_is_the_written_one() {
        for order in [ByteOrder::BigEndian, ByteOrder::LittleEndian] {
            let mut reserved = CdrWriter::frame(order, Vec::new());
            let mut written = CdrWriter::frame(order, Vec::new());
            for w in [&mut reserved, &mut written] {
                w.write_octet(9);
            }
            let at = reserved.reserve_ulong();
            reserved.write_octet(1);
            reserved.patch_ulong(at, 0xDEAD_BEEF);
            written.write_ulong(0xDEAD_BEEF);
            written.write_octet(1);
            assert_eq!(reserved.into_bytes(), written.into_bytes(), "{order:?}");
        }
    }

    #[test]
    fn new_in_reuses_and_clears_storage() {
        let mut recycled = Vec::with_capacity(64);
        recycled.extend_from_slice(b"stale");
        let ptr = recycled.as_ptr();
        let mut w = CdrWriter::new_in(ByteOrder::LittleEndian, recycled);
        w.write_ulong(7);
        let bytes = w.into_bytes();
        assert_eq!(bytes.as_ptr(), ptr, "storage reused");
        let mut r = CdrReader::new(&bytes, ByteOrder::LittleEndian);
        assert_eq!(r.read_ulong().unwrap(), 7);
    }

    #[test]
    fn string_rejects_embedded_nul() {
        let mut w = CdrWriter::new(ByteOrder::BigEndian);
        assert!(matches!(
            w.write_string("a\0b"),
            Err(WireError::EmbeddedNul)
        ));
    }

    #[test]
    fn string_rejects_missing_terminator() {
        // length 2, bytes "ab" (no NUL) — terminator check must fire.
        let bytes = [0, 0, 0, 2, b'a', b'b'];
        let mut r = CdrReader::new(&bytes, ByteOrder::BigEndian);
        assert!(r.read_string().is_err());
    }

    #[test]
    fn string_accepts_zero_length() {
        let bytes = [0, 0, 0, 0];
        let mut r = CdrReader::new(&bytes, ByteOrder::BigEndian);
        assert_eq!(r.read_string().unwrap(), "");
    }

    #[test]
    fn truncated_read_reports_eof() {
        let bytes = [0, 0];
        let mut r = CdrReader::new(&bytes, ByteOrder::BigEndian);
        match r.read_ulong() {
            Err(WireError::UnexpectedEof { needed, remaining }) => {
                assert_eq!(needed, 4);
                assert_eq!(remaining, 2);
            }
            other => panic!("expected EOF, got {other:?}"),
        }
    }

    #[test]
    fn bad_boolean_is_rejected() {
        let bytes = [2];
        let mut r = CdrReader::new(&bytes, ByteOrder::BigEndian);
        assert!(matches!(r.read_bool(), Err(WireError::InvalidBoolean(2))));
    }

    #[test]
    fn oversized_sequence_is_rejected() {
        // length u32::MAX sequence
        let bytes = [0xFF, 0xFF, 0xFF, 0xFF];
        let mut r = CdrReader::new(&bytes, ByteOrder::BigEndian);
        assert!(matches!(r.read_octets(), Err(WireError::TooLarge { .. })));
    }

    #[test]
    fn encapsulation_roundtrip_across_orders() {
        // Outer message big-endian, inner encapsulation little-endian —
        // exactly what happens when a VisiBroker-style ORB embeds a profile
        // in an Orbix-style IOR.
        let mut w = CdrWriter::new(ByteOrder::BigEndian);
        w.write_encapsulation(ByteOrder::LittleEndian, |inner| {
            inner.write_ulong(12345);
            inner.write_string("nested")
        })
        .unwrap();
        let bytes = w.into_bytes();

        let mut r = CdrReader::new(&bytes, ByteOrder::BigEndian);
        let encap = r.read_octets().unwrap();
        let mut ir = CdrReader::for_encapsulation(&encap).unwrap();
        assert_eq!(ir.order(), ByteOrder::LittleEndian);
        assert_eq!(ir.read_ulong().unwrap(), 12345);
        assert_eq!(ir.read_string().unwrap(), "nested");
    }
}
