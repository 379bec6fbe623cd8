//! GIOP — the General Inter-ORB Protocol message set.
//!
//! GIOP defines the handful of message types two ORBs exchange over any
//! connection-oriented transport; IIOP is GIOP mapped onto TCP/IP. Each
//! message is a fixed 12-byte header (`GIOP` magic, version, flags,
//! message type, body size) followed by a CDR-encoded body.
//!
//! This module implements the full CORBA 2.0 message repertoire the paper
//! depends on:
//!
//! * `Request` / `Reply` — the RPC pair every WebFINDIT invocation rides.
//! * `LocateRequest` / `LocateReply` — "is the object here?" probes used
//!   by the ORB before committing to a connection.
//! * `CancelRequest` — abandon an outstanding request.
//! * `CloseConnection` / `MessageError` — connection management.
//! * `Fragment` — continuation frames for bodies larger than one message.

use crate::bufpool::{BufPool, PooledBuf};
use crate::cdr::{ByteOrder, CdrReader, CdrWriter};
use crate::value::Value;
use crate::{WireError, WireResult, MAX_MESSAGE_SIZE};
use std::borrow::Cow;
use std::sync::Arc;

/// Body size above which the reactor streams a reply as an initial
/// frame plus `Fragment` continuations instead of one giant message.
///
/// Well under [`MAX_MESSAGE_SIZE`]: a peer enforcing the defensive
/// limit never sees a single frame approach it, and the sending side's
/// write queue interleaves at chunk granularity.
pub const FRAGMENT_BODY_SIZE: usize = 64 * 1024;

/// The 4 magic octets that open every GIOP message.
pub const GIOP_MAGIC: [u8; 4] = *b"GIOP";

/// GIOP header flag bit: body is little-endian.
const FLAG_LITTLE_ENDIAN: u8 = 0x01;
/// GIOP header flag bit: more fragments follow.
const FLAG_MORE_FRAGMENTS: u8 = 0x02;

/// GIOP message kinds (the `message_type` octet of the header).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MessageKind {
    /// Client-to-server operation invocation.
    Request = 0,
    /// Server-to-client result.
    Reply = 1,
    /// Abandon an outstanding request.
    CancelRequest = 2,
    /// Probe for object location.
    LocateRequest = 3,
    /// Answer to a locate probe.
    LocateReply = 4,
    /// Orderly connection shutdown.
    CloseConnection = 5,
    /// The peer sent something unintelligible.
    MessageError = 6,
    /// Continuation of a fragmented message.
    Fragment = 7,
}

impl MessageKind {
    /// Parse the header octet.
    pub fn from_u8(v: u8) -> WireResult<MessageKind> {
        Ok(match v {
            0 => MessageKind::Request,
            1 => MessageKind::Reply,
            2 => MessageKind::CancelRequest,
            3 => MessageKind::LocateRequest,
            4 => MessageKind::LocateReply,
            5 => MessageKind::CloseConnection,
            6 => MessageKind::MessageError,
            7 => MessageKind::Fragment,
            other => {
                return Err(WireError::BadTag {
                    context: "GIOP message type",
                    tag: other as u32,
                })
            }
        })
    }
}

/// The fixed 12-byte GIOP message header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GiopHeader {
    /// Protocol major version (1).
    pub version_major: u8,
    /// Protocol minor version (0 or 2).
    pub version_minor: u8,
    /// Body byte order.
    pub order: ByteOrder,
    /// More fragments follow this message.
    pub more_fragments: bool,
    /// Kind of message in the body.
    pub kind: MessageKind,
    /// Body size in bytes (excludes this header).
    pub body_size: u32,
}

impl GiopHeader {
    /// Serialize to the 12-byte wire form.
    pub fn to_bytes(&self) -> [u8; 12] {
        let mut flags = 0u8;
        if self.order == ByteOrder::LittleEndian {
            flags |= FLAG_LITTLE_ENDIAN;
        }
        if self.more_fragments {
            flags |= FLAG_MORE_FRAGMENTS;
        }
        let size = match self.order {
            ByteOrder::BigEndian => self.body_size.to_be_bytes(),
            ByteOrder::LittleEndian => self.body_size.to_le_bytes(),
        };
        [
            GIOP_MAGIC[0],
            GIOP_MAGIC[1],
            GIOP_MAGIC[2],
            GIOP_MAGIC[3],
            self.version_major,
            self.version_minor,
            flags,
            self.kind as u8,
            size[0],
            size[1],
            size[2],
            size[3],
        ]
    }

    /// Parse the 12-byte wire form, validating magic, version, and the
    /// defensive body-size limit.
    pub fn from_bytes(b: &[u8; 12]) -> WireResult<GiopHeader> {
        if b[0..4] != GIOP_MAGIC {
            return Err(WireError::BadMagic([b[0], b[1], b[2], b[3]]));
        }
        let (major, minor) = (b[4], b[5]);
        if major != 1 || minor > 2 {
            return Err(WireError::UnsupportedVersion { major, minor });
        }
        let flags = b[6];
        let order = if flags & FLAG_LITTLE_ENDIAN != 0 {
            ByteOrder::LittleEndian
        } else {
            ByteOrder::BigEndian
        };
        let kind = MessageKind::from_u8(b[7])?;
        let size_bytes = [b[8], b[9], b[10], b[11]];
        let body_size = match order {
            ByteOrder::BigEndian => u32::from_be_bytes(size_bytes),
            ByteOrder::LittleEndian => u32::from_le_bytes(size_bytes),
        };
        if body_size > MAX_MESSAGE_SIZE {
            return Err(WireError::TooLarge {
                declared: body_size as u64,
                limit: MAX_MESSAGE_SIZE as u64,
            });
        }
        Ok(GiopHeader {
            version_major: major,
            version_minor: minor,
            order,
            more_fragments: flags & FLAG_MORE_FRAGMENTS != 0,
            kind,
            body_size,
        })
    }
}

/// A service-context entry: out-of-band data piggybacked on requests and
/// replies (transaction ids, codeset negotiation, tracing ids...).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceContext {
    /// Numeric context id.
    pub context_id: u32,
    /// Opaque context payload.
    pub data: Vec<u8>,
}

fn encode_service_contexts(w: &mut CdrWriter, ctxs: &[ServiceContext]) {
    w.write_ulong(ctxs.len() as u32);
    for c in ctxs {
        w.write_ulong(c.context_id);
        w.write_octets(&c.data);
    }
}

fn decode_service_contexts(r: &mut CdrReader<'_>) -> WireResult<Vec<ServiceContext>> {
    let n = r.read_ulong()? as usize;
    if n > r.remaining() {
        return Err(WireError::TooLarge {
            declared: n as u64,
            limit: r.remaining() as u64,
        });
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let context_id = r.read_ulong()?;
        let data = r.read_octets()?;
        out.push(ServiceContext { context_id, data });
    }
    Ok(out)
}

fn write_reply_head(
    w: &mut CdrWriter,
    service_contexts: &[ServiceContext],
    request_id: u32,
    status: ReplyStatus,
) {
    encode_service_contexts(w, service_contexts);
    w.write_ulong(request_id);
    w.write_ulong(status as u32);
}

/// Patch the 12-byte GIOP header into a frame writer's preamble once the
/// body is complete, refusing a body over [`MAX_MESSAGE_SIZE`].
fn seal(body: CdrWriter, kind: MessageKind, more_fragments: bool) -> WireResult<Vec<u8>> {
    let body_len = body.len();
    if body_len as u64 > MAX_MESSAGE_SIZE as u64 {
        return Err(WireError::TooLarge {
            declared: body_len as u64,
            limit: MAX_MESSAGE_SIZE as u64,
        });
    }
    let header = GiopHeader {
        version_major: 1,
        version_minor: 2,
        order: body.order(),
        more_fragments,
        kind,
        body_size: body_len as u32,
    };
    let mut frame = body.into_bytes();
    frame[..12].copy_from_slice(&header.to_bytes());
    Ok(frame)
}

/// Open the frame of a successful Reply to `request_id` over `buf`
/// (recycled storage welcome): the header preamble and the Reply head
/// are written, and the result goes after them, straight from whatever
/// holds it. [`finish_reply`] closes the frame. The bytes are those
/// [`reply_ok`] would encode for the same result.
pub fn reply_frame(order: ByteOrder, buf: Vec<u8>, request_id: u32) -> CdrWriter {
    let mut w = CdrWriter::frame(order, buf);
    write_reply_head(&mut w, &[], request_id, ReplyStatus::NoException);
    w
}

/// Close a frame [`reply_frame`] opened: patch in its GIOP header.
pub fn finish_reply(body: CdrWriter) -> WireResult<Vec<u8>> {
    seal(body, MessageKind::Reply, false)
}

/// A complete message as a caller's channel routes it: a Reply by its
/// head, its result still bytes, and anything else decoded.
#[derive(Debug, Clone)]
pub enum Routed {
    /// A Reply, its result not yet decoded.
    Reply(RawReply),
    /// Any other message, decoded.
    Other(GiopMessage),
}

impl Routed {
    /// Route a whole unfragmented frame (12-byte header + body).
    pub fn from_frame(frame: &[u8]) -> WireResult<Routed> {
        let header = frame_header(frame)?;
        check_body(&header, &frame[12..])?;
        Routed::new(header, Cow::Borrowed(&frame[12..]))
    }

    /// Decode what a caller routes by: a Reply's head only, leaving its
    /// result for the caller's own decoder; any other message whole.
    fn new(header: GiopHeader, body: Cow<'_, [u8]>) -> WireResult<Routed> {
        if header.kind != MessageKind::Reply {
            return GiopMessage::decode(&header, &body).map(Routed::Other);
        }
        let mut r = CdrReader::new(&body, header.order);
        decode_service_contexts(&mut r)?;
        let request_id = r.read_ulong()?;
        let status = ReplyStatus::from_u32(r.read_ulong()?)?;
        let payload_at = r.position();
        Ok(Routed::Reply(RawReply {
            request_id,
            status,
            order: header.order,
            body: body.into_owned(),
            payload_at,
        }))
    }

    /// The message kind.
    pub fn kind(&self) -> MessageKind {
        match self {
            Routed::Reply(_) => MessageKind::Reply,
            Routed::Other(msg) => msg.kind(),
        }
    }
}

/// A GIOP Reply with its head decoded and its result left as bytes.
#[derive(Debug, Clone)]
pub struct RawReply {
    /// Matches the originating request.
    pub request_id: u32,
    /// Outcome class.
    pub status: ReplyStatus,
    order: ByteOrder,
    /// The whole GIOP body: CDR alignment counts from its start.
    body: Vec<u8>,
    /// Where the result starts in the body.
    payload_at: usize,
}

impl RawReply {
    /// A reader at the start of the result, aligned as the sender wrote
    /// it: from the start of the GIOP body.
    pub fn payload(&self) -> CdrReader<'_> {
        CdrReader::at(&self.body, self.payload_at, self.order)
    }

    /// The result as a [`Value`].
    pub fn value(&self) -> WireResult<Value> {
        Value::decode(&mut self.payload())
    }
}

/// Parse the 12-byte header that opens `frame`.
fn frame_header(frame: &[u8]) -> WireResult<GiopHeader> {
    if frame.len() < 12 {
        return Err(WireError::UnexpectedEof {
            needed: 12,
            remaining: frame.len(),
        });
    }
    let mut hdr = [0u8; 12];
    hdr.copy_from_slice(&frame[..12]);
    GiopHeader::from_bytes(&hdr)
}

/// A body must be exactly as long as its header says.
fn check_body(header: &GiopHeader, body: &[u8]) -> WireResult<()> {
    if body.len() != header.body_size as usize {
        return Err(WireError::UnexpectedEof {
            needed: header.body_size as usize,
            remaining: body.len(),
        });
    }
    Ok(())
}

/// GIOP Request header plus a dynamically-typed argument list as body.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestHeader {
    /// Piggybacked service contexts.
    pub service_contexts: Vec<ServiceContext>,
    /// Correlates the eventual Reply with this Request.
    pub request_id: u32,
    /// False for `oneway` operations: no Reply will be sent.
    pub response_expected: bool,
    /// Object key from the target IOR's IIOP profile.
    pub object_key: Vec<u8>,
    /// Operation name, e.g. `"execute_query"`.
    pub operation: String,
}

/// Status of a GIOP Reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum ReplyStatus {
    /// Operation completed; body holds the result.
    NoException = 0,
    /// Operation raised a declared (user) exception; body describes it.
    UserException = 1,
    /// The ORB or servant failed; body describes the system exception.
    SystemException = 2,
    /// The object lives elsewhere; body holds the forwarding IOR.
    LocationForward = 3,
}

impl ReplyStatus {
    fn from_u32(v: u32) -> WireResult<ReplyStatus> {
        Ok(match v {
            0 => ReplyStatus::NoException,
            1 => ReplyStatus::UserException,
            2 => ReplyStatus::SystemException,
            3 => ReplyStatus::LocationForward,
            other => {
                return Err(WireError::BadTag {
                    context: "reply status",
                    tag: other,
                })
            }
        })
    }
}

/// Status of a GIOP LocateReply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum LocateStatus {
    /// The target ORB has never heard of this object key.
    UnknownObject = 0,
    /// The object is served at this endpoint.
    ObjectHere = 1,
    /// The object is served elsewhere; body carries the forwarding IOR.
    ObjectForward = 2,
}

impl LocateStatus {
    fn from_u32(v: u32) -> WireResult<LocateStatus> {
        Ok(match v {
            0 => LocateStatus::UnknownObject,
            1 => LocateStatus::ObjectHere,
            2 => LocateStatus::ObjectForward,
            other => {
                return Err(WireError::BadTag {
                    context: "locate status",
                    tag: other,
                })
            }
        })
    }
}

/// A fully-decoded GIOP message.
#[derive(Debug, Clone, PartialEq)]
pub enum GiopMessage {
    /// Operation invocation with self-describing arguments.
    Request {
        /// Request header.
        header: RequestHeader,
        /// Operation arguments.
        args: Vec<Value>,
    },
    /// Invocation result.
    Reply {
        /// Service contexts echoed or added by the server.
        service_contexts: Vec<ServiceContext>,
        /// Matches the originating request.
        request_id: u32,
        /// Outcome class.
        status: ReplyStatus,
        /// Result (for `NoException`), exception descriptor, or forward IOR.
        body: Value,
    },
    /// Abandon the request with this id.
    CancelRequest {
        /// Id of the request to abandon.
        request_id: u32,
    },
    /// Probe whether `object_key` is served here.
    LocateRequest {
        /// Correlates with the LocateReply.
        request_id: u32,
        /// Key to probe.
        object_key: Vec<u8>,
    },
    /// Answer to a locate probe.
    LocateReply {
        /// Matches the LocateRequest.
        request_id: u32,
        /// Probe outcome.
        status: LocateStatus,
        /// Forwarding reference when `status == ObjectForward`.
        forward: Option<crate::ior::Ior>,
    },
    /// Orderly shutdown notice.
    CloseConnection,
    /// Protocol error notice.
    MessageError,
    /// A continuation fragment (opaque payload).
    Fragment {
        /// Raw fragment bytes.
        data: Vec<u8>,
        /// Whether more fragments follow.
        more: bool,
    },
}

impl GiopMessage {
    /// The message kind this variant maps to on the wire.
    pub fn kind(&self) -> MessageKind {
        match self {
            GiopMessage::Request { .. } => MessageKind::Request,
            GiopMessage::Reply { .. } => MessageKind::Reply,
            GiopMessage::CancelRequest { .. } => MessageKind::CancelRequest,
            GiopMessage::LocateRequest { .. } => MessageKind::LocateRequest,
            GiopMessage::LocateReply { .. } => MessageKind::LocateReply,
            GiopMessage::CloseConnection => MessageKind::CloseConnection,
            GiopMessage::MessageError => MessageKind::MessageError,
            GiopMessage::Fragment { .. } => MessageKind::Fragment,
        }
    }

    /// Encode header + body into a single wire frame.
    pub fn encode(&self, order: ByteOrder) -> WireResult<Vec<u8>> {
        self.encode_into(order, Vec::with_capacity(128))
    }

    /// Encode into pool storage; the frame returns to the pool on drop.
    pub fn encode_pooled(&self, order: ByteOrder, pool: &Arc<BufPool>) -> WireResult<PooledBuf> {
        Ok(PooledBuf::new(
            self.encode_into(order, pool.take())?,
            Arc::clone(pool),
        ))
    }

    /// Encode header + body into `buf` (recycled storage welcome): the
    /// 12-byte header and the CDR body share one buffer, written in a
    /// single pass — the header is patched in place once the body size
    /// is known, so there is no separate body allocation or assembly
    /// copy per message.
    pub fn encode_into(&self, order: ByteOrder, buf: Vec<u8>) -> WireResult<Vec<u8>> {
        let mut body = CdrWriter::frame(order, buf);
        let mut more_fragments = false;
        match self {
            GiopMessage::Request { header, args } => {
                encode_service_contexts(&mut body, &header.service_contexts);
                body.write_ulong(header.request_id);
                body.write_bool(header.response_expected);
                body.write_octets(&header.object_key);
                body.write_string(&header.operation)?;
                // requesting_principal: deprecated, always empty.
                body.write_octets(&[]);
                body.write_ulong(args.len() as u32);
                for a in args {
                    a.encode(&mut body)?;
                }
            }
            GiopMessage::Reply {
                service_contexts,
                request_id,
                status,
                body: payload,
            } => {
                write_reply_head(&mut body, service_contexts, *request_id, *status);
                payload.encode(&mut body)?;
            }
            GiopMessage::CancelRequest { request_id } => {
                body.write_ulong(*request_id);
            }
            GiopMessage::LocateRequest {
                request_id,
                object_key,
            } => {
                body.write_ulong(*request_id);
                body.write_octets(object_key);
            }
            GiopMessage::LocateReply {
                request_id,
                status,
                forward,
            } => {
                body.write_ulong(*request_id);
                body.write_ulong(*status as u32);
                if let Some(ior) = forward {
                    ior.encode(&mut body)?;
                }
            }
            GiopMessage::CloseConnection | GiopMessage::MessageError => {}
            GiopMessage::Fragment { data, more } => {
                more_fragments = *more;
                body.write_raw(data);
            }
        }
        seal(body, self.kind(), more_fragments)
    }

    /// Decode a message given its already-parsed header and body bytes.
    pub fn decode(header: &GiopHeader, body: &[u8]) -> WireResult<GiopMessage> {
        check_body(header, body)?;
        let mut r = CdrReader::new(body, header.order);
        Ok(match header.kind {
            MessageKind::Request => {
                let service_contexts = decode_service_contexts(&mut r)?;
                let request_id = r.read_ulong()?;
                let response_expected = r.read_bool()?;
                let object_key = r.read_octets()?;
                let operation = r.read_string()?;
                let _principal = r.read_octets()?;
                let n = r.read_ulong()? as usize;
                if n > r.remaining() {
                    return Err(WireError::TooLarge {
                        declared: n as u64,
                        limit: r.remaining() as u64,
                    });
                }
                let mut args = Vec::with_capacity(n);
                for _ in 0..n {
                    args.push(Value::decode(&mut r)?);
                }
                GiopMessage::Request {
                    header: RequestHeader {
                        service_contexts,
                        request_id,
                        response_expected,
                        object_key,
                        operation,
                    },
                    args,
                }
            }
            MessageKind::Reply => {
                let service_contexts = decode_service_contexts(&mut r)?;
                let request_id = r.read_ulong()?;
                let status = ReplyStatus::from_u32(r.read_ulong()?)?;
                let body = Value::decode(&mut r)?;
                GiopMessage::Reply {
                    service_contexts,
                    request_id,
                    status,
                    body,
                }
            }
            MessageKind::CancelRequest => GiopMessage::CancelRequest {
                request_id: r.read_ulong()?,
            },
            MessageKind::LocateRequest => GiopMessage::LocateRequest {
                request_id: r.read_ulong()?,
                object_key: r.read_octets()?,
            },
            MessageKind::LocateReply => {
                let request_id = r.read_ulong()?;
                let status = LocateStatus::from_u32(r.read_ulong()?)?;
                let forward = if status == LocateStatus::ObjectForward {
                    Some(crate::ior::Ior::decode(&mut r)?)
                } else {
                    None
                };
                GiopMessage::LocateReply {
                    request_id,
                    status,
                    forward,
                }
            }
            MessageKind::CloseConnection => GiopMessage::CloseConnection,
            MessageKind::MessageError => GiopMessage::MessageError,
            MessageKind::Fragment => GiopMessage::Fragment {
                data: body.to_vec(),
                more: header.more_fragments,
            },
        })
    }

    /// Decode a complete frame (12-byte header + body).
    pub fn decode_frame(frame: &[u8]) -> WireResult<GiopMessage> {
        GiopMessage::decode(&frame_header(frame)?, &frame[12..])
    }
}

/// Split a complete encoded frame into a fragment train: the original
/// header (flagged `more_fragments`) over the first `max_body` bytes of
/// body, followed by `Fragment` frames carrying the rest, the last one
/// with the flag clear. Frames whose body already fits return as a
/// single (repooled) frame.
///
/// Chunk frames draw their storage from `pool`, so a multi-megabyte
/// reply streams through a handful of recycled `max_body`-sized buffers
/// instead of pinning one giant allocation per message.
pub fn split_into_fragments(
    frame: &[u8],
    max_body: usize,
    pool: &Arc<BufPool>,
) -> WireResult<Vec<PooledBuf>> {
    let mut header = frame_header(frame)?;
    let max_body = max_body.max(1);
    let body = &frame[12..];
    let mut chunks = body.chunks(max_body);
    let first = chunks.next().unwrap_or(&[]);
    let rest: Vec<&[u8]> = chunks.collect();

    let mut out = Vec::with_capacity(1 + rest.len());
    header.more_fragments = !rest.is_empty();
    header.body_size = first.len() as u32;
    let mut lead = pool.take();
    lead.extend_from_slice(&header.to_bytes());
    lead.extend_from_slice(first);
    out.push(PooledBuf::new(lead, Arc::clone(pool)));

    for (i, chunk) in rest.iter().enumerate() {
        let cont = GiopHeader {
            kind: MessageKind::Fragment,
            more_fragments: i + 1 < rest.len(),
            body_size: chunk.len() as u32,
            ..header
        };
        let mut buf = pool.take();
        buf.extend_from_slice(&cont.to_bytes());
        buf.extend_from_slice(chunk);
        out.push(PooledBuf::new(buf, Arc::clone(pool)));
    }
    Ok(out)
}

/// Receive-side reassembly of fragment trains.
///
/// Feed every raw frame arriving on one connection through
/// [`FragmentAssembler::push_frame`], which decodes each complete
/// message, or through [`FragmentAssembler::push_raw`], which leaves
/// the body as bytes. An unfragmented message completes at once, while
/// an initial frame flagged `more_fragments` opens an accumulation that
/// completes on the final `Fragment`. Our framing never interleaves
/// trains on one connection (the sender enqueues a whole train
/// atomically), so a non-`Fragment` frame arriving mid-train — or a
/// `Fragment` with no train open — is a protocol error, not a
/// reordering to tolerate.
#[derive(Debug, Default)]
pub struct FragmentAssembler {
    initial: Option<GiopHeader>,
    body: Vec<u8>,
}

impl FragmentAssembler {
    /// A fresh assembler with no train in progress.
    pub fn new() -> Self {
        FragmentAssembler::default()
    }

    /// True while an initial frame awaits its continuation fragments.
    pub fn in_progress(&self) -> bool {
        self.initial.is_some()
    }

    /// Abandon any partial accumulation.
    pub fn reset(&mut self) {
        self.initial = None;
        self.body.clear();
    }

    /// Feed one complete raw frame (header + body). Returns the decoded
    /// message when one is complete, `None` while mid-train.
    pub fn push_frame(&mut self, frame: &[u8]) -> WireResult<Option<GiopMessage>> {
        match self.accept(frame)? {
            Some((header, body)) => GiopMessage::decode(&header, &body).map(Some),
            None => Ok(None),
        }
    }

    /// [`FragmentAssembler::push_frame`] in raw mode: a complete message
    /// comes back routed, a Reply's result undecoded.
    pub fn push_raw(&mut self, frame: &[u8]) -> WireResult<Option<Routed>> {
        match self.accept(frame)? {
            Some((header, body)) => Routed::new(header, body).map(Some),
            None => Ok(None),
        }
    }

    /// Take in one frame; a complete message comes back as its header
    /// and body: the frame's own, or a train's joined body.
    fn accept<'f>(&mut self, frame: &'f [u8]) -> WireResult<Option<(GiopHeader, Cow<'f, [u8]>)>> {
        let header = frame_header(frame)?;
        let body = &frame[12..];
        check_body(&header, body)?;
        match (self.initial.is_some(), header.kind) {
            (false, MessageKind::Fragment) => Err(WireError::BadTag {
                context: "GIOP Fragment with no message in progress",
                tag: header.kind as u32,
            }),
            (false, _) if header.more_fragments => {
                self.body.clear();
                self.body.extend_from_slice(body);
                self.initial = Some(header);
                Ok(None)
            }
            (false, _) => Ok(Some((header, Cow::Borrowed(body)))),
            (true, MessageKind::Fragment) => {
                if self.body.len() + body.len() > MAX_MESSAGE_SIZE as usize {
                    self.reset();
                    return Err(WireError::TooLarge {
                        declared: (self.body.len() + body.len()) as u64,
                        limit: MAX_MESSAGE_SIZE as u64,
                    });
                }
                self.body.extend_from_slice(body);
                if header.more_fragments {
                    Ok(None)
                } else {
                    let mut initial = self.initial.take().expect("train in progress");
                    initial.more_fragments = false;
                    initial.body_size = self.body.len() as u32;
                    Ok(Some((initial, Cow::Owned(std::mem::take(&mut self.body)))))
                }
            }
            (true, other) => {
                self.reset();
                Err(WireError::BadTag {
                    context: "non-Fragment frame interrupting a fragment train",
                    tag: other as u32,
                })
            }
        }
    }
}

/// Convenience: build a Request message.
pub fn request(
    request_id: u32,
    object_key: impl Into<Vec<u8>>,
    operation: impl Into<String>,
    args: Vec<Value>,
) -> GiopMessage {
    GiopMessage::Request {
        header: RequestHeader {
            service_contexts: Vec::new(),
            request_id,
            response_expected: true,
            object_key: object_key.into(),
            operation: operation.into(),
        },
        args,
    }
}

/// Convenience: build a successful Reply.
pub fn reply_ok(request_id: u32, body: Value) -> GiopMessage {
    GiopMessage::Reply {
        service_contexts: Vec::new(),
        request_id,
        status: ReplyStatus::NoException,
        body,
    }
}

/// Convenience: build an exception Reply. `system` selects between a
/// system exception and a user exception.
pub fn reply_exception(request_id: u32, system: bool, description: &str) -> GiopMessage {
    GiopMessage::Reply {
        service_contexts: Vec::new(),
        request_id,
        status: if system {
            ReplyStatus::SystemException
        } else {
            ReplyStatus::UserException
        },
        body: Value::record([("exception", Value::string(description))]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ior::Ior;

    fn roundtrip(msg: &GiopMessage, order: ByteOrder) -> GiopMessage {
        let frame = msg.encode(order).unwrap();
        GiopMessage::decode_frame(&frame).unwrap()
    }

    #[test]
    fn request_roundtrip_both_orders() {
        let msg = request(
            7,
            b"codb/RBH".to_vec(),
            "find_coalitions",
            vec![Value::string("Medical Research"), Value::Long(3)],
        );
        for order in [ByteOrder::BigEndian, ByteOrder::LittleEndian] {
            assert_eq!(roundtrip(&msg, order), msg);
        }
    }

    #[test]
    fn reply_roundtrip() {
        let msg = reply_ok(
            7,
            Value::Sequence(vec![Value::string("Research"), Value::string("Medical")]),
        );
        assert_eq!(roundtrip(&msg, ByteOrder::LittleEndian), msg);
    }

    /// A result written into its reply frame is the `reply_ok` frame,
    /// and routing by the head leaves exactly that result to decode,
    /// whole or reassembled from a fragment train.
    #[test]
    fn a_reply_written_into_its_frame_routes_by_its_head() {
        let result = Value::record([("n", Value::Long(7)), ("s", Value::string("x"))]);
        for order in [ByteOrder::BigEndian, ByteOrder::LittleEndian] {
            let mut w = reply_frame(order, Vec::new(), 42);
            result.encode(&mut w).unwrap();
            let frame = finish_reply(w).unwrap();
            assert_eq!(frame, reply_ok(42, result.clone()).encode(order).unwrap());

            let pool = BufPool::shared();
            let mut asm = FragmentAssembler::new();
            let train = split_into_fragments(&frame, 8, &pool).unwrap();
            let reassembled = train.iter().find_map(|f| asm.push_raw(f).unwrap());
            for routed in [Routed::from_frame(&frame).unwrap(), reassembled.unwrap()] {
                match routed {
                    Routed::Reply(reply) => {
                        assert_eq!(reply.request_id, 42);
                        assert_eq!(reply.status, ReplyStatus::NoException);
                        assert_eq!(reply.value().unwrap(), result);
                    }
                    Routed::Other(other) => panic!("routed as {:?}", other.kind()),
                }
            }
        }
    }

    #[test]
    fn exception_reply_carries_description() {
        let msg = reply_exception(9, true, "OBJECT_NOT_EXIST");
        match roundtrip(&msg, ByteOrder::BigEndian) {
            GiopMessage::Reply { status, body, .. } => {
                assert_eq!(status, ReplyStatus::SystemException);
                assert_eq!(
                    body.field("exception").and_then(Value::as_str),
                    Some("OBJECT_NOT_EXIST")
                );
            }
            other => panic!("expected Reply, got {other:?}"),
        }
    }

    #[test]
    fn locate_pair_roundtrip() {
        let req = GiopMessage::LocateRequest {
            request_id: 11,
            object_key: b"isi/Medicare".to_vec(),
        };
        assert_eq!(roundtrip(&req, ByteOrder::BigEndian), req);

        let fwd = GiopMessage::LocateReply {
            request_id: 11,
            status: LocateStatus::ObjectForward,
            forward: Some(Ior::new_iiop("IDL:X:1.0", "elsewhere", 9000, b"k".to_vec())),
        };
        assert_eq!(roundtrip(&fwd, ByteOrder::LittleEndian), fwd);

        let here = GiopMessage::LocateReply {
            request_id: 12,
            status: LocateStatus::ObjectHere,
            forward: None,
        };
        assert_eq!(roundtrip(&here, ByteOrder::BigEndian), here);
    }

    #[test]
    fn control_messages_roundtrip() {
        for msg in [
            GiopMessage::CloseConnection,
            GiopMessage::MessageError,
            GiopMessage::CancelRequest { request_id: 3 },
        ] {
            assert_eq!(roundtrip(&msg, ByteOrder::BigEndian), msg);
        }
    }

    #[test]
    fn fragment_roundtrip_preserves_more_flag() {
        let msg = GiopMessage::Fragment {
            data: vec![9, 8, 7],
            more: true,
        };
        assert_eq!(roundtrip(&msg, ByteOrder::BigEndian), msg);
    }

    #[test]
    fn bad_magic_rejected() {
        let msg = reply_ok(1, Value::Void);
        let mut frame = msg.encode(ByteOrder::BigEndian).unwrap();
        frame[0] = b'X';
        assert!(matches!(
            GiopMessage::decode_frame(&frame),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn future_version_rejected() {
        let msg = reply_ok(1, Value::Void);
        let mut frame = msg.encode(ByteOrder::BigEndian).unwrap();
        frame[4] = 2; // GIOP 2.x does not exist
        assert!(matches!(
            GiopMessage::decode_frame(&frame),
            Err(WireError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn truncated_body_rejected() {
        let msg = request(1, b"k".to_vec(), "op", vec![Value::Long(1)]);
        let frame = msg.encode(ByteOrder::BigEndian).unwrap();
        assert!(GiopMessage::decode_frame(&frame[..frame.len() - 2]).is_err());
    }

    #[test]
    fn header_size_limit_enforced() {
        let mut hdr = GiopHeader {
            version_major: 1,
            version_minor: 2,
            order: ByteOrder::BigEndian,
            more_fragments: false,
            kind: MessageKind::Request,
            body_size: MAX_MESSAGE_SIZE + 1,
        }
        .to_bytes();
        assert!(matches!(
            GiopHeader::from_bytes(&{
                let mut b = [0u8; 12];
                b.copy_from_slice(&hdr);
                b
            }),
            Err(WireError::TooLarge { .. })
        ));
        // Sanity: a legal size parses.
        hdr[8..12].copy_from_slice(&64u32.to_be_bytes());
        let mut b = [0u8; 12];
        b.copy_from_slice(&hdr);
        assert!(GiopHeader::from_bytes(&b).is_ok());
    }

    #[test]
    fn cross_endian_interop() {
        // A little-endian "VisiBroker" encodes; a big-endian-preferring
        // "Orbix" decodes purely from the header flag.
        let msg = request(
            99,
            b"db/Medibank".to_vec(),
            "execute_query",
            vec![Value::string("select * from members")],
        );
        let frame = msg.encode(ByteOrder::LittleEndian).unwrap();
        let decoded = GiopMessage::decode_frame(&frame).unwrap();
        assert_eq!(decoded, msg);
    }
}
