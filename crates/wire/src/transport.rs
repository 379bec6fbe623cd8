//! Framed byte transports for GIOP.
//!
//! GIOP is transport-agnostic; IIOP is its mapping to TCP. WebFINDIT's
//! three ORBs talk IIOP over real sockets, so this module provides:
//!
//! * [`FramedTcp`] — GIOP framing over a `TcpStream` (the genuine IIOP
//!   path used by the multi-ORB integration tests and benches);
//! * [`PipeTransport`] — an in-process duplex pipe with identical framing
//!   semantics, for fast deterministic tests and single-process
//!   deployments;
//! * [`FaultyTransport`] — a wrapper that injects truncation and
//!   corruption faults, used by the failure-injection tests.
//!
//! All transports move whole frames: a 12-byte GIOP header followed by
//! exactly `body_size` bytes.

use crate::bufpool::FrameBuf;
use crate::giop::{GiopHeader, GiopMessage};
use crate::poll::{poll_fds, PollFd, POLLIN};
use crate::{WireError, WireResult};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webfindit_base::sync::{detect, Mutex};

/// A bidirectional, message-framed byte channel.
pub trait Transport: Send {
    /// Send one complete GIOP frame.
    fn send_frame(&mut self, frame: &[u8]) -> WireResult<()>;

    /// Receive one complete GIOP frame (header + body).
    fn recv_frame(&mut self) -> WireResult<Vec<u8>>;

    /// Encode and send a message in one step.
    fn send_message(&mut self, msg: &GiopMessage, order: crate::cdr::ByteOrder) -> WireResult<()> {
        let frame = msg.encode(order)?;
        self.send_frame(&frame)
    }

    /// Receive and decode a message in one step.
    fn recv_message(&mut self) -> WireResult<GiopMessage> {
        let frame = self.recv_frame()?;
        GiopMessage::decode_frame(&frame)
    }
}

/// Kinds of injected transport faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// Deliver frames untouched.
    #[default]
    None,
    /// Cut each outgoing frame to at most this many bytes.
    Truncate(usize),
    /// Overwrite the GIOP magic of outgoing frames.
    CorruptMagic,
    /// Flip the declared body size to a huge value.
    InflateSize,
    /// Drop outgoing frames entirely (the receiver sees `Closed` when the
    /// wrapper is later dropped, or blocks — callers pair this with
    /// timeouts).
    DropFrames,
    /// Hold every frame for this many milliseconds before letting it
    /// through (both directions) — simulated link latency.
    DelayMs(u64),
    /// Let this many frames through, then drop every later one (each
    /// direction counts its own frames). Simulates a link that silently
    /// starts losing traffic mid-conversation.
    DropAfter(u64),
    /// Sever the connection in the middle of the next frame: the send
    /// path writes only half the frame before closing, so the peer sees
    /// a genuine mid-frame connection loss; the receive path reports
    /// `Closed` without delivering.
    CloseMidFrame,
}

/// An [`Arc`]-shared, mutable fault setting.
///
/// The slot is shared between a transport and the chaos controller (and
/// between the reader/writer clones of one TCP connection), so a test
/// can flip the active fault on a *live* connection while traffic is in
/// flight. Cloning shares the underlying slot.
#[derive(Debug, Clone, Default)]
pub struct FaultSlot(Arc<Mutex<Fault>>);

impl FaultSlot {
    /// A slot pre-loaded with `fault`.
    pub fn new(fault: Fault) -> Self {
        FaultSlot(Arc::new(Mutex::new_labeled(fault, "wire::FaultSlot")))
    }

    /// Replace the active fault.
    pub fn set(&self, fault: Fault) {
        *self.0.lock() = fault;
    }

    /// Back to faultless delivery.
    pub fn clear(&self) {
        self.set(Fault::None);
    }

    /// The currently active fault.
    pub fn get(&self) -> Fault {
        *self.0.lock()
    }
}

/// What the fault logic decided to do with an outgoing frame.
enum SendPlan {
    /// Send these bytes.
    Send(Vec<u8>),
    /// Pretend success without sending anything.
    Swallow,
    /// Send these (partial) bytes, then sever the connection.
    SendPartThenClose(Vec<u8>),
}

/// What the fault logic decided to do with a received frame.
enum RecvPlan {
    /// Hand the frame to the caller.
    Deliver(Vec<u8>),
    /// Silently discard it and wait for the next one.
    Discard,
    /// Sever the connection instead of delivering.
    Close,
}

/// Per-transport fault bookkeeping around a shared [`FaultSlot`].
///
/// The slot is shared; the frame counters and the severed flag are per
/// transport instance, so the writer and reader halves of one TCP
/// connection count their own directions.
#[derive(Debug, Default)]
struct FaultState {
    slot: FaultSlot,
    sent: u64,
    received: u64,
    severed: bool,
}

impl FaultState {
    fn plan_send(&mut self, frame: &[u8]) -> WireResult<SendPlan> {
        if self.severed {
            return Err(WireError::Closed);
        }
        Ok(match self.slot.get() {
            Fault::None => SendPlan::Send(frame.to_vec()),
            Fault::Truncate(n) => SendPlan::Send(frame[..frame.len().min(n)].to_vec()),
            Fault::CorruptMagic => {
                let mut f = frame.to_vec();
                if f.len() >= 4 {
                    f[..4].copy_from_slice(b"POIG");
                }
                SendPlan::Send(f)
            }
            Fault::InflateSize => {
                let mut f = frame.to_vec();
                if f.len() >= 12 {
                    // Body size field at offset 8; write an absurd size in
                    // the frame's own byte order (bit 0 of flags octet).
                    let huge = (crate::MAX_MESSAGE_SIZE + 17).to_be_bytes();
                    let huge_le = (crate::MAX_MESSAGE_SIZE + 17).to_le_bytes();
                    if f[6] & 1 == 0 {
                        f[8..12].copy_from_slice(&huge);
                    } else {
                        f[8..12].copy_from_slice(&huge_le);
                    }
                }
                SendPlan::Send(f)
            }
            Fault::DropFrames => SendPlan::Swallow,
            Fault::DelayMs(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                SendPlan::Send(frame.to_vec())
            }
            Fault::DropAfter(n) => {
                self.sent += 1;
                if self.sent <= n {
                    SendPlan::Send(frame.to_vec())
                } else {
                    SendPlan::Swallow
                }
            }
            Fault::CloseMidFrame => {
                self.severed = true;
                SendPlan::SendPartThenClose(frame[..frame.len() / 2].to_vec())
            }
        })
    }

    fn plan_recv(&mut self, frame: Vec<u8>) -> WireResult<RecvPlan> {
        if self.severed {
            return Err(WireError::Closed);
        }
        Ok(match self.slot.get() {
            Fault::DelayMs(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                RecvPlan::Deliver(frame)
            }
            Fault::DropAfter(n) => {
                self.received += 1;
                if self.received <= n {
                    RecvPlan::Deliver(frame)
                } else {
                    RecvPlan::Discard
                }
            }
            Fault::CloseMidFrame => {
                self.severed = true;
                RecvPlan::Close
            }
            _ => RecvPlan::Deliver(frame),
        })
    }
}

/// GIOP framing over a TCP stream — the literal IIOP of the paper.
#[derive(Debug)]
pub struct FramedTcp {
    stream: TcpStream,
    fault: FaultState,
    /// The frame being received: the 12 header bytes, then — once the
    /// header has named the size — header and body in the one buffer
    /// the caller gets. Its length is what the frame needs so far,
    /// `filled` how much of that has arrived; both survive a
    /// [`FramedTcp::recv_frame_by`] that ran out of time, so a frame
    /// the peer delivers in pieces never desynchronizes the stream.
    partial: Vec<u8>,
    filled: usize,
}

impl FramedTcp {
    /// Wrap a connected stream.
    pub fn new(stream: TcpStream) -> Self {
        FramedTcp {
            stream,
            fault: FaultState::default(),
            partial: Vec::new(),
            filled: 0,
        }
    }

    /// Connect to `host:port` with a bounded timeout so a dead endpoint
    /// fails fast instead of hanging a discovery traversal.
    pub fn connect(host: &str, port: u16) -> WireResult<Self> {
        let addr = format!("{host}:{port}");
        let stream =
            detect::blocking_region("wire::FramedTcp::connect", || TcpStream::connect(&addr))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(FramedTcp::new(stream))
    }

    /// Clone the underlying stream (TCP streams are duplicable handles).
    /// The fault slot is shared with the clone; frame counters and the
    /// partially received frame are not, so each direction of a split
    /// connection counts its own traffic and exactly one clone reads.
    pub fn try_clone(&self) -> WireResult<Self> {
        Ok(FramedTcp {
            stream: self.stream.try_clone()?,
            fault: FaultState {
                slot: self.fault.slot.clone(),
                ..FaultState::default()
            },
            partial: Vec::new(),
            filled: 0,
        })
    }

    /// Set or clear the read timeout on the underlying stream.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> WireResult<()> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sever both directions of the underlying stream, unblocking any
    /// thread parked in `recv_frame` on a clone of this transport.
    pub fn shutdown(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// The fault slot governing this connection (shared with clones).
    pub fn fault_slot(&self) -> FaultSlot {
        self.fault.slot.clone()
    }

    /// Replace the fault slot, wiring this connection to an externally
    /// controlled slot — the chaos hook: a [`crate::transport::FaultSlot`]
    /// held by a chaos controller lets faults be flipped on the live
    /// connection at any time.
    pub fn install_fault_slot(&mut self, slot: FaultSlot) {
        self.fault.slot = slot;
    }

    /// Block until the socket has bytes to read (or the peer hung up),
    /// at most until `deadline`; `None` waits without bound. False
    /// means the deadline passed first. This is the wait itself: the
    /// caller brackets it with its own `detect::blocking_region`.
    pub fn wait_readable(&self, deadline: Option<Instant>) -> WireResult<bool> {
        let timeout_ms = match deadline {
            None => -1,
            // poll(2) counts whole milliseconds: round up, so a wait is
            // never cut short of its deadline.
            Some(at) => at
                .saturating_duration_since(Instant::now())
                .as_micros()
                .div_ceil(1000)
                .min(i32::MAX as u128) as i32,
        };
        let mut fds = [PollFd::new(self.stream.as_raw_fd(), POLLIN)];
        Ok(poll_fds(&mut fds, timeout_ms)? > 0)
    }

    /// Receive one complete frame, waiting at most until `deadline`
    /// (`None`: as long as it takes). `Ok(None)` means time ran out;
    /// whatever part of a frame had arrived stays buffered and the next
    /// call carries on from there.
    pub fn recv_frame_by(&mut self, deadline: Option<Instant>) -> WireResult<Option<Vec<u8>>> {
        loop {
            if self.fault.severed {
                return Err(WireError::Closed);
            }
            let Some(frame) = detect::blocking_region("wire::FramedTcp::recv_frame", || {
                self.read_frame(deadline)
            })?
            else {
                return Ok(None);
            };
            match self.fault.plan_recv(frame)? {
                RecvPlan::Deliver(f) => return Ok(Some(f)),
                RecvPlan::Discard => continue,
                RecvPlan::Close => {
                    self.shutdown();
                    return Err(WireError::Closed);
                }
            }
        }
    }

    /// Fill `partial` up to a whole frame. With a deadline every read
    /// is preceded by a readiness wait, so no read can block past it.
    fn read_frame(&mut self, deadline: Option<Instant>) -> WireResult<Option<Vec<u8>>> {
        if self.partial.is_empty() {
            self.partial.resize(12, 0);
        }
        while self.filled < self.partial.len() {
            if deadline.is_some() && !self.wait_readable(deadline)? {
                return Ok(None);
            }
            match self.stream.read(&mut self.partial[self.filled..]) {
                // EOF: between or inside headers the peer simply closed;
                // inside a body it abandoned a frame it had announced.
                Ok(0) if self.partial.len() == 12 => return Err(WireError::Closed),
                Ok(0) => {
                    return Err(WireError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "failed to fill whole buffer",
                    )))
                }
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(WireError::Io(e)),
            }
            if self.filled == 12 && self.partial.len() == 12 {
                let hdr: [u8; 12] = self.partial[..].try_into().expect("12 header bytes");
                let header = GiopHeader::from_bytes(&hdr)?;
                // The body lands behind the header in the same buffer.
                self.partial.resize(12 + header.body_size as usize, 0);
            }
        }
        self.filled = 0;
        Ok(Some(std::mem::take(&mut self.partial)))
    }
}

impl Transport for FramedTcp {
    fn send_frame(&mut self, frame: &[u8]) -> WireResult<()> {
        match self.fault.plan_send(frame)? {
            SendPlan::Send(bytes) => {
                let stream = &mut self.stream;
                detect::blocking_region("wire::FramedTcp::send_frame", || {
                    stream.write_all(&bytes)
                })?;
                Ok(())
            }
            SendPlan::Swallow => Ok(()),
            SendPlan::SendPartThenClose(bytes) => {
                let stream = &mut self.stream;
                let _ = detect::blocking_region("wire::FramedTcp::send_frame", || {
                    stream.write_all(&bytes)
                });
                self.shutdown();
                Err(WireError::Closed)
            }
        }
    }

    fn recv_frame(&mut self) -> WireResult<Vec<u8>> {
        // No deadline: `None` (time ran out) cannot come back.
        self.recv_frame_by(None)?.ok_or(WireError::Closed)
    }
}

/// How many bytes `NbFramed` reads per `read` call while draining a
/// readable socket.
const NB_READ_CHUNK: usize = 64 * 1024;

/// What one readiness-driven read pass produced.
#[derive(Debug, Default)]
pub struct NbRead {
    /// Complete frames extracted from the stream, oldest first.
    pub frames: Vec<Vec<u8>>,
    /// The peer closed its write side (frames may still be present).
    pub closed: bool,
}

/// Nonblocking, incrementally-parsed GIOP framing for the reactor core:
/// the read half of an accepted connection.
///
/// Unlike [`FramedTcp`], which parks a thread in `read` until a whole
/// frame arrives, `NbFramed` is driven by readiness: each
/// [`NbFramed::on_readable`] drains whatever bytes the socket has into
/// an accumulation buffer and extracts every complete frame; partial
/// frames simply wait for the next readiness event. Writes go through
/// the connection's [`NbSender`], which [`NbFramed::new`] returns
/// beside it.
///
/// Chaos wire faults are a client-side concern (they are installed on
/// dialed connections); this server-side path stays fault-free.
#[derive(Debug)]
pub struct NbFramed {
    stream: TcpStream,
    /// Received-but-unparsed bytes; complete frames are drained off the
    /// front, a trailing partial frame stays for the next pass.
    recv: Vec<u8>,
}

/// The send half of a nonblocking connection: whole frames are queued,
/// and [`NbSender::on_writable`] pushes queued bytes until the socket
/// would block, tracking a byte count the reactor uses for
/// per-connection backpressure.
///
/// It owns a duplicate handle of the stream, so it can sit behind a
/// lock that the reactor and its dispatch workers share: whoever has a
/// reply queues it and writes, and frames queued under one hold of that
/// lock reach the wire back to back.
#[derive(Debug)]
pub struct NbSender {
    stream: TcpStream,
    /// Outgoing frames not yet (fully) written.
    send_q: VecDeque<FrameBuf>,
    /// How many bytes of the queue's front frame are already written.
    send_off: usize,
    /// Total unwritten bytes across the queue.
    queued: usize,
    /// A write failed: the connection is beyond use.
    failed: bool,
}

impl NbFramed {
    /// Wrap a connected stream, switching it to nonblocking mode, and
    /// split it into its read half and its send half.
    pub fn new(stream: TcpStream) -> WireResult<(Self, NbSender)> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let sender = NbSender {
            stream: stream.try_clone()?,
            send_q: VecDeque::new(),
            send_off: 0,
            queued: 0,
            failed: false,
        };
        Ok((
            NbFramed {
                stream,
                recv: Vec::new(),
            },
            sender,
        ))
    }

    /// The underlying stream (for fd registration and severing).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Drain readable bytes and extract complete frames. Call when the
    /// socket polls readable. A header that fails validation (bad
    /// magic, oversized body) is a protocol error that desynchronizes
    /// the stream — the caller must drop the connection.
    pub fn on_readable(&mut self) -> WireResult<NbRead> {
        let mut out = NbRead::default();
        loop {
            let old = self.recv.len();
            self.recv.resize(old + NB_READ_CHUNK, 0);
            match self.stream.read(&mut self.recv[old..]) {
                Ok(0) => {
                    self.recv.truncate(old);
                    out.closed = true;
                    break;
                }
                Ok(n) => {
                    self.recv.truncate(old + n);
                    if n < NB_READ_CHUNK {
                        break; // socket drained
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.recv.truncate(old);
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                    self.recv.truncate(old);
                }
                Err(e) => {
                    self.recv.truncate(old);
                    return Err(WireError::Io(e));
                }
            }
        }
        let mut off = 0;
        while self.recv.len() - off >= 12 {
            let mut hdr = [0u8; 12];
            hdr.copy_from_slice(&self.recv[off..off + 12]);
            let header = GiopHeader::from_bytes(&hdr)?;
            let total = 12 + header.body_size as usize;
            if self.recv.len() - off < total {
                break;
            }
            out.frames.push(self.recv[off..off + total].to_vec());
            off += total;
        }
        self.recv.drain(..off);
        Ok(out)
    }

    /// Sever both directions of the stream (the send half's handle
    /// refers to the same socket).
    pub fn shutdown(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

impl NbSender {
    /// Queue one whole frame for writing. The reactor checks
    /// [`NbSender::queued_bytes`] against its high-water mark; the queue
    /// itself never refuses a frame (replies to already-admitted
    /// requests must not be dropped).
    pub fn enqueue(&mut self, frame: impl Into<FrameBuf>) {
        let frame = frame.into();
        self.queued += frame.len();
        self.send_q.push_back(frame);
    }

    /// Write queued bytes until the queue empties or the socket would
    /// block. Call right after enqueueing, and again when the socket
    /// polls writable while [`NbSender::wants_write`]. A write error is
    /// remembered ([`NbSender::failed`]).
    pub fn on_writable(&mut self) -> WireResult<()> {
        while let Some(front) = self.send_q.front() {
            let bytes = &front[self.send_off..];
            match self.stream.write(bytes) {
                Ok(n) => {
                    self.send_off += n;
                    self.queued -= n;
                    if self.send_off == front.len() {
                        self.send_q.pop_front();
                        self.send_off = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.failed = true;
                    return Err(WireError::Io(e));
                }
            }
        }
        Ok(())
    }

    /// True while unwritten frames are queued.
    pub fn wants_write(&self) -> bool {
        !self.send_q.is_empty()
    }

    /// Unwritten bytes currently queued — the backpressure signal.
    pub fn queued_bytes(&self) -> usize {
        self.queued
    }

    /// True once a write has failed; nothing more can be sent.
    pub fn failed(&self) -> bool {
        self.failed
    }
}

/// One endpoint of an in-process duplex pipe.
///
/// Created in pairs by [`duplex`]; whatever one side sends the other
/// receives, whole frames at a time. Dropping either end closes the pipe.
#[derive(Debug)]
pub struct PipeTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

/// Create a connected pair of in-process transports.
pub fn duplex() -> (PipeTransport, PipeTransport) {
    let (atx, brx) = channel();
    let (btx, arx) = channel();
    (
        PipeTransport { tx: atx, rx: arx },
        PipeTransport { tx: btx, rx: brx },
    )
}

impl Transport for PipeTransport {
    fn send_frame(&mut self, frame: &[u8]) -> WireResult<()> {
        self.tx.send(frame.to_vec()).map_err(|_| WireError::Closed)
    }

    fn recv_frame(&mut self) -> WireResult<Vec<u8>> {
        detect::blocking_region("wire::PipeTransport::recv_frame", || self.rx.recv())
            .map_err(|_| WireError::Closed)
    }
}

/// A transport wrapper that injects faults on both paths.
///
/// Used by failure-injection tests to prove the decoder and the ORB's
/// error handling survive hostile or broken peers. The active fault
/// lives in an [`Arc`]-shared [`FaultSlot`], so a test can keep a handle
/// (via [`FaultyTransport::slot`]) and flip faults while the transport
/// is live on another thread.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    fault: FaultState,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wrap `inner`, applying `fault` to every frame.
    pub fn new(inner: T, fault: Fault) -> Self {
        Self::with_slot(inner, FaultSlot::new(fault))
    }

    /// Wrap `inner` around an externally shared fault slot.
    pub fn with_slot(inner: T, slot: FaultSlot) -> Self {
        FaultyTransport {
            inner,
            fault: FaultState {
                slot,
                ..FaultState::default()
            },
        }
    }

    /// Change the active fault (also visible through shared slots).
    pub fn set_fault(&mut self, fault: Fault) {
        self.fault.slot.set(fault);
    }

    /// A shared handle to the active fault, for live flipping.
    pub fn slot(&self) -> FaultSlot {
        self.fault.slot.clone()
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send_frame(&mut self, frame: &[u8]) -> WireResult<()> {
        match self.fault.plan_send(frame)? {
            SendPlan::Send(bytes) => self.inner.send_frame(&bytes),
            SendPlan::Swallow => Ok(()),
            SendPlan::SendPartThenClose(bytes) => {
                let _ = self.inner.send_frame(&bytes);
                Err(WireError::Closed)
            }
        }
    }

    fn recv_frame(&mut self) -> WireResult<Vec<u8>> {
        loop {
            // A severed transport must fail before blocking on the
            // inner receive — the pipe variant has no socket to close,
            // so waiting for bytes that cannot arrive would hang.
            if self.fault.severed {
                return Err(WireError::Closed);
            }
            let frame = self.inner.recv_frame()?;
            match self.fault.plan_recv(frame)? {
                RecvPlan::Deliver(f) => return Ok(f),
                RecvPlan::Discard => continue,
                RecvPlan::Close => return Err(WireError::Closed),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdr::ByteOrder;
    use crate::giop::{reply_ok, request};
    use crate::value::Value;
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn pipe_roundtrip() {
        let (mut a, mut b) = duplex();
        let msg = request(1, b"k".to_vec(), "ping", vec![]);
        a.send_message(&msg, ByteOrder::BigEndian).unwrap();
        assert_eq!(b.recv_message().unwrap(), msg);

        let rep = reply_ok(1, Value::string("pong"));
        b.send_message(&rep, ByteOrder::LittleEndian).unwrap();
        assert_eq!(a.recv_message().unwrap(), rep);
    }

    #[test]
    fn pipe_close_detected() {
        let (mut a, b) = duplex();
        drop(b);
        assert!(matches!(a.send_frame(&[0u8; 12]), Err(WireError::Closed)));
        assert!(matches!(a.recv_frame(), Err(WireError::Closed)));
    }

    #[test]
    fn tcp_roundtrip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = FramedTcp::new(stream);
            let msg = t.recv_message().unwrap();
            match msg {
                GiopMessage::Request { header, .. } => {
                    t.send_message(
                        &reply_ok(header.request_id, Value::string("over tcp")),
                        ByteOrder::LittleEndian,
                    )
                    .unwrap();
                }
                other => panic!("expected request, got {other:?}"),
            }
        });

        let mut client = FramedTcp::connect("127.0.0.1", addr.port()).unwrap();
        client
            .send_message(
                &request(42, b"obj".to_vec(), "echo", vec![Value::Long(5)]),
                ByteOrder::BigEndian,
            )
            .unwrap();
        match client.recv_message().unwrap() {
            GiopMessage::Reply {
                request_id, body, ..
            } => {
                assert_eq!(request_id, 42);
                assert_eq!(body.as_str(), Some("over tcp"));
            }
            other => panic!("expected reply, got {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn corrupt_magic_detected_by_receiver() {
        let (a, mut b) = duplex();
        let mut faulty = FaultyTransport::new(a, Fault::CorruptMagic);
        faulty
            .send_message(
                &request(1, b"k".to_vec(), "op", vec![]),
                ByteOrder::BigEndian,
            )
            .unwrap();
        assert!(matches!(b.recv_message(), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn truncated_frame_detected_by_receiver() {
        let (a, mut b) = duplex();
        let mut faulty = FaultyTransport::new(a, Fault::Truncate(15));
        faulty
            .send_message(
                &request(1, b"key".to_vec(), "operation", vec![Value::Long(9)]),
                ByteOrder::BigEndian,
            )
            .unwrap();
        // The pipe delivers a 15-byte frame whose header declares a larger
        // body; decode must fail, not panic.
        assert!(b.recv_message().is_err());
    }

    #[test]
    fn inflated_size_rejected() {
        let (a, mut b) = duplex();
        let mut faulty = FaultyTransport::new(a, Fault::InflateSize);
        faulty
            .send_message(
                &request(1, b"k".to_vec(), "op", vec![]),
                ByteOrder::BigEndian,
            )
            .unwrap();
        assert!(matches!(b.recv_message(), Err(WireError::TooLarge { .. })));
    }

    #[test]
    fn delay_fault_holds_frames() {
        let (a, mut b) = duplex();
        let mut faulty = FaultyTransport::new(a, Fault::DelayMs(20));
        let started = std::time::Instant::now();
        faulty
            .send_message(
                &request(1, b"k".to_vec(), "op", vec![]),
                ByteOrder::BigEndian,
            )
            .unwrap();
        assert!(started.elapsed() >= Duration::from_millis(20));
        assert!(b.recv_message().is_ok());
    }

    #[test]
    fn drop_after_passes_then_loses_on_send() {
        let (a, mut b) = duplex();
        let mut faulty = FaultyTransport::new(a, Fault::DropAfter(2));
        for id in 0..4 {
            faulty
                .send_message(
                    &request(id, b"k".to_vec(), "op", vec![]),
                    ByteOrder::BigEndian,
                )
                .unwrap();
        }
        // Only the first two frames arrive; the pipe then closes.
        assert!(b.recv_message().is_ok());
        assert!(b.recv_message().is_ok());
        drop(faulty);
        assert!(matches!(b.recv_frame(), Err(WireError::Closed)));
    }

    #[test]
    fn drop_after_discards_on_receive_path() {
        let (mut a, b) = duplex();
        let mut faulty = FaultyTransport::new(b, Fault::DropAfter(1));
        for id in 0..3 {
            a.send_message(
                &request(id, b"k".to_vec(), "op", vec![]),
                ByteOrder::BigEndian,
            )
            .unwrap();
        }
        // First frame delivered; the rest are swallowed, so the close of
        // the sender surfaces next.
        assert!(faulty.recv_message().is_ok());
        drop(a);
        assert!(matches!(faulty.recv_frame(), Err(WireError::Closed)));
    }

    #[test]
    fn close_mid_frame_truncates_then_closes() {
        let (a, mut b) = duplex();
        let mut faulty = FaultyTransport::new(a, Fault::CloseMidFrame);
        let send = faulty.send_message(
            &request(1, b"key".to_vec(), "operation", vec![Value::Long(7)]),
            ByteOrder::BigEndian,
        );
        assert!(matches!(send, Err(WireError::Closed)));
        // The peer got half a frame: decodable never, panicking never.
        assert!(b.recv_message().is_err());
        // The faulty side is severed for good.
        assert!(matches!(
            faulty.send_frame(&[0u8; 12]),
            Err(WireError::Closed)
        ));
        assert!(matches!(faulty.recv_frame(), Err(WireError::Closed)));
    }

    #[test]
    fn close_mid_frame_on_receive_path_reports_closed() {
        let (mut a, b) = duplex();
        let mut faulty = FaultyTransport::new(b, Fault::CloseMidFrame);
        a.send_message(
            &request(1, b"k".to_vec(), "op", vec![]),
            ByteOrder::BigEndian,
        )
        .unwrap();
        assert!(matches!(faulty.recv_frame(), Err(WireError::Closed)));
    }

    #[test]
    fn shared_slot_flips_faults_on_a_live_transport() {
        let (a, mut b) = duplex();
        let mut faulty = FaultyTransport::new(a, Fault::None);
        let slot = faulty.slot();
        faulty
            .send_message(
                &request(1, b"k".to_vec(), "op", vec![]),
                ByteOrder::BigEndian,
            )
            .unwrap();
        assert!(b.recv_message().is_ok());
        // Flip the fault through the shared handle — no &mut needed.
        slot.set(Fault::DropFrames);
        faulty
            .send_message(
                &request(2, b"k".to_vec(), "op", vec![]),
                ByteOrder::BigEndian,
            )
            .unwrap();
        slot.clear();
        faulty
            .send_message(
                &request(3, b"k".to_vec(), "op", vec![]),
                ByteOrder::BigEndian,
            )
            .unwrap();
        // Frame 2 was dropped; frame 3 arrives right behind frame 1.
        match b.recv_message().unwrap() {
            GiopMessage::Request { header, .. } => assert_eq!(header.request_id, 3),
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn framed_tcp_honors_installed_fault_slot() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = FramedTcp::new(stream);
            let mut got = Vec::new();
            while let Ok(GiopMessage::Request { header, .. }) = t.recv_message() {
                got.push(header.request_id);
            }
            got
        });
        let mut client = FramedTcp::connect("127.0.0.1", addr.port()).unwrap();
        let slot = FaultSlot::default();
        client.install_fault_slot(slot.clone());
        for id in 0..2 {
            client
                .send_message(
                    &request(id, b"k".to_vec(), "op", vec![]),
                    ByteOrder::BigEndian,
                )
                .unwrap();
        }
        slot.set(Fault::DropFrames);
        client
            .send_message(
                &request(2, b"k".to_vec(), "op", vec![]),
                ByteOrder::BigEndian,
            )
            .unwrap();
        client.shutdown();
        assert_eq!(server.join().unwrap(), vec![0, 1]);
    }

    fn nb_pair() -> (NbFramed, NbSender, FramedTcp) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let (nb, sender) = NbFramed::new(accepted).unwrap();
        (nb, sender, FramedTcp::new(peer))
    }

    /// Poll `f` until it returns Some, for nonblocking tests.
    fn wait_for<T>(mut f: impl FnMut() -> Option<T>) -> T {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(v) = f() {
                return v;
            }
            assert!(std::time::Instant::now() < deadline, "timed out waiting");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn nb_framed_parses_split_and_coalesced_frames() {
        let (mut nb, _sender, peer) = nb_pair();
        let f1 = request(1, b"k".to_vec(), "op", vec![Value::Long(1)])
            .encode(ByteOrder::BigEndian)
            .unwrap();
        let f2 = request(2, b"k".to_vec(), "op", vec![])
            .encode(ByteOrder::LittleEndian)
            .unwrap();

        // Deliver both frames in one burst, split mid-header of the
        // second: the parser must return frame 1, hold the tail.
        let mut raw = peer.stream.try_clone().unwrap();
        let burst: Vec<u8> = f1.iter().chain(f2.iter()).copied().collect();
        let cut = f1.len() + 5;
        raw.write_all(&burst[..cut]).unwrap();
        let got = wait_for(|| {
            let r = nb.on_readable().unwrap();
            assert!(!r.closed);
            if r.frames.is_empty() {
                None
            } else {
                Some(r.frames)
            }
        });
        assert_eq!(got, vec![f1]);

        raw.write_all(&burst[cut..]).unwrap();
        let got = wait_for(|| {
            let r = nb.on_readable().unwrap();
            if r.frames.is_empty() {
                None
            } else {
                Some(r.frames)
            }
        });
        assert_eq!(got, vec![f2]);
    }

    #[test]
    fn nb_framed_reports_peer_close() {
        let (mut nb, _sender, peer) = nb_pair();
        drop(peer);
        let closed = wait_for(|| {
            let r = nb.on_readable().unwrap();
            r.closed.then_some(true)
        });
        assert!(closed);
    }

    #[test]
    fn nb_framed_write_queue_drains_under_backpressure() {
        let (_nb, mut nb, mut peer) = nb_pair();
        // A reply large enough to overflow any sane socket buffer, so
        // flushes leave queued bytes behind until the peer drains.
        let big = reply_ok(1, Value::string("y".repeat(8 << 20)));
        let frame = big.encode(ByteOrder::BigEndian).unwrap();
        nb.enqueue(frame.clone());
        assert_eq!(nb.queued_bytes(), frame.len());
        nb.on_writable().unwrap();

        // Reader drains on another thread while we keep flushing.
        let reader = thread::spawn(move || peer.recv_frame().unwrap());
        while nb.wants_write() {
            nb.on_writable().unwrap();
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(nb.queued_bytes(), 0);
        assert_eq!(reader.join().unwrap(), frame);
    }

    #[test]
    fn nb_framed_rejects_bad_magic() {
        let (mut nb, _sender, peer) = nb_pair();
        let mut raw = peer.stream.try_clone().unwrap();
        raw.write_all(b"POIGxxxxxxxxxxxx").unwrap();
        let err = wait_for(|| match nb.on_readable() {
            Ok(r) => {
                assert!(r.frames.is_empty());
                None
            }
            Err(e) => Some(e),
        });
        assert!(matches!(err, WireError::BadMagic(_)));
    }

    #[test]
    fn dropped_frames_never_arrive() {
        let (a, b) = duplex();
        let mut faulty = FaultyTransport::new(a, Fault::DropFrames);
        faulty
            .send_message(
                &request(1, b"k".to_vec(), "op", vec![]),
                ByteOrder::BigEndian,
            )
            .unwrap();
        drop(faulty); // closes the pipe
        let mut b = b;
        assert!(matches!(b.recv_frame(), Err(WireError::Closed)));
    }
}
