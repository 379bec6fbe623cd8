//! GIOP framing over TCP — IIOP, the one transport WebFINDIT's ORBs
//! speak.
//!
//! * [`FrameReader`] — the GIOP framer. It reads what a socket has and
//!   yields whole frames (a 12-byte header, then exactly `body_size`
//!   bytes), and never waits: the reactor drives it on readiness,
//!   [`FramedTcp`] after its own deadline-bounded wait.
//! * [`FramedTcp`] — a blocking IIOP connection for callers, whose
//!   [`FaultSlot`] lets a chaos plan inject wire faults while traffic is
//!   in flight.
//! * [`NbSender`] — the queued, nonblocking send half of a connection
//!   the reactor serves.

use crate::bufpool::FrameBuf;
use crate::cdr::ByteOrder;
use crate::giop::{GiopHeader, GiopMessage, FRAGMENT_BODY_SIZE};
use crate::poll::{poll_fds, PollFd, POLLIN};
use crate::{WireError, WireResult};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};
use webfindit_base::sync::{detect, Mutex};

/// Kinds of injected transport faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// Deliver frames untouched.
    #[default]
    None,
    /// Overwrite the GIOP magic of outgoing frames.
    CorruptMagic,
    /// Drop outgoing frames entirely (the peer never sees them —
    /// callers pair this with deadlines).
    DropFrames,
    /// Hold every frame for this many milliseconds before letting it
    /// through (both directions) — simulated link latency.
    DelayMs(u64),
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

/// Room a reader's first read gets; the buffer grows past it only for a
/// frame that needs more.
const READ_CHUNK: usize = 16 * 1024;

/// The largest buffer a reader keeps between frames: one whole fragment
/// of a fragment train, so a connection that streams trains reads every
/// fragment in place. A bigger frame's buffer is let go once the frame
/// has been handed out.
const KEEP_MAX: usize = 12 + FRAGMENT_BODY_SIZE;

/// Incremental GIOP framing — the one place a GIOP header is parsed off
/// a socket.
///
/// [`FrameReader::fill`] makes one `read` of whatever the socket has, and
/// [`FrameReader::next_frame`] hands out each whole frame now buffered; a
/// partial frame waits for the next `fill`. The reader itself never
/// waits for bytes: the reactor calls `fill` when its nonblocking socket
/// polls readable, [`FramedTcp::recv_frame_by`] after its own
/// deadline-bounded wait.
///
/// The buffer is zero-filled only when it grows. A frame is handed out
/// as a slice of it, so whoever keeps its bytes (the fragment assembler)
/// makes the only full copy; what had arrived of a frame before the
/// buffer had room for all of it — it came behind another frame, or the
/// buffer had to grow — is moved once.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Received bytes are `buf[head..tail]`: whole frames not yet handed
    /// out, then at most one partial frame.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl FrameReader {
    /// Make one `read` from `stream` into the buffer; call it once
    /// [`FrameReader::next_frame`] has nothing left. Returns how many
    /// bytes arrived: 0 when the socket had none to give (a nonblocking
    /// socket would block, or a blocking one's read timeout passed). A
    /// peer that closed its side is `Closed` between frames or inside a
    /// header, and `UnexpectedEof` inside a body.
    pub fn fill(&mut self, stream: &TcpStream) -> WireResult<usize> {
        if self.head == self.tail {
            (self.head, self.tail) = (0, 0);
            if self.buf.len() > KEEP_MAX {
                self.buf = Vec::new();
            }
        }
        // Room for the whole frame at the front — or for a chunk, while
        // its header is still incomplete.
        let need = self.frame_len()?.unwrap_or(READ_CHUNK);
        if self.head + need > self.buf.len() {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
            if self.buf.len() < need {
                self.buf.resize(need, 0);
            }
        }
        let mut stream = stream;
        loop {
            match stream.read(&mut self.buf[self.tail..]) {
                Ok(0) if self.tail - self.head < 12 => return Err(WireError::Closed),
                // The peer abandoned a frame whose header it had sent.
                Ok(0) => {
                    return Err(WireError::Io(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "failed to fill whole buffer",
                    )))
                }
                Ok(n) => {
                    self.tail += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(0),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(WireError::Io(e)),
            }
        }
    }

    /// The next whole frame (header and body), if one is buffered. A
    /// header that fails validation (bad magic, unknown version or kind,
    /// a body over [`crate::MAX_MESSAGE_SIZE`]) desynchronizes the
    /// stream: the caller must drop the connection.
    pub fn next_frame(&mut self) -> WireResult<Option<&[u8]>> {
        let Some(len) = self.whole_frame()? else {
            return Ok(None);
        };
        let start = self.head;
        self.head += len;
        Ok(Some(&self.buf[start..self.head]))
    }

    /// The length of the frame at the front, if all of it is buffered.
    fn whole_frame(&self) -> WireResult<Option<usize>> {
        Ok(self
            .frame_len()?
            .filter(|&len| self.tail - self.head >= len))
    }

    /// The length of the frame at the front, once its header is in.
    fn frame_len(&self) -> WireResult<Option<usize>> {
        if self.tail - self.head < 12 {
            return Ok(None);
        }
        let header: &[u8; 12] = self.buf[self.head..self.head + 12]
            .try_into()
            .expect("12 header bytes");
        Ok(Some(
            12 + GiopHeader::from_bytes(header)?.body_size as usize,
        ))
    }
}

/// A blocking IIOP connection — the literal IIOP of the paper — whose
/// every frame passes through the active [`Fault`].
#[derive(Debug)]
pub struct FramedTcp {
    stream: TcpStream,
    /// A frame the peer delivers in pieces stays here across a
    /// [`FramedTcp::recv_frame_by`] that ran out of time, so the stream
    /// never desynchronizes.
    reader: FrameReader,
    fault: FaultSlot,
    /// A `CloseMidFrame` fault cut this handle off: every later call
    /// fails.
    severed: bool,
}

impl FramedTcp {
    /// Wrap a connected stream.
    pub fn new(stream: TcpStream) -> Self {
        FramedTcp {
            stream,
            reader: FrameReader::default(),
            fault: FaultSlot::default(),
            severed: false,
        }
    }

    /// Clone the underlying stream (TCP streams are duplicable handles).
    /// The fault slot is shared with the clone; the severed flag and the
    /// partially received frame are not, so each direction of a split
    /// connection fails on its own and exactly one clone reads.
    pub fn try_clone(&self) -> WireResult<Self> {
        Ok(FramedTcp {
            fault: self.fault.clone(),
            ..FramedTcp::new(self.stream.try_clone()?)
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

    /// Wire this connection to an externally controlled fault slot — the
    /// chaos hook: a [`FaultSlot`] held by a chaos controller lets faults
    /// be flipped on the live connection at any time.
    pub fn install_fault_slot(&mut self, slot: FaultSlot) {
        self.fault = slot;
    }

    /// Send one complete GIOP frame.
    pub fn send_frame(&mut self, frame: &[u8]) -> WireResult<()> {
        if self.severed {
            return Err(WireError::Closed);
        }
        let corrupted;
        let bytes = match self.fault.get() {
            Fault::None => frame,
            Fault::CorruptMagic => {
                let mut f = frame.to_vec();
                if f.len() >= 4 {
                    f[..4].copy_from_slice(b"POIG");
                }
                corrupted = f;
                &corrupted
            }
            Fault::DropFrames => return Ok(()),
            Fault::DelayMs(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                frame
            }
            Fault::CloseMidFrame => {
                self.severed = true;
                let _ = self.send_bytes(&frame[..frame.len() / 2]);
                self.shutdown();
                return Err(WireError::Closed);
            }
        };
        self.send_bytes(bytes)
    }

    fn send_bytes(&self, bytes: &[u8]) -> WireResult<()> {
        let mut stream = &self.stream;
        detect::blocking_region("wire::FramedTcp::send_frame", || stream.write_all(bytes))?;
        Ok(())
    }

    /// Encode and send a message in one step.
    pub fn send_message(&mut self, msg: &GiopMessage, order: ByteOrder) -> WireResult<()> {
        self.send_frame(&msg.encode(order)?)
    }

    /// Receive one complete frame, waiting at most until `deadline`
    /// (`None`: as long as the stream's read timeout allows). `Ok(None)`
    /// means time ran out; whatever part of a frame had arrived stays
    /// buffered and the next call carries on from there.
    pub fn recv_frame_by(&mut self, deadline: Option<Instant>) -> WireResult<Option<&[u8]>> {
        if self.severed {
            return Err(WireError::Closed);
        }
        if !detect::blocking_region("wire::FramedTcp::recv_frame", || self.await_frame(deadline))? {
            return Ok(None);
        }
        match self.fault.get() {
            Fault::DelayMs(ms) => std::thread::sleep(Duration::from_millis(ms)),
            Fault::CloseMidFrame => {
                self.severed = true;
                self.shutdown();
                return Err(WireError::Closed);
            }
            _ => {}
        }
        self.reader.next_frame()
    }

    /// Read until a whole frame is buffered; false when `deadline`
    /// passed first. With a deadline every read follows a readiness
    /// wait, so none can block past it; without one the read waits.
    fn await_frame(&mut self, deadline: Option<Instant>) -> WireResult<bool> {
        while self.reader.whole_frame()?.is_none() {
            if let Some(at) = deadline {
                if !self.wait_readable(at)? {
                    return Ok(false);
                }
            }
            // A waiting read that brings nothing ran into the stream's
            // read timeout.
            if self.reader.fill(&self.stream)? == 0 && deadline.is_none() {
                return Err(WireError::Io(ErrorKind::TimedOut.into()));
            }
        }
        Ok(true)
    }

    /// Block until the socket has bytes to read (or the peer hung up),
    /// at most until `at`. False means `at` passed first.
    fn wait_readable(&self, at: Instant) -> WireResult<bool> {
        // poll(2) counts whole milliseconds: round up, so a wait is
        // never cut short of its deadline.
        let timeout_ms = at
            .saturating_duration_since(Instant::now())
            .as_micros()
            .div_ceil(1000)
            .min(i32::MAX as u128) as i32;
        let mut fds = [PollFd::new(self.stream.as_raw_fd(), POLLIN)];
        Ok(poll_fds(&mut fds, timeout_ms)? > 0)
    }

    /// Receive one complete frame, as long as it takes.
    pub fn recv_frame(&mut self) -> WireResult<&[u8]> {
        // No deadline: `None` (time ran out) cannot come back.
        self.recv_frame_by(None)?.ok_or(WireError::Closed)
    }
}

/// The send half of a connection the reactor serves: whole frames are
/// queued, and [`NbSender::on_writable`] pushes queued bytes until the
/// socket would block, tracking a byte count the reactor uses for
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

impl NbSender {
    /// The send half of an accepted `stream`. Switches the socket to
    /// nonblocking mode — for every handle of it, the reader's included.
    pub fn new(stream: &TcpStream) -> WireResult<Self> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(NbSender {
            stream: stream.try_clone()?,
            send_q: VecDeque::new(),
            send_off: 0,
            queued: 0,
            failed: false,
        })
    }

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
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::giop::{reply_ok, request};
    use crate::value::Value;
    use std::net::TcpListener;
    use std::thread;

    /// A connected loopback pair: the dialed end, then the accepted one.
    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let dialed = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (dialed, accepted)
    }

    fn ping(id: u32) -> GiopMessage {
        request(
            id,
            b"key".to_vec(),
            "operation",
            vec![Value::Long(id as i32)],
        )
    }

    fn request_id(msg: GiopMessage) -> u32 {
        match msg {
            GiopMessage::Request { header, .. } => header.request_id,
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn tcp_roundtrip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = FramedTcp::new(stream);
            let msg = t.recv_frame().and_then(GiopMessage::decode_frame).unwrap();
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

        let mut client = FramedTcp::new(TcpStream::connect(addr).unwrap());
        client
            .send_message(
                &request(42, b"obj".to_vec(), "echo", vec![Value::Long(5)]),
                ByteOrder::BigEndian,
            )
            .unwrap();
        match client
            .recv_frame()
            .and_then(GiopMessage::decode_frame)
            .unwrap()
        {
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
    fn pipe_close_detected() {
        let (a, b) = tcp_pair();
        let mut t = FramedTcp::new(a);
        drop(b);
        assert!(matches!(t.recv_frame(), Err(WireError::Closed)));
        // The first write after the peer went away may still be taken;
        // once the peer's reset is back, sending fails.
        let frame = ping(1).encode(ByteOrder::BigEndian).unwrap();
        let err = (0..200)
            .find_map(|_| {
                thread::sleep(Duration::from_millis(1));
                t.send_frame(&frame).err()
            })
            .expect("sending to a closed peer never failed");
        assert!(
            matches!(&err, WireError::Io(e)
                if matches!(e.kind(), ErrorKind::BrokenPipe | ErrorKind::ConnectionReset)),
            "{err}"
        );
    }

    #[test]
    fn truncated_frame_detected_by_receiver() {
        let (a, b) = tcp_pair();
        let frame = ping(1).encode(ByteOrder::BigEndian).unwrap();
        assert!(frame.len() > 15);
        // The sender dies 15 bytes into a frame whose header declares a
        // larger body: receiving must fail, not panic or hang.
        (&a).write_all(&frame[..15]).unwrap();
        drop(a);
        let mut t = FramedTcp::new(b);
        assert!(matches!(t.recv_frame().and_then(GiopMessage::decode_frame),
            Err(WireError::Io(e)) if e.kind() == ErrorKind::UnexpectedEof));
    }

    #[test]
    fn inflated_size_rejected() {
        let (a, b) = tcp_pair();
        let mut frame = request(1, b"k".to_vec(), "op", vec![])
            .encode(ByteOrder::BigEndian)
            .unwrap();
        frame[8..12].copy_from_slice(&(crate::MAX_MESSAGE_SIZE + 1).to_be_bytes());
        FramedTcp::new(a).send_frame(&frame).unwrap();
        let mut t = FramedTcp::new(b);
        assert!(matches!(
            t.recv_frame().and_then(GiopMessage::decode_frame),
            Err(WireError::TooLarge { .. })
        ));
    }

    /// Drive a [`FrameReader`] over `stream` the way the reactor does —
    /// wait for readiness, one `fill`, then the whole frames — until it
    /// fails, and return that error. No frame may come out first.
    fn read_until_error(stream: &TcpStream) -> WireError {
        stream.set_nonblocking(true).unwrap();
        let mut reader = FrameReader::default();
        loop {
            let mut fds = [PollFd::new(stream.as_raw_fd(), POLLIN)];
            assert_eq!(poll_fds(&mut fds, 10_000).unwrap(), 1, "stream stalled");
            if let Err(e) = reader.fill(stream) {
                return e;
            }
            match reader.next_frame() {
                Ok(None) => {}
                Ok(Some(frame)) => panic!("unexpected frame {frame:?}"),
                Err(e) => return e,
            }
        }
    }

    #[test]
    fn nb_framed_reports_peer_close() {
        let (peer, accepted) = tcp_pair();
        drop(peer);
        assert!(matches!(read_until_error(&accepted), WireError::Closed));
    }

    #[test]
    fn nb_framed_rejects_bad_magic() {
        let (peer, accepted) = tcp_pair();
        (&peer).write_all(b"POIGxxxxxxxxxxxx").unwrap();
        assert!(matches!(
            read_until_error(&accepted),
            WireError::BadMagic(_)
        ));
    }

    /// The direction of the faulty end a fault case drives.
    #[derive(Debug, Clone, Copy)]
    enum Path {
        Send,
        Recv,
    }

    /// What the receiving end of one frame got.
    #[derive(Debug, PartialEq)]
    enum Seen {
        /// The frame, byte for byte.
        Frame,
        /// `BadMagic`.
        BadMagic,
        /// `Closed`, and no frame.
        Closed,
        /// `UnexpectedEof`: the connection ended inside the frame.
        Torn,
    }

    /// Install `fault` on one end of a loopback pair and move one frame
    /// through that end in `path`'s direction. Returns what the receiver
    /// saw, whether the faulty end was severed, and how long its side of
    /// the transfer took.
    fn run_fault(fault: Fault, path: Path) -> (Seen, bool, Duration) {
        let (a, b) = tcp_pair();
        let mut faulty = FramedTcp::new(a);
        faulty.install_fault_slot(FaultSlot::new(fault));
        let mut clean = FramedTcp::new(b);
        let frame = ping(1).encode(ByteOrder::BigEndian).unwrap();
        let started = Instant::now();
        let (got, took) = match path {
            Path::Send => {
                let sent = faulty.send_frame(&frame);
                let took = started.elapsed();
                assert_eq!(sent.is_ok(), !faulty.severed, "{fault:?}: {sent:?}");
                // Hang up, so a frame that never comes reads as EOF.
                faulty.shutdown();
                (clean.recv_frame().map(<[u8]>::to_vec), took)
            }
            Path::Recv => {
                clean.send_frame(&frame).unwrap();
                let got = faulty.recv_frame().map(<[u8]>::to_vec);
                (got, started.elapsed())
            }
        };
        let seen = match got {
            Ok(f) => {
                assert_eq!(f, frame, "{fault:?} on {path:?} altered the frame");
                Seen::Frame
            }
            Err(WireError::BadMagic(_)) => Seen::BadMagic,
            Err(WireError::Closed) => Seen::Closed,
            Err(WireError::Io(e)) if e.kind() == ErrorKind::UnexpectedEof => Seen::Torn,
            Err(e) => panic!("{fault:?} on {path:?}: unexpected {e}"),
        };
        if faulty.severed {
            // Severed for good, in both directions.
            assert!(matches!(faulty.send_frame(&frame), Err(WireError::Closed)));
            assert!(matches!(faulty.recv_frame(), Err(WireError::Closed)));
        }
        (seen, faulty.severed, took)
    }

    /// The fault table: one test per row — the fault, the path it is
    /// driven on, what the receiver must see, whether the faulty end is
    /// severed after, and the least time its side must take.
    macro_rules! fault_cases {
        ($($name:ident: $fault:expr, $path:ident => $seen:ident, severed $severed:expr, $ms:expr;)*) => {$(
            #[test]
            fn $name() {
                let (seen, severed, took) = run_fault($fault, Path::$path);
                assert_eq!((seen, severed), (Seen::$seen, $severed));
                assert!(took >= Duration::from_millis($ms), "took {took:?}");
            }
        )*};
    }

    fault_cases! {
        no_fault_passes_sent_frames: Fault::None, Send => Frame, severed false, 0;
        no_fault_passes_received_frames: Fault::None, Recv => Frame, severed false, 0;
        corrupt_magic_detected_by_receiver: Fault::CorruptMagic, Send => BadMagic, severed false, 0;
        corrupt_magic_spares_received_frames: Fault::CorruptMagic, Recv => Frame, severed false, 0;
        dropped_frames_never_arrive: Fault::DropFrames, Send => Closed, severed false, 0;
        dropped_frames_spares_received_frames: Fault::DropFrames, Recv => Frame, severed false, 0;
        delay_fault_holds_frames: Fault::DelayMs(20), Send => Frame, severed false, 20;
        delay_fault_holds_received_frames: Fault::DelayMs(20), Recv => Frame, severed false, 20;
        close_mid_frame_truncates_then_closes: Fault::CloseMidFrame, Send => Torn, severed true, 0;
        close_mid_frame_on_receive_path_reports_closed: Fault::CloseMidFrame, Recv => Closed, severed true, 0;
    }

    #[test]
    fn shared_slot_flips_faults_on_a_live_transport() {
        let (a, b) = tcp_pair();
        let slot = FaultSlot::default();
        let mut faulty = FramedTcp::new(a);
        faulty.install_fault_slot(slot.clone());
        let mut clone = faulty.try_clone().unwrap();
        let mut clean = FramedTcp::new(b);
        faulty.send_message(&ping(1), ByteOrder::BigEndian).unwrap();
        // Flip the fault through the shared handle — no &mut needed —
        // and it holds for the clone too.
        slot.set(Fault::DropFrames);
        clone.send_message(&ping(2), ByteOrder::BigEndian).unwrap();
        slot.clear();
        faulty.send_message(&ping(3), ByteOrder::BigEndian).unwrap();
        // Frame 2 was dropped; frame 3 arrives right behind frame 1.
        assert_eq!(
            request_id(
                clean
                    .recv_frame()
                    .and_then(GiopMessage::decode_frame)
                    .unwrap()
            ),
            1
        );
        assert_eq!(
            request_id(
                clean
                    .recv_frame()
                    .and_then(GiopMessage::decode_frame)
                    .unwrap()
            ),
            3
        );
    }

    #[test]
    fn framed_tcp_honors_installed_fault_slot() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = FramedTcp::new(stream);
            let mut got = Vec::new();
            while let Ok(msg) = t.recv_frame().and_then(GiopMessage::decode_frame) {
                got.push(request_id(msg));
            }
            got
        });
        let mut client = FramedTcp::new(TcpStream::connect(addr).unwrap());
        let slot = FaultSlot::default();
        client.install_fault_slot(slot.clone());
        for id in 0..2 {
            client
                .send_message(&ping(id), ByteOrder::BigEndian)
                .unwrap();
        }
        slot.set(Fault::DropFrames);
        client.send_message(&ping(2), ByteOrder::BigEndian).unwrap();
        client.shutdown();
        assert_eq!(server.join().unwrap(), vec![0, 1]);
    }

    #[test]
    fn nb_framed_write_queue_drains_under_backpressure() {
        let (peer, accepted) = tcp_pair();
        let mut nb = NbSender::new(&accepted).unwrap();
        let mut peer = FramedTcp::new(peer);
        // A reply large enough to overflow any sane socket buffer, so
        // flushes leave queued bytes behind until the peer drains.
        let big = reply_ok(1, Value::string("y".repeat(8 << 20)));
        let frame = big.encode(ByteOrder::BigEndian).unwrap();
        nb.enqueue(frame.clone());
        assert_eq!(nb.queued_bytes(), frame.len());
        nb.on_writable().unwrap();

        // Reader drains on another thread while we keep flushing.
        let reader = thread::spawn(move || peer.recv_frame().unwrap().to_vec());
        while nb.wants_write() {
            nb.on_writable().unwrap();
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(nb.queued_bytes(), 0);
        assert_eq!(reader.join().unwrap(), frame);
    }
}
