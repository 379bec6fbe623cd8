//! The event-loop reactor server core.
//!
//! An ORB that spends one OS thread per connection, or per in-flight
//! request, pays for thousands of concurrent requests in per-thread
//! stacks and scheduler churn rather than in serving calls. Every
//! [`crate::orb::Orb`] therefore serves its listener with the shape
//! real high-fan-in ORBs use:
//!
//! * **one reactor thread** owns the listener and every accepted
//!   connection, driven by `poll(2)` readiness
//!   ([`webfindit_wire::poll`]). Reads are incremental — one
//!   [`FrameReader::fill`] per readiness event, then every whole frame
//!   it buffered — so a slow or malicious peer that trickles half a
//!   header costs a buffer, not a blocked thread;
//! * **short calls on the reactor, the rest on a bounded worker pool**:
//!   each request is first offered to its servant's
//!   [`crate::servant::Servant::invoke_now`], which answers it on this
//!   thread only when nothing on its path can wait (no blocking lock,
//!   sleep, I/O or remote call): an ISI primary-key point read, and a
//!   co-database `probe` or `members`, each under a shared guard that a
//!   `try_read` got and with no stall gate set. A co-database write
//!   (Join/Leave, `advertise`, `withdraw`) needs the exclusive guard,
//!   which a reader may hold, and measured no gain inline, so it stays
//!   on the pool with everything else. xlint's `reactor-blocking`
//!   rule treats that hook as a root of the event loop, so a blocking
//!   step on its path is a lint finding. Every other request runs on
//!   the pool, so a stalled servant blocks one worker, never the event
//!   loop. The servant writes its result straight into a pooled reply
//!   frame ([`crate::servant::Servant::invoke_into`]), and the worker
//!   that ran it writes the reply itself: each connection's send half
//!   ([`NbSender`]) sits behind one lock shared by the reactor and the
//!   workers, the worker queues its frames and does the nonblocking
//!   write under it, and the reactor hears about it (a byte on a
//!   loopback socket pair) only when the socket would not take
//!   everything or the write failed;
//! * **write backpressure**: what a write leaves behind stays queued
//!   per connection and the reactor drains it on write readiness. When
//!   a connection's queue crosses the high-water mark the reactor stops
//!   *reading* from it — a client that will not drain its replies
//!   cannot balloon server memory by pipelining more requests;
//! * **fragment streaming**: replies whose encoded body exceeds
//!   [`FRAGMENT_BODY_SIZE`] are split into a GIOP fragment train
//!   ([`giop::split_into_fragments`]), so one multi-megabyte reply
//!   becomes a sequence of bounded buffers. A train is queued under one
//!   hold of the send lock, so trains of concurrent replies never
//!   interleave.
//!
//! Protocol semantics: CancelRequest suppresses the reply of a
//! still-running dispatch, servant panics become system exceptions,
//! protocol garbage earns a GIOP MessageError and a closed connection,
//! and shutdown broadcasts CloseConnection so clients classify their
//! outstanding requests as safely retriable.

use crate::adapter::ObjectAdapter;
use crate::metrics::OrbMetrics;
use crate::orb::{dispatch_reply, reply_now, Now, MAX_REMEMBERED_CANCELS};
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use webfindit_base::sync::{Mutex, MutexGuard};
use webfindit_wire::cdr::ByteOrder;
use webfindit_wire::giop::{
    self, FragmentAssembler, GiopMessage, LocateStatus, RequestHeader, FRAGMENT_BODY_SIZE,
};
use webfindit_wire::poll::{poll_fds, PollFd, POLLIN, POLLOUT};
use webfindit_wire::transport::{FrameReader, NbSender};
use webfindit_wire::{BufPool, FrameBuf, PooledBuf, Value, WireResult};

/// Per-connection send-queue depth above which the reactor stops
/// reading from that connection until the queue drains.
const HIGH_WATER: usize = 1 << 20;
/// Queue depth at which a paused connection resumes reading.
const LOW_WATER: usize = HIGH_WATER / 2;
/// Fallback poll timeout so a lost wake can delay, never deadlock,
/// shutdown or the draining of a worker's unfinished write.
const POLL_TIMEOUT_MS: i32 = 250;

/// A connection's send half, shared by the reactor and the workers
/// that have a dispatch of that connection in hand.
type SendHalf = Arc<Mutex<NbSender>>;

/// A dispatch handed to the worker pool.
struct Job {
    header: RequestHeader,
    args: Vec<Value>,
    /// The buffer the reply is written into.
    buf: Vec<u8>,
    /// Where the worker writes the reply.
    send: SendHalf,
    /// Shared with the reactor so a CancelRequest arriving mid-dispatch
    /// suppresses the reply.
    canceled: Arc<Mutex<HashSet<u32>>>,
}

/// One accepted connection in the reactor's table.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    send: SendHalf,
    assembler: FragmentAssembler,
    canceled: Arc<Mutex<HashSet<u32>>>,
    /// Reads suspended: the send queue crossed [`HIGH_WATER`].
    paused: bool,
    /// Drain the send queue, then drop (set after MessageError).
    closing: bool,
}

impl Conn {
    /// The reactor's one way to the send half. A worker holds the same
    /// lock only to queue a reply and do a nonblocking write.
    fn send_half(&self) -> MutexGuard<'_, NbSender> {
        self.send.lock()
    }
}

impl Drop for Conn {
    /// A worker still dispatching for this connection keeps its own
    /// handle of the socket alive, so the peer is told now rather than
    /// when that worker lets go.
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Queue `frames` on a connection's send half under one hold, so a
/// fragment train stays contiguous, and write as much as the socket
/// takes. Returns false when the write failed.
fn send_frames(
    send: &mut NbSender,
    frames: impl IntoIterator<Item = FrameBuf>,
    metrics: &OrbMetrics,
) -> bool {
    for frame in frames {
        metrics.add(&metrics.bytes_sent, frame.len() as u64);
        send.enqueue(frame);
    }
    send.on_writable().is_ok()
}

/// Handle kept by [`crate::orb::Orb`]: joining it completes shutdown.
pub(crate) struct ReactorCore {
    pub(crate) join: JoinHandle<()>,
}

/// Spawn the reactor thread and its worker pool over `listener`.
#[allow(clippy::too_many_arguments)] // the ORB's full server context
pub(crate) fn spawn(
    name: String,
    listener: TcpListener,
    adapter: Arc<ObjectAdapter>,
    metrics: Arc<OrbMetrics>,
    order: ByteOrder,
    shutdown: Arc<AtomicBool>,
    workers: usize,
    pool: Arc<BufPool>,
) -> std::io::Result<ReactorCore> {
    listener.set_nonblocking(true)?;
    let (wake_tx, wake_rx) = wake_pair()?;
    let wake_tx = Arc::new(wake_tx);

    let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
    // Workers share one receiver behind a mutex: the holder parks in
    // recv, the rest park on the lock, and each delivered job releases
    // the lock to the next worker. Classic hand-off pool, no condvar.
    let job_rx = Arc::new(
        Mutex::new_labeled(job_rx, "orb::reactor::WorkerPool.jobs").allow_hold_across_blocking(
            "worker parks in recv() while holding; the hold IS the hand-off discipline",
        ),
    );
    for i in 0..workers.max(1) {
        let job_rx = Arc::clone(&job_rx);
        let adapter = Arc::clone(&adapter);
        let metrics = Arc::clone(&metrics);
        let wake_tx = Arc::clone(&wake_tx);
        let pool = Arc::clone(&pool);
        // Deliberately detached: a worker stalled inside a servant must
        // not wedge shutdown. Workers exit when the job sender drops
        // with the reactor.
        std::thread::Builder::new()
            .name(format!("orb-{name}-worker-{i}"))
            .spawn(move || worker_loop(job_rx, adapter, metrics, order, wake_tx, pool))?;
    }

    let join = std::thread::Builder::new()
        .name(format!("orb-{name}-reactor"))
        .spawn(move || {
            Reactor {
                listener,
                wake_rx,
                conns: HashMap::new(),
                next_conn_id: 1,
                job_tx,
                shutdown,
                adapter,
                metrics,
                order,
                pool,
            }
            .run()
        })?;
    Ok(ReactorCore { join })
}

/// A connected loopback socket pair: workers write a byte to `.0` when
/// a connection needs the reactor (bytes left queued, or a failed
/// write), the reactor polls `.1`. (std offers no `socketpair`, so one
/// is improvised from a throwaway listener.)
fn wake_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    Ok((tx, rx))
}

fn worker_loop(
    jobs: Arc<Mutex<Receiver<Job>>>,
    adapter: Arc<ObjectAdapter>,
    metrics: Arc<OrbMetrics>,
    order: ByteOrder,
    wake_tx: Arc<TcpStream>,
    pool: Arc<BufPool>,
) {
    loop {
        let job = match jobs.lock().recv() {
            Ok(job) => job,
            Err(_) => return, // reactor gone, queue drained
        };
        let header = job.header;
        let reply = dispatch_reply(
            header.request_id,
            &header.object_key,
            &header.operation,
            &job.args,
            &adapter,
            &metrics,
            order,
            job.buf,
        )
        .map(|frame| PooledBuf::new(frame, Arc::clone(&pool)));
        if job.canceled.lock().remove(&header.request_id) {
            // The client's deadline already expired; the reply would be
            // bytes it discards.
            continue;
        }
        if !header.response_expected {
            continue;
        }
        if let Ok(frames) = reply.and_then(|frame| reply_frames(frame, &pool, &metrics)) {
            write_reply(&job.send, frames, &wake_tx, &metrics);
        }
    }
}

/// The worker's side of a reply: queue the frames on the connection and
/// write them from this thread. The reactor is woken only when it has
/// something to do for this connection — bytes the socket would not
/// take are left for POLLOUT, a failed write leaves a connection to
/// reap — and finds out what when it rebuilds its poll set.
fn write_reply(send: &SendHalf, frames: Vec<FrameBuf>, wake_tx: &TcpStream, metrics: &OrbMetrics) {
    let needs_reactor = {
        let mut send = send.lock();
        !send_frames(&mut send, frames, metrics) || send.wants_write()
    };
    if needs_reactor {
        // Nonblocking: a full wake buffer already guarantees a pending
        // wake, so WouldBlock is success, not failure.
        let _ = (&*wake_tx).write(&[1u8]);
    }
}

/// A reply frame as it goes out: whole, or a fragment train when the
/// body exceeds [`FRAGMENT_BODY_SIZE`].
fn reply_frames(
    frame: PooledBuf,
    pool: &Arc<BufPool>,
    metrics: &OrbMetrics,
) -> WireResult<Vec<FrameBuf>> {
    if frame.len() <= 12 + FRAGMENT_BODY_SIZE {
        return Ok(vec![frame.into()]);
    }
    let fragments = giop::split_into_fragments(&frame, FRAGMENT_BODY_SIZE, pool)?;
    metrics.add(&metrics.fragmented_replies, 1);
    metrics.add(
        &metrics.fragments_sent,
        fragments.len().saturating_sub(1) as u64,
    );
    Ok(fragments.into_iter().map(FrameBuf::from).collect())
}

/// What handling one decoded message means for its connection.
enum ConnAction {
    Continue,
    /// Drop the connection immediately (orderly close or peer error).
    Close,
    /// Send MessageError, drain, then drop.
    ProtocolError,
}

struct Reactor {
    listener: TcpListener,
    wake_rx: TcpStream,
    conns: HashMap<u64, Conn>,
    next_conn_id: u64,
    job_tx: Sender<Job>,
    shutdown: Arc<AtomicBool>,
    adapter: Arc<ObjectAdapter>,
    metrics: Arc<OrbMetrics>,
    order: ByteOrder,
    pool: Arc<BufPool>,
}

/// What a pollfd entry refers to.
enum Target {
    Listener,
    Wake,
    Conn(u64),
}

impl Reactor {
    fn run(mut self) {
        loop {
            let (mut fds, targets) = self.build_poll_set();
            if poll_fds(&mut fds, POLL_TIMEOUT_MS).is_err() {
                // poll(2) itself failing (EINVAL/ENOMEM) is not
                // recoverable by retry with the same set; treat as
                // shutdown rather than spin.
                break;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let mut dead: Vec<u64> = Vec::new();
            for (fd, target) in fds.iter().zip(&targets) {
                match target {
                    Target::Listener => {
                        if fd.ready(POLLIN) {
                            self.accept_ready();
                        }
                    }
                    Target::Wake => {
                        if fd.ready(POLLIN) || fd.failed() {
                            drain_wake(&self.wake_rx);
                        }
                    }
                    Target::Conn(id) => {
                        if fd.revents == 0 {
                            continue;
                        }
                        if !self.service_conn(*id, fd.ready(POLLIN), fd.ready(POLLOUT)) {
                            dead.push(*id);
                        }
                    }
                }
            }
            for id in dead {
                self.conns.remove(&id);
            }
        }
        self.close_all();
    }

    /// One pass over the connection table: what each send half holds
    /// right now (workers write to it between passes) decides whether
    /// the connection is reaped, paused, or watched for POLLOUT. A
    /// worker that changes that answer writes the wake byte AFTER it
    /// released the send lock, so the poll that follows this pass either
    /// saw the change here or returns at once and comes back.
    fn build_poll_set(&mut self) -> (Vec<PollFd>, Vec<Target>) {
        let mut fds = Vec::with_capacity(2 + self.conns.len());
        let mut targets = Vec::with_capacity(2 + self.conns.len());
        fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
        targets.push(Target::Listener);
        fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
        targets.push(Target::Wake);
        let metrics = &self.metrics;
        self.conns.retain(|id, conn| {
            let (queued, failed) = {
                let send = conn.send_half();
                (send.queued_bytes(), send.failed())
            };
            if failed || (conn.closing && queued == 0) {
                return false;
            }
            if !conn.paused && queued > HIGH_WATER {
                conn.paused = true;
                metrics.add(&metrics.backpressure_pauses, 1);
            } else if conn.paused && queued < LOW_WATER {
                conn.paused = false;
            }
            let mut events = 0i16;
            if !conn.paused && !conn.closing {
                events |= POLLIN;
            }
            if queued > 0 {
                events |= POLLOUT;
            }
            // Registering with no events still reports errors/hangups,
            // which is exactly what a paused connection needs.
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            targets.push(Target::Conn(*id));
            true
        });
        (fds, targets)
    }

    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            let Ok(sender) = NbSender::new(&stream) else {
                continue;
            };
            let id = self.next_conn_id;
            self.next_conn_id += 1;
            self.conns.insert(
                id,
                Conn {
                    stream,
                    reader: FrameReader::default(),
                    send: Arc::new(Mutex::new_labeled(sender, "orb::reactor::Conn.send")),
                    assembler: FragmentAssembler::new(),
                    canceled: Arc::new(Mutex::new_labeled(
                        HashSet::new(),
                        "orb::reactor::Conn.canceled",
                    )),
                    paused: false,
                    closing: false,
                },
            );
        }
    }

    /// Service readiness on one connection. Returns false when the
    /// connection must be dropped.
    fn service_conn(&mut self, id: u64, readable: bool, writable: bool) -> bool {
        if writable {
            let Some(conn) = self.conns.get(&id) else {
                return true;
            };
            if conn.send_half().on_writable().is_err() {
                return false;
            }
        }
        if readable && !self.read_conn(id) {
            return false;
        }
        // Errors/hangups with no readable data surface as a failed read
        // next round (poll keeps reporting them), so no special case.
        true
    }

    /// Read once from the socket, reassemble frames, and act on each
    /// complete message. Returns false when the connection must drop.
    fn read_conn(&mut self, id: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&id) else {
            return true;
        };
        // One read per readiness event: poll is level-triggered, so what
        // the buffer had no room for is reported again next round. An
        // error here is the peer hanging up (or the socket failing).
        if conn.reader.fill(&conn.stream).is_err() {
            return false;
        }
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return true;
            };
            let pushed = match conn.reader.next_frame() {
                Ok(Some(frame)) => {
                    self.metrics
                        .add(&self.metrics.bytes_received, frame.len() as u64);
                    conn.assembler.push_frame(frame)
                }
                Ok(None) => return true,
                // Framing garbage (bad magic, oversized header): GIOP
                // says tell the peer, then hang up.
                Err(_) => return self.protocol_error(id),
            };
            let action = match pushed {
                Ok(None) => ConnAction::Continue, // mid-train
                Ok(Some(msg)) => self.handle_message(id, msg),
                Err(_) => ConnAction::ProtocolError,
            };
            match action {
                ConnAction::Continue => {}
                ConnAction::Close => return false,
                ConnAction::ProtocolError => return self.protocol_error(id),
            }
        }
    }

    fn handle_message(&mut self, id: u64, msg: GiopMessage) -> ConnAction {
        match msg {
            GiopMessage::Request { header, args } => {
                self.metrics.add(&self.metrics.requests_served, 1);
                let Some(conn) = self.conns.get(&id) else {
                    return ConnAction::Close;
                };
                let now = reply_now(
                    header.request_id,
                    &header.object_key,
                    &header.operation,
                    &args,
                    &self.adapter,
                    &self.metrics,
                    self.order,
                    self.pool.take(),
                );
                let buf = match now {
                    Now::Answered(reply) => {
                        self.metrics.add(&self.metrics.requests_inline, 1);
                        return self.send_reply(conn, header.response_expected, reply);
                    }
                    Now::Deferred(buf) => buf,
                };
                let job = Job {
                    header,
                    args,
                    buf,
                    send: Arc::clone(&conn.send),
                    canceled: Arc::clone(&conn.canceled),
                };
                if self.job_tx.send(job).is_err() {
                    // Worker pool gone: only happens at teardown.
                    return ConnAction::Close;
                }
                ConnAction::Continue
            }
            GiopMessage::LocateRequest {
                request_id,
                object_key,
            } => {
                self.metrics.add(&self.metrics.locates_served, 1);
                let status = if self.adapter.contains(&object_key) {
                    LocateStatus::ObjectHere
                } else {
                    LocateStatus::UnknownObject
                };
                let reply = GiopMessage::LocateReply {
                    request_id,
                    status,
                    forward: None,
                };
                let (Ok(frame), Some(conn)) = (
                    reply.encode_pooled(self.order, &self.pool),
                    self.conns.get(&id),
                ) else {
                    return ConnAction::Close;
                };
                if send_frames(&mut conn.send_half(), [frame.into()], &self.metrics) {
                    ConnAction::Continue
                } else {
                    ConnAction::Close
                }
            }
            GiopMessage::CancelRequest { request_id } => {
                let Some(conn) = self.conns.get(&id) else {
                    return ConnAction::Close;
                };
                let mut set = conn.canceled.lock();
                if set.len() >= MAX_REMEMBERED_CANCELS {
                    set.clear();
                }
                set.insert(request_id);
                ConnAction::Continue
            }
            GiopMessage::CloseConnection | GiopMessage::MessageError => ConnAction::Close,
            // Clients do not send replies; lone Fragment frames are
            // already rejected by the assembler.
            GiopMessage::Reply { .. }
            | GiopMessage::LocateReply { .. }
            | GiopMessage::Fragment { .. } => ConnAction::ProtocolError,
        }
    }

    /// Queue the reply of a request answered on this thread, as a
    /// worker would queue it.
    fn send_reply(
        &self,
        conn: &Conn,
        response_expected: bool,
        reply: WireResult<Vec<u8>>,
    ) -> ConnAction {
        if !response_expected {
            return ConnAction::Continue;
        }
        let frame = reply.map(|frame| PooledBuf::new(frame, Arc::clone(&self.pool)));
        let Ok(frames) = frame.and_then(|frame| reply_frames(frame, &self.pool, &self.metrics))
        else {
            // As on a worker: a reply that cannot be framed is not sent.
            return ConnAction::Continue;
        };
        if send_frames(&mut conn.send_half(), frames, &self.metrics) {
            ConnAction::Continue
        } else {
            ConnAction::Close
        }
    }

    /// Queue a GIOP MessageError, stop reading, and let the send queue
    /// drain before the drop. Returns false when the connection cannot
    /// even be flushed (drop it now).
    fn protocol_error(&mut self, id: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&id) else {
            return true;
        };
        conn.closing = true;
        conn.assembler.reset();
        let frame = GiopMessage::MessageError.encode_pooled(self.order, &self.pool);
        send_frames(
            &mut conn.send_half(),
            frame.ok().map(FrameBuf::from),
            &self.metrics,
        )
    }

    /// Shutdown path: tell every peer its outstanding requests were not
    /// processed (CloseConnection), push the frames best-effort, drop
    /// everything.
    fn close_all(&mut self) {
        let close = GiopMessage::CloseConnection.encode(self.order).ok();
        for (_, conn) in self.conns.drain() {
            if let Some(frame) = close.clone() {
                let mut send = conn.send_half();
                send.enqueue(frame);
                let _ = send.on_writable();
            }
        }
    }
}

/// Swallow pending wake bytes; the work they announce is found when
/// the poll set is rebuilt.
fn drain_wake(wake_rx: &TcpStream) {
    let mut sink = [0u8; 256];
    loop {
        match (&*wake_rx).read(&mut sink) {
            Ok(0) => return,   // workers all gone
            Ok(_) => continue, // coalesce every pending wake
            Err(_) => return,  // WouldBlock: drained
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webfindit_wire::poll::POLLHUP;

    /// A reactor over one accepted connection, its peer, and both ends
    /// of the wake pair; nothing runs — the test drives the steps.
    fn reactor_with_one_conn() -> (Reactor, TcpStream, Arc<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (wake_tx, wake_rx) = wake_pair().unwrap();
        let (job_tx, _job_rx) = std::sync::mpsc::channel();
        let mut reactor = Reactor {
            listener,
            wake_rx,
            conns: HashMap::new(),
            next_conn_id: 1,
            job_tx,
            shutdown: Arc::new(AtomicBool::new(false)),
            adapter: Arc::new(ObjectAdapter::new()),
            metrics: Arc::new(OrbMetrics::default()),
            order: ByteOrder::BigEndian,
            pool: BufPool::shared(),
        };
        while reactor.conns.is_empty() {
            reactor.accept_ready();
        }
        (reactor, peer, Arc::new(wake_tx))
    }

    fn wait_for(fd: &TcpStream, events: i16) -> i16 {
        let mut fds = [PollFd::new(fd.as_raw_fd(), events)];
        assert_eq!(poll_fds(&mut fds, 10_000).unwrap(), 1, "event never came");
        fds[0].revents
    }

    /// A worker whose write fails on a dead peer must get the connection
    /// reaped now: it wakes the reactor, and the rebuilt poll set no
    /// longer has the connection. (Without the wake byte the reactor
    /// would sit out its 250 ms poll timeout first.)
    #[test]
    fn a_failed_worker_write_wakes_the_reactor_and_the_connection_is_reaped() {
        let (mut reactor, peer, wake_tx) = reactor_with_one_conn();
        let send = Arc::clone(&reactor.conns.values().next().unwrap().send);
        let reply = |id| {
            let frame = giop::reply_ok(id, Value::string("r"))
                .encode(ByteOrder::BigEndian)
                .unwrap();
            vec![FrameBuf::from(frame)]
        };

        // A healthy write is the common case and costs the reactor
        // nothing: no residue, no wake.
        write_reply(&send, reply(1), &wake_tx, &reactor.metrics);
        let (fds, _) = reactor.build_poll_set();
        assert_eq!(fds.len(), 3, "listener, wake and the connection");
        assert_eq!(poll_fds(&mut [fds[1]], 0).unwrap(), 0, "no wake byte");

        // The peer dies with that reply unread, which resets the
        // connection; wait until the reset has reached this side.
        wait_for(&peer, POLLIN);
        drop(peer);
        let conn_fd = &reactor.conns.values().next().unwrap().stream;
        assert_ne!(wait_for(conn_fd, 0) & POLLHUP, 0);

        write_reply(&send, reply(2), &wake_tx, &reactor.metrics);
        assert!(send.lock().failed());
        wait_for(&reactor.wake_rx, POLLIN);
        let (fds, _) = reactor.build_poll_set();
        assert_eq!(fds.len(), 2, "the dead connection is gone");
        assert!(reactor.conns.is_empty());
    }
}
