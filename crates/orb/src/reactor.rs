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
//!   ([`webfindit_wire::poll`]). Reads are incremental
//!   ([`NbFramed::on_readable`]) so a slow or malicious peer that
//!   trickles half a header costs a buffer, not a blocked thread;
//! * **a bounded worker pool** executes servant dispatch off the
//!   reactor thread, so a stalled servant blocks one worker, never the
//!   event loop. Workers hand encoded reply frames back through a
//!   completion queue and wake the reactor via a loopback socket pair;
//! * **write backpressure**: replies queue per connection
//!   ([`NbFramed`]'s send queue) and drain on write readiness. When a
//!   connection's queue crosses the high-water mark the reactor stops
//!   *reading* from it — a client that will not drain its replies
//!   cannot balloon server memory by pipelining more requests;
//! * **fragment streaming**: replies whose encoded body exceeds
//!   [`FRAGMENT_BODY_SIZE`] are split into a GIOP fragment train
//!   ([`giop::split_into_fragments`]), so one multi-megabyte reply
//!   becomes a sequence of bounded buffers interleaved with the
//!   connection's other traffic at frame granularity.
//!
//! Protocol semantics: CancelRequest suppresses the reply of a
//! still-running dispatch, servant panics become system exceptions,
//! protocol garbage earns a GIOP MessageError and a closed connection,
//! and shutdown broadcasts CloseConnection so clients classify their
//! outstanding requests as safely retriable.

use crate::adapter::ObjectAdapter;
use crate::metrics::OrbMetrics;
use crate::orb::{dispatch_reply, MAX_REMEMBERED_CANCELS};
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use webfindit_base::sync::Mutex;
use webfindit_wire::cdr::ByteOrder;
use webfindit_wire::giop::{
    self, FragmentAssembler, GiopMessage, LocateStatus, RequestHeader, FRAGMENT_BODY_SIZE,
};
use webfindit_wire::poll::{poll_fds, PollFd, POLLIN, POLLOUT};
use webfindit_wire::transport::NbFramed;
use webfindit_wire::{BufPool, FrameBuf, Value, WireResult};

/// Per-connection send-queue depth above which the reactor stops
/// reading from that connection until the queue drains.
const HIGH_WATER: usize = 1 << 20;
/// Queue depth at which a paused connection resumes reading.
const LOW_WATER: usize = HIGH_WATER / 2;
/// Fallback poll timeout so a lost wake can delay, never deadlock,
/// shutdown or completion delivery.
const POLL_TIMEOUT_MS: i32 = 250;

/// A dispatch handed to the worker pool.
struct Job {
    conn_id: u64,
    header: RequestHeader,
    args: Vec<Value>,
    /// Shared with the reactor so a CancelRequest arriving mid-dispatch
    /// suppresses the reply.
    canceled: Arc<Mutex<HashSet<u32>>>,
}

/// Encoded reply frames ready to be queued on a connection.
struct Completion {
    conn_id: u64,
    frames: Vec<FrameBuf>,
}

/// State shared between the reactor thread and the worker pool.
struct Shared {
    completions: Mutex<Vec<Completion>>,
    /// Write end of the wake pair; one byte means "drain completions".
    wake_tx: TcpStream,
}

impl Shared {
    fn push(&self, completion: Completion) {
        self.completions.lock().push(completion);
        // Nonblocking: a full wake buffer already guarantees a pending
        // wake, so WouldBlock is success, not failure.
        let _ = (&self.wake_tx).write(&[1u8]);
    }
}

/// One accepted connection in the reactor's table.
struct Conn {
    nb: NbFramed,
    assembler: FragmentAssembler,
    canceled: Arc<Mutex<HashSet<u32>>>,
    /// Reads suspended: the send queue crossed [`HIGH_WATER`].
    paused: bool,
    /// Drain the send queue, then drop (set after MessageError).
    closing: bool,
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
    let shared = Arc::new(Shared {
        completions: Mutex::new_labeled(Vec::new(), "orb::reactor::Shared.completions"),
        wake_tx,
    });

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
        let shared = Arc::clone(&shared);
        let pool = Arc::clone(&pool);
        // Deliberately detached: a worker stalled inside a servant must
        // not wedge shutdown. Workers exit when the job sender drops
        // with the reactor.
        std::thread::Builder::new()
            .name(format!("orb-{name}-worker-{i}"))
            .spawn(move || worker_loop(job_rx, adapter, metrics, order, shared, pool))?;
    }

    let join = std::thread::Builder::new()
        .name(format!("orb-{name}-reactor"))
        .spawn(move || {
            Reactor {
                listener,
                wake_rx,
                conns: HashMap::new(),
                next_conn_id: 1,
                shared,
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

/// A connected loopback socket pair: workers write to `.0`, the reactor
/// polls `.1`. (std offers no `socketpair`, so one is improvised from a
/// throwaway listener.)
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
    shared: Arc<Shared>,
    pool: Arc<BufPool>,
) {
    loop {
        let job = match jobs.lock().recv() {
            Ok(job) => job,
            Err(_) => return, // reactor gone, queue drained
        };
        let reply = dispatch_reply(&job.header, &job.args, &adapter, &metrics);
        if job.canceled.lock().remove(&job.header.request_id) {
            // The client's deadline already expired; the reply would be
            // bytes it discards.
            continue;
        }
        if !job.header.response_expected {
            continue;
        }
        if let Ok(frames) = encode_reply_frames(&reply, order, &pool, &metrics) {
            shared.push(Completion {
                conn_id: job.conn_id,
                frames,
            });
        }
    }
}

/// Encode `msg` into one pooled frame, or a fragment train when the
/// body exceeds [`FRAGMENT_BODY_SIZE`].
fn encode_reply_frames(
    msg: &GiopMessage,
    order: ByteOrder,
    pool: &Arc<BufPool>,
    metrics: &OrbMetrics,
) -> WireResult<Vec<FrameBuf>> {
    let frame = msg.encode_pooled(order, pool)?;
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
    shared: Arc<Shared>,
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
            // Completions drain strictly AFTER the wake socket: workers
            // push a completion and THEN write the wake byte, so once a
            // wake byte has been consumed the matching completion is
            // guaranteed visible here. Draining in the other order can
            // eat the wake byte for a completion it never saw, leaving
            // that reply to wait out a full poll timeout.
            self.drain_completions();
        }
        self.close_all();
    }

    fn build_poll_set(&self) -> (Vec<PollFd>, Vec<Target>) {
        let mut fds = Vec::with_capacity(2 + self.conns.len());
        let mut targets = Vec::with_capacity(2 + self.conns.len());
        fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
        targets.push(Target::Listener);
        fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
        targets.push(Target::Wake);
        for (id, conn) in &self.conns {
            let mut events = 0i16;
            if !conn.paused && !conn.closing {
                events |= POLLIN;
            }
            if conn.nb.wants_write() {
                events |= POLLOUT;
            }
            // Registering with no events still reports errors/hangups,
            // which is exactly what a paused connection needs.
            fds.push(PollFd::new(conn.nb.stream().as_raw_fd(), events));
            targets.push(Target::Conn(*id));
        }
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
            let nb = match NbFramed::new(stream) {
                Ok(nb) => nb,
                Err(_) => continue,
            };
            let id = self.next_conn_id;
            self.next_conn_id += 1;
            self.conns.insert(
                id,
                Conn {
                    nb,
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

    /// Queue every completed reply on its connection and start the
    /// frames moving; completions for connections that died in the
    /// meantime are dropped.
    fn drain_completions(&mut self) {
        let completions: Vec<Completion> = {
            let mut queue = self.shared.completions.lock();
            std::mem::take(&mut *queue)
        };
        let mut dead: Vec<u64> = Vec::new();
        for completion in completions {
            let Some(conn) = self.conns.get_mut(&completion.conn_id) else {
                continue;
            };
            for frame in completion.frames {
                self.metrics
                    .add(&self.metrics.bytes_sent, frame.len() as u64);
                conn.nb.enqueue(frame);
            }
            if !flush_conn(conn, &self.metrics) {
                dead.push(completion.conn_id);
            }
        }
        for id in dead {
            self.conns.remove(&id);
        }
    }

    /// Service readiness on one connection. Returns false when the
    /// connection must be dropped.
    fn service_conn(&mut self, id: u64, readable: bool, writable: bool) -> bool {
        if writable {
            let Some(conn) = self.conns.get_mut(&id) else {
                return true;
            };
            if !flush_conn(conn, &self.metrics) {
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

    /// Read whatever the socket has, reassemble frames, and act on each
    /// complete message. Returns false when the connection must drop.
    fn read_conn(&mut self, id: u64) -> bool {
        let read = {
            let Some(conn) = self.conns.get_mut(&id) else {
                return true;
            };
            match conn.nb.on_readable() {
                Ok(read) => read,
                // Framing garbage (bad magic, oversized header): GIOP
                // says tell the peer, then hang up.
                Err(_) => return self.protocol_error(id),
            }
        };
        for frame in &read.frames {
            self.metrics
                .add(&self.metrics.bytes_received, frame.len() as u64);
            let pushed = {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return true;
                };
                conn.assembler.push_frame(frame)
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
        let Some(conn) = self.conns.get_mut(&id) else {
            return true;
        };
        if read.closed {
            return false;
        }
        // Replies enqueued inline (LocateReply) start draining now.
        flush_conn(conn, &self.metrics)
    }

    fn handle_message(&mut self, id: u64, msg: GiopMessage) -> ConnAction {
        match msg {
            GiopMessage::Request { header, args } => {
                self.metrics.add(&self.metrics.requests_served, 1);
                let Some(conn) = self.conns.get(&id) else {
                    return ConnAction::Close;
                };
                let job = Job {
                    conn_id: id,
                    header,
                    args,
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
                match reply.encode_pooled(self.order, &self.pool) {
                    Ok(frame) => {
                        let Some(conn) = self.conns.get_mut(&id) else {
                            return ConnAction::Close;
                        };
                        self.metrics
                            .add(&self.metrics.bytes_sent, frame.len() as u64);
                        conn.nb.enqueue(frame);
                        ConnAction::Continue
                    }
                    Err(_) => ConnAction::Close,
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

    /// Queue a GIOP MessageError, stop reading, and let the send queue
    /// drain before the drop. Returns false when the connection cannot
    /// even be flushed (drop it now).
    fn protocol_error(&mut self, id: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&id) else {
            return true;
        };
        if let Ok(frame) = GiopMessage::MessageError.encode_pooled(self.order, &self.pool) {
            self.metrics
                .add(&self.metrics.bytes_sent, frame.len() as u64);
            conn.nb.enqueue(frame);
        }
        conn.closing = true;
        conn.assembler.reset();
        flush_conn(conn, &self.metrics)
    }

    /// Shutdown path: tell every peer its outstanding requests were not
    /// processed (CloseConnection), push the frames best-effort, drop
    /// everything.
    fn close_all(&mut self) {
        let close = GiopMessage::CloseConnection.encode(self.order).ok();
        for (_, mut conn) in self.conns.drain() {
            if let Some(frame) = close.clone() {
                conn.nb.enqueue(frame);
                let _ = conn.nb.on_writable();
            }
            conn.nb.shutdown();
        }
    }
}

/// Push queued bytes, then recompute the backpressure state. Returns
/// false when the connection must be dropped (write error, or `closing`
/// with an empty queue).
fn flush_conn(conn: &mut Conn, metrics: &OrbMetrics) -> bool {
    if conn.nb.on_writable().is_err() {
        return false;
    }
    let queued = conn.nb.queued_bytes();
    if conn.closing && queued == 0 {
        return false;
    }
    if !conn.paused && queued > HIGH_WATER {
        conn.paused = true;
        metrics.add(&metrics.backpressure_pauses, 1);
    } else if conn.paused && queued < LOW_WATER {
        conn.paused = false;
    }
    true
}

/// Swallow pending wake bytes; the actual work is the completion queue.
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
