//! Multiplexed, deadline-aware IIOP channels.
//!
//! The seed ORB pooled one TCP connection per endpoint and locked it
//! across the whole send-and-wait of every call, so concurrent callers
//! to the same endpoint serialized on the connection mutex. This module
//! replaces that with the channel architecture real ORBs use:
//!
//! * an [`IiopChannel`] per advertised endpoint owns a small bounded
//!   pool of multiplexed connections ([`MuxConn`]); callers are spread
//!   round-robin and *share* each connection concurrently;
//! * each `MuxConn` runs a dedicated reader thread that demultiplexes
//!   GIOP `Reply`/`LocateReply` frames by `request_id` and hands each to
//!   the parked caller that registered it — the writer mutex is held
//!   only for the microseconds of `send_frame`, never across the wait;
//! * deadlines: a caller waits at most its [`CallOptions::deadline`];
//!   on expiry it unregisters, fires a best-effort GIOP `CancelRequest`
//!   at the server, and surfaces `DeadlineExpired`;
//! * retry safety: the channel classifies every failure by whether the
//!   request *provably never reached the peer's dispatcher* (connect
//!   failure, dead-at-acquire, incomplete send, or an orderly GIOP
//!   `CloseConnection` — which the spec defines as "pending requests
//!   were not processed"). Only those are retried; an ambiguous drop
//!   after a complete send is surfaced instead of resent, because a
//!   blind resend can execute a non-idempotent operation twice.

use crate::chaos::ChaosRegistry;
use crate::metrics::{EndpointLatency, LatencyMetrics, OrbMetrics};
use crate::OrbError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webfindit_base::sync::{detect, Mutex};
use webfindit_wire::cdr::ByteOrder;
use webfindit_wire::giop::{FragmentAssembler, GiopMessage};
use webfindit_wire::transport::{FramedTcp, Transport};
use webfindit_wire::WireError;

/// Per-call policy knobs, threaded from the application layers down to
/// the wire.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallOptions {
    /// Maximum time to wait for the reply. `None` waits indefinitely
    /// (bounded only by connection failure).
    pub deadline: Option<Duration>,
    /// When to transparently retry a failed call.
    pub retry: RetryPolicy,
}

impl CallOptions {
    /// Options with a deadline and the default retry policy.
    pub fn with_deadline(deadline: Duration) -> Self {
        CallOptions {
            deadline: Some(deadline),
            ..CallOptions::default()
        }
    }
}

/// Governs transparent retries of remote calls.
///
/// A retry is only ever attempted when the failure proves the request
/// never reached the peer's dispatcher; `attempts` bounds how many
/// times the whole call may be tried (first try included).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts allowed (1 = never retry).
    pub attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { attempts: 2 }
    }
}

impl RetryPolicy {
    /// Never retry, even when provably safe.
    pub fn never() -> Self {
        RetryPolicy { attempts: 1 }
    }
}

/// Configuration of the per-endpoint circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker rejects calls before admitting one
    /// half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(50),
        }
    }
}

/// Observable circuit-breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow normally; failures are being counted.
    Closed,
    /// Too many consecutive failures: calls are rejected without
    /// touching the wire until the cooldown elapses.
    Open,
    /// One probe call is in flight; its outcome decides Open vs Closed.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    probe_in_flight: bool,
}

/// A per-endpoint circuit breaker: closed → open after
/// `failure_threshold` consecutive failures → half-open after
/// `cooldown` (one probe admitted) → closed again on probe success.
///
/// The survival rationale is the paper's autonomy story: sites leave
/// the federation without coordination, and a discovery traversal that
/// re-pays a connect timeout for every probe of a dead site never
/// finishes educating the user. An open breaker converts those repeated
/// waits into immediate, retriable-elsewhere rejections.
struct Breaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
}

impl Breaker {
    fn new(config: BreakerConfig) -> Breaker {
        Breaker {
            config,
            inner: Mutex::new_labeled(
                BreakerInner {
                    state: BreakerState::Closed,
                    consecutive_failures: 0,
                    opened_at: None,
                    probe_in_flight: false,
                },
                "orb::Breaker.inner",
            ),
        }
    }

    fn state(&self) -> BreakerState {
        let inner = self.inner.lock();
        // An open breaker past its cooldown is *about to* admit a probe;
        // report it as open until a call actually transitions it.
        inner.state
    }

    /// Admission decision for one call. `Ok(is_probe)` lets the call
    /// through; `Err(())` means the breaker is open and the call must
    /// fail fast without touching the wire.
    fn admit(&self, metrics: &OrbMetrics) -> Result<bool, ()> {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => Ok(false),
            BreakerState::Open => {
                let cooled = inner
                    .opened_at
                    .is_some_and(|at| at.elapsed() >= self.config.cooldown);
                if cooled {
                    inner.state = BreakerState::HalfOpen;
                    inner.probe_in_flight = true;
                    metrics.add(&metrics.breaker_probes, 1);
                    Ok(true)
                } else {
                    metrics.add(&metrics.breaker_rejections, 1);
                    Err(())
                }
            }
            BreakerState::HalfOpen => {
                if inner.probe_in_flight {
                    metrics.add(&metrics.breaker_rejections, 1);
                    Err(())
                } else {
                    inner.probe_in_flight = true;
                    metrics.add(&metrics.breaker_probes, 1);
                    Ok(true)
                }
            }
        }
    }

    fn on_success(&self, metrics: &OrbMetrics) {
        let mut inner = self.inner.lock();
        if inner.state != BreakerState::Closed {
            metrics.add(&metrics.breaker_closed, 1);
        }
        inner.state = BreakerState::Closed;
        inner.consecutive_failures = 0;
        inner.opened_at = None;
        inner.probe_in_flight = false;
    }

    fn on_failure(&self, was_probe: bool, metrics: &OrbMetrics) {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::HalfOpen if was_probe => {
                // The probe failed: back to open, restart the cooldown.
                inner.state = BreakerState::Open;
                inner.opened_at = Some(Instant::now());
                inner.probe_in_flight = false;
                metrics.add(&metrics.breaker_opened, 1);
            }
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.config.failure_threshold {
                    inner.state = BreakerState::Open;
                    inner.opened_at = Some(Instant::now());
                    metrics.add(&metrics.breaker_opened, 1);
                }
            }
            // Already open (a straggler from before the trip), or a
            // non-probe failure racing a half-open probe: no transition.
            _ => {}
        }
    }
}

/// How a failed call relates to the peer: decides retry safety.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FailureClass {
    /// The request never left this process (resolve/connect failure,
    /// connection already dead, or the frame was not fully written).
    /// Retrying — or falling over to an alternate profile — is safe.
    NeverSent,
    /// The peer closed the connection in an orderly way (GIOP
    /// `CloseConnection`), which guarantees outstanding requests were
    /// not processed. Retrying is safe.
    NotProcessed,
    /// The connection died after a complete send with no such
    /// guarantee; the peer may have executed the operation. Retrying
    /// is NOT safe.
    Ambiguous,
}

/// A call failure with its retry-safety classification.
#[derive(Debug)]
pub(crate) struct CallFailure {
    pub(crate) class: FailureClass,
    pub(crate) error: OrbError,
}

impl CallFailure {
    fn never_sent(error: OrbError) -> Self {
        CallFailure {
            class: FailureClass::NeverSent,
            error,
        }
    }
}

/// What the reader thread hands to a parked caller.
enum ReplyOutcome {
    /// The routed `Reply`/`LocateReply` for this caller's request id.
    Message(GiopMessage),
    /// Orderly `CloseConnection`: provably not processed.
    ClosedUnprocessed,
    /// Connection failure or protocol desync: outcome unknowable.
    Dropped(String),
}

/// One multiplexed connection: a shared writer plus a reader thread
/// that routes replies by request id.
struct MuxConn {
    writer: Mutex<FramedTcp>,
    /// Callers parked for a reply, by request id.
    pending: Mutex<HashMap<u32, SyncSender<ReplyOutcome>>>,
    /// Set once the connection can no longer carry new calls.
    dead: AtomicBool,
    /// Set when death came via orderly `CloseConnection`.
    closed_by_peer: AtomicBool,
}

impl MuxConn {
    /// Mark dead and fail every parked caller with `outcome`.
    fn poison(&self, mk_outcome: impl Fn() -> ReplyOutcome) {
        self.dead.store(true, Ordering::SeqCst);
        let waiters: Vec<_> = self.pending.lock().drain().collect();
        for (_, tx) in waiters {
            let _ = tx.send(mk_outcome());
        }
    }

    /// Sever the socket (unblocks the reader thread).
    fn sever(&self) {
        self.writer.lock().shutdown();
    }
}

/// The reader loop: demultiplex frames until the connection dies.
///
/// Frames pass through a [`FragmentAssembler`], so a reply the server
/// streamed as a GIOP fragment train arrives here as one reassembled
/// message; unfragmented frames decode on the spot.
fn reader_loop(conn: Arc<MuxConn>, mut reader: FramedTcp, metrics: Arc<OrbMetrics>) {
    let mut assembler = FragmentAssembler::new();
    loop {
        let frame = match reader.recv_frame() {
            Ok(f) => f,
            Err(WireError::Closed) => {
                conn.poison(|| ReplyOutcome::Dropped("connection closed by peer".into()));
                return;
            }
            Err(e) => {
                let text = e.to_string();
                conn.poison(|| ReplyOutcome::Dropped(text.clone()));
                return;
            }
        };
        metrics.add(&metrics.bytes_received, frame.len() as u64);
        let mid_train = assembler.in_progress();
        let msg = match assembler.push_frame(&frame) {
            Ok(Some(m)) => {
                if mid_train {
                    metrics.add(&metrics.fragments_reassembled, 1);
                }
                m
            }
            // A valid continuation of an in-progress train: wait for
            // the final fragment.
            Ok(None) => continue,
            Err(e) => {
                // Undecodable bytes mean the stream is desynchronized;
                // evict the connection rather than corrupt later calls.
                metrics.add(&metrics.evictions, 1);
                let text = format!("protocol desync: {e}");
                conn.poison(|| ReplyOutcome::Dropped(text.clone()));
                return;
            }
        };
        match msg {
            GiopMessage::Reply { request_id, .. } | GiopMessage::LocateReply { request_id, .. } => {
                let waiter = conn.pending.lock().remove(&request_id);
                match waiter {
                    Some(tx) => {
                        let _ = tx.send(ReplyOutcome::Message(msg));
                    }
                    None => {
                        // The caller gave up (deadline) before the reply
                        // arrived; drop it, the stream itself is fine.
                        metrics.add(&metrics.late_replies, 1);
                    }
                }
            }
            GiopMessage::CloseConnection => {
                // GIOP: outstanding requests were not processed.
                conn.closed_by_peer.store(true, Ordering::SeqCst);
                conn.poison(|| ReplyOutcome::ClosedUnprocessed);
                return;
            }
            other => {
                // A server must only send replies on this connection; a
                // Request/Fragment/MessageError here means the framing
                // is corrupt or the peer is broken. Evict, so the next
                // call gets a fresh connection instead of inheriting a
                // desynchronized stream.
                metrics.add(&metrics.evictions, 1);
                let text = format!("unexpected message kind {:?}", other.kind());
                conn.poison(|| ReplyOutcome::Dropped(text.clone()));
                return;
            }
        }
    }
}

/// A multiplexed channel to one advertised endpoint.
///
/// Holds up to `max_conns` live [`MuxConn`]s; callers are assigned
/// round-robin and share connections concurrently. Connections are
/// created lazily and replaced when they die.
pub struct IiopChannel {
    endpoint: (String, u16),
    order: ByteOrder,
    metrics: Arc<OrbMetrics>,
    latency: LatencyMetrics,
    conns: Mutex<Vec<Arc<MuxConn>>>,
    max_conns: usize,
    breaker: Breaker,
    /// Shared chaos registry: connection refusals and per-endpoint
    /// fault slots installed on every dialed connection.
    chaos: Arc<ChaosRegistry>,
    /// Resolver from advertised endpoint to a connectable socket addr.
    resolve: Box<dyn Fn() -> Option<std::net::SocketAddr> + Send + Sync>,
}

impl IiopChannel {
    pub(crate) fn new(
        endpoint: (String, u16),
        order: ByteOrder,
        metrics: Arc<OrbMetrics>,
        max_conns: usize,
        breaker: BreakerConfig,
        chaos: Arc<ChaosRegistry>,
        resolve: Box<dyn Fn() -> Option<std::net::SocketAddr> + Send + Sync>,
    ) -> Self {
        IiopChannel {
            endpoint,
            order,
            metrics,
            latency: LatencyMetrics::default(),
            conns: Mutex::new_labeled(Vec::new(), "orb::IiopChannel.conns"),
            max_conns: max_conns.max(1),
            breaker: Breaker::new(breaker),
            chaos,
            resolve,
        }
    }

    /// Current state of this endpoint's circuit breaker.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Reply latency of the round-trips this channel completed.
    pub fn latency(&self) -> EndpointLatency {
        self.latency.snapshot()
    }

    /// Number of currently live multiplexed connections.
    pub fn live_connections(&self) -> usize {
        self.conns
            .lock()
            .iter()
            .filter(|c| !c.dead.load(Ordering::SeqCst))
            .count()
    }

    /// Least-loaded live connection in the pool, if any; prunes dead
    /// connections as a side effect. Must be called with the pool lock
    /// held. Returns `(load, index)`.
    fn pick_least_loaded(&self, conns: &mut Vec<Arc<MuxConn>>) -> Option<(usize, usize)> {
        let before = conns.len();
        conns.retain(|c| !c.dead.load(Ordering::SeqCst));
        let pruned = before - conns.len();
        if pruned > 0 {
            self.metrics.add(&self.metrics.evictions, pruned as u64);
        }
        let mut best: Option<(usize, usize)> = None; // (load, index)
        for (i, c) in conns.iter().enumerate() {
            let load = c.pending.lock().len();
            if best.is_none_or(|(b, _)| load < b) {
                best = Some((load, i));
            }
        }
        best
    }

    /// Pick the least-loaded live connection, pruning dead ones. The
    /// pool grows (up to `max_conns`) only while every existing
    /// connection has calls in flight; at the cap, callers multiplex.
    ///
    /// Dialing happens with the pool lock RELEASED: `dial` blocks in
    /// `TcpStream::connect` (seconds against a dead endpoint), and
    /// holding `conns` across it would stall every concurrent caller
    /// to this endpoint — the exact hold-across-blocking hazard the
    /// `deadlock-detect` feature exists to flag.
    fn acquire(&self) -> Result<Arc<MuxConn>, CallFailure> {
        {
            let mut conns = self.conns.lock();
            match self.pick_least_loaded(&mut conns) {
                Some((0, i)) => return Ok(Arc::clone(&conns[i])),
                Some((_, i)) if conns.len() >= self.max_conns => return Ok(Arc::clone(&conns[i])),
                _ => {}
            }
        }
        let conn = self.dial()?;
        let mut conns = self.conns.lock();
        // Concurrent callers may have filled the pool while we dialed;
        // respect the cap by severing the surplus connection and
        // multiplexing on an existing one instead.
        if conns
            .iter()
            .filter(|c| !c.dead.load(Ordering::SeqCst))
            .count()
            >= self.max_conns
        {
            if let Some((_, i)) = self.pick_least_loaded(&mut conns) {
                let existing = Arc::clone(&conns[i]);
                drop(conns);
                conn.poison(|| ReplyOutcome::Dropped("surplus connection severed".into()));
                conn.sever();
                return Ok(existing);
            }
        }
        conns.push(Arc::clone(&conn));
        Ok(conn)
    }

    fn dial(&self) -> Result<Arc<MuxConn>, CallFailure> {
        let (host, port) = &self.endpoint;
        if self.chaos.refuses(host, *port) {
            // The chaos plan says this co-database refuses connections:
            // fail exactly like a connect error (provably never sent).
            return Err(CallFailure::never_sent(OrbError::Wire(WireError::Io(
                std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    format!("chaos: {host}:{port} refuses connections"),
                ),
            ))));
        }
        let addr = (self.resolve)().ok_or_else(|| {
            CallFailure::never_sent(OrbError::UnknownHost {
                host: host.clone(),
                port: *port,
            })
        })?;
        let stream = detect::blocking_region("orb::IiopChannel::dial", || {
            std::net::TcpStream::connect(addr)
        })
        .map_err(|e| CallFailure::never_sent(OrbError::Wire(WireError::Io(e))))?;
        stream
            .set_nodelay(true)
            .map_err(|e| CallFailure::never_sent(OrbError::Wire(WireError::Io(e))))?;
        let mut writer = FramedTcp::new(stream);
        // Share the registry's per-endpoint slot so a chaos plan can
        // flip faults on this connection after it is live. The reader
        // clone below inherits the same slot.
        writer.install_fault_slot(self.chaos.fault_slot(host, *port));
        let reader = writer
            .try_clone()
            .map_err(|e| CallFailure::never_sent(OrbError::Wire(e)))?;
        let conn = Arc::new(MuxConn {
            // The writer mutex deliberately spans send_frame: GIOP
            // frames must hit the socket whole, so the hold IS the
            // framing discipline. Declared exempt rather than fixed.
            writer: Mutex::new_labeled(writer, "orb::MuxConn.writer").allow_hold_across_blocking(
                "serializes whole-frame socket writes; held for one send_frame only",
            ),
            pending: Mutex::new_labeled(HashMap::new(), "orb::MuxConn.pending"),
            dead: AtomicBool::new(false),
            closed_by_peer: AtomicBool::new(false),
        });
        let reader_conn = Arc::clone(&conn);
        let metrics = Arc::clone(&self.metrics);
        std::thread::Builder::new()
            .name(format!("iiop-mux-{}:{}", self.endpoint.0, self.endpoint.1))
            .spawn(move || reader_loop(reader_conn, reader, metrics))
            .expect("spawning channel reader thread");
        Ok(conn)
    }

    /// Send `frame` (already carrying `request_id`) and wait for the
    /// routed reply, respecting `deadline`. The endpoint's circuit
    /// breaker gates admission: an open breaker rejects instantly
    /// (classified `NeverSent`, so the caller may fail over to another
    /// profile), and the outcome of every admitted call feeds back into
    /// the breaker.
    pub(crate) fn call(
        &self,
        request_id: u32,
        frame: &[u8],
        deadline: Option<Duration>,
    ) -> Result<GiopMessage, CallFailure> {
        let Ok(is_probe) = self.breaker.admit(&self.metrics) else {
            let (host, port) = &self.endpoint;
            return Err(CallFailure::never_sent(OrbError::CircuitOpen {
                host: host.clone(),
                port: *port,
            }));
        };
        match self.call_inner(request_id, frame, deadline) {
            Ok(msg) => {
                self.breaker.on_success(&self.metrics);
                Ok(msg)
            }
            Err(failure) => {
                self.breaker.on_failure(is_probe, &self.metrics);
                Err(failure)
            }
        }
    }

    fn call_inner(
        &self,
        request_id: u32,
        frame: &[u8],
        deadline: Option<Duration>,
    ) -> Result<GiopMessage, CallFailure> {
        let conn = self.acquire()?;
        if conn.dead.load(Ordering::SeqCst) {
            return Err(CallFailure::never_sent(OrbError::Wire(WireError::Closed)));
        }
        // Bound 1: rendezvous buffer so the reader never blocks on a
        // slow caller. Register BEFORE sending: the reply can arrive on
        // the reader thread before we would otherwise get back here.
        let (tx, rx) = sync_channel::<ReplyOutcome>(1);
        conn.pending.lock().insert(request_id, tx);
        self.metrics.add(&self.metrics.in_flight, 1);
        let started = Instant::now();

        let sent = {
            let mut w = conn.writer.lock();
            w.send_frame(frame)
        };
        if let Err(e) = sent {
            // An incomplete frame is unparsable by the peer, so the
            // request was provably never dispatched.
            conn.pending.lock().remove(&request_id);
            self.metrics.gauge_sub(&self.metrics.in_flight, 1);
            conn.poison(|| ReplyOutcome::Dropped("send failed".into()));
            return Err(CallFailure::never_sent(OrbError::Wire(e)));
        }
        self.metrics
            .add(&self.metrics.bytes_sent, frame.len() as u64);

        // The reply wait is the blocking heart of Orb::invoke: every
        // remote call parks here until the reader thread routes the
        // reply (or the deadline fires). No lock may be held into it.
        let outcome = detect::blocking_region("orb::IiopChannel::reply_wait", || match deadline {
            Some(d) => rx.recv_timeout(d),
            // "No deadline" still needs the reader's failure signal, so
            // block on the channel rather than the socket.
            None => rx
                .recv()
                .map_err(|_| std::sync::mpsc::RecvTimeoutError::Disconnected),
        });
        self.metrics.gauge_sub(&self.metrics.in_flight, 1);

        match outcome {
            Ok(ReplyOutcome::Message(msg)) => {
                self.latency.record(started.elapsed());
                Ok(msg)
            }
            Ok(ReplyOutcome::ClosedUnprocessed) => Err(CallFailure {
                class: FailureClass::NotProcessed,
                error: OrbError::Wire(WireError::Closed),
            }),
            Ok(ReplyOutcome::Dropped(reason)) => Err(CallFailure {
                class: FailureClass::Ambiguous,
                error: OrbError::RemoteException {
                    system: true,
                    description: format!("connection lost awaiting reply: {reason}"),
                },
            }),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                // Unregister; if the reader routed the reply in this
                // instant, the rendezvous buffer holds it — take it.
                let raced = conn.pending.lock().remove(&request_id).is_none();
                if raced {
                    if let Ok(ReplyOutcome::Message(msg)) = rx.try_recv() {
                        self.latency.record(started.elapsed());
                        return Ok(msg);
                    }
                }
                // Tell the server to abandon the work if it still can.
                let cancel = GiopMessage::CancelRequest { request_id };
                if let Ok(cancel_frame) = cancel.encode(self.order) {
                    let _ = conn.writer.lock().send_frame(&cancel_frame);
                }
                self.metrics.add(&self.metrics.timeouts, 1);
                Err(CallFailure {
                    class: FailureClass::Ambiguous,
                    error: OrbError::DeadlineExpired {
                        operation_deadline: deadline.unwrap_or_default(),
                    },
                })
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                // Reader dropped our sender without an outcome; treat
                // like an orderly close only if the peer said so.
                let class = if conn.closed_by_peer.load(Ordering::SeqCst) {
                    FailureClass::NotProcessed
                } else {
                    FailureClass::Ambiguous
                };
                Err(CallFailure {
                    class,
                    error: OrbError::Wire(WireError::Closed),
                })
            }
        }
    }

    /// Sever every connection and fail all parked callers; used at ORB
    /// shutdown.
    pub(crate) fn close(&self) {
        for conn in self.conns.lock().drain(..) {
            conn.poison(|| ReplyOutcome::Dropped("ORB shut down".into()));
            conn.sever();
        }
    }
}

impl std::fmt::Debug for IiopChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IiopChannel")
            .field("endpoint", &self.endpoint)
            .field("max_conns", &self.max_conns)
            .field("live", &self.live_connections())
            .finish()
    }
}
