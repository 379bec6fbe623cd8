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
//! * callers read their own replies (leader/follower): after its send
//!   a caller takes the connection's read half if it is free and reads
//!   frames itself, demultiplexing GIOP `Reply`/`LocateReply` by
//!   `request_id` — its own reply ends its wait with no thread hand-off
//!   at all, anyone else's goes to the slot that caller parked on. A
//!   caller that finds the read half taken parks on its slot; whoever
//!   lets go of the read half asks one parked caller to take over. The
//!   writer mutex is held only for the microseconds of `send_frame`,
//!   never across the wait. Nobody reads an idle connection, so what
//!   the peer said since the last call (`CloseConnection`, EOF) is
//!   looked at when the connection is next picked;
//! * deadlines: a caller waits at most its [`CallOptions::deadline`],
//!   one budget over every retry and forward; on expiry it unregisters,
//!   fires a best-effort GIOP `CancelRequest` at the server, and
//!   surfaces `DeadlineExpired`. A frame the peer has half delivered by
//!   then stays buffered in the read half for the next leader;
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
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webfindit_base::sync::{detect, Mutex};
use webfindit_wire::cdr::ByteOrder;
use webfindit_wire::giop::{FragmentAssembler, GiopMessage};
use webfindit_wire::transport::FramedTcp;
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

/// A call's [`CallOptions::deadline`] pinned to the clock once, when
/// the invocation starts, so every attempt and every forward draws on
/// the one budget.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deadline {
    /// When the budget runs out.
    pub(crate) at: Instant,
    /// The budget as the caller gave it, for `DeadlineExpired`.
    pub(crate) budget: Duration,
}

impl Deadline {
    pub(crate) fn after(budget: Duration) -> Deadline {
        Deadline {
            at: Instant::now() + budget,
            budget,
        }
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

/// How a registered call ended on its connection.
enum ReplyOutcome {
    /// The routed `Reply`/`LocateReply` for this caller's request id.
    Message(GiopMessage),
    /// Orderly `CloseConnection`: provably not processed.
    ClosedUnprocessed,
    /// Connection failure or protocol desync: outcome unknowable.
    Dropped(String),
}

/// What arrives in a parked caller's slot.
enum Wake {
    /// The call's outcome, from the leader that read it.
    Done(ReplyOutcome),
    /// The read half is free and this caller is the one asked to take
    /// it.
    Lead,
}

/// The read side of a connection, owned by whichever caller currently
/// leads: the stream clone that reads (its frame reader holds a frame
/// still arriving), and the reassembly state of a fragment train in
/// progress.
struct ReadHalf {
    tcp: FramedTcp,
    assembler: FragmentAssembler,
}

/// One multiplexed connection: a shared writer, and a read half that
/// the waiting callers take turns holding.
struct MuxConn {
    writer: Mutex<FramedTcp>,
    /// Held by the leader for as long as it reads. Always `try_lock`ed:
    /// a caller that finds it taken parks on its slot instead.
    reader: Mutex<ReadHalf>,
    /// Callers awaiting a reply, by request id. The sender is unbounded
    /// so neither a leader nor `hand_off` can block on a slow caller; a
    /// slot receives at most one outcome, plus the odd `Lead`.
    pending: Mutex<HashMap<u32, Sender<Wake>>>,
    /// Set once the connection can no longer carry new calls.
    dead: AtomicBool,
}

impl MuxConn {
    /// Mark dead and fail every parked caller with `outcome`.
    fn poison(&self, mk_outcome: impl Fn() -> ReplyOutcome) {
        self.dead.store(true, Ordering::SeqCst);
        let waiters: Vec<_> = self.pending.lock().drain().collect();
        for (_, tx) in waiters {
            let _ = tx.send(Wake::Done(mk_outcome()));
        }
    }

    /// Sever the socket (unblocks a leader parked in its read).
    fn sever(&self) {
        self.writer.lock().shutdown();
    }

    /// Ask one caller still awaiting its reply to take the read half.
    /// Whoever releases the read half calls this AFTER the release (a
    /// caller woken earlier would find it taken and park for good), and
    /// so does a caller that leaves with a `Lead` in its slot. The send
    /// happens under the `pending` lock: a caller unregisters under the
    /// same lock and looks at its slot afterwards, so it cannot miss a
    /// `Lead` addressed to it.
    fn hand_off(&self) {
        if let Some(tx) = self.pending.lock().values().next() {
            let _ = tx.send(Wake::Lead);
        }
    }
}

/// How a turn as leader ended.
enum Led {
    /// The leader's own reply arrived.
    Mine(GiopMessage),
    /// The deadline passed first.
    TimedOut,
    /// The connection died; `poison` has put an outcome in every
    /// registered slot, the leader's included.
    Dead,
}

/// Lead `conn`: read frames until the reply to `own_id` arrives, the
/// connection dies or `deadline` passes, routing every other caller's
/// reply to its slot on the way. `own_id = None` with a deadline of
/// "now" just takes in what the socket already holds.
///
/// Frames pass through the [`FragmentAssembler`], so a reply the server
/// streamed as a GIOP fragment train is routed as one reassembled
/// message; unfragmented frames decode on the spot.
fn lead(
    conn: &MuxConn,
    rd: &mut ReadHalf,
    own_id: Option<u32>,
    deadline: Option<Instant>,
    metrics: &OrbMetrics,
) -> Led {
    loop {
        // The socket wait (a checked blocking region inside
        // `recv_frame_by`) is the blocking heart of Orb::invoke. The read
        // half is the only lock held into it.
        let frame = match rd.tcp.recv_frame_by(deadline) {
            Ok(Some(f)) => f,
            Ok(None) => return Led::TimedOut,
            Err(WireError::Closed) => {
                conn.poison(|| ReplyOutcome::Dropped("connection closed by peer".into()));
                return Led::Dead;
            }
            Err(e) => {
                let text = e.to_string();
                conn.poison(|| ReplyOutcome::Dropped(text.clone()));
                return Led::Dead;
            }
        };
        metrics.add(&metrics.bytes_received, frame.len() as u64);
        let mid_train = rd.assembler.in_progress();
        let msg = match rd.assembler.push_frame(frame) {
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
                return Led::Dead;
            }
        };
        match msg {
            GiopMessage::Reply { request_id, .. } | GiopMessage::LocateReply { request_id, .. } => {
                let waiter = conn.pending.lock().remove(&request_id);
                match waiter {
                    Some(_) if own_id == Some(request_id) => return Led::Mine(msg),
                    Some(tx) => {
                        let _ = tx.send(Wake::Done(ReplyOutcome::Message(msg)));
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
                conn.poison(|| ReplyOutcome::ClosedUnprocessed);
                return Led::Dead;
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
                return Led::Dead;
            }
        }
    }
}

/// The outcome already sitting in a caller's slot, if any.
fn delivered(rx: &Receiver<Wake>) -> Option<ReplyOutcome> {
    rx.try_iter().find_map(|wake| match wake {
        Wake::Done(outcome) => Some(outcome),
        Wake::Lead => None,
    })
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
        loop {
            let idle = {
                let mut conns = self.conns.lock();
                match self.pick_least_loaded(&mut conns) {
                    Some((0, i)) => Arc::clone(&conns[i]),
                    Some((_, i)) if conns.len() >= self.max_conns => {
                        return Ok(Arc::clone(&conns[i]))
                    }
                    _ => break,
                }
            };
            // Nobody has been reading this connection: an unsolicited
            // CloseConnection or EOF since its last call is still in
            // the socket. Take in what is there (a zero-length wait,
            // with the pool lock released) so that a connection found
            // dead here fails as "dead at acquire", never after a send.
            if let Some(mut rd) = idle.reader.try_lock() {
                lead(&idle, &mut rd, None, Some(Instant::now()), &self.metrics);
                drop(rd);
                idle.hand_off();
            }
            if !idle.dead.load(Ordering::SeqCst) {
                return Ok(idle);
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
        Ok(Arc::new(MuxConn {
            // The writer mutex deliberately spans send_frame: GIOP
            // frames must hit the socket whole, so the hold IS the
            // framing discipline. Declared exempt rather than fixed.
            writer: Mutex::new_labeled(writer, "orb::MuxConn.writer").allow_hold_across_blocking(
                "serializes whole-frame socket writes; held for one send_frame only",
            ),
            // Held by the leader across its socket wait: the hold IS
            // the leadership.
            reader: Mutex::new_labeled(
                ReadHalf {
                    tcp: reader,
                    assembler: FragmentAssembler::new(),
                },
                "orb::MuxConn.reader",
            )
            .allow_hold_across_blocking(
                "the leader reads replies under it; everyone else try_locks and parks on a slot",
            ),
            pending: Mutex::new_labeled(HashMap::new(), "orb::MuxConn.pending"),
            dead: AtomicBool::new(false),
        }))
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
        deadline: Option<Deadline>,
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
        deadline: Option<Deadline>,
    ) -> Result<GiopMessage, CallFailure> {
        let conn = self.acquire()?;
        if conn.dead.load(Ordering::SeqCst) {
            return Err(CallFailure::never_sent(OrbError::Wire(WireError::Closed)));
        }
        // Register BEFORE sending: another caller may be leading and
        // route the reply before we would otherwise get back here.
        let (tx, rx) = channel::<Wake>();
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

        let outcome = self.await_reply(&conn, request_id, &rx, deadline.map(|d| d.at));
        self.metrics.gauge_sub(&self.metrics.in_flight, 1);

        match outcome {
            Some(ReplyOutcome::Message(msg)) => {
                self.latency.record(started.elapsed());
                Ok(msg)
            }
            Some(ReplyOutcome::ClosedUnprocessed) => Err(CallFailure {
                class: FailureClass::NotProcessed,
                error: OrbError::Wire(WireError::Closed),
            }),
            Some(ReplyOutcome::Dropped(reason)) => Err(CallFailure {
                class: FailureClass::Ambiguous,
                error: OrbError::RemoteException {
                    system: true,
                    description: format!("connection lost awaiting reply: {reason}"),
                },
            }),
            None => {
                // Unregister, then look at the slot: a reply routed in
                // this instant is taken, and a hand-off addressed to
                // this caller is passed on rather than lost with it.
                conn.pending.lock().remove(&request_id);
                let mut raced = None;
                for arrived in rx.try_iter() {
                    match arrived {
                        Wake::Lead => conn.hand_off(),
                        Wake::Done(ReplyOutcome::Message(msg)) => raced = Some(msg),
                        Wake::Done(_) => {}
                    }
                }
                if let Some(msg) = raced {
                    self.latency.record(started.elapsed());
                    return Ok(msg);
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
                        operation_deadline: deadline.map(|d| d.budget).unwrap_or_default(),
                    },
                })
            }
        }
    }

    /// Wait for the outcome of `request_id` on `conn`: as the leader
    /// when the read half is free, parked on `rx` while another caller
    /// leads. `None` means the deadline passed.
    fn await_reply(
        &self,
        conn: &MuxConn,
        request_id: u32,
        rx: &Receiver<Wake>,
        deadline: Option<Instant>,
    ) -> Option<ReplyOutcome> {
        loop {
            if let Some(mut rd) = conn.reader.try_lock() {
                // An earlier leader may have routed the reply already.
                let outcome = delivered(rx).or_else(|| {
                    match lead(conn, &mut rd, Some(request_id), deadline, &self.metrics) {
                        Led::Mine(msg) => Some(ReplyOutcome::Message(msg)),
                        Led::TimedOut => None,
                        Led::Dead => delivered(rx)
                            .or_else(|| Some(ReplyOutcome::Dropped("connection lost".into()))),
                    }
                });
                drop(rd);
                conn.hand_off();
                return outcome;
            }
            // Another caller leads and will route the reply here, or a
            // `Lead` when it is done first. No lock is held into the
            // wait.
            let parked =
                detect::blocking_region("orb::IiopChannel::reply_wait", || match deadline {
                    Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())),
                    None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                });
            match parked {
                Ok(Wake::Lead) => continue,
                Ok(Wake::Done(outcome)) => return Some(outcome),
                Err(RecvTimeoutError::Timeout) => return None,
                // The slot's sender is dropped only after an outcome was
                // sent through it or by this caller itself.
                Err(RecvTimeoutError::Disconnected) => {
                    return Some(ReplyOutcome::Dropped("connection lost".into()))
                }
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{SocketAddr, TcpListener};
    use std::sync::atomic::AtomicU32;
    use std::sync::mpsc;
    use std::thread;
    use webfindit_base::rng::StdRng;
    use webfindit_wire::giop;
    use webfindit_wire::Value;

    /// A one-connection channel (`max_conns = 1`, so every caller
    /// shares the one read half) to `addr`, with a breaker that never
    /// trips: deadline expiries are the point of these tests.
    fn channel_to(addr: SocketAddr) -> (Arc<IiopChannel>, Arc<OrbMetrics>) {
        let metrics = Arc::new(OrbMetrics::default());
        let channel = Arc::new(IiopChannel::new(
            ("peer.example".into(), 7),
            ByteOrder::LittleEndian,
            Arc::clone(&metrics),
            1,
            BreakerConfig {
                failure_threshold: u32::MAX,
                cooldown: Duration::from_secs(1),
            },
            ChaosRegistry::new(),
            Box::new(move || Some(addr)),
        ));
        (channel, metrics)
    }

    /// Accept one connection; forward every decoded message to `seen`
    /// and hand the write side back.
    fn peer(listener: TcpListener, seen: mpsc::Sender<GiopMessage>) -> mpsc::Receiver<FramedTcp> {
        let (writer_tx, writer_rx) = mpsc::channel();
        thread::spawn(move || {
            let (stream, _) = listener.accept().expect("peer accepts");
            let mut reader = FramedTcp::new(stream);
            writer_tx
                .send(reader.try_clone().expect("clone peer stream"))
                .expect("test takes the writer");
            while let Ok(frame) = reader.recv_frame() {
                let msg = GiopMessage::decode_frame(frame).expect("peer decodes");
                if seen.send(msg).is_err() {
                    break;
                }
            }
        });
        writer_rx
    }

    fn echo_frame(request_id: u32, payload: &str) -> Vec<u8> {
        giop::request(
            request_id,
            b"k".to_vec(),
            "echo",
            vec![Value::string(payload)],
        )
        .encode(ByteOrder::LittleEndian)
        .expect("request encodes")
    }

    fn reply_frame(request_id: u32, body: Value) -> Vec<u8> {
        giop::reply_ok(request_id, body)
            .encode(ByteOrder::BigEndian)
            .expect("reply encodes")
    }

    /// Run `f` on its own thread and fail if it is not done in time: a
    /// lost wake-up shows as this panic, not as a hung test binary.
    fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(limit)
            .expect("watchdog: callers still parked — a hand-off or wake-up was lost")
    }

    /// 8 callers × 500 calls over ONE connection against a peer that
    /// batches, reorders and randomly delays its replies, a third of
    /// the calls on 1–5 ms deadlines: leaders come and go constantly
    /// (own reply, own deadline) and every exit must hand the read half
    /// on. Each call ends with its own reply or `DeadlineExpired`.
    #[test]
    fn leader_follower_stress_every_call_ends_with_its_own_reply_or_its_deadline() {
        const THREADS: u32 = 8;
        const CALLS: u32 = 500;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind peer");
        let addr = listener.local_addr().unwrap();
        let (seen_tx, seen_rx) = mpsc::channel();
        let writer_rx = peer(listener, seen_tx);
        thread::spawn(move || {
            let mut writer = writer_rx.recv().expect("peer connected");
            let mut rng = StdRng::seed_from_u64(1999);
            while let Ok(first) = seen_rx.recv() {
                let mut batch = vec![first];
                batch.extend(seen_rx.try_iter());
                rng.shuffle(&mut batch);
                for msg in batch {
                    // CancelRequests are ignored: the late reply still
                    // goes out and must be dropped, not misrouted.
                    let GiopMessage::Request { header, args } = msg else {
                        continue;
                    };
                    if rng.gen_range(0..4u32) == 0 {
                        thread::sleep(Duration::from_micros(rng.gen_range(100..4000u64)));
                    }
                    let body = args.into_iter().next().unwrap_or(Value::Null);
                    if writer
                        .send_frame(&reply_frame(header.request_id, body))
                        .is_err()
                    {
                        return;
                    }
                }
            }
        });

        let (channel, metrics) = channel_to(addr);
        let ids = Arc::new(AtomicU32::new(1));
        let expired = within(Duration::from_secs(120), {
            let channel = Arc::clone(&channel);
            move || {
                let callers: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let channel = Arc::clone(&channel);
                        let ids = Arc::clone(&ids);
                        thread::spawn(move || {
                            let mut rng = StdRng::seed_from_u64(u64::from(t));
                            let mut expired = 0u64;
                            for i in 0..CALLS {
                                let id = ids.fetch_add(1, Ordering::Relaxed);
                                let payload = format!("t{t}-{i}");
                                let deadline = (rng.gen_range(0..3u32) == 0).then(|| {
                                    Deadline::after(Duration::from_millis(rng.gen_range(1..6u64)))
                                });
                                match channel.call(id, &echo_frame(id, &payload), deadline) {
                                    Ok(GiopMessage::Reply {
                                        request_id, body, ..
                                    }) => {
                                        assert_eq!(request_id, id);
                                        assert_eq!(body.as_str(), Some(payload.as_str()));
                                    }
                                    Err(CallFailure {
                                        error: OrbError::DeadlineExpired { .. },
                                        ..
                                    }) if deadline.is_some() => expired += 1,
                                    other => panic!("call {payload}: {other:?}"),
                                }
                            }
                            expired
                        })
                    })
                    .collect();
                callers
                    .into_iter()
                    .map(|c| c.join().expect("caller thread"))
                    .sum::<u64>()
            }
        });

        let snap = metrics.snapshot();
        assert_eq!(snap.in_flight, 0, "every caller unregistered");
        assert_eq!(snap.timeouts, expired);
        assert_eq!(snap.evictions, 0, "the one connection never desynchronized");
        assert_eq!(channel.live_connections(), 1);
        let conns = channel.conns.lock();
        assert!(conns[0].pending.lock().is_empty(), "no slot left behind");
        assert!(conns[0].reader.try_lock().is_some(), "nobody still leads");
        // Under `deadlock-detect` every wait above was a checked
        // blocking region: the read half (exempt) is the only lock a
        // caller may hold into one. Other tests of this binary run
        // beside this one, so only this channel's locks are looked at.
        let ours: Vec<_> = detect::take_violations()
            .into_iter()
            .filter(|v| {
                v.message.contains("orb::MuxConn") || v.message.contains("orb::IiopChannel")
            })
            .collect();
        assert!(ours.is_empty(), "detector reports: {ours:#?}");
    }

    /// The leader's own deadline fires while a follower still waits:
    /// the follower must be asked to lead, or its reply is never read.
    #[test]
    fn a_leader_that_times_out_hands_the_read_half_to_a_waiting_follower() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind peer");
        let addr = listener.local_addr().unwrap();
        let (seen_tx, seen_rx) = mpsc::channel();
        let writer_rx = peer(listener, seen_tx);
        let (channel, metrics) = channel_to(addr);

        // A leads: it is alone on the connection when it sends.
        let a = {
            let channel = Arc::clone(&channel);
            thread::spawn(move || {
                let deadline = Some(Deadline::after(Duration::from_millis(300)));
                channel.call(1, &echo_frame(1, "a"), deadline)
            })
        };
        let mut writer = writer_rx.recv().expect("peer connected");
        assert!(matches!(
            seen_rx.recv().expect("A's request"),
            GiopMessage::Request { .. }
        ));
        // A reply nobody waits for: once it is counted, A is known to
        // hold the read half (it read the frame) and keeps it until its
        // deadline — so B, started after, finds it taken and parks.
        writer
            .send_frame(&reply_frame(999, Value::Null))
            .expect("stray reply");
        while metrics.snapshot().late_replies == 0 {
            thread::yield_now();
        }
        let b = {
            let channel = Arc::clone(&channel);
            thread::spawn(move || channel.call(2, &echo_frame(2, "b"), None))
        };
        assert!(matches!(
            seen_rx.recv().expect("B's request"),
            GiopMessage::Request { .. }
        ));
        // A's CancelRequest proves A has given up; only now is B answered.
        match seen_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("A's cancel")
        {
            GiopMessage::CancelRequest { request_id } => assert_eq!(request_id, 1),
            other => panic!("expected CancelRequest, got {:?}", other.kind()),
        }
        writer
            .send_frame(&reply_frame(2, Value::string("b")))
            .expect("reply to B");

        assert!(matches!(
            a.join().expect("caller A"),
            Err(CallFailure {
                class: FailureClass::Ambiguous,
                error: OrbError::DeadlineExpired { .. },
            })
        ));
        let reply = within(Duration::from_secs(10), move || b.join().expect("caller B"));
        match reply {
            Ok(GiopMessage::Reply { request_id, .. }) => assert_eq!(request_id, 2),
            other => panic!("B must read its own reply, got {other:?}"),
        }
        assert_eq!(metrics.snapshot().in_flight, 0);
    }
}
