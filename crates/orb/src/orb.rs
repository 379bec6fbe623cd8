//! The ORB runtime: listener, dispatcher, client stubs, channel pool.
//!
//! Each [`Orb`] models one vendor ORB instance from the paper's Figure 2
//! (`Orbix`, `OrbixWeb`, `VisiBroker`). An ORB:
//!
//! * binds a loopback TCP listener (its IIOP endpoint) and registers its
//!   advertised `(host, port)` with the shared [`OrbDomain`];
//! * serves GIOP Requests arriving on that endpoint by dispatching into
//!   its [`ObjectAdapter`]. The server core is the event-loop reactor
//!   ([`crate::reactor`]): one poll-driven thread owns every
//!   connection and a bounded worker pool runs servant dispatch, so a
//!   slow servant never holds up other requests on the same connection
//!   and ten thousand idle connections cost ten thousand fds, not ten
//!   thousand stacks;
//! * acts as a client: [`Orb::invoke`] marshals a Request and ships it
//!   over a multiplexed [`IiopChannel`] (see [`crate::channel`]); many
//!   concurrent callers share each connection instead of serializing on
//!   a per-connection mutex. [`Orb::invoke_with`] additionally threads
//!   [`CallOptions`] — a deadline and a retry policy — down to the wire,
//!   and [`Orb::invoke_all`] pipelines a batch of calls from the calling
//!   thread (every request sent before any reply is read); a single
//!   call is a batch of one. [`Orb::invoke_as`] and
//!   [`Orb::invoke_all_as`] let the caller pick the decoder of the
//!   result; the others decode a [`Value`]. Invocations
//!   whose target lives on this same ORB skip the socket (counted
//!   separately — collocated calls were a selling point of 1990s ORBs
//!   too) but not the codec: the servant writes the same reply frame a
//!   remote caller would read, and the caller decodes it the same way;
//! * keeps [`OrbMetrics`] so experiments can count round-trips and bytes.
//!
//! Vendor flavor: each ORB is configured with a preferred byte order, so
//! an "Orbix" (big-endian) really does exchange differently-ordered CDR
//! with a "VisiBroker" (little-endian) — the receiver honors the header
//! flag, which is the CORBA 2.0 interoperability story in miniature.

use crate::adapter::ObjectAdapter;
use crate::channel::{
    BreakerConfig, BreakerState, CallFailure, CallOptions, Deadline, FailureClass, IiopChannel,
    InFlight, RetryPolicy,
};
use crate::domain::OrbDomain;
use crate::metrics::{EndpointLatency, OrbMetrics};
use crate::servant::{Servant, ServantError};
use crate::{OrbError, OrbResult};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use webfindit_base::sync::Mutex;
use webfindit_wire::cdr::{ByteOrder, CdrReader};
use webfindit_wire::giop::{self, GiopMessage, LocateStatus, ReplyStatus, Routed};
use webfindit_wire::ior::IiopProfile;
use webfindit_wire::{BufPool, Ior, Value, WireError, WireResult, MAX_MESSAGE_SIZE};

/// Upper bound on multiplexed connections per remote endpoint.
const MAX_CONNS_PER_ENDPOINT: usize = 4;

/// Ids a server remembers from CancelRequests whose dispatch is still
/// running; bounded so a hostile client cannot grow it without limit.
pub(crate) const MAX_REMEMBERED_CANCELS: usize = 1024;

/// Default size of the reactor's dispatch worker pool.
const DEFAULT_DISPATCH_WORKERS: usize = 8;

/// Static configuration of an ORB instance.
#[derive(Debug, Clone)]
pub struct OrbConfig {
    /// Vendor-flavored instance name, e.g. `"Orbix"`.
    pub name: String,
    /// Hostname advertised inside IORs, e.g. `"dba.icis.qut.edu.au"`.
    pub advertised_host: String,
    /// Port advertised inside IORs (decoupled from the real socket).
    pub advertised_port: u16,
    /// Byte order this ORB marshals with (receivers adapt via the GIOP
    /// header flag).
    pub byte_order: ByteOrder,
    /// Circuit-breaker policy applied to every client channel.
    pub breaker: BreakerConfig,
    /// Dispatch worker threads behind the reactor.
    pub dispatch_workers: usize,
}

impl OrbConfig {
    /// Convenience constructor (default breaker policy).
    pub fn new(
        name: impl Into<String>,
        advertised_host: impl Into<String>,
        advertised_port: u16,
        byte_order: ByteOrder,
    ) -> Self {
        OrbConfig {
            name: name.into(),
            advertised_host: advertised_host.into(),
            advertised_port,
            byte_order,
            breaker: BreakerConfig::default(),
            dispatch_workers: DEFAULT_DISPATCH_WORKERS,
        }
    }
}

/// One call of a batch handed to [`Orb::invoke_all`].
#[derive(Debug, Clone, Copy)]
pub struct Invocation<'a> {
    /// The object to invoke.
    pub target: &'a Ior,
    /// The operation to invoke on it.
    pub operation: &'a str,
    /// Its arguments.
    pub args: &'a [Value],
}

/// One call's walk over its target's profiles: `profiles[at]` is being
/// tried, `tries` requests went to it so far, and `last_err` is why the
/// one before was given up on.
struct Attempt<'a> {
    call: Invocation<'a>,
    retry: RetryPolicy,
    deadline: Option<Deadline>,
    profiles: Vec<IiopProfile>,
    at: usize,
    tries: u32,
    last_err: OrbError,
}

/// Where one call of a batch stands: failed before a send, answered
/// (collocated), or with a request on the wire.
enum Step<'a> {
    Failed(OrbError),
    Answered(Attempt<'a>, Routed),
    Sent(Attempt<'a>, Arc<IiopChannel>, InFlight),
}

/// How a caller turns the result bytes of a `NoException` reply into
/// its own type (see [`Orb::invoke_as`]).
type Decode<'d, T, E> = &'d dyn Fn(&mut CdrReader<'_>) -> Result<T, E>;

/// The decoder behind [`Orb::invoke`] and [`Orb::invoke_all`].
fn decode_value(r: &mut CdrReader<'_>) -> OrbResult<Value> {
    Ok(Value::decode(r)?)
}

/// A running ORB instance.
pub struct Orb {
    config: OrbConfig,
    domain: Arc<OrbDomain>,
    adapter: Arc<ObjectAdapter>,
    metrics: Arc<OrbMetrics>,
    listener_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Client channel pool: advertised endpoint → multiplexed channel.
    channels: Mutex<HashMap<(String, u16), Arc<IiopChannel>>>,
    next_request_id: AtomicU32,
    /// Join handle of the reactor event-loop thread.
    core_handle: Mutex<Option<JoinHandle<()>>>,
    /// Recycled buffers for the client-side CDR encode path (the
    /// reactor keeps its own pool for replies).
    pool: Arc<BufPool>,
}

impl Orb {
    /// Start an ORB: bind a loopback listener, register the endpoint in
    /// the domain, and begin serving requests.
    pub fn start(config: OrbConfig, domain: Arc<OrbDomain>) -> OrbResult<Arc<Orb>> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(WireError::Io)?;
        let listener_addr = listener.local_addr().map_err(WireError::Io)?;
        domain.register_endpoint(
            config.advertised_host.clone(),
            config.advertised_port,
            listener_addr,
        );
        domain.register_orb(config.name.clone());

        let orb = Arc::new(Orb {
            config,
            domain,
            adapter: Arc::new(ObjectAdapter::new()),
            metrics: Arc::new(OrbMetrics::default()),
            listener_addr,
            shutdown: Arc::new(AtomicBool::new(false)),
            channels: Mutex::new(HashMap::new()),
            next_request_id: AtomicU32::new(1),
            core_handle: Mutex::new(None),
            pool: BufPool::shared(),
        });

        let core = crate::reactor::spawn(
            orb.config.name.clone(),
            listener,
            Arc::clone(&orb.adapter),
            Arc::clone(&orb.metrics),
            orb.config.byte_order,
            Arc::clone(&orb.shutdown),
            orb.config.dispatch_workers,
            BufPool::shared(),
        )
        .map_err(WireError::Io)?;
        *orb.core_handle.lock() = Some(core.join);
        Ok(orb)
    }

    /// This ORB's instance name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// The advertised (IOR-visible) endpoint.
    pub fn advertised_endpoint(&self) -> (String, u16) {
        (
            self.config.advertised_host.clone(),
            self.config.advertised_port,
        )
    }

    /// The ORB's object adapter.
    pub fn adapter(&self) -> &ObjectAdapter {
        &self.adapter
    }

    /// Traffic counters.
    pub fn metrics(&self) -> &OrbMetrics {
        &self.metrics
    }

    /// The domain this ORB participates in.
    pub fn domain(&self) -> &Arc<OrbDomain> {
        &self.domain
    }

    /// The byte order this ORB marshals with.
    pub fn byte_order(&self) -> ByteOrder {
        self.config.byte_order
    }

    /// Activate `servant` under `key` and mint an IOR for it.
    pub fn activate(&self, key: impl Into<Vec<u8>>, servant: Arc<dyn Servant>) -> Ior {
        let key = key.into();
        let type_id = servant.interface_id().to_owned();
        self.adapter.activate(key.clone(), servant);
        Ior::new_iiop(
            type_id,
            self.config.advertised_host.clone(),
            self.config.advertised_port,
            key,
        )
    }

    /// Build an IOR for an already-activated key.
    pub fn ior_for(&self, key: impl Into<Vec<u8>>, type_id: impl Into<String>) -> Ior {
        Ior::new_iiop(
            type_id,
            self.config.advertised_host.clone(),
            self.config.advertised_port,
            key,
        )
    }

    fn is_local(&self, host: &str, port: u16) -> bool {
        host == self.config.advertised_host && port == self.config.advertised_port
    }

    /// Invoke `operation(args)` on the object `ior` refers to, with
    /// default [`CallOptions`] (no deadline, safe retries allowed).
    pub fn invoke(&self, ior: &Ior, operation: &str, args: &[Value]) -> OrbResult<Value> {
        self.invoke_with(ior, operation, args, &CallOptions::default())
    }

    /// Invoke `operation(args)` under explicit per-call `options`: a
    /// batch of one for [`Orb::invoke_all`].
    pub fn invoke_with(
        &self,
        ior: &Ior,
        operation: &str,
        args: &[Value],
        options: &CallOptions,
    ) -> OrbResult<Value> {
        self.invoke_as(ior, operation, args, options, decode_value)
    }

    /// Invoke `operation(args)` under `options` and decode a successful
    /// result with `decode`, on the calling thread, from a reader at the
    /// start of the result (CDR alignment counts from the GIOP body
    /// start, as the sender's did). Exception and forward bodies are
    /// still read as [`Value`]s.
    pub fn invoke_as<T, E: From<OrbError>>(
        &self,
        ior: &Ior,
        operation: &str,
        args: &[Value],
        options: &CallOptions,
        decode: impl Fn(&mut CdrReader<'_>) -> Result<T, E>,
    ) -> Result<T, E> {
        let call = Invocation {
            target: ior,
            operation,
            args,
        };
        let mut out = self.invoke_all_as(std::slice::from_ref(&call), options, decode);
        out.pop().expect("one result per invocation")
    }

    /// Invoke every call of `calls` under `options`, all first requests
    /// sent from the calling thread before any reply is read, so their
    /// round trips overlap; the outcomes come back in call order. Each
    /// call tries its IOR's profiles in turn, falling through only when
    /// a request provably never reached an endpoint; retries, fall-through
    /// and `LocationForward` after a failed first request run one by one.
    /// A collocated call (its profile is this ORB's own endpoint) runs
    /// inline during the send phase, before later calls go out.
    /// All calls draw on one deadline, started here.
    pub fn invoke_all(
        &self,
        calls: &[Invocation<'_>],
        options: &CallOptions,
    ) -> Vec<OrbResult<Value>> {
        self.invoke_all_as(calls, options, decode_value)
    }

    /// [`Orb::invoke_all`] with the caller's decoder of each successful
    /// result (see [`Orb::invoke_as`]).
    pub fn invoke_all_as<T, E: From<OrbError>>(
        &self,
        calls: &[Invocation<'_>],
        options: &CallOptions,
        decode: impl Fn(&mut CdrReader<'_>) -> Result<T, E>,
    ) -> Vec<Result<T, E>> {
        let deadline = options.deadline.map(Deadline::after);
        let sent: Vec<Step<'_>> = calls
            .iter()
            .map(|&call| self.begin(call, options.retry, deadline))
            .collect();
        sent.into_iter()
            .map(|step| self.complete(step, &decode))
            .collect()
    }

    /// Start `call` on its healthiest profile.
    fn begin<'a>(
        &self,
        call: Invocation<'a>,
        retry: RetryPolicy,
        deadline: Option<Deadline>,
    ) -> Step<'a> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Step::Failed(OrbError::ShutDown);
        }
        let mut profiles = call.target.iiop_profiles();
        // Health-scored profile selection: endpoints whose breaker is
        // open go last, half-open after healthy ones. The sort is
        // stable, so the IOR's own preference order breaks ties.
        if profiles.len() > 1 {
            profiles.sort_by_key(|p| self.profile_health(&p.host, p.port));
        }
        self.advance(Attempt {
            call,
            retry,
            deadline,
            profiles,
            at: 0,
            tries: 0,
            last_err: OrbError::NoEndpoint,
        })
    }

    /// Send `a`'s next request: on its current profile, or on the next
    /// one once the current one provably never received it.
    fn advance<'a>(&self, mut a: Attempt<'a>) -> Step<'a> {
        while let Some(profile) = a.profiles.get(a.at) {
            let (op, args) = (a.call.operation, a.call.args);
            if self.is_local(&profile.host, profile.port) {
                self.metrics.add(&self.metrics.local_dispatches, 1);
                let order = self.config.byte_order;
                let (key, adapter) = (&profile.object_key, &self.adapter);
                let frame =
                    dispatch_reply(0, key, op, args, adapter, &self.metrics, order, Vec::new());
                return match frame.and_then(|f| Routed::from_frame(&f)) {
                    Ok(reply) => Step::Answered(a, reply),
                    Err(e) => Step::Failed(OrbError::Wire(e)),
                };
            }
            a.tries += 1;
            let channel = self.channel_to(&profile.host, profile.port);
            // A fresh id per attempt, so a late reply to an abandoned
            // attempt can never be routed to its retry.
            let id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
            let msg = giop::request(id, profile.object_key.clone(), op, args.to_vec());
            let sent = match msg.encode_pooled(self.config.byte_order, &self.pool) {
                Ok(frame) => channel.start(id, &frame, a.deadline),
                Err(e) => Err(CallFailure::never_sent(OrbError::Wire(e))),
            };
            match sent {
                Ok(sent) => {
                    self.metrics.add(&self.metrics.requests_sent, 1);
                    return Step::Sent(a, channel, sent);
                }
                Err(f) => {
                    if let Some(error) = self.give_up(&mut a, f) {
                        return Step::Failed(error);
                    }
                }
            }
        }
        Step::Failed(a.last_err)
    }

    /// After a failed attempt: `None` when `a` may go on — a retry of a
    /// request the peer provably never dispatched (never one after an
    /// ambiguous drop, which could run the operation twice), or the next
    /// profile after one that never received it — else the error.
    fn give_up(&self, a: &mut Attempt<'_>, f: CallFailure) -> Option<OrbError> {
        if f.class != FailureClass::Ambiguous && a.tries < a.retry.attempts {
            self.metrics.add(&self.metrics.retries, 1);
            return None;
        }
        if f.class != FailureClass::NeverSent {
            return Some(f.error);
        }
        (a.at, a.tries, a.last_err) = (a.at + 1, 0, f.error);
        None
    }

    /// Read the reply of a started call, going on with its retries and
    /// profiles until it settles.
    fn complete<T, E: From<OrbError>>(
        &self,
        mut step: Step<'_>,
        decode: Decode<'_, T, E>,
    ) -> Result<T, E> {
        loop {
            let (mut a, channel, sent) = match step {
                Step::Failed(error) => return Err(error.into()),
                Step::Answered(a, reply) => return self.interpret_reply(reply, &a, decode),
                Step::Sent(a, channel, sent) => (a, channel, sent),
            };
            match channel.finish(sent) {
                Ok(reply) => return self.interpret_reply(reply, &a, decode),
                Err(f) => match self.give_up(&mut a, f) {
                    Some(error) => return Err(error.into()),
                    None => step = self.advance(a),
                },
            }
        }
    }

    /// Turn a routed GIOP Reply into the invocation outcome: its result
    /// through `decode`, anything else as a [`Value`]. The reply
    /// completed, so none of these outcomes is retried.
    fn interpret_reply<T, E: From<OrbError>>(
        &self,
        reply: Routed,
        a: &Attempt<'_>,
        decode: Decode<'_, T, E>,
    ) -> Result<T, E> {
        let reply = match reply {
            Routed::Reply(reply) => reply,
            Routed::Other(other) => {
                return Err(OrbError::RemoteException {
                    system: true,
                    description: format!("unexpected message kind {:?}", other.kind()),
                }
                .into())
            }
        };
        let body = match reply.status {
            ReplyStatus::NoException => return decode(&mut reply.payload()),
            _ => reply.value().map_err(OrbError::Wire)?,
        };
        match reply.status {
            ReplyStatus::LocationForward => match body {
                Value::ObjectRef(fwd) => {
                    let call = Invocation {
                        target: &fwd,
                        ..a.call
                    };
                    self.complete(self.begin(call, a.retry, a.deadline), decode)
                }
                _ => Err(OrbError::RemoteException {
                    system: true,
                    description: "malformed LocationForward body".into(),
                }
                .into()),
            },
            status => {
                let description = body
                    .field("exception")
                    .and_then(Value::as_str)
                    .unwrap_or("unknown exception")
                    .to_owned();
                Err(OrbError::RemoteException {
                    system: status == ReplyStatus::SystemException,
                    description,
                }
                .into())
            }
        }
    }

    /// Probe where an object lives (GIOP LocateRequest).
    pub fn locate(&self, ior: &Ior) -> OrbResult<LocateStatus> {
        let profiles = ior.iiop_profiles();
        if profiles.is_empty() {
            return Err(OrbError::NoEndpoint);
        }
        let mut last_err = None;
        for profile in &profiles {
            if self.is_local(&profile.host, profile.port) {
                return Ok(if self.adapter.contains(&profile.object_key) {
                    LocateStatus::ObjectHere
                } else {
                    LocateStatus::UnknownObject
                });
            }
            let channel = self.channel_to(&profile.host, profile.port);
            let request_id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
            let msg = GiopMessage::LocateRequest {
                request_id,
                object_key: profile.object_key.clone(),
            };
            let frame = msg.encode(self.config.byte_order)?;
            match channel
                .start(request_id, &frame, None)
                .and_then(|sent| channel.finish(sent))
            {
                Ok(Routed::Other(GiopMessage::LocateReply { status, .. })) => return Ok(status),
                Ok(other) => {
                    return Err(OrbError::RemoteException {
                        system: true,
                        description: format!("unexpected locate reply {:?}", other.kind()),
                    })
                }
                Err(f) if f.class == FailureClass::NeverSent => {
                    last_err = Some(f.error);
                }
                Err(f) => return Err(f.error),
            }
        }
        Err(last_err.expect("profile loop ran at least once"))
    }

    /// Health score for ordering an IOR's profiles: local collocation
    /// is best, then endpoints with a closed (or not-yet-dialed)
    /// breaker, then half-open, with tripped-open endpoints last.
    fn profile_health(&self, host: &str, port: u16) -> u8 {
        if self.is_local(host, port) {
            return 0;
        }
        match self.channels.lock().get(&(host.to_owned(), port)) {
            None => 1,
            Some(ch) => match ch.breaker_state() {
                BreakerState::Closed => 1,
                BreakerState::HalfOpen => 2,
                BreakerState::Open => 3,
            },
        }
    }

    /// The breaker state of the channel to `host:port`, if one exists.
    pub fn breaker_state(&self, host: &str, port: u16) -> Option<BreakerState> {
        self.channels
            .lock()
            .get(&(host.to_owned(), port))
            .map(|ch| ch.breaker_state())
    }

    /// Reply latency measured by the channel to `host:port`, if any
    /// call on it completed.
    pub fn endpoint_latency(&self, host: &str, port: u16) -> Option<EndpointLatency> {
        self.channels
            .lock()
            .get(&(host.to_owned(), port))
            .map(|ch| ch.latency())
            .filter(|l| l.calls > 0)
    }

    /// Reply latency per remote endpoint with a completed call, sorted
    /// by endpoint.
    pub fn endpoint_latencies(&self) -> Vec<((String, u16), EndpointLatency)> {
        let mut stats: Vec<_> = self
            .channels
            .lock()
            .iter()
            .map(|(k, ch)| (k.clone(), ch.latency()))
            .filter(|(_, l)| l.calls > 0)
            .collect();
        stats.sort_by(|a, b| a.0.cmp(&b.0));
        stats
    }

    /// The multiplexed channel for `host:port`, creating it on first use.
    fn channel_to(&self, host: &str, port: u16) -> Arc<IiopChannel> {
        let key = (host.to_owned(), port);
        let mut channels = self.channels.lock();
        if let Some(ch) = channels.get(&key) {
            return Arc::clone(ch);
        }
        let domain = Arc::clone(&self.domain);
        let (rhost, rport) = key.clone();
        let channel = Arc::new(IiopChannel::new(
            key.clone(),
            self.config.byte_order,
            Arc::clone(&self.metrics),
            MAX_CONNS_PER_ENDPOINT,
            self.config.breaker,
            self.domain.chaos_registry(),
            Box::new(move || domain.resolve(&rhost, rport)),
        ));
        channels.insert(key, Arc::clone(&channel));
        channel
    }

    /// Shut the ORB down: stop accepting, close server connections in
    /// an orderly way (GIOP CloseConnection tells clients outstanding
    /// requests were not processed, so their retries are safe), sever
    /// them, unregister the endpoint, and drop client channels.
    pub fn shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // already down
        }
        // Wake the reactor by poking the listener: its poll reports the
        // listener readable and it then sees the flag. Joining it also
        // waits for its CloseConnection broadcast.
        let _ = TcpStream::connect(self.listener_addr);
        if let Some(handle) = self.core_handle.lock().take() {
            let _ = handle.join();
        }
        self.domain
            .unregister_endpoint(&self.config.advertised_host, self.config.advertised_port);
        for (_, channel) in self.channels.lock().drain() {
            channel.close();
        }
    }
}

impl Drop for Orb {
    fn drop(&mut self) {
        // Only effective if the caller forgot to shut down; harmless
        // otherwise. (Arc cycles are avoided: handler threads hold only
        // the adapter/metrics Arcs, not the Orb itself.)
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.listener_addr);
        }
    }
}

/// Dispatch one request through the adapter and write its GIOP reply
/// frame into `buf`: the servant writes its result straight after the
/// Reply head. A servant that fails or panics, however much it wrote,
/// or writes a result past [`MAX_MESSAGE_SIZE`], gets its frame
/// restarted as the exception reply; panics are isolated so they cost
/// this one request, not the connection.
#[allow(clippy::too_many_arguments)] // one request, and where its reply goes
pub(crate) fn dispatch_reply(
    request_id: u32,
    object_key: &[u8],
    operation: &str,
    args: &[Value],
    adapter: &ObjectAdapter,
    metrics: &OrbMetrics,
    order: ByteOrder,
    buf: Vec<u8>,
) -> WireResult<Vec<u8>> {
    let mut out = giop::reply_frame(order, buf, request_id);
    let dispatched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        adapter.dispatch(object_key, operation, args, &mut out)
    }));
    let (system, description) = match dispatched {
        Ok(Ok(())) if out.len() <= MAX_MESSAGE_SIZE as usize => return giop::finish_reply(out),
        // A result too large to frame fails as a servant error would,
        // so the caller gets an exception rather than no reply at all.
        Ok(Ok(())) => {
            let e = WireError::TooLarge {
                declared: out.len() as u64,
                limit: u64::from(MAX_MESSAGE_SIZE),
            };
            (true, ServantError::Marshal(e.to_string()).description())
        }
        Ok(Err(e)) => (e.is_system(), e.description()),
        Err(panic) => {
            let what = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".into());
            (true, format!("UNKNOWN: servant panicked: {what}"))
        }
    };
    metrics.add(&metrics.exceptions_sent, 1);
    giop::reply_exception(request_id, system, &description).encode_into(order, out.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::servant::{EchoServant, ServantError};
    use std::time::Duration;

    fn two_orbs() -> (Arc<Orb>, Arc<Orb>, Arc<OrbDomain>) {
        let domain = OrbDomain::new();
        let orbix = Orb::start(
            OrbConfig::new("Orbix", "orbix.qut.edu.au", 9000, ByteOrder::BigEndian),
            Arc::clone(&domain),
        )
        .unwrap();
        let visi = Orb::start(
            OrbConfig::new(
                "VisiBroker",
                "visi.qut.edu.au",
                9001,
                ByteOrder::LittleEndian,
            ),
            Arc::clone(&domain),
        )
        .unwrap();
        (orbix, visi, domain)
    }

    #[test]
    fn cross_orb_invocation_over_iiop() {
        let (orbix, visi, _domain) = two_orbs();
        let ior = orbix.activate("echo/1", Arc::new(EchoServant));

        // VisiBroker (little-endian) calls a servant hosted on Orbix
        // (big-endian): a genuine cross-vendor IIOP round-trip.
        let out = visi
            .invoke(&ior, "echo", &[Value::Long(5), Value::string("hi")])
            .unwrap();
        assert_eq!(
            out,
            Value::Sequence(vec![Value::Long(5), Value::string("hi")])
        );

        let visi_m = visi.metrics().snapshot();
        let orbix_m = orbix.metrics().snapshot();
        assert_eq!(visi_m.requests_sent, 1);
        assert_eq!(visi_m.local_dispatches, 0);
        assert_eq!(orbix_m.requests_served, 1);
        assert!(visi_m.bytes_sent > 12);
        assert_eq!(visi_m.in_flight, 0);
        let lat = visi.endpoint_latency("orbix.qut.edu.au", 9000).unwrap();
        assert_eq!(lat.calls, 1);
        assert!(lat.max() > Duration::ZERO);
        assert!(visi.endpoint_latency("other", 1).is_none());
        assert_eq!(visi.endpoint_latencies().len(), 1);

        orbix.shutdown();
        visi.shutdown();
    }

    #[test]
    fn collocated_invocation_short_circuits() {
        let (orbix, _visi, _domain) = two_orbs();
        let ior = orbix.activate("echo/1", Arc::new(EchoServant));
        let out = orbix.invoke(&ior, "ping", &[]).unwrap();
        assert_eq!(out, Value::string("pong"));
        let m = orbix.metrics().snapshot();
        assert_eq!(m.local_dispatches, 1);
        assert_eq!(m.requests_sent, 0);
        orbix.shutdown();
    }

    #[test]
    fn user_and_system_exceptions_propagate() {
        let (orbix, visi, _domain) = two_orbs();
        let ior = orbix.activate("echo/1", Arc::new(EchoServant));

        match visi.invoke(&ior, "fail_user", &[]) {
            Err(OrbError::RemoteException {
                system: false,
                description,
            }) => assert_eq!(description, "declared failure"),
            other => panic!("expected user exception, got {other:?}"),
        }
        match visi.invoke(&ior, "fail_system", &[]) {
            Err(OrbError::RemoteException { system: true, .. }) => {}
            other => panic!("expected system exception, got {other:?}"),
        }
        match visi.invoke(&ior, "no_such_op", &[]) {
            Err(OrbError::RemoteException {
                system: true,
                description,
            }) => assert!(description.contains("BAD_OPERATION")),
            other => panic!("expected BAD_OPERATION, got {other:?}"),
        }
        orbix.shutdown();
        visi.shutdown();
    }

    #[test]
    fn unknown_object_key_is_object_not_exist() {
        let (orbix, visi, _domain) = two_orbs();
        let ior = orbix.ior_for("ghost", "IDL:X:1.0");
        match visi.invoke(&ior, "ping", &[]) {
            Err(OrbError::RemoteException {
                system: true,
                description,
            }) => assert!(description.contains("OBJECT_NOT_EXIST")),
            other => panic!("expected OBJECT_NOT_EXIST, got {other:?}"),
        }
        orbix.shutdown();
        visi.shutdown();
    }

    #[test]
    fn locate_probe() {
        let (orbix, visi, _domain) = two_orbs();
        let ior = orbix.activate("echo/1", Arc::new(EchoServant));
        assert_eq!(visi.locate(&ior).unwrap(), LocateStatus::ObjectHere);
        let ghost = orbix.ior_for("ghost", "IDL:X:1.0");
        assert_eq!(visi.locate(&ghost).unwrap(), LocateStatus::UnknownObject);
        // Local probe too.
        assert_eq!(orbix.locate(&ior).unwrap(), LocateStatus::ObjectHere);
        orbix.shutdown();
        visi.shutdown();
    }

    #[test]
    fn unknown_host_fails_fast() {
        let (_orbix, visi, _domain) = two_orbs();
        let ior = Ior::new_iiop("IDL:X:1.0", "nowhere.example", 1234, b"k".to_vec());
        assert!(matches!(
            visi.invoke(&ior, "ping", &[]),
            Err(OrbError::UnknownHost { .. })
        ));
    }

    #[test]
    fn nil_reference_rejected() {
        let (_orbix, visi, _domain) = two_orbs();
        assert!(matches!(
            visi.invoke(&Ior::nil(), "ping", &[]),
            Err(OrbError::NoEndpoint)
        ));
    }

    #[test]
    fn shutdown_then_invoke_errors() {
        let (orbix, visi, _domain) = two_orbs();
        let ior = orbix.activate("echo/1", Arc::new(EchoServant));
        visi.invoke(&ior, "ping", &[]).unwrap();
        orbix.shutdown();
        // The endpoint is gone from the domain and the connection severed;
        // either way the call must fail, not hang.
        assert!(visi.invoke(&ior, "ping", &[]).is_err());
        visi.shutdown();
    }

    #[test]
    fn sequential_calls_share_one_connection() {
        let (orbix, visi, _domain) = two_orbs();
        let ior = orbix.activate("echo/1", Arc::new(EchoServant));
        for _ in 0..10 {
            visi.invoke(&ior, "ping", &[]).unwrap();
        }
        let channels = visi.channels.lock();
        assert_eq!(channels.len(), 1);
        let channel = channels
            .get(&("orbix.qut.edu.au".to_string(), 9000))
            .unwrap();
        // Never more than one caller in flight, so the channel never
        // had a reason to open a second connection.
        assert_eq!(channel.live_connections(), 1);
        drop(channels);
        orbix.shutdown();
        visi.shutdown();
    }

    #[test]
    fn concurrent_invocations() {
        let (orbix, visi, _domain) = two_orbs();
        let ior = orbix.activate("echo/1", Arc::new(EchoServant));
        let mut handles = Vec::new();
        for i in 0..8 {
            let visi = Arc::clone(&visi);
            let ior = ior.clone();
            handles.push(std::thread::spawn(move || {
                for j in 0..25 {
                    let v = visi
                        .invoke(&ior, "echo", &[Value::Long(i * 100 + j)])
                        .unwrap();
                    assert_eq!(v, Value::Sequence(vec![Value::Long(i * 100 + j)]));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(visi.metrics().snapshot().requests_sent, 200);
        // Eight callers, at most MAX_CONNS_PER_ENDPOINT connections:
        // the channel multiplexed rather than opening one per caller.
        let channels = visi.channels.lock();
        let channel = channels
            .get(&("orbix.qut.edu.au".to_string(), 9000))
            .unwrap();
        assert!(channel.live_connections() <= MAX_CONNS_PER_ENDPOINT);
        drop(channels);
        orbix.shutdown();
        visi.shutdown();
    }

    /// Two callers pipeline batches over the same two endpoints in
    /// opposite orders, each caller with twice as many requests per
    /// endpoint as its connection pool holds, so the callers share
    /// connections and each has a second request registered behind the
    /// one it waits on. Were the read half handed to a request nobody is
    /// waiting on, the caller parked behind it would never wake — the
    /// watchdog fails the test instead of hanging it.
    #[test]
    fn pipelined_batches_in_opposite_orders_every_call_gets_its_own_reply() {
        const ROUNDS: usize = 500;
        let (orbix, visi, domain) = two_orbs();
        let client = Orb::start(
            OrbConfig::new("OrbixWeb", "web.qut.edu.au", 9002, ByteOrder::BigEndian),
            domain,
        )
        .unwrap();
        let a = orbix.activate("echo/a", Arc::new(EchoServant));
        let b = visi.activate("echo/b", Arc::new(EchoServant));
        let width = 2 * MAX_CONNS_PER_ENDPOINT;

        // Every round starts together, so the batches overlap and a
        // caller that finishes first waits here instead of rescuing one
        // left asleep.
        let rounds = Arc::new(std::sync::Barrier::new(2));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for (t, first, second) in [(0, a.clone(), b.clone()), (1, b, a)] {
            let client = Arc::clone(&client);
            let rounds = Arc::clone(&rounds);
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    rounds.wait();
                    let args: Vec<[Value; 1]> = (0..2 * width)
                        .map(|i| [Value::string(format!("t{t}-r{round}-c{i}"))])
                        .collect();
                    let calls: Vec<Invocation<'_>> = args
                        .iter()
                        .enumerate()
                        .map(|(i, args)| Invocation {
                            target: if i < width { &first } else { &second },
                            operation: "echo",
                            args,
                        })
                        .collect();
                    let out = client.invoke_all(&calls, &CallOptions::default());
                    for (args, reply) in args.iter().zip(out) {
                        assert_eq!(reply.unwrap(), Value::Sequence(args.to_vec()));
                    }
                }
                let _ = done_tx.send(t);
            });
        }
        for _ in 0..2 {
            done_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("watchdog: a pipelining caller never woke — a Lead went to a request nobody waits on");
        }

        assert_eq!(client.metrics().snapshot().in_flight, 0);
        let channels = client.channels.lock();
        assert_eq!(channels.len(), 2);
        for channel in channels.values() {
            assert_eq!(channel.pending_requests(), 0, "no slot left behind");
        }
        assert_eq!(
            client.metrics().snapshot().requests_sent,
            (2 * ROUNDS * 2 * width) as u64
        );
        drop(channels);
        // Under `deadlock-detect` the read half (exempt) is the only
        // lock a caller may hold into a wait; other tests of this binary
        // run beside this one, so only channel locks are looked at.
        let ours: Vec<_> = webfindit_base::sync::detect::take_violations()
            .into_iter()
            .filter(|v| v.message.contains("orb::MuxConn"))
            .collect();
        assert!(ours.is_empty(), "detector reports: {ours:#?}");
        client.shutdown();
        orbix.shutdown();
        visi.shutdown();
    }

    /// A servant that stalls until told to finish, for deadline tests.
    struct StallServant {
        release: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
    }

    impl Servant for StallServant {
        fn interface_id(&self) -> &str {
            "IDL:webfindit/Stall:1.0"
        }

        fn invoke(&self, operation: &str, _args: &[Value]) -> Result<Value, ServantError> {
            match operation {
                "stall" => {
                    let (lock, cvar) = &*self.release;
                    let mut done = lock.lock().unwrap();
                    while !*done {
                        done = cvar.wait(done).unwrap();
                    }
                    Ok(Value::string("released"))
                }
                other => Err(ServantError::UnknownOperation(other.to_owned())),
            }
        }
    }

    #[test]
    fn deadline_expires_and_other_calls_proceed() {
        let (orbix, visi, _domain) = two_orbs();
        let release = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let stall_ior = orbix.activate(
            "stall/1",
            Arc::new(StallServant {
                release: Arc::clone(&release),
            }),
        );
        let echo_ior = orbix.activate("echo/1", Arc::new(EchoServant));

        // Fire the stalling call with a short deadline on its own thread.
        let stalled = {
            let visi = Arc::clone(&visi);
            let ior = stall_ior.clone();
            std::thread::spawn(move || {
                visi.invoke_with(
                    &ior,
                    "stall",
                    &[],
                    &CallOptions {
                        deadline: Some(Duration::from_millis(100)),
                        retry: RetryPolicy::never(),
                    },
                )
            })
        };

        // While the stalling request occupies the server, other calls
        // multiplexed over the same endpoint must still complete.
        for _ in 0..5 {
            visi.invoke(&echo_ior, "ping", &[]).unwrap();
        }

        match stalled.join().unwrap() {
            Err(OrbError::DeadlineExpired { operation_deadline }) => {
                assert_eq!(operation_deadline, Duration::from_millis(100));
            }
            other => panic!("expected DeadlineExpired, got {other:?}"),
        }
        assert_eq!(visi.metrics().snapshot().timeouts, 1);

        // Release the servant so its worker thread can exit.
        {
            let (lock, cvar) = &*release;
            *lock.lock().unwrap() = true;
            cvar.notify_all();
        }
        orbix.shutdown();
        visi.shutdown();
    }

    #[test]
    fn invoke_falls_back_to_alternate_profile() {
        let (orbix, visi, _domain) = two_orbs();
        orbix.activate("echo/1", Arc::new(EchoServant));
        // First profile points at an unresolvable host; the second is
        // the live endpoint. The call must fall through, not fail.
        let mut ior = Ior::new_iiop(
            "IDL:webfindit/Echo:1.0",
            "dead.example",
            1,
            b"echo/1".to_vec(),
        );
        ior.push_iiop_profile("orbix.qut.edu.au", 9000, b"echo/1".to_vec());
        let out = visi.invoke(&ior, "ping", &[]).unwrap();
        assert_eq!(out, Value::string("pong"));
        orbix.shutdown();
        visi.shutdown();
    }
}
