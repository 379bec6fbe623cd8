//! End-to-end GIOP fragment streaming through the reactor: a
//! servant reply bigger than the fragment chunk size must travel as a
//! fragment train (server counts `fragmented_replies`/`fragments_sent`,
//! client counts `fragments_reassembled`) and arrive byte-identical —
//! also when two workers write their trains to one connection at the
//! same moment, and when the client is slow to take them.

use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use webfindit_orb::servant::{InvokeResult, Servant, ServantError};
use webfindit_orb::{Orb, OrbConfig, OrbDomain};
use webfindit_wire::cdr::ByteOrder;
use webfindit_wire::giop::{self, FragmentAssembler, GiopHeader, GiopMessage, MessageKind};
use webfindit_wire::transport::FramedTcp;
use webfindit_wire::Value;

/// Returns a payload of the requested size; `big` is comfortably past
/// the 64 KiB fragment chunk, `small` is far under it.
struct SizedServant;

impl Servant for SizedServant {
    fn interface_id(&self) -> &str {
        "IDL:test/Sized:1.0"
    }
    fn invoke(&self, operation: &str, _args: &[Value]) -> InvokeResult {
        match operation {
            "big" => Ok(Value::Str("B".repeat(300 * 1024))),
            "small" => Ok(Value::Str("s".repeat(64))),
            other => Err(ServantError::UnknownOperation(other.into())),
        }
    }
}

fn start_pair() -> (Arc<Orb>, Arc<Orb>) {
    let domain = OrbDomain::new();
    let server = Orb::start(
        OrbConfig::new("S", "frag-s.net", 1, ByteOrder::BigEndian),
        Arc::clone(&domain),
    )
    .unwrap();
    let client = Orb::start(
        OrbConfig::new("C", "frag-c.net", 2, ByteOrder::LittleEndian),
        Arc::clone(&domain),
    )
    .unwrap();
    (server, client)
}

#[test]
fn large_reply_streams_as_a_fragment_train() {
    let (server, client) = start_pair();
    let ior = server.activate("sized", Arc::new(SizedServant));

    let out = client.invoke(&ior, "big", &[]).unwrap();
    assert_eq!(out, Value::Str("B".repeat(300 * 1024)));

    // 300 KiB over 64 KiB chunks: one fragmented reply, ≥4 continuations.
    let s = server.metrics().snapshot();
    assert_eq!(s.fragmented_replies, 1, "server fragmented_replies");
    assert!(
        s.fragments_sent >= 4,
        "fragments_sent = {}",
        s.fragments_sent
    );
    let c = client.metrics().snapshot();
    assert_eq!(c.fragments_reassembled, 1, "client fragments_reassembled");

    server.shutdown();
    client.shutdown();
}

#[test]
fn small_replies_stay_unfragmented() {
    let (server, client) = start_pair();
    let ior = server.activate("sized", Arc::new(SizedServant));

    for _ in 0..3 {
        let out = client.invoke(&ior, "small", &[]).unwrap();
        assert_eq!(out, Value::Str("s".repeat(64)));
    }
    let s = server.metrics().snapshot();
    assert_eq!(s.fragmented_replies, 0);
    assert_eq!(s.fragments_sent, 0);
    assert_eq!(client.metrics().snapshot().fragments_reassembled, 0);

    server.shutdown();
    client.shutdown();
}

#[test]
fn fragmented_replies_interleave_with_small_ones_on_one_connection() {
    let (server, client) = start_pair();
    let ior = server.activate("sized", Arc::new(SizedServant));

    for i in 0..4 {
        let op = if i % 2 == 0 { "big" } else { "small" };
        let out = client.invoke(&ior, op, &[]).unwrap();
        match out {
            Value::Str(s) if op == "big" => assert_eq!(s.len(), 300 * 1024),
            Value::Str(s) => assert_eq!(s.len(), 64),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    let s = server.metrics().snapshot();
    assert_eq!(s.fragmented_replies, 2);
    assert_eq!(client.metrics().snapshot().fragments_reassembled, 2);

    server.shutdown();
    client.shutdown();
}

/// `twin(tag)` returns 300 KiB of `tag`, but not before a second
/// dispatch has reached the same point: both workers leave the servant
/// together and race to write their trains.
struct TwinServant {
    gate: Barrier,
}

impl Servant for TwinServant {
    fn interface_id(&self) -> &str {
        "IDL:test/Twin:1.0"
    }
    fn invoke(&self, operation: &str, args: &[Value]) -> InvokeResult {
        match (operation, args.first().and_then(Value::as_str)) {
            ("twin", Some(tag)) => {
                self.gate.wait();
                Ok(Value::Str(tag.repeat(300 * 1024)))
            }
            _ => Err(ServantError::UnknownOperation(operation.into())),
        }
    }
}

/// A bare IIOP connection to `server`, bypassing the client ORB, plus
/// a reader that checks train integrity frame by frame.
struct RawClient {
    tcp: FramedTcp,
    assembler: FragmentAssembler,
}

impl RawClient {
    fn connect(server: &Orb) -> RawClient {
        let (host, port) = server.advertised_endpoint();
        let addr = server
            .domain()
            .resolve(&host, port)
            .expect("server endpoint registered");
        RawClient {
            tcp: FramedTcp::new(TcpStream::connect(addr).expect("connect to server")),
            assembler: FragmentAssembler::new(),
        }
    }

    fn send(&mut self, request_id: u32, key: &str, operation: &str, args: Vec<Value>) {
        let msg = giop::request(request_id, key.as_bytes().to_vec(), operation, args);
        self.tcp
            .send_message(&msg, ByteOrder::LittleEndian)
            .expect("request sends");
    }

    /// The next whole reply. Once a train has started, nothing but its
    /// own `Fragment` frames may arrive until it ends.
    fn next_reply(&mut self) -> (u32, Value) {
        loop {
            let frame = self.tcp.recv_frame().expect("reply frame");
            let mut hdr = [0u8; 12];
            hdr.copy_from_slice(&frame[..12]);
            let kind = GiopHeader::from_bytes(&hdr).expect("frame header").kind;
            if self.assembler.in_progress() {
                assert_eq!(kind, MessageKind::Fragment, "a frame cut into a train");
            }
            match self.assembler.push_frame(frame).expect("frame assembles") {
                Some(GiopMessage::Reply {
                    request_id, body, ..
                }) => return (request_id, body),
                Some(other) => panic!("expected Reply, got {:?}", other.kind()),
                None => {}
            }
        }
    }
}

#[test]
fn concurrent_large_replies_on_one_connection_arrive_as_whole_trains() {
    let (server, client) = start_pair();
    server.activate(
        "twin",
        Arc::new(TwinServant {
            gate: Barrier::new(2),
        }),
    );
    let mut raw = RawClient::connect(&server);
    raw.send(1, "twin", "twin", vec![Value::string("X")]);
    raw.send(2, "twin", "twin", vec![Value::string("Y")]);

    let mut got = [raw.next_reply(), raw.next_reply()];
    got.sort_by_key(|(id, _)| *id);
    assert_eq!(got[0], (1, Value::Str("X".repeat(300 * 1024))));
    assert_eq!(got[1], (2, Value::Str("Y".repeat(300 * 1024))));
    assert_eq!(server.metrics().snapshot().fragmented_replies, 2);

    server.shutdown();
    client.shutdown();
}

#[test]
fn a_client_that_stops_reading_is_paused_then_drained_by_the_reactor() {
    let (server, client) = start_pair();
    server.activate("sized", Arc::new(SizedServant));

    // 64 x 300 KiB of replies with nobody reading: far more than the
    // socket buffers take, so the workers' writes leave most of it
    // queued on the connection, past the high-water mark.
    const REPLIES: u32 = 64;
    let mut raw = RawClient::connect(&server);
    for id in 0..REPLIES {
        raw.send(id, "sized", "big", vec![]);
    }
    let waited = Instant::now();
    while server.metrics().snapshot().backpressure_pauses == 0 {
        assert!(
            waited.elapsed() < Duration::from_secs(30),
            "send queue never crossed the high-water mark"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Now read. Whatever the workers could not write is the reactor's
    // to finish on POLLOUT; requests it stopped reading while paused
    // are picked up again below the low-water mark. Every reply arrives
    // whole.
    let mut seen: Vec<u32> = (0..REPLIES)
        .map(|_| {
            let (id, body) = raw.next_reply();
            assert_eq!(body, Value::Str("B".repeat(300 * 1024)));
            id
        })
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..REPLIES).collect::<Vec<_>>());
    assert_eq!(
        server.metrics().snapshot().fragmented_replies,
        u64::from(REPLIES)
    );

    server.shutdown();
    client.shutdown();
}

/// Writes 100 KiB of result into the reply frame, more than a fragment
/// chunk, then fails the way its operation says; `ok` answers normally.
struct HalfWayServant;

impl Servant for HalfWayServant {
    fn interface_id(&self) -> &str {
        "IDL:test/HalfWay:1.0"
    }
    fn invoke(&self, operation: &str, _args: &[Value]) -> InvokeResult {
        match operation {
            "ok" => Ok(Value::string("fine")),
            other => Err(ServantError::UnknownOperation(other.into())),
        }
    }
    fn invoke_into(
        &self,
        operation: &str,
        args: &[Value],
        out: &mut webfindit_wire::CdrWriter,
    ) -> Result<(), ServantError> {
        if operation == "ok" {
            let result = self.invoke(operation, args)?;
            return result
                .encode(out)
                .map_err(|e| ServantError::Marshal(e.to_string()));
        }
        Value::Str("P".repeat(100 * 1024)).encode(out).unwrap();
        match operation {
            "user" => Err(ServantError::Application("gave up halfway".into())),
            "system" => Err(ServantError::Resource("disk gone halfway".into())),
            "panic" => panic!("halfway"),
            other => Err(ServantError::UnknownOperation(other.into())),
        }
    }
}

/// However much a failing servant wrote, its caller gets the exception
/// alone: no fragment of the partial body is sent, and the connection
/// serves the next call.
#[test]
fn a_servant_that_fails_partway_through_its_reply_sends_only_the_exception() {
    let (server, client) = start_pair();
    let ior = server.activate("halfway", Arc::new(HalfWayServant));
    assert_eq!(
        client.invoke(&ior, "ok", &[]).unwrap(),
        Value::string("fine")
    );

    for (op, want_system, want) in [
        ("user", false, "gave up halfway"),
        ("system", true, "PERSIST_STORE: disk gone halfway"),
        ("panic", true, "UNKNOWN: servant panicked: halfway"),
    ] {
        let received = client.metrics().snapshot().bytes_received;
        match client.invoke(&ior, op, &[]) {
            Err(webfindit_orb::OrbError::RemoteException {
                system,
                description,
            }) => {
                assert_eq!(system, want_system, "{op}");
                assert!(description.starts_with(want), "{op}: {description}");
            }
            other => panic!("{op}: expected an exception, got {other:?}"),
        }
        let reply_bytes = client.metrics().snapshot().bytes_received - received;
        assert!(reply_bytes < 1024, "{op}: {reply_bytes} bytes came back");
        assert_eq!(
            client.invoke(&ior, "ok", &[]).unwrap(),
            Value::string("fine"),
            "{op}: the next call"
        );
    }

    let s = server.metrics().snapshot();
    assert_eq!(s.fragmented_replies, 0);
    assert_eq!(s.fragments_sent, 0);
    assert_eq!(s.exceptions_sent, 3);
    let c = client.metrics().snapshot();
    assert_eq!(c.fragments_reassembled, 0);
    assert_eq!(c.evictions, 0);

    server.shutdown();
    client.shutdown();
}
