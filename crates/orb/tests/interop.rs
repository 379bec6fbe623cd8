//! Cross-ORB interoperability tests: panic isolation, hostile-frame
//! isolation, value fidelity across mixed byte orders, many-ORB meshes,
//! and location probing under churn.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use webfindit_base::prop::{self, string_of, vec_of};
use webfindit_base::rng::StdRng;
use webfindit_orb::servant::{EchoServant, InvokeResult, Servant, ServantError};
use webfindit_orb::{Orb, OrbConfig, OrbDomain, OrbError};
use webfindit_wire::cdr::ByteOrder;
use webfindit_wire::giop::{self, GiopMessage};
use webfindit_wire::transport::FramedTcp;
use webfindit_wire::Value;

struct PanickyServant;

impl Servant for PanickyServant {
    fn interface_id(&self) -> &str {
        "IDL:test/Panicky:1.0"
    }
    fn invoke(&self, operation: &str, _args: &[Value]) -> InvokeResult {
        match operation {
            "boom" => panic!("servant bug #42"),
            "ok" => Ok(Value::string("fine")),
            other => Err(ServantError::UnknownOperation(other.into())),
        }
    }
}

#[test]
fn servant_panic_becomes_system_exception_and_connection_survives() {
    let domain = OrbDomain::new();
    let server = Orb::start(
        OrbConfig::new("S", "s.net", 1, ByteOrder::BigEndian),
        Arc::clone(&domain),
    )
    .unwrap();
    let client = Orb::start(
        OrbConfig::new("C", "c.net", 2, ByteOrder::LittleEndian),
        Arc::clone(&domain),
    )
    .unwrap();
    let ior = server.activate("p", Arc::new(PanickyServant));

    match client.invoke(&ior, "boom", &[]) {
        Err(OrbError::RemoteException {
            system: true,
            description,
        }) => {
            assert!(description.contains("servant bug #42"), "{description}");
        }
        other => panic!("expected system exception, got {other:?}"),
    }
    // Same pooled connection still works afterwards.
    assert_eq!(
        client.invoke(&ior, "ok", &[]).unwrap(),
        Value::string("fine")
    );
    server.shutdown();
    client.shutdown();
}

/// A Request whose one argument nests 20 000 sequences (160 001 bytes)
/// would overflow the decoding thread's stack and abort the server
/// process. The depth limit turns it into a GIOP MessageError and a
/// closed connection, and the ORB goes on serving new connections.
#[test]
fn a_too_deeply_nested_argument_earns_message_error_and_the_orb_survives() {
    let domain = OrbDomain::new();
    let server = Orb::start(
        OrbConfig::new("S", "sdeep.net", 1, ByteOrder::BigEndian),
        Arc::clone(&domain),
    )
    .unwrap();
    let ior = server.activate("e", Arc::new(EchoServant));
    let addr = domain.resolve("sdeep.net", 1).expect("server endpoint");

    // A valid argument-less Request, whose trailing argument count (the
    // last 4 bytes) is replaced by one argument: 20 000 times tag 10
    // (SEQUENCE), three alignment octets and length 1, then tag 13
    // (NULL). The header's body size is patched to match.
    let mut frame = giop::request(7, b"e".to_vec(), "echo", Vec::new())
        .encode(ByteOrder::BigEndian)
        .unwrap();
    frame.truncate(frame.len() - 4);
    frame.extend_from_slice(&1u32.to_be_bytes());
    frame.extend([10, 0, 0, 0, 0, 0, 0, 1].repeat(20_000));
    frame.push(13);
    let body_size = (frame.len() - 12) as u32;
    frame[8..12].copy_from_slice(&body_size.to_be_bytes());

    let mut raw = FramedTcp::new(TcpStream::connect(addr).unwrap());
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.send_frame(&frame).unwrap();
    let answer = GiopMessage::decode_frame(raw.recv_frame().expect("server answers")).unwrap();
    assert_eq!(answer, GiopMessage::MessageError);
    assert!(raw.recv_frame().is_err(), "server closes the connection");

    let client = Orb::start(
        OrbConfig::new("C", "cdeep.net", 2, ByteOrder::LittleEndian),
        Arc::clone(&domain),
    )
    .unwrap();
    let pong = client
        .invoke(&ior, "ping", &[])
        .expect("a new connection is served");
    assert_eq!(pong, Value::string("pong"));
    client.shutdown();
    server.shutdown();
}

#[test]
fn three_orb_mesh_full_interop() {
    // Every ORB can call servants on every other ORB, mixed byte orders.
    let domain = OrbDomain::new();
    let orders = [
        ByteOrder::BigEndian,
        ByteOrder::LittleEndian,
        ByteOrder::BigEndian,
    ];
    let orbs: Vec<Arc<Orb>> = (0..3)
        .map(|i| {
            Orb::start(
                OrbConfig::new(
                    format!("O{i}"),
                    format!("o{i}.net"),
                    10 + i as u16,
                    orders[i],
                ),
                Arc::clone(&domain),
            )
            .unwrap()
        })
        .collect();
    let iors: Vec<_> = orbs
        .iter()
        .enumerate()
        .map(|(i, orb)| orb.activate(format!("echo{i}"), Arc::new(EchoServant)))
        .collect();
    for caller in &orbs {
        for ior in &iors {
            let out = caller
                .invoke(ior, "echo", &[Value::Long(7), Value::string("mesh")])
                .unwrap();
            assert_eq!(
                out,
                Value::Sequence(vec![Value::Long(7), Value::string("mesh")])
            );
        }
    }
    for orb in &orbs {
        orb.shutdown();
    }
}

const ALNUM_SPACE: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";

fn arb_value(rng: &mut StdRng, depth: u32) -> Value {
    let pick = if depth == 0 {
        rng.gen_range(0..5)
    } else {
        rng.gen_range(0..8)
    };
    match pick {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::LongLong(rng.next_u64() as i64),
        3 => Value::Double(rng.gen_range(-1e9f64..1e9)),
        4 => Value::Str(string_of(rng, ALNUM_SPACE, 0..25)),
        n if n < 7 => Value::Sequence(vec_of(rng, 0..4, |r| arb_value(r, depth - 1))),
        _ => Value::Struct(vec_of(rng, 0..4, |r| {
            (string_of(r, LOWER, 1..7), arb_value(r, depth - 1))
        })),
    }
}

#[test]
fn values_cross_the_wire_unchanged() {
    prop::cases(24, |rng| {
        let values = vec_of(rng, 0..4, |r| arb_value(r, 2));
        let domain = OrbDomain::new();
        let server = Orb::start(
            OrbConfig::new("S", "sp.net", 1, ByteOrder::BigEndian),
            Arc::clone(&domain),
        )
        .unwrap();
        let client = Orb::start(
            OrbConfig::new("C", "cp.net", 2, ByteOrder::LittleEndian),
            Arc::clone(&domain),
        )
        .unwrap();
        let ior = server.activate("echo", Arc::new(EchoServant));
        let out = client.invoke(&ior, "echo", &values).unwrap();
        assert_eq!(out, Value::Sequence(values));
        server.shutdown();
        client.shutdown();
    });
}

#[test]
fn deactivation_is_visible_to_remote_locate() {
    use webfindit_wire::giop::LocateStatus;
    let domain = OrbDomain::new();
    let server = Orb::start(
        OrbConfig::new("S", "sd.net", 1, ByteOrder::BigEndian),
        Arc::clone(&domain),
    )
    .unwrap();
    let client = Orb::start(
        OrbConfig::new("C", "cd.net", 2, ByteOrder::LittleEndian),
        Arc::clone(&domain),
    )
    .unwrap();
    let ior = server.activate("e", Arc::new(EchoServant));
    assert_eq!(client.locate(&ior).unwrap(), LocateStatus::ObjectHere);
    server.adapter().deactivate(b"e");
    assert_eq!(client.locate(&ior).unwrap(), LocateStatus::UnknownObject);
    server.shutdown();
    client.shutdown();
}

#[test]
fn pooled_connection_survives_server_restart() {
    // A client with a stale pooled connection must evict and retry when
    // the server comes back at the same advertised endpoint.
    let domain = OrbDomain::new();
    let client = Orb::start(
        OrbConfig::new("C", "cr.net", 2, ByteOrder::LittleEndian),
        Arc::clone(&domain),
    )
    .unwrap();

    let server1 = Orb::start(
        OrbConfig::new("S", "sr.net", 1, ByteOrder::BigEndian),
        Arc::clone(&domain),
    )
    .unwrap();
    let ior = server1.activate("e", Arc::new(EchoServant));
    assert_eq!(
        client.invoke(&ior, "ping", &[]).unwrap(),
        Value::string("pong")
    );

    // Restart: same advertised endpoint, new socket.
    server1.shutdown();
    let server2 = Orb::start(
        OrbConfig::new("S", "sr.net", 1, ByteOrder::BigEndian),
        Arc::clone(&domain),
    )
    .unwrap();
    server2.activate("e", Arc::new(EchoServant));

    // The pooled connection is dead; the retry path must reconnect.
    assert_eq!(
        client.invoke(&ior, "ping", &[]).unwrap(),
        Value::string("pong")
    );
    server2.shutdown();
    client.shutdown();
}
