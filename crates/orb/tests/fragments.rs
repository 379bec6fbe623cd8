//! End-to-end GIOP fragment streaming through the reactor: a
//! servant reply bigger than the fragment chunk size must travel as a
//! fragment train (server counts `fragmented_replies`/`fragments_sent`,
//! client counts `fragments_reassembled`) and arrive byte-identical.

use std::sync::Arc;
use webfindit_orb::servant::{InvokeResult, Servant, ServantError};
use webfindit_orb::{Orb, OrbConfig, OrbDomain};
use webfindit_wire::cdr::ByteOrder;
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
