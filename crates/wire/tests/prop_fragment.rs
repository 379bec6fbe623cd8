//! Property and transport tests for GIOP fragment streaming.
//!
//! Invariants under test:
//!
//! * `split_into_fragments` followed by `FragmentAssembler::push_frame`
//!   over every chunk size — down to one-byte bodies — reproduces the
//!   original message exactly, in both byte orders.
//! * A torn train (truncated final fragment, a lone `Fragment`, or a
//!   non-`Fragment` frame mid-train) surfaces a typed `WireError`, never
//!   a silent wrong answer.
//! * A peer closing the socket mid-train surfaces `WireError::Closed`
//!   from the blocking transport — promptly, not as a hang.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use webfindit_base::prop::{self, string_of, vec_of};
use webfindit_base::rng::StdRng;
use webfindit_wire::bufpool::BufPool;
use webfindit_wire::cdr::ByteOrder;
use webfindit_wire::giop::{
    reply_ok, request, split_into_fragments, FragmentAssembler, GiopMessage, MessageKind,
};
use webfindit_wire::transport::FramedTcp;
use webfindit_wire::value::Value;
use webfindit_wire::WireError;

const TEXT: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _.-";

fn arb_order(rng: &mut StdRng) -> ByteOrder {
    if rng.gen_bool(0.5) {
        ByteOrder::BigEndian
    } else {
        ByteOrder::LittleEndian
    }
}

/// A message whose encoded body is big enough to fragment interestingly.
fn arb_message(rng: &mut StdRng) -> GiopMessage {
    if rng.gen_bool(0.5) {
        reply_ok(
            rng.next_u64() as u32,
            Value::Sequence(vec_of(rng, 1..8, |r| {
                Value::Str(string_of(r, TEXT, 0..120))
            })),
        )
    } else {
        request(
            rng.next_u64() as u32,
            string_of(rng, TEXT, 1..24).into_bytes(),
            string_of(rng, "abcdefghijklmnop_", 1..16),
            vec_of(rng, 0..5, |r| Value::Str(string_of(r, TEXT, 0..80))),
        )
    }
}

/// Split `msg` at `max_body` and reassemble, checking train shape along
/// the way; returns the reassembled message.
fn split_and_reassemble(msg: &GiopMessage, order: ByteOrder, max_body: usize) -> GiopMessage {
    let pool = BufPool::shared();
    let frame = msg.encode(order).expect("encode");
    let frames = split_into_fragments(&frame, max_body, &pool).expect("split");

    // Continuations — and only continuations — are Fragment frames.
    for (i, f) in frames.iter().enumerate() {
        let kind = MessageKind::from_u8(f[7]).expect("kind");
        if i == 0 {
            assert_ne!(kind, MessageKind::Fragment, "lead frame keeps its kind");
        } else {
            assert_eq!(kind, MessageKind::Fragment, "continuation {i}");
        }
        // No frame's body exceeds the requested chunk size.
        assert!(f.len() <= 12 + max_body.max(1), "frame {i} over max_body");
    }

    let mut asm = FragmentAssembler::new();
    let mut done = None;
    for (i, f) in frames.iter().enumerate() {
        match asm.push_frame(f).expect("push_frame") {
            Some(m) => {
                assert_eq!(i, frames.len() - 1, "message completed early");
                done = Some(m);
            }
            None => assert!(i + 1 < frames.len(), "train ended without a message"),
        }
    }
    assert!(!asm.in_progress(), "assembler idle after the train");
    done.expect("train produced a message")
}

#[test]
fn fragment_trains_roundtrip_at_arbitrary_chunk_sizes() {
    prop::cases(128, |rng| {
        let msg = arb_message(rng);
        let order = arb_order(rng);
        // Chunk sizes from degenerate (1 byte) to bigger-than-body.
        let max_body = match rng.gen_range(0..4) {
            0 => 1,
            1 => rng.gen_range(2..16) as usize,
            2 => rng.gen_range(16..256) as usize,
            _ => 1 << 20,
        };
        assert_eq!(split_and_reassemble(&msg, order, max_body), msg);
    });
}

#[test]
fn one_byte_fragments_reassemble_exactly() {
    let msg = reply_ok(42, Value::Str("stream me one byte at a time".into()));
    for order in [ByteOrder::BigEndian, ByteOrder::LittleEndian] {
        assert_eq!(split_and_reassemble(&msg, order, 1), msg);
    }
}

#[test]
fn torn_final_fragment_is_a_typed_error() {
    let pool = BufPool::shared();
    let msg = reply_ok(7, Value::Str("x".repeat(300)));
    let frame = msg.encode(ByteOrder::BigEndian).expect("encode");
    let frames = split_into_fragments(&frame, 64, &pool).expect("split");
    assert!(frames.len() >= 3, "need a multi-fragment train");

    let mut asm = FragmentAssembler::new();
    for f in &frames[..frames.len() - 1] {
        assert!(asm.push_frame(f).expect("mid-train").is_none());
    }
    // Final fragment torn: header claims more body than follows.
    let last = &frames[frames.len() - 1];
    let torn = &last[..last.len() - 3];
    assert!(matches!(
        asm.push_frame(torn),
        Err(WireError::UnexpectedEof { .. })
    ));
}

#[test]
fn lone_fragment_and_interrupted_train_are_protocol_errors() {
    let pool = BufPool::shared();
    let msg = reply_ok(9, Value::Str("y".repeat(200)));
    let frame = msg.encode(ByteOrder::LittleEndian).expect("encode");
    let frames = split_into_fragments(&frame, 64, &pool).expect("split");

    // A continuation with no train open.
    let mut asm = FragmentAssembler::new();
    assert!(matches!(
        asm.push_frame(&frames[1]),
        Err(WireError::BadTag { .. })
    ));

    // A non-Fragment frame arriving mid-train.
    let mut asm = FragmentAssembler::new();
    assert!(asm.push_frame(&frames[0]).expect("lead").is_none());
    let interloper = reply_ok(10, Value::Void)
        .encode(ByteOrder::LittleEndian)
        .expect("encode");
    assert!(matches!(
        asm.push_frame(&interloper),
        Err(WireError::BadTag { .. })
    ));
    // The error resets the train; the assembler is reusable.
    assert!(!asm.in_progress());
}

#[test]
fn peer_close_mid_fragment_surfaces_closed_not_a_hang() {
    let pool = BufPool::shared();
    let msg = reply_ok(11, Value::Str("z".repeat(500)));
    let frame = msg.encode(ByteOrder::BigEndian).expect("encode");
    let frames = split_into_fragments(&frame, 64, &pool).expect("split");
    assert!(frames.len() >= 2);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let sender = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).expect("connect");
        // One whole lead frame, then a few bytes of the continuation,
        // then a hard close mid-frame.
        s.write_all(&frames[0]).expect("lead");
        s.write_all(&frames[1][..5]).expect("partial continuation");
        drop(s);
    });

    let (conn, _) = listener.accept().expect("accept");
    let mut framed = FramedTcp::new(conn);
    // Hang-guard: a correct transport notices the close immediately; a
    // broken one trips this timeout instead of wedging the test.
    framed
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    let mut asm = FragmentAssembler::new();
    let lead = framed.recv_frame().expect("lead frame");
    assert!(asm.push_frame(lead).expect("lead").is_none());
    assert!(asm.in_progress());

    match framed.recv_frame() {
        Err(WireError::Closed) => {}
        other => panic!("expected Closed after mid-frame hangup, got {other:?}"),
    }
    sender.join().expect("sender");
}
