//! Property tests for the GIOP framer, [`FrameReader`], through both of
//! the ways it is driven:
//!
//! * **readiness** — a nonblocking socket, one `fill` each time it polls
//!   readable, then every whole frame taken out: the reactor's loop;
//! * **deadline** — [`FramedTcp::recv_frame_by`] with deadlines short
//!   enough to expire mid-header and mid-body: the leader's loop.
//!
//! Invariants:
//!
//! * A seeded stream of valid frames, fragment trains of 64 KiB
//!   fragments among them, delivered piece by piece at random cut
//!   points, yields exactly the messages of the uncut stream through
//!   either loop, then `Closed` at the peer's hang-up.
//! * A mutated stream yields the messages before the mutation, then a
//!   typed error, never a panic or a wrong frame: bad magic is
//!   `BadMagic`, a body over `MAX_MESSAGE_SIZE` is `TooLarge`, EOF
//!   inside a body is `UnexpectedEof`, EOF between frames or inside a
//!   header is `Closed`.

use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use webfindit_base::prop::{self, string_of, vec_of};
use webfindit_base::rng::StdRng;
use webfindit_wire::bufpool::BufPool;
use webfindit_wire::cdr::ByteOrder;
use webfindit_wire::giop::{
    reply_ok, request, split_into_fragments, FragmentAssembler, GiopMessage, FRAGMENT_BODY_SIZE,
};
use webfindit_wire::poll::{poll_fds, PollFd, POLLIN};
use webfindit_wire::transport::{FrameReader, FramedTcp};
use webfindit_wire::value::Value;
use webfindit_wire::{WireError, MAX_MESSAGE_SIZE};

const TEXT: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _.-";

/// What a read loop produced: the messages, then the error that ended it.
type Outcome = (Vec<GiopMessage>, WireError);

fn arb_order(rng: &mut StdRng) -> ByteOrder {
    if rng.gen_bool(0.5) {
        ByteOrder::BigEndian
    } else {
        ByteOrder::LittleEndian
    }
}

/// One message as the frames a server would send: a small request or
/// reply, or — one time in four — a reply over 64 KiB, streamed as a
/// fragment train.
fn arb_frames(rng: &mut StdRng) -> Vec<Vec<u8>> {
    let order = arb_order(rng);
    let id = rng.next_u64() as u32;
    let msg = match rng.gen_range(0..4u32) {
        0 => reply_ok(id, Value::string(string_of(rng, TEXT, 70_000..200_000))),
        1 => reply_ok(
            id,
            Value::Sequence(vec_of(rng, 0..6, |r| {
                Value::Str(string_of(r, TEXT, 0..100))
            })),
        ),
        _ => request(
            id,
            string_of(rng, TEXT, 1..24).into_bytes(),
            string_of(rng, "abcdefghijklmnop_", 1..16),
            vec_of(rng, 0..4, |r| Value::Str(string_of(r, TEXT, 0..60))),
        ),
    };
    let frame = msg.encode(order).expect("encode");
    split_into_fragments(&frame, FRAGMENT_BODY_SIZE, &BufPool::shared())
        .expect("split")
        .iter()
        .map(|f| f.to_vec())
        .collect()
}

/// The messages `frames` carry, reassembled by the fragment assembler
/// alone — the reference both read loops are held to.
fn messages(frames: &[Vec<u8>]) -> Vec<GiopMessage> {
    let mut asm = FragmentAssembler::new();
    frames
        .iter()
        .filter_map(|f| asm.push_frame(f).expect("valid frame"))
        .collect()
}

/// Where each frame starts in the concatenated stream, plus its end.
fn offsets(frames: &[Vec<u8>]) -> Vec<usize> {
    let mut at = vec![0];
    for f in frames {
        at.push(at.last().unwrap() + f.len());
    }
    at
}

/// Random cut points in `1..len`, sorted and distinct.
fn arb_cuts(rng: &mut StdRng, len: usize, extra: &[usize]) -> Vec<usize> {
    let mut cuts: Vec<usize> = (0..rng.gen_range(0..6usize))
        .map(|_| rng.gen_range(1..len.max(2)))
        .chain(extra.iter().copied())
        .filter(|&c| c > 0 && c < len)
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// Connect a writer thread that sends `bytes` one piece per go-ahead —
/// the pieces end at `cuts`, the last at the end of `bytes` — and then
/// hangs up. Returns the reading end and the go-ahead sender.
fn deliver(bytes: &[u8], cuts: &[usize]) -> (TcpStream, mpsc::Sender<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut out = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (stream, _) = listener.accept().expect("accept");
    let mut pieces = Vec::new();
    let mut from = 0;
    for &cut in cuts.iter().chain([bytes.len()].iter()) {
        pieces.push(bytes[from..cut].to_vec());
        from = cut;
    }
    let (go, go_rx) = mpsc::channel::<()>();
    thread::spawn(move || {
        for piece in pieces {
            // A reader that failed early stops reading and drops its
            // sender: stop writing with it.
            if go_rx.recv().is_err() || out.write_all(&piece).is_err() {
                break;
            }
        }
        let _ = out.shutdown(Shutdown::Write);
    });
    (stream, go)
}

/// The reactor's loop: wait for readiness, one `fill`, every whole frame
/// out. The next piece is asked for once every byte sent so far is in.
fn by_readiness(bytes: &[u8], cuts: &[usize]) -> Outcome {
    let (stream, go) = deliver(bytes, cuts);
    stream.set_nonblocking(true).expect("nonblocking");
    let mut reader = FrameReader::default();
    let mut asm = FragmentAssembler::new();
    let mut msgs = Vec::new();
    let mut read = 0;
    let mut cuts = cuts.iter().peekable();
    let _ = go.send(());
    loop {
        let mut fds = [PollFd::new(stream.as_raw_fd(), POLLIN)];
        assert_eq!(
            poll_fds(&mut fds, 10_000).expect("poll"),
            1,
            "stream stalled"
        );
        match reader.fill(&stream) {
            Ok(n) => read += n,
            Err(e) => return (msgs, e),
        }
        loop {
            match reader.next_frame() {
                Ok(Some(frame)) => msgs.extend(asm.push_frame(frame).expect("frame assembles")),
                Ok(None) => break,
                Err(e) => return (msgs, e),
            }
        }
        if cuts.next_if_eq(&&read).is_some() {
            let _ = go.send(());
        }
    }
}

/// The leader's loop: `recv_frame_by` with a 2 ms deadline. Each expiry
/// asks for the next piece, so deadlines run out with a header or body
/// half in.
fn by_deadline(bytes: &[u8], cuts: &[usize]) -> Outcome {
    let (stream, go) = deliver(bytes, cuts);
    let mut tcp = FramedTcp::new(stream);
    let mut asm = FragmentAssembler::new();
    let mut msgs = Vec::new();
    let give_up = Instant::now() + Duration::from_secs(30);
    let _ = go.send(());
    loop {
        assert!(Instant::now() < give_up, "stream stalled");
        match tcp.recv_frame_by(Some(Instant::now() + Duration::from_millis(2))) {
            Ok(Some(frame)) => msgs.extend(asm.push_frame(frame).expect("frame assembles")),
            Ok(None) => {
                let _ = go.send(());
            }
            Err(e) => return (msgs, e),
        }
    }
}

/// The name of the error kind an outcome ended with.
fn kind(e: &WireError) -> &'static str {
    match e {
        WireError::BadMagic(_) => "BadMagic",
        WireError::TooLarge { .. } => "TooLarge",
        WireError::Closed => "Closed",
        WireError::Io(io) if io.kind() == ErrorKind::UnexpectedEof => "UnexpectedEof",
        other => panic!("unexpected error {other}"),
    }
}

/// Both read loops, fed `bytes` cut at `cuts`, yield `expected` and then
/// an error of kind `error`.
fn check(bytes: &[u8], cuts: &[usize], expected: &[GiopMessage], error: &str) {
    for (read_loop, (msgs, e)) in [
        ("readiness", by_readiness(bytes, cuts)),
        ("deadline", by_deadline(bytes, cuts)),
    ] {
        assert_eq!(msgs, expected, "{read_loop} loop, cuts {cuts:?}");
        assert_eq!(kind(&e), error, "{read_loop} loop, cuts {cuts:?}: {e}");
    }
}

#[test]
fn cut_streams_frame_like_the_uncut_stream() {
    // Two frames in opposite byte orders, cut five bytes into the
    // second header: the first comes out whole, the second waits.
    let f1 = request(1, b"k".to_vec(), "op", vec![Value::Long(1)])
        .encode(ByteOrder::BigEndian)
        .unwrap();
    let f2 = request(2, b"k".to_vec(), "op", vec![])
        .encode(ByteOrder::LittleEndian)
        .unwrap();
    let frames = [f1.clone(), f2];
    check(
        &frames.concat(),
        &[f1.len() + 5],
        &messages(&frames),
        "Closed",
    );

    prop::cases(24, |rng| {
        let frames: Vec<Vec<u8>> = (0..rng.gen_range(1..6usize))
            .flat_map(|_| arb_frames(rng))
            .collect();
        let at = offsets(&frames);
        // Always one cut inside some header and one inside some body.
        let k = rng.gen_range(0..frames.len());
        let mid_header = at[k] + rng.gen_range(1..12usize);
        let mid_body = at[k] + 12 + rng.gen_range(0..frames[k].len() - 12);
        let bytes = frames.concat();
        let cuts = arb_cuts(rng, bytes.len(), &[mid_header, mid_body]);
        check(&bytes, &cuts, &messages(&frames), "Closed");
    });
}

#[test]
fn mutated_headers_and_early_eof_are_typed_errors() {
    // A peer that hangs up before saying anything, and one that opens
    // with garbage.
    check(&[], &[], &[], "Closed");
    check(b"POIGxxxxxxxxxxxx", &[], &[], "BadMagic");

    prop::cases(24, |rng| {
        let frames: Vec<Vec<u8>> = (0..rng.gen_range(1..5usize))
            .flat_map(|_| arb_frames(rng))
            .collect();
        let at = offsets(&frames);
        let k = rng.gen_range(0..frames.len());
        let before = messages(&frames[..k]);
        let mut bytes = frames.concat();
        let (start, body) = (at[k], frames[k].len() - 12);
        let error = match rng.gen_range(0..5u32) {
            0 => {
                bytes[start..start + 4].copy_from_slice(b"POIG");
                "BadMagic"
            }
            1 => {
                let size = rng.gen_range(MAX_MESSAGE_SIZE + 1..=u32::MAX);
                let size = if bytes[start + 6] & 1 == 0 {
                    size.to_be_bytes()
                } else {
                    size.to_le_bytes()
                };
                bytes[start + 8..start + 12].copy_from_slice(&size);
                "TooLarge"
            }
            2 => {
                bytes.truncate(start + 12 + rng.gen_range(0..body));
                "UnexpectedEof"
            }
            3 => {
                bytes.truncate(start + rng.gen_range(1..12usize));
                "Closed"
            }
            _ => {
                bytes.truncate(start);
                "Closed"
            }
        };
        let cuts = arb_cuts(rng, bytes.len(), &[start]);
        check(&bytes, &cuts, &before, error);
    });
}
