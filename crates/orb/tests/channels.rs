//! Multiplexed-channel tests against a *scripted* raw-GIOP peer.
//!
//! A real ORB always replies in dispatch order, so it cannot exercise
//! the demultiplexer's correlation logic. These tests stand up a bare
//! `TcpListener` that buffers every incoming Request and then replies
//! in a seed-shuffled order, proving each parked caller receives
//! exactly its own reply — and that an expired deadline really puts a
//! GIOP CancelRequest on the wire.

use std::net::TcpListener;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};
use webfindit_base::prop;
use webfindit_base::rng::StdRng;
use webfindit_base::sync::Mutex;
use webfindit_orb::{CallOptions, Orb, OrbConfig, OrbDomain, OrbError, RetryPolicy};
use webfindit_wire::cdr::ByteOrder;
use webfindit_wire::giop::{self, GiopMessage};
use webfindit_wire::transport::FramedTcp;
use webfindit_wire::{Ior, Value};

/// A decoded Request observed by the scripted peer, tagged with the
/// connection it arrived on so the reply goes back the same way.
struct SeenRequest {
    conn: usize,
    request_id: u32,
    args: Vec<Value>,
}

/// Accept connections and forward every decoded GIOP message (tagged
/// with its connection index) to `tx`; replies are sent through the
/// returned per-connection writers.
fn scripted_peer(
    listener: TcpListener,
    tx: mpsc::Sender<(usize, GiopMessage)>,
) -> Arc<Mutex<Vec<FramedTcp>>> {
    let writers: Arc<Mutex<Vec<FramedTcp>>> = Arc::new(Mutex::new(Vec::new()));
    let accept_writers = Arc::clone(&writers);
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let mut reader = FramedTcp::new(stream);
            let writer = reader.try_clone().expect("clone scripted stream");
            let conn = {
                let mut w = accept_writers.lock();
                w.push(writer);
                w.len() - 1
            };
            let tx = tx.clone();
            thread::spawn(move || {
                while let Ok(frame) = reader.recv_frame() {
                    let msg = GiopMessage::decode_frame(frame).expect("scripted peer decodes");
                    if tx.send((conn, msg)).is_err() {
                        break;
                    }
                }
            });
        }
    });
    writers
}

/// A client ORB pointed at the scripted peer's address under a fake
/// IIOP endpoint name.
fn client_for(addr: std::net::SocketAddr) -> (Arc<Orb>, Ior) {
    let domain = OrbDomain::new();
    let client = Orb::start(
        OrbConfig::new("C", "client.example", 1, ByteOrder::LittleEndian),
        Arc::clone(&domain),
    )
    .expect("client orb starts");
    domain.register_endpoint("scripted.example", 4242, addr);
    let ior = Ior::new_iiop(
        "IDL:test/Scripted:1.0",
        "scripted.example",
        4242,
        b"scripted".to_vec(),
    );
    (client, ior)
}

/// Property: N concurrent callers multiplexed over one endpoint each
/// receive exactly their own reply, no matter how the peer reorders
/// replies across and within connections.
#[test]
fn prop_concurrent_callers_survive_reply_reordering() {
    prop::cases(6, |rng| {
        let callers = rng.gen_range(2..9usize);
        let shuffle_seed = rng.next_u64();

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted peer");
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = mpsc::channel();
        let writers = scripted_peer(listener, tx);

        // The replier is also the barrier: nobody gets an answer until
        // every caller's request is buffered, so all are in flight at
        // once; then replies go out in a seed-shuffled order.
        let replier = thread::spawn(move || {
            let mut pending: Vec<SeenRequest> = Vec::new();
            while pending.len() < callers {
                let (conn, msg) = rx.recv().expect("peer reader alive");
                match msg {
                    GiopMessage::Request { header, args } => pending.push(SeenRequest {
                        conn,
                        request_id: header.request_id,
                        args,
                    }),
                    other => panic!("unexpected message kind {:?}", other.kind()),
                }
            }
            StdRng::seed_from_u64(shuffle_seed).shuffle(&mut pending);
            for req in pending {
                let body = req.args.into_iter().next().unwrap_or(Value::Null);
                let frame = giop::reply_ok(req.request_id, body)
                    .encode(ByteOrder::BigEndian)
                    .expect("reply encodes");
                writers.lock()[req.conn]
                    .send_frame(&frame)
                    .expect("reply sends");
            }
        });

        let (client, ior) = client_for(addr);
        let handles: Vec<_> = (0..callers)
            .map(|i| {
                let client = Arc::clone(&client);
                let ior = ior.clone();
                thread::spawn(move || {
                    let payload = format!("payload-{i}");
                    let got = client
                        .invoke(&ior, "echo", &[Value::string(payload.clone())])
                        .expect("echo call completes");
                    assert_eq!(got.as_str(), Some(payload.as_str()));
                })
            })
            .collect();
        for h in handles {
            h.join().expect("caller thread");
        }
        replier.join().expect("replier thread");

        let snap = client.metrics().snapshot();
        assert_eq!(snap.requests_sent, callers as u64);
        assert_eq!(snap.in_flight, 0, "all callers unparked");
        client.shutdown();
    });
}

/// An expired deadline must surface `DeadlineExpired` to the caller
/// *and* put a GIOP CancelRequest for the same request id on the wire.
#[test]
fn deadline_expiry_sends_cancel_request() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted peer");
    let addr = listener.local_addr().unwrap();
    let (tx, rx) = mpsc::channel();
    let _writers = scripted_peer(listener, tx);
    let (client, ior) = client_for(addr);

    let options = CallOptions {
        deadline: Some(Duration::from_millis(80)),
        retry: RetryPolicy::never(),
    };
    match client.invoke_with(&ior, "stall", &[], &options) {
        Err(OrbError::DeadlineExpired { operation_deadline }) => {
            assert_eq!(operation_deadline, Duration::from_millis(80));
        }
        other => panic!("expected DeadlineExpired, got {other:?}"),
    }

    // The scripted peer never replies, so the wire traffic must be the
    // Request followed by its CancelRequest.
    let (_, first) = rx.recv().expect("request observed");
    let stalled_id = match first {
        GiopMessage::Request { header, .. } => header.request_id,
        other => panic!("expected Request first, got {:?}", other.kind()),
    };
    let (_, second) = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("cancel observed");
    match second {
        GiopMessage::CancelRequest { request_id } => assert_eq!(request_id, stalled_id),
        other => panic!("expected CancelRequest, got {:?}", other.kind()),
    }
    assert_eq!(client.metrics().snapshot().timeouts, 1);
    client.shutdown();
}

/// The deadline is one budget for the whole invocation: when the first
/// attempt dies retriably 60 ms in, the retry has the remaining 40 ms,
/// not a fresh 100.
#[test]
fn a_retry_spends_what_is_left_of_the_deadline() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted peer");
    let addr = listener.local_addr().unwrap();
    let (tx, rx) = mpsc::channel();
    let writers = scripted_peer(listener, tx);
    let (client, ior) = client_for(addr);

    // The script: the first connection answers its Request with an
    // orderly CloseConnection after 60 ms (so the call is retried); the
    // retry's connection never answers at all.
    let script = thread::spawn(move || {
        let (first_conn, first) = rx.recv().expect("first attempt observed");
        assert!(matches!(first, GiopMessage::Request { .. }));
        thread::sleep(Duration::from_millis(60));
        let close = GiopMessage::CloseConnection
            .encode(ByteOrder::BigEndian)
            .expect("close encodes");
        writers.lock()[first_conn]
            .send_frame(&close)
            .expect("close sends");
        let (retry_conn, retry) = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("retry observed");
        assert!(matches!(retry, GiopMessage::Request { .. }));
        assert_ne!(retry_conn, first_conn, "the retry dials a fresh connection");
        rx // keeps the peer's readers draining until the test ends
    });

    let started = Instant::now();
    let result = client.invoke_with(
        &ior,
        "stall",
        &[],
        &CallOptions::with_deadline(Duration::from_millis(100)),
    );
    let took = started.elapsed();
    match result {
        Err(OrbError::DeadlineExpired { operation_deadline }) => {
            assert_eq!(operation_deadline, Duration::from_millis(100));
        }
        other => panic!("expected DeadlineExpired, got {other:?}"),
    }
    assert!(
        took >= Duration::from_millis(100),
        "gave up early: {took:?}"
    );
    assert!(
        took < Duration::from_millis(150),
        "the retry was given a fresh deadline: {took:?}"
    );
    let snap = client.metrics().snapshot();
    assert_eq!((snap.retries, snap.timeouts), (1, 1));
    let _rx = script.join().expect("script thread");
    client.shutdown();
}

/// A deadline that fires when the peer is 20 bytes into a reply must
/// not lose those bytes: the next caller on the connection finishes the
/// frame (a late reply, dropped) and then reads its own.
#[test]
fn a_reply_cut_off_by_a_deadline_is_finished_by_the_next_leader() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted peer");
    let addr = listener.local_addr().unwrap();
    let (tx, rx) = mpsc::channel();
    let writers = scripted_peer(listener, tx);
    let (client, ior) = client_for(addr);

    let a = {
        let client = Arc::clone(&client);
        let ior = ior.clone();
        thread::spawn(move || {
            let options = CallOptions {
                deadline: Some(Duration::from_millis(60)),
                retry: RetryPolicy::never(),
            };
            client.invoke_with(&ior, "echo", &[Value::string("a")], &options)
        })
    };
    let (conn, a_id) = match rx.recv().expect("A's request") {
        (conn, GiopMessage::Request { header, .. }) => (conn, header.request_id),
        (_, other) => panic!("expected Request, got {:?}", other.kind()),
    };
    let a_reply = giop::reply_ok(a_id, Value::string("too late for a"))
        .encode(ByteOrder::BigEndian)
        .expect("reply encodes");
    writers.lock()[conn]
        .send_frame(&a_reply[..20])
        .expect("first 20 bytes");
    // A's CancelRequest is the proof that A gave up mid-frame.
    match rx.recv_timeout(Duration::from_secs(5)).expect("A's cancel") {
        (_, GiopMessage::CancelRequest { request_id }) => assert_eq!(request_id, a_id),
        (_, other) => panic!("expected CancelRequest, got {:?}", other.kind()),
    }
    assert!(matches!(
        a.join().expect("caller A"),
        Err(OrbError::DeadlineExpired { .. })
    ));

    let b = {
        let client = Arc::clone(&client);
        thread::spawn(move || client.invoke(&ior, "echo", &[Value::string("b")]))
    };
    let b_id = match rx.recv().expect("B's request") {
        (b_conn, GiopMessage::Request { header, .. }) => {
            assert_eq!(b_conn, conn, "B reuses A's connection");
            header.request_id
        }
        (_, other) => panic!("expected Request, got {:?}", other.kind()),
    };
    let b_reply = giop::reply_ok(b_id, Value::string("b"))
        .encode(ByteOrder::BigEndian)
        .expect("reply encodes");
    {
        let mut w = writers.lock();
        w[conn]
            .send_frame(&a_reply[20..])
            .expect("rest of A's reply");
        w[conn].send_frame(&b_reply).expect("B's reply");
    }
    let got = b.join().expect("caller B").expect("B's call completes");
    assert_eq!(got.as_str(), Some("b"));

    let snap = client.metrics().snapshot();
    assert_eq!(snap.evictions, 0, "the stream never desynchronized");
    assert_eq!(snap.late_replies, 1, "A's reply arrived whole, too late");
    assert_eq!(snap.timeouts, 1);
    client.shutdown();
}
