//! Circuit-breaker integration tests: a client ORB calling a real
//! server ORB through the chaos control plane.
//!
//! The breaker contract under test is the one DESIGN.md §5 promises:
//! three consecutive failures open the breaker, an open breaker rejects
//! without touching the wire, and after the cooldown a single half-open
//! probe either closes it (endpoint healed) or snaps it back open
//! (endpoint still dark).

use std::sync::Arc;
use std::thread;
use std::time::Duration;
use webfindit_orb::servant::{InvokeResult, Servant, ServantError};
use webfindit_orb::{BreakerState, CallOptions, Orb, OrbConfig, OrbDomain, OrbError, RetryPolicy};
use webfindit_wire::cdr::ByteOrder;
use webfindit_wire::transport::Fault;
use webfindit_wire::{Ior, Value};

struct EchoServant;

impl Servant for EchoServant {
    fn interface_id(&self) -> &str {
        "IDL:test/Echo:1.0"
    }
    fn invoke(&self, operation: &str, args: &[Value]) -> InvokeResult {
        match operation {
            "echo" => Ok(args.first().cloned().unwrap_or(Value::Null)),
            other => Err(ServantError::UnknownOperation(other.into())),
        }
    }
}

/// A server ORB exporting an echo servant, and a client in the same
/// domain. Returns (domain, server, client, echo IOR).
fn mesh() -> (Arc<OrbDomain>, Arc<Orb>, Arc<Orb>, Ior) {
    let domain = OrbDomain::new();
    let server = Orb::start(
        OrbConfig::new("S", "server.example", 1, ByteOrder::BigEndian),
        Arc::clone(&domain),
    )
    .expect("server orb starts");
    let client = Orb::start(
        OrbConfig::new("C", "client.example", 2, ByteOrder::LittleEndian),
        Arc::clone(&domain),
    )
    .expect("client orb starts");
    let ior = server.activate("echo", Arc::new(EchoServant));
    (domain, server, client, ior)
}

/// One attempt, no transparent retries, so each invoke maps to exactly
/// one breaker admission.
fn one_shot() -> CallOptions {
    CallOptions {
        deadline: Some(Duration::from_millis(100)),
        retry: RetryPolicy::never(),
    }
}

#[test]
fn breaker_opens_after_three_failures_and_rejects_without_dialing() {
    let (domain, server, client, ior) = mesh();
    let (host, port) = server.advertised_endpoint();
    let chaos = domain.chaos_registry();
    chaos.refuse(&host, port);

    for i in 0..3 {
        let err = client
            .invoke_with(&ior, "echo", &[Value::string("x")], &one_shot())
            .expect_err("refusing endpoint must fail");
        assert!(
            !matches!(err, OrbError::CircuitOpen { .. }),
            "attempt {i} should reach the dial path, got {err}"
        );
    }
    assert_eq!(client.breaker_state(&host, port), Some(BreakerState::Open));

    // The fourth call is shed by the breaker itself.
    match client.invoke_with(&ior, "echo", &[Value::string("x")], &one_shot()) {
        Err(OrbError::CircuitOpen { host: h, port: p }) => {
            assert_eq!((h.as_str(), p), (host.as_str(), port));
        }
        other => panic!("expected CircuitOpen, got {other:?}"),
    }

    let snap = client.metrics().snapshot();
    assert_eq!(snap.breaker_opened, 1);
    assert_eq!(snap.breaker_rejections, 1);

    server.shutdown();
    client.shutdown();
}

#[test]
fn half_open_probe_closes_breaker_once_endpoint_heals() {
    let (domain, server, client, ior) = mesh();
    let (host, port) = server.advertised_endpoint();
    let chaos = domain.chaos_registry();

    chaos.refuse(&host, port);
    for _ in 0..3 {
        let _ = client.invoke_with(&ior, "echo", &[Value::Null], &one_shot());
    }
    assert_eq!(client.breaker_state(&host, port), Some(BreakerState::Open));

    // Heal the endpoint and wait out the cooldown (default 50 ms).
    chaos.accept(&host, port);
    thread::sleep(Duration::from_millis(60));

    let got = client
        .invoke_with(&ior, "echo", &[Value::string("recovered")], &one_shot())
        .expect("half-open probe succeeds against the healed endpoint");
    assert_eq!(got.as_str(), Some("recovered"));
    assert_eq!(
        client.breaker_state(&host, port),
        Some(BreakerState::Closed)
    );

    let snap = client.metrics().snapshot();
    assert!(snap.breaker_probes >= 1, "{snap:?}");
    assert!(snap.breaker_closed >= 1, "{snap:?}");

    // Steady state: traffic flows normally again.
    let again = client
        .invoke_with(
            &ior,
            "echo",
            &[Value::string("steady")],
            &CallOptions::default(),
        )
        .unwrap();
    assert_eq!(again.as_str(), Some("steady"));

    server.shutdown();
    client.shutdown();
}

#[test]
fn failed_probe_snaps_the_breaker_back_open() {
    let (domain, server, client, ior) = mesh();
    let (host, port) = server.advertised_endpoint();
    let chaos = domain.chaos_registry();

    chaos.refuse(&host, port);
    for _ in 0..3 {
        let _ = client.invoke_with(&ior, "echo", &[Value::Null], &one_shot());
    }
    assert_eq!(client.breaker_state(&host, port), Some(BreakerState::Open));

    // Cooldown elapses but the endpoint is still refusing: the one
    // half-open probe fails and the breaker reopens immediately.
    thread::sleep(Duration::from_millis(60));
    let err = client
        .invoke_with(&ior, "echo", &[Value::Null], &one_shot())
        .expect_err("probe against a still-dark endpoint fails");
    assert!(
        !matches!(err, OrbError::CircuitOpen { .. }),
        "the probe itself must reach the dial path, got {err}"
    );
    assert_eq!(client.breaker_state(&host, port), Some(BreakerState::Open));

    let snap = client.metrics().snapshot();
    assert!(snap.breaker_probes >= 1, "{snap:?}");
    assert_eq!(snap.breaker_closed, 0, "{snap:?}");

    server.shutdown();
    client.shutdown();
}

#[test]
fn registry_faults_reach_live_connections_and_trip_the_breaker() {
    let (domain, server, client, ior) = mesh();
    let (host, port) = server.advertised_endpoint();
    let chaos = domain.chaos_registry();

    // Prove the connection is up first.
    let ok = client
        .invoke_with(
            &ior,
            "echo",
            &[Value::string("pre")],
            &CallOptions::default(),
        )
        .unwrap();
    assert_eq!(ok.as_str(), Some("pre"));

    // Drop every frame on the already-established connection: calls now
    // time out at their deadline instead of being answered.
    chaos.set_fault(&host, port, Fault::DropFrames);
    let short = CallOptions {
        deadline: Some(Duration::from_millis(20)),
        retry: RetryPolicy::never(),
    };
    for _ in 0..3 {
        let err = client
            .invoke_with(&ior, "echo", &[Value::Null], &short)
            .expect_err("dropped frames must miss the deadline");
        assert!(
            matches!(err, OrbError::DeadlineExpired { .. }),
            "expected deadline expiry, got {err}"
        );
    }
    assert_eq!(client.breaker_state(&host, port), Some(BreakerState::Open));

    // Clearing the fault and waiting out the cooldown restores service.
    chaos.clear_fault(&host, port);
    thread::sleep(Duration::from_millis(60));
    let back = client
        .invoke_with(&ior, "echo", &[Value::string("post")], &one_shot())
        .expect("healed endpoint serves the probe");
    assert_eq!(back.as_str(), Some("post"));
    assert_eq!(
        client.breaker_state(&host, port),
        Some(BreakerState::Closed)
    );

    server.shutdown();
    client.shutdown();
}
