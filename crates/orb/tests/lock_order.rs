//! Interleaving stress test for the concurrency-analysis pass: N
//! threads hammer the IOR cache, the per-endpoint circuit breaker, and
//! a counting servant through real IIOP while a seeded [`ChaosPlan`]
//! degrades the endpoint, then the test asserts the `deadlock-detect`
//! detector (when compiled in) saw zero violations and that no
//! acknowledged update was lost.
//!
//! The test also runs without the feature (the drain API returns an
//! empty list there), so the interleaving itself is exercised in every
//! CI configuration; the `analysis` CI job runs it with the detector on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use webfindit_base::sync::detect;
use webfindit_base::sync::Mutex;
use webfindit_orb::servant::{InvokeResult, Servant, ServantError};
use webfindit_orb::{
    CallOptions, ChaosAction, ChaosPlan, IorCache, NamingClient, NamingService, Orb, OrbConfig,
    OrbDomain, RetryPolicy,
};
use webfindit_wire::cdr::ByteOrder;
use webfindit_wire::transport::Fault;
use webfindit_wire::Value;

/// A servant whose state is a counter behind a `base::sync` Mutex:
/// every successful `incr` must be visible in the final `get`.
struct CounterServant {
    count: Mutex<u64>,
}

impl Servant for CounterServant {
    fn interface_id(&self) -> &str {
        "IDL:test/Counter:1.0"
    }
    fn invoke(&self, operation: &str, _args: &[Value]) -> InvokeResult {
        match operation {
            "incr" => {
                let mut c = self.count.lock();
                *c += 1;
                Ok(Value::Long(*c as i32))
            }
            "get" => Ok(Value::Long(*self.count.lock() as i32)),
            other => Err(ServantError::UnknownOperation(other.into())),
        }
    }
}

#[test]
fn chaos_interleaving_has_no_detector_violations_and_no_lost_updates() {
    // Flush reports from other tests in this binary before the run.
    let _ = detect::take_violations();

    let domain = OrbDomain::new();
    let server = Orb::start(
        OrbConfig::new("S", "stress.example", 11, ByteOrder::BigEndian),
        Arc::clone(&domain),
    )
    .expect("server orb starts");
    let client = Orb::start(
        OrbConfig::new("C", "stress-cl.example", 12, ByteOrder::LittleEndian),
        Arc::clone(&domain),
    )
    .expect("client orb starts");

    let naming = NamingService::new();
    let naming_ior = server.activate(b"naming/root".to_vec(), naming);
    let counter_ior = server.activate(
        "counter",
        Arc::new(CounterServant {
            count: Mutex::new_labeled(0, "test::CounterServant.count"),
        }),
    );

    let cache = IorCache::new(Duration::from_millis(40));
    let nc = Arc::new(NamingClient::with_cache(
        Arc::clone(&client),
        naming_ior,
        Arc::clone(&cache),
    ));
    nc.bind("Counter", &counter_ior).expect("bind counter");

    // A seeded, replayable schedule of endpoint faults; steps are
    // applied by the main thread between barrier-free sleep windows
    // while the workers keep hammering.
    let mut plan = ChaosPlan::new(0xC0FFEE);
    plan.push(
        0,
        ChaosAction::EndpointFault {
            host: "stress.example".into(),
            port: 11,
            fault: Fault::DelayMs(2),
        },
    )
    .push(
        1,
        ChaosAction::RefuseConnections {
            host: "stress.example".into(),
            port: 11,
        },
    )
    .push(
        2,
        ChaosAction::AcceptConnections {
            host: "stress.example".into(),
            port: 11,
        },
    )
    .push(
        2,
        ChaosAction::ClearEndpoint {
            host: "stress.example".into(),
            port: 11,
        },
    );

    const THREADS: u64 = 8;
    const ITERS: u64 = 40;
    let acknowledged = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let nc = Arc::clone(&nc);
            let cache = Arc::clone(&cache);
            let client = Arc::clone(&client);
            let acknowledged = Arc::clone(&acknowledged);
            s.spawn(move || {
                let opts = CallOptions {
                    deadline: Some(Duration::from_millis(500)),
                    retry: RetryPolicy::never(),
                };
                for i in 0..ITERS {
                    // Resolve through the shared cache (hits and misses
                    // race with the TTL sweep and invalidations).
                    let ior = match nc.resolve("Counter") {
                        Ok(ior) => ior,
                        Err(_) => {
                            // Naming itself degraded under chaos; the
                            // cache entry may be stale — drop it.
                            nc.invalidate("Counter");
                            continue;
                        }
                    };
                    match client.invoke_with(&ior, "incr", &[], &opts) {
                        Ok(_) => {
                            acknowledged.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            // Breaker-open, refused, or dropped: the
                            // standard client reaction is to invalidate
                            // the cached reference and move on.
                            nc.invalidate("Counter");
                        }
                    }
                    if i % 16 == t % 16 {
                        cache.clear();
                    }
                }
            });
        }

        // Step the seeded plan against the live mesh while the workers
        // run: latency, refused connections, then full recovery.
        let registry = domain.chaos_registry();
        for step in 0..=plan.last_step() {
            for event in plan.events_at(step) {
                match &event.action {
                    ChaosAction::EndpointFault { host, port, fault } => {
                        registry.set_fault(host, *port, *fault)
                    }
                    ChaosAction::ClearEndpoint { host, port } => registry.clear_fault(host, *port),
                    ChaosAction::RefuseConnections { host, port } => registry.refuse(host, *port),
                    ChaosAction::AcceptConnections { host, port } => registry.accept(host, *port),
                    other => panic!("plan contains non-endpoint action {other:?}"),
                }
            }
            std::thread::sleep(Duration::from_millis(30));
        }
    });

    // Recovery: with faults cleared, calls succeed again (waiting out
    // the breaker cooldown if the refusal window tripped it).
    let final_count = (0..50)
        .find_map(|_| {
            match client.invoke_with(
                &counter_ior,
                "get",
                &[],
                &CallOptions::with_deadline(Duration::from_millis(500)),
            ) {
                Ok(Value::Long(n)) => Some(n as u64),
                _ => {
                    std::thread::sleep(Duration::from_millis(20));
                    None
                }
            }
        })
        .expect("endpoint recovers after chaos clears");

    // No lost updates: every acknowledged incr is in the final count.
    // (The count may exceed acknowledgements — an incr whose reply was
    // dropped executed without being acknowledged.)
    let acked = acknowledged.load(Ordering::Relaxed);
    assert!(
        final_count >= acked,
        "acknowledged {acked} updates but servant counted {final_count}"
    );
    assert!(acked > 0, "chaos was so severe no call ever succeeded");

    // The analysis verdict: a clean interleaving. With the feature off
    // the drain is trivially empty; with it on, this is the claim that
    // the lock discipline of cache + breaker + channel + servant holds.
    let violations = detect::take_violations();
    assert!(
        violations.is_empty(),
        "detector reported violations:\n{:#?}",
        violations
    );
    assert_eq!(detect::counters(), detect::Counters::default());

    server.shutdown();
    client.shutdown();
}
