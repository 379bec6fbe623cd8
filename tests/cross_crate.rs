//! Cross-crate integration: results obtained through the *full stack*
//! (WebTassili → processor → ORB/IIOP → ISI → engine) must agree with
//! ground truth read directly from the engines, and the three discovery
//! organizations must agree on answerability over the healthcare world.

use std::time::{Duration, Instant};
use webfindit::baselines::{CentralIndex, FlatBroadcast};
use webfindit::discovery::DiscoveryEngine;
use webfindit::orb::chaos::{ChaosAction, ChaosPlan};
use webfindit::orb::BreakerState;
use webfindit::processor::{Processor, Response};
use webfindit::session::BrowserSession;
use webfindit_healthcare::schemas::{build_database, BuiltSource};
use webfindit_healthcare::{build_healthcare, build_healthcare_durable, databases};
use webfindit_relstore::Datum;

/// Ground truth for a COUNT(*) on a relational site, read from a
/// freshly built engine with the same seed (generation is
/// deterministic, so this is exactly what the deployed instance holds).
fn ground_truth_count(site: &str, table: &str, seed: u64) -> i64 {
    let info = databases().into_iter().find(|d| d.name == site).unwrap();
    match build_database(&info, seed) {
        BuiltSource::Relational(db, _) => db.table(table).unwrap().len() as i64,
        BuiltSource::Object(..) => panic!("{site} is not relational"),
    }
}

#[test]
fn stack_results_match_engine_ground_truth() {
    let seed = 1999;
    let dep = build_healthcare(seed).unwrap();
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("QUT Research");

    for (site, table) in [
        ("Royal Brisbane Hospital", "patient"),
        ("Royal Brisbane Hospital", "medical_students"),
        ("Medicare", "claims"),
        ("MBF", "policies"),
    ] {
        let expected = ground_truth_count(site, table, seed);
        let resp = processor
            .submit(
                &mut session,
                &format!("Submit Native 'SELECT COUNT(*) FROM {table}' To Instance {site};"),
                None,
            )
            .unwrap();
        match resp {
            Response::Table(rs) => {
                assert_eq!(
                    rs.rows,
                    vec![vec![Datum::Int(expected)]],
                    "{site}.{table} count through the stack"
                );
            }
            other => panic!("{other:?}"),
        }
    }
    dep.fed.shutdown();
}

#[test]
fn the_three_organizations_agree_on_answerability() {
    let dep = build_healthcare(1999).unwrap();
    let engine = DiscoveryEngine::new(dep.fed.clone());
    let flat = FlatBroadcast::new(dep.fed.clone());
    let central = CentralIndex::build(dep.fed.clone()).unwrap();

    for topic in [
        "Medical Research",
        "Medical Insurance",
        "Superannuation",
        "cancer",
        "completely unknown subject xyzzy",
    ] {
        let bc = flat.find(topic).unwrap();
        let cx = central.find(topic).unwrap();
        // Broadcast and central see the whole world identically.
        assert_eq!(bc.found(), cx.found(), "broadcast vs central on {topic:?}");
        // WebFINDIT from QUT must find everything the world contains
        // that is reachable through its relationships; on the healthcare
        // topology everything is connected, so answerability matches.
        let wf = engine.find("QUT Research", topic).unwrap();
        assert_eq!(
            wf.found(),
            bc.found(),
            "webfindit vs broadcast on {topic:?}"
        );
    }
    dep.fed.shutdown();
}

#[test]
fn invoke_and_native_paths_agree() {
    // The access-function path (WebTassili Invoke → translated SQL) and
    // the native path (user-typed SQL) must return identical data.
    let dep = build_healthcare(1999).unwrap();
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("QUT Research");

    let via_invoke = processor
        .submit(
            &mut session,
            "Invoke ResearchProjects.Funding((ResearchProjects.Title = 'AIDS and drugs')) \
             On Instance Royal Brisbane Hospital;",
            None,
        )
        .unwrap();
    let via_native = processor
        .submit(
            &mut session,
            "Submit Native 'SELECT a.funding FROM researchprojects a \
             WHERE a.title = ''AIDS and drugs''' To Instance Royal Brisbane Hospital;",
            None,
        )
        .unwrap();
    match (via_invoke, via_native) {
        (Response::Table(a), Response::Table(b)) => assert_eq!(a.rows, b.rows),
        other => panic!("{other:?}"),
    }
    dep.fed.shutdown();
}

/// Kill one ORB's sites mid-session and prove discovery degrades
/// instead of dying: it still completes promptly, still returns leads
/// from the surviving subtree, and names every site of the lost
/// Research-coalition wing in `degraded`. After the scripted restart
/// (and the breaker's half-open probe) the federation is whole again.
#[test]
fn killing_one_orb_yields_partial_discovery_naming_the_lost_sites() {
    let dep = build_healthcare(1999).unwrap();
    let engine = DiscoveryEngine::new(dep.fed.clone());

    // "Medical Insurance" seen from QUT Research crosses the federation:
    // the level-1 frontier is the rest of the Research coalition, two of
    // whose members (RMIT Medical Research, Queensland Cancer Fund) live
    // on the Orbix ORB; the answer itself lies further out, reachable
    // only through the surviving Royal Brisbane Hospital branch.
    let healthy = engine.find("QUT Research", "Medical Insurance").unwrap();
    assert!(healthy.found() && healthy.complete(), "{healthy:?}");

    // Killing any Orbix-hosted site takes down that whole ORB — all
    // four ObjectStore sites go dark at once. The plan restarts it at
    // step 2, so the schedule itself returns the world to health.
    let mut plan = ChaosPlan::new(2026);
    plan.push(1, ChaosAction::KillSite("RMIT Medical Research".into()))
        .push(2, ChaosAction::RestartSite("RMIT Medical Research".into()));

    let fed = dep.fed.clone();
    let engine_ref = &engine;
    plan.run(&*fed, |step| match step {
        1 => {
            assert_eq!(fed.downed_orbs(), vec!["Orbix".to_owned()]);
            let started = Instant::now();
            let out = engine_ref
                .find("QUT Research", "Medical Insurance")
                .unwrap();
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "degraded discovery must not hang: took {:?}",
                started.elapsed()
            );
            // Partial, not empty: the surviving subtree still answers.
            assert!(out.found(), "surviving sites must still produce leads");
            assert!(!out.complete(), "the dead wing must be reported");
            let lost = out.degraded_sites();
            for site in ["RMIT Medical Research", "Queensland Cancer Fund"] {
                assert!(lost.contains(&site), "{site} missing from {lost:?}");
            }
            // No lead may claim to come from a dead site.
            for lead in &out.leads {
                let via = match lead {
                    webfindit::Lead::Coalition { via_site, .. } => via_site,
                    webfindit::Lead::Link { via_site, .. } => via_site,
                };
                assert!(!lost.contains(&via.as_str()), "lead via dead site {via}");
            }
        }
        2 => {
            assert!(fed.downed_orbs().is_empty());
            // Give the client's breaker its cooldown, then query: the
            // half-open probe hits the restarted Orbix and closes it.
            std::thread::sleep(Duration::from_millis(60));
            let out = engine_ref
                .find("QUT Research", "Medical Insurance")
                .unwrap();
            assert!(out.found(), "{out:?}");
            assert!(out.complete(), "restarted sites answer again: {out:?}");
            assert_eq!(
                fed.client_orb().breaker_state("orbix.qut.edu.au", 9000),
                Some(BreakerState::Closed),
                "probe against the restarted ORB closes the breaker"
            );
        }
        _ => unreachable!("plan has two steps"),
    });

    // Determinism: the same scripted schedule fingerprints identically.
    let mut replay = ChaosPlan::new(2026);
    replay
        .push(1, ChaosAction::KillSite("RMIT Medical Research".into()))
        .push(2, ChaosAction::RestartSite("RMIT Medical Research".into()));
    assert_eq!(plan.digest(), replay.digest());

    dep.fed.shutdown();
}

/// The durability contract over the full 14-site deployment: a scripted
/// [`ChaosPlan`] kills the ORB hosting a *durable* Royal Brisbane
/// Hospital mid-transaction and restarts it. The kill loses the site's
/// volatile state (a machine crash, not a graceful stop); the restart
/// runs WAL recovery. Rows from a committed transaction must be visible
/// through the full stack afterwards; rows from the transaction that
/// was in flight at the moment of the crash must not.
#[test]
fn chaos_kill_restart_of_a_durable_site_keeps_committed_rows_only() {
    let dep = build_healthcare_durable(1999).unwrap();
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("QUT Research");

    let rbh = dep.fed.site("Royal Brisbane Hospital").unwrap();
    let parts = webfindit_connect::parse_url(&rbh.url).unwrap();
    let db = dep
        .fed
        .registry()
        .relational(parts.vendor, parts.instance)
        .unwrap();
    {
        let mut guard = db.lock();
        assert!(guard.is_durable(), "durable deployment attaches storage");
        // One transaction commits (its WAL records are fsynced before
        // COMMIT returns)...
        guard.begin().unwrap();
        guard
            .execute("INSERT INTO doctors VALUES (9001, 'MBBS', 'registrar')")
            .unwrap();
        guard.commit().unwrap();
        // ...and a second is still open when the machine dies.
        guard.begin().unwrap();
        guard
            .execute("INSERT INTO doctors VALUES (9002, 'MD', 'phantom')")
            .unwrap();
    }

    let mut plan = ChaosPlan::new(2026);
    plan.push(1, ChaosAction::KillSite("Royal Brisbane Hospital".into()))
        .push(
            2,
            ChaosAction::RestartSite("Royal Brisbane Hospital".into()),
        );
    let fed = dep.fed.clone();
    plan.run(&*fed, |step| match step {
        1 => {
            assert!(
                db.lock().is_crashed(),
                "killing the hosting ORB crashes the durable instance"
            );
        }
        2 => {
            assert!(!db.lock().is_crashed(), "restart runs recovery");
        }
        _ => unreachable!("plan has two steps"),
    });

    // Through the full stack (WebTassili → ORB → ISI → engine), the
    // recovered site serves exactly the committed row.
    std::thread::sleep(Duration::from_millis(60));
    let resp = processor
        .submit(
            &mut session,
            "Submit Native 'SELECT employee_id FROM doctors WHERE employee_id > 9000' \
             To Instance Royal Brisbane Hospital;",
            None,
        )
        .unwrap();
    match resp {
        Response::Table(rs) => assert_eq!(
            rs.rows,
            vec![vec![Datum::Int(9001)]],
            "committed row survives; the in-flight row is rolled back"
        ),
        other => panic!("{other:?}"),
    }
    dep.fed.shutdown();
}

/// Cross-crate companion to `crates/orb/tests/lock_order.rs`: several
/// threads run full discovery sweeps — frontier expansion, co-database
/// invokes over IIOP, and the shared [`webfindit::CodbAnswerCache`] —
/// while a seeded chaos schedule injects link latency on one ORB's
/// endpoint. Under `deadlock-detect` the whole interleaving must
/// produce zero lock-order or hold-across-blocking reports; without the
/// feature the same interleaving still runs and the drain is trivially
/// empty.
#[test]
fn concurrent_discovery_under_chaos_has_no_detector_violations() {
    use webfindit_base::sync::detect;

    let _ = detect::take_violations();
    let dep = build_healthcare(1999).unwrap();
    let engine = DiscoveryEngine::new(dep.fed.clone());

    // Latency-only faults: calls still succeed, so discovery stays
    // complete while every lock in the path is held under contention.
    let mut plan = ChaosPlan::new(0x5EED);
    plan.push(
        0,
        ChaosAction::EndpointFault {
            host: "orbix.qut.edu.au".into(),
            port: 9000,
            fault: webfindit::wire::transport::Fault::DelayMs(1),
        },
    )
    .push(
        1,
        ChaosAction::ClearEndpoint {
            host: "orbix.qut.edu.au".into(),
            port: 9000,
        },
    );

    let topics = [
        "Medical Research",
        "Medical Insurance",
        "Superannuation",
        "cancer",
    ];
    std::thread::scope(|s| {
        for t in 0..4usize {
            let engine = &engine;
            s.spawn(move || {
                for i in 0..6 {
                    let topic = topics[(t + i) % topics.len()];
                    let out = engine.find("QUT Research", topic).unwrap();
                    assert!(out.found(), "{topic:?} must stay answerable: {out:?}");
                    if i % 3 == t % 3 {
                        // Race cold misses against warm hits.
                        engine.codb_cache().clear();
                    }
                }
            });
        }
        let registry = dep.fed.chaos_registry();
        for step in 0..=plan.last_step() {
            for event in plan.events_at(step) {
                match &event.action {
                    ChaosAction::EndpointFault { host, port, fault } => {
                        registry.set_fault(host, *port, *fault)
                    }
                    ChaosAction::ClearEndpoint { host, port } => registry.clear_fault(host, *port),
                    other => panic!("plan contains unexpected action {other:?}"),
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    });

    let violations = detect::take_violations();
    assert!(
        violations.is_empty(),
        "detector reported violations:\n{violations:#?}"
    );

    // The rendered trace carries the verdict for the experiment logs.
    let mut trace = webfindit::Trace::new();
    trace.counters(
        webfindit::Layer::Communication,
        "post-discovery concurrency check",
        detect::counters().iter(),
    );
    let rendered = trace.render();
    assert!(rendered.contains("lock-order cycles 0"), "{rendered}");
    assert!(rendered.contains("blocking violations 0"), "{rendered}");
    dep.fed.shutdown();
}

#[test]
fn orb_metrics_account_for_every_layer() {
    let dep = build_healthcare(1999).unwrap();
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("QUT Research");

    let snap = |name: &str| dep.fed.orb(name).unwrap().metrics().snapshot();
    let visi_before = snap("VisiBroker");

    // One data query to an Oracle site (hosted on VisiBroker): exactly
    // one GIOP request served there (the ISI execute), plus the naming
    // lookup on the bootstrap ORB which we don't count here.
    processor
        .submit(
            &mut session,
            "Submit Native 'SELECT COUNT(*) FROM doctors' To Instance Royal Brisbane Hospital;",
            None,
        )
        .unwrap();
    let visi_after = snap("VisiBroker");
    let d = visi_after.since(&visi_before);
    assert_eq!(d.requests_served, 1, "exactly the ISI execute");
    assert!(d.bytes_received > 12 && d.bytes_sent > 12);
    dep.fed.shutdown();
}

#[test]
fn data_counters_move_only_at_the_site_that_ran_the_query() {
    let dep = build_healthcare(1999).unwrap();
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("QUT Research");

    let data = |site: &String| dep.fed.site(site).unwrap().isi.metrics().snapshot();
    let sites = dep.fed.site_names();
    let before: Vec<_> = sites.iter().map(data).collect();
    processor
        .submit(
            &mut session,
            "Submit Native 'SELECT COUNT(*) FROM doctors' To Instance Royal Brisbane Hospital;",
            None,
        )
        .unwrap();
    for (site, before) in sites.iter().zip(before) {
        let d = data(site).since(&before);
        if site == "Royal Brisbane Hospital" {
            assert!(d.rows_scanned > 0, "the hosting site did the scan: {d:?}");
        } else {
            // Neither the client's home site nor RBH's ORB-mates.
            assert_eq!(d, Default::default(), "{site} ran nothing");
        }
    }
    dep.fed.shutdown();
}

#[test]
fn since_survives_an_orb_restart_between_the_snapshots() {
    let dep = build_healthcare(1999).unwrap();
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("QUT Research");
    let native =
        "Submit Native 'SELECT COUNT(*) FROM doctors' To Instance Royal Brisbane Hospital;";
    processor.submit(&mut session, native, None).unwrap();

    let orb_before = dep.fed.orb("VisiBroker").unwrap().metrics().snapshot();
    let data = || {
        dep.fed
            .site("Royal Brisbane Hospital")
            .unwrap()
            .isi
            .metrics()
            .snapshot()
    };
    let data_before = data();
    assert!(orb_before.requests_served > 0 && data_before.rows_scanned > 0);

    assert!(dep.fed.kill_orb("VisiBroker").unwrap());
    assert!(dep.fed.restart_orb("VisiBroker").unwrap());

    // The restarted ORB counts from zero: its delta saturates instead
    // of underflowing. The site's data counters outlive the ORB.
    let orb_after = dep.fed.orb("VisiBroker").unwrap().metrics().snapshot();
    assert_eq!(orb_after.since(&orb_before).requests_served, 0);
    assert_eq!(data(), data_before);
    dep.fed.shutdown();
}

#[test]
fn an_idle_pooled_connection_to_a_restarted_orb_costs_at_most_one_retry() {
    let dep = build_healthcare(1999).unwrap();
    let fed = &dep.fed;
    let rbh = fed.site("Royal Brisbane Hospital").unwrap();
    let client = fed.client_orb();
    // The first call leaves a connection to VisiBroker idle in the pool.
    fed.invoke(&rbh.codb_ior, "version", &[]).unwrap();

    assert!(fed.kill_orb(&rbh.orb_name).unwrap());
    assert!(fed.restart_orb(&rbh.orb_name).unwrap());

    // Nobody was reading that connection when the old ORB said
    // CloseConnection and hung up. The next call must find that out
    // before it sends (or, at worst, as a provably unprocessed request
    // it may retry once) — never as an ambiguous loss that surfaces.
    let before = client.metrics().snapshot();
    fed.invoke(&rbh.codb_ior, "version", &[])
        .expect("the call reaches the restarted ORB");
    let delta = client.metrics().snapshot().since(&before);
    assert!(delta.retries <= 1, "retries = {}", delta.retries);
    assert_eq!(delta.evictions, 1, "the stale connection is dropped");
    fed.shutdown();
}
