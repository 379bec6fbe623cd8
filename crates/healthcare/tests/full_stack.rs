//! Full-stack integration tests over the healthcare deployment:
//! cross-ORB IIOP traffic, heterogeneous data access through all three
//! bridge kinds, gateway compensation, multi-hop discovery, access
//! information, and failure behaviour.

use webfindit::discovery::{DiscoveryEngine, Lead};
use webfindit::orb::{CallOptions, Orb, OrbError};
use webfindit::processor::{Processor, Response};
use webfindit::session::BrowserSession;
use webfindit::value_map::read_result_set;
use webfindit::wire::Value;
use webfindit::WebfinditError;
use webfindit_healthcare::build_healthcare;
use webfindit_relstore::Datum;

#[test]
fn cross_orb_iiop_traffic_actually_flows() {
    let dep = build_healthcare(1999).unwrap();
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("QUT Research");

    let before: u64 = dep
        .fed
        .orb_names()
        .iter()
        .map(|n| dep.fed.orb(n).unwrap().metrics().snapshot().requests_served)
        .sum();

    // RBH lives on VisiBroker; QUT Research's queries go through the
    // bootstrap ORB's client side — every hop is GIOP.
    processor
        .submit(
            &mut session,
            "Submit Native 'SELECT COUNT(*) FROM patient' To Instance Royal Brisbane Hospital;",
            None,
        )
        .unwrap();

    let after: u64 = dep
        .fed
        .orb_names()
        .iter()
        .map(|n| dep.fed.orb(n).unwrap().metrics().snapshot().requests_served)
        .sum();
    assert!(after > before, "the data query must cross an ORB");
    dep.fed.shutdown();
}

/// An ISI's table is the same through a collocated profile (its own ORB
/// skips the socket but not the codec) and through a remote one: as a
/// `Value`, as a table, and as the processor renders it.
#[test]
fn an_isi_table_is_the_same_collocated_and_remote() {
    let dep = build_healthcare(1999).unwrap();
    let site = dep.fed.site("Royal Brisbane Hospital").unwrap();
    let host = dep.fed.orb(&site.orb_name).unwrap();
    let client = dep.fed.client_orb();
    let sql = "SELECT * FROM researchprojects ORDER BY project_id";
    let args = [Value::string(sql)];
    let local_before = host.metrics().snapshot().local_dispatches;

    let collocated = host.invoke(&site.isi_ior, "execute", &args).unwrap();
    let remote = client.invoke(&site.isi_ior, "execute", &args).unwrap();
    assert_eq!(collocated, remote);

    let table = |orb: &Orb| {
        orb.invoke_as(
            &site.isi_ior,
            "execute",
            &args,
            &CallOptions::default(),
            |r| read_result_set(r).map(Response::Table),
        )
        .unwrap()
    };
    let collocated = table(&host);
    assert_eq!(collocated, table(client));
    assert_eq!(host.metrics().snapshot().local_dispatches, local_before + 2);

    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("QUT Research");
    let rendered = processor
        .submit(
            &mut session,
            &format!("Submit Native '{sql}' To Instance Royal Brisbane Hospital;"),
            None,
        )
        .unwrap();
    assert_eq!(rendered, collocated);
    match rendered {
        Response::Table(rs) => {
            assert!(!rs.rows.is_empty());
            assert!(rs
                .rows
                .iter()
                .flatten()
                .any(|d| matches!(d, Datum::Date(_))));
            assert!(rs
                .rows
                .iter()
                .flatten()
                .any(|d| matches!(d, Datum::Double(_))));
        }
        other => panic!("{other:?}"),
    }
    dep.fed.shutdown();
}

#[test]
fn msql_aggregate_is_compensated_at_the_isi() {
    let dep = build_healthcare(1999).unwrap();
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("Centre Link");

    // Centre Link runs mSQL, which has no aggregates; the ISI's
    // compensating gateway must still answer.
    let resp = processor
        .submit(
            &mut session,
            "Submit Native 'SELECT benefit_type, COUNT(*) n FROM payments GROUP BY benefit_type ORDER BY n DESC' \
             To Instance Centre Link;",
            None,
        )
        .unwrap();
    match resp {
        Response::Table(rs) => {
            assert_eq!(rs.columns, vec!["benefit_type", "n"]);
            assert!(!rs.rows.is_empty());
            let total: i64 = rs
                .rows
                .iter()
                .map(|r| match &r[1] {
                    Datum::Int(n) => *n,
                    other => panic!("count not an int: {other:?}"),
                })
                .sum();
            assert_eq!(total, 30, "all seeded payments accounted for");
        }
        other => panic!("{other:?}"),
    }
    dep.fed.shutdown();
}

#[test]
fn all_three_bridge_kinds_serve_queries() {
    let dep = build_healthcare(1999).unwrap();
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("QUT Research");

    // JDBC (Oracle).
    let r = processor
        .submit(
            &mut session,
            "Submit Native 'SELECT location FROM beds WHERE bed_id = 1' To Instance Royal Brisbane Hospital;",
            None,
        )
        .unwrap();
    assert!(matches!(r, Response::Table(_)));

    // JNI (Ontos at Prince Charles Hospital).
    let r = processor
        .submit(
            &mut session,
            "Submit Native 'select name, cost from Treatment where cost > 500' To Instance Prince Charles Hospital;",
            None,
        )
        .unwrap();
    match r {
        Response::Objects { columns, rows } => {
            assert_eq!(columns, vec!["name", "cost"]);
            assert!(!rows.is_empty());
        }
        other => panic!("{other:?}"),
    }

    // Native C++ (ObjectStore at Ambulance).
    let r = processor
        .submit(
            &mut session,
            "Submit Native 'select suburb from Callout where priority = 1' To Instance Ambulance;",
            None,
        )
        .unwrap();
    assert!(matches!(r, Response::Objects { .. }));
    dep.fed.shutdown();
}

#[test]
fn medical_insurance_found_via_service_link_chain() {
    // The §2.3 scenario: a QUT researcher asks for Medical Insurance.
    // QUT's local coalition (Research) fails; RBH (a Research member)
    // is also in Medical, which has a service link to Medical
    // Insurance.
    let dep = build_healthcare(1999).unwrap();
    let engine = DiscoveryEngine::new(dep.fed.clone());
    let outcome = engine.find("QUT Research", "Medical Insurance").unwrap();
    assert!(outcome.found(), "{outcome:?}");
    let mentions_insurance = outcome.leads.iter().any(|l| match l {
        Lead::Coalition { name, .. } => name.contains("Insurance"),
        Lead::Link { link, .. } => {
            link.description.to_ascii_lowercase().contains("insurance")
                || link.link_name().contains("Insurance")
        }
    });
    assert!(mentions_insurance, "{:?}", outcome.leads);
    dep.fed.shutdown();
}

#[test]
fn discovery_is_cheaper_than_broadcast_on_the_healthcare_world() {
    let dep = build_healthcare(1999).unwrap();
    let engine = DiscoveryEngine::new(dep.fed.clone());
    let flat = webfindit::baselines::FlatBroadcast::new(dep.fed.clone());

    let wf = engine.find("QUT Research", "Medical Research").unwrap();
    let bc = flat.find("Medical Research").unwrap();
    assert!(wf.found() && bc.found());
    assert!(wf.stats.total_round_trips() < bc.stats.total_round_trips());
    assert_eq!(bc.stats.sites_visited, 14);
    dep.fed.shutdown();
}

#[test]
fn access_information_round_trips_over_iiop() {
    let dep = build_healthcare(1999).unwrap();
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("Medicare");
    let resp = processor
        .submit(
            &mut session,
            "Display Access Information of Instance MBF;",
            None,
        )
        .unwrap();
    match resp {
        Response::AccessInfo(d) => {
            assert_eq!(d.name, "MBF");
            assert!(d.wrapper.starts_with("jdbc:db2://"));
        }
        other => panic!("{other:?}"),
    }
    dep.fed.shutdown();
}

#[test]
fn querying_an_unknown_instance_fails_cleanly() {
    let dep = build_healthcare(1999).unwrap();
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("Medicare");
    let err = processor
        .submit(
            &mut session,
            "Submit Native 'SELECT 1 FROM x' To Instance Nonexistent Hospital;",
            None,
        )
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("Nonexistent Hospital") || msg.contains("not bound"),
        "{msg}"
    );
    dep.fed.shutdown();
}

#[test]
fn bad_sql_returns_a_user_visible_error_not_a_crash() {
    let dep = build_healthcare(1999).unwrap();
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("QUT Research");
    let err = processor
        .submit(
            &mut session,
            "Submit Native 'SELEC broken FROM' To Instance Royal Brisbane Hospital;",
            None,
        )
        .unwrap_err();
    assert!(
        err.to_string().contains("exception") || err.to_string().contains("parse"),
        "{err}"
    );
    // The session is still usable afterwards.
    let ok = processor
        .submit(
            &mut session,
            "Submit Native 'SELECT COUNT(*) FROM doctors' To Instance Royal Brisbane Hospital;",
            None,
        )
        .unwrap();
    assert!(matches!(ok, Response::Table(_)));
    dep.fed.shutdown();
}

/// A query nested 20 000 levels deep is about 40 KB of text. Parsed
/// without a depth limit on an ISI's dispatch worker, it overflows the
/// worker's stack and aborts the whole process. With the limits, the
/// SQL and OQL wrappers answer with an application error and go on
/// serving.
#[test]
fn a_too_deeply_nested_query_earns_an_application_error_and_the_isi_serves_on() {
    let dep = build_healthcare(1999).unwrap();
    let deep_sql = format!(
        "SELECT {}1{} FROM doctors",
        "(".repeat(20_000),
        ")".repeat(20_000)
    );
    let deep_oql = format!(
        "select name from Treatment where {}cost > 1",
        "not ".repeat(20_000)
    );
    for (site, deep, next) in [
        (
            "Royal Brisbane Hospital",
            deep_sql,
            "SELECT COUNT(*) FROM doctors",
        ),
        (
            "Prince Charles Hospital",
            deep_oql,
            "select name from Treatment",
        ),
    ] {
        let isi = dep.fed.site(site).unwrap().isi_ior;
        let err = dep
            .fed
            .invoke(&isi, "execute", &[Value::string(deep)])
            .unwrap_err();
        match &err {
            WebfinditError::Orb(OrbError::RemoteException {
                system: false,
                description,
            }) => assert!(description.contains("nest deeper than 64"), "{description}"),
            other => panic!("{site}: expected an application error, got {other}"),
        }
        let rows = dep
            .fed
            .invoke(&isi, "execute", &[Value::string(next)])
            .unwrap();
        assert!(
            rows.field("rows")
                .and_then(Value::as_sequence)
                .is_some_and(|r| !r.is_empty()),
            "{site}: {rows}"
        );
    }
    dep.fed.shutdown();
}

/// A LIKE pattern of 200 000 `%` is about 200 KB of text. A matcher
/// that recursed once per pattern character would overflow the ISI
/// dispatch worker's stack and abort the whole process. The SQL and
/// OQL wrappers answer it, and go on serving.
#[test]
fn a_long_like_pattern_is_answered_and_the_isi_serves_on() {
    let dep = build_healthcare(1999).unwrap();
    let pattern = "%".repeat(200_000);
    for (site, query, next) in [
        (
            "Royal Brisbane Hospital",
            format!("SELECT position FROM doctors WHERE qualification LIKE '{pattern}'"),
            "SELECT COUNT(*) FROM doctors",
        ),
        (
            "Prince Charles Hospital",
            format!("select name from Treatment where name like '{pattern}'"),
            "select name from Treatment",
        ),
    ] {
        let isi = dep.fed.site(site).unwrap().isi_ior;
        for text in [query, next.to_string()] {
            let rows = dep
                .fed
                .invoke(&isi, "execute", &[Value::string(text)])
                .unwrap();
            assert!(
                rows.field("rows")
                    .and_then(Value::as_sequence)
                    .is_some_and(|r| !r.is_empty()),
                "{site}: {rows}"
            );
        }
    }
    dep.fed.shutdown();
}

#[test]
fn two_deployments_coexist_in_one_process() {
    // ORB ports are ephemeral and domains are isolated, so two
    // federations must not interfere.
    let a = build_healthcare(1).unwrap();
    let b = build_healthcare(2).unwrap();
    let pa = Processor::new(a.fed.clone());
    let pb = Processor::new(b.fed.clone());
    let mut sa = BrowserSession::new("QUT Research");
    let mut sb = BrowserSession::new("QUT Research");
    let ra = pa
        .submit(
            &mut sa,
            "Find Coalitions With Information Medical Research;",
            None,
        )
        .unwrap();
    let rb = pb
        .submit(
            &mut sb,
            "Find Coalitions With Information Medical Research;",
            None,
        )
        .unwrap();
    assert!(matches!(ra, Response::Leads { .. }));
    assert!(matches!(rb, Response::Leads { .. }));
    a.fed.shutdown();
    b.fed.shutdown();
}

#[test]
fn data_source_outage_degrades_to_a_clean_error() {
    // DISCO-style unavailable-source handling: take a database engine
    // offline (the ISI and co-database stay up); data queries fail with
    // a resource error while metadata browsing keeps working.
    let dep = build_healthcare(1999).unwrap();
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("QUT Research");

    assert!(dep.fed.registry().unregister("oracle", "Medibank"));

    let err = processor
        .submit(
            &mut session,
            "Submit Native 'SELECT COUNT(*) FROM members' To Instance Medibank;",
            None,
        )
        .unwrap_err();
    assert!(err.to_string().contains("unknown data source"), "{err}");

    // Metadata about the dead source is still served by co-databases.
    let resp = processor
        .submit(
            &mut session,
            "Display Access Information of Instance Medibank;",
            None,
        )
        .unwrap();
    assert!(matches!(resp, Response::AccessInfo(_)));

    // Other sites are unaffected.
    let resp = processor
        .submit(
            &mut session,
            "Submit Native 'SELECT COUNT(*) FROM policies' To Instance MBF;",
            None,
        )
        .unwrap();
    assert!(matches!(resp, Response::Table(_)));
    dep.fed.shutdown();
}

#[test]
fn find_databases_statement_lists_members() {
    let dep = build_healthcare(1999).unwrap();
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("QUT Research");
    let resp = processor
        .submit(
            &mut session,
            "Find Databases With Information Medical Research;",
            None,
        )
        .unwrap();
    match resp {
        Response::Databases(names) => {
            assert!(
                names.contains(&"Royal Brisbane Hospital".to_string()),
                "{names:?}"
            );
            assert!(names.contains(&"QUT Research".to_string()), "{names:?}");
        }
        other => panic!("{other:?}"),
    }
    dep.fed.shutdown();
}

#[test]
fn subclass_refinement_from_the_connected_coalition() {
    let dep = build_healthcare(1999).unwrap();
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("QUT Research");
    processor
        .submit(&mut session, "Connect To Coalition Research;", None)
        .unwrap();
    let resp = processor
        .submit(&mut session, "Display SubClasses of Class Research;", None)
        .unwrap();
    assert_eq!(resp, Response::Subclasses(vec!["Cancer Research".into()]));
    // Instances of the subclass.
    let resp = processor
        .submit(
            &mut session,
            "Display Instances of Class Cancer Research;",
            None,
        )
        .unwrap();
    assert_eq!(
        resp,
        Response::Instances(vec!["Queensland Cancer Fund".into()])
    );
    dep.fed.shutdown();
}

#[test]
fn concurrent_sessions_share_the_federation_safely() {
    use std::sync::Arc as StdArc;
    let dep = build_healthcare(1999).unwrap();
    let fed = dep.fed.clone();
    let processor = StdArc::new(Processor::new(fed.clone()));

    let mut handles = Vec::new();
    for (i, home) in ["QUT Research", "Medicare", "Centre Link", "MBF"]
        .iter()
        .enumerate()
    {
        let processor = StdArc::clone(&processor);
        let home = home.to_string();
        handles.push(std::thread::spawn(move || {
            let mut session = BrowserSession::new(home);
            for round in 0..10 {
                // Mix metadata and data traffic.
                let resp = processor
                    .submit(
                        &mut session,
                        "Find Coalitions With Information Medical Research;",
                        None,
                    )
                    .unwrap();
                assert!(matches!(resp, Response::Leads { .. }));
                let resp = processor
                    .submit(
                        &mut session,
                        "Submit Native 'SELECT name FROM medical_students WHERE year = 3' \
                         To Instance Royal Brisbane Hospital;",
                        None,
                    )
                    .unwrap();
                match resp {
                    Response::Table(rs) => {
                        // Deterministic data: every thread and round
                        // sees identical rows.
                        assert!(rs.rows.len() < 21, "thread {i} round {round}");
                    }
                    other => panic!("{other:?}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    dep.fed.shutdown();
}

#[test]
fn explain_travels_through_the_wrapper_too() {
    // EXPLAIN is an engine feature, but it is reachable through the
    // full WebFINDIT stack like any native statement — useful when
    // debugging a wrapper's translated queries.
    let dep = build_healthcare(1999).unwrap();
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("QUT Research");
    let resp = processor
        .submit(
            &mut session,
            "Submit Native 'EXPLAIN SELECT a.funding FROM researchprojects a \
             WHERE a.title = ''AIDS and drugs''' To Instance Royal Brisbane Hospital;",
            None,
        )
        .unwrap();
    match resp {
        Response::Table(rs) => {
            assert_eq!(rs.columns, vec!["plan"]);
            let text = rs.to_text_table();
            // The deployment creates a secondary index on title, so the
            // wrapper-visible plan shows the index path.
            assert!(text.contains("index lookup"), "{text}");
        }
        other => panic!("{other:?}"),
    }
    dep.fed.shutdown();
}

#[test]
fn parallel_discovery_matches_serial_across_the_topology() {
    // The determinism contract on the real 14-site deployment: a
    // parallel wave fanout must produce byte-identical leads and
    // degraded sets to a serial traversal, cold cache and warm.
    let dep = build_healthcare(1999).unwrap();
    let mut serial = DiscoveryEngine::new(dep.fed.clone());
    serial.max_workers = 1;
    let mut parallel = DiscoveryEngine::new(dep.fed.clone());
    parallel.max_workers = 8;

    for topic in [
        "Medical Research",
        "Medical Insurance",
        "cancer Research funding",
        "taxation records",
        "emergency transport",
        "subject nobody advertises",
    ] {
        let s = serial.find("QUT Research", topic).unwrap();
        let cold = parallel.find("QUT Research", topic).unwrap();
        let warm = parallel.find("QUT Research", topic).unwrap();
        for p in [&cold, &warm] {
            assert_eq!(s.leads, p.leads, "{topic}");
            assert_eq!(s.degraded, p.degraded, "{topic}");
            assert_eq!(s.stats.sites_visited, p.stats.sites_visited, "{topic}");
        }
        assert!(
            warm.stats.total_round_trips() <= cold.stats.total_round_trips(),
            "{topic}: warm cache must not cost extra round-trips \
             (cold {:?}, warm {:?})",
            cold.stats,
            warm.stats
        );
    }

    // The fanout and cache counters behind E8 are live where they are
    // bumped: discovery's on the federation, the IOR cache's on the
    // client ORB.
    let m = dep.fed.discovery_metrics().snapshot();
    assert!(m.fanout_waves > 0, "remote waves were dispatched");
    assert!(m.fanout_peak_width > 1, "waves actually fanned out");
    assert!(
        m.fanout_waves > 1 && m.fanout_peak_width < m.fanout_sites,
        "peak is a max, not a sum: {m:?}"
    );
    assert!(m.codb_cache_hits > 0, "warm runs hit the metadata cache");
    let m = dep.fed.client_orb().metrics().snapshot();
    assert!(m.ior_cache_hits > 0, "repeat resolutions hit the IOR cache");
    dep.fed.shutdown();
}

#[test]
fn every_remote_visit_costs_one_probe_cold_and_warm() {
    let dep = build_healthcare(1999).unwrap();
    for start in ["QUT Research", "Medicare", "Royal Brisbane Hospital"] {
        let engine = DiscoveryEngine::new(dep.fed.clone());
        for topic in [
            "Medical Insurance",
            "cancer Research funding",
            "subject nobody advertises",
        ] {
            let hits = || dep.fed.discovery_metrics().snapshot().codb_cache_hits;
            let cold = engine.find(start, topic).unwrap();
            let before = hits();
            let warm = engine.find(start, topic).unwrap();
            for out in [&cold, &warm] {
                assert!(out.complete(), "{start} / {topic}: {out:?}");
                assert_eq!(
                    out.stats.codb_queries,
                    out.stats.sites_visited as u64 - 1,
                    "{start} / {topic}: one probe per remote site, {:?}",
                    out.stats
                );
            }
            // Warm, every probe is confirmed by its stamp and the
            // naming lookups are cached: the probes are the round trips.
            assert_eq!(
                warm.stats.total_round_trips(),
                warm.stats.codb_queries,
                "{start} / {topic}"
            );
            assert_eq!(
                hits() - before,
                warm.stats.codb_queries,
                "{start} / {topic}"
            );
        }
    }
    dep.fed.shutdown();
}

/// The servant-side probe answers exactly what the client-side calls it
/// replaced did: `find_coalitions` and `find_links` for the leads and,
/// when there are none, the expansion the client used to walk from the
/// coalition list, `service_links` and one `members` call per
/// coalition.
#[test]
fn a_probe_answers_what_the_client_side_walk_it_replaced_did() {
    use webfindit::value_map::value_to_strings;
    use webfindit::wire::Value;

    let dep = build_healthcare(1999).unwrap();
    let fed = &dep.fed;
    let strings = |v: Option<&Value>| value_to_strings(v.expect("field present")).unwrap();
    let mut topics: Vec<String> = fed
        .site_names()
        .iter()
        .map(|s| fed.site(s).unwrap().descriptor.information_type)
        .collect();
    topics.push("subject nobody advertises".into());
    let mut expanded = 0;
    for site in fed.site_names() {
        let handle = fed.site(&site).unwrap();
        let ior = &handle.codb_ior;
        let members_of = |c: &str| {
            fed.invoke(ior, "members", &[Value::string(c)])
                .map(|v| value_to_strings(&v).unwrap())
                .unwrap_or_default()
        };
        for topic in &topics {
            let topic_arg = [Value::string(topic.as_str())];
            let probe = fed
                .invoke(ior, "probe", &[Value::string(topic.as_str()), Value::Null])
                .unwrap();
            let coalitions = fed.invoke(ior, "find_coalitions", &topic_arg).unwrap();
            let links = fed.invoke(ior, "find_links", &topic_arg).unwrap();
            assert_eq!(
                probe.field("coalitions"),
                Some(&coalitions),
                "{site} / {topic}"
            );
            assert_eq!(probe.field("links"), Some(&links), "{site} / {topic}");

            let mut walked = Vec::new();
            let leads = links.as_sequence().unwrap().len() + strings(Some(&coalitions)).len();
            if leads == 0 {
                expanded += 1;
                // The coalition list the removed `coalitions` operation
                // served.
                for c in handle.codb.read().coalitions() {
                    walked.extend(members_of(&c));
                }
                let all_links = fed.invoke(ior, "service_links", &[]).unwrap();
                for link in all_links.as_sequence().unwrap() {
                    for (kind, name) in [("from_kind", "from"), ("to_kind", "to")] {
                        let name = link.field(name).and_then(Value::as_str).unwrap();
                        match link.field(kind).and_then(Value::as_str) {
                            Some("database") => walked.push(name.to_owned()),
                            _ => walked.extend(members_of(name)),
                        }
                    }
                }
            }
            assert_eq!(
                strings(probe.field("expansion")),
                walked,
                "{site} / {topic}"
            );
        }
    }
    assert!(expanded >= fed.site_names().len(), "every site expanded");
    dep.fed.shutdown();
}

#[test]
fn discovery_trace_reports_fanout_and_cache_counters() {
    let dep = build_healthcare(1999).unwrap();
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("QUT Research");
    let mut trace = webfindit::Trace::new();
    let resp = processor
        .submit(
            &mut session,
            "Find Coalitions With Information Medical Insurance;",
            Some(&mut trace),
        )
        .unwrap();
    assert!(matches!(resp, Response::Leads { .. }));
    let rendered = trace.render();
    assert!(rendered.contains("waves"), "{rendered}");
    assert!(rendered.contains("peak width"), "{rendered}");
    assert!(rendered.contains("ior cache"), "{rendered}");
    assert!(rendered.contains("codb cache"), "{rendered}");
    dep.fed.shutdown();
}
