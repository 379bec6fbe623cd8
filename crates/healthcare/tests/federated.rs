//! Federated cross-site query execution over the healthcare
//! deployment: union across a coalition, semi-join key shipping
//! between the insurers, serial/parallel merge identity, ship waves and
//! member lookups that overlap their sites, EXPLAIN plans, and graceful degradation
//! when a member's ORB dies mid-query.

use std::time::{Duration, Instant};
use webfindit::orb::CallOptions;
use webfindit::processor::{Processor, Response};
use webfindit::session::BrowserSession;
use webfindit_healthcare::build_healthcare;

const UNION: &str = "Invoke ResearchProjects.Funding() At Coalition Research;";
const SEMI_JOIN: &str = "Invoke Policies.Premium() At Coalition Medical Insurance \
                         Where Policies.Holder In Members.Name();";

fn fed_submit(processor: &Processor, session: &mut BrowserSession, text: &str) -> Response {
    processor.submit(session, text, None).unwrap()
}

#[test]
fn union_spans_three_member_sites() {
    let dep = build_healthcare(1999).unwrap();
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("QUT Research");
    match fed_submit(&processor, &mut session, UNION) {
        Response::Federated(o) => {
            // RBH, QUT, and RMIT export a research-project type; the
            // Queensland Cancer Fund (Grant class) is skipped at plan
            // time, not degraded.
            assert_eq!(o.per_site.len(), 3, "{:?}", o.per_site);
            let sites: Vec<&str> = o.per_site.iter().map(|(s, _)| s.as_str()).collect();
            assert_eq!(
                sites,
                vec![
                    "QUT Research",
                    "RMIT Medical Research",
                    "Royal Brisbane Hospital"
                ],
                "member order is deterministic"
            );
            assert!(o.complete(), "{:?}", o.degraded);
            assert_eq!(o.columns, vec!["site", "funding"]);
            assert!(o.rows.iter().all(|r| r.len() == 2));
            // The seeded RBH AIDS project is in the merge.
            assert!(
                o.rows
                    .iter()
                    .any(|r| r[0] == "Royal Brisbane Hospital" && r[1] == "250000"),
                "{:?}",
                o.rows
            );
            assert!(session.last_degraded.is_empty());
        }
        other => panic!("{other:?}"),
    }
    dep.fed.shutdown();
}

#[test]
fn parallel_merge_is_byte_identical_to_sequential_reference() {
    let dep = build_healthcare(1999).unwrap();
    let mut serial = Processor::new(dep.fed.clone());
    serial.set_fed_workers(1);
    let mut parallel = Processor::new(dep.fed.clone());
    parallel.set_fed_workers(8);

    for query in [
        UNION,
        SEMI_JOIN,
        "Invoke ResearchProjects.Funding() At Coalition Research Limit 3;",
        "Invoke ResearchProjects.Funding() At Sites With Information Medical Research;",
    ] {
        let mut sa = BrowserSession::new("QUT Research");
        let mut sb = BrowserSession::new("QUT Research");
        let a = fed_submit(&serial, &mut sa, query);
        let cold = fed_submit(&parallel, &mut sb, query);
        let warm = fed_submit(&parallel, &mut sb, query);
        assert_eq!(a.render(), cold.render(), "{query}");
        assert_eq!(a.render(), warm.render(), "{query}");
    }
    dep.fed.shutdown();
}

/// The ship wave overlaps its members: with each union member's ISI
/// servant held 100 ms, one fed worker pays the three holds in a row and
/// eight pay about one, with the same rows either way.
#[test]
fn ship_wave_overlaps_stalled_members() {
    const MEMBERS: [&str; 3] = [
        "QUT Research",
        "RMIT Medical Research",
        "Royal Brisbane Hospital",
    ];
    let dep = build_healthcare(1999).unwrap();
    let mut serial = Processor::new(dep.fed.clone());
    serial.set_fed_workers(1);
    let mut parallel = Processor::new(dep.fed.clone());
    parallel.set_fed_workers(8);
    let mut ss = BrowserSession::new("QUT Research");
    let mut sp = BrowserSession::new("QUT Research");
    // Warm both first, so the timed runs are the ship wave, not
    // plan-time discovery.
    fed_submit(&serial, &mut ss, UNION);
    fed_submit(&parallel, &mut sp, UNION);

    for site in MEMBERS {
        dep.fed.site(site).unwrap().isi_stall.stall(100);
    }
    let timed = |processor: &Processor, session: &mut BrowserSession| {
        let started = Instant::now();
        let rendered = fed_submit(processor, session, UNION).render();
        (started.elapsed(), rendered)
    };
    let (serial_took, serial_rows) = timed(&serial, &mut ss);
    let (parallel_took, parallel_rows) = timed(&parallel, &mut sp);
    for site in MEMBERS {
        dep.fed.site(site).unwrap().isi_stall.clear();
    }

    assert!(
        serial_took >= Duration::from_millis(300),
        "one worker took {serial_took:?}"
    );
    assert!(
        parallel_took < Duration::from_millis(200),
        "eight workers took {parallel_took:?}"
    );
    assert_eq!(serial_rows, parallel_rows);
    dep.fed.shutdown();
}

/// A coalition's member set is the union over all fourteen
/// co-databases, asked in one pipelined batch: with every co-database
/// held 20 ms the lookup pays about one hold, not fourteen in a row,
/// and finds the same members.
#[test]
fn coalition_members_overlaps_stalled_co_databases() {
    const STALL_MS: u64 = 20;
    let dep = build_healthcare(1999).unwrap();
    let unstalled = dep.fed.coalition_members("Research").unwrap();
    assert_eq!(unstalled.len(), 4, "{unstalled:?}");

    let sites = dep.fed.site_names();
    assert_eq!(sites.len(), 14);
    for site in &sites {
        dep.fed.site(site).unwrap().stall.stall(STALL_MS);
    }
    let started = Instant::now();
    let stalled = dep.fed.coalition_members("Research").unwrap();
    let took = started.elapsed();
    for site in &sites {
        dep.fed.site(site).unwrap().stall.clear();
    }

    assert_eq!(stalled, unstalled);
    assert!(
        took < Duration::from_millis(5 * STALL_MS),
        "14 stalled co-databases took {took:?}"
    );
    dep.fed.shutdown();
}

#[test]
fn semi_join_ships_keys_from_medibank_to_mbf() {
    let dep = build_healthcare(1999).unwrap();
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("Medicare");

    // Second case: text keys spelled with digits only (leading zeros
    // included) must reach MBF as text, not as the numbers they resemble.
    for (site, update) in [
        (
            "Medibank",
            "UPDATE members SET plan = \"007\" WHERE plan = \"basic\"",
        ),
        (
            "Medibank",
            "UPDATE members SET plan = \"042\" WHERE plan = \"family\"",
        ),
        (
            "MBF",
            "UPDATE policies SET cover = \"007\" WHERE cover = \"hospital\"",
        ),
        (
            "MBF",
            "UPDATE policies SET cover = \"099\" WHERE cover = \"extras\"",
        ),
    ] {
        let update = update.replace('"', "''");
        fed_submit(
            &processor,
            &mut session,
            &format!("Submit Native '{update}' To Instance {site};"),
        );
    }

    for (build_column, probe_column, statement) in [
        ("name", "holder", SEMI_JOIN),
        (
            "plan",
            "cover",
            "Invoke Policies.Premium() At Coalition Medical Insurance \
             Where Policies.Cover In Members.Plan();",
        ),
    ] {
        // Reference sets pulled directly through the ISIs.
        let keys: Vec<String> = match fed_submit(
            &processor,
            &mut session,
            &format!("Submit Native 'SELECT {build_column} FROM members' To Instance Medibank;"),
        ) {
            Response::Table(rs) => rs.rows.iter().map(|r| r[0].to_string()).collect(),
            other => panic!("{other:?}"),
        };
        let all_policies = match fed_submit(
            &processor,
            &mut session,
            &format!(
                "Submit Native 'SELECT {probe_column}, premium FROM policies' To Instance MBF;"
            ),
        ) {
            Response::Table(rs) => rs.rows,
            other => panic!("{other:?}"),
        };
        let expected: Vec<String> = all_policies
            .iter()
            .filter(|r| keys.contains(&r[0].to_string()))
            .map(|r| r[1].to_string())
            .collect();
        assert!(
            !expected.is_empty() && expected.len() < all_policies.len(),
            "seeded data must overlap partially ({} of {}): {statement}",
            expected.len(),
            all_policies.len()
        );

        match fed_submit(&processor, &mut session, statement) {
            Response::Federated(o) => {
                // Only MBF exports Policies; Medibank is the build side.
                assert!(o.complete(), "{statement}: {:?}", o.degraded);
                assert_eq!(o.per_site.len(), 1);
                assert_eq!(o.per_site[0].0, "MBF");
                let premiums: Vec<String> = o.rows.iter().map(|r| r[1].clone()).collect();
                assert_eq!(premiums, expected, "semi-join keeps exactly the matches");
                assert!(o.stats.keys_shipped > 0, "{:?}", o.stats);
                // rows_shipped counts both the build rows (one per
                // Medibank member) and the filtered probe rows — the
                // full MBF policy table never travels.
                assert_eq!(
                    o.stats.rows_shipped,
                    (keys.len() + expected.len()) as u64,
                    "{:?}",
                    o.stats
                );
            }
            other => panic!("{other:?}"),
        }
    }
    dep.fed.shutdown();
}

#[test]
fn limit_is_pushed_down_and_bounds_the_merge() {
    let dep = build_healthcare(1999).unwrap();
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("QUT Research");
    let unbounded = match fed_submit(&processor, &mut session, UNION) {
        Response::Federated(o) => o,
        other => panic!("{other:?}"),
    };
    match fed_submit(
        &processor,
        &mut session,
        "Invoke ResearchProjects.Funding() At Coalition Research Limit 2;",
    ) {
        Response::Federated(o) => {
            assert_eq!(o.rows.len(), 2);
            assert_eq!(o.rows, unbounded.rows[..2].to_vec(), "prefix of the merge");
            assert!(
                o.stats.rows_shipped < unbounded.stats.rows_shipped,
                "limit pushdown reduced rows on the wire ({} vs {})",
                o.stats.rows_shipped,
                unbounded.stats.rows_shipped
            );
        }
        other => panic!("{other:?}"),
    }
    dep.fed.shutdown();
}

#[test]
fn explain_renders_the_federated_plan() {
    let dep = build_healthcare(1999).unwrap();
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("QUT Research");
    match fed_submit(&processor, &mut session, &format!("Explain {UNION}")) {
        Response::Plan(lines) => {
            let text = lines.join("\n");
            assert!(
                text.starts_with("FedQuery At Coalition Research (4 member(s))"),
                "{text}"
            );
            assert!(text.contains("Merge: Union in member order"), "{text}");
            assert!(
                text.contains("Ship @ Royal Brisbane Hospital [SQL]: SELECT a.funding FROM researchprojects a"),
                "{text}"
            );
            assert!(
                text.contains(
                    "Ship @ RMIT Medical Research [OQL]: select funding from ResearchProject"
                ),
                "{text}"
            );
            assert!(
                text.contains("Skip @ Queensland Cancer Fund: does not export ResearchProjects"),
                "{text}"
            );
        }
        other => panic!("{other:?}"),
    }
    // The semi-join plan names the build side and the probe attribute.
    match fed_submit(&processor, &mut session, &format!("Explain {SEMI_JOIN}")) {
        Response::Plan(lines) => {
            let text = lines.join("\n");
            assert!(
                text.contains("SemiJoin: Policies.Holder In keys of"),
                "{text}"
            );
            assert!(text.contains("Build @ Medibank [SQL]"), "{text}");
            assert!(text.contains("Ship @ MBF [SQL]"), "{text}");
        }
        other => panic!("{other:?}"),
    }
    dep.fed.shutdown();
}

#[test]
fn killed_member_degrades_instead_of_failing_the_query() {
    let dep = build_healthcare(1999).unwrap();
    dep.fed
        .set_call_options(CallOptions::with_deadline(Duration::from_millis(200)));
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("QUT Research");

    // Orbix hosts the ObjectStore sites — RMIT among them.
    dep.fed.kill_orb("Orbix").unwrap();

    let render_once = |session: &mut BrowserSession| match fed_submit(&processor, session, UNION) {
        Response::Federated(o) => {
            assert_eq!(
                o.degraded_sites(),
                vec!["RMIT Medical Research"],
                "the dead member degrades; the skipped one does not"
            );
            assert!(
                o.degraded[0].reason.contains("unreachable"),
                "{:?}",
                o.degraded
            );
            let sites: Vec<&str> = o.per_site.iter().map(|(s, _)| s.as_str()).collect();
            assert_eq!(sites, vec!["QUT Research", "Royal Brisbane Hospital"]);
            assert!(!o.rows.is_empty(), "survivors' rows are kept");
            o.render()
        }
        other => panic!("{other:?}"),
    };
    let first = render_once(&mut session);
    assert_eq!(
        session.last_degraded.len(),
        1,
        "the session remembers the degradation"
    );
    // Degradation is deterministic: a replay is byte-identical.
    let second = render_once(&mut session);
    assert_eq!(first, second);

    // Healing the ORB restores the full merge (after the breaker's
    // cooldown lets a probe through).
    dep.fed.restart_orb("Orbix").unwrap();
    std::thread::sleep(Duration::from_millis(80));
    match fed_submit(&processor, &mut session, UNION) {
        Response::Federated(o) => {
            assert!(o.complete(), "{:?}", o.degraded);
            assert_eq!(o.per_site.len(), 3);
        }
        other => panic!("{other:?}"),
    }
    dep.fed.shutdown();
}

#[test]
fn federated_counters_reach_the_federation_and_trace() {
    let dep = build_healthcare(1999).unwrap();
    let processor = Processor::new(dep.fed.clone());
    let mut session = BrowserSession::new("QUT Research");
    let mut trace = webfindit::Trace::new();
    let resp = processor
        .submit(&mut session, SEMI_JOIN, Some(&mut trace))
        .unwrap();
    assert!(matches!(resp, Response::Federated(_)));
    let m = dep.fed.fed_metrics().snapshot();
    assert_eq!(m.queries, 1);
    assert!(m.subqueries >= 2, "build + probe subqueries: {m:?}");
    assert!(m.sites_answered >= 2);
    assert!(m.rows_shipped > 0);
    assert!(m.bytes_shipped > 0);
    assert!(m.keys_shipped > 0);
    let rendered = trace.render();
    assert!(rendered.contains("semi-join build"), "{rendered}");
    assert!(rendered.contains("keys shipped"), "{rendered}");
    assert!(rendered.contains("merged"), "{rendered}");
    dep.fed.shutdown();
}

/// A federated range over two relational members and an object member:
/// each SQL member's index walk reads exactly the rows it returns, and
/// every member's answer, object rows included, reaches the merge in
/// member order.
#[test]
fn a_federated_range_reads_only_each_members_key_range() {
    use webfindit::federation::{SiteSpec, SiteVendor};
    use webfindit_codb::ExportedType;
    use webfindit_oostore::method::MethodTable;
    use webfindit_oostore::model::{ClassDef, OType, OValue};
    use webfindit_oostore::ObjectStore;
    use webfindit_relstore::{Column, DataType, Database, Datum, Dialect, TableSchema};

    const ROWS: i64 = 2_000;
    let cost = |seq: i64| seq as f64 + 0.5;
    let spec = |name: &str, orb: &str, vendor, exported: &str| SiteSpec {
        name: name.into(),
        orb: orb.into(),
        vendor,
        host: format!(
            "{}.test.webfindit.net",
            name.to_ascii_lowercase().replace(' ', "-")
        ),
        information_type: "visit records".into(),
        documentation_url: "http://docs.webfindit.net/visits".into(),
        interface: vec![ExportedType {
            name: exported.into(),
            attributes: Vec::new(),
            functions: Vec::new(),
            description: "visits".into(),
        }],
    };
    let dep = build_healthcare(1999).unwrap();
    let fed = &dep.fed;
    let mut store = ObjectStore::new("Visits Archive");
    store
        .define_class(
            ClassDef::root("Visit")
                .attr("seq", OType::Int)
                .attr("cost", OType::Double),
        )
        .unwrap();
    for seq in 0..ROWS {
        let attrs = [
            ("seq".to_string(), OValue::Int(seq)),
            ("cost".to_string(), OValue::Double(cost(seq))),
        ];
        store.create("Visit", attrs).unwrap();
    }
    let archive = spec("Visits Archive", "Orbix", SiteVendor::ObjectStore, "Visit");
    fed.add_object_site(archive, store, MethodTable::new())
        .unwrap();
    let mut sql_members = Vec::new();
    for (name, orb, dialect) in [
        ("Visits North", "VisiBroker", Dialect::Oracle),
        ("Visits South", "OrbixWeb", Dialect::Db2),
    ] {
        let mut db = Database::new(name, dialect);
        let schema = TableSchema::new(
            "visits",
            vec![
                Column::new("seq", DataType::Int).primary_key(),
                Column::new("cost", DataType::Double),
            ],
        );
        let rows = (0..ROWS)
            .map(|seq| vec![Datum::Int(seq), Datum::Double(cost(seq))])
            .collect();
        db.import_table(schema, rows).unwrap();
        let vendor = SiteVendor::Relational(dialect);
        sql_members.push(
            fed.add_relational_site(spec(name, orb, vendor, "Visits"), db)
                .unwrap(),
        );
    }
    let members = ["Visits Archive", "Visits North", "Visits South"];
    fed.form_coalition("Visit Records", None, "visit records", &members)
        .unwrap();

    let scanned = || -> Vec<u64> {
        sql_members
            .iter()
            .map(|s| s.isi.metrics().snapshot().rows_scanned)
            .collect()
    };
    let before = scanned();
    let processor = Processor::new(fed.clone());
    let mut session = BrowserSession::new("QUT Research");
    let stmt = "Invoke Visits.Cost((Visits.Seq >= 700 And Visits.Seq < 850)) \
                At Coalition Visit Records;";
    let Response::Federated(o) = fed_submit(&processor, &mut session, stmt) else {
        panic!("expected a federated answer");
    };
    assert!(o.complete(), "{:?}", o.degraded);
    let expect: Vec<Vec<String>> = members
        .iter()
        .flat_map(|site| (700..850).map(move |seq| vec![site.to_string(), cost(seq).to_string()]))
        .collect();
    assert_eq!(o.rows, expect);
    let after = scanned();
    let read: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    assert_eq!(read, vec![150, 150], "rows scanned per SQL member");
    dep.fed.shutdown();
}
