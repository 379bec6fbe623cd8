//! The traced run: per-layer numbers measured from outside, by
//! replaying one client's first ops single-threaded and entering the
//! stack at successive depths with the same inputs.
//!
//! * **D0** `Processor::submit(text)`
//! * **D1** `Federation::invoke(&isi_ior, "execute", [native])`
//! * **D2** `DriverManager::get_connection(url)` + `Connection::execute`
//! * **D3** `registry.relational(..)` + `Database::execute`
//!
//! plus stand-alone spans on the same inputs (parsers, planners, CDR and
//! fragment codecs, an echo servant, naming, discovery, the federated
//! executor). Counts come from return values and repeat exactly for a
//! fixed seed.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use webfindit::{DiscoveryEngine, FedExecutor, SiteHandle};
use webfindit_connect::parse_url;
use webfindit_orb::servant::{InvokeResult, Servant, ServantError};
use webfindit_relstore::sql::{parse_statement, Statement};
use webfindit_relstore::{plan_select, StorageStats};
use webfindit_tassili::{parse, translate_invoke_to_sql};
use webfindit_wire::giop::{reply_ok, split_into_fragments, FragmentAssembler, FRAGMENT_BODY_SIZE};
use webfindit_wire::{BufPool, ByteOrder, CdrReader, CdrWriter, GiopMessage, Ior, Value};

use crate::deploy::NORTH;
use crate::run::{setup, Bench, Client};
use crate::span::Recorder;
use crate::stats::median;
use crate::workloads::{equivalent_invoke, native, Op, OpGen, Workload, CHURN};

/// `(name, unit)` of every per-layer metric, as `BENCHMARK.json` lists
/// them. A metric whose layer a workload does not enter reads 0 there.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("depth.d0_us", "us"),
    ("depth.d0_untraced_us", "us"),
    ("depth.d1_us", "us"),
    ("depth.d2_us", "us"),
    ("depth.d3_us", "us"),
    ("depth.self_sum_us", "us"),
    ("tassili.parse_us", "us"),
    ("tassili.translate_us", "us"),
    ("core.stmt_self_us", "us"),
    ("orb.isi_self_us", "us"),
    ("orb.echo_rtt_small_us", "us"),
    ("orb.echo_rtt_large_us", "us"),
    ("orb.naming_resolve_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.fragment_us", "us"),
    ("wire.reply_bytes", "B"),
    ("wire.fragments_per_reply", "count"),
    ("connect.self_us", "us"),
    ("connect.open_us", "us"),
    ("relstore.parse_us", "us"),
    ("relstore.plan_us", "us"),
    ("relstore.exec_us", "us"),
    ("relstore.rows_scanned_per_row_out", "ratio"),
    ("relstore.index_hits_per_op", "count"),
    ("relstore.rows_spilled_per_op", "count"),
    ("relstore.commit_us", "us"),
    ("relstore.wal_flushes_per_commit", "count"),
    ("relstore.wal_bytes_per_commit", "B"),
    ("relstore.pages_flushed_per_commit", "count"),
    ("relstore.checkpoints", "count"),
    ("oostore.oql_us", "us"),
    ("codb.find_us", "us"),
    ("codb.servant_rtt_us", "us"),
    ("core.discovery.find_us", "us"),
    ("core.discovery.round_trips_per_op", "count"),
    ("core.discovery.sites_visited_per_op", "count"),
    ("core.discovery.warm_hit_share", "share"),
    ("core.discovery.cold_serial_us", "us"),
    ("core.discovery.cold_parallel_us", "us"),
    ("core.discovery.cold_serial_depth2_us", "us"),
    ("core.discovery.cold_parallel_depth2_us", "us"),
    ("core.fed.plan_us", "us"),
    ("core.fed.execute_us", "us"),
    ("core.fed.slowest_site_us", "us"),
    ("core.fed.sum_site_us", "us"),
    ("core.fed.merge_self_us", "us"),
    ("core.fed.serial_over_parallel", "ratio"),
    ("core.fed.rows_shipped_per_op", "count"),
    ("core.fed.bytes_shipped_per_op", "B"),
];

/// Whether `workload` enters the layer `metric` measures. A metric that
/// does not apply reads 0 in the result line, which must carry every
/// name, and is left out of tables and result files.
pub fn applies(workload: Workload, metric: &str) -> bool {
    let single_site = workload.sql_site().is_some();
    if metric.starts_with("core.fed.") || metric.starts_with("oostore.") {
        workload == Workload::FedUnion
    } else if metric.starts_with("core.discovery.") || metric.starts_with("codb.") {
        workload == Workload::DiscoverChurn
    } else if metric.starts_with("relstore.")
        || metric.starts_with("connect.")
        || metric == "orb.isi_self_us"
        || (metric.starts_with("depth.") && !metric.starts_with("depth.d0"))
    {
        single_site
    } else if metric == "tassili.translate_us" {
        workload != Workload::DiscoverChurn
    } else {
        true
    }
}

/// What the traced run measured.
pub struct Traced {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub recorder: Recorder,
}

/// Returns its stored payload: an echo the size of a workload's reply.
struct PayloadServant {
    payload: RwLock<Value>,
}

impl Servant for PayloadServant {
    fn interface_id(&self) -> &str {
        "IDL:webfindit/BenchPayload:1.0"
    }

    fn invoke(&self, operation: &str, _args: &[Value]) -> InvokeResult {
        match operation {
            "ping" => Ok(Value::Long(1)),
            "payload" => Ok(self.payload.read().expect("payload lock").clone()),
            other => Err(ServantError::UnknownOperation(other.to_owned())),
        }
    }
}

/// Shared state of the depth passes of one traced run.
struct Tracer<'a> {
    bench: &'a Bench,
    rec: Recorder,
    attempted: u64,
    failed: u64,
    echo: Arc<PayloadServant>,
    echo_ior: Ior,
    order: ByteOrder,
    pool: Arc<BufPool>,
    reply_bytes: u64,
    fragments: u64,
    replies: u64,
}

impl<'a> Tracer<'a> {
    /// `echo_site` names the bench or healthcare site whose ORB hosts
    /// the echo servant.
    fn new(bench: &'a Bench, echo_site: &str) -> Result<Tracer<'a>, String> {
        let fed = &bench.dep.fed;
        let site = fed.site(echo_site).map_err(|e| e.to_string())?;
        let orb = fed.orb(&site.orb_name).map_err(|e| e.to_string())?;
        let echo = Arc::new(PayloadServant {
            payload: RwLock::new(Value::Void),
        });
        let echo_ior = orb.activate(b"bench/echo".to_vec(), echo.clone());
        Ok(Tracer {
            bench,
            rec: Recorder::new(),
            attempted: 0,
            failed: 0,
            echo,
            echo_ior,
            order: orb.byte_order(),
            pool: BufPool::shared(),
            reply_bytes: 0,
            fragments: 0,
            replies: 0,
        })
    }

    fn tally<T, E>(&mut self, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        if r.is_err() {
            self.failed += 1;
        }
        r.ok()
    }

    /// One client, tracing off: what tracing overhead is read against.
    /// A tenth as many unmeasured ops first, so neither this pass nor
    /// the traced one pays for cold caches. Returns the median latency.
    fn untraced_pass(&mut self, ops: usize) -> f64 {
        let mut latencies = Vec::with_capacity(ops);
        for (pass, n) in [(5, ops / 10), (0, ops)] {
            let mut client = Client::new(self.bench, 0, pass);
            latencies.clear();
            for _ in 0..n {
                let op = client.next_op();
                let (_, latency, ok) = client.submit(&op);
                self.tally(ok.then_some(()).ok_or(()));
                latencies.push(latency.as_secs_f64() * 1e6);
            }
            client.reset_membership();
        }
        median(&latencies)
    }

    /// D0 with a span around the statement, then the query layer's
    /// stand-alone spans on the same text. Returns the D0 span.
    fn d0_step(&mut self, client: &mut Client, i: u32) -> (Op, u32) {
        let op = client.next_op();
        let (started, latency, ok) = client.submit(&op);
        self.tally(ok.then_some(()).ok_or(()));
        let d0 = self.rec.add("d0.submit", i, None, started, latency);

        let text = self.bench.oracle.statement(&op, 0);
        let parsed = self.rec.record("tassili.parse", i, None, || parse(&text)).0;
        self.tally(parsed);
        if let Some(invoke) = equivalent_invoke(&op) {
            let sql = parse(&invoke).and_then(|stmt| {
                self.rec
                    .record("tassili.translate", i, None, || {
                        translate_invoke_to_sql(&stmt)
                    })
                    .0
            });
            self.tally(sql);
        }
        (op, d0)
    }

    /// CDR and fragment codecs on a captured request and reply, then the
    /// echo servant answering with a payload of the reply's size.
    fn wire_probes(&mut self, i: u32, request: &Value, replies: Vec<Value>) {
        let order = self.order;
        let (bytes, _) = self.rec.record("wire.encode", i, None, || {
            let mut w = CdrWriter::new(order);
            request.encode(&mut w).expect("encode request");
            for reply in &replies {
                reply.encode(&mut w).expect("encode reply");
            }
            w.into_bytes()
        });
        self.rec.record("wire.decode", i, None, || {
            let mut r = CdrReader::new(&bytes, order);
            for _ in 0..=replies.len() {
                Value::decode(&mut r).expect("decode what was just encoded");
            }
        });
        let messages: Vec<GiopMessage> = replies.into_iter().map(|r| reply_ok(i, r)).collect();
        let pool = &self.pool;
        let (sizes, _) = self.rec.record("wire.fragment", i, None, || {
            messages
                .iter()
                .map(|msg| {
                    let frame = msg.encode(order).expect("encode reply frame");
                    let train = split_into_fragments(&frame, FRAGMENT_BODY_SIZE, pool)
                        .expect("split reply frame");
                    let mut assembler = FragmentAssembler::new();
                    for fragment in &train {
                        assembler.push_frame(fragment).expect("reassemble reply");
                    }
                    (frame.len(), train.len())
                })
                .collect::<Vec<_>>()
        });
        self.replies += sizes.len() as u64;
        self.reply_bytes += sizes.iter().map(|s| s.0 as u64).sum::<u64>();
        self.fragments += sizes.iter().map(|s| s.1 as u64).sum::<u64>();
        let largest = messages
            .into_iter()
            .zip(&sizes)
            .max_by_key(|(_, size)| size.0)
            .and_then(|(msg, _)| match msg {
                GiopMessage::Reply { body, .. } => Some(body),
                _ => None,
            })
            .unwrap_or(Value::Void);
        *self.echo.payload.write().expect("payload lock") = largest;
        for (span, operation) in [("orb.echo_large", "payload"), ("orb.echo_small", "ping")] {
            let (fed, ior) = (&self.bench.dep.fed, &self.echo_ior);
            let r = self
                .rec
                .record(span, i, None, || fed.invoke(ior, operation, &[]))
                .0;
            self.tally(r);
        }
    }

    /// A naming resolution that goes to the wire.
    fn naming_probe(&mut self, i: u32, binding: &str) {
        let fed = &self.bench.dep.fed;
        fed.ior_cache().clear();
        let r = self
            .rec
            .record("orb.naming_resolve", i, None, || {
                fed.naming_client().resolve(binding)
            })
            .0;
        self.tally(r);
    }

    fn median_of(&self, span: &str) -> f64 {
        median(&self.rec.durations_us(span))
    }

    fn median_self(&self, span: &str) -> f64 {
        median(&self.rec.self_us(span))
    }

    /// Metrics every workload reports, from the spans recorded so far.
    fn common_metrics(&self, untraced_us: f64) -> BTreeMap<&'static str, f64> {
        let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
        m.insert("depth.d0_untraced_us", untraced_us);
        m.insert("depth.d0_us", self.median_of("d0.submit"));
        m.insert("core.stmt_self_us", self.median_self("d0.submit"));
        m.insert("tassili.parse_us", self.median_of("tassili.parse"));
        m.insert("tassili.translate_us", self.median_of("tassili.translate"));
        m.insert("orb.echo_rtt_small_us", self.median_of("orb.echo_small"));
        m.insert("orb.echo_rtt_large_us", self.median_of("orb.echo_large"));
        m.insert(
            "orb.naming_resolve_us",
            self.median_of("orb.naming_resolve"),
        );
        m.insert("wire.encode_us", self.median_of("wire.encode"));
        m.insert("wire.decode_us", self.median_of("wire.decode"));
        m.insert("wire.fragment_us", self.median_of("wire.fragment"));
        let replies = self.replies.max(1) as f64;
        m.insert("wire.reply_bytes", self.reply_bytes as f64 / replies);
        m.insert("wire.fragments_per_reply", self.fragments as f64 / replies);
        m
    }

    fn finish(self, metrics: BTreeMap<&'static str, f64>) -> Traced {
        Traced {
            metrics,
            attempted: self.attempted,
            failed: self.failed,
            recorder: self.rec,
        }
    }
}

pub fn trace(workload: Workload, seed: u64, ops: usize) -> Result<Traced, String> {
    let bench = setup(workload, seed, 0)?;
    match workload.sql_site() {
        Some(site) => trace_sql_site(&bench, site, ops),
        None if workload == Workload::FedUnion => trace_fed(&bench, ops),
        None => trace_discover(&bench, ops),
    }
}

/// The four single-site workloads: the full depth chain. D0 and D1
/// each replay the ops in a loop of their own, because a client that
/// blocks on a reply pays for thread wake-ups that work between
/// statements would hide; D2 and D3 never block and run back to back.
fn trace_sql_site(bench: &Bench, site_name: &str, ops: usize) -> Result<Traced, String> {
    let mut t = Tracer::new(bench, site_name)?;
    let fed = &bench.dep.fed;
    let site = fed.site(site_name).map_err(|e| e.to_string())?;
    let url = parse_url(&site.url).ok_or("bench site URL does not parse")?;
    let db = fed
        .registry()
        .relational(url.vendor, url.instance)
        .map_err(|e| e.to_string())?;
    let binding = format!("isi/{site_name}");
    // Each depth replays the same stream; `pass` keeps inserted keys apart.
    let stream = |pass| {
        let mut gen = OpGen::new(bench.workload, bench.seed, 0, pass);
        std::iter::repeat_with(move || native(&gen.next_op()).expect("single-site ops are native"))
    };

    let untraced_us = t.untraced_pass(ops);

    let mut client = Client::new(bench, 0, 1);
    let d0: Vec<u32> = (0..ops as u32)
        .map(|i| t.d0_step(&mut client, i).1)
        .collect();

    // D1: straight to the site's ISI servant.
    let mut d1 = Vec::with_capacity(ops);
    for (i, sql) in (0..ops as u32).zip(stream(2)) {
        let request = Value::string(sql);
        let (reply, id) = t.rec.record("d1.isi_execute", i, Some(d0[i as usize]), || {
            fed.invoke(&site.isi_ior, "execute", std::slice::from_ref(&request))
        });
        d1.push(id);
        if let Some(reply) = t.tally(reply) {
            t.wire_probes(i, &request, vec![reply]);
        }
        t.naming_probe(i, &binding);
    }

    // D2, the connectivity layer without the ORB, and D3, relstore alone
    // with its own counters.
    let stats_before = db.lock().storage_stats().unwrap_or_default();
    let (mut scanned, mut output, mut index_hits, mut spilled, mut selects) = (0, 0, 0, 0, 0u64);
    let mut commit_us = Vec::new();
    for ((i, for_d2), for_d3) in (0..ops as u32).zip(stream(3)).zip(stream(4)) {
        let (out, d2) = t
            .rec
            .record("d2.connect_execute", i, Some(d1[i as usize]), || {
                fed.manager().get_connection(&site.url)?.execute(&for_d2)
            });
        t.tally(out);
        let conn = t
            .rec
            .record("connect.open", i, None, || {
                fed.manager().get_connection(&site.url)
            })
            .0;
        t.tally(conn);

        let (out, d3) = t.rec.record("d3.relstore_execute", i, Some(d2), || {
            db.lock().execute(&for_d3)
        });
        t.tally(out);
        let stmt = t
            .rec
            .record("relstore.parse", i, None, || parse_statement(&for_d3))
            .0;
        if let Some(Statement::Select(select)) = t.tally(stmt) {
            let guard = db.lock();
            if let Some(m) = guard.last_exec_metrics() {
                selects += 1;
                scanned += m.rows_scanned;
                output += m.rows_output;
                index_hits += m.index_hits;
                spilled += m.rows_spilled;
            }
            let plan = t
                .rec
                .record("relstore.plan", i, None, || {
                    plan_select(&select, guard.tables())
                })
                .0;
            drop(guard);
            t.tally(plan);
        } else {
            commit_us.push(t.rec.spans[d3 as usize].duration_us());
        }
    }
    let stats_after = db.lock().storage_stats().unwrap_or_default();

    let mut m = t.common_metrics(untraced_us);
    m.insert("depth.d1_us", t.median_of("d1.isi_execute"));
    m.insert("depth.d2_us", t.median_of("d2.connect_execute"));
    m.insert("depth.d3_us", t.median_of("d3.relstore_execute"));
    m.insert("orb.isi_self_us", t.median_self("d1.isi_execute"));
    m.insert("connect.self_us", t.median_self("d2.connect_execute"));
    m.insert("connect.open_us", t.median_of("connect.open"));
    m.insert("relstore.exec_us", t.median_of("d3.relstore_execute"));
    m.insert("relstore.parse_us", t.median_of("relstore.parse"));
    m.insert("relstore.plan_us", t.median_of("relstore.plan"));
    m.insert(
        "depth.self_sum_us",
        m["core.stmt_self_us"]
            + m["orb.isi_self_us"]
            + m["connect.self_us"]
            + m["relstore.exec_us"],
    );
    let selects = selects.max(1) as f64;
    m.insert(
        "relstore.rows_scanned_per_row_out",
        scanned as f64 / output.max(1) as f64,
    );
    m.insert("relstore.index_hits_per_op", index_hits as f64 / selects);
    m.insert("relstore.rows_spilled_per_op", spilled as f64 / selects);
    m.insert("relstore.commit_us", median(&commit_us));
    storage_metrics(&mut m, stats_before, stats_after);
    Ok(t.finish(m))
}

fn storage_metrics(m: &mut BTreeMap<&'static str, f64>, before: StorageStats, after: StorageStats) {
    let commits = (after.commits - before.commits).max(1) as f64;
    m.insert(
        "relstore.wal_flushes_per_commit",
        (after.wal_flushes - before.wal_flushes) as f64 / commits,
    );
    m.insert(
        "relstore.wal_bytes_per_commit",
        (after.wal_bytes - before.wal_bytes) as f64 / commits,
    );
    m.insert(
        "relstore.pages_flushed_per_commit",
        (after.pages_flushed - before.pages_flushed) as f64 / commits,
    );
    m.insert(
        "relstore.checkpoints",
        (after.checkpoints - before.checkpoints) as f64,
    );
}

/// `fed_union`: D0, then the federated executor and each member's
/// subquery sent alone to its ISI.
fn trace_fed(bench: &Bench, ops: usize) -> Result<Traced, String> {
    let mut t = Tracer::new(bench, NORTH)?;
    let fed = &bench.dep.fed;
    let untraced_us = t.untraced_pass(ops);

    let engine = DiscoveryEngine::new(fed.clone());
    let parallel = FedExecutor::new(fed.clone());
    let mut serial = FedExecutor::new(fed.clone());
    serial.max_workers = 1;
    let origin = crate::workloads::HOME_SITE;

    let mut client = Client::new(bench, 0, 1);
    let (mut slowest, mut sum, mut merge_self, mut oql) = (vec![], vec![], vec![], vec![]);
    let (mut rows_shipped, mut bytes_shipped) = (0u64, 0u64);
    for i in 0..ops as u32 {
        let (op, d0) = t.d0_step(&mut client, i);
        let stmt = parse(&bench.oracle.statement(&op, 0)).map_err(|e| e.to_string())?;
        let (plan, plan_id) = t.rec.record("core.fed.plan", i, None, || {
            parallel.plan(&engine, origin, &stmt)
        });
        let (out, exec_id) = t.rec.record("core.fed.execute", i, Some(d0), || {
            parallel.execute(&engine, origin, &stmt, None)
        });
        let complete = out
            .map_err(|e| e.to_string())
            .and_then(|o| o.complete().then_some(o).ok_or("degraded".to_string()));
        if let Some(out) = t.tally(complete) {
            rows_shipped += out.stats.rows_shipped;
            bytes_shipped += out.stats.bytes_shipped;
        }
        let out = t
            .rec
            .record("core.fed.execute_serial", i, None, || {
                serial.execute(&engine, origin, &stmt, None)
            })
            .0;
        t.tally(out);

        let Some(plan) = t.tally(plan) else { continue };
        let mut site_us = Vec::new();
        let mut replies = Vec::new();
        for ship in &plan.ship {
            let member: SiteHandle = fed.site(&ship.site).map_err(|e| e.to_string())?;
            let request = [Value::string(ship.native.clone())];
            let (reply, id) = t.rec.record("core.fed.site", i, None, || {
                fed.invoke(&member.isi_ior, "execute", &request)
            });
            let took = t.rec.spans[id as usize].duration_us();
            site_us.push(took);
            if ship.language == "OQL" {
                oql.push(took);
            }
            if let Some(reply) = t.tally(reply) {
                replies.push(reply);
            }
        }
        let max = site_us.iter().copied().fold(0.0, f64::max);
        slowest.push(max);
        sum.push(site_us.iter().sum());
        merge_self.push(
            t.rec.spans[exec_id as usize].duration_us()
                - t.rec.spans[plan_id as usize].duration_us()
                - max,
        );
        let request = Value::string(plan.ship.first().map_or("", |s| s.native.as_str()));
        t.wire_probes(i, &request, replies);
        t.naming_probe(i, &format!("isi/{NORTH}"));
    }

    let mut m = t.common_metrics(untraced_us);
    m.insert("core.fed.plan_us", t.median_of("core.fed.plan"));
    m.insert("core.fed.execute_us", t.median_of("core.fed.execute"));
    m.insert("core.fed.slowest_site_us", median(&slowest));
    m.insert("core.fed.sum_site_us", median(&sum));
    m.insert("core.fed.merge_self_us", median(&merge_self));
    m.insert(
        "core.fed.serial_over_parallel",
        t.median_of("core.fed.execute_serial") / m["core.fed.execute_us"].max(f64::MIN_POSITIVE),
    );
    m.insert(
        "core.fed.rows_shipped_per_op",
        rows_shipped as f64 / ops as f64,
    );
    m.insert(
        "core.fed.bytes_shipped_per_op",
        bytes_shipped as f64 / ops as f64,
    );
    m.insert("oostore.oql_us", median(&oql));
    Ok(t.finish(m))
}

/// `discover_churn`: D0, then the discovery engine, the co-database
/// servant and the in-memory co-database on the same (origin, topic).
fn trace_discover(bench: &Bench, ops: usize) -> Result<Traced, String> {
    let mut t = Tracer::new(bench, CHURN[0].0)?;
    let fed = &bench.dep.fed;
    let untraced_us = t.untraced_pass(ops);

    // Every find through the processor and then through an engine of
    // our own, which sees the same joins and leaves.
    let engine = DiscoveryEngine::new(fed.clone());
    let mut client = Client::new(bench, 0, 1);
    let (mut finds, mut remote, mut warm, mut round_trips, mut visited) = (0u64, 0u64, 0u64, 0, 0);
    for i in 0..ops as u32 {
        let (op, d0) = t.d0_step(&mut client, i);
        let Op::Find { slot } = op else { continue };
        let (origin, topic) = bench.oracle.pair(slot);
        let out = t
            .rec
            .record("core.discovery.find", i, Some(d0), || {
                engine.find(origin, topic)
            })
            .0;
        let Some(out) = t.tally(out) else { continue };
        finds += 1;
        round_trips += out.stats.total_round_trips();
        visited += out.stats.sites_visited as u64;
        // Warm: every remote visit cost its version probe and nothing
        // else.
        let probes = out.stats.sites_visited as u64 - 1;
        if probes > 0 {
            remote += 1;
            if out.stats.total_round_trips() == probes {
                warm += 1;
            }
        }
    }
    client.reset_membership();

    // Stand-alone spans; these clear caches, so they run last.
    let mut serial = DiscoveryEngine::new(fed.clone());
    serial.max_workers = 1;
    let parallel = DiscoveryEngine::new(fed.clone());
    let (mut cold_serial_depth2, mut cold_parallel_depth2) = (Vec::new(), Vec::new());
    let mut gen = OpGen::new(bench.workload, bench.seed, 0, 3);
    for i in 0..ops as u32 {
        let Op::Find { slot } = gen.next_op() else {
            continue;
        };
        let (origin, topic) = bench.oracle.pair(slot);
        let home = fed.site(origin).map_err(|e| e.to_string())?;
        t.rec.record("codb.find", i, None, || {
            let codb = home.codb.read();
            (codb.find_coalitions(topic), codb.find_links(topic).len())
        });
        let request = Value::string(topic.as_str());
        let reply = t
            .rec
            .record("codb.servant_rtt", i, None, || {
                fed.invoke(
                    &home.codb_ior,
                    "find_coalitions",
                    std::slice::from_ref(&request),
                )
            })
            .0;
        if let Some(reply) = t.tally(reply) {
            t.wire_probes(i, &request, vec![reply]);
        }
        t.naming_probe(i, &format!("codb/{origin}"));
        for (span, engine, depth2) in [
            (
                "core.discovery.cold_serial",
                &serial,
                &mut cold_serial_depth2,
            ),
            (
                "core.discovery.cold_parallel",
                &parallel,
                &mut cold_parallel_depth2,
            ),
        ] {
            fed.ior_cache().clear();
            engine.codb_cache().clear();
            let (out, id) = t.rec.record(span, i, None, || engine.find(origin, topic));
            if t.tally(out)
                .is_some_and(|o| o.stats.found_at_level == Some(2))
            {
                depth2.push(t.rec.spans[id as usize].duration_us());
            }
        }
    }

    let mut m = t.common_metrics(untraced_us);
    m.insert("core.discovery.find_us", t.median_of("core.discovery.find"));
    m.insert(
        "core.discovery.cold_serial_us",
        t.median_of("core.discovery.cold_serial"),
    );
    m.insert(
        "core.discovery.cold_parallel_us",
        t.median_of("core.discovery.cold_parallel"),
    );
    m.insert(
        "core.discovery.cold_serial_depth2_us",
        median(&cold_serial_depth2),
    );
    m.insert(
        "core.discovery.cold_parallel_depth2_us",
        median(&cold_parallel_depth2),
    );
    let finds = finds.max(1) as f64;
    m.insert(
        "core.discovery.round_trips_per_op",
        round_trips as f64 / finds,
    );
    m.insert(
        "core.discovery.sites_visited_per_op",
        visited as f64 / finds,
    );
    m.insert(
        "core.discovery.warm_hit_share",
        warm as f64 / remote.max(1) as f64,
    );
    m.insert("codb.find_us", t.median_of("codb.find"));
    m.insert("codb.servant_rtt_us", t.median_of("codb.servant_rtt"));
    Ok(t.finish(m))
}
