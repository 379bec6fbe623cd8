//! E12 — invoke latency and memory under concurrent in-flight load on
//! the ORB's event-loop reactor.
//!
//! Starts one in-process ORB with an `EchoServant`, then drives it
//! from a raw pipelined GIOP client: ~64 connections,
//! each keeping a fixed window of requests outstanding so the server
//! sees 1 000 / 10 000 / 100 000 requests in flight at once (200 /
//! 1 000 under `--quick`). The client speaks the wire protocol
//! directly — `Orb::call` is synchronous, and the whole point is to
//! hold more requests in flight than anyone would hold threads.
//!
//! Per level the run records invoke p50/p99 and the process peak RSS
//! sampled while the window is open. A level whose child process dies
//! or whose connections fail is recorded honestly as
//! `completed: false` rather than dropped. Results go to
//! `BENCH_invoke.json`; EXPERIMENTS.md records them as E12.
//!
//! Acceptance (full run): every level completes without errors and
//! p99 does not decrease as the window grows.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use webfindit_bench::{header, percentile};
use webfindit_orb::servant::{echo, EchoServant};
use webfindit_orb::{Operation, Orb, OrbConfig, OrbDomain};
use webfindit_wire::cdr::ByteOrder;
use webfindit_wire::giop::{self, GiopMessage};
use webfindit_wire::transport::FramedTcp;
use webfindit_wire::value::Value;

/// Resident set size of this process in KiB (`VmRSS` from
/// `/proc/self/status`); 0 where procfs is unavailable.
fn rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

/// What one level's run produced.
struct LevelOutcome {
    inflight: usize,
    requests: usize,
    completed: bool,
    errors: u64,
    p50_us: f64,
    p99_us: f64,
    rss_peak_kb: u64,
}

/// Drive `total` echo requests at `inflight` concurrent over `conns`
/// pipelined connections against `addr`, returning latency percentiles
/// and the peak RSS observed while the window was open.
fn run_level(
    addr: SocketAddr,
    object_key: &[u8],
    order: ByteOrder,
    conns: usize,
    inflight: usize,
    total: usize,
) -> LevelOutcome {
    let errors = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::with_capacity(conns);
    for c in 0..conns {
        // Spread the window and the request budget across connections.
        let window = inflight / conns + usize::from(c < inflight % conns);
        let share = total / conns + usize::from(c < total % conns);
        if window == 0 || share == 0 {
            continue;
        }
        let errors = Arc::clone(&errors);
        let key = object_key.to_vec();
        handles.push(std::thread::spawn(move || {
            conn_worker(addr, &key, order, window.min(share), share, &errors)
        }));
    }

    // Sample RSS while the workers hold the window open.
    let mut rss_peak = rss_kb();
    let mut latencies: Vec<f64> = Vec::with_capacity(total);
    let mut done = Vec::with_capacity(handles.len());
    for h in handles {
        // Poll until this worker finishes, keeping the RSS peak fresh.
        let mut h = Some(h);
        while let Some(inner) = h.take() {
            if inner.is_finished() {
                done.push(inner.join());
                break;
            }
            rss_peak = rss_peak.max(rss_kb());
            std::thread::sleep(Duration::from_millis(20));
            h = Some(inner);
        }
    }
    for res in done {
        match res {
            Ok(mut ls) => latencies.append(&mut ls),
            Err(_) => {
                errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    rss_peak = rss_peak.max(rss_kb());

    let errors = errors.load(Ordering::Relaxed);
    let completed = errors == 0 && latencies.len() == total;
    LevelOutcome {
        inflight,
        requests: total,
        completed,
        errors,
        p50_us: percentile(&latencies, 50.0),
        p99_us: percentile(&latencies, 99.0),
        rss_peak_kb: rss_peak,
    }
}

/// One pipelined connection: keep `window` requests outstanding until
/// `share` requests have completed; return per-request latencies (µs).
fn conn_worker(
    addr: SocketAddr,
    object_key: &[u8],
    order: ByteOrder,
    window: usize,
    share: usize,
    errors: &AtomicU64,
) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(share);
    let stream = match std::net::TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => {
            errors.fetch_add(1, Ordering::Relaxed);
            return latencies;
        }
    };
    let _ = stream.set_nodelay(true);
    let mut framed = FramedTcp::new(stream);
    // Hang-guard: a wedged server core turns into a visible error.
    let _ = framed.set_read_timeout(Some(Duration::from_secs(60)));

    let mut sent = 0usize;
    let mut in_flight: HashMap<u32, Instant> = HashMap::with_capacity(window);
    let send_next =
        |framed: &mut FramedTcp, in_flight: &mut HashMap<u32, Instant>, sent: &mut usize| -> bool {
            let id = *sent as u32 + 1;
            let msg = giop::request(
                id,
                object_key.to_vec(),
                echo::Echo::NAME,
                vec![Value::Long(id as i32)],
            );
            let frame = match msg.encode(order) {
                Ok(f) => f,
                Err(_) => return false,
            };
            in_flight.insert(id, Instant::now());
            if framed.send_frame(&frame).is_err() {
                return false;
            }
            *sent += 1;
            true
        };

    for _ in 0..window.min(share) {
        if !send_next(&mut framed, &mut in_flight, &mut sent) {
            errors.fetch_add(1, Ordering::Relaxed);
            return latencies;
        }
    }
    while latencies.len() < share {
        let frame = match framed.recv_frame() {
            Ok(f) => f,
            Err(_) => {
                errors.fetch_add(1, Ordering::Relaxed);
                return latencies;
            }
        };
        match GiopMessage::decode_frame(frame) {
            Ok(GiopMessage::Reply { request_id, .. }) => {
                if let Some(t0) = in_flight.remove(&request_id) {
                    latencies.push(t0.elapsed().as_secs_f64() * 1e6);
                }
                if sent < share && !send_next(&mut framed, &mut in_flight, &mut sent) {
                    errors.fetch_add(1, Ordering::Relaxed);
                    return latencies;
                }
            }
            Ok(GiopMessage::CloseConnection) | Err(_) => {
                errors.fetch_add(1, Ordering::Relaxed);
                return latencies;
            }
            Ok(_) => {} // other message kinds are not expected mid-run
        }
    }
    framed.shutdown();
    latencies
}

/// Format one result row as the JSON object recorded in
/// `BENCH_invoke.json`.
fn row_json(out: &LevelOutcome) -> String {
    format!(
        "{{\"inflight\": {}, \"requests\": {}, \
         \"completed\": {}, \"errors\": {}, \"p50_us\": {:.1}, \
         \"p99_us\": {:.1}, \"rss_peak_kb\": {}}}",
        out.inflight,
        out.requests,
        out.completed,
        out.errors,
        out.p50_us,
        out.p99_us,
        out.rss_peak_kb
    )
}

/// Child mode: start an ORB, run exactly one level's measurement,
/// print its row JSON on the last stdout line, exit.
///
/// Each level runs in its own child process so that a process killed
/// at an extreme window (out of memory, out of fds) costs one row: the
/// parent records the dead child as `completed: false` instead of
/// losing the whole benchmark with it.
fn run_one(conns: usize, inflight: usize, total: usize) {
    let domain = OrbDomain::new();
    let server = Orb::start(
        OrbConfig::new("E12", "bench.e12.net", 1, ByteOrder::BigEndian),
        Arc::clone(&domain),
    )
    .expect("start server ORB");
    let ior = server.activate("echo", Arc::new(EchoServant));
    let profile = ior.iiop_profile().expect("IIOP profile");
    let addr = domain
        .resolve(&profile.host, profile.port)
        .expect("server endpoint");

    let out = run_level(
        addr,
        &profile.object_key,
        ByteOrder::BigEndian,
        conns,
        inflight,
        total,
    );
    server.shutdown();
    println!("{}", row_json(&out));
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--one") {
        // exp12_invoke_load --one <conns> <inflight> <total>
        let conns: usize = args[i + 1].parse().expect("conns");
        let inflight: usize = args[i + 2].parse().expect("inflight");
        let total: usize = args[i + 3].parse().expect("total");
        run_one(conns, inflight, total);
        return;
    }

    let quick = args.iter().any(|a| a == "--quick");
    let conns = if quick { 16 } else { 64 };
    let levels: &[usize] = if quick {
        &[200, 1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };

    header("E12", "invoke latency under concurrent in-flight load");
    println!("connections: {conns}, levels: {levels:?}\n");
    println!(
        "{:>9} | {:>10} {:>10} | {:>9} | ok",
        "in-flight", "p50 us", "p99 us", "rss MB"
    );

    let exe = std::env::current_exe().expect("current exe");
    let mut rows = Vec::new();
    for &inflight in levels {
        // Turn the window over a few times so steady-state
        // latencies dominate the ramp-up.
        let total = inflight * if quick { 2 } else { 3 };
        let child = std::process::Command::new(&exe)
            .args([
                "--one",
                &conns.to_string(),
                &inflight.to_string(),
                &total.to_string(),
            ])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .output();
        // The row is the child's last stdout line; a child that
        // crashed (or printed nothing) becomes an honest failure
        // row rather than a missing one.
        let row = child
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| {
                let stdout = String::from_utf8_lossy(&o.stdout).into_owned();
                stdout.lines().last().map(str::to_owned)
            })
            .filter(|line| line.starts_with('{'));
        let (row, out) = match row {
            Some(r) => {
                let out = parse_row(&r);
                (r, out)
            }
            None => {
                let out = LevelOutcome {
                    inflight,
                    requests: total,
                    completed: false,
                    errors: total as u64,
                    p50_us: 0.0,
                    p99_us: 0.0,
                    rss_peak_kb: 0,
                };
                (row_json(&out), out)
            }
        };
        println!(
            "{:>9} | {:>10.1} {:>10.1} | {:>9.1} | {}",
            out.inflight,
            out.p50_us,
            out.p99_us,
            out.rss_peak_kb as f64 / 1024.0,
            out.completed
        );
        rows.push(format!("    {row}"));
    }

    let json = format!(
        "{{\n  \"experiment\": \"E12\",\n  \"quick\": {quick},\n  \
         \"connections\": {conns},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write("BENCH_invoke.json", &json).expect("write BENCH_invoke.json");
    println!("\nwrote BENCH_invoke.json ({} rows)", rows.len());
}

/// Pull the display fields back out of a child's row JSON. Flat
/// well-known keys written by `row_json`, so naive scanning is fine.
fn parse_row(row: &str) -> LevelOutcome {
    fn field(row: &str, key: &str) -> String {
        row.split(&format!("\"{key}\": "))
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .unwrap_or("0")
            .trim()
            .to_string()
    }
    LevelOutcome {
        inflight: field(row, "inflight").parse().unwrap_or(0),
        requests: field(row, "requests").parse().unwrap_or(0),
        completed: field(row, "completed") == "true",
        errors: field(row, "errors").parse().unwrap_or(0),
        p50_us: field(row, "p50_us").parse().unwrap_or(0.0),
        p99_us: field(row, "p99_us").parse().unwrap_or(0.0),
        rss_peak_kb: field(row, "rss_peak_kb").parse().unwrap_or(0),
    }
}
