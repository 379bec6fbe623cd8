//! The WebFINDIT-RS benchmark. See `benchmark/README.md`.
//!
//! `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//! this process and prints one JSON result line last. Without `--trace`
//! every workload runs in child processes of its own (one with tracing
//! off per `--runs`, one traced), and the results are tabulated and
//! written to `target/benchmark/results-<seed>.json`.

mod compare;
mod deploy;
mod json;
mod proc;
mod run;
mod selftest;
mod span;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use json::Json;
use workloads::Workload;

/// The contract this binary is written to, embedded so `--self-test` and
/// `--compare` read the same names and bounds wherever they run.
pub const SPEC: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every end-to-end metric, as `BENCHMARK.json` lists
/// them. `failed_share` is the result line's `failed` / `attempted`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p95_us", "us"),
    ("cpu_us_per_op", "us"),
    ("rss_peak_mb", "MB"),
    ("setup_s", "s"),
];

pub const DEFAULT_SEED: u64 = 1999;
pub const DEFAULT_SECONDS: f64 = 12.0;
/// Ops the traced run replays per second of `--seconds`: 300 at the
/// default, 25 under `--smoke`.
const TRACED_OPS_PER_SECOND: f64 = 25.0;

const USAGE: &str = "usage: webfindit-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--runs N] [--smoke] [--trace 0|1] | --self-test | --compare A.json B.json";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    /// Unset: the default, or 1 under `--smoke`.
    seconds: Option<f64>,
    trace: Option<bool>,
    runs: u32,
    smoke: bool,
    self_test: bool,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        runs: 1,
        smoke: false,
        self_test: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--smoke" => args.smoke = true,
            "--self-test" => args.self_test = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn result_line(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, unit, value)| {
                (
                    *name,
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })),
        ),
    ])
    .render()
}

/// One workload, tracing off, in this process.
fn run_measured(workload: Workload, seed: u64, seconds: f64) -> Result<bool, String> {
    let r = run::measure(workload, seed, seconds)?;
    println!(
        "{}: seed {seed}, {} closed-loop clients, {seconds} s window in {} slices, {} samples \
         ({} beyond p95), whole-window p50 {:.1} us p95 {:.1} us, failed_share {}",
        workload.name(),
        run::CLIENTS,
        run::SLICES,
        r.samples,
        stats::samples_beyond(r.samples, 95.0),
        r.whole_p50_us,
        r.whole_p95_us,
        r.failed as f64 / r.attempted as f64,
    );
    if workload == Workload::DiscoverChurn {
        println!(
            "finds that overlapped a churn, checked against the set of membership states: {}",
            r.raced_finds
        );
    }
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(r.end_to_end())
        .map(|((name, unit), value)| (*name, *unit, value))
        .collect();
    for (name, unit, value) in &metrics {
        println!("  {name:<16} {value:>14.3} {unit}");
    }
    println!("{}", result_line(r.attempted, r.failed, &metrics));
    Ok(r.failed == 0)
}

/// One workload's traced run, in this process.
fn run_traced(workload: Workload, seed: u64, seconds: f64) -> Result<bool, String> {
    let ops = ((TRACED_OPS_PER_SECOND * seconds).round() as usize).max(1);
    let t = trace::trace(workload, seed, ops)?;
    let dir = deploy::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", workload.name()));
    std::fs::write(&path, t.recorder.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;

    let m = &t.metrics;
    println!(
        "{}: seed {seed}, traced run of {ops} ops, 1 client, {} spans in {}",
        workload.name(),
        t.recorder.spans.len(),
        path.display()
    );
    let (d0, untraced) = (m["depth.d0_us"], m["depth.d0_untraced_us"]);
    println!(
        "D0 median {d0:.1} us traced, {untraced:.1} us untraced (1 client): tracing costs {:+.1} %",
        (d0 / untraced - 1.0) * 100.0
    );
    if workload.sql_site().is_some() {
        println!(
            "D3 + (D2-D3) + (D1-D2) + (D0-D1) = {:.1} + {:.1} + {:.1} + {:.1} = {:.1} us beside D0 {d0:.1} us",
            m["relstore.exec_us"],
            m["connect.self_us"],
            m["orb.isi_self_us"],
            m["core.stmt_self_us"],
            m["depth.self_sum_us"],
        );
    }
    let metrics: Vec<(&str, &str, f64)> = trace::PER_LAYER
        .iter()
        .map(|(name, unit)| (*name, *unit, m[name]))
        .collect();
    for (name, unit, value) in &metrics {
        if trace::applies(workload, name) {
            println!("  {name:<36} {value:>14.3} {unit}");
        }
    }
    println!("{}", result_line(t.attempted, t.failed, &metrics));
    Ok(t.failed == 0)
}

/// What a child process reported, or why it did not.
struct ChildReport {
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
    error: Option<String>,
}

impl ChildReport {
    fn failure(error: String) -> ChildReport {
        ChildReport {
            attempted: 1.0,
            failed: 1.0,
            metrics: BTreeMap::new(),
            error: Some(error),
        }
    }
}

/// Run one workload in a process of its own, under a hard wall-clock
/// timeout. A crash or timeout is a report with every op failed.
fn child(workload: Workload, seed: u64, seconds: f64, traced: bool) -> ChildReport {
    let spawn = || -> Result<(std::process::Child, std::thread::JoinHandle<String>), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| e.to_string())?;
        let mut stdout = child.stdout.take().expect("piped stdout");
        let reader = std::thread::spawn(move || {
            let mut out = String::new();
            let _ = stdout.read_to_string(&mut out);
            out
        });
        Ok((child, reader))
    };
    let (mut child, reader) = match spawn() {
        Ok(pair) => pair,
        Err(e) => return ChildReport::failure(e),
    };
    let deadline = Instant::now() + Duration::from_secs_f64(60.0 + 6.0 * seconds);
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err("timed out".to_string());
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => break Err(e.to_string()),
        }
    };
    let out = reader.join().unwrap_or_default();
    // A killed child cannot clean up after itself.
    let _ = std::fs::remove_dir_all(deploy::out_dir().join("data").join(child.id().to_string()));
    let line = out.lines().last().unwrap_or("");
    let parsed = json::parse(line)
        .ok()
        .filter(|j| j.get("metrics").is_some());
    match (status, parsed) {
        (Err(e), _) => ChildReport::failure(e),
        (Ok(status), None) => ChildReport::failure(format!("{status}, no result line")),
        (Ok(_), Some(j)) => ChildReport {
            attempted: j.get("attempted").and_then(Json::as_f64).unwrap_or(1.0),
            failed: j.get("failed").and_then(Json::as_f64).unwrap_or(1.0),
            metrics: j
                .get("metrics")
                .map(Json::as_obj)
                .unwrap_or(&[])
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect(),
            error: None,
        },
    }
}

/// Every workload, each in processes of its own: `runs` measured runs on
/// seeds `seed..seed+runs`, then one traced run on `seed`.
fn full_run(args: &Args) -> Result<bool, String> {
    let seed = args.seed;
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 1.0 } else { DEFAULT_SECONDS });
    let runs = args.runs.max(1);
    if args.smoke {
        println!("*** SMOKE RUN: {seconds} s windows check the wiring; the numbers are not comparable ***");
    }
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);

    let mut measured: BTreeMap<&str, Vec<ChildReport>> = BTreeMap::new();
    for run in 0..runs {
        for w in &workloads {
            eprintln!("measuring {} (run {} of {runs})", w.name(), run + 1);
            let report = child(*w, seed + run as u64, seconds, false);
            measured.entry(w.name()).or_default().push(report);
        }
    }
    let mut all_ok = true;
    let mut rows = Vec::new();
    for w in &workloads {
        eprintln!("tracing {}", w.name());
        let traced = child(*w, seed, seconds, true);
        let reports = &measured[w.name()];
        let attempted: f64 = reports.iter().map(|r| r.attempted).sum::<f64>() + traced.attempted;
        let failed: f64 = reports.iter().map(|r| r.failed).sum::<f64>() + traced.failed;
        all_ok &= failed == 0.0;

        println!("\n== {} ==", w.name());
        for r in reports.iter().chain([&traced]) {
            if let Some(e) = &r.error {
                println!("  child process failed: {e}");
            }
        }
        println!(
            "  {:<36} {:>14.6} share",
            "failed_share",
            failed / attempted
        );
        let mut end_to_end = Vec::new();
        for (name, unit) in END_TO_END {
            let values: Vec<f64> = reports
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            let spread =
                stats::spread(&values).map_or(String::new(), |s| format!("  (spread {s:.3})"));
            println!(
                "  {name:<36} {:>14.3} {unit}{spread}",
                stats::median(&values)
            );
            end_to_end.push((name, Json::Arr(values.into_iter().map(Json::Num).collect())));
        }
        let mut per_layer = Vec::new();
        for (name, unit) in trace::PER_LAYER {
            if let Some(v) = traced
                .metrics
                .get(name)
                .filter(|_| trace::applies(*w, name))
            {
                println!("  {name:<36} {v:>14.3} {unit}");
                per_layer.push((name, Json::Num(*v)));
            }
        }
        rows.push((
            w.name(),
            Json::obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("failed_share", Json::Num(failed / attempted)),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", Json::obj(per_layer)),
            ]),
        ));
    }

    let results = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("runs", Json::Num(runs as f64)),
        ("smoke", Json::Bool(args.smoke)),
        ("workloads", Json::obj(rows)),
    ]);
    let dir = deploy::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("results-{seed}.json"));
    std::fs::write(&path, results.render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(all_ok)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if args.self_test {
        return selftest::run();
    }
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    let Some(traced) = args.trace else {
        return full_run(&args);
    };
    let workload = args.workload.ok_or("--trace needs --workload")?;
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let ok = if traced {
        run_traced(workload, args.seed, seconds)
    } else {
        run_measured(workload, args.seed, seconds)
    };
    deploy::remove_pid_dir();
    ok
}

fn main() {
    std::process::exit(match real_main() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    });
}
