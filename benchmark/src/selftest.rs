//! `--self-test`: the harness's own arithmetic and its agreement with
//! `BENCHMARK.json`. Seconds, no federation.

use crate::json::{self, Json};
use crate::span::{self_times_us, Span};
use crate::stats::{median, percentile, quartiles, samples_beyond, supports};
use crate::workloads::{op_digest, Workload};

/// Every source file of the benchmark, for the forbidden-API check.
const SOURCES: [(&str, &str); 11] = [
    ("compare.rs", include_str!("compare.rs")),
    ("deploy.rs", include_str!("deploy.rs")),
    ("json.rs", include_str!("json.rs")),
    ("main.rs", include_str!("main.rs")),
    ("proc.rs", include_str!("proc.rs")),
    ("run.rs", include_str!("run.rs")),
    ("selftest.rs", include_str!("selftest.rs")),
    ("span.rs", include_str!("span.rs")),
    ("stats.rs", include_str!("stats.rs")),
    ("trace.rs", include_str!("trace.rs")),
    ("workloads.rs", include_str!("workloads.rs")),
];

/// Names ROADMAP schedules for deletion or reshaping; later changes may
/// not edit this benchmark, so it must not depend on them. Spelled in
/// halves so this list does not find itself.
const FORBIDDEN: [&str; 11] = [
    concat!("Server", "Core"),
    concat!("WEBFINDIT_", "SERVER_CORE"),
    concat!("Orb", "Metrics"),
    concat!("Metrics", "Snapshot"),
    concat!(".metr", "ics()"),
    concat!("metrics", "_arc"),
    concat!("_ev", "ent("),
    concat!("query_", "naive"),
    concat!("base", "lines"),
    concat!("webfindit_", "bench::"),
    concat!("use webfindit_", "bench"),
];

struct Checks {
    failed: u32,
}

impl Checks {
    fn check(&mut self, what: &str, ok: bool) {
        println!("{} {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            self.failed += 1;
        }
    }
}

pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn spec_pairs(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .map(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

pub fn run() -> Result<bool, String> {
    let mut c = Checks { failed: 0 };

    // Percentiles, against vectors worked by hand.
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    c.check("p50 of 1..=100 is 50", percentile(&hundred, 50.0) == 50.0);
    c.check("p95 of 1..=100 is 95", percentile(&hundred, 95.0) == 95.0);
    c.check(
        "p100 of 1..=100 is 100",
        percentile(&hundred, 100.0) == 100.0,
    );
    c.check(
        "p95 of one sample is that sample",
        percentile(&[7.0], 95.0) == 7.0,
    );
    c.check("p50 of nothing is 0", percentile(&[], 50.0) == 0.0);
    c.check(
        "400 samples leave 20 beyond p95",
        samples_beyond(400, 95.0) == 20,
    );
    c.check("400 samples carry a p95", supports(400, 95.0));
    c.check("399 samples do not carry a p95", !supports(399, 95.0));
    c.check("40 samples carry a p50", supports(40, 50.0));
    c.check(
        "median of 4, 1, 3, 2 is 2.5",
        median(&[4.0, 1.0, 3.0, 2.0]) == 2.5,
    );
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    c.check(
        "quartiles of 1..=10 are 2.75 and 8.25, as Python's statistics.quantiles",
        quartiles(&ten) == Some((2.75, 8.25)),
    );

    // Span self time on a hand-built tree: a root of 100 us with children
    // of 30 and 50 us, the second with a child of 20 us.
    let span = |parent, start_us: u64, end_us: u64| Span {
        name: "s",
        op: 0,
        parent,
        start_ns: start_us * 1000,
        end_ns: end_us * 1000,
    };
    let tree = [
        span(None, 0, 100),
        span(Some(0), 10, 40),
        span(Some(0), 40, 90),
        span(Some(2), 50, 70),
    ];
    c.check(
        "span self times are 20, 30, 30 and 20 us",
        self_times_us(&tree) == [20.0, 30.0, 30.0, 20.0],
    );

    // The generator: the same seed gives the same ops, another seed others.
    for w in Workload::ALL {
        c.check(
            &format!("{}: same seed, same op digest", w.name()),
            op_digest(w, 7, 1000) == op_digest(w, 7, 1000),
        );
        if w != Workload::JoinAgg {
            c.check(
                &format!("{}: other seed, other op digest", w.name()),
                op_digest(w, 7, 1000) != op_digest(w, 8, 1000),
            );
        }
    }

    // Names, and agreement with BENCHMARK.json in both directions.
    let spec = json::parse(crate::SPEC)?;
    for (name, _) in crate::END_TO_END.iter().chain(&crate::trace::PER_LAYER) {
        c.check(
            &format!("metric name {name} is well formed"),
            valid_name(name),
        );
    }
    c.check("a name with a space is refused", !valid_name("lat p50"));
    c.check(
        "end-to-end metrics and units match BENCHMARK.json",
        spec_pairs(&spec, "end_to_end") == owned(&crate::END_TO_END),
    );
    c.check(
        "per-layer metrics and units match BENCHMARK.json",
        spec_pairs(&spec, "per_layer") == owned(&crate::trace::PER_LAYER),
    );
    let spec_workloads: Vec<String> = spec_pairs(&spec, "workloads")
        .into_iter()
        .map(|p| p.0)
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    c.check("workloads match BENCHMARK.json", spec_workloads == ours);
    c.check(
        "run_seconds in BENCHMARK.json is this binary's default",
        spec.get("run_seconds").and_then(Json::as_f64) == Some(crate::DEFAULT_SECONDS),
    );
    c.check(
        "every end-to-end metric has a bound of at most 0.25",
        spec.get("end_to_end")
            .map(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .all(|m| {
                m.get("bound")
                    .and_then(Json::as_f64)
                    .is_some_and(|b| b > 0.0 && b <= 0.25)
            }),
    );

    // The stable API surface.
    let main = SOURCES
        .iter()
        .find(|(f, _)| *f == "main.rs")
        .map_or("", |s| s.1);
    let modules = main
        .lines()
        .filter(|l| l.starts_with("mod ") && l.ends_with(';'))
        .count();
    c.check(
        "every module of the benchmark is searched",
        modules + 1 == SOURCES.len(),
    );
    for needle in FORBIDDEN {
        let hits: Vec<&str> = SOURCES
            .iter()
            .filter(|(_, text)| text.contains(needle))
            .map(|(file, _)| *file)
            .collect();
        c.check(
            &format!("no source names {needle} {hits:?}"),
            hits.is_empty(),
        );
    }

    println!(
        "{}",
        if c.failed == 0 {
            "self-test passed"
        } else {
            "self-test FAILED"
        }
    );
    Ok(c.failed == 0)
}
