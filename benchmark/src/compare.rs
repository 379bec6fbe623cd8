//! `--compare A.json B.json`: two result files of full runs, row by row
//! against the bounds `BENCHMARK.json` fixes.

use crate::json::{self, Json};
use crate::stats::{median, spread};

fn values(results: &Json, workload: &str, metric: &str) -> Vec<f64> {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .map(|v| v.as_arr().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn failed_share(results: &Json, workload: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get("failed_share")?
        .as_f64()
}

/// `ok`, `worse` (B's median is worse than A's by more than the bound)
/// or `unresolved` (a side's spread is wider than the bound).
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> &'static str {
    if a.is_empty() || b.is_empty() {
        return "missing";
    }
    if [a, b]
        .iter()
        .any(|side| spread(side).is_some_and(|s| s > bound))
    {
        return "unresolved";
    }
    let (a, b) = (median(a), median(b));
    let worse = if lower_is_better {
        b > a * (1.0 + bound)
    } else {
        b < a * (1.0 - bound)
    };
    if worse {
        "worse"
    } else {
        "ok"
    }
}

pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let spec = json::parse(crate::SPEC)?;
    println!("A = {path_a}\nB = {path_b}\nratio = B / A (base A); bound from BENCHMARK.json\n");
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "ratio", "bound"
    );
    let mut any_worse = false;
    for w in spec.get("workloads").map(Json::as_arr).unwrap_or(&[]) {
        let workload = w.get("name").and_then(Json::as_str).unwrap_or("");
        for m in spec.get("end_to_end").map(Json::as_arr).unwrap_or(&[]) {
            let metric = m.get("name").and_then(Json::as_str).unwrap_or("");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let (va, vb) = (values(&a, workload, metric), values(&b, workload, metric));
            let v = verdict(&va, &vb, lower, bound);
            any_worse |= v == "worse" || v == "missing";
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{workload:<16} {metric:<14} {ma:>14.3} {mb:>14.3} {:>8.3} {bound:>6.2}  {v}",
                mb / ma
            );
        }
        let (fa, fb) = (failed_share(&a, workload), failed_share(&b, workload));
        let v = match (fa, fb) {
            (Some(fa), Some(fb)) if fb <= fa => "ok",
            (Some(_), Some(_)) => "worse",
            _ => "missing",
        };
        any_worse |= v != "ok";
        println!(
            "{workload:<16} {:<14} {:>14.6} {:>14.6} {:>8} {:>6.2}  {v}",
            "failed_share",
            fa.unwrap_or(f64::NAN),
            fb.unwrap_or(f64::NAN),
            "-",
            0.0
        );
    }
    Ok(!any_worse)
}
