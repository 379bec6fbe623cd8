//! Percentiles and medians over latency samples.

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 20;

/// Nearest-rank percentile of an ascending slice (0 < p <= 100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly beyond the nearest-rank percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// True when `n` samples leave at least [`MIN_BEYOND`] beyond `p`.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs
}

/// Median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Quartiles (Q1, Q3) as Python's `statistics.quantiles(xs, n=4)`
/// computes them (the exclusive method); `None` below two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let s = sorted(xs.to_vec());
    let at = |q: f64| {
        let pos = q * (s.len() + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, s.len() - 1);
        let frac = pos - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    Some((at(0.25), at(0.75)))
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}
