//! Set-up and the measured run: a closed loop of [`CLIENTS`] clients,
//! each with its own `Processor` and `BrowserSession`, tracing off.

use std::time::{Duration, Instant};

use webfindit::{BrowserSession, Processor};

use crate::deploy::{deploy, Deployment};
use crate::proc::{cpu_us, reset_rss_peak, rss_peak_mb};
use crate::stats::{median, percentile, sorted, supports};
use crate::workloads::{ledger_count_statement, Op, OpGen, Oracle, Workload, HOME_SITE};

/// A WebFINDIT user waits for each reply before typing the next
/// statement, so the loop is closed; two clients because the reference
/// sandbox has two cores.
pub const CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: u32 = 5;
/// The measured window is cut into this many slices and every timing
/// metric is the median of its per-slice values, so one disturbed
/// slice does not move the result.
pub const SLICES: usize = 6;
/// Warm-up before the measured window, as a share of it.
pub const WARMUP_SHARE: f64 = 1.0 / 6.0;

/// A deployed workload with its reference answers.
pub struct Bench {
    pub workload: Workload,
    pub seed: u64,
    pub oracle: Oracle,
    pub dep: Deployment,
}

pub fn setup(workload: Workload, seed: u64, instance: u32) -> Result<Bench, String> {
    let dep = deploy(workload, seed, instance)?;
    let oracle = Oracle::build(workload, seed, &dep.fed)?;
    Ok(Bench {
        workload,
        seed,
        oracle,
        dep,
    })
}

/// One user: a processor, a session and a seeded op stream.
pub struct Client<'a> {
    bench: &'a Bench,
    pub processor: Processor,
    pub session: BrowserSession,
    gen: OpGen,
    index: usize,
}

impl<'a> Client<'a> {
    pub fn new(bench: &'a Bench, index: usize, pass: u64) -> Client<'a> {
        Client {
            bench,
            processor: Processor::new(bench.dep.fed.clone()),
            session: BrowserSession::new(HOME_SITE),
            gen: OpGen::new(bench.workload, bench.seed, index, pass),
            index,
        }
    }

    pub fn next_op(&mut self) -> Op {
        self.gen.next_op()
    }

    /// Type `op` as this user would: when the statement was sent, how
    /// long the reply took, and whether it is the reference answer.
    pub fn submit(&mut self, op: &Op) -> (Instant, Duration, bool) {
        let oracle = &self.bench.oracle;
        let text = oracle.statement(op, self.index);
        self.session.site.clear();
        self.session.site.push_str(oracle.origin(op));
        let before = oracle.before(op);
        let started = Instant::now();
        let reply = self.processor.submit(&mut self.session, &text, None);
        let latency = started.elapsed();
        let ok = oracle.verify(op, self.index, &before, &reply);
        (started, latency, ok)
    }

    /// `discover_churn`: leave the churn site out, as a replay expects.
    pub fn reset_membership(&mut self) {
        if self.gen.joined() {
            let op = Op::Churn { join: false };
            self.submit(&op);
        }
    }

    /// `txn_mixed`: the table holds the preload plus every acknowledged
    /// insert.
    pub fn ledger_count_ok(&mut self) -> bool {
        let reply = self
            .processor
            .submit(&mut self.session, &ledger_count_statement(), None);
        self.bench.oracle.ledger_count_ok(&reply)
    }
}

/// One completed op: when it finished (from the window's start; before
/// it for warm-up ops), how long it took, whether the reply was right.
struct Sample {
    done: f64,
    latency_us: f64,
    ok: bool,
}

/// What one run with tracing off measured.
pub struct EndToEnd {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub lat_p50_us: f64,
    pub lat_p95_us: f64,
    pub cpu_us_per_op: f64,
    pub rss_peak_mb: f64,
    /// Correct replies inside the measured window.
    pub samples: usize,
    /// Every statement submitted, warm-up included.
    pub attempted: u64,
    pub failed: u64,
    pub raced_finds: u64,
    /// p50 and p95 over the whole window, beside the slice medians.
    pub whole_p50_us: f64,
    pub whole_p95_us: f64,
}

impl EndToEnd {
    /// The metric values, in the order of `END_TO_END`.
    pub fn end_to_end(&self) -> [f64; 6] {
        [
            self.ops_per_s,
            self.lat_p50_us,
            self.lat_p95_us,
            self.cpu_us_per_op,
            self.rss_peak_mb,
            self.setup_s,
        ]
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

pub fn measure(workload: Workload, seed: u64, seconds: f64) -> Result<EndToEnd, String> {
    let mut setups = Vec::new();
    let mut bench = None;
    for instance in 0..SETUP_REPEATS {
        drop(bench.take());
        let started = Instant::now();
        bench = Some(setup(workload, seed, instance)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let bench = bench.expect("at least one set-up");

    let start = Instant::now();
    let window_start = start + Duration::from_secs_f64(seconds * WARMUP_SHARE);
    let window_end = window_start + Duration::from_secs_f64(seconds);
    let slice_s = seconds / SLICES as f64;

    let mut cpu_marks = Vec::with_capacity(SLICES + 1);
    // Peak resident set up to each mark since the one before: first the
    // set-ups and the warm-up, then one peak per slice.
    let mut rss_peaks = Vec::with_capacity(SLICES + 1);
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|index| {
                let bench = &bench;
                scope.spawn(move || {
                    let mut client = Client::new(bench, index, 0);
                    let mut samples = Vec::new();
                    while Instant::now() < window_end {
                        let op = client.next_op();
                        let (_, latency, ok) = client.submit(&op);
                        let done = Instant::now();
                        samples.push(Sample {
                            done: if done >= window_start {
                                (done - window_start).as_secs_f64()
                            } else {
                                -1.0
                            },
                            latency_us: latency.as_secs_f64() * 1e6,
                            ok,
                        });
                    }
                    samples
                })
            })
            .collect();
        for i in 0..=SLICES {
            sleep_until(window_start + Duration::from_secs_f64(slice_s * i as f64));
            cpu_marks.push(cpu_us());
            rss_peaks.push(rss_peak_mb());
            reset_rss_peak();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let mut attempted = per_client.iter().map(Vec::len).sum::<usize>() as u64;
    let mut failed = per_client.iter().flatten().filter(|s| !s.ok).count() as u64;
    if workload == Workload::TxnMixed {
        attempted += 1;
        if !Client::new(&bench, 0, 0).ledger_count_ok() {
            failed += 1;
        }
    }

    let mut by_slice: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
    for s in per_client
        .iter()
        .flatten()
        .filter(|s| s.ok && s.done >= 0.0)
    {
        let slice = (s.done / slice_s) as usize;
        if slice < SLICES {
            by_slice[slice].push(s.latency_us);
        }
    }
    let samples: usize = by_slice.iter().map(Vec::len).sum();
    if samples == 0 {
        return Err(format!(
            "{}: no correct reply in the window",
            workload.name()
        ));
    }
    if !supports(samples, 95.0) {
        println!("warning: {samples} samples are too few to carry a p95");
    }
    let by_slice: Vec<Vec<f64>> = by_slice.into_iter().map(sorted).collect();
    let per_slice = |f: &dyn Fn(usize, &[f64]) -> f64| -> f64 {
        let values: Vec<f64> = by_slice.iter().enumerate().map(|(i, s)| f(i, s)).collect();
        median(&values)
    };
    let whole = sorted(by_slice.iter().flatten().copied().collect());

    Ok(EndToEnd {
        setup_s: median(&setups),
        ops_per_s: per_slice(&|_, s| s.len() as f64 / slice_s),
        lat_p50_us: per_slice(&|_, s| percentile(s, 50.0)),
        lat_p95_us: per_slice(&|_, s| percentile(s, 95.0)),
        cpu_us_per_op: per_slice(&|i, s| (cpu_marks[i + 1] - cpu_marks[i]) / s.len().max(1) as f64),
        rss_peak_mb: rss_peaks[0].max(median(&rss_peaks[1..])),
        samples,
        attempted,
        failed,
        raced_finds: bench
            .oracle
            .raced_finds
            .load(std::sync::atomic::Ordering::Relaxed),
        whole_p50_us: percentile(&whole, 50.0),
        whole_p95_us: percentile(&whole, 95.0),
    })
}
