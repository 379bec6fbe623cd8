//! The bounded fan-out pool behind discovery waves and federated ship
//! waves.
//!
//! A wave is a slice of independent items (co-database sites to probe,
//! subqueries to ship), each costing a few remote round-trips.
//! [`run_ordered`] runs them on a bounded set of scoped threads and
//! hands the results back **in item order**, so a caller that merges
//! them sequentially produces the same outcome whatever the worker
//! count — `max_workers = 1` is the serial reference the parallel runs
//! are compared against.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Apply `f` to every item on up to `max_workers` threads and return
/// the results in item order, then re-run — once, serially, on the
/// calling thread — every item whose result `retry_if` flags.
///
/// The retry pass exists for circuit breakers: a half-open breaker
/// admits exactly one call, so wave-mates targeting the same recovering
/// endpoint can be rejected while the admitted call goes on to close
/// the breaker — a race a serial traversal never loses. Re-running the
/// rejected items after the wave settles lets a breaker the wave healed
/// admit them; one that is still open rejects again instantly, without
/// touching the wire.
///
/// A panic in `f` propagates to the caller.
pub(crate) fn run_ordered<I: Sync, R: Send>(
    items: &[I],
    max_workers: usize,
    f: impl Fn(&I) -> R + Sync,
    retry_if: impl Fn(&R) -> bool,
) -> Vec<R> {
    let workers = max_workers.min(items.len());
    let mut results: Vec<R> = if workers <= 1 {
        items.iter().map(&f).collect()
    } else {
        let next = AtomicUsize::new(0);
        let run = || {
            let mut mine = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                mine.push((i, f(item)));
            }
            mine
        };
        let mut done = std::thread::scope(|scope| {
            // The dispatching thread doubles as a worker, so a wave of
            // width N costs N - 1 spawns, not N — warm-cache probes are
            // cheap enough that the spawn itself would otherwise show
            // up in the wave latency.
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(run)).collect();
            let mut done = run();
            for handle in handles {
                done.extend(handle.join().expect("wave worker panicked"));
            }
            done
        });
        done.sort_unstable_by_key(|(i, _)| *i);
        done.into_iter().map(|(_, r)| r).collect()
    };
    for (item, result) in items.iter().zip(&mut results) {
        if retry_if(result) {
            *result = f(item);
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::thread::ThreadId;
    use std::time::Duration;

    fn never<R>(_: &R) -> bool {
        false
    }

    #[test]
    fn results_come_back_in_item_order_when_completion_order_is_reversed() {
        let items: Vec<u64> = (0..6).collect();
        let finished = Mutex::new(Vec::new());
        let out = run_ordered(
            &items,
            items.len(),
            |&i| {
                // Item 0 sleeps longest, so it completes last.
                std::thread::sleep(Duration::from_millis((6 - i) * 25));
                finished.lock().unwrap().push(i);
                i * 10
            },
            never,
        );
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
        assert_eq!(*finished.lock().unwrap(), vec![5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn every_item_runs_exactly_once_and_in_flight_calls_stay_bounded() {
        for (max_workers, len) in [(3usize, 20usize), (8, 4), (2, 2)] {
            let items: Vec<usize> = (0..len).collect();
            let calls: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            let in_flight = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            run_ordered(
                &items,
                max_workers,
                |&i| {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(3));
                    calls[i].fetch_add(1, Ordering::SeqCst);
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                },
                never,
            );
            assert!(calls.iter().all(|c| c.load(Ordering::SeqCst) == 1));
            let bound = max_workers.min(len);
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak <= bound, "{peak} calls in flight, bound {bound}");
        }
    }

    #[test]
    fn flagged_results_rerun_once_on_the_caller_after_the_workers_joined() {
        let items: Vec<usize> = (0..8).collect();
        let caller = std::thread::current().id();
        let first_pass_done = AtomicUsize::new(0);
        // (item, thread, first-pass completions seen at call start)
        let log: Mutex<Vec<(usize, ThreadId, usize)>> = Mutex::new(Vec::new());
        let out = run_ordered(
            &items,
            4,
            |&i| {
                let seen = first_pass_done.load(Ordering::SeqCst);
                let mut log = log.lock().unwrap();
                let attempt = log.iter().filter(|(item, ..)| *item == i).count();
                log.push((i, std::thread::current().id(), seen));
                drop(log);
                if attempt == 0 {
                    std::thread::sleep(Duration::from_millis(5));
                    first_pass_done.fetch_add(1, Ordering::SeqCst);
                }
                (i, attempt)
            },
            // Flag odd items — on both attempts, so a second retry pass
            // would show up as a third call.
            |&(i, _)| i % 2 == 1,
        );
        let expected: Vec<(usize, usize)> = (0..8).map(|i| (i, i % 2)).collect();
        assert_eq!(out, expected, "odd items carry their second result");
        let log = log.into_inner().unwrap();
        assert_eq!(log.len(), 8 + 4, "eight first runs, four retries");
        let retries = &log[8..];
        assert_eq!(
            retries.iter().map(|(i, ..)| *i).collect::<Vec<_>>(),
            vec![1, 3, 5, 7],
            "retries run serially, in item order"
        );
        for (_, thread, seen) in retries {
            assert_eq!(*thread, caller, "retries run on the calling thread");
            assert_eq!(*seen, 8, "retries start after the whole first pass");
        }
    }

    #[test]
    fn serial_widths_and_empty_waves_spawn_no_thread() {
        let caller = std::thread::current().id();
        let items = [1, 2, 3];
        for max_workers in [0, 1] {
            let threads = run_ordered(&items, max_workers, |_| std::thread::current().id(), never);
            assert_eq!(threads, vec![caller; 3]);
        }
        let none: Vec<ThreadId> =
            run_ordered(&[] as &[i32], 8, |_| std::thread::current().id(), never);
        assert!(none.is_empty());
        // A single item never needs a second thread either.
        let one = run_ordered(&[7], 8, |_| std::thread::current().id(), never);
        assert_eq!(one, vec![caller]);
    }

    #[test]
    #[should_panic(expected = "wave worker panicked")]
    fn a_panic_on_a_spawned_worker_propagates() {
        let caller = std::thread::current().id();
        run_ordered(
            &[0, 1, 2, 3],
            4,
            |_| {
                if std::thread::current().id() != caller {
                    panic!("boom");
                }
                // Hold the dispatcher's item until the workers have
                // claimed (and panicked on) theirs.
                std::thread::sleep(Duration::from_millis(30));
            },
            never,
        );
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn a_panic_on_the_calling_thread_propagates() {
        run_ordered(&[0], 4, |_| panic!("boom"), never::<()>);
    }
}
