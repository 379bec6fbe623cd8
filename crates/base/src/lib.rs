//! # webfindit-base — zero-dependency substrate utilities
//!
//! The workspace builds offline with no external crates. What it would
//! otherwise take from crates.io is written here in the small form the
//! codebase actually uses:
//!
//! * [`sync`] — `Mutex`/`RwLock` with the poison-free locking API the
//!   code was written against (a thread that panicked while holding a
//!   lock does not wedge every later caller behind a `Result`).
//! * [`rng`] — a small, seedable, deterministic PRNG covering the
//!   `seed_from_u64` / `gen_range` / `gen_bool` surface the synthetic
//!   data generators use.
//! * [`prop`] — a miniature property-testing harness (seeded case
//!   loops with failing-seed reporting) used by the `prop_*` test
//!   suites.
//! * [`like`] — the SQL `LIKE` matcher both engines run, iterative so
//!   that a hostile pattern costs neither stack nor exponential time.
//! * [`float`] — [`float::write_double`], the one renderer of a double:
//!   what `f64`'s `{}` writes, short decimals without std's formatter.
//! * [`counters`] — the `counter_set!` macro: one declaration per
//!   statistic, from which the atomic struct, its snapshot, the
//!   before/after delta and the labelled listing are derived.
//!
//! Timing lives elsewhere: the figure and experiment bins in
//! `crates/bench` time with `std::time::Instant`, and the benchmark
//! package under `benchmark/` owns the per-layer metrics.

#![warn(missing_docs)]

pub mod counters;
pub mod float;
pub mod like;
pub mod prop;
pub mod rng;
pub mod sync;
