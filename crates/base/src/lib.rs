//! # webfindit-base — zero-dependency substrate utilities
//!
//! The build environment for this reproduction is fully offline: no
//! crates.io access, no vendored registry. Everything the workspace
//! previously pulled from external crates is reimplemented here in the
//! small form the codebase actually uses:
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
//! * [`bench`] — a miniature benchmark harness with a criterion-shaped
//!   API (`benchmark_group` / `bench_function` / `iter`) so the bench
//!   targets run standalone with `harness = false`.
//! * [`counters`] — the `counter_set!` macro: one declaration per
//!   statistic, from which the atomic struct, its snapshot, the
//!   before/after delta and the labelled listing are derived.

#![warn(missing_docs)]

pub mod bench;
pub mod counters;
pub mod prop;
pub mod rng;
pub mod sync;
