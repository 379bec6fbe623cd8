//! A miniature property-testing harness.
//!
//! Replaces the external `proptest` dependency for the `prop_*` test
//! suites: each property runs over a sequence of deterministic seeds,
//! and a failing case reports the seed so the exact input regenerates
//! with `cases_from(seed, 1, ..)`. There is no shrinking — generators
//! here are small enough that the failing seed is directly debuggable.

use crate::rng::StdRng;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Run `property` for `n` deterministic cases, seeds `0..n`.
///
/// Panics (re-raising the property's panic) after printing the failing
/// seed, so `cargo test` output pinpoints the case to replay.
pub fn cases(n: u64, property: impl FnMut(&mut StdRng)) {
    cases_from(0, n, property);
}

/// Run `property` for seeds `start..start + n`.
pub fn cases_from(start: u64, n: u64, mut property: impl FnMut(&mut StdRng)) {
    for seed in start..start + n {
        let mut rng = StdRng::seed_from_u64(seed);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            eprintln!("property failed at seed {seed} (replay with cases_from({seed}, 1, ..))");
            resume_unwind(panic);
        }
    }
}

/// A random string of `len` characters drawn from `alphabet`.
pub fn string_from(rng: &mut StdRng, alphabet: &str, len: usize) -> String {
    let chars: Vec<char> = alphabet.chars().collect();
    (0..len)
        .map(|_| chars[rng.gen_range(0..chars.len())])
        .collect()
}

/// A random string whose length is drawn from `lens`.
pub fn string_of(rng: &mut StdRng, alphabet: &str, lens: std::ops::Range<usize>) -> String {
    let len = rng.gen_range(lens);
    string_from(rng, alphabet, len)
}

/// A vector with a length drawn from `lens`, elements from `gen`.
pub fn vec_of<T>(
    rng: &mut StdRng,
    lens: std::ops::Range<usize>,
    mut gen: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    let len = rng.gen_range(lens);
    (0..len).map(|_| gen(rng)).collect()
}

/// Pick one element of a non-empty slice.
pub fn pick<'a, T>(rng: &mut StdRng, xs: &'a [T]) -> &'a T {
    &xs[rng.gen_range(0..xs.len())]
}

/// A double from the families a decimal renderer must get right, one
/// family per draw: any bit pattern; a subnormal; a short decimal
/// `m/10^k` with `k ≤ 20`; a dyadic `m/2^e`; an integer near 2^53; a
/// signed zero, an infinity or NaN; the neighbour just above or below a
/// power of 2 or of 10.
pub fn double(rng: &mut StdRng) -> f64 {
    let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
    let v = match rng.gen_range(0u32..7) {
        0 => return f64::from_bits(rng.next_u64()),
        1 => f64::from_bits(rng.next_u64() & ((1 << 52) - 1)),
        2 => {
            let digits = rng.gen_range(1u32..18);
            let m = rng.gen_range(0..10u64.pow(digits));
            m as f64 / 10f64.powi(rng.gen_range(0i32..=20))
        }
        3 => rng.gen_range(0u64..1 << 24) as f64 / 2f64.powi(rng.gen_range(0i32..60)),
        4 => (1u64 << 53).wrapping_add_signed(rng.gen_range(-2_000i64..2_000)) as f64,
        5 => *pick(rng, &[0.0, f64::INFINITY, f64::NAN]),
        _ => {
            let power = if rng.gen_bool(0.5) {
                2f64.powi(rng.gen_range(-1022i32..1024))
            } else {
                format!("1e{}", rng.gen_range(-323i32..309))
                    .parse()
                    .unwrap_or(1.0)
            };
            if rng.gen_bool(0.5) {
                power.next_up()
            } else {
                power.next_down()
            }
        }
    };
    sign * v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let mut firsts = Vec::new();
        cases(5, |rng| firsts.push(rng.next_u64()));
        let mut again = Vec::new();
        cases(5, |rng| again.push(rng.next_u64()));
        assert_eq!(firsts, again);
        assert_eq!(firsts.len(), 5);
    }

    #[test]
    #[should_panic(expected = "boom at seed 3")]
    fn failing_seed_is_reported() {
        cases(10, |rng| {
            let x = rng.next_u64();
            // Force a failure on one specific seed.
            if x == StdRng::seed_from_u64(3).next_u64() {
                panic!("boom at seed 3");
            }
        });
    }

    #[test]
    fn generators_respect_bounds() {
        cases(20, |rng| {
            let s = string_of(rng, "abc", 2..5);
            assert!((2..5).contains(&s.len()));
            assert!(s.chars().all(|c| "abc".contains(c)));
            let v = vec_of(rng, 0..4, |r| r.gen_range(0..10));
            assert!(v.len() < 4);
            let choice = *pick(rng, &[1, 2, 3]);
            assert!((1..=3).contains(&choice));
        });
    }
}
