//! One renderer for a double: [`write_double`] writes exactly what
//! `f64`'s `{}` writes.
//!
//! Most doubles a database holds are short decimals (`12.5`, `0.1`,
//! `3075.25`). For those, [`write_double`] finds the digits with a few
//! multiplications and writes them from a stack buffer; every other
//! double goes to std's formatter.
//!
//! The short path looks for the smallest `k ≤ 17` for which
//! `round(|v|·10^k) / 10^k == |v|`, and tries a `k` only while
//! `ulp(|v|)·10^k < 1` and `|v|·10^k < 2^53`. Under those bounds
//! `|v|·10^k` and `10^k` are exact in a double and the division rounds
//! correctly, so the test holds exactly when the decimal `m·10^-k`
//! reads back as `v`. The interval of reals that read back as `v`,
//! scaled by `10^k`, is narrower than 1, so it holds at most one
//! integer `m`: that decimal is the only candidate with `k` fraction
//! digits, which is what std's shortest round trip prints. Rounding
//! `|v|·10^k` can miss that `m` only at the last `k` the bounds allow
//! (the scaled interval is then nearly 1 wide), and there the loop ends
//! and std prints.

use std::fmt;

/// 2^53: every integer below it is a double.
const EXACT: f64 = 9_007_199_254_740_992.0;

/// Write `v` to `out` exactly as `f64`'s `{}` writes it: short decimals
/// from a stack buffer, anything else through std.
pub fn write_double(out: &mut impl fmt::Write, v: f64) -> fmt::Result {
    let mut buf = [0u8; 24];
    match short(v, &mut buf) {
        Some(at) => out.write_str(std::str::from_utf8(&buf[at..]).unwrap_or_default()),
        None => write!(out, "{v}"),
    }
}

/// Write `v` into the tail of `buf` when it is a short decimal (see the
/// module doc) and return where its text starts; `None` sends NaN,
/// infinities, zeros, magnitudes of 2^53 and above and long fractions
/// to std.
fn short(v: f64, buf: &mut [u8; 24]) -> Option<usize> {
    let x = v.abs();
    if !(x > 0.0 && x < EXACT) {
        return None;
    }
    // The unit in the last place: the binade's power of two, 2^-52 of
    // it. A subnormal reads 0 here, and no k finds its digits.
    let ulp = f64::from_bits(x.to_bits() & 0x7ff0_0000_0000_0000) / (1u64 << 52) as f64;
    let mut scale = 1.0; // 10^k, exact in a double
    for k in 0..=17 {
        let y = x * scale;
        if ulp * scale >= 1.0 || y >= EXACT {
            return None;
        }
        // `y.round()`, exactly, since `y - trunc(y)` is exact below 2^53,
        // without the call `round` costs where SSE4.1 is not assumed.
        let m = y as i64;
        let m = m + i64::from(y - m as f64 >= 0.5);
        if m as f64 / scale == x {
            return Some(digits(v < 0.0, m as u64, k, buf));
        }
        scale *= 10.0;
    }
    None
}

/// Write `m·10^-k` with `k` fraction digits, signed when `neg`, into
/// the tail of `buf` and return where it starts. It takes at most
/// 1 + 1 + 17 + 1 bytes, since `m < 2^53` has at most 16 digits.
fn digits(neg: bool, mut m: u64, k: usize, buf: &mut [u8; 24]) -> usize {
    let mut at = buf.len();
    // The `k` fraction digits, the point, then the integer part, which
    // has at least one digit.
    for i in 0.. {
        if i > k && m == 0 {
            break;
        }
        if i == k && k > 0 {
            at -= 1;
            buf[at] = b'.';
        }
        at -= 1;
        buf[at] = b'0' + (m % 10) as u8;
        m /= 10;
    }
    if neg {
        at -= 1;
        buf[at] = b'-';
    }
    at
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop;

    fn render(v: f64) -> String {
        let mut text = String::new();
        write_double(&mut text, v).unwrap();
        text
    }

    fn fast(v: f64) -> Option<String> {
        let mut buf = [0u8; 24];
        short(v, &mut buf).map(|at| String::from_utf8(buf[at..].to_vec()).unwrap())
    }

    /// Every draw of `seeds` renders as std renders it.
    fn renders_as_std(seeds: u64, per_seed: u64) {
        prop::cases(seeds, |rng| {
            for _ in 0..per_seed {
                let v = prop::double(rng);
                assert_eq!(render(v), v.to_string(), "{:#x}", v.to_bits());
            }
        });
    }

    #[test]
    fn doubles_render_as_std_renders_them() {
        renders_as_std(1_000, 1_000);
    }

    /// The release-mode run: `cargo test --release -p webfindit-base
    /// --lib -- --ignored --exact float::tests::doubles_render_as_std_renders_them_at_scale`.
    #[test]
    #[ignore = "3*10^7 draws; run in release mode"]
    fn doubles_render_as_std_renders_them_at_scale() {
        renders_as_std(30_000, 1_000);
    }

    #[test]
    fn short_decimals_take_the_short_path() {
        for (v, text) in [
            (12_345.75, "12345.75"),
            (-0.1, "-0.1"),
            (3.0, "3"),
            (1e-17, "0.00000000000000001"),
            (0.3, "0.3"),
            (123_456_789.012_345_6, "123456789.0123456"),
        ] {
            assert_eq!(fast(v).as_deref(), Some(text), "{v}");
        }
        for v in [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            EXACT,
            4_503_599_627_370_495.5,
            1e300,
            1e-300,
            f64::MIN_POSITIVE,
            5e-324,
            0.1 + 0.2,
        ] {
            assert_eq!(fast(v), None, "{v}");
        }
    }
}
