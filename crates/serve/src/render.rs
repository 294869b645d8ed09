//! Number text for the answer lines, written straight into a `String`.
//!
//! A snapshot renders every rule's line once, at load, so the numbers of
//! thousands of rules are formatted on the hot-swap path. `{:.4}` through
//! `std::fmt` costs more than the rest of the line; [`push_fixed`] gives
//! the same bytes for every input it covers, by exact integer arithmetic,
//! and hands anything else to `std::fmt`.

use std::fmt::Write as _;

/// Append the decimal digits of `v`.
pub(crate) fn push_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let start = put_digits(&mut buf, v, 0);
    push_ascii(out, &buf[start..]);
}

/// Append `x` with exactly `prec` fractional digits: the bytes of
/// `format!("{x:.prec$}")`.
pub(crate) fn push_fixed(out: &mut String, x: f64, prec: u32) {
    match scaled(x, prec) {
        Some(v) => {
            // At most 20 digits, a point and a leading zero.
            let mut buf = [0u8; 22];
            let start = put_digits(&mut buf, v, prec as usize);
            push_ascii(out, &buf[start..]);
        }
        None => {
            let _ = write!(out, "{x:.*}", prec as usize);
        }
    }
}

/// `10^i` for every power a `u64` holds.
const POW10: [u64; 20] = {
    let mut pow = [1u64; 20];
    let mut i = 1;
    while i < pow.len() {
        pow[i] = pow[i - 1] * 10;
        i += 1;
    }
    pow
};

/// `x × 10^prec` rounded to the nearest integer, ties to even — the
/// rounding `std::fmt` applies to the exact binary value — when `x` is
/// finite with its sign bit clear and the result fits a `u64`.
fn scaled(x: f64, prec: u32) -> Option<u64> {
    let bits = x.to_bits();
    if bits >> 63 != 0 {
        return None;
    }
    let biased = (bits >> 52) as i32;
    if biased == 0x7ff {
        return None;
    }
    let fraction = bits & ((1 << 52) - 1);
    // x = m × 2^e exactly.
    let (m, e) = match biased {
        0 => (fraction, -1074),
        _ => (fraction | 1 << 52, biased - 1075),
    };
    let n = u128::from(m) * u128::from(*POW10.get(prec as usize)?);
    let v = if e >= 0 {
        let e = e as u32;
        if e > n.leading_zeros() {
            return None;
        }
        n << e
    } else {
        let s = e.unsigned_abs();
        if s >= 128 {
            // n < 2^127 ≤ half a unit: the value rounds to zero.
            if n >> 127 != 0 {
                return None;
            }
            0
        } else {
            let q = n >> s;
            let r = n - (q << s);
            let half = 1u128 << (s - 1);
            if r > half || (r == half && q & 1 == 1) {
                q + 1
            } else {
                q
            }
        }
    };
    u64::try_from(v).ok()
}

/// `"00"`, `"01"`, …, `"99"`: two digits per division.
const PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Write `v / 10^point` in decimal, right-aligned in `buf`: its integer
/// digits, then — when `point > 0` — a point and the `point` digits of
/// the fraction. Returns where the text starts. Divides only by the
/// constants 10 and 100, which compile to multiplications.
fn put_digits(buf: &mut [u8], mut v: u64, point: usize) -> usize {
    let mut i = buf.len();
    if point > 0 {
        for _ in 0..point / 2 {
            i = put_pair(buf, i, &mut v);
        }
        if point % 2 == 1 {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
        }
        i -= 1;
        buf[i] = b'.';
    }
    while v >= 100 {
        i = put_pair(buf, i, &mut v);
    }
    if v >= 10 {
        put_pair(buf, i, &mut v)
    } else {
        buf[i - 1] = b'0' + v as u8;
        i - 1
    }
}

/// Write the last two digits of `v` before `buf[i]` and drop them from
/// `v`; returns the new start.
fn put_pair(buf: &mut [u8], i: usize, v: &mut u64) -> usize {
    let d = (*v % 100) as usize * 2;
    *v /= 100;
    buf[i - 2..i].copy_from_slice(&PAIRS[d..d + 2]);
    i - 2
}

fn push_ascii(out: &mut String, digits: &[u8]) {
    // Only ASCII digits and '.' are ever written.
    out.push_str(std::str::from_utf8(digits).unwrap_or_default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `push_fixed` must write what `format!` writes, at both precisions
    /// the answer lines use.
    fn check(x: f64) {
        for prec in [3u32, 4] {
            let mut got = String::new();
            push_fixed(&mut got, x, prec);
            assert_eq!(
                got,
                format!("{x:.*}", prec as usize),
                "{x:e} ({:#018x}) at precision {prec}",
                x.to_bits()
            );
        }
    }

    /// Many draws per case: each value is cheap, the case count is not.
    const PER_CASE: u64 = 64;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn fixed_matches_std_on_any_bit_pattern(seed in any::<u64>()) {
            for i in 0..PER_CASE {
                check(f64::from_bits(seed.rotate_left(i as u32) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            }
        }

        #[test]
        fn fixed_matches_std_on_ratios(a in 0u64..200_000, b in 1u64..200_000) {
            // Confidences and RIs are ratios of support counts.
            for i in 0..PER_CASE {
                check((a + i) as f64 / b as f64);
                check(b as f64 / (a + i + 1) as f64);
            }
        }

        #[test]
        fn fixed_matches_std_on_dyadic_values(k in 0u64..(1 << 53), n in 0u32..90) {
            // k / 2^n is exact; at n = 4 and n = 5 an odd k is an exact
            // tie at precision 3 and 4.
            for i in 0..PER_CASE {
                check((k ^ i) as f64 / 2f64.powi(n as i32));
            }
        }

        #[test]
        fn fixed_matches_std_at_exact_ties(k in 0u64..(1 << 44)) {
            // The ties at precision p are exactly the odd multiples of
            // 2^-(p+1); both neighbours of every one must round to even.
            for i in 0..PER_CASE {
                let odd = (2 * (k + i) + 1) as f64;
                check(odd / 16.0);
                check(odd / 32.0);
            }
        }
    }

    #[test]
    fn fixed_matches_std_on_edge_values() {
        let values = [
            0.0,
            1.0,
            0.5,
            0.999_95,
            0.000_05,
            0.000_5,
            9.999_5,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::EPSILON,
            2f64.powi(53),
            2f64.powi(53) + 2.0,
            2f64.powi(60),
            2f64.powi(64),
            1e15,
            1e19,
            1e300,
            f64::MAX,
            // Inputs the exact routine leaves to `std::fmt`.
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            -1.5,
            -0.000_05,
            -f64::MIN_POSITIVE,
            -f64::MAX,
        ];
        for x in values {
            check(x);
        }
        for prec in [0u32, 1, 2, 5, 9, 19, 20, 25] {
            for x in [0.0, 0.5, 1.5, 2.5, 0.125, 1234.5678, 1e-7, 1e18] {
                let mut got = String::new();
                push_fixed(&mut got, x, prec);
                assert_eq!(got, format!("{x:.*}", prec as usize), "{x} at {prec}");
            }
        }
    }

    #[test]
    fn fallbacks_are_the_inputs_the_routine_leaves_out() {
        for x in [f64::NAN, f64::INFINITY, -0.0, -1.0, f64::MAX] {
            assert_eq!(scaled(x, 4), None, "{x}");
        }
        assert_eq!(scaled(0.125, 2), Some(12));
        assert_eq!(scaled(0.375, 2), Some(38));
        assert_eq!(scaled(f64::from_bits(1), 4), Some(0));
    }

    #[test]
    fn integers_are_plain_digits() {
        for v in [0, 1, 9, 10, 99, 100, 4_201, u64::MAX] {
            let mut got = String::new();
            push_u64(&mut got, v);
            assert_eq!(got, v.to_string());
        }
    }
}
