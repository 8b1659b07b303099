//! Shortest round-trip decimal text for `f64`, byte-identical to std's
//! `Display` (`{}`), behind [`crate::push_json_f64`].
//!
//! The digits come from Ryū (Ulf Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): the rounding interval of the binary value
//! is scaled to decimal with one 64×128-bit multiply per bound, then
//! digits are removed while both bounds still agree. Its two tables of
//! powers of five are built at compile time by `const fn`s below, from
//! short multiplication and division by 5 and shifts.
//!
//! One rule differs from reference Ryū. When the exact binary value
//! lies halfway between the two shortest candidates, reference Ryū
//! picks the even digit, but std rounds the tie up. For example, 2⁻²⁵
//! prints `0.000000029802322387695313`, and 2⁴⁹ + 0.25 prints
//! `562949953421312.3`. This module rounds up as std does. Without the
//! round-to-even step, whether the removed digits were all zero no
//! longer decides anything, so reference Ryū's tracking of that is
//! gone too.
//!
//! The digits are then laid out as std's `Display` lays them out: never
//! an exponent, zeros padded on either side of the digits as needed
//! (`1e300` prints 301 digits), no trailing `.0`, and a `-` on every
//! negative value, `-0` included.

/// Significand bits of an `f64`, the implicit leading one excluded.
const MANTISSA_BITS: u32 = 52;
/// Exponent bias of an `f64`.
const BIAS: i32 = 1023;
/// Bits kept of each table entry.
const POW5_BITS: i32 = 125;

/// Entries of [`POW5_SPLIT`]: the subnormals read 5^325.
const POW5_LEN: usize = 326;
/// Entries of [`POW5_INV_SPLIT`]: the largest exponent field reads
/// entry 290.
const POW5_INV_LEN: usize = 291;

/// The top [`POW5_BITS`] bits of 5^i: 5^i shifted right by
/// `pow5bits(i) - 125`, or left when 5^i has fewer bits.
static POW5_SPLIT: [u128; POW5_LEN] = pow5_split();
/// ⌊2^j / 5^i⌋ + 1 with j = `pow5bits(i) - 1 + 125`.
static POW5_INV_SPLIT: [u128; POW5_INV_LEN] = pow5_inv_split();

/// 64-bit limbs of the table builders' big integers, least significant
/// first: 2^1023 / 5^i needs 16 of them, 5^325 only 12.
const LIMBS: usize = 16;

/// Limb `k` of a big integer, zero past its top.
const fn limb(limbs: &[u64; LIMBS], k: usize) -> u128 {
    if k < LIMBS {
        limbs[k] as u128
    } else {
        0
    }
}

/// Bits `shift..shift + 128` of a big integer.
const fn bits_at(limbs: &[u64; LIMBS], shift: u32) -> u128 {
    let w = (shift / 64) as usize;
    let b = shift % 64;
    let low = limb(limbs, w) | limb(limbs, w + 1) << 64;
    if b == 0 {
        low
    } else {
        low >> b | limb(limbs, w + 2) << (128 - b)
    }
}

const fn pow5_split() -> [u128; POW5_LEN] {
    let mut table = [0u128; POW5_LEN];
    // 5^i, multiplied by 5 once per entry.
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < POW5_LEN {
        let shift = pow5bits(i as i32) - POW5_BITS;
        table[i] = if shift >= 0 {
            bits_at(&pow, shift as u32)
        } else {
            bits_at(&pow, 0) << -shift
        };
        let mut carry = 0u128;
        let mut k = 0;
        while k < LIMBS {
            let product = pow[k] as u128 * 5 + carry;
            pow[k] = product as u64;
            carry = product >> 64;
            k += 1;
        }
        i += 1;
    }
    table
}

const fn pow5_inv_split() -> [u128; POW5_INV_LEN] {
    let mut table = [0u128; POW5_INV_LEN];
    // ⌊2^1023 / 5^i⌋, divided by 5 once per entry; ⌊⌊x⌋ / 5⌋ = ⌊x / 5⌋,
    // and likewise for the shift below, so every entry is exact.
    let mut quotient = [0u64; LIMBS];
    quotient[LIMBS - 1] = 1 << 63;
    let mut i = 0;
    while i < POW5_INV_LEN {
        let j = pow5bits(i as i32) - 1 + POW5_BITS;
        table[i] = bits_at(&quotient, (1023 - j) as u32) + 1;
        let mut rem = 0u128;
        let mut k = LIMBS;
        while k > 0 {
            k -= 1;
            let dividend = rem << 64 | quotient[k] as u128;
            quotient[k] = (dividend / 5) as u64;
            rem = dividend % 5;
        }
        i += 1;
    }
    table
}

/// Bit length of 5^e (1 for e = 0); exact for 0 ≤ e ≤ 3528.
const fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// ⌊log10(2^e)⌋ for 0 ≤ e ≤ 1650.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// ⌊log10(5^e)⌋ for 0 ≤ e ≤ 2620.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Whether 5^p divides `value`, which is nonzero.
fn multiple_of_power_of_5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `(m × mul) >> j` for a table entry `mul`, with 64 ≤ j < 192.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest decimal `digits × 10^exponent` that parses back to the
/// finite, nonzero `f64` with these exponent and mantissa fields, the
/// closest such when several are equally short, and the larger of two
/// equally close.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            1 << MANTISSA_BITS | ieee_mantissa,
        )
    };
    // Round-half-even parsing maps the interval's bounds to this value
    // exactly when its mantissa is even.
    let accept_bounds = m2.is_multiple_of(2);
    // The interval is [mm, mp] around mv = 4·m2, in units of 2^e2. Its
    // lower half is half as wide at a power of two, where the next
    // smaller value is closer than the next larger one.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mm, mp) = (mv - 1 - mm_shift, mv + 2);

    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let j = (POW5_BITS + pow5bits(q as i32) - 1 - e2 + q as i32) as u32;
        let mul = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        // A bound is exact after scaling when 5^q divides it: then an
        // excluded upper bound moves down one, and an included lower
        // bound may end in zeros a shorter output can use. When 5
        // divides mv it divides neither bound, which lie within 3 of it.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mm, q);
            } else if multiple_of_power_of_5(mp, q) {
                vp -= 1;
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let j = (q as i32 - (pow5bits(i) - POW5_BITS)) as u32;
        let mul = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        if q <= 1 {
            // A bound is exact after scaling when it has q trailing zero
            // bits: mm has one exactly when mm_shift is 1, and mp always
            // has one.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Remove digits while the bounds still differ above them; the last
    // removed digit of vr decides the rounding.
    let mut removed = 0;
    let mut last_removed_digit = 0;
    while vp / 10 > vm / 10 {
        vm_is_trailing_zeros &= vm.is_multiple_of(10);
        last_removed_digit = vr % 10;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    if vm_is_trailing_zeros {
        // The lower bound is itself a shorter decimal in the interval.
        while vm.is_multiple_of(10) {
            last_removed_digit = vr % 10;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    // Take vr + 1 when vr is outside the interval or the removed digits
    // were at least half: a tie rounds up, as std's does.
    let round_up =
        (vr == vm && !(accept_bounds && vm_is_trailing_zeros)) || last_removed_digit >= 5;
    (vr + u64::from(round_up), e10 + removed)
}

/// "00" to "99", two ASCII digits per entry.
static DIGIT_PAIRS: [u8; 200] = digit_pairs();

const fn digit_pairs() -> [u8; 200] {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
}

/// A bound on the text's length: a sign, "0.", the 323 zeros before the
/// digit of the smallest subnormal, and 17 digits.
const MAX_LEN: usize = 1 + 2 + 323 + 17;

/// Writes the decimal digits of `v`, two at a time, to end just before
/// `text[end]`.
fn write_digits(text: &mut [u8; MAX_LEN], end: usize, mut v: u64) {
    let mut pos = end;
    while v >= 10 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        pos -= 2;
        text[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v > 0 {
        text[pos - 1] = b'0' + v as u8;
    }
}

/// Appends `v` exactly as `write!(out, "{v}")` would; `v` must be
/// finite.
pub(crate) fn push_shortest(out: &mut String, v: f64) {
    let bits = v.to_bits();
    // Every byte not written below is a padding zero.
    let mut text = [b'0'; MAX_LEN];
    let mut len = 0;
    if bits >> 63 != 0 {
        text[0] = b'-';
        len = 1;
    }
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32 & 0x7ff;
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        len += 1;
    } else {
        let (digits, exponent) = shortest(ieee_mantissa, ieee_exponent);
        let count = digits.ilog10() as usize + 1;
        // The value is 0.d₁d₂…dₙ × 10^point.
        let point = exponent + count as i32;
        if point <= 0 {
            text[len + 1] = b'.';
            len += 2 + point.unsigned_abs() as usize + count;
            write_digits(&mut text, len, digits);
        } else if (point as usize) < count {
            // The digits one place right, then the whole part moved back
            // over the gap, which leaves the point's place free.
            let start = len;
            len += count + 1;
            write_digits(&mut text, len, digits);
            let point = start + point as usize;
            text.copy_within(start + 1..=point, start);
            text[point] = b'.';
        } else {
            write_digits(&mut text, len + count, digits);
            len += point as usize;
        }
    }
    // Every byte is ASCII, so the conversion always succeeds.
    if let Ok(s) = std::str::from_utf8(&text[..len]) {
        out.push_str(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::push_json_f64;
    use std::cmp::Ordering;
    use std::fmt::Write as _;

    /// Random `f64` bit patterns checked per run: release builds (CI's
    /// `cargo test --release -p swcc-obs`) check a hundred times more.
    const RANDOM_PATTERNS: u64 = if cfg!(debug_assertions) {
        100_000
    } else {
        10_000_000
    };

    /// SplitMix64, so the sample is the same on every run.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// Compares `push_json_f64` with std's `Display` (or `null`) byte for
    /// byte, and checks that a finite value parses back to its own bits.
    struct Checker {
        ours: String,
        std: String,
    }

    impl Checker {
        fn new() -> Self {
            Checker {
                ours: String::new(),
                std: String::new(),
            }
        }

        fn check(&mut self, v: f64) {
            self.ours.clear();
            self.std.clear();
            push_json_f64(&mut self.ours, v);
            if v.is_finite() {
                let _ = write!(self.std, "{v}");
                let back = self.ours.parse::<f64>().map(f64::to_bits);
                assert_eq!(back, Ok(v.to_bits()), "{} does not round-trip", self.ours);
            } else {
                self.std.push_str("null");
            }
            assert_eq!(self.ours, self.std, "bits {:#018x}", v.to_bits());
        }

        fn check_bits(&mut self, bits: u64) {
            self.check(f64::from_bits(bits));
            self.check(f64::from_bits(bits ^ 1 << 63));
        }
    }

    #[test]
    fn push_json_f64_matches_std_display() {
        let mut c = Checker::new();
        let mut rng = SplitMix(0x5eed_f10a_7000_0001);
        for _ in 0..RANDOM_PATTERNS {
            c.check(f64::from_bits(rng.next()));
        }

        // ±0, the infinities and a NaN.
        for v in [0.0, f64::INFINITY, f64::NAN] {
            c.check(v);
            c.check(-v);
        }
        // Every exponent field, with the smallest, middle and largest
        // mantissas (exponent field 0 holds the subnormals).
        for exponent in 0..=2046u64 {
            for mantissa in [0, 1, 1 << 51, (1 << 52) - 1] {
                c.check_bits(exponent << 52 | mantissa);
            }
        }
        // Subnormals at both ends, and the normals just above them.
        for k in 1..=10_000u64 {
            c.check_bits(k);
            c.check_bits((1 << 52) - k);
            c.check_bits((1 << 52) + k);
        }
        // Powers of ten and their neighbours: 1e-324 rounds to zero,
        // 5e-324 is the smallest subnormal, and 1e300 prints 301 digits.
        for k in -324..=308 {
            let v: f64 = format!("1e{k}").parse().unwrap();
            for bits in [v.to_bits().saturating_sub(1), v.to_bits(), v.to_bits() + 1] {
                c.check_bits(bits);
            }
        }
        c.check(5e-324);
        c.check(f64::MIN_POSITIVE);
        c.check(f64::MAX);
        // Integers: all below 10^5, powers of two to 2^53 with their
        // neighbours, and random ones below 2^53.
        for n in 0..100_000u32 {
            c.check(f64::from(n));
        }
        for k in 0..=53 {
            let p = 1u64 << k;
            for n in [p.saturating_sub(1), p, p + 1] {
                c.check(n as f64);
            }
        }
        for _ in 0..100_000 {
            c.check((rng.next() >> 11) as f64);
        }
        // 17-digit decimals across the whole exponent range.
        for _ in 0..100_000 {
            let digits = 10_000_000_000_000_000 + rng.next() % 90_000_000_000_000_000;
            let exponent = (rng.next() % 650) as i32 - 340;
            c.check(format!("{digits}e{exponent}").parse().unwrap());
        }

        // Exact decimal ties round up, as std's do; reference Ryū would
        // print ...312 and ...312.2 here.
        let ties = [
            (2f64.powi(-25), "0.000000029802322387695313"),
            (2f64.powi(49) + 0.25, "562949953421312.3"),
        ];
        for (v, want) in ties {
            c.check(v);
            assert_eq!(c.ours, want);
        }
        // Std's layout: no exponent, no trailing ".0", "-0".
        for (v, want) in [
            (1e300, format!("1{}", "0".repeat(300))),
            (16.0, "16".to_string()),
            (-0.0, "-0".to_string()),
            (0.04992, "0.04992".to_string()),
            (1e-7, "0.0000001".to_string()),
        ] {
            c.check(v);
            assert_eq!(c.ours, want);
        }
    }

    /// A non-negative big integer: 32-bit limbs, least significant first,
    /// no zero limb on top.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Big(Vec<u32>);

    impl Big {
        fn new(mut limbs: Vec<u32>) -> Big {
            while limbs.last() == Some(&0) {
                limbs.pop();
            }
            Big(limbs)
        }

        fn from_u128(x: u128) -> Big {
            Big::new((0..4).map(|k| (x >> (32 * k)) as u32).collect())
        }

        fn pow2(k: u32) -> Big {
            let mut limbs = vec![0; k as usize / 32];
            limbs.push(1 << (k % 32));
            Big(limbs)
        }

        /// Schoolbook multiplication.
        fn mul(&self, other: &Big) -> Big {
            let mut limbs = vec![0u32; self.0.len() + other.0.len()];
            for (i, &a) in self.0.iter().enumerate() {
                let mut carry = 0u64;
                for (j, &b) in other.0.iter().enumerate() {
                    let t = u64::from(a) * u64::from(b) + u64::from(limbs[i + j]) + carry;
                    limbs[i + j] = t as u32;
                    carry = t >> 32;
                }
                limbs[i + other.0.len()] = carry as u32;
            }
            Big::new(limbs)
        }

        fn bits(&self) -> i32 {
            self.0.last().map_or(0, |top| {
                32 * self.0.len() as i32 - top.leading_zeros() as i32
            })
        }

        fn cmp(&self, other: &Big) -> Ordering {
            self.0
                .len()
                .cmp(&other.0.len())
                .then_with(|| self.0.iter().rev().cmp(other.0.iter().rev()))
        }
    }

    #[test]
    fn pow5_tables_match_big_integer_powers_of_five() {
        // Each table ends at the last entry the formatter reads: the
        // largest exponent field reads the last of POW5_INV_SPLIT, the
        // subnormals the last of POW5_SPLIT.
        let e2_max = 2046 - BIAS - MANTISSA_BITS as i32 - 2;
        assert_eq!(log10_pow2(e2_max) - 1, POW5_INV_LEN as u32 - 1);
        let e2_min = 1 - BIAS - MANTISSA_BITS as i32 - 2;
        assert_eq!(
            -e2_min - (log10_pow5(-e2_min) as i32 - 1),
            POW5_LEN as i32 - 1
        );

        let five = Big::from_u128(5);
        let mut pow = Big::from_u128(1);
        for (i, &t) in POW5_SPLIT.iter().enumerate() {
            let bits = pow.bits();
            assert_eq!(pow5bits(i as i32), bits, "bit length of 5^{i}");
            // The top 125 bits: T·2^s ≤ 5^i < (T + 1)·2^s, or T = 5^i·2^-s
            // when 5^i is shorter.
            assert_eq!(Big::from_u128(t).bits(), POW5_BITS, "POW5_SPLIT[{i}]");
            let shift = bits - POW5_BITS;
            if shift >= 0 {
                let unit = Big::pow2(shift as u32);
                let low = Big::from_u128(t).mul(&unit);
                let high = Big::from_u128(t + 1).mul(&unit);
                assert_ne!(low.cmp(&pow), Ordering::Greater, "POW5_SPLIT[{i}]");
                assert_eq!(pow.cmp(&high), Ordering::Less, "POW5_SPLIT[{i}]");
            } else {
                let exact = pow.mul(&Big::pow2(shift.unsigned_abs()));
                assert_eq!(Big::from_u128(t), exact, "POW5_SPLIT[{i}]");
            }
            // ⌊2^j / 5^i⌋ + 1: (T − 1)·5^i ≤ 2^j < T·5^i.
            if let Some(&inv) = POW5_INV_SPLIT.get(i) {
                let two_j = Big::pow2((bits - 1 + POW5_BITS) as u32);
                let below = Big::from_u128(inv - 1).mul(&pow);
                let above = Big::from_u128(inv).mul(&pow);
                assert_ne!(below.cmp(&two_j), Ordering::Greater, "POW5_INV_SPLIT[{i}]");
                assert_eq!(two_j.cmp(&above), Ordering::Less, "POW5_INV_SPLIT[{i}]");
            }
            pow = pow.mul(&five);
        }
    }
}
