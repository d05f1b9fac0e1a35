//! `sin` and `cos` of the tasklet language, built from IEEE `+ − × ÷` and
//! integer bit operations only, so a point gives the same bits on every host
//! and at every vector width.
//!
//! The algorithm is fdlibm's as musl carries it: Cody–Waite reduction by
//! π/2 in three rounds (`__rem_pio2`'s medium path), then the kernel
//! polynomials `__sin` / `__cos` on the reduced argument `y0 + y1`.  Unlike
//! fdlibm every step runs at every point — all three rounds, both
//! polynomials — and the quadrant picks the result with a mask and flips its
//! sign with an XOR, so [`sin_strip`] / [`cos_strip`] are one branch-free
//! pass over a column, which LLVM vectorizes at the baseline target.  The
//! reduction is exact for |x| < 2²⁰·π/2; NaN, ±∞ and larger arguments take
//! the standard library's `f64::sin` / `f64::cos` instead, in a second pass
//! over the strip, so they keep the host's bits.

// The constants below are fdlibm's (e_rem_pio2.c, k_sin.c, k_cos.c):
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================

/// 1.5·2⁵²: adding it to a value of magnitude below 2⁵¹ rounds the value to
/// an integer, which then stands in the low bits of the sum's mantissa.
const TOINT: f64 = 6755399441055744.0;
/// 2/π, 53 bits.
const INVPIO2: f64 = f64::from_bits(0x3FE45F30_6DC9C883); // 6.36619772367581382433e-01
/// π/2 = `PIO2_1 + PIO2_2 + PIO2_3 + PIO2_3T` to 151 bits; the first three
/// have 33 bits each, so one times a quadrant count below 2²⁰ is exact.
const PIO2_1: f64 = f64::from_bits(0x3FF921FB_54400000); // 1.57079632673412561417e+00
const PIO2_2: f64 = f64::from_bits(0x3DD0B461_1A600000); // 6.07710050630396597660e-11
const PIO2_3: f64 = f64::from_bits(0x3BA3198A_2E000000); // 2.02226624871116645580e-21
const PIO2_3T: f64 = f64::from_bits(0x397B839A_252049C1); // 8.47842766036889956997e-32

/// `__sin` on [-π/4, π/4]: sin(x) ≈ x + S1·x³ + … + S6·x¹³.
const S1: f64 = f64::from_bits(0xBFC55555_55555549); // -1.66666666666666324348e-01
const S2: f64 = f64::from_bits(0x3F811111_1110F8A6); // 8.33333333332248946124e-03
const S3: f64 = f64::from_bits(0xBF2A01A0_19C161D5); // -1.98412698298579493134e-04
const S4: f64 = f64::from_bits(0x3EC71DE3_57B1FE7D); // 2.75573137070700676789e-06
const S5: f64 = f64::from_bits(0xBE5AE5E6_8A2B9CEB); // -2.50507602534068634195e-08
const S6: f64 = f64::from_bits(0x3DE5D93A_5ACFD57C); // 1.58969099521155010221e-10

/// `__cos` on [-π/4, π/4]: cos(x) ≈ 1 − x²/2 + C1·x⁴ + … + C6·x¹⁴.
const C1: f64 = f64::from_bits(0x3FA55555_5555554C); // 4.16666666666666019037e-02
const C2: f64 = f64::from_bits(0xBF56C16C_16C15177); // -1.38888888888741095749e-03
const C3: f64 = f64::from_bits(0x3EFA01A0_19CB1590); // 2.48015872894767294178e-05
const C4: f64 = f64::from_bits(0xBE927E4F_809C52AD); // -2.75573143513906633035e-07
const C5: f64 = f64::from_bits(0x3E21EE9E_BDB4B1C4); // 2.08757232129817482790e-09
const C6: f64 = f64::from_bits(0xBDA8FAE9_BE8838D4); // -1.13596475577881948265e-11

/// Arguments below this magnitude, 2²⁰·π/2, are reduced here; NaN, ±∞ and
/// anything larger go to the standard library.
pub const REDUCED_BOUND: f64 = 1048576.0 * std::f64::consts::FRAC_PI_2;

/// `sin(x)`: bit for bit the value [`sin_strip`] gives at that point.
pub fn sin(x: f64) -> f64 {
    if reducible(x) {
        reduced::<0>(x)
    } else {
        x.sin()
    }
}

/// `cos(x)`: bit for bit the value [`cos_strip`] gives at that point.
pub fn cos(x: f64) -> f64 {
    if reducible(x) {
        reduced::<1>(x)
    } else {
        x.cos()
    }
}

/// `dst[j] = sin(a[j])` over a strip (`dst` and `a` of one length).
pub fn sin_strip(dst: &mut [f64], a: &[f64]) {
    strip::<0>(dst, a, f64::sin);
}

/// `dst[j] = cos(a[j])` over a strip (`dst` and `a` of one length).
pub fn cos_strip(dst: &mut [f64], a: &[f64]) {
    strip::<1>(dst, a, f64::cos);
}

#[inline(always)]
fn strip<const QUARTER: u64>(dst: &mut [f64], a: &[f64], outside: fn(f64) -> f64) {
    dst.iter_mut()
        .zip(a)
        .for_each(|(d, &x)| *d = reduced::<QUARTER>(x));
    for (d, &x) in dst.iter_mut().zip(a) {
        if !reducible(x) {
            *d = outside(x);
        }
    }
}

/// |x| < [`REDUCED_BOUND`]: false for NaN and ±∞.
#[inline(always)]
fn reducible(x: f64) -> bool {
    x.abs() < REDUCED_BOUND
}

/// `sin(x + QUARTER·π/2)` for |x| < [`REDUCED_BOUND`], without a branch:
/// `sin` is `QUARTER = 0`, `cos` is `QUARTER = 1`.
#[inline(always)]
fn reduced<const QUARTER: u64>(x: f64) -> f64 {
    // n = rint(x·2/π): the integer lands in the mantissa's low bits, whose
    // two lowest are n mod 4 (two's complement below 2⁵¹).
    let shifted = x * INVPIO2 + TOINT;
    let quadrant = shifted.to_bits().wrapping_add(QUARTER);
    let n = shifted - TOINT;
    // Three Cody–Waite rounds, y0 + y1 = x − n·π/2.  As in fdlibm, the
    // third round's tail takes the place of the second's.
    let r = x - n * PIO2_1;
    let r = r - n * PIO2_2;
    let (t, w) = (r, n * PIO2_3);
    let r = t - w;
    let w = n * PIO2_3T - ((t - r) - w);
    let y0 = r - w;
    let y1 = (r - y0) - w;
    // Quadrants 1 and 3 take the other polynomial; 2 and 3 flip the sign.
    let odd = (quadrant & 1).wrapping_neg();
    let pick = (kernel_cos(y0, y1).to_bits() & odd) | (kernel_sin(y0, y1).to_bits() & !odd);
    f64::from_bits(pick ^ ((quadrant & 2) << 62))
}

/// musl's `__sin(x, y, 1)`: sin(x + y) for |x + y| ≤ π/4, `y` the tail.
#[inline(always)]
fn kernel_sin(x: f64, y: f64) -> f64 {
    let z = x * x;
    let w = z * z;
    let r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let v = z * x;
    x - ((z * (0.5 * y - v * r) - y) - v * S1)
}

/// musl's `__cos(x, y)`: cos(x + y) for |x + y| ≤ π/4, `y` the tail.
#[inline(always)]
fn kernel_cos(x: f64, y: f64) -> f64 {
    let z = x * x;
    let w = z * z;
    let r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    w + (((1.0 - w) - hz) + (z * r - x * y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar_expr::STRIP;

    /// splitmix64: a seeded stream of 64-bit words.
    fn words(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// A value log-uniform in `[lo, hi)` with a random sign.
    fn log_uniform(next: &mut impl FnMut() -> u64, lo: f64, hi: f64) -> f64 {
        let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
        let x = lo * (hi / lo).powf(u);
        if next() & 1 == 1 {
            -x
        } else {
            x
        }
    }

    /// Distance in units in the last place, across zero too.
    fn ulps(a: f64, b: f64) -> u64 {
        let ordered = |x: f64| {
            let i = x.to_bits() as i64;
            if i < 0 {
                i64::MIN - i
            } else {
                i
            }
        };
        (ordered(a) - ordered(b)).unsigned_abs()
    }

    /// The edge values: signed zeros, subnormals, multiples of π/4, both
    /// sides of the bound, ±∞ and NaN.
    fn edges() -> Vec<f64> {
        let mut xs = vec![
            0.0,
            f64::from_bits(1),
            1e-310,
            f64::MIN_POSITIVE,
            1e-300,
            1e-9,
        ];
        xs.extend((1..=64).map(|k| k as f64 * std::f64::consts::FRAC_PI_4));
        xs.extend([
            1e5,
            REDUCED_BOUND.next_down(),
            REDUCED_BOUND,
            REDUCED_BOUND.next_up(),
        ]);
        xs.extend([1e7, 1e22, f64::MAX, f64::INFINITY, f64::NAN]);
        let negated: Vec<f64> = xs.iter().map(|x| -x).collect();
        xs.extend(negated);
        xs
    }

    /// Edge values, then seeded arguments of every scale, some beyond the bound.
    fn arguments(n: usize) -> Vec<f64> {
        let mut next = words(7);
        let mut xs = edges();
        while xs.len() < n {
            xs.push(log_uniform(&mut next, 1e-12, 1e9));
        }
        xs
    }

    #[test]
    fn scalar_and_strip_agree_bit_for_bit_at_every_strip_length() {
        let xs = arguments(4 * STRIP);
        for n in 0..=STRIP {
            for a in xs.chunks(STRIP) {
                let a = &a[..n.min(a.len())];
                let mut dst = vec![f64::NAN; a.len()];
                sin_strip(&mut dst, a);
                for (&x, &d) in a.iter().zip(&dst) {
                    assert_eq!(d.to_bits(), sin(x).to_bits(), "sin({x:e}) at n = {n}");
                }
                cos_strip(&mut dst, a);
                for (&x, &d) in a.iter().zip(&dst) {
                    assert_eq!(d.to_bits(), cos(x).to_bits(), "cos({x:e}) at n = {n}");
                }
            }
        }
    }

    #[test]
    fn edge_values() {
        for z in [0.0, -0.0, f64::from_bits(1), -1e-310, 1e-300] {
            assert_eq!(sin(z).to_bits(), z.to_bits(), "sin({z:e})");
            assert_eq!(cos(z), 1.0, "cos({z:e})");
        }
        // At and beyond the bound, NaN and ±∞ keep the standard library's bits.
        let bound = REDUCED_BOUND;
        for x in [bound, bound.next_up(), 1e22, f64::INFINITY, f64::NAN] {
            for x in [x, -x] {
                assert_eq!(sin(x).to_bits(), x.sin().to_bits(), "sin({x:e})");
                assert_eq!(cos(x).to_bits(), x.cos().to_bits(), "cos({x:e})");
            }
        }
        for x in (-64..=64)
            .map(|k| k as f64 * std::f64::consts::FRAC_PI_4)
            .chain([1e-9, bound.next_down(), -bound.next_down()])
        {
            assert!(ulps(sin(x), x.sin()) <= 1, "sin({x:e})");
            assert!(ulps(cos(x), x.cos()) <= 1, "cos({x:e})");
        }
    }

    #[test]
    fn sin_is_odd_and_cos_even_bit_for_bit() {
        // NaN has no sign to mirror, and the standard library's `sin(±∞)`
        // is one NaN for both.
        for x in arguments(1 << 16).into_iter().filter(|x| x.is_finite()) {
            assert_eq!(sin(-x).to_bits(), (-sin(x)).to_bits(), "sin({x:e})");
            assert_eq!(cos(-x).to_bits(), cos(x).to_bits(), "cos({x:e})");
        }
    }

    #[test]
    fn within_two_ulps_of_the_standard_library_in_every_decade() {
        let mut next = words(11);
        let mut worst = (0, 0.0);
        for decade in -9..=6 {
            let lo = 10f64.powi(decade);
            let hi = (lo * 10.0).min(REDUCED_BOUND);
            for _ in 0..1_000_000 {
                let x = log_uniform(&mut next, lo, hi);
                for d in [ulps(sin(x), x.sin()), ulps(cos(x), x.cos())] {
                    if d > worst.0 {
                        worst = (d, x);
                    }
                }
            }
        }
        assert!(worst.0 <= 2, "{} ulps at x = {:e}", worst.0, worst.1);
    }

    /// FNV-1a of `sin` and `cos` over a seeded grid below the bound, in
    /// strips: the bits depend neither on the host's libm nor on the vector
    /// width the build targets (CI runs this test again with AVX2 enabled).
    /// The grid is built from bits alone, so no libm call shapes it either:
    /// random sign and mantissa, binades 2⁻²⁰ up to 2²⁰.
    #[test]
    fn bits_on_a_seeded_grid_are_pinned() {
        let mut next = words(3);
        let xs: Vec<f64> = (0..1 << 16)
            .map(|_| {
                let (w, mantissa) = (next(), next() >> 12);
                let exponent = 1023 - 20 + w % 40;
                f64::from_bits(w & (1 << 63) | exponent << 52 | mantissa)
            })
            .collect();
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        let mut dst = [0.0; STRIP];
        for a in xs.chunks(STRIP) {
            let dst = &mut dst[..a.len()];
            for column in [sin_strip, cos_strip] {
                column(dst, a);
                for d in dst.iter() {
                    hash = (hash ^ d.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
        assert_eq!(hash, 0x657E_5C70_E127_4AE3, "hash {hash:#018x}");
    }
}
