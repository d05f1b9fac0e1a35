//! The host's clock level, read beside the operations.
//!
//! The sandbox's cores step between clock levels (measured here: ×1.0,
//! ×1.18 and ×1.27 of the fastest, each held for seconds to many minutes, as
//! a processor's turbo bins are when its other cores wake up).  Everything
//! that computes — the interpreter, the compile pipeline, a dependent chain
//! of integer operations — slows down by the same factor on a level, so ten
//! runs of the same code that fall on two levels read 27 % apart whatever
//! is read off each run.  A fixed dependent chain measures the level and
//! nothing else: it touches no memory, so the second kind of interference on
//! this host (a neighbour on the sibling hyperthread or in the shared caches,
//! ×1.5 to ×2.2 on the interpreter for a few seconds at a time) moves it by
//! 3–5 % at most, and the fastest of a few short chains by less.  Timings are
//! therefore reported *at the reference clock*: divided by
//! [`factor`] read at both ends of the block they were taken in.  The bursts
//! are left to the quiet percentile (see [`crate::stats::QUIET_Q`]).

use std::hint::black_box;
use std::time::Instant;

/// Steps of one chain: ~30 µs, long against the timer's resolution and
/// short against a scheduler tick.
const STEPS: u32 = 20_000;
/// Chains per reading; the fastest one counts (an interrupt or a neighbour
/// only ever lengthens a chain).
const CHAINS: usize = 5;
/// Nanoseconds per step on the fastest level this host shows: the
/// reference clock.  A frozen constant, so that runs which never see that
/// level are scaled to it all the same.
pub const REFERENCE_NS_PER_STEP: f64 = 1.45;

/// One chain of [`STEPS`] dependent xorshift steps; nanoseconds per step.
fn chain() -> f64 {
    let start = Instant::now();
    let mut s = black_box(88_172_645_463_325_252_u64);
    for _ in 0..STEPS {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
    }
    black_box(s);
    start.elapsed().as_secs_f64() * 1e9 / f64::from(STEPS)
}

/// How much slower than the reference clock this thread's core runs right
/// now (1.0 on the reference level; ~0.15 ms per reading).
pub fn factor() -> f64 {
    let fastest = (0..CHAINS).map(|_| chain()).fold(f64::INFINITY, f64::min);
    fastest / REFERENCE_NS_PER_STEP
}

/// The mean clock factor over a stretch of evenly spaced readings, its
/// first and last included (trapezoid rule: the ends count half).
pub fn level(readings: &[f64]) -> f64 {
    let (Some(first), Some(last)) = (readings.first(), readings.last()) else {
        return 1.0;
    };
    if readings.len() == 1 {
        return *first;
    }
    let sum: f64 = readings.iter().sum::<f64>() - 0.5 * (first + last);
    sum / (readings.len() - 1) as f64
}

/// Wall time of `work` at the reference clock: its measured seconds divided
/// by the clock factor read just before and just after it.
pub fn at_reference<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let before = factor();
    let start = Instant::now();
    let out = work();
    let seconds = start.elapsed().as_secs_f64();
    (out, seconds / level(&[before, factor()]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_is_a_plausible_clock_ratio() {
        // Any machine this runs on is within a factor of a few of the
        // reference, and two readings in a row agree.
        let (a, b) = (factor(), factor());
        assert!(a > 0.2 && a < 10.0, "{a}");
        assert!((a / b - 1.0).abs() < 0.3, "{a} {b}");
    }

    #[test]
    fn the_level_of_a_stretch_counts_its_ends_half() {
        assert_eq!(level(&[1.0, 2.0]), 1.5);
        assert_eq!(level(&[1.0, 2.0, 2.0, 1.0]), 5.0 / 3.0);
        assert_eq!(level(&[1.3]), 1.3);
        assert_eq!(level(&[]), 1.0);
    }

    #[test]
    fn work_is_scaled_by_the_factor_around_it() {
        let (out, seconds) = at_reference(|| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            7
        });
        assert_eq!(out, 7);
        let f = factor();
        assert!(seconds > 0.015 / (1.5 * f) && seconds < 0.2, "{seconds}");
    }
}
