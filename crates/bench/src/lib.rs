//! Shared workload builders and timing helpers for the `repro`
//! figure/table harness. (Performance is measured by the ledger under
//! `bench/`, against the real processes.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Random bucket-count series `(u, v)` with `m` buckets: `u_i` uniform
/// in `[1, max_u]`, `v_i` uniform in `[0, u_i]`. This is the Figure
/// 10/11 workload: the optimizers only ever see bucket counts, so their
/// running time depends on `M` alone.
pub fn random_uv(m: usize, max_u: u64, seed: u64) -> (Vec<u64>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let u: Vec<u64> = (0..m).map(|_| rng.gen_range(1..=max_u)).collect();
    let v: Vec<u64> = u.iter().map(|&ui| rng.gen_range(0..=ui)).collect();
    (u, v)
}

/// Random bucket series with a planted confident band in the middle
/// third: inside the band `v_i ≈ conf_in·u_i`, outside `v_i ≈
/// conf_out·u_i`. Gives the optimizers something meaningful to find
/// while keeping the workload size-controlled.
pub fn planted_uv(
    m: usize,
    max_u: u64,
    conf_in: f64,
    conf_out: f64,
    seed: u64,
) -> (Vec<u64>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let band = (m / 3)..(2 * m / 3);
    let u: Vec<u64> = (0..m).map(|_| rng.gen_range(1..=max_u)).collect();
    let v: Vec<u64> = u
        .iter()
        .enumerate()
        .map(|(i, &ui)| {
            let p = if band.contains(&i) { conf_in } else { conf_out };
            let mut hits = 0;
            for _ in 0..ui {
                hits += rng.gen_bool(p) as u64;
            }
            hits
        })
        .collect();
    (u, v)
}

/// Times one closure invocation.
pub fn time_once<T>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Times `f` repeatedly until `min_total` elapses (at least once) and
/// returns the minimum observed duration — a low-variance point
/// estimate for the repro tables.
pub fn time_best_of(min_total: Duration, mut f: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
        if start.elapsed() >= min_total {
            return best;
        }
    }
}

/// Formats a duration in adaptive units for table output.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_uv_invariants() {
        let (u, v) = random_uv(500, 20, 3);
        assert_eq!(u.len(), 500);
        assert!(u.iter().all(|&x| (1..=20).contains(&x)));
        assert!(u.iter().zip(&v).all(|(&ui, &vi)| vi <= ui));
        // Deterministic.
        assert_eq!(random_uv(500, 20, 3), (u, v));
    }

    #[test]
    fn planted_uv_band_is_denser() {
        let (u, v) = planted_uv(300, 50, 0.9, 0.1, 7);
        let conf = |r: std::ops::Range<usize>| {
            v[r.clone()].iter().sum::<u64>() as f64 / u[r].iter().sum::<u64>() as f64
        };
        assert!(conf(100..200) > 0.8);
        assert!(conf(0..100) < 0.2);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00 ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7.0 µs");
    }

    #[test]
    fn timers_run() {
        let (out, d) = time_once(|| 41 + 1);
        assert_eq!(out, 42);
        assert!(d < Duration::from_secs(1));
        let best = time_best_of(Duration::from_millis(1), || {
            std::hint::black_box(1 + 1);
        });
        assert!(best < Duration::from_millis(1));
    }
}
