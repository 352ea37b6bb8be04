//! Process-level readings: memory high-water mark, hardware threads, and
//! the benchmark-owned calibration loop.

use crate::stats::median;
use std::time::Instant;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB, or
/// `None` where `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One pass of the calibration kernel: a fixed integer-and-float loop that
/// calls nothing outside this file, so its time tracks machine speed only.
fn calib_pass(iters: u64) -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0f64;
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += ((x >> 11) as f64) * 1e-16 + (i as f64).sqrt() * 1e-9;
    }
    std::hint::black_box(acc)
}

/// Iterations of one calibration pass (~15 ms on a 2020s x86 core).
const CALIB_ITERS: u64 = 8_000_000;

/// Calibration time that defines the reference machine speed the
/// end-to-end timings are restated at, milliseconds.
const CALIB_REF_MS: f64 = 20.0;

/// Median wall milliseconds of 11 calibration passes.
pub fn calib_ms() -> f64 {
    calib_median_ms(11)
}

/// The host's speed now, relative to the reference: `CALIB_REF_MS` over
/// the median of 3 calibration passes. End-to-end runs take it just
/// before each timed sample, while the worker pool is parked, and
/// multiply the sample's seconds by it (or divide its rate by it).
pub fn speed() -> f64 {
    CALIB_REF_MS / calib_median_ms(3)
}

fn calib_median_ms(passes: usize) -> f64 {
    let samples: Vec<f64> = (0..passes)
        .map(|_| {
            let t = Instant::now();
            calib_pass(CALIB_ITERS);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Tracing overhead on the calibration loop: the loop split into many
/// short chunks, run with and without a span recorded around each chunk.
/// Returns `traced ÷ untraced` wall time (1.0 = free), medians of 7.
pub fn trace_overhead_ratio() -> f64 {
    const CHUNKS: usize = 4_000;
    let per_chunk = CALIB_ITERS / CHUNKS as u64;
    let mut ratios = Vec::new();
    for _ in 0..7 {
        let t = Instant::now();
        for _ in 0..CHUNKS {
            calib_pass(per_chunk);
        }
        let plain = t.elapsed().as_secs_f64();
        let mut tr = crate::trace::Tracer::new();
        let t = Instant::now();
        for c in 0..CHUNKS {
            let s = tr.begin("bench.calib_chunk", c as u64);
            calib_pass(per_chunk);
            tr.end(s);
        }
        let traced = t.elapsed().as_secs_f64();
        std::hint::black_box(tr.len());
        ratios.push(traced / plain);
    }
    median(&ratios)
}
