//! Machine fingerprint and roofline calibration.
//!
//! Results are only comparable between runs with the same fingerprint.
//! The two ceilings, L1-resident `smda_stats::dot` GFLOP/s and streaming
//! read GB/s over an array of at least 4× the last-level cache, are
//! measured once per run and are the denominators of the `*_share`
//! per-layer metrics.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// What the results were measured on.
pub struct Fingerprint {
    pub cpu: String,
    pub nproc: usize,
    pub avx2: bool,
    pub avx512f: bool,
    pub avx2_active: bool,
    pub fused_enabled: bool,
    pub llc_bytes: u64,
}

impl Fingerprint {
    pub fn probe() -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
                .unwrap_or_default()
        };
        let flags = field("flags");
        let has = |f: &str| flags.split_whitespace().any(|x| x == f);
        Fingerprint {
            cpu: field("model name"),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            avx2: has("avx2"),
            avx512f: has("avx512f"),
            avx2_active: smda_stats::simd::active_tier() == smda_stats::simd::SimdTier::Avx2,
            fused_enabled: smda_stats::fused_enabled(),
            llc_bytes: llc_bytes(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu\":\"{}\",\"nproc\":{},\"avx2\":{},\"avx512f\":{},\"simd.avx2_active\":{},\"simd.fused_enabled\":{},\"llc_bytes\":{}}}",
            self.cpu.replace('"', "'"),
            self.nproc,
            self.avx2,
            self.avx512f,
            self.avx2_active,
            self.fused_enabled,
            self.llc_bytes
        )
    }
}

/// Largest cache size the kernel reports for CPU 0 (the LLC).
fn llc_bytes() -> u64 {
    let mut best = 0;
    for i in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let t = text.trim();
        let (num, mult) = match t.strip_suffix('K') {
            Some(n) => (n, 1024),
            None => match t.strip_suffix('M') {
                Some(n) => (n, 1024 * 1024),
                None => (t, 1),
            },
        };
        best = best.max(num.parse::<u64>().unwrap_or(0) * mult);
    }
    best
}

/// Single-thread GFLOP/s of the dispatched `dot` on two 512-element
/// rows (8 KiB, resident in L1): median of seven timed batches.
pub fn dot_gflops() -> f64 {
    let a: Vec<f64> = (0..512).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
    let b: Vec<f64> = (0..512).map(|i| 0.5 + (i % 5) as f64 * 0.25).collect();
    let reps = 20_000;
    let mut samples = Vec::new();
    for _ in 0..7 {
        let start = Instant::now();
        let mut acc = 0.0;
        for _ in 0..reps {
            acc += smda_stats::dot(black_box(&a), black_box(&b));
        }
        black_box(acc);
        let secs = start.elapsed().as_secs_f64();
        samples.push(2.0 * 512.0 * reps as f64 / secs / 1e9);
    }
    median(&samples)
}

/// Single-thread read bandwidth, GB/s, summing an array of at least
/// 4× the LLC (64 MiB minimum, 1 GiB maximum): median of five passes
/// after one pass that faults the pages in.
pub fn stream_gb_per_s(llc_bytes: u64) -> f64 {
    let bytes = (4 * llc_bytes).clamp(64 << 20, 1 << 30) as usize;
    let v: Vec<f64> = vec![1.0; bytes / 8];
    let mut samples = Vec::new();
    for pass in 0..6 {
        let start = Instant::now();
        let mut lanes = [0.0f64; 4];
        for chunk in black_box(&v).chunks_exact(4) {
            for (l, x) in lanes.iter_mut().zip(chunk) {
                *l += x;
            }
        }
        black_box(lanes);
        let secs = start.elapsed().as_secs_f64();
        if pass > 0 {
            samples.push(bytes as f64 / secs / 1e9);
        }
    }
    median(&samples)
}
