//! Order statistics and small measurement helpers.

use std::ops::Sub;
use std::time::Duration;

/// A reading of this process's CPU clock (`CLOCK_PROCESS_CPUTIME_ID`):
/// the CPU time all its threads have used so far. Every single-threaded
/// timing of the benchmark uses it in place of wall time. On a shared
/// virtual machine the hypervisor at times runs another guest on this
/// guest's CPU ("steal"); wall time counts those stretches and CPU time
/// does not. Where nothing else runs, the two agree for single-threaded
/// work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CpuInstant(Duration);

impl CpuInstant {
    /// The process's CPU time now.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    pub fn now() -> Self {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec`.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
        Self(Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
    }

    /// Wall time since the first reading, where the CPU clock is not
    /// available.
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    pub fn now() -> Self {
        static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
        Self(START.get_or_init(std::time::Instant::now).elapsed())
    }

    /// CPU time used since `self`.
    pub fn elapsed(self) -> Duration {
        Self::now() - self
    }
}

impl Sub for CpuInstant {
    type Output = Duration;

    fn sub(self, earlier: Self) -> Duration {
        self.0.saturating_sub(earlier.0)
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by linear interpolation between
/// the closest ranks. `xs` need not be sorted; NaN-free input assumed.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The arithmetic mean of `xs` (0 for an empty sample).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Min, median and max of `xs` — the spread a timing is printed with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Smallest value.
    pub min: f64,
    /// Median value.
    pub median: f64,
    /// Largest value.
    pub max: f64,
    /// Number of values.
    pub n: usize,
}

impl Spread {
    /// The spread of `xs` (which must be non-empty).
    pub fn of(xs: &[f64]) -> Self {
        Self {
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            median: median(xs),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: xs.len(),
        }
    }
}

/// Standard normal CDF (Abramowitz & Stegun 7.1.26, |error| < 1.5e-7).
fn normal_cdf(z: f64) -> f64 {
    let x = z.abs() / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = 1.0 - poly * (-x * x).exp();
    0.5 * (1.0 + erf.copysign(z))
}

/// The Harrell–Davis estimate of the `q`-quantile of `xs`: a weighted
/// mean of the order statistics, with the weights of the Beta
/// distribution of the sample quantile (here by its normal
/// approximation, fine for the hundreds of values it is used on). It
/// varies far less than a single order statistic, and stays stable where
/// the sample splits into two clusters at the quantile.
pub fn hd_quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let sd = (q * (1.0 - q) / (n + 2.0)).sqrt();
    if sd == 0.0 {
        return quantile(xs, q);
    }
    let cdf = |i: usize| normal_cdf((i as f64 / n - q) / sd);
    let (mut sum, mut total) = (0.0, 0.0);
    for (i, x) in v.iter().enumerate() {
        let w = cdf(i + 1) - cdf(i);
        sum += w * x;
        total += w;
    }
    sum / total
}

/// A percentile of a sample, with the counts a reader needs to judge it:
/// the sample size and how many values lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile value.
    pub value: f64,
    /// Pooled sample size.
    pub samples: usize,
    /// Samples strictly above `value`.
    pub beyond: usize,
}

impl Percentile {
    /// The Harrell–Davis `q`-quantile of `xs` with its sample counts.
    pub fn of(xs: &[f64], q: f64) -> Self {
        let value = hd_quantile(xs, q);
        Self {
            value,
            samples: xs.len(),
            beyond: xs.iter().filter(|&&x| x > value).count(),
        }
    }
}

/// Least-squares slope of `y` over `x` (0 when `x` has no variance).
pub fn slope(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    let n = x.len() as f64;
    if x.is_empty() {
        return 0.0;
    }
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxx: f64 = x.iter().map(|a| (a - mx) * (a - mx)).sum();
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// The process's peak resident set (`VmHWM`) in MB, or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over 64-bit words: the bit-level fingerprint used to prove
/// repeated segments did identical work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds the bit patterns of `xs` in.
    pub fn floats(&mut self, xs: &[f64]) {
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn harrell_davis_is_smooth() {
        let xs: Vec<f64> = (0..1001).map(f64::from).collect();
        assert!((hd_quantile(&xs, 0.5) - 500.0).abs() < 1e-6);
        // Two equal clusters: the median sits between them, not on an
        // extreme of either.
        let two: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { 9.0 } else { 7.0 })
            .collect();
        assert!((hd_quantile(&two, 0.5) - 8.0).abs() < 1e-3);
        let p = Percentile::of(&xs, 0.99);
        assert!((p.value - 990.0).abs() < 1.0, "{}", p.value);
        assert_eq!((p.samples, p.beyond), (1001, 10));
    }

    #[test]
    fn cpu_clock_counts_work_not_sleep() {
        let t = CpuInstant::now();
        std::thread::sleep(Duration::from_millis(50));
        let slept = t.elapsed();
        let t = CpuInstant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(slept < Duration::from_millis(20), "{slept:?}");
        assert!(t.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn slope_fits_a_line() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [1.0, 3.0, 5.0, 7.0];
        assert_eq!(slope(&x, &y), 2.0);
        assert_eq!(slope(&[1.0, 1.0], &[2.0, 5.0]), 0.0);
    }
}
