//! The one timing harness (std-only; the offline build environment has no
//! `criterion`): median wall time per iteration over several samples, after
//! a discarded warm-up. The `bench` regression gate times every cell with
//! [`BenchPolicy::measure`] and compares the medians, and the cells' exact
//! deterministic counters, against its committed baseline.
//!
//! ```
//! use lvp_bench::microbench::BenchPolicy;
//! let m = BenchPolicy::default().measure(|| std::hint::black_box(40 + 2));
//! assert!(m.min <= m.median && m.median <= m.max);
//! ```

use std::time::{Duration, Instant};

/// Measurement settings: median-of-`samples` with warm-up discard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchPolicy {
    /// Timed samples; the gate clamps it to >= 5 ([`BenchPolicy::normalized`])
    /// so the median is taken over a real distribution, never a best-of-few.
    pub samples: usize,
    /// Warm-up wall-clock: iterations run and **discarded** before timing,
    /// so caches, branch predictors and the allocator settle first.
    pub warmup: Duration,
    /// Minimum wall-clock per timed sample; the warm-up pass picks an
    /// iteration count that reaches it.
    pub min_sample: Duration,
}

impl Default for BenchPolicy {
    fn default() -> BenchPolicy {
        BenchPolicy {
            samples: 5,
            warmup: Duration::from_millis(100),
            min_sample: Duration::from_millis(30),
        }
    }
}

impl BenchPolicy {
    /// Enforces the N >= 5 floor.
    pub fn normalized(mut self) -> BenchPolicy {
        self.samples = self.samples.max(5);
        self
    }

    /// Times `f`: warm-up (discarded), then `samples` timed samples of a
    /// fixed iteration count each.
    pub fn measure<T>(&self, mut f: impl FnMut() -> T) -> Measurement {
        // Warm-up: also discovers a per-sample iteration count so that each
        // sample lasts at least `min_sample`.
        let warm_start = Instant::now();
        let mut iters_per_sample = 0u64;
        let mut one = Duration::ZERO;
        while warm_start.elapsed() < self.warmup || iters_per_sample == 0 {
            let t = Instant::now();
            std::hint::black_box(f());
            one = t.elapsed();
            iters_per_sample += 1;
        }
        let per_iter = one.max(Duration::from_nanos(1));
        let iters = (self.min_sample.as_nanos() / per_iter.as_nanos()).max(1) as u64;

        let mut times: Vec<Duration> = (0..self.samples.max(1))
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                t.elapsed() / iters as u32
            })
            .collect();
        times.sort_unstable();
        Measurement {
            median: times[times.len() / 2],
            min: times[0],
            max: times[times.len() - 1],
            samples: times.len(),
            iters_per_sample: iters,
        }
    }
}

/// The result of one [`BenchPolicy::measure`]: median-of-N per-iteration
/// wall time with the sample extremes (warm-up iterations already
/// discarded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measurement {
    pub median: Duration,
    pub min: Duration,
    pub max: Duration,
    /// Timed samples taken (the N of median-of-N).
    pub samples: usize,
    /// Iterations per timed sample, chosen during warm-up.
    pub iters_per_sample: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        // The workload must defeat const-folding, or the measured median can
        // round to zero in release builds.
        let policy = BenchPolicy {
            samples: 3,
            warmup: Duration::from_millis(5),
            min_sample: Duration::from_millis(1),
        };
        let m = policy.measure(|| {
            (0..std::hint::black_box(10_000u64))
                .fold(0u64, |a, b| a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        });
        assert!(m.median > Duration::ZERO);
        assert_eq!(m.samples, 3);
        assert!(m.min <= m.median && m.median <= m.max);
    }
}
