//! The one timing harness (std-only; the offline build environment has no
//! `criterion`): median wall time per iteration over several samples, after
//! a discarded warm-up. The `bench` regression gate times every cell with
//! [`BenchPolicy::measure`]; [`Bench`] prints the same measurement for the
//! cargo benches under `benches/`.
//!
//! ```no_run
//! use lvp_bench::microbench::Bench;
//! Bench::new("example").elements(1000).run(|| std::hint::black_box(40 + 2));
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

/// One named, printed measurement under the default [`BenchPolicy`].
pub struct Bench {
    name: String,
    elements: Option<u64>,
}

impl Bench {
    pub fn new(name: impl Into<String>) -> Bench {
        Bench {
            name: name.into(),
            elements: None,
        }
    }

    /// Report per-element throughput (e.g. trace records per second).
    pub fn elements(mut self, n: u64) -> Bench {
        self.elements = Some(n);
        self
    }

    /// Measures `f` and prints `name: median time [min .. max]`. Returns
    /// the median per-iteration time.
    pub fn run<T>(self, f: impl FnMut() -> T) -> Duration {
        let m = BenchPolicy::default().measure(f);
        match self.elements {
            Some(n) if m.median > Duration::ZERO => {
                let rate = n as f64 / m.median.as_secs_f64();
                println!(
                    "{:<28} {:>12?} [{:?} .. {:?}]  {:.1} Melem/s",
                    self.name,
                    m.median,
                    m.min,
                    m.max,
                    rate / 1e6
                );
            }
            _ => println!(
                "{:<28} {:>12?} [{:?} .. {:?}]",
                self.name, m.median, m.min, m.max
            ),
        }
        m.median
    }
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
