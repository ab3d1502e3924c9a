//! Deterministic counters and fixed-bucket histograms.
//!
//! Everything here serializes via `lvp-json` with insertion-ordered keys,
//! so two identical runs produce byte-identical metrics artifacts. Bucket
//! edges are fixed at construction (no data-driven re-bucketing), which
//! keeps histograms comparable across runs and schemes.

use lvp_json::{entries, Json, ToJson};

/// A histogram over `u64` samples with fixed, strictly-ascending bucket
/// edges. Bucket `i` covers `[edges[i], edges[i+1])`; samples below
/// `edges[0]` land in the underflow bucket and samples at or above the last
/// edge in the overflow bucket, so every sample — including `u64::MAX` — is
/// counted without any overflow-prone arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    name: String,
    edges: Vec<u64>,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    samples: u64,
    /// Kept in u128 so `u64::MAX` samples cannot wrap; saturated to u64 on
    /// serialization.
    sum: u128,
    min: Option<u64>,
    max: Option<u64>,
}

impl Histogram {
    /// Creates a histogram with the given bucket edges.
    ///
    /// # Panics
    ///
    /// Panics unless `edges` has at least two strictly-ascending values.
    pub fn new(name: &str, edges: &[u64]) -> Histogram {
        assert!(edges.len() >= 2, "histogram needs at least two edges");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly ascending"
        );
        Histogram {
            name: name.to_string(),
            edges: edges.to_vec(),
            counts: vec![0; edges.len() - 1],
            underflow: 0,
            overflow: 0,
            samples: 0,
            sum: 0,
            min: None,
            max: None,
        }
    }

    /// Power-of-two edges `[0, 1, 2, 4, … , 2^(buckets-1)]` — the default
    /// shape for cycle-count distributions.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero or so large the top edge overflows u64.
    pub fn pow2(name: &str, buckets: u32) -> Histogram {
        assert!(
            (1..=63).contains(&buckets),
            "pow2 histogram needs 1..=63 buckets"
        );
        let mut edges = vec![0u64];
        for b in 0..buckets {
            edges.push(1u64 << b);
        }
        Histogram::new(name, &edges)
    }

    /// The histogram's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        self.samples += 1;
        self.sum += sample as u128;
        self.min = Some(self.min.map_or(sample, |m| m.min(sample)));
        self.max = Some(self.max.map_or(sample, |m| m.max(sample)));
        if sample < self.edges[0] {
            self.underflow += 1;
        } else if sample >= *self.edges.last().expect("edges non-empty") {
            self.overflow += 1;
        } else {
            // Last edge e with e <= sample starts the sample's bucket.
            let idx = self.edges.partition_point(|&e| e <= sample) - 1;
            self.counts[idx] += 1;
        }
    }

    /// Total samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Per-bucket counts (excluding underflow/overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples below the first edge.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the last edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Smallest recorded sample.
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Mean of recorded samples.
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }
}

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("edges", self.edges.to_json()),
            ("counts", self.counts.to_json()),
            ("underflow", self.underflow.to_json()),
            ("overflow", self.overflow.to_json()),
            ("samples", self.samples.to_json()),
            ("sum", u64::try_from(self.sum).unwrap_or(u64::MAX).to_json()),
            ("min", self.min.to_json()),
            ("max", self.max.to_json()),
        ])
    }
}

/// A registry of named counters and histograms, in insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    histograms: Vec<Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to counter `name`, creating it at zero first.
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += delta,
            None => self.counters.push((name.to_string(), delta)),
        }
    }

    /// The value of counter `name`, zero when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Registers a histogram and returns a handle to record through.
    ///
    /// # Panics
    ///
    /// Panics if a histogram with the same name is already registered.
    pub fn register(&mut self, histogram: Histogram) -> &mut Histogram {
        assert!(
            self.histograms.iter().all(|h| h.name() != histogram.name()),
            "duplicate histogram {}",
            histogram.name()
        );
        self.histograms.push(histogram);
        self.histograms.last_mut().expect("just pushed")
    }

    /// The registered histogram named `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.iter().find(|h| h.name() == name)
    }

    /// Mutable access to the registered histogram named `name`.
    pub fn histogram_mut(&mut self, name: &str) -> Option<&mut Histogram> {
        self.histograms.iter_mut().find(|h| h.name() == name)
    }

    /// All counters in insertion order.
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }
}

impl ToJson for MetricsRegistry {
    fn to_json(&self) -> Json {
        Json::obj([
            ("counters", entries::to_json(&self.counters)),
            (
                "histograms",
                Json::Array(self.histograms.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_half_open() {
        let mut h = Histogram::new("lat", &[0, 2, 4, 8]);
        for s in [0, 1, 2, 3, 4, 7] {
            h.record(s);
        }
        assert_eq!(h.counts(), &[2, 2, 2]);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.samples(), 6);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(7));
    }

    #[test]
    fn underflow_and_overflow_edges() {
        let mut h = Histogram::new("conf", &[4, 8]);
        h.record(3); // below first edge
        h.record(4); // first in-range value
        h.record(7); // last in-range value
        h.record(8); // exactly the last edge: overflow
        h.record(u64::MAX); // must not wrap anything
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.counts(), &[2]);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.max(), Some(u64::MAX));
        // Sum saturates on serialization instead of wrapping.
        let j = h.to_json();
        assert_eq!(j.get("sum"), Some(&Json::U64(u64::MAX)));
        assert_eq!(Json::parse(&j.pretty()).expect("parse"), j);
    }

    #[test]
    fn u64_max_samples_only_saturate_the_sum() {
        let mut h = Histogram::new("big", &[0, 10]);
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.overflow(), 3);
        assert_eq!(h.samples(), 3);
        // mean stays finite and huge rather than wrapped-to-small.
        assert!(h.mean() > u64::MAX as f64 / 2.0);
    }

    #[test]
    fn property_every_sample_lands_exactly_once() {
        // LCG-driven loop: for random edge sets and samples, the bucket
        // partition is exhaustive and exclusive.
        let mut lcg: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 16
        };
        for _ in 0..100 {
            let mut edges: Vec<u64> = (0..(next() % 6 + 2)).map(|_| next() % 1000).collect();
            edges.sort_unstable();
            edges.dedup();
            if edges.len() < 2 {
                continue;
            }
            let mut h = Histogram::new("p", &edges);
            let n = next() % 200;
            for _ in 0..n {
                let extreme = next() % 10 == 0;
                h.record(if extreme { u64::MAX } else { next() % 1200 });
            }
            let total: u64 = h.counts().iter().sum::<u64>() + h.underflow() + h.overflow();
            assert_eq!(total, n, "edges {edges:?}");
            assert_eq!(h.samples(), n);
        }
    }

    #[test]
    fn pow2_shape() {
        let h = Histogram::pow2("cyc", 5);
        assert_eq!(h.edges, vec![0, 1, 2, 4, 8, 16]);
        let mut h = h;
        h.record(16); // == last edge: overflow
        h.record(15);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.counts(), &[0, 0, 0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_edges() {
        let _ = Histogram::new("bad", &[4, 4]);
    }

    #[test]
    fn registry_is_insertion_ordered_and_deterministic() {
        let build = || {
            let mut m = MetricsRegistry::new();
            m.add("zeta", 1);
            m.add("alpha", 2);
            m.add("zeta", 3);
            m.register(Histogram::pow2("h1", 3)).record(2);
            m
        };
        let m = build();
        assert_eq!(m.counter("zeta"), 4);
        assert_eq!(m.counter("alpha"), 2);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.counters()[0].0, "zeta", "insertion order kept");
        assert_eq!(m.histogram("h1").map(Histogram::samples), Some(1));
        assert_eq!(build().to_json().pretty(), m.to_json().pretty());
    }

    #[test]
    #[should_panic(expected = "duplicate histogram")]
    fn registry_rejects_duplicate_histograms() {
        let mut m = MetricsRegistry::new();
        m.register(Histogram::pow2("h", 3));
        m.register(Histogram::pow2("h", 4));
    }
}
