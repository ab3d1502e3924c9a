//! Address/value repeatability profiling (paper Figure 2).
//!
//! For every dynamic load we count, per static load, how many times its
//! current address (and, separately, its current first-chunk value) has been
//! observed by that static load so far — "how often an address or value
//! repeats" (paper §1). The x-axis thresholds follow the figure: a load
//! whose address has been seen ≥ 8 times is one an address predictor with
//! confidence 8 could have covered, which is the basis of the paper's
//! 91%-addresses-at-8 vs 80%-values-at-64 comparison.

use crate::record::TraceRecord;
use std::collections::HashMap;

/// The repeat thresholds reported on Figure 2's x-axis.
pub const THRESHOLDS: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Histogram of dynamic loads by address/value repeat count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepeatProfile {
    /// Total dynamic loads.
    pub loads: u64,
    /// `addr_ge[i]` = dynamic loads whose address had been observed at least
    /// `THRESHOLDS[i]` times (including the current observation).
    pub addr_ge: [u64; THRESHOLDS.len()],
    /// Same for the loaded value.
    pub value_ge: [u64; THRESHOLDS.len()],
}

impl RepeatProfile {
    /// Fraction of loads whose address repeat count ≥ `THRESHOLDS[i]`.
    pub fn addr_fraction(&self, i: usize) -> f64 {
        frac(self.addr_ge[i], self.loads)
    }

    /// Fraction of loads whose value repeat count ≥ `THRESHOLDS[i]`.
    pub fn value_fraction(&self, i: usize) -> f64 {
        frac(self.value_ge[i], self.loads)
    }

    /// Merges another profile into this one (for cross-workload averages).
    pub fn merge(&mut self, other: &RepeatProfile) {
        self.loads += other.loads;
        for i in 0..THRESHOLDS.len() {
            self.addr_ge[i] += other.addr_ge[i];
            self.value_ge[i] += other.value_ge[i];
        }
    }

    /// Index of a threshold value within [`THRESHOLDS`].
    pub fn threshold_index(t: u32) -> Option<usize> {
        THRESHOLDS.iter().position(|&x| x == t)
    }
}

/// Builds a [`RepeatProfile`] one record at a time, in program order.
#[derive(Debug, Clone, Default)]
pub struct RepeatProfiler {
    /// (static load pc, address) -> times observed
    addr_seen: HashMap<(u64, u64), u32>,
    /// (static load pc, first value chunk) -> times observed
    value_seen: HashMap<(u64, u64), u32>,
    profile: RepeatProfile,
}

impl RepeatProfiler {
    /// Profiles the next record of the stream.
    pub fn push(&mut self, rec: &TraceRecord) {
        let Some(lv) = rec.as_load() else { return };
        let out = &mut self.profile;
        out.loads += 1;
        let a = self.addr_seen.entry((lv.pc, lv.addr)).or_insert(0);
        *a = a.saturating_add(1);
        let v = self.value_seen.entry((lv.pc, lv.value)).or_insert(0);
        *v = v.saturating_add(1);
        for (i, &t) in THRESHOLDS.iter().enumerate() {
            if *a >= t {
                out.addr_ge[i] += 1;
            }
            if *v >= t {
                out.value_ge[i] += 1;
            }
        }
    }

    /// The profile of every record pushed so far.
    pub fn finish(&self) -> RepeatProfile {
        self.profile.clone()
    }
}

fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::test_util::load;
    use crate::Trace;

    fn profile(t: &Trace) -> RepeatProfile {
        let mut p = RepeatProfiler::default();
        for r in t.records() {
            p.push(r);
        }
        p.finish()
    }

    #[test]
    fn constant_address_and_value_counts_grow() {
        let t: Trace = (0..10).map(|_| load(0x10, 0x800, 5)).collect();
        let p = profile(&t);
        assert_eq!(p.loads, 10);
        // occurrence counts 1..=10; loads with count >= 4 are instances
        // 4..=10 = 7 of them
        let i4 = RepeatProfile::threshold_index(4).unwrap();
        assert_eq!(p.addr_ge[i4], 7);
        assert_eq!(p.value_ge[i4], 7);
        let i8 = RepeatProfile::threshold_index(8).unwrap();
        assert_eq!(p.addr_ge[i8], 3);
    }

    #[test]
    fn cyclic_addresses_accumulate_across_passes() {
        // A load striding over 4 slots, repeated 8 passes: by the last
        // passes every address has been seen many times, even though
        // consecutive instances always differ.
        let t: Trace = (0..32)
            .map(|i| load(0x10, 0x800 + (i % 4) * 8, i))
            .collect();
        let p = profile(&t);
        let i4 = RepeatProfile::threshold_index(4).unwrap();
        // Address occurrence reaches 4 on pass 4: instances 12..31 = 20.
        assert_eq!(p.addr_ge[i4], 20);
        // Values never repeat.
        let i2 = RepeatProfile::threshold_index(2).unwrap();
        assert_eq!(p.value_ge[i2], 0);
        assert!(p.addr_fraction(i4) > p.value_fraction(i2));
    }

    #[test]
    fn stable_value_varying_address() {
        let t: Trace = (0..16).map(|i| load(0x10, 0x800 + i * 64, 42)).collect();
        let p = profile(&t);
        let i8 = RepeatProfile::threshold_index(8).unwrap();
        assert_eq!(p.addr_ge[i8], 0);
        assert_eq!(
            p.value_ge[i8], 9,
            "value 42 seen 8+ times from instance 8 on"
        );
    }

    #[test]
    fn distinct_static_loads_tracked_separately() {
        let mut recs = Vec::new();
        for _ in 0..4 {
            recs.push(load(0x10, 0x800, 1));
            recs.push(load(0x20, 0x800, 1));
        }
        let t: Trace = recs.into_iter().collect();
        let p = profile(&t);
        let i4 = RepeatProfile::threshold_index(4).unwrap();
        assert_eq!(p.addr_ge[i4], 2, "each pc reaches count 4 exactly once");
    }

    #[test]
    fn merge_accumulates() {
        let t: Trace = (0..4).map(|_| load(0x10, 0x800, 5)).collect();
        let p1 = profile(&t);
        let mut m = RepeatProfile::default();
        m.merge(&p1);
        m.merge(&p1);
        assert_eq!(m.loads, 8);
        assert_eq!(m.addr_ge[0], 2 * p1.addr_ge[0]);
    }

    #[test]
    fn every_load_counts_at_threshold_one() {
        let t: Trace = (0..5)
            .map(|i| load(0x10 + i * 4, 0x800 + i * 64, i))
            .collect();
        let p = profile(&t);
        assert_eq!(p.addr_ge[0], 5);
        assert_eq!(p.value_ge[0], 5);
        assert_eq!(p.addr_fraction(0), 1.0);
    }
}
