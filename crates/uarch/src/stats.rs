//! Simulation statistics and energy-relevant event counters.

use lvp_json::{json_struct, pc_map};
use lvp_mem::HierarchyStats;
use std::collections::BTreeMap;

/// Dynamic counters for one static load PC, kept in [`SimStats::per_pc`].
///
/// These are what the static analyzer's cross-validation gate consumes
/// (`lvp-analysis`): `conflict_exposed` must stay zero for loads the alias
/// pass proves conflict-free, and `conflict_squashes` breaks down value
/// mispredictions attributable to in-flight stores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcLoadStats {
    /// Committed executions of this load.
    pub executions: u64,
    /// Executions that saw an older overlapping store still in flight.
    pub conflict_exposed: u64,
    /// Memory-ordering violations charged to this load.
    pub ordering_violations: u64,
    /// Value predictions injected at rename for this load.
    pub injected: u64,
    /// Injected predictions that were value-correct.
    pub correct: u64,
    /// Injected mispredictions coincident with an in-flight conflicting
    /// store (the paper's stale-value case).
    pub conflict_squashes: u64,
}

impl PcLoadStats {
    /// Adds `other`'s counters into `self` (sampled-window aggregation).
    pub fn accumulate(&mut self, other: &PcLoadStats) {
        self.executions += other.executions;
        self.conflict_exposed += other.conflict_exposed;
        self.ordering_violations += other.ordering_violations;
        self.injected += other.injected;
        self.correct += other.correct;
        self.conflict_squashes += other.conflict_squashes;
    }
}

json_struct!(PcLoadStats {
    executions,
    conflict_exposed,
    ordering_violations,
    injected,
    correct,
    conflict_squashes,
});

/// Everything the experiment harnesses need from one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    pub cycles: u64,
    pub instructions: u64,
    pub loads: u64,
    pub stores: u64,
    pub branches: u64,
    /// Conditional-branch direction mispredictions.
    pub branch_mispredicts: u64,
    /// Indirect-target (ITTAGE) mispredictions.
    pub indirect_mispredicts: u64,
    /// Return-address mispredictions.
    pub return_mispredicts: u64,
    /// Memory-ordering violations (load executed before a conflicting older
    /// store whose dependence the MDP missed).
    pub ordering_violations: u64,
    /// Loads whose execution the MDP delayed behind a predicted store.
    pub mdp_delays: u64,
    /// Sum over mispredicted branches of (resolve cycle − fetch cycle):
    /// total exposure that early resolution (e.g. via value prediction)
    /// can reduce.
    pub misp_resolve_sum: u64,

    // --- value prediction ---------------------------------------------
    /// Instructions injected with a predicted value at rename.
    pub vp_predicted: u64,
    /// Of those, predictions for load instructions.
    pub vp_predicted_loads: u64,
    /// Correct predictions.
    pub vp_correct: u64,
    /// Mispredictions that triggered a pipeline flush (Flush recovery).
    pub vp_flushes: u64,
    /// Mispredictions absorbed by oracle replay (OracleReplay recovery).
    pub vp_replays: u64,
    /// Predictions dropped because the PVT was full.
    pub vp_pvt_full: u64,
    /// Predictions dropped because the value arrived after rename.
    pub vp_late: u64,

    // --- energy events --------------------------------------------------
    /// Physical-register-file read/write port activations.
    pub prf_reads: u64,
    pub prf_writes: u64,
    /// Predicted-values-table read/write activations.
    pub pvt_reads: u64,
    pub pvt_writes: u64,
    /// Memory hierarchy counters (includes DLVP probe activity).
    pub mem: HierarchyStats,
    /// Per-load-PC breakdown (ordered map so reports are deterministic).
    pub per_pc: BTreeMap<u64, PcLoadStats>,
    /// Sampling accounting, present only for sampled runs (`None` keeps
    /// unsampled artifacts byte-identical to the pre-sampling format).
    pub sampling: Option<SamplingStats>,
}

/// What a fast-forward + sampled run did outside its detail windows.
///
/// `SimStats` counters in a sampled run cover *detail-window instructions
/// only*; this records how the rest of the stream was spent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SamplingStats {
    /// Detail windows that accumulated statistics.
    pub windows: u64,
    /// Cycle-level instructions that only warmed predictors (no stats).
    pub warmup_instructions: u64,
    /// Instructions executed functionally and skipped by the timing model
    /// (initial fast-forward plus inter-window gaps).
    pub skipped_instructions: u64,
}

json_struct!(SamplingStats {
    windows,
    warmup_instructions,
    skipped_instructions,
});

/// Typed error for statistics that relate two runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsError {
    /// The two runs executed different instruction counts, so they are not
    /// the same trace and their cycle counts are not comparable.
    TraceMismatch {
        /// Instructions in the numerator run.
        this: u64,
        /// Instructions in the baseline run.
        baseline: u64,
    },
    /// The run committed no instructions, so per-instruction ratios (IPC,
    /// coverage, accuracy) are undefined. The infallible accessors return
    /// 0.0 here; harnesses that would silently report a meaningless number
    /// should use the `try_*` variants and surface this instead.
    EmptyRun,
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::TraceMismatch { this, baseline } => write!(
                f,
                "speedup requires runs over the same trace \
                 (self executed {this} instructions, baseline {baseline})"
            ),
            StatsError::EmptyRun => {
                write!(
                    f,
                    "no instructions committed: per-instruction statistics are undefined"
                )
            }
        }
    }
}

impl std::error::Error for StatsError {}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Paper's coverage definition: predicted dynamic loads / dynamic loads.
    pub fn coverage(&self) -> f64 {
        ratio(self.vp_predicted_loads, self.loads)
    }

    /// Paper's accuracy definition: correct predictions / predictions.
    pub fn accuracy(&self) -> f64 {
        ratio(self.vp_correct, self.vp_predicted)
    }

    /// [`SimStats::ipc`] that surfaces an empty run as a typed error
    /// instead of silently returning 0.0.
    pub fn try_ipc(&self) -> Result<f64, StatsError> {
        if self.instructions == 0 || self.cycles == 0 {
            Err(StatsError::EmptyRun)
        } else {
            Ok(self.instructions as f64 / self.cycles as f64)
        }
    }

    /// [`SimStats::coverage`], erring on a run with no committed loads.
    pub fn try_coverage(&self) -> Result<f64, StatsError> {
        if self.loads == 0 {
            Err(StatsError::EmptyRun)
        } else {
            Ok(self.vp_predicted_loads as f64 / self.loads as f64)
        }
    }

    /// [`SimStats::accuracy`], erring on a run with no predictions.
    pub fn try_accuracy(&self) -> Result<f64, StatsError> {
        if self.vp_predicted == 0 {
            Err(StatsError::EmptyRun)
        } else {
            Ok(self.vp_correct as f64 / self.vp_predicted as f64)
        }
    }

    /// Speedup of `self` over a `baseline` run of the same trace.
    ///
    /// # Panics
    ///
    /// Panics if the two runs executed different instruction counts; use
    /// [`SimStats::try_speedup_over`] to handle that case gracefully.
    pub fn speedup_over(&self, baseline: &SimStats) -> f64 {
        match self.try_speedup_over(baseline) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Simulated cycles per wall-clock second for a run that took `wall_ns`
    /// of host time — the throughput number the `bench --check` regression
    /// gate watches. Zero when `wall_ns` is zero.
    pub fn sim_cycles_per_sec(&self, wall_ns: u64) -> f64 {
        if wall_ns == 0 {
            0.0
        } else {
            self.cycles as f64 / (wall_ns as f64 / 1e9)
        }
    }

    /// Fallible variant of [`SimStats::speedup_over`].
    pub fn try_speedup_over(&self, baseline: &SimStats) -> Result<f64, StatsError> {
        if self.instructions != baseline.instructions {
            return Err(StatsError::TraceMismatch {
                this: self.instructions,
                baseline: baseline.instructions,
            });
        }
        Ok(baseline.cycles as f64 / self.cycles.max(1) as f64)
    }

    /// Adds `other`'s counters into `self`: the aggregation the sampled
    /// driver uses to sum per-detail-window stats. Every counter including
    /// the memory hierarchy and the per-PC map is summed; sampling
    /// accounting merges when either side carries it.
    pub fn accumulate(&mut self, other: &SimStats) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.loads += other.loads;
        self.stores += other.stores;
        self.branches += other.branches;
        self.branch_mispredicts += other.branch_mispredicts;
        self.indirect_mispredicts += other.indirect_mispredicts;
        self.return_mispredicts += other.return_mispredicts;
        self.ordering_violations += other.ordering_violations;
        self.mdp_delays += other.mdp_delays;
        self.misp_resolve_sum += other.misp_resolve_sum;
        self.vp_predicted += other.vp_predicted;
        self.vp_predicted_loads += other.vp_predicted_loads;
        self.vp_correct += other.vp_correct;
        self.vp_flushes += other.vp_flushes;
        self.vp_replays += other.vp_replays;
        self.vp_pvt_full += other.vp_pvt_full;
        self.vp_late += other.vp_late;
        self.prf_reads += other.prf_reads;
        self.prf_writes += other.prf_writes;
        self.pvt_reads += other.pvt_reads;
        self.pvt_writes += other.pvt_writes;
        self.mem.accumulate(&other.mem);
        for (pc, pcs) in &other.per_pc {
            self.per_pc.entry(*pc).or_default().accumulate(pcs);
        }
        if let Some(theirs) = &other.sampling {
            let ours = self.sampling.get_or_insert_with(SamplingStats::default);
            ours.windows += theirs.windows;
            ours.warmup_instructions += theirs.warmup_instructions;
            ours.skipped_instructions += theirs.skipped_instructions;
        }
    }
}

/// Renders a fallible ratio (e.g. [`SimStats::try_accuracy`]) as a
/// percentage with `decimals` digits, or `"n/a"` on [`StatsError::EmptyRun`]
/// so report paths never print a meaningless `0.0%` for a run that made no
/// predictions.
pub fn fmt_pct(ratio: Result<f64, StatsError>, decimals: usize) -> String {
    match ratio {
        Ok(r) => format!("{:.*}%", decimals, r * 100.0),
        Err(_) => "n/a".to_string(),
    }
}

// The `sampling` key is written only for sampled runs, so unsampled stats
// keep their exact pre-sampling bytes. Decoding is exact — every counter
// is `u64` and `per_pc` re-enters its ordered map — so a decode/encode
// cycle reproduces the stored payload byte for byte.
json_struct!(SimStats {
    cycles,
    instructions,
    loads,
    stores,
    branches,
    branch_mispredicts,
    indirect_mispredicts,
    return_mispredicts,
    ordering_violations,
    mdp_delays,
    misp_resolve_sum,
    vp_predicted,
    vp_predicted_loads,
    vp_correct,
    vp_flushes,
    vp_replays,
    vp_pvt_full,
    vp_late,
    prf_reads,
    prf_writes,
    pvt_reads,
    pvt_writes,
    mem,
    per_pc with pc_map,
    ?sampling,
});

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_json::{FromJson, Json, ToJson};

    #[test]
    fn fmt_pct_renders_empty_runs_as_na() {
        let empty = SimStats::default();
        assert_eq!(fmt_pct(empty.try_accuracy(), 2), "n/a");
        assert_eq!(fmt_pct(empty.try_coverage(), 1), "n/a");
        let s = SimStats {
            cycles: 10,
            instructions: 10,
            loads: 4,
            vp_predicted: 8,
            vp_predicted_loads: 3,
            vp_correct: 6,
            ..SimStats::default()
        };
        assert_eq!(fmt_pct(s.try_accuracy(), 2), "75.00%");
        assert_eq!(fmt_pct(s.try_coverage(), 1), "75.0%");
    }

    #[test]
    fn derived_metrics() {
        let s = SimStats {
            cycles: 100,
            instructions: 250,
            loads: 50,
            vp_predicted: 20,
            vp_predicted_loads: 20,
            vp_correct: 19,
            ..SimStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.coverage() - 0.4).abs() < 1e-12);
        assert!((s.accuracy() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn speedup_compares_cycles() {
        let base = SimStats {
            cycles: 200,
            instructions: 100,
            ..SimStats::default()
        };
        let fast = SimStats {
            cycles: 160,
            instructions: 100,
            ..SimStats::default()
        };
        assert!((fast.speedup_over(&base) - 1.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "same trace")]
    fn speedup_rejects_mismatched_traces() {
        let a = SimStats {
            instructions: 100,
            cycles: 1,
            ..SimStats::default()
        };
        let b = SimStats {
            instructions: 101,
            cycles: 1,
            ..SimStats::default()
        };
        let _ = a.speedup_over(&b);
    }

    #[test]
    fn try_speedup_reports_trace_mismatch() {
        let a = SimStats {
            instructions: 100,
            cycles: 1,
            ..SimStats::default()
        };
        let b = SimStats {
            instructions: 101,
            cycles: 1,
            ..SimStats::default()
        };
        assert_eq!(
            a.try_speedup_over(&b),
            Err(StatsError::TraceMismatch {
                this: 100,
                baseline: 101
            })
        );
        assert!(a.try_speedup_over(&a).is_ok());
    }

    #[test]
    fn per_pc_serializes_sorted_by_pc() {
        let mut s = SimStats::default();
        s.per_pc.insert(
            0x2000,
            PcLoadStats {
                executions: 5,
                ..PcLoadStats::default()
            },
        );
        s.per_pc.insert(
            0x1000,
            PcLoadStats {
                executions: 9,
                conflict_exposed: 2,
                ..PcLoadStats::default()
            },
        );
        let j = s.to_json();
        let arr = j.get("per_pc").and_then(|v| v.as_array()).expect("array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("pc").and_then(Json::as_f64), Some(0x1000 as f64));
        assert_eq!(
            arr[0].get("conflict_exposed").and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(arr[1].get("pc").and_then(Json::as_f64), Some(0x2000 as f64));
    }

    #[test]
    fn stats_roundtrip_through_json_exactly() {
        let mut s = SimStats {
            cycles: 12345,
            instructions: 6789,
            loads: 55,
            vp_predicted: 12,
            vp_correct: 9,
            misp_resolve_sum: u64::MAX - 7,
            ..SimStats::default()
        };
        s.mem.l1d.accesses = 1000;
        s.per_pc.insert(
            0x1000,
            PcLoadStats {
                executions: 3,
                conflict_squashes: 1,
                ..PcLoadStats::default()
            },
        );
        // Unsampled: the sampling key must stay absent after a round trip.
        let text = s.to_json().pretty();
        let back = SimStats::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json().pretty(), text);
        // Sampled: the conditional key round-trips too.
        s.sampling = Some(SamplingStats {
            windows: 4,
            warmup_instructions: 2000,
            skipped_instructions: 50_000,
        });
        let text = s.to_json().pretty();
        let back = SimStats::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json().pretty(), text);
    }

    #[test]
    fn from_json_rejects_malformed_stats() {
        assert!(SimStats::from_json(&Json::Null).is_err());
        let mut j = SimStats::default().to_json();
        if let Json::Object(pairs) = &mut j {
            pairs.retain(|(k, _)| k != "per_pc");
        }
        assert!(SimStats::from_json(&j).is_err());
    }

    #[test]
    fn zero_division_is_safe() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.coverage(), 0.0);
        assert_eq!(s.accuracy(), 0.0);
    }
}
