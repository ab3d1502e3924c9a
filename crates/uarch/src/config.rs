//! Core configuration (paper Table 4) and misprediction-recovery policy.

use lvp_json::{json_enum, json_struct};
use lvp_mem::HierarchyConfig;

/// Which conditional-branch direction predictor the core uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchPredictorKind {
    /// The paper's baseline: 32KB-class TAGE.
    Tage,
    /// A weaker gshare, for branch-sensitivity studies (value prediction
    /// recovers more when branch resolution is the bottleneck).
    Gshare,
}

/// Value-misprediction recovery policy (paper §5.2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Squash everything younger than the mispredicted load and refetch
    /// (the paper's default microarchitecture, after Perais & Seznec).
    Flush,
    /// The paper's oracle-replay approximation: "treat value mispredictions
    /// as if the load was never predicted in the first place" — mispredicted
    /// loads get no prediction and no penalty.
    OracleReplay,
}

/// Baseline core parameters. Defaults reproduce paper Table 4 (Skylake-like).
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// In-order front-end width (fetch through rename), instructions/cycle.
    pub frontend_width: u32,
    /// Out-of-order width (issue through commit), instructions/cycle.
    pub backend_width: u32,
    /// Execution lanes supporting load/store operations.
    pub ls_lanes: u32,
    /// Generic execution lanes.
    pub generic_lanes: u32,
    pub rob_entries: usize,
    pub iq_entries: usize,
    pub ldq_entries: usize,
    pub stq_entries: usize,
    /// Physical register file size.
    pub physical_regs: usize,
    /// Cycles from the first fetch stage to rename (fetch 5 + decode 3, as
    /// in the Cortex-A72-style pipeline of §3.2.2).
    pub fetch_to_rename: u32,
    /// Fetch/decode buffer capacity in instructions: fetch may run at most
    /// this far ahead of rename. Bounds how early DLVP's speculative probes
    /// can happen relative to the commit stream.
    pub fetch_buffer: usize,
    /// Cycles from rename to the earliest possible issue (RF access,
    /// allocate, issue). Together with 1 AGU cycle + 1 this yields the
    /// 13-cycle fetch-to-execute depth of Table 4.
    pub rename_to_issue: u32,
    /// Extra cycles charged on a value misprediction before the flush (the
    /// paper's 1-cycle check-and-confirm penalty).
    pub value_check_penalty: u32,
    /// Recovery policy for value mispredictions.
    pub recovery: RecoveryMode,
    /// Conditional-branch direction predictor.
    pub branch_predictor: BranchPredictorKind,
    /// Model a finite BTB for taken direct branches (`None` = perfect BTB,
    /// the default; Table 4 does not size one). A BTB miss on a taken
    /// branch redirects the front-end at resolve even when the direction
    /// was right.
    pub btb: Option<lvp_branch::BtbConfig>,
    /// Maximum value predictions injected per cycle (the paper's PVT has two
    /// write ports).
    pub vp_per_cycle: u32,
    /// Predicted Values Table capacity (paper §3.2.1: 32 entries).
    pub pvt_entries: usize,
    /// Memory hierarchy parameters.
    pub mem: HierarchyConfig,
    /// Execution latencies by class.
    pub lat_int_alu: u32,
    pub lat_int_mul: u32,
    pub lat_int_div: u32,
    pub lat_fp_alu: u32,
    pub lat_fp_div: u32,
    pub lat_branch: u32,
    /// Store-to-load forwarding latency.
    pub lat_forward: u32,
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig {
            frontend_width: 4,
            backend_width: 8,
            ls_lanes: 2,
            generic_lanes: 6,
            rob_entries: 224,
            iq_entries: 97,
            ldq_entries: 72,
            stq_entries: 56,
            physical_regs: 348,
            fetch_to_rename: 8,
            fetch_buffer: 48,
            rename_to_issue: 3,
            value_check_penalty: 1,
            recovery: RecoveryMode::Flush,
            branch_predictor: BranchPredictorKind::Tage,
            btb: None,
            vp_per_cycle: 2,
            pvt_entries: 32,
            mem: HierarchyConfig::default(),
            lat_int_alu: 1,
            lat_int_mul: 3,
            lat_int_div: 12,
            lat_fp_alu: 3,
            lat_fp_div: 12,
            lat_branch: 1,
            lat_forward: 2,
        }
    }
}

impl CoreConfig {
    /// The fetch-to-execute depth implied by the pipeline segments (Table 4
    /// quotes 13 cycles for the baseline).
    pub fn fetch_to_execute(&self) -> u32 {
        // fetch..rename + rename..issue + AGU/dispatch + first execute cycle
        self.fetch_to_rename + self.rename_to_issue + 2
    }
}

json_enum!(RecoveryMode {
    Flush => "flush",
    OracleReplay => "oracle_replay",
});

json_enum!(BranchPredictorKind {
    Tage => "tage",
    Gshare => "gshare",
});

json_struct!(CoreConfig {
    frontend_width,
    backend_width,
    ls_lanes,
    generic_lanes,
    rob_entries,
    iq_entries,
    ldq_entries,
    stq_entries,
    physical_regs,
    fetch_to_rename,
    fetch_buffer,
    rename_to_issue,
    value_check_penalty,
    recovery,
    branch_predictor,
    btb with btb_json,
    vp_per_cycle,
    pvt_entries,
    mem,
    lat_int_alu,
    lat_int_mul,
    lat_int_div,
    lat_fp_alu,
    lat_fp_div,
    lat_branch,
    lat_forward,
});

/// The optional BTB's codec (`null` = perfect BTB). `BtbConfig` lives in
/// lvp-branch, which has no JSON dependency.
mod btb_json {
    use lvp_branch::BtbConfig;
    use lvp_json::{DecodeError, Fields, Json, ToJson};

    pub fn to_json(btb: &Option<BtbConfig>) -> Json {
        match btb {
            None => Json::Null,
            Some(b) => Json::obj([("entries", b.entries.to_json()), ("ways", b.ways.to_json())]),
        }
    }

    pub fn from_json(j: &Json) -> Result<Option<BtbConfig>, DecodeError> {
        if *j == Json::Null {
            return Ok(None);
        }
        let f = Fields::of(j)?;
        Ok(Some(BtbConfig {
            entries: f.req("entries")?,
            ways: f.req("ways")?,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table4() {
        let c = CoreConfig::default();
        assert_eq!(c.frontend_width, 4);
        assert_eq!(c.backend_width, 8);
        assert_eq!(c.rob_entries, 224);
        assert_eq!(c.iq_entries, 97);
        assert_eq!(c.ldq_entries, 72);
        assert_eq!(c.stq_entries, 56);
        assert_eq!(c.physical_regs, 348);
        assert_eq!(c.ls_lanes + c.generic_lanes, 8);
        assert_eq!(c.fetch_to_execute(), 13);
        assert_eq!(c.recovery, RecoveryMode::Flush);
    }
}
