//! The unified experiment configuration: one validated aggregate of every
//! knob a simulation run depends on.
//!
//! Historically each figure binary hand-wired its own `CoreConfig` +
//! predictor configs; [`SimConfig`] replaces that with a single record the
//! scheme registry (`dlvp::SchemeKind::build`) and the experiment specs
//! consume. The predictor configuration *types* live here (they are pure
//! data; the predictors themselves live in the `dlvp` crate, which
//! re-exports these under their historical paths) so that one crate owns
//! the whole configuration surface.
//!
//! Three capabilities come with the aggregate:
//!
//! * [`SimConfig::validate`] rejects contradictory configurations (a fetch
//!   buffer smaller than the front-end width, a zero-entry PAQ or APT, …)
//!   with a typed [`ConfigError`] instead of silently simulating nonsense;
//! * [`SimConfig::preset`] names every configuration the experiments use —
//!   the paper Table 4 baseline plus each ablation variant — so a spec can
//!   reference `"no_lscd"` instead of re-deriving the override;
//! * lossless `lvp-json` round-trip: the one `json_struct!` declaration
//!   per record generates both `ToJson` and its inverse `FromJson`.

use crate::config::{BranchPredictorKind, CoreConfig, RecoveryMode};
use lvp_branch::GlobalHistory;
use lvp_json::{json_enum, json_struct};

// ---------------------------------------------------------------------------
// Predictor configuration records (re-exported by `dlvp` under their
// historical paths).
// ---------------------------------------------------------------------------

/// Address-width flavour (paper Table 1: 32-bit ARMv7 or 49-bit ARMv8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrWidth {
    /// 32-bit addresses (ARMv7).
    A32,
    /// 49-bit addresses (ARMv8).
    A49,
}

impl AddrWidth {
    /// Memory-address field width in bits.
    pub fn bits(self) -> u32 {
        match self {
            AddrWidth::A32 => 32,
            AddrWidth::A49 => 49,
        }
    }
}

/// APT allocation policy on a tag miss (paper §3.1.1 "Training on an APT
/// Miss"). The paper's experiments found Policy-2 superior: "entries with
/// high confidence can survive eviction".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocPolicy {
    /// Policy-1: a new entry always replaces the probed entry.
    Always,
    /// Policy-2: allocate only when the probed entry's confidence is zero;
    /// otherwise decrement it.
    RespectConfidence,
}

/// PAP configuration (defaults = paper Table 4 DLVP row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PapConfig {
    /// APT entries (direct-mapped; paper: 1k).
    pub entries: usize,
    /// Tag width in bits (paper Table 1: 14).
    pub tag_bits: u32,
    /// Load-path history register width (paper Table 4: 16).
    pub history_bits: u32,
    /// Address width flavour.
    pub addr_width: AddrWidth,
    /// Track the cache way for probe-energy reduction (Table 1 optional
    /// field).
    pub way_prediction: bool,
    /// Allocation policy on APT miss.
    pub alloc_policy: AllocPolicy,
    /// Confidence FPC probability-denominator vector. The paper's design
    /// point is {1, 2, 4} (~8 observations); sweeping this trades accuracy
    /// for coverage (§5.2.4's future-work knob).
    pub fpc_denoms: [u32; 3],
    /// Apply the paper's §3.1.2 training rule on an address mismatch
    /// (reset confidence and reallocate the entry). `true` is correct
    /// behaviour; setting `false` *injects a bug* — the entry keeps its old
    /// address and confidence — used by the cross-validation gate tests to
    /// prove the gate detects a broken predictor.
    pub train_reset_on_mismatch: bool,
}

impl Default for PapConfig {
    fn default() -> PapConfig {
        PapConfig {
            entries: 1024,
            tag_bits: 14,
            history_bits: 16,
            addr_width: AddrWidth::A49,
            way_prediction: true,
            alloc_policy: AllocPolicy::RespectConfidence,
            fpc_denoms: [1, 2, 4],
            train_reset_on_mismatch: true,
        }
    }
}

/// CAP configuration (defaults = paper Table 4 CAP row, confidence swept in
/// the experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapConfig {
    /// Entries in each of the two tables.
    pub entries: usize,
    pub tag_bits: u32,
    /// Per-load address history width.
    pub history_bits: u32,
    /// Consecutive correct link lookups required before predicting
    /// (the paper's original CAP used 3; the paper sweeps 3..64 in Fig 4 and
    /// uses 24 for the DLVP-with-CAP runs).
    pub confidence: u32,
    /// Link field width for the budget calculation (24 for ARMv7, 41 for
    /// ARMv8).
    pub link_bits: u32,
}

impl Default for CapConfig {
    fn default() -> CapConfig {
        CapConfig {
            entries: 1024,
            tag_bits: 14,
            history_bits: 16,
            confidence: 8,
            link_bits: 41,
        }
    }
}

/// Which instructions VTAGE targets (Figure 7's x-axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VtageTargets {
    /// Predict load instructions only (the paper's winning choice at an
    /// 8KB-class budget).
    LoadsOnly,
    /// Predict every value-producing instruction.
    AllInstructions,
}

/// Opcode filter flavour (Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VtageFilter {
    /// Unmodified VTAGE.
    Vanilla,
    /// Track per-opcode-type accuracy; block types under 95%.
    Dynamic,
    /// Preloaded with the multi-destination types (LDP, LDM, VLD).
    Static,
}

/// VTAGE configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct VtageConfig {
    /// Entries per table (paper: 256).
    pub entries: usize,
    /// Tag bits (paper: 16).
    pub tag_bits: u32,
    /// Global branch history lengths, shortest first (paper: {0, 5, 13}).
    pub histories: Vec<u32>,
    pub targets: VtageTargets,
    pub filter: VtageFilter,
    /// Whether multi-destination loads get one predictor entry per 64-bit
    /// chunk (the paper's §5.2.2 adjustment). Unmodified ("vanilla") VTAGE
    /// has one entry per instruction and effectively predicts only the
    /// first chunk — mispredicting any other chunk of an LDP/LDM/VLD.
    pub chunk_aware: bool,
    /// Dynamic-filter accuracy floor.
    pub filter_threshold: f64,
    /// Dynamic-filter minimum samples before blocking.
    pub filter_warmup: u64,
}

impl Default for VtageConfig {
    fn default() -> VtageConfig {
        VtageConfig {
            entries: 256,
            tag_bits: 16,
            histories: vec![0, 5, 13],
            targets: VtageTargets::LoadsOnly,
            filter: VtageFilter::Static,
            filter_threshold: 0.95,
            filter_warmup: 64,
            chunk_aware: true,
        }
    }
}

/// DLVP engine configuration (paper §3.2; defaults = Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DlvpConfig {
    /// Generate a prefetch when a probe misses the L1D (Figure 5 toggles
    /// this).
    pub prefetch_on_miss: bool,
    /// Use the LSCD in-flight-conflict filter.
    pub use_lscd: bool,
    /// Probe a single predicted way instead of the whole set.
    pub way_prediction: bool,
    /// Address predictions per fetch group (paper: 2).
    pub max_per_group: u32,
    /// PAQ capacity (paper: 32).
    pub paq_entries: usize,
    /// PAQ probe deadline in cycles (the paper's N = 4).
    pub paq_window: u64,
    /// `true` *injects a bug* for cross-validation testing: the LSCD also
    /// captures loads whose prediction validated cleanly, so statically
    /// conflict-free loads get suppressed (gate rule R7 must catch this).
    pub inject_lscd_bug: bool,
}

impl Default for DlvpConfig {
    fn default() -> DlvpConfig {
        DlvpConfig {
            prefetch_on_miss: true,
            use_lscd: true,
            way_prediction: true,
            max_per_group: 2,
            paq_entries: 32,
            paq_window: 4,
            inject_lscd_bug: false,
        }
    }
}

// ---------------------------------------------------------------------------
// The aggregate
// ---------------------------------------------------------------------------

/// Everything one simulation run depends on: the core model plus the
/// configuration of every scheme the registry can build. Schemes read only
/// their own section, so a single `SimConfig` parameterizes any
/// `SchemeKind` without loss.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The cycle-level core (paper Table 4).
    pub core: CoreConfig,
    /// The DLVP engine (PAQ/LSCD/probe machinery).
    pub dlvp: DlvpConfig,
    /// The PAP address predictor behind `SchemeKind::Dlvp`.
    pub pap: PapConfig,
    /// The CAP address predictor behind `SchemeKind::Cap`. Note the
    /// *experiment* default confidence is 24 (the paper's DLVP-with-CAP
    /// design point, §5.2.3), set by [`SimConfig::paper_default`];
    /// `CapConfig::default()` alone keeps the standalone-evaluation default
    /// of 8.
    pub cap: CapConfig,
    /// The VTAGE value predictor behind `SchemeKind::Vtage`.
    pub vtage: VtageConfig,
    /// Fast-forward + sampled detailed-simulation windows. `None` (the
    /// default everywhere) runs every instruction at cycle level and
    /// reproduces pre-sampling artifacts byte-identically.
    pub sample: Option<SampleSpec>,
}

impl Default for SimConfig {
    /// Identical to [`SimConfig::paper_default`] — the Table 4 experiment
    /// configuration, *not* the field-wise defaults (which would lose the
    /// CAP confidence-24 design point).
    fn default() -> SimConfig {
        SimConfig::paper_default()
    }
}

impl SimConfig {
    /// The paper Table 4 baseline configuration (`"default"` preset).
    pub fn paper_default() -> SimConfig {
        SimConfig {
            core: CoreConfig::default(),
            dlvp: DlvpConfig::default(),
            pap: PapConfig::default(),
            cap: CapConfig {
                confidence: 24,
                ..CapConfig::default()
            },
            vtage: VtageConfig::default(),
            sample: None,
        }
    }

    /// Checks the configuration for contradictions that would otherwise
    /// produce silently meaningless runs (or assertion panics deep in a
    /// constructor). Returns the first problem found, in field order.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let c = &self.core;
        for (field, width) in [
            ("core.frontend_width", c.frontend_width),
            ("core.backend_width", c.backend_width),
            ("core.ls_lanes", c.ls_lanes),
            ("core.vp_per_cycle", c.vp_per_cycle),
        ] {
            if width == 0 {
                return Err(ConfigError::ZeroWidth(field));
            }
        }
        if c.fetch_buffer < c.frontend_width as usize {
            return Err(ConfigError::FetchBufferTooSmall {
                fetch_buffer: c.fetch_buffer,
                frontend_width: c.frontend_width,
            });
        }
        for (table, entries) in [
            ("core.rob_entries", c.rob_entries),
            ("core.iq_entries", c.iq_entries),
            ("core.ldq_entries", c.ldq_entries),
            ("core.stq_entries", c.stq_entries),
            ("core.pvt_entries", c.pvt_entries),
            ("dlvp.paq_entries", self.dlvp.paq_entries),
            ("pap.entries", self.pap.entries),
            ("cap.entries", self.cap.entries),
            ("vtage.entries", self.vtage.entries),
        ] {
            if entries == 0 {
                return Err(ConfigError::EmptyTable(table));
            }
        }
        for (table, entries) in [
            ("pap.entries", self.pap.entries),
            ("cap.entries", self.cap.entries),
            ("vtage.entries", self.vtage.entries),
        ] {
            if !entries.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo { table, entries });
            }
        }
        if self.vtage.histories.is_empty() {
            return Err(ConfigError::EmptyHistories("vtage.histories"));
        }
        if let Some(&len) = self
            .vtage
            .histories
            .iter()
            .find(|&&len| len > GlobalHistory::CAPACITY)
        {
            return Err(ConfigError::HistoryTooLong {
                field: "vtage.histories",
                len,
            });
        }
        if let Some(sample) = &self.sample {
            sample.validate()?;
        }
        Ok(())
    }

    /// Every preset name, in registry order. The first six are the batch
    /// runner's config variants; the rest are the ablation design points of
    /// the figure specs.
    pub fn preset_names() -> &'static [&'static str] {
        PRESETS
    }

    /// Builds a named preset. Every preset validates by construction.
    pub fn preset(name: &str) -> Result<SimConfig, ConfigError> {
        let mut cfg = SimConfig::paper_default();
        match name {
            "default" => {}
            "oracle_replay" => cfg.core.recovery = RecoveryMode::OracleReplay,
            "gshare" => cfg.core.branch_predictor = BranchPredictorKind::Gshare,
            "no_prefetch" => cfg.core.mem.prefetch_enabled = false,
            "narrow_frontend" => cfg.core.frontend_width = 2,
            "small_pvt" => cfg.core.pvt_entries = 8,
            "policy1" => cfg.pap.alloc_policy = AllocPolicy::Always,
            "no_lscd" => cfg.dlvp.use_lscd = false,
            "no_way_prediction" => cfg.dlvp.way_prediction = false,
            "no_dlvp_prefetch" => cfg.dlvp.prefetch_on_miss = false,
            "paq_n2" => cfg.dlvp.paq_window = 2,
            "paq_n8" => cfg.dlvp.paq_window = 8,
            "hist4" => cfg.pap.history_bits = 4,
            "hist8" => cfg.pap.history_bits = 8,
            "hist32" => cfg.pap.history_bits = 32,
            "fpc_1" => cfg.pap.fpc_denoms = [1, 0, 0],
            "fpc_12" => cfg.pap.fpc_denoms = [1, 2, 0],
            "fpc_148" => cfg.pap.fpc_denoms = [1, 4, 8],
            "fpc_1_replay" => {
                cfg.pap.fpc_denoms = [1, 0, 0];
                cfg.core.recovery = RecoveryMode::OracleReplay;
            }
            "fpc_12_replay" => {
                cfg.pap.fpc_denoms = [1, 2, 0];
                cfg.core.recovery = RecoveryMode::OracleReplay;
            }
            "fpc_148_replay" => {
                cfg.pap.fpc_denoms = [1, 4, 8];
                cfg.core.recovery = RecoveryMode::OracleReplay;
            }
            "vtage_vanilla_loads" => {
                cfg.vtage = vtage_fig07(VtageFilter::Vanilla, VtageTargets::LoadsOnly)
            }
            "vtage_vanilla_all" => {
                cfg.vtage = vtage_fig07(VtageFilter::Vanilla, VtageTargets::AllInstructions)
            }
            "vtage_dynamic_loads" => {
                cfg.vtage = vtage_fig07(VtageFilter::Dynamic, VtageTargets::LoadsOnly)
            }
            "vtage_dynamic_all" => {
                cfg.vtage = vtage_fig07(VtageFilter::Dynamic, VtageTargets::AllInstructions)
            }
            "vtage_static_loads" => {
                cfg.vtage = vtage_fig07(VtageFilter::Static, VtageTargets::LoadsOnly)
            }
            "vtage_static_all" => {
                cfg.vtage = vtage_fig07(VtageFilter::Static, VtageTargets::AllInstructions)
            }
            other => return Err(ConfigError::UnknownPreset(other.to_string())),
        }
        Ok(cfg)
    }
}

/// A Figure 7 VTAGE variant: runs *without* the per-chunk PC adjustment, as
/// the paper's Figure 7 studies the unmodified predictor under the filters.
fn vtage_fig07(filter: VtageFilter, targets: VtageTargets) -> VtageConfig {
    VtageConfig {
        filter,
        targets,
        chunk_aware: false,
        ..VtageConfig::default()
    }
}

/// The preset registry (see [`SimConfig::preset`]).
const PRESETS: &[&str] = &[
    "default",
    "oracle_replay",
    "gshare",
    "no_prefetch",
    "narrow_frontend",
    "small_pvt",
    "policy1",
    "no_lscd",
    "no_way_prediction",
    "no_dlvp_prefetch",
    "paq_n2",
    "paq_n8",
    "hist4",
    "hist8",
    "hist32",
    "fpc_1",
    "fpc_12",
    "fpc_148",
    "fpc_1_replay",
    "fpc_12_replay",
    "fpc_148_replay",
    "vtage_vanilla_loads",
    "vtage_vanilla_all",
    "vtage_dynamic_loads",
    "vtage_dynamic_all",
    "vtage_static_loads",
    "vtage_static_all",
];

/// Fast-forward + sampled detailed-simulation windows (SMARTS-style).
///
/// Execution skips `ff` instructions functionally, then repeats a
/// `period`-instruction cadence: the first `warmup` instructions of each
/// period run at cycle level with predictors training but never injecting
/// (warm-only), the next `detail` instructions run at full cycle level and
/// are the only ones that accumulate [`crate::SimStats`], and the rest of
/// the period is skipped functionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec {
    /// Instructions fast-forwarded before the first period.
    pub ff: u64,
    /// Cycle-level instructions per period that only train predictors.
    pub warmup: u64,
    /// Cycle-level instructions per period that accumulate statistics.
    pub detail: u64,
    /// Total instructions per period (`warmup + detail` must fit).
    pub period: u64,
}

impl SampleSpec {
    /// Rejects degenerate specs: zero-length detail windows or periods,
    /// and warmup/detail windows that overflow their period.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.detail == 0 {
            return Err(ConfigError::DegenerateSample(
                "sample.detail must be non-zero",
            ));
        }
        if self.period == 0 {
            return Err(ConfigError::DegenerateSample(
                "sample.period must be non-zero",
            ));
        }
        if self.warmup > self.period {
            return Err(ConfigError::DegenerateSample(
                "sample.warmup must not exceed sample.period",
            ));
        }
        if self.warmup.saturating_add(self.detail) > self.period {
            return Err(ConfigError::DegenerateSample(
                "sample.warmup + sample.detail must fit in sample.period",
            ));
        }
        Ok(())
    }
}

/// Why a [`SimConfig`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A per-cycle width is zero.
    ZeroWidth(&'static str),
    /// The fetch/decode buffer cannot hold even one fetch group.
    FetchBufferTooSmall {
        fetch_buffer: usize,
        frontend_width: u32,
    },
    /// A queue or predictor table has zero entries.
    EmptyTable(&'static str),
    /// A direct-mapped table size is not a power of two (its index mask
    /// would alias incorrectly).
    NotPowerOfTwo { table: &'static str, entries: usize },
    /// A history-length list is empty.
    EmptyHistories(&'static str),
    /// A history length exceeds what the global history register holds
    /// ([`GlobalHistory::CAPACITY`]).
    HistoryTooLong { field: &'static str, len: u32 },
    /// [`SimConfig::preset`] was given a name not in the registry.
    UnknownPreset(String),
    /// A [`SampleSpec`] is degenerate (zero-length windows, or windows
    /// that do not fit their period).
    DegenerateSample(&'static str),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroWidth(field) => write!(f, "{field} must be at least 1"),
            ConfigError::FetchBufferTooSmall {
                fetch_buffer,
                frontend_width,
            } => write!(
                f,
                "core.fetch_buffer ({fetch_buffer}) must hold at least one fetch group \
                 (core.frontend_width = {frontend_width})"
            ),
            ConfigError::EmptyTable(table) => write!(f, "{table} must be non-zero"),
            ConfigError::NotPowerOfTwo { table, entries } => {
                write!(f, "{table} must be a power of two (got {entries})")
            }
            ConfigError::EmptyHistories(field) => {
                write!(f, "{field} needs at least one history length")
            }
            ConfigError::HistoryTooLong { field, len } => write!(
                f,
                "{field} length {len} exceeds the {}-bit global history",
                GlobalHistory::CAPACITY
            ),
            ConfigError::UnknownPreset(name) => write!(
                f,
                "unknown preset '{name}' (available: {})",
                PRESETS.join(", ")
            ),
            ConfigError::DegenerateSample(detail) => write!(f, "degenerate sample spec: {detail}"),
        }
    }
}

impl std::error::Error for ConfigError {}

// ---------------------------------------------------------------------------
// JSON round-trip
// ---------------------------------------------------------------------------

json_enum!(AddrWidth {
    A32 => "a32",
    A49 => "a49",
});

json_enum!(AllocPolicy {
    Always => "always",
    RespectConfidence => "respect_confidence",
});

json_struct!(PapConfig {
    entries,
    tag_bits,
    history_bits,
    addr_width,
    way_prediction,
    alloc_policy,
    fpc_denoms,
    train_reset_on_mismatch,
});

json_struct!(CapConfig {
    entries,
    tag_bits,
    history_bits,
    confidence,
    link_bits,
});

json_enum!(VtageTargets {
    LoadsOnly => "loads_only",
    AllInstructions => "all_instructions",
});

json_enum!(VtageFilter {
    Vanilla => "vanilla",
    Dynamic => "dynamic",
    Static => "static",
});

json_struct!(VtageConfig {
    entries,
    tag_bits,
    histories,
    targets,
    filter,
    chunk_aware,
    filter_threshold,
    filter_warmup,
});

json_struct!(DlvpConfig {
    prefetch_on_miss,
    use_lscd,
    way_prediction,
    max_per_group,
    paq_entries,
    paq_window,
    inject_lscd_bug,
});

// The `sample` key is written only when sampling is enabled, so every
// config serialized before sampling existed keeps its exact bytes (and
// store key). Decoding does *not* validate: callers decide whether an
// unusual config is an error.
json_struct!(SimConfig {
    core,
    dlvp,
    pap,
    cap,
    vtage,
    ?sample,
});

json_struct!(SampleSpec {
    ff,
    warmup,
    detail,
    period,
});

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_json::{FromJson, Json, ToJson};

    #[test]
    fn default_validates() {
        assert_eq!(SimConfig::paper_default().validate(), Ok(()));
        assert_eq!(SimConfig::default().validate(), Ok(()));
    }

    #[test]
    fn every_preset_builds_and_validates() {
        for name in SimConfig::preset_names() {
            let cfg = SimConfig::preset(name).expect("preset builds");
            assert_eq!(cfg.validate(), Ok(()), "preset {name}");
        }
        assert!(matches!(
            SimConfig::preset("not_a_preset"),
            Err(ConfigError::UnknownPreset(_))
        ));
    }

    #[test]
    fn default_preset_is_the_paper_default() {
        assert_eq!(
            SimConfig::preset("default").expect("default exists"),
            SimConfig::paper_default()
        );
    }

    #[test]
    fn rejects_fetch_buffer_smaller_than_frontend() {
        let mut cfg = SimConfig::paper_default();
        cfg.core.fetch_buffer = 3; // frontend_width is 4
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::FetchBufferTooSmall {
                fetch_buffer: 3,
                frontend_width: 4
            })
        );
    }

    #[test]
    fn rejects_zero_entry_paq() {
        let mut cfg = SimConfig::paper_default();
        cfg.dlvp.paq_entries = 0;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::EmptyTable("dlvp.paq_entries"))
        );
    }

    #[test]
    fn rejects_zero_entry_apt() {
        let mut cfg = SimConfig::paper_default();
        cfg.pap.entries = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::EmptyTable("pap.entries")));
    }

    #[test]
    fn rejects_non_power_of_two_tables() {
        let mut cfg = SimConfig::paper_default();
        cfg.pap.entries = 1000;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::NotPowerOfTwo {
                table: "pap.entries",
                entries: 1000
            })
        );
        let mut cfg = SimConfig::paper_default();
        cfg.vtage.entries = 300;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::NotPowerOfTwo {
                table: "vtage.entries",
                entries: 300
            })
        );
    }

    #[test]
    fn rejects_zero_frontend_width() {
        let mut cfg = SimConfig::paper_default();
        cfg.core.frontend_width = 0;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroWidth("core.frontend_width"))
        );
    }

    #[test]
    fn rejects_every_zero_width_field() {
        for field in [
            "core.frontend_width",
            "core.backend_width",
            "core.ls_lanes",
            "core.vp_per_cycle",
        ] {
            let mut cfg = SimConfig::paper_default();
            match field {
                "core.frontend_width" => cfg.core.frontend_width = 0,
                "core.backend_width" => cfg.core.backend_width = 0,
                "core.ls_lanes" => cfg.core.ls_lanes = 0,
                "core.vp_per_cycle" => cfg.core.vp_per_cycle = 0,
                _ => unreachable!(),
            }
            assert_eq!(cfg.validate(), Err(ConfigError::ZeroWidth(field)));
        }
    }

    #[test]
    fn rejects_every_empty_queue_table() {
        for table in [
            "core.rob_entries",
            "core.iq_entries",
            "core.ldq_entries",
            "core.stq_entries",
            "cap.entries",
        ] {
            let mut cfg = SimConfig::paper_default();
            match table {
                "core.rob_entries" => cfg.core.rob_entries = 0,
                "core.iq_entries" => cfg.core.iq_entries = 0,
                "core.ldq_entries" => cfg.core.ldq_entries = 0,
                "core.stq_entries" => cfg.core.stq_entries = 0,
                "cap.entries" => cfg.cap.entries = 0,
                _ => unreachable!(),
            }
            assert_eq!(cfg.validate(), Err(ConfigError::EmptyTable(table)));
        }
    }

    #[test]
    fn rejects_non_power_of_two_cap() {
        let mut cfg = SimConfig::paper_default();
        cfg.cap.entries = 48;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::NotPowerOfTwo {
                table: "cap.entries",
                entries: 48
            })
        );
    }

    #[test]
    fn config_errors_display_the_offending_field() {
        assert!(ConfigError::ZeroWidth("core.ls_lanes")
            .to_string()
            .contains("core.ls_lanes"));
        assert!(ConfigError::EmptyTable("core.rob_entries")
            .to_string()
            .contains("core.rob_entries"));
        assert!(ConfigError::NotPowerOfTwo {
            table: "cap.entries",
            entries: 48
        }
        .to_string()
        .contains("48"));
    }

    #[test]
    fn rejects_zero_entry_pvt() {
        let mut cfg = SimConfig::paper_default();
        cfg.core.pvt_entries = 0;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::EmptyTable("core.pvt_entries"))
        );
    }

    #[test]
    fn rejects_vtage_histories_longer_than_the_register() {
        let mut cfg = SimConfig::default();
        cfg.vtage.histories = vec![0, 129];
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::HistoryTooLong {
                field: "vtage.histories",
                len: 129
            })
        );
        cfg.vtage.histories = vec![0, 128];
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn rejects_empty_vtage_histories() {
        let mut cfg = SimConfig::paper_default();
        cfg.vtage.histories.clear();
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::EmptyHistories("vtage.histories"))
        );
    }

    #[test]
    fn json_round_trips_the_default() {
        let cfg = SimConfig::paper_default();
        let j = cfg.to_json();
        assert_eq!(SimConfig::from_json(&j).expect("parses"), cfg);
        // ... and survives an actual serialize/parse cycle.
        let reparsed = Json::parse(&j.pretty()).expect("valid JSON");
        assert_eq!(SimConfig::from_json(&reparsed).expect("parses"), cfg);
    }

    #[test]
    fn json_round_trips_every_preset() {
        for name in SimConfig::preset_names() {
            let cfg = SimConfig::preset(name).expect("preset builds");
            let parsed = SimConfig::from_json(&cfg.to_json()).expect("parses");
            assert_eq!(parsed, cfg, "preset {name}");
        }
    }

    #[test]
    fn sample_spec_round_trips_and_stays_out_of_unsampled_json() {
        // Sampling off: no "sample" key, so pre-sampling artifacts keep
        // their exact bytes.
        let plain = SimConfig::paper_default();
        assert!(plain.to_json().get("sample").is_none());

        let mut cfg = SimConfig::paper_default();
        cfg.sample = Some(SampleSpec {
            ff: 10_000,
            warmup: 500,
            detail: 1_000,
            period: 5_000,
        });
        assert_eq!(cfg.validate(), Ok(()));
        let parsed = SimConfig::from_json(&cfg.to_json()).expect("parses");
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn degenerate_sample_specs_rejected() {
        let spec = |ff, warmup, detail, period| SampleSpec {
            ff,
            warmup,
            detail,
            period,
        };
        for (bad, why) in [
            (spec(0, 0, 0, 100), "detail"),
            (spec(0, 10, 5, 0), "period"),
            (spec(0, 200, 5, 100), "warmup"),
            (spec(0, 60, 50, 100), "fit"),
        ] {
            let err = bad.validate().expect_err("degenerate");
            assert!(err.to_string().contains(why), "{err}");
            let mut cfg = SimConfig::paper_default();
            cfg.sample = Some(bad);
            assert!(cfg.validate().is_err());
        }
        assert_eq!(spec(0, 0, 100, 100).validate(), Ok(()));
    }

    #[test]
    fn from_json_flags_missing_fields() {
        let mut j = SimConfig::paper_default().to_json();
        if let Json::Object(pairs) = &mut j {
            pairs.retain(|(k, _)| k != "pap");
        }
        let err = SimConfig::from_json(&j).expect_err("pap is required");
        assert_eq!(err.path, "pap");
    }

    #[test]
    fn errors_display_the_offending_field() {
        let mut cfg = SimConfig::paper_default();
        cfg.dlvp.paq_entries = 0;
        let msg = cfg.validate().expect_err("invalid").to_string();
        assert!(msg.contains("paq_entries"), "{msg}");
    }
}
