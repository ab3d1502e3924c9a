//! VTAGE — the state-of-the-art context-based value predictor used as the
//! paper's comparison point (Perais & Seznec, HPCA'14; paper §2.1, §5.2.2),
//! including the paper's ISA-specific findings:
//!
//! * the paper's best configuration: 3 direct-mapped, *tagged* tables of 256
//!   entries using global branch histories {0, 5, 13} ("using tags with the
//!   LVP table is crucial"), 16-bit tags, 64-bit values, 3-bit FPC
//!   confidence — 62.3k bits total (Table 4);
//! * multi-destination loads (LDP/LDM/VLD) predicted by concatenating the
//!   destination-chunk index to the PC before hashing (§5.2.2);
//! * the three filter flavours of Figure 7: vanilla, a dynamic opcode filter
//!   (block types whose measured accuracy drops below 95%) and a static
//!   opcode filter (preloaded with LDP/LDM/VLD);
//! * loads-only vs all-instructions targeting.

use crate::fpc::Fpc;
use lvp_branch::{Fold, GlobalHistory};
use lvp_isa::Instruction;
use lvp_uarch::{ExecInfo, FetchCtx, FetchSlot, RenamePrediction, U64Map, VpScheme, VpVerdict};

// The configuration records live with the rest of the `SimConfig` aggregate
// in `lvp-uarch`; re-exported here at their historical paths.
pub use lvp_uarch::simconfig::{VtageConfig, VtageFilter, VtageTargets};

/// Coarse opcode classes tracked by the filters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum OpcodeClass {
    Ldr,
    Ldp,
    Ldm,
    Vld,
    Alu,
    #[default]
    Other,
}

impl OpcodeClass {
    /// Number of classes.
    pub const COUNT: usize = 6;
}

/// Classifies an instruction for the opcode filters.
pub fn opcode_class(inst: Instruction) -> OpcodeClass {
    match inst {
        Instruction::Ldr { .. } | Instruction::LdrIdx { .. } => OpcodeClass::Ldr,
        Instruction::Ldp { .. } => OpcodeClass::Ldp,
        Instruction::Ldm { .. } => OpcodeClass::Ldm,
        Instruction::Vld { .. } => OpcodeClass::Vld,
        Instruction::Alu { .. } | Instruction::AluImm { .. } | Instruction::MovImm { .. } => {
            OpcodeClass::Alu
        }
        _ => OpcodeClass::Other,
    }
}

#[derive(Debug, Clone)]
struct Entry {
    tag: u16,
    value: u64,
    confidence: Fpc,
    valid: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct FilterStat {
    predictions: u64,
    mispredictions: u64,
}

/// Per table: the global history folded to the index width and to the tag
/// width (the `(index, tag)` fold pair [`HistoryFolds::read`] returns).
#[derive(Debug, Clone)]
pub(crate) struct HistoryFolds {
    folds: Vec<(Fold, Fold)>,
}

impl HistoryFolds {
    /// The folds of tables with history lengths `histories` over
    /// `entries`-entry tables with `tag_bits`-bit tags.
    pub(crate) fn new(histories: &[u32], entries: usize, tag_bits: u32) -> HistoryFolds {
        let bits = entries.trailing_zeros().max(1);
        HistoryFolds {
            folds: histories
                .iter()
                .map(|&hl| (Fold::untracked(hl, bits), Fold::untracked(hl, tag_bits)))
                .collect(),
        }
    }

    /// Has `hist` maintain every fold incrementally.
    pub(crate) fn track(&mut self, hist: &mut GlobalHistory) {
        for (idx, tag) in &mut self.folds {
            *idx = hist.track(idx.history_len(), idx.width());
            *tag = hist.track(tag.history_len(), tag.width());
        }
    }

    /// Snapshots every table's `(index, tag)` fold of `hist` into `out`
    /// (cleared first; its capacity is reused).
    pub(crate) fn read(&self, hist: &GlobalHistory, out: &mut Vec<(u64, u64)>) {
        out.clear();
        out.extend(
            self.folds
                .iter()
                .map(|&(idx, tag)| (hist.fold(idx), hist.fold(tag))),
        );
    }
}

/// The instruction in flight between `on_fetch` and `on_execute`. The core
/// runs both hooks for one `seq` inside one step (the one-step contract of
/// `lvp_uarch::vp`), so one slot, reused for every instruction, holds all
/// pending state and its buffers never reallocate once warm.
#[derive(Debug, Default)]
struct PendingVt {
    /// The eligible instruction in flight, if any.
    seq: Option<u64>,
    /// Every chunk had a confident prediction (`values` holds them).
    predicted: bool,
    values: Vec<u64>,
    class: OpcodeClass,
    /// Fetch-time `(index, tag)` folds per table: the index context used
    /// for training.
    hist: Vec<(u64, u64)>,
}

/// Scheme counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VtageCounters {
    pub lookups: u64,
    pub predictions: u64,
    pub filtered: u64,
    pub chunk_mispredicts: u64,
}

/// The VTAGE predictor as a pluggable value-prediction scheme.
pub struct Vtage {
    cfg: VtageConfig,
    tables: Vec<Vec<Entry>>,
    folds: HistoryFolds,
    pending: PendingVt,
    /// Indexed by `OpcodeClass as usize`.
    filter_stats: [FilterStat; OpcodeClass::COUNT],
    counters: VtageCounters,
    misp_by_pc: U64Map<u64>,
    reads: u64,
    writes: u64,
    /// Warm-only mode: train but never deliver predictions at rename.
    warm_only: bool,
}

impl Vtage {
    /// Builds an empty predictor.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `histories` is empty.
    pub fn new(cfg: VtageConfig) -> Vtage {
        assert!(
            cfg.entries.is_power_of_two(),
            "VTAGE entries must be a power of two"
        );
        assert!(!cfg.histories.is_empty(), "VTAGE needs at least one table");
        let tables = cfg
            .histories
            .iter()
            .enumerate()
            .map(|(t, _)| {
                (0..cfg.entries)
                    .map(|i| Entry {
                        tag: 0,
                        value: 0,
                        confidence: Fpc::paper_vtage((t as u64) << 32 | i as u64 | 1),
                        valid: false,
                    })
                    .collect()
            })
            .collect();
        Vtage {
            tables,
            folds: HistoryFolds::new(&cfg.histories, cfg.entries, cfg.tag_bits),
            pending: PendingVt::default(),
            filter_stats: [FilterStat::default(); OpcodeClass::COUNT],
            counters: VtageCounters::default(),
            misp_by_pc: U64Map::default(),
            reads: 0,
            writes: 0,
            warm_only: false,
            cfg,
        }
    }

    /// The paper's configuration (static filter, loads only).
    pub fn paper_default() -> Vtage {
        Vtage::new(VtageConfig::default())
    }

    /// A named Figure 7 variant. These run *without* the per-chunk PC
    /// adjustment, as the paper's Figure 7 studies the unmodified predictor
    /// under the three filters.
    pub fn variant(filter: VtageFilter, targets: VtageTargets) -> Vtage {
        Vtage::new(VtageConfig {
            filter,
            targets,
            chunk_aware: false,
            ..VtageConfig::default()
        })
    }

    /// Scheme counters.
    pub fn counters(&self) -> VtageCounters {
        self.counters
    }

    /// Per-PC misprediction counts (diagnostics).
    pub fn misp_by_pc(&self) -> &U64Map<u64> {
        &self.misp_by_pc
    }

    /// Total storage in bits (Table 4: 3 × 256 × 83 = 62.3k bits).
    pub fn storage_bits(&self) -> u64 {
        let per_entry = self.cfg.tag_bits as u64 + 64 + 3;
        per_entry * self.cfg.entries as u64 * self.cfg.histories.len() as u64
    }

    /// (reads, writes) activity for the energy comparison.
    pub fn activity(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// Whether `inst`, with `dest_chunks` destination chunks, is looked up.
    fn eligible(&mut self, inst: Instruction, dest_chunks: u32) -> bool {
        if inst.is_branch() || inst.is_store() || dest_chunks == 0 || inst.is_ordered() {
            return false;
        }
        if self.cfg.targets == VtageTargets::LoadsOnly && !inst.is_load() {
            return false;
        }
        let class = opcode_class(inst);
        match self.cfg.filter {
            VtageFilter::Vanilla => true,
            VtageFilter::Static => !matches!(
                class,
                OpcodeClass::Ldp | OpcodeClass::Ldm | OpcodeClass::Vld
            ),
            VtageFilter::Dynamic => {
                let st = self.filter_stats[class as usize];
                if st.predictions < self.cfg.filter_warmup {
                    true
                } else {
                    let acc = 1.0 - st.mispredictions as f64 / st.predictions as f64;
                    acc >= self.cfg.filter_threshold
                }
            }
        }
    }

    /// Table `table`'s index and tag for `chunk` of `pc` under the
    /// `(index, tag)` history folds `hist` (one pair per table).
    fn index_tag(&self, pc: u64, chunk: u32, hist: &[(u64, u64)], table: usize) -> (usize, u16) {
        let hl = self.cfg.histories[table];
        let (fold_idx, fold_tag) = hist[table];
        let pc_c = (pc >> 2) ^ ((chunk as u64) << 17) ^ ((table as u64) << 11);
        let idx = (pc_c ^ fold_idx) as usize & (self.cfg.entries - 1);
        let tag = ((pc_c >> 3) ^ fold_tag ^ (hl as u64)) & ((1 << self.cfg.tag_bits) - 1);
        (idx, tag as u16)
    }

    /// Runs `f` with the `(index, tag)` folds of `hist`, snapshotted into
    /// the pending slot's buffer (standalone use, outside the pipeline).
    fn with_folds<R>(
        &mut self,
        hist: &GlobalHistory,
        f: impl FnOnce(&mut Vtage, &[(u64, u64)]) -> R,
    ) -> R {
        let mut folds = std::mem::take(&mut self.pending.hist);
        self.folds.read(hist, &mut folds);
        let r = f(self, &folds);
        self.pending.hist = folds;
        r
    }

    /// Standalone single-chunk prediction (first destination chunk) —
    /// exposed for micro-benchmarks and analyses outside the pipeline.
    pub fn predict_first_chunk(&mut self, pc: u64, hist: &GlobalHistory) -> Option<u64> {
        self.with_folds(hist, |v, folds| v.predict_chunk(pc, 0, folds))
    }

    /// Standalone single-chunk training counterpart of
    /// [`Vtage::predict_first_chunk`].
    pub fn train_first_chunk(&mut self, pc: u64, hist: &GlobalHistory, actual: u64) {
        self.with_folds(hist, |v, folds| v.train_chunk(pc, 0, folds, actual));
    }

    /// Predict one chunk under the history folds `hist`; `Some(value)` only
    /// when the provider is confident.
    fn predict_chunk(&mut self, pc: u64, chunk: u32, hist: &[(u64, u64)]) -> Option<u64> {
        self.reads += 1;
        let mut out = None;
        for t in 0..self.tables.len() {
            let (idx, tag) = self.index_tag(pc, chunk, hist, t);
            let e = &self.tables[t][idx];
            if e.valid && e.tag == tag && e.confidence.is_confident() {
                out = Some(e.value); // longest-history confident hit wins
            }
        }
        out
    }

    /// Trains on and judges the pending instruction `p` with its actual
    /// results.
    fn execute_pending(&mut self, p: &PendingVt, info: &ExecInfo<'_>) -> VpVerdict {
        // Train every chunk with the actual values under the fetch-time
        // history.
        if self.cfg.chunk_aware {
            for (c, &actual) in info.values.iter().enumerate() {
                self.train_chunk(info.pc, c as u32, &p.hist, actual);
            }
        } else if let Some(&first) = info.values.first() {
            self.train_chunk(info.pc, 0, &p.hist, first);
        }
        if !p.predicted || !info.was_injected {
            return VpVerdict::NONE;
        }
        let correct = p.values == info.values;
        if !correct {
            self.counters.chunk_mispredicts += 1;
            *self.misp_by_pc.entry(info.pc).or_insert(0) += 1;
        }
        if self.cfg.filter == VtageFilter::Dynamic {
            let st = &mut self.filter_stats[p.class as usize];
            st.predictions += 1;
            if !correct {
                st.mispredictions += 1;
            }
        }
        VpVerdict {
            predicted: true,
            correct,
        }
    }

    /// Train one chunk with the actual value.
    ///
    /// The entry trained is the one a *prediction* would come from: the
    /// longest confident hit if any (the provider), otherwise the longest
    /// hit. Training the provider is essential — a confident entry that goes
    /// stale must be corrected by the mispredictions it causes, or it would
    /// keep mispredicting while training drains into younger entries.
    fn train_chunk(&mut self, pc: u64, chunk: u32, hist: &[(u64, u64)], actual: u64) {
        self.writes += 1;
        let mut longest_hit: Option<usize> = None;
        let mut provider: Option<usize> = None;
        for t in 0..self.tables.len() {
            let (idx, tag) = self.index_tag(pc, chunk, hist, t);
            let e = &self.tables[t][idx];
            if e.valid && e.tag == tag {
                longest_hit = Some(t);
                if e.confidence.is_confident() {
                    provider = Some(t);
                }
            }
        }
        match provider.or(longest_hit) {
            Some(t) => {
                let (idx, _) = self.index_tag(pc, chunk, hist, t);
                let e = &mut self.tables[t][idx];
                if e.value == actual {
                    e.confidence.up();
                    return;
                }
                // Wrong value: retrain this entry...
                e.value = actual;
                e.confidence.reset();
                // ...and try to allocate in a longer-history table.
                for nt in (t + 1)..self.tables.len() {
                    let (nidx, ntag) = self.index_tag(pc, chunk, hist, nt);
                    let ne = &mut self.tables[nt][nidx];
                    if !ne.valid || ne.confidence.is_zero() {
                        ne.tag = ntag;
                        ne.value = actual;
                        ne.confidence.reset();
                        ne.valid = true;
                        break;
                    }
                    ne.confidence.down();
                }
            }
            None => {
                // Allocate in the shortest table whose slot is replaceable.
                for t in 0..self.tables.len() {
                    let (idx, tag) = self.index_tag(pc, chunk, hist, t);
                    let e = &mut self.tables[t][idx];
                    if !e.valid || e.confidence.is_zero() {
                        e.tag = tag;
                        e.value = actual;
                        e.confidence.reset();
                        e.valid = true;
                        break;
                    }
                    e.confidence.down();
                }
            }
        }
    }
}

impl VpScheme for Vtage {
    fn name(&self) -> &'static str {
        "VTAGE"
    }

    fn track_history(&mut self, hist: &mut GlobalHistory) {
        self.folds.track(hist);
    }

    fn on_fetch(&mut self, slot: &FetchSlot, ctx: &mut FetchCtx<'_>) {
        self.pending.seq = None;
        let chunks = slot.dest_chunks;
        if !self.eligible(slot.inst, chunks) {
            if chunks > 0 && !slot.inst.is_branch() && !slot.inst.is_store() {
                self.counters.filtered += 1;
            }
            return;
        }
        self.counters.lookups += 1;
        // The slot's buffers are taken out for the lookup and put back, so
        // their capacity is reused across instructions.
        let mut p = std::mem::take(&mut self.pending);
        self.folds.read(ctx.history, &mut p.hist);
        p.values.clear();
        let mut all = true;
        if self.cfg.chunk_aware {
            for c in 0..chunks {
                match self.predict_chunk(slot.pc, c, &p.hist) {
                    Some(v) => p.values.push(v),
                    None => {
                        all = false;
                        break;
                    }
                }
            }
        } else {
            // One entry per instruction: the single predicted value stands
            // for every destination chunk (and is usually wrong for the
            // later chunks of LDP/LDM/VLD — the paper's §5.2.2 pathology).
            match self.predict_chunk(slot.pc, 0, &p.hist) {
                Some(v) => p.values.extend(std::iter::repeat_n(v, chunks as usize)),
                None => all = false,
            }
        }
        p.seq = Some(slot.seq);
        p.predicted = all;
        p.class = opcode_class(slot.inst);
        self.pending = p;
        if all {
            self.counters.predictions += 1;
        }
    }

    fn prediction_at_rename(&mut self, seq: u64, _rename: u64) -> Option<RenamePrediction> {
        if self.warm_only || self.pending.seq != Some(seq) || !self.pending.predicted {
            return None;
        }
        Some(RenamePrediction {
            chunks: self.pending.values.len() as u32,
        })
    }

    fn set_warm_only(&mut self, warm: bool) {
        self.warm_only = warm;
    }

    fn on_execute(&mut self, info: &ExecInfo<'_>) -> VpVerdict {
        if self.pending.seq != Some(info.seq) {
            return VpVerdict::NONE;
        }
        let mut p = std::mem::take(&mut self.pending);
        p.seq = None;
        let verdict = self.execute_pending(&p, info);
        self.pending = p;
        verdict
    }

    fn extra_counters(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("vtage_lookups", self.counters.lookups as f64),
            ("vtage_predictions", self.counters.predictions as f64),
            ("vtage_filtered", self.counters.filtered as f64),
        ]
    }

    fn storage_bits(&self) -> u64 {
        Vtage::storage_bits(self)
    }

    fn activity(&self) -> (u64, u64) {
        Vtage::activity(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_uarch::{simulate, NoVp};

    #[test]
    fn storage_matches_table4() {
        let v = Vtage::paper_default();
        assert_eq!(v.storage_bits(), 3 * 256 * 83);
    }

    #[test]
    fn stable_values_predicted_on_nat_like_kernel() {
        // nat: translations are stable values — VTAGE's home turf.
        let t = lvp_workloads::by_name("nat").unwrap().trace(120_000);
        let base = simulate(&t, NoVp);
        let v = simulate(&t, Vtage::paper_default());
        assert!(v.coverage() > 0.05, "coverage {}", v.coverage());
        assert!(v.accuracy() > 0.95, "accuracy {}", v.accuracy());
        assert!(v.speedup_over(&base) >= 0.99);
    }

    #[test]
    fn confidence_requires_many_repeats() {
        // A value alternating every 16 occurrences never reaches VTAGE's
        // ~64-observation confidence (the paper's Challenge #1).
        let mut v = Vtage::paper_default();
        let h = GlobalHistory::new();
        let mut predicted = 0;
        for i in 0..2000u64 {
            if v.predict_first_chunk(0x4000, &h).is_some() {
                predicted += 1;
            }
            let value = (i / 16) % 2;
            v.train_first_chunk(0x4000, &h, value);
        }
        assert_eq!(predicted, 0, "short value runs must stay below confidence");
    }

    #[test]
    fn stable_value_eventually_confident() {
        let mut v = Vtage::paper_default();
        let h = GlobalHistory::new();
        let mut first = None;
        for i in 0..1000u64 {
            if v.predict_first_chunk(0x4000, &h) == Some(42) && first.is_none() {
                first = Some(i);
            }
            v.train_first_chunk(0x4000, &h, 42);
        }
        let at = first.expect("stable value must become predictable");
        assert!(
            (20..=400).contains(&at),
            "confidence near ~64 observations, got {at}"
        );
    }

    #[test]
    fn static_filter_blocks_multi_destination_loads() {
        let mut v = Vtage::paper_default();
        use lvp_isa::{Reg, RegList};
        let ldp = Instruction::Ldp {
            rd1: Reg::X1,
            rd2: Reg::X2,
            rn: Reg::X0,
            offset: 0,
        };
        let ldm = Instruction::Ldm {
            list: RegList::of(&[Reg::X1, Reg::X2]),
            rn: Reg::X0,
        };
        let vld = Instruction::Vld {
            vd: Reg::X4,
            rn: Reg::X0,
            offset: 0,
        };
        assert!(!v.eligible(ldp, ldp.dest_chunks() as u32));
        assert!(!v.eligible(ldm, ldm.dest_chunks() as u32));
        assert!(!v.eligible(vld, vld.dest_chunks() as u32));
        let ldr = Instruction::Ldr {
            rd: Reg::X1,
            rn: Reg::X0,
            offset: 0,
            size: lvp_isa::MemSize::X,
        };
        assert!(v.eligible(ldr, ldr.dest_chunks() as u32));
    }

    #[test]
    fn loads_only_excludes_alu() {
        let mut v = Vtage::paper_default();
        use lvp_isa::{AluOp, Reg};
        let alu = Instruction::Alu {
            op: AluOp::Add,
            rd: Reg::X1,
            rn: Reg::X2,
            rm: Reg::X3,
        };
        assert!(!v.eligible(alu, alu.dest_chunks() as u32));
        let mut all = Vtage::variant(VtageFilter::Static, VtageTargets::AllInstructions);
        assert!(all.eligible(alu, alu.dest_chunks() as u32));
    }

    #[test]
    fn dynamic_filter_learns_to_block_bad_classes() {
        let mut v = Vtage::variant(VtageFilter::Dynamic, VtageTargets::LoadsOnly);
        use lvp_isa::Reg;
        let ldp = Instruction::Ldp {
            rd1: Reg::X1,
            rd2: Reg::X2,
            rn: Reg::X0,
            offset: 0,
        };
        assert!(
            v.eligible(ldp, ldp.dest_chunks() as u32),
            "dynamic filter starts permissive"
        );
        // Feed it a terrible accuracy record for LDP.
        let st = &mut v.filter_stats[OpcodeClass::Ldp as usize];
        st.predictions = 100;
        st.mispredictions = 50;
        assert!(
            !v.eligible(ldp, ldp.dest_chunks() as u32),
            "must block after observed low accuracy"
        );
    }

    #[test]
    fn vanilla_suffers_on_ldp_heavy_kernel() {
        // linpack is LDP-dense; the static filter should not do worse than
        // vanilla (Figure 7's ordering).
        let t = lvp_workloads::by_name("linpack").unwrap().trace(60_000);
        let base = simulate(&t, NoVp);
        let vanilla = simulate(
            &t,
            Vtage::variant(VtageFilter::Vanilla, VtageTargets::LoadsOnly),
        );
        let staticf = simulate(
            &t,
            Vtage::variant(VtageFilter::Static, VtageTargets::LoadsOnly),
        );
        assert!(
            staticf.speedup_over(&base) >= vanilla.speedup_over(&base) - 0.01,
            "static {} vs vanilla {}",
            staticf.speedup_over(&base),
            vanilla.speedup_over(&base)
        );
    }
}
