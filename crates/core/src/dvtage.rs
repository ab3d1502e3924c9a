//! D-VTAGE — the differential VTAGE of Perais & Seznec (HPCA'15, the
//! paper's reference 29; discussed in §2.1).
//!
//! D-VTAGE augments VTAGE with a Last Value Table (LVT) in front of the
//! first tagged table: the VTAGE tables store *strides* rather than full
//! values, and the prediction is `last_value + stride`. The paper notes the
//! extra complexity this buys: "it requires an addition on the prediction
//! critical path, moreover, it requires maintaining a speculative window to
//! track in-flight last values" — both of which this implementation models
//! (the speculative window as an in-flight instance counter per LVT entry,
//! so back-to-back instances predict `last + k·stride`).
//!
//! Included as the natural extension study: strided load values (pointers
//! walking arrays) that defeat plain VTAGE become predictable.

use crate::fpc::Fpc;
use crate::vtage::HistoryFolds;
use lvp_branch::GlobalHistory;
use lvp_uarch::{ExecInfo, FetchCtx, FetchSlot, RenamePrediction, VpScheme, VpVerdict};

/// D-VTAGE configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DvtageConfig {
    /// Entries per stride table and in the LVT.
    pub entries: usize,
    pub tag_bits: u32,
    /// Global branch history lengths for the stride tables.
    pub histories: Vec<u32>,
}

impl Default for DvtageConfig {
    fn default() -> DvtageConfig {
        DvtageConfig {
            entries: 256,
            tag_bits: 16,
            histories: vec![0, 5, 13],
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct LvtEntry {
    tag: u16,
    last: u64,
    /// Dynamic instances currently between fetch and execute — the
    /// "speculative window" of last values.
    inflight: u32,
    valid: bool,
}

#[derive(Debug, Clone)]
struct StrideEntry {
    tag: u16,
    stride: i64,
    confidence: Fpc,
    valid: bool,
}

/// The load in flight between `on_fetch` and `on_execute` (one slot: the
/// core runs both hooks for one `seq` inside one step).
#[derive(Debug, Default)]
struct PendingDv {
    seq: Option<u64>,
    predicted: Option<u64>,
    lvt_index: usize,
    /// Fetch-time `(index, tag)` history folds per stride table.
    hist: Vec<(u64, u64)>,
}

/// The D-VTAGE predictor as a pluggable scheme (loads only, first chunk —
/// the headline design; multi-chunk loads are left unpredicted, mirroring
/// the static-filter configuration of the VTAGE comparison).
pub struct Dvtage {
    cfg: DvtageConfig,
    lvt: Vec<LvtEntry>,
    tables: Vec<Vec<StrideEntry>>,
    folds: HistoryFolds,
    pending: PendingDv,
    predictions: u64,
    mispredictions: u64,
    /// Warm-only mode: train but never deliver predictions at rename.
    warm_only: bool,
}

impl Dvtage {
    /// Builds an empty predictor.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `histories` is empty.
    pub fn new(cfg: DvtageConfig) -> Dvtage {
        assert!(
            cfg.entries.is_power_of_two(),
            "D-VTAGE entries must be a power of two"
        );
        assert!(
            !cfg.histories.is_empty(),
            "D-VTAGE needs at least one stride table"
        );
        let tables = cfg
            .histories
            .iter()
            .enumerate()
            .map(|(t, _)| {
                (0..cfg.entries)
                    .map(|i| StrideEntry {
                        tag: 0,
                        stride: 0,
                        confidence: Fpc::paper_vtage((t as u64) << 40 | i as u64 | 3),
                        valid: false,
                    })
                    .collect()
            })
            .collect();
        Dvtage {
            lvt: vec![LvtEntry::default(); cfg.entries],
            tables,
            folds: HistoryFolds::new(&cfg.histories, cfg.entries, cfg.tag_bits),
            pending: PendingDv::default(),
            predictions: 0,
            mispredictions: 0,
            warm_only: false,
            cfg,
        }
    }

    /// Default paper-scale configuration.
    pub fn paper_default() -> Dvtage {
        Dvtage::new(DvtageConfig::default())
    }

    /// (predictions, mispredictions) so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.predictions, self.mispredictions)
    }

    /// Storage in bits: LVT (tag + 64-bit last value) plus stride tables
    /// (tag + 16-bit stride + 3-bit confidence).
    pub fn storage_bits(&self) -> u64 {
        let lvt = (self.cfg.tag_bits as u64 + 64) * self.cfg.entries as u64;
        let stride = (self.cfg.tag_bits as u64 + 16 + 3)
            * self.cfg.entries as u64
            * self.cfg.histories.len() as u64;
        lvt + stride
    }

    fn lvt_index_tag(&self, pc: u64) -> (usize, u16) {
        let idx = ((pc >> 2) as usize) & (self.cfg.entries - 1);
        let tag = (((pc >> 2) >> self.cfg.entries.trailing_zeros())
            & ((1 << self.cfg.tag_bits) - 1)) as u16;
        (idx, tag)
    }

    /// Stride table `t`'s index and tag for `pc` under the `(index, tag)`
    /// history folds `hist` (one pair per table).
    fn stride_index_tag(&self, pc: u64, hist: &[(u64, u64)], t: usize) -> (usize, u16) {
        let (fold_idx, fold_tag) = hist[t];
        let idx = (((pc >> 2) ^ fold_idx ^ ((t as u64) << 7)) as usize) & (self.cfg.entries - 1);
        let tag = ((((pc >> 2) >> 3) ^ fold_tag) & ((1 << self.cfg.tag_bits) - 1)) as u16;
        (idx, tag)
    }

    /// Confident stride from the longest hitting table.
    fn stride_of(&self, pc: u64, hist: &[(u64, u64)]) -> Option<i64> {
        let mut out = None;
        for t in 0..self.tables.len() {
            let (idx, tag) = self.stride_index_tag(pc, hist, t);
            let e = &self.tables[t][idx];
            if e.valid && e.tag == tag && e.confidence.is_confident() {
                out = Some(e.stride);
            }
        }
        out
    }

    fn train_stride(&mut self, pc: u64, hist: &[(u64, u64)], actual_stride: i64) {
        let mut longest_hit = None;
        let mut provider = None;
        for t in 0..self.tables.len() {
            let (idx, tag) = self.stride_index_tag(pc, hist, t);
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
                let (idx, _) = self.stride_index_tag(pc, hist, t);
                let e = &mut self.tables[t][idx];
                if e.stride == actual_stride {
                    e.confidence.up();
                } else {
                    e.stride = actual_stride;
                    e.confidence.reset();
                }
            }
            None => {
                for t in 0..self.tables.len() {
                    let (idx, tag) = self.stride_index_tag(pc, hist, t);
                    let e = &mut self.tables[t][idx];
                    if !e.valid || e.confidence.is_zero() {
                        e.tag = tag;
                        e.stride = actual_stride;
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

impl VpScheme for Dvtage {
    fn name(&self) -> &'static str {
        "D-VTAGE"
    }

    fn track_history(&mut self, hist: &mut GlobalHistory) {
        self.folds.track(hist);
    }

    fn on_fetch(&mut self, slot: &FetchSlot, ctx: &mut FetchCtx<'_>) {
        self.pending.seq = None;
        if !slot.inst.is_load() || slot.dest_chunks != 1 || slot.inst.is_ordered() {
            return;
        }
        let (li, ltag) = self.lvt_index_tag(slot.pc);
        let mut p = std::mem::take(&mut self.pending);
        self.folds.read(ctx.history, &mut p.hist);
        let mut predicted = None;
        {
            let e = self.lvt[li];
            if e.valid && e.tag == ltag {
                if let Some(stride) = self.stride_of(slot.pc, &p.hist) {
                    // Speculative window: later in-flight instances see
                    // last + k·stride.
                    let k = e.inflight as i64 + 1;
                    predicted = Some(e.last.wrapping_add((stride * k) as u64));
                }
            }
        }
        self.lvt[li].inflight = self.lvt[li].inflight.saturating_add(1);
        p.seq = Some(slot.seq);
        p.predicted = predicted;
        p.lvt_index = li;
        self.pending = p;
        if predicted.is_some() {
            self.predictions += 1;
        }
    }

    fn prediction_at_rename(&mut self, seq: u64, _rename: u64) -> Option<RenamePrediction> {
        if self.warm_only || self.pending.seq != Some(seq) {
            return None;
        }
        self.pending
            .predicted
            .map(|_| RenamePrediction { chunks: 1 })
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
        let actual = info.values.first().copied().unwrap_or(0);
        let (_, ltag) = self.lvt_index_tag(info.pc);
        let e = &mut self.lvt[p.lvt_index];
        e.inflight = e.inflight.saturating_sub(1);
        if e.valid && e.tag == ltag {
            let stride = actual.wrapping_sub(e.last) as i64;
            e.last = actual;
            self.train_stride(info.pc, &p.hist, stride);
        } else {
            *e = LvtEntry {
                tag: ltag,
                last: actual,
                inflight: e.inflight,
                valid: true,
            };
        }
        let predicted = p.predicted;
        self.pending = p;
        let Some(pred) = predicted else {
            return VpVerdict::NONE;
        };
        if !info.was_injected {
            return VpVerdict::NONE;
        }
        let correct = pred == actual && info.values.len() == 1;
        if !correct {
            self.mispredictions += 1;
        }
        VpVerdict {
            predicted: true,
            correct,
        }
    }

    fn extra_counters(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("dvtage_predictions", self.predictions as f64),
            ("dvtage_mispredictions", self.mispredictions as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_uarch::{simulate, NoVp};

    #[test]
    fn storage_is_8kb_class() {
        let d = Dvtage::paper_default();
        // LVT 256×80 + 3×256×35 = 47.4k bits ≈ 6 KB.
        assert_eq!(d.storage_bits(), 256 * 80 + 3 * 256 * 35);
        assert!(d.storage_bits() < 9 * 8 * 1024);
    }

    #[test]
    fn strided_values_become_predictable() {
        // A load returning v, v+8, v+16, ... defeats plain VTAGE but is
        // D-VTAGE's home turf. Simulate through the pipeline on a synthetic
        // pointer-increment trace.
        use lvp_isa::{Asm, MemSize, Reg};
        let mut a = Asm::new(0x1000);
        // memory holds an array of pointers ascending by 8
        let vals: Vec<u64> = (0..512).map(|i| 0x9000 + i * 8).collect();
        a.data_u64(0x20_0000, &vals);
        a.mov(Reg::X0, 0x20_0000);
        a.mov(Reg::X1, 0);
        let top = a.here();
        a.andi(Reg::X1, Reg::X1, 511 * 8);
        a.ldr_idx(Reg::X2, Reg::X0, Reg::X1, MemSize::X); // value strides by 8
        a.addi(Reg::X1, Reg::X1, 8);
        a.b(top);
        let t = lvp_emu::Emulator::new(a.build()).run(20_000).trace;

        let v = simulate(&t, crate::Vtage::paper_default());
        let d = simulate(&t, Dvtage::paper_default());
        assert!(
            d.coverage() > v.coverage() + 0.3,
            "d-vtage {} must beat vtage {} on strided values",
            d.coverage(),
            v.coverage()
        );
        assert!(d.accuracy() > 0.9, "accuracy {}", d.accuracy());
    }

    #[test]
    fn runs_on_the_suite_without_pathologies() {
        for name in ["nat", "aifirf", "gzip"] {
            let t = lvp_workloads::by_name(name).unwrap().trace(30_000);
            let base = simulate(&t, NoVp);
            let d = simulate(&t, Dvtage::paper_default());
            let sp = d.speedup_over(&base);
            assert!(sp > 0.9 && sp < 1.5, "{name}: {sp}");
            if d.vp_predicted > 200 {
                assert!(d.accuracy() > 0.9, "{name}: accuracy {}", d.accuracy());
            }
        }
    }

    #[test]
    fn speculative_window_tracks_inflight_instances() {
        let mut d = Dvtage::paper_default();
        let h = GlobalHistory::new();
        // Train a stride of 8 with a warm LVT.
        use lvp_isa::{Instruction, MemSize, Reg};
        let inst = Instruction::Ldr {
            rd: Reg::X1,
            rn: Reg::X0,
            offset: 0,
            size: MemSize::X,
        };
        let mut value = 0x100u64;
        for seq in 0..300u64 {
            let slot = FetchSlot {
                seq,
                pc: 0x4000,
                fga: 0x4000,
                index_in_group: 0,
                load_index_in_group: 0,
                inst,
                dest_chunks: inst.dest_chunks() as u32,
            };
            // No FetchCtx available standalone; emulate via direct calls:
            // fetch
            let mut lanes = lvp_uarch::LaneTracker::new(2, 6);
            let mut mem = lvp_mem::MemoryHierarchy::new(lvp_mem::HierarchyConfig::default());
            let mut sink = lvp_uarch::NullSink;
            let mut ctx = lvp_uarch::FetchCtx {
                cycle: seq,
                expected_rename: seq + 8,
                history: &h,
                lanes: &mut lanes,
                mem: &mut mem,
                sink: lvp_obs::SinkHandle::new(&mut sink),
            };
            d.on_fetch(&slot, &mut ctx);
            let values = [value];
            let info = ExecInfo {
                seq,
                pc: 0x4000,
                inst,
                eff_addr: 0x8000,
                values: &values,
                exec_cycle: seq + 13,
                conflicting_store_commit: None,
                l1_way: Some(0),
                was_injected: true,
            };
            d.on_execute(&info);
            value = value.wrapping_add(8);
        }
        let (preds, misps) = d.counters();
        assert!(preds > 100, "must predict a steady stride, got {preds}");
        assert!(
            (misps as f64) < 0.1 * preds as f64,
            "stride predictions should be right: {misps}/{preds}"
        );
    }
}
