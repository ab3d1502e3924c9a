//! PAP — Path-based Address Prediction (paper §3.1), the paper's main
//! predictor.
//!
//! A single partially-tagged, direct-mapped Address Prediction Table (APT)
//! indexed and tagged by XOR of the low-order load-PC bits with folded
//! load-path history. Confidence is a 2-bit forward probabilistic counter
//! with vector {1, 1/2, 1/4}, so high confidence needs only ~8 address
//! observations (vs 64–128 value observations in VTAGE). Allocation follows
//! the paper's Policy-2: a miss allocates only when the resident entry's
//! confidence is zero, otherwise it decrements it, letting useful entries
//! survive aliasing.

use crate::addr::{AddrPrediction, AddressPredictor, PredictorActivity};
use crate::fpc::Fpc;
use crate::path::LoadPathHistory;

// The configuration records live with the rest of the `SimConfig` aggregate
// in `lvp-uarch`; re-exported here at their historical paths.
pub use lvp_uarch::simconfig::{AddrWidth, AllocPolicy, PapConfig};

/// Storage layout of one APT entry and of the whole table (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AptLayout {
    pub tag_bits: u32,
    pub addr_bits: u32,
    pub confidence_bits: u32,
    pub size_bits: u32,
    /// Optional cache-way field (log2 of L1D associativity); not counted in
    /// the paper's budget line.
    pub way_bits: u32,
    pub entries: usize,
}

impl AptLayout {
    /// Layout for a configuration.
    pub fn of(cfg: PapConfig, l1_ways: usize) -> AptLayout {
        AptLayout {
            tag_bits: cfg.tag_bits,
            addr_bits: cfg.addr_width.bits(),
            confidence_bits: 2,
            size_bits: 2,
            way_bits: if cfg.way_prediction {
                (l1_ways as u32).next_power_of_two().trailing_zeros()
            } else {
                0
            },
            entries: cfg.entries,
        }
    }

    /// Bits per entry as counted in the paper's budget (way field excluded,
    /// Table 4: 50 bits ARMv7 / 67 bits ARMv8).
    pub fn budget_bits_per_entry(&self) -> u32 {
        self.tag_bits + self.addr_bits + self.confidence_bits + self.size_bits
    }

    /// Total budget in bits.
    pub fn total_budget_bits(&self) -> u64 {
        self.budget_bits_per_entry() as u64 * self.entries as u64
    }
}

#[derive(Debug, Clone)]
struct AptEntry {
    tag: u16,
    addr: u64,
    size_code: u8,
    way: Option<u8>,
    confidence: Fpc,
    valid: bool,
}

/// Training context carried from lookup to train.
#[derive(Debug, Clone, Copy)]
pub struct PapCtx {
    index: u32,
    tag: u16,
}

/// The PAP predictor.
#[derive(Debug)]
pub struct Pap {
    cfg: PapConfig,
    table: Vec<AptEntry>,
    history: LoadPathHistory,
    activity: PredictorActivity,
}

impl Pap {
    /// Builds an empty predictor.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(cfg: PapConfig) -> Pap {
        assert!(
            cfg.entries.is_power_of_two(),
            "APT entries must be a power of two"
        );
        let table = (0..cfg.entries)
            .map(|i| AptEntry {
                tag: 0,
                addr: 0,
                size_code: 0,
                way: None,
                confidence: Fpc::new(
                    cfg.fpc_denoms.iter().copied().filter(|&d| d > 0).collect(),
                    0x9e37_79b9_7f4a_7c15 ^ i as u64,
                ),
                valid: false,
            })
            .collect();
        Pap {
            table,
            history: LoadPathHistory::new(cfg.history_bits),
            activity: PredictorActivity::default(),
            cfg,
        }
    }

    /// The paper-default configuration.
    pub fn paper_default() -> Pap {
        Pap::new(PapConfig::default())
    }

    /// The current load-path history (exposed for tests and diagnostics).
    pub fn history(&self) -> &LoadPathHistory {
        &self.history
    }

    fn index_tag(&self, pc: u64) -> (u32, u64) {
        let idx_bits = self.cfg.entries.trailing_zeros();
        let folded_idx = self.history.folded(idx_bits.max(1));
        let index = (((pc >> 2) ^ folded_idx) as usize) & (self.cfg.entries - 1);
        let folded_tag = self.history.folded(self.cfg.tag_bits);
        let tag = ((pc >> 2) ^ folded_tag) & ((1 << self.cfg.tag_bits) - 1);
        (index as u32, tag)
    }
}

impl AddressPredictor for Pap {
    type Ctx = PapCtx;

    fn name(&self) -> &'static str {
        "PAP"
    }

    fn lookup(&mut self, pc: u64) -> (Option<AddrPrediction>, PapCtx) {
        self.activity.reads += 1;
        let (index, tag) = self.index_tag(pc);
        let ctx = PapCtx {
            index,
            tag: tag as u16,
        };
        let e = &self.table[index as usize];
        let pred = if e.valid && e.tag == ctx.tag && e.confidence.is_confident() {
            Some(AddrPrediction {
                addr: e.addr,
                size_code: e.size_code,
                way: e.way,
                confidence: e.confidence.value(),
            })
        } else {
            None
        };
        (pred, ctx)
    }

    fn train(&mut self, ctx: PapCtx, actual_addr: u64, size_code: u8, way: Option<u8>) {
        self.activity.writes += 1;
        let e = &mut self.table[ctx.index as usize];
        if e.valid && e.tag == ctx.tag {
            if e.addr == actual_addr {
                // Correct (or still-training) entry: build confidence.
                e.confidence.up();
                e.size_code = size_code;
                if way.is_some() {
                    e.way = way;
                }
            } else if self.cfg.train_reset_on_mismatch {
                // §3.1.2: "Otherwise, we reset the confidence and reallocate
                // the entry" with the executed load information.
                e.addr = actual_addr;
                e.size_code = size_code;
                e.way = way;
                e.confidence.reset();
            }
            // else: injected bug for gate tests — stale address survives at
            // full confidence.
        } else {
            // APT miss — allocation per the configured policy.
            let replace = match self.cfg.alloc_policy {
                AllocPolicy::Always => true,
                AllocPolicy::RespectConfidence => !e.valid || e.confidence.is_zero(),
            };
            if replace {
                e.tag = ctx.tag;
                e.addr = actual_addr;
                e.size_code = size_code;
                e.way = way;
                e.confidence.reset();
                e.valid = true;
            } else {
                e.confidence.down();
            }
        }
    }

    fn note_load(&mut self, load_pc: u64) {
        self.history.push_load(load_pc);
    }

    fn storage_bits(&self) -> u64 {
        AptLayout::of(self.cfg, 4).total_budget_bits()
    }

    fn activity(&self) -> PredictorActivity {
        self.activity
    }

    fn path_signature(&self) -> u64 {
        self.history.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::evaluate_standalone;
    use lvp_isa::{Instruction, MemSize, Reg};
    use lvp_trace::{Trace, TraceRecord};

    fn load_rec(pc: u64, addr: u64) -> TraceRecord {
        TraceRecord {
            seq: 0,
            pc,
            inst: Instruction::Ldr {
                rd: Reg::X1,
                rn: Reg::X0,
                offset: 0,
                size: MemSize::X,
            },
            next_pc: pc + 4,
            eff_addr: addr,
            value: addr ^ 0x5555,
            extra_values: None,
        }
    }

    #[test]
    fn table1_budgets_match_paper() {
        let v7 = AptLayout::of(
            PapConfig {
                addr_width: AddrWidth::A32,
                ..PapConfig::default()
            },
            4,
        );
        assert_eq!(v7.budget_bits_per_entry(), 50);
        assert_eq!(v7.total_budget_bits(), 50 * 1024);
        let v8 = AptLayout::of(PapConfig::default(), 4);
        assert_eq!(v8.budget_bits_per_entry(), 67);
        assert_eq!(v8.total_budget_bits(), 67 * 1024);
        assert_eq!(v8.way_bits, 2);
    }

    #[test]
    fn stable_address_becomes_confident_after_about_eight() {
        let mut p = Pap::paper_default();
        let pc = 0x4000;
        let mut first_confident = None;
        for i in 0..32 {
            p.note_load(pc);
            let (pred, ctx) = p.lookup(pc);
            if pred.is_some() && first_confident.is_none() {
                first_confident = Some(i);
            }
            p.train(ctx, 0x8000, 1, Some(2));
        }
        let at = first_confident.expect("must become confident");
        assert!(
            (3..=25).contains(&at),
            "confidence after ~8 observations, got {at}"
        );
        let (pred, _) = {
            p.note_load(pc);
            p.lookup(pc)
        };
        let pr = pred.unwrap();
        assert_eq!(pr.addr, 0x8000);
        assert_eq!(pr.size_code, 1);
        assert_eq!(pr.way, Some(2));
    }

    #[test]
    fn address_change_resets_confidence() {
        let mut p = Pap::paper_default();
        let pc = 0x4000;
        for _ in 0..32 {
            p.note_load(pc);
            let (_, ctx) = p.lookup(pc);
            p.train(ctx, 0x8000, 1, None);
        }
        p.note_load(pc);
        let (_, ctx) = p.lookup(pc);
        p.train(ctx, 0x9000, 1, None); // address changed
        p.note_load(pc);
        let (pred, _) = p.lookup(pc);
        assert!(pred.is_none(), "must retrain after an address change");
    }

    #[test]
    fn injected_bug_keeps_stale_address_confident() {
        // With the §3.1.2 reset disabled, an address change leaves the old
        // address predicted at full confidence — the defect the static
        // cross-validation gate exists to catch.
        let mut p = Pap::new(PapConfig {
            train_reset_on_mismatch: false,
            ..PapConfig::default()
        });
        let pc = 0x4000;
        for _ in 0..32 {
            p.note_load(pc);
            let (_, ctx) = p.lookup(pc);
            p.train(ctx, 0x8000, 1, None);
        }
        p.note_load(pc);
        let (_, ctx) = p.lookup(pc);
        p.train(ctx, 0x9000, 1, None); // address changed, reset skipped
        p.note_load(pc);
        let (pred, _) = p.lookup(pc);
        let pred = pred.expect("buggy predictor stays confident");
        assert_eq!(pred.addr, 0x8000, "stale address survives");
    }

    #[test]
    fn policy2_protects_entries_with_confidence() {
        let mut p = Pap::new(PapConfig {
            entries: 2,
            history_bits: 1,
            ..PapConfig::default()
        });
        let pc_a = 0x4000;
        // One training gives confidence 1 deterministically (first FPC
        // transition has probability 1).
        let (_, ctx) = p.lookup(pc_a);
        p.train(ctx, 0x8000, 1, None);
        let (_, ctx) = p.lookup(pc_a);
        p.train(ctx, 0x8000, 1, None);
        // A conflicting pc B (same index, different tag): Policy-2 only
        // decrements, so A's entry survives and keeps its address — one more
        // round of training on A must not need to relearn the address.
        let pc_b = pc_a + 8; // same index mod 2, different tag
        let (pred_b, ctx_b) = p.lookup(pc_b);
        assert!(pred_b.is_none());
        p.train(ctx_b, 0x9000, 1, None);
        // Drive A back to confidence; if B had stolen the entry, A would
        // restart from a 0x9000/changed-tag entry and the count of trainings
        // to confidence would not matter — so instead verify that A still
        // reaches a confident prediction of its original address.
        let mut confident = None;
        for i in 0..64 {
            let (pred, ctx) = p.lookup(pc_a);
            if let Some(pr) = pred {
                assert_eq!(pr.addr, 0x8000, "entry must have survived the alias");
                confident = Some(i);
                break;
            }
            p.train(ctx, 0x8000, 1, None);
        }
        assert!(confident.is_some(), "A must become confident again");
        // And a second alias touch when A's confidence had been decremented
        // to zero *does* allocate (the Policy-2 replacement path).
        let mut q = Pap::new(PapConfig {
            entries: 2,
            history_bits: 1,
            ..PapConfig::default()
        });
        let (_, ctx_b0) = q.lookup(pc_b);
        q.train(ctx_b0, 0x9000, 1, None); // allocates directly in empty slot
        let (_, ctx_b1) = q.lookup(pc_b);
        q.train(ctx_b1, 0x9000, 1, None);
        let (pred_b, _) = q.lookup(pc_b);
        let _ = pred_b; // still training, but the entry belongs to B now
    }

    #[test]
    fn path_history_disambiguates_same_pc() {
        // The same static load reached via two different load paths with two
        // different stable addresses: PAP should learn both contexts.
        let mut trace = Trace::new();
        for i in 0..400 {
            // bit 2 of 0x1004 is 1, of 0x1008 is 0 — distinct path bits.
            let path_load = if i % 2 == 0 { 0x1004 } else { 0x1008 };
            trace.push(load_rec(path_load, 0x7000 + (i % 2) * 8));
            trace.push(load_rec(0x2000, 0x8000 + (i % 2) * 64));
        }
        let mut p = Pap::paper_default();
        let eval = evaluate_standalone(&trace, &mut p);
        assert!(
            eval.accuracy() > 0.95,
            "path context should separate the two addresses: acc {}",
            eval.accuracy()
        );
        assert!(eval.coverage() > 0.5, "coverage {}", eval.coverage());
    }

    #[test]
    fn standalone_eval_on_stable_stream_has_high_accuracy() {
        let mut trace = Trace::new();
        for i in 0..2000 {
            trace.push(load_rec(0x1000 + (i % 8) * 4, 0x9000 + (i % 8) * 16));
        }
        let mut p = Pap::paper_default();
        let eval = evaluate_standalone(&trace, &mut p);
        assert!(eval.accuracy() > 0.99, "acc {}", eval.accuracy());
        assert!(eval.coverage() > 0.8, "cov {}", eval.coverage());
    }

    #[test]
    fn activity_counters_accumulate() {
        let mut p = Pap::paper_default();
        let (_, ctx) = p.lookup(0x40);
        p.train(ctx, 0x100, 0, None);
        let a = p.activity();
        assert_eq!(a.reads, 1);
        assert_eq!(a.writes, 1);
        assert!(p.storage_bits() >= 50 * 1024);
    }
}
