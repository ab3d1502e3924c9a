//! TAGE conditional-branch predictor (Seznec, "A New Case for the TAGE
//! Branch Predictor", MICRO 2011 — reference 37 of the paper).
//!
//! Structure: a tagless bimodal base table plus `N` partially-tagged tables
//! indexed with geometrically increasing global-history lengths. Prediction
//! comes from the hitting table with the longest history; on a mispredict a
//! new entry is allocated in a longer-history table. Useful (`u`) bits
//! protect entries that recently provided correct predictions.

use crate::history::{Fold, GlobalHistory};

/// TAGE configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TageConfig {
    /// log2 entries of the bimodal base table.
    pub base_log2: u32,
    /// log2 entries of each tagged table.
    pub tagged_log2: u32,
    /// Tag width in bits.
    pub tag_bits: u32,
    /// Global history length per tagged table (ascending).
    pub history_lengths: Vec<u32>,
}

impl TageConfig {
    /// A ~32 KiB configuration in the spirit of the paper's baseline.
    pub fn default_32kb() -> TageConfig {
        TageConfig {
            base_log2: 13,
            tagged_log2: 10,
            tag_bits: 11,
            history_lengths: vec![5, 13, 32, 75],
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TaggedEntry {
    tag: u16,
    /// 3-bit signed counter, taken when ≥ 0 (stored biased).
    ctr: i8,
    /// 2-bit useful counter.
    useful: u8,
}

/// A TAGE prediction plus the provider metadata needed at update time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagePrediction {
    pub taken: bool,
    /// Index of the providing tagged table (None = bimodal base).
    provider: Option<usize>,
    /// Alternate prediction (from the next-longest hit or the base).
    alt_taken: bool,
}

/// The TAGE predictor.
#[derive(Debug, Clone)]
pub struct Tage {
    cfg: TageConfig,
    base: Vec<i8>, // 2-bit counters, taken when >= 0
    tables: Vec<Vec<TaggedEntry>>,
    history: GlobalHistory,
    /// Per tagged table: the history folded to the index width, the tag
    /// width and the tag width less one, maintained incrementally.
    folds: Vec<[Fold; 3]>,
    mispredicts: u64,
    predictions: u64,
}

impl Tage {
    /// Builds an empty predictor.
    pub fn new(cfg: TageConfig) -> Tage {
        let base = vec![0i8; 1 << cfg.base_log2];
        let tables = cfg
            .history_lengths
            .iter()
            .map(|_| vec![TaggedEntry::default(); 1 << cfg.tagged_log2])
            .collect();
        let mut history = GlobalHistory::new();
        let folds = cfg
            .history_lengths
            .iter()
            .map(|&hl| {
                [
                    history.track(hl, cfg.tagged_log2),
                    history.track(hl, cfg.tag_bits),
                    history.track(hl, cfg.tag_bits - 1),
                ]
            })
            .collect();
        Tage {
            cfg,
            base,
            tables,
            history,
            folds,
            mispredicts: 0,
            predictions: 0,
        }
    }

    /// The paper-baseline ~32 KiB shape.
    pub fn default_32kb() -> Tage {
        Tage::new(TageConfig::default_32kb())
    }

    /// (predictions, mispredictions) so far.
    pub fn accuracy_counters(&self) -> (u64, u64) {
        (self.predictions, self.mispredicts)
    }

    /// Read access to the internal global history (shared with VTAGE-style
    /// consumers that want the same speculation point).
    pub fn history(&self) -> &GlobalHistory {
        &self.history
    }

    fn base_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & ((1 << self.cfg.base_log2) - 1)
    }

    fn tagged_index(&self, pc: u64, t: usize) -> usize {
        let folded = self.history.fold(self.folds[t][0]);
        (((pc >> 2) ^ (pc >> (2 + self.cfg.tagged_log2 as u64)) ^ folded) as usize)
            & ((1 << self.cfg.tagged_log2) - 1)
    }

    fn tag_of(&self, pc: u64, t: usize) -> u16 {
        let f1 = self.history.fold(self.folds[t][1]);
        let f2 = self.history.fold(self.folds[t][2]) << 1;
        (((pc >> 2) ^ f1 ^ f2) & ((1 << self.cfg.tag_bits) - 1)) as u16
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&self, pc: u64) -> TagePrediction {
        let mut provider = None;
        let mut provider_taken = self.base[self.base_index(pc)] >= 0;
        let mut alt_taken = provider_taken;
        for t in 0..self.tables.len() {
            let e = self.tables[t][self.tagged_index(pc, t)];
            if e.tag == self.tag_of(pc, t) {
                alt_taken = provider_taken;
                provider = Some(t);
                provider_taken = e.ctr >= 0;
            }
        }
        TagePrediction {
            taken: provider_taken,
            provider,
            alt_taken,
        }
    }

    /// Updates with the actual outcome; call with the prediction returned by
    /// [`Tage::predict`] for this branch. Also advances the global history.
    pub fn update(&mut self, pc: u64, taken: bool, pred: TagePrediction) {
        self.predictions += 1;
        let correct = pred.taken == taken;
        if !correct {
            self.mispredicts += 1;
        }

        match pred.provider {
            Some(t) => {
                let idx = self.tagged_index(pc, t);
                let e = &mut self.tables[t][idx];
                e.ctr = bump(e.ctr, taken, 3);
                if pred.taken != pred.alt_taken {
                    // The provider was useful iff it was correct.
                    if correct {
                        e.useful = (e.useful + 1).min(3);
                    } else {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
            None => {
                let idx = self.base_index(pc);
                self.base[idx] = bump(self.base[idx], taken, 2);
            }
        }

        // Allocate in a longer table on mispredict.
        if !correct {
            let start = pred.provider.map_or(0, |t| t + 1);
            let mut allocated = false;
            for t in start..self.tables.len() {
                let idx = self.tagged_index(pc, t);
                let tag = self.tag_of(pc, t);
                let e = &mut self.tables[t][idx];
                if e.useful == 0 {
                    *e = TaggedEntry {
                        tag,
                        ctr: if taken { 0 } else { -1 },
                        useful: 0,
                    };
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                // Decay usefulness to make room eventually.
                for t in start..self.tables.len() {
                    let idx = self.tagged_index(pc, t);
                    let e = &mut self.tables[t][idx];
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }

        self.history.push(taken);
    }
}

/// Saturating bump of a signed counter with `bits` bits.
fn bump(ctr: i8, up: bool, bits: u32) -> i8 {
    let max = (1 << (bits - 1)) - 1;
    let min = -(1 << (bits - 1));
    if up {
        (ctr + 1).min(max)
    } else {
        (ctr - 1).max(min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn biased_branch_learns() {
        let mut t = Tage::default_32kb();
        for _ in 0..32 {
            let p = t.predict(0x1000);
            t.update(0x1000, true, p);
        }
        assert!(t.predict(0x1000).taken);
        let (preds, misp) = t.accuracy_counters();
        assert_eq!(preds, 32);
        assert!(misp <= 2, "at most the cold mispredicts");
    }

    #[test]
    fn alternating_pattern_learned_via_history() {
        // T,N,T,N ... is unpredictable for bimodal but trivial with history.
        let mut t = Tage::default_32kb();
        let mut wrong_late = 0;
        for i in 0..400 {
            let taken = i % 2 == 0;
            let p = t.predict(0x2000);
            if i >= 200 && p.taken != taken {
                wrong_late += 1;
            }
            t.update(0x2000, taken, p);
        }
        assert!(
            wrong_late < 20,
            "TAGE should learn T/N alternation, got {wrong_late} wrong"
        );
    }

    #[test]
    fn loop_exit_pattern() {
        // 7 taken then 1 not-taken, repeated: needs ~3 bits of history.
        let mut t = Tage::default_32kb();
        let mut wrong_late = 0;
        for i in 0..800 {
            let taken = i % 8 != 7;
            let p = t.predict(0x3000);
            if i >= 400 && p.taken != taken {
                wrong_late += 1;
            }
            t.update(0x3000, taken, p);
        }
        assert!(
            wrong_late < 30,
            "loop pattern should be learned, got {wrong_late}"
        );
    }

    #[test]
    fn independent_branches_do_not_thrash_base() {
        let mut t = Tage::default_32kb();
        for _ in 0..64 {
            let p1 = t.predict(0x1000);
            t.update(0x1000, true, p1);
            let p2 = t.predict(0x5000);
            t.update(0x5000, false, p2);
        }
        assert!(t.predict(0x1000).taken);
        assert!(!t.predict(0x5000).taken);
    }

    #[test]
    fn bump_saturates() {
        assert_eq!(bump(3, true, 3), 3);
        assert_eq!(bump(-4, false, 3), -4);
        assert_eq!(bump(0, false, 3), -1);
        assert_eq!(bump(1, false, 2), 0);
    }
}
