//! ITTAGE indirect-branch target predictor (Seznec, CBP-3 2011 — reference 36
//! of the paper).
//!
//! Same skeleton as TAGE but each entry stores a full target address and a
//! 2-bit hysteresis counter instead of a direction counter.

use crate::history::{Fold, GlobalHistory};

/// ITTAGE configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IttageConfig {
    /// log2 entries of the tagless base target table.
    pub base_log2: u32,
    /// log2 entries of each tagged table.
    pub tagged_log2: u32,
    pub tag_bits: u32,
    pub history_lengths: Vec<u32>,
}

impl IttageConfig {
    /// A ~32 KiB configuration in the spirit of the paper's baseline.
    pub fn default_32kb() -> IttageConfig {
        IttageConfig {
            base_log2: 11,
            tagged_log2: 9,
            tag_bits: 11,
            history_lengths: vec![4, 10, 26, 64],
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    tag: u16,
    target: u64,
    conf: u8,
    valid: bool,
}

/// The ITTAGE predictor.
#[derive(Debug, Clone)]
pub struct Ittage {
    cfg: IttageConfig,
    base: Vec<(u64, bool)>,
    tables: Vec<Vec<Entry>>,
    /// Per tagged table: the history folded to the index width and to the
    /// tag width (see [`Ittage::track_history`]).
    folds: Vec<[Fold; 2]>,
    predictions: u64,
    mispredicts: u64,
}

impl Ittage {
    /// Builds an empty predictor.
    pub fn new(cfg: IttageConfig) -> Ittage {
        let base = vec![(0u64, false); 1 << cfg.base_log2];
        let tables = cfg
            .history_lengths
            .iter()
            .map(|_| vec![Entry::default(); 1 << cfg.tagged_log2])
            .collect();
        let folds = cfg
            .history_lengths
            .iter()
            .map(|&hl| {
                [
                    Fold::untracked(hl, cfg.tagged_log2),
                    Fold::untracked(hl, cfg.tag_bits),
                ]
            })
            .collect();
        Ittage {
            cfg,
            base,
            tables,
            folds,
            predictions: 0,
            mispredicts: 0,
        }
    }

    /// The paper-baseline ~32 KiB shape.
    pub fn default_32kb() -> Ittage {
        Ittage::new(IttageConfig::default_32kb())
    }

    /// (predictions, mispredictions) so far.
    pub fn accuracy_counters(&self) -> (u64, u64) {
        (self.predictions, self.mispredicts)
    }

    /// Has `hist` maintain this predictor's folds incrementally, so
    /// lookups against it read registers instead of re-folding the whole
    /// history. Lookups against any other history stay correct.
    pub fn track_history(&mut self, hist: &mut GlobalHistory) {
        for f in &mut self.folds {
            *f = f.map(|f| hist.track(f.history_len(), f.width()));
        }
    }

    fn base_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & ((1 << self.cfg.base_log2) - 1)
    }

    fn tagged_index(&self, pc: u64, hist: &GlobalHistory, t: usize) -> usize {
        let folded = hist.fold(self.folds[t][0]);
        (((pc >> 2) ^ folded) as usize) & ((1 << self.cfg.tagged_log2) - 1)
    }

    fn tag_of(&self, pc: u64, hist: &GlobalHistory, t: usize) -> u16 {
        let f = hist.fold(self.folds[t][1]);
        ((((pc >> 2) ^ (pc >> 13)) ^ (f << 1)) & ((1 << self.cfg.tag_bits) - 1)) as u16
    }

    /// Predicts the target of the indirect branch at `pc` under `hist`.
    /// Returns `None` when nothing is known yet.
    pub fn predict(&self, pc: u64, hist: &GlobalHistory) -> Option<u64> {
        for t in (0..self.tables.len()).rev() {
            let e = self.tables[t][self.tagged_index(pc, hist, t)];
            if e.valid && e.tag == self.tag_of(pc, hist, t) {
                return Some(e.target);
            }
        }
        let (target, valid) = self.base[self.base_index(pc)];
        valid.then_some(target)
    }

    /// Updates with the actual `target`.
    pub fn update(&mut self, pc: u64, hist: &GlobalHistory, target: u64) {
        self.predictions += 1;
        let predicted = self.predict(pc, hist);
        let correct = predicted == Some(target);
        if !correct {
            self.mispredicts += 1;
        }

        // Update the providing entry / base.
        let mut provided = false;
        for t in (0..self.tables.len()).rev() {
            let idx = self.tagged_index(pc, hist, t);
            let tag = self.tag_of(pc, hist, t);
            let e = &mut self.tables[t][idx];
            if e.valid && e.tag == tag {
                if e.target == target {
                    e.conf = (e.conf + 1).min(3);
                } else if e.conf > 0 {
                    e.conf -= 1;
                } else {
                    e.target = target;
                }
                provided = true;
                break;
            }
        }
        let bidx = self.base_index(pc);
        if !provided || !correct {
            self.base[bidx] = (target, true);
        }

        // Allocate on mispredict in the table after the provider (simplest:
        // first table whose slot has conf 0 or is invalid).
        if !correct {
            for t in 0..self.tables.len() {
                let idx = self.tagged_index(pc, hist, t);
                let tag = self.tag_of(pc, hist, t);
                let e = &mut self.tables[t][idx];
                if !e.valid || e.conf == 0 {
                    *e = Entry {
                        tag,
                        target,
                        conf: 1,
                        valid: true,
                    };
                    break;
                } else {
                    e.conf -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monomorphic_target_learned_immediately() {
        let mut it = Ittage::default_32kb();
        let h = GlobalHistory::new();
        assert_eq!(it.predict(0x100, &h), None);
        it.update(0x100, &h, 0x4000);
        assert_eq!(it.predict(0x100, &h), Some(0x4000));
    }

    #[test]
    fn history_disambiguates_polymorphic_targets() {
        // Same indirect branch alternates targets, correlated with the
        // preceding branch direction.
        let mut it = Ittage::default_32kb();
        let mut wrong_late = 0;
        let mut h = GlobalHistory::new();
        for i in 0..600 {
            let phase = i % 2 == 0;
            h.push(phase); // correlated shadow branch
            let target = if phase { 0x4000 } else { 0x5000 };
            if i >= 300 && it.predict(0x200, &h) != Some(target) {
                wrong_late += 1;
            }
            it.update(0x200, &h, target);
        }
        assert!(
            wrong_late < 30,
            "ITTAGE should learn correlated targets, got {wrong_late}"
        );
    }

    #[test]
    fn counters_track_mispredicts() {
        let mut it = Ittage::default_32kb();
        let h = GlobalHistory::new();
        it.update(0x300, &h, 0x1000);
        it.update(0x300, &h, 0x1000);
        let (p, m) = it.accuracy_counters();
        assert_eq!(p, 2);
        assert_eq!(m, 1, "only the cold miss");
    }
}
