//! Gshare — the classic global-history-XOR-PC predictor, included as the
//! weaker baseline for branch-prediction sensitivity studies.
//!
//! Value prediction's benefit interacts with branch prediction quality (the
//! paper's §5.2.3 perlbmk analysis: predicted loads resolve mispredicted
//! branches early, so the *worse* the branch predictor, the more exposure
//! value prediction can recover). Swapping TAGE for gshare in the core
//! model quantifies that interaction.

use crate::history::GlobalHistory;

/// Gshare configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GshareConfig {
    /// log2 of the pattern-history-table size.
    pub pht_log2: u32,
    /// History bits XORed into the index.
    pub history_bits: u32,
}

impl Default for GshareConfig {
    fn default() -> GshareConfig {
        GshareConfig {
            pht_log2: 14,
            history_bits: 12,
        }
    }
}

/// The gshare predictor.
#[derive(Debug, Clone)]
pub struct Gshare {
    cfg: GshareConfig,
    /// 2-bit counters, taken when ≥ 0.
    pht: Vec<i8>,
}

impl Gshare {
    /// Builds an empty predictor.
    pub fn new(cfg: GshareConfig) -> Gshare {
        Gshare {
            pht: vec![0; 1 << cfg.pht_log2],
            cfg,
        }
    }

    /// A 16K-entry default.
    pub fn default_16k() -> Gshare {
        Gshare::new(GshareConfig::default())
    }

    fn index(&self, pc: u64, hist: &GlobalHistory) -> usize {
        let h = hist.low(self.cfg.history_bits.min(64));
        (((pc >> 2) ^ h) as usize) & ((1 << self.cfg.pht_log2) - 1)
    }

    /// Predicts the direction of the conditional branch at `pc` under
    /// `hist`.
    pub fn predict(&self, pc: u64, hist: &GlobalHistory) -> bool {
        self.pht[self.index(pc, hist)] >= 0
    }

    /// Updates with the actual outcome; call with the history the
    /// prediction used, before the outcome is pushed into it.
    pub fn update(&mut self, pc: u64, hist: &GlobalHistory, taken: bool) {
        let idx = self.index(pc, hist);
        let c = &mut self.pht[idx];
        *c = if taken {
            (*c + 1).min(1)
        } else {
            (*c - 1).max(-2)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Predicts, trains and pushes one outcome; returns the predicted
    /// direction.
    fn step(g: &mut Gshare, h: &mut GlobalHistory, pc: u64, taken: bool) -> bool {
        let p = g.predict(pc, h);
        g.update(pc, h, taken);
        h.push(taken);
        p
    }

    #[test]
    fn biased_branch_learns() {
        let (mut g, mut h) = (Gshare::default_16k(), GlobalHistory::new());
        let m = (0..16)
            .filter(|_| !step(&mut g, &mut h, 0x400, true))
            .count();
        assert!(g.predict(0x400, &h));
        assert!(m <= 2);
    }

    #[test]
    fn alternation_learned_through_history() {
        let (mut g, mut h) = (Gshare::default_16k(), GlobalHistory::new());
        let mut wrong_late = 0;
        for i in 0..600 {
            let taken = i % 2 == 0;
            if step(&mut g, &mut h, 0x800, taken) != taken && i >= 300 {
                wrong_late += 1;
            }
        }
        assert!(wrong_late < 30, "got {wrong_late}");
    }

    #[test]
    fn weaker_than_tage_on_long_patterns() {
        // Period-24 loop pattern: inside gshare's 12-bit history reach but
        // aliasing-prone; TAGE's long tagged tables nail it. Both read one
        // shared history, as in the core.
        let mut g = Gshare::default_16k();
        let mut t = crate::Tage::default_32kb();
        let mut h = GlobalHistory::new();
        t.track_history(&mut h);
        let (mut gw, mut tw) = (0u32, 0u32);
        for i in 0..4000 {
            let taken = i % 24 != 23;
            let gp = g.predict(0x900, &h);
            let tp = t.predict(0x900, &h);
            if i >= 2000 {
                gw += u32::from(gp != taken);
                tw += u32::from(tp.taken != taken);
            }
            g.update(0x900, &h, taken);
            t.update(0x900, &h, taken, tp);
            h.push(taken);
        }
        assert!(tw <= gw, "TAGE ({tw}) should not lose to gshare ({gw})");
    }
}
