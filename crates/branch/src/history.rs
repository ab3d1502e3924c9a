//! Global branch history register.
//!
//! One bit per conditional branch outcome, newest in bit 0. VTAGE folds
//! prefixes of this history into its table indices (paper §2.1: "indexed
//! using a hash of instruction PC and different number of bits from the
//! global branch history").
//!
//! Predictors read the same few folds on every lookup, so the history keeps
//! each fold a consumer [`GlobalHistory::track`]s in an incremental
//! circular-shift register, the way hardware TAGE does: every
//! [`GlobalHistory::push`] rotates each register by one bit, shifts the
//! new outcome in and cancels the outcome that just aged past the fold's
//! length. A lookup is then one load instead of a walk over the history.

/// Handle to one fold of a [`GlobalHistory`]: its newest `len` bits
/// XOR-folded down to `width` bits. [`GlobalHistory::fold`] answers it from
/// the history's incremental register when the history tracks it (see
/// [`GlobalHistory::track`]) and folds from scratch otherwise, so a handle is
/// valid against any history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fold {
    len: u32,
    width: u32,
    /// Register index in the tracking history (`u32::MAX`: untracked).
    slot: u32,
}

impl Fold {
    /// A handle no history tracks: reading it always folds from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64, or `len` exceeds
    /// [`GlobalHistory::CAPACITY`].
    pub fn untracked(len: u32, width: u32) -> Fold {
        assert!(width > 0 && width <= 64, "fold width must be 1..=64");
        assert!(
            len <= GlobalHistory::CAPACITY,
            "fold length exceeds the history capacity"
        );
        Fold {
            len,
            width,
            slot: u32::MAX,
        }
    }

    /// History bits folded.
    pub fn history_len(&self) -> u32 {
        self.len
    }

    /// Folded width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }
}

/// One incrementally maintained fold. Bit `i` of the history (age `i`,
/// newest 0) lives at position `i mod width` for every `i < len`. The
/// position an outgoing bit is cancelled at (`len mod width`) and the width
/// mask are fixed when the fold is tracked, so a push never divides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FoldRegister {
    len: u32,
    width: u32,
    /// `len % width`: where the bit aging past `len` sits after a rotation.
    out_pos: u32,
    /// The low `width` bits.
    mask: u64,
    value: u64,
}

impl FoldRegister {
    fn new(len: u32, width: u32, value: u64) -> FoldRegister {
        FoldRegister {
            len,
            width,
            out_pos: len % width,
            mask: u64::MAX >> (64 - width),
            value,
        }
    }

    /// Advances the register past one push: `before` is the history before
    /// the push, `taken` the outcome shifted in.
    #[inline]
    fn push(&mut self, before: u128, taken: bool) {
        if self.len == 0 {
            return;
        }
        // Every bit ages by one: rotate left within `width` bits.
        let rotated = ((self.value << 1) | (self.value >> (self.width - 1))) & self.mask;
        // The bit that was age `len - 1` is now age `len`: cancel it at the
        // position the rotation carried it to.
        let outgoing = ((before >> (self.len - 1)) & 1) as u64;
        self.value = rotated ^ u64::from(taken) ^ (outgoing << self.out_pos);
    }
}

/// A shift-register of conditional branch outcomes, plus the incremental
/// folds its consumers track.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GlobalHistory {
    bits: u128,
    folds: Vec<FoldRegister>,
}

impl GlobalHistory {
    /// Outcomes the register holds.
    pub const CAPACITY: u32 = 128;

    /// Empty history.
    pub fn new() -> GlobalHistory {
        GlobalHistory::default()
    }

    /// Shifts in one outcome (newest at bit 0) and advances every tracked
    /// fold.
    #[inline]
    pub fn push(&mut self, taken: bool) {
        let before = self.bits;
        self.bits = (before << 1) | (taken as u128);
        for f in &mut self.folds {
            f.push(before, taken);
        }
    }

    /// Starts maintaining the fold of the newest `len` bits to `width` bits
    /// incrementally and returns its handle. Tracking the same pair twice
    /// shares one register.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64, or `len` exceeds
    /// [`GlobalHistory::CAPACITY`].
    pub fn track(&mut self, len: u32, width: u32) -> Fold {
        let mut fold = Fold::untracked(len, width);
        let slot = match self
            .folds
            .iter()
            .position(|f| f.len == len && f.width == width)
        {
            Some(slot) => slot,
            None => {
                self.folds
                    .push(FoldRegister::new(len, width, self.folded(len, width)));
                self.folds.len() - 1
            }
        };
        fold.slot = slot as u32;
        fold
    }

    /// The value of `fold`: its register when this history tracks it,
    /// otherwise [`GlobalHistory::folded`].
    #[inline]
    pub fn fold(&self, fold: Fold) -> u64 {
        match self.register(fold) {
            Some(f) => f.value,
            None => self.folded(fold.len, fold.width),
        }
    }

    /// Whether `fold` reads an incremental register of this history.
    pub fn is_tracked(&self, fold: Fold) -> bool {
        self.register(fold).is_some()
    }

    #[inline]
    fn register(&self, fold: Fold) -> Option<&FoldRegister> {
        self.folds
            .get(fold.slot as usize)
            .filter(|f| f.len == fold.len && f.width == fold.width)
    }

    /// The newest `n` bits (`n ≤ 64`) as a u64.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn low(&self, n: u32) -> u64 {
        assert!(n <= 64, "at most 64 history bits can be extracted");
        if n == 0 {
            0
        } else {
            (self.bits as u64) & (u64::MAX >> (64 - n))
        }
    }

    /// Folds the newest `n` bits down to `width` bits by XOR-ing
    /// `width`-sized chunks, the classic TAGE index-folding, walking the
    /// history from scratch. The reference every tracked register must
    /// equal after each push.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn folded(&self, n: u32, width: u32) -> u64 {
        assert!(width > 0 && width <= 64, "fold width must be 1..=64");
        let mut remaining = n;
        let mut shift = 0u32;
        let mut acc = 0u64;
        while remaining > 0 {
            let take = remaining.min(width).min(64);
            let chunk = ((self.bits >> shift) as u64) & (u64::MAX >> (64 - take));
            acc ^= chunk;
            shift += take;
            remaining -= take;
        }
        acc & (u64::MAX >> (64 - width))
    }

    /// Raw snapshot (for checkpoint/restore on flush).
    pub fn snapshot(&self) -> u128 {
        self.bits
    }

    /// Restores a snapshot, re-deriving every tracked fold.
    pub fn restore(&mut self, snap: u128) {
        self.bits = snap;
        for i in 0..self.folds.len() {
            let FoldRegister { len, width, .. } = self.folds[i];
            self.folds[i].value = self.folded(len, width);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_low() {
        let mut h = GlobalHistory::new();
        h.push(true);
        h.push(false);
        h.push(true);
        assert_eq!(h.low(3), 0b101);
        assert_eq!(h.low(1), 0b1);
        assert_eq!(h.low(0), 0);
    }

    #[test]
    fn folded_is_stable_and_width_bounded() {
        let mut h = GlobalHistory::new();
        for i in 0..40 {
            h.push(i % 3 == 0);
        }
        let f = h.folded(40, 10);
        assert!(f < 1024);
        assert_eq!(f, h.folded(40, 10), "pure function of state");
        // Different histories give (almost always) different folds.
        let mut h2 = h.clone();
        h2.push(true);
        assert_ne!(h.snapshot(), h2.snapshot());
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut h = GlobalHistory::new();
        let fold = h.track(13, 8);
        h.push(true);
        let snap = h.snapshot();
        let at_snap = h.fold(fold);
        h.push(false);
        h.push(true);
        h.restore(snap);
        assert_eq!(h.low(1), 1);
        assert_eq!(h.snapshot(), snap);
        assert_eq!(h.fold(fold), at_snap, "restore re-derives tracked folds");
    }

    #[test]
    fn tracking_is_shared_and_handles_work_on_any_history() {
        let mut h = GlobalHistory::new();
        let a = h.track(26, 9);
        assert_eq!(h.track(26, 9), a, "one register per (len, width)");
        assert_ne!(h.track(26, 11), a);
        // A handle from `h` against a history that never tracked it still
        // reads the right fold.
        let mut other = GlobalHistory::new();
        for i in 0..50 {
            other.push(i % 5 < 2);
        }
        assert!(h.is_tracked(a) && !other.is_tracked(a));
        assert_eq!(other.fold(a), other.folded(26, 9));
        assert_eq!(other.fold(Fold::untracked(26, 9)), other.folded(26, 9));
    }

    #[test]
    #[should_panic(expected = "64")]
    fn low_bounds_checked() {
        let h = GlobalHistory::new();
        let _ = h.low(65);
    }
}
