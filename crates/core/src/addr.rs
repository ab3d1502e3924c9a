//! The address-predictor interface shared by PAP and CAP, plus the
//! standalone (timing-free) evaluation used for Figure 4.

use lvp_trace::{Trace, TraceRecord};

/// One address prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrPrediction {
    /// Predicted effective address.
    pub addr: u64,
    /// Predicted access size code (Table 1's 2-bit size field).
    pub size_code: u8,
    /// Predicted L1D way, when way prediction is trained (Table 1, optional
    /// field).
    pub way: Option<u8>,
    /// Confidence of the predicting entry at lookup (FPC value for PAP,
    /// saturating counter for CAP). Observability only — the engine's
    /// predict/don't-predict decision happened inside the predictor.
    pub confidence: u8,
}

/// Read/write activity counters (for the Figure 6d energy comparison).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorActivity {
    pub reads: u64,
    pub writes: u64,
}

/// A context-based load address predictor.
///
/// `lookup` is called at fetch with the *proxy* PC (the fetch-group address
/// plus the intra-group load index, per paper §3.1.1); it returns the
/// prediction, if confident, together with an opaque training context that
/// travels with the instruction and comes back to [`AddressPredictor::train`]
/// at execute — exactly the index/tag the hardware would carry in the
/// pipeline payload.
pub trait AddressPredictor {
    /// Opaque per-lookup state (table index, tag, history snapshot…).
    type Ctx: Copy;

    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Looks up a prediction for the load identified by `pc`.
    fn lookup(&mut self, pc: u64) -> (Option<AddrPrediction>, Self::Ctx);

    /// Trains with the executed load's actual address/size/way under the
    /// context captured at lookup time.
    fn train(&mut self, ctx: Self::Ctx, actual_addr: u64, size_code: u8, way: Option<u8>);

    /// Observes a fetched load for history construction (PAP shifts its
    /// load-path register here; CAP updates per-PC history in `train`).
    fn note_load(&mut self, load_pc: u64);

    /// Total storage in bits (for Table 4's budget lines and Fig 6d).
    fn storage_bits(&self) -> u64;

    /// Accumulated read/write activity.
    fn activity(&self) -> PredictorActivity;

    /// Snapshot of the predictor's path-history register, recorded into
    /// fetch-time observability events. History-free predictors (CAP) keep
    /// the default 0.
    fn path_signature(&self) -> u64 {
        0
    }
}

/// Result of a standalone address-prediction evaluation (Figure 4).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AddrEval {
    pub loads: u64,
    pub predicted: u64,
    pub correct: u64,
}

impl AddrEval {
    /// Paper's coverage: predicted loads / dynamic loads.
    pub fn coverage(&self) -> f64 {
        ratio(self.predicted, self.loads)
    }

    /// Paper's accuracy: correct / predicted.
    pub fn accuracy(&self) -> f64 {
        ratio(self.correct, self.predicted)
    }

    /// Merges per-workload evaluations.
    pub fn merge(&mut self, other: &AddrEval) {
        self.loads += other.loads;
        self.predicted += other.predicted;
        self.correct += other.correct;
    }

    /// Evaluates `predictor` as a standalone address predictor on the next
    /// record of a stream, counting it if it is a load (no timing,
    /// immediate training — the Figure 4 methodology).
    pub fn observe<P: AddressPredictor>(&mut self, predictor: &mut P, rec: &TraceRecord) {
        let Some(lv) = rec.as_load() else { return };
        self.loads += 1;
        predictor.note_load(lv.pc);
        let (pred, ctx) = predictor.lookup(lv.pc);
        if let Some(p) = pred {
            self.predicted += 1;
            if p.addr == lv.addr {
                self.correct += 1;
            }
        }
        predictor.train(ctx, lv.addr, size_code_for(lv.bytes), None);
    }
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Evaluates `predictor` as a standalone address predictor over every
/// dynamic load of `trace`: [`AddrEval::observe`] over its records.
pub fn evaluate_standalone<P: AddressPredictor>(trace: &Trace, predictor: &mut P) -> AddrEval {
    let mut eval = AddrEval::default();
    for rec in trace.records() {
        eval.observe(predictor, rec);
    }
    eval
}

/// The APT size-field encoding for an access width in bytes.
pub fn size_code_for(bytes: u64) -> u8 {
    match bytes {
        0..=4 => 0,
        5..=8 => 1,
        9..=16 => 2,
        _ => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_ratios() {
        let mut e = AddrEval {
            loads: 100,
            predicted: 40,
            correct: 39,
        };
        assert!((e.coverage() - 0.4).abs() < 1e-12);
        assert!((e.accuracy() - 0.975).abs() < 1e-12);
        e.merge(&AddrEval {
            loads: 100,
            predicted: 0,
            correct: 0,
        });
        assert!((e.coverage() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn size_codes() {
        assert_eq!(size_code_for(1), 0);
        assert_eq!(size_code_for(4), 0);
        assert_eq!(size_code_for(8), 1);
        assert_eq!(size_code_for(16), 2);
        assert_eq!(size_code_for(128), 3);
    }

    #[test]
    fn empty_eval_is_zero() {
        let e = AddrEval::default();
        assert_eq!(e.coverage(), 0.0);
        assert_eq!(e.accuracy(), 0.0);
    }
}
