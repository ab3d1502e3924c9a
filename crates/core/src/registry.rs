//! The scheme registry: every prediction scheme the experiments compare,
//! buildable from a `SimConfig` as a boxed trait object.
//!
//! [`SchemeKind::build`] is the single place a scheme name turns into a
//! configured predictor — the experiment harness, batch runner and obs CLI
//! all dispatch through it instead of repeating a five-arm `match` per call
//! site. The trait object costs one virtual call per scheme hook; the
//! umbrella suite's `scheme_registry` test pins the boxed path to
//! stat-identical results with the generic path.

use crate::dvtage::Dvtage;
use crate::engine::Dlvp;
use crate::pap::Pap;
use crate::tournament::Tournament;
use crate::vtage::Vtage;
use crate::Cap;
use lvp_json::{DecodeError, FromJson, Json, ToJson};
use lvp_uarch::{NoVp, SimConfig, VpScheme};

/// Which scheme to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    Baseline,
    Dlvp,
    /// DLVP machinery with the CAP address predictor (paper §5.2.3).
    Cap,
    Vtage,
    Tournament,
    /// The D-VTAGE extension study: not one of the paper's compared
    /// schemes, so it stays out of [`SchemeKind::all`].
    Dvtage,
}

impl SchemeKind {
    /// Display name matching the paper's figures. Load-bearing beyond
    /// display: batch-runner job seeds and golden-stat snapshots key on
    /// these exact strings.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Baseline => "baseline",
            SchemeKind::Dlvp => "DLVP",
            SchemeKind::Cap => "CAP",
            SchemeKind::Vtage => "VTAGE",
            SchemeKind::Tournament => "DLVP+VTAGE",
            SchemeKind::Dvtage => "D-VTAGE",
        }
    }

    /// Stable lowercase identifier for CLIs and file names (`name()` has
    /// `+` and mixed case). Round-trips through [`SchemeKind::from_name`].
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Baseline => "baseline",
            SchemeKind::Dlvp => "dlvp",
            SchemeKind::Cap => "cap",
            SchemeKind::Vtage => "vtage",
            SchemeKind::Tournament => "tournament",
            SchemeKind::Dvtage => "dvtage",
        }
    }

    /// Every scheme the paper compares, in the order used by the figures
    /// (the batch-runner matrix; D-VTAGE is not among them).
    pub fn all() -> [SchemeKind; 5] {
        [
            SchemeKind::Baseline,
            SchemeKind::Cap,
            SchemeKind::Vtage,
            SchemeKind::Dlvp,
            SchemeKind::Tournament,
        ]
    }

    /// Parses a scheme from its display name or its label, D-VTAGE
    /// included (case-insensitive, so `tournament` names `DLVP+VTAGE`).
    pub fn from_name(name: &str) -> Option<SchemeKind> {
        Self::all()
            .into_iter()
            .chain([SchemeKind::Dvtage])
            .find(|s| s.name().eq_ignore_ascii_case(name) || s.label().eq_ignore_ascii_case(name))
    }

    /// Builds the configured scheme as a boxed trait object.
    pub fn build(self, cfg: &SimConfig) -> Box<dyn VpScheme> {
        match self {
            SchemeKind::Baseline => Box::new(NoVp),
            SchemeKind::Dlvp => Box::new(Dlvp::new(cfg.dlvp, Pap::new(cfg.pap))),
            SchemeKind::Cap => Box::new(Dlvp::new(cfg.dlvp, Cap::new(cfg.cap))),
            SchemeKind::Vtage => Box::new(Vtage::new(cfg.vtage.clone())),
            SchemeKind::Tournament => Box::new(Tournament::with_parts(
                Dlvp::new(cfg.dlvp, Pap::new(cfg.pap)),
                Vtage::new(cfg.vtage.clone()),
            )),
            SchemeKind::Dvtage => Box::new(Dvtage::paper_default()),
        }
    }
}

impl ToJson for SchemeKind {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

impl FromJson for SchemeKind {
    /// Accepts anything [`SchemeKind::from_name`] does.
    fn from_json(j: &Json) -> Result<SchemeKind, DecodeError> {
        let name = String::from_json(j)?;
        SchemeKind::from_name(&name)
            .ok_or_else(|| DecodeError::new(format!("unknown scheme '{name}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_labels_round_trip() {
        for s in SchemeKind::all().into_iter().chain([SchemeKind::Dvtage]) {
            assert_eq!(SchemeKind::from_name(s.name()), Some(s));
            assert_eq!(SchemeKind::from_name(s.label()), Some(s));
            assert_eq!(SchemeKind::from_json(&s.to_json()), Ok(s));
        }
        assert_eq!(SchemeKind::Dvtage.name(), "D-VTAGE");
        assert_eq!(SchemeKind::Dvtage.label(), "dvtage");
        assert!(!SchemeKind::all().contains(&SchemeKind::Dvtage));
        assert_eq!(SchemeKind::from_name("nonesuch"), None);
    }

    #[test]
    fn from_name_rejects_empty_and_near_misses() {
        assert_eq!(SchemeKind::from_name(""), None);
        assert_eq!(SchemeKind::from_name(" "), None);
        assert_eq!(SchemeKind::from_name(" dlvp"), None, "no trimming");
        assert_eq!(SchemeKind::from_name("dlvp+"), None);
        assert_eq!(SchemeKind::from_name("DLVP+VTAGE "), None);
        // Case-insensitivity is exact-match only.
        assert_eq!(
            SchemeKind::from_name("TOURNAMENT"),
            Some(SchemeKind::Tournament)
        );
        assert_eq!(
            SchemeKind::from_name("BaSeLiNe"),
            Some(SchemeKind::Baseline)
        );
    }

    #[test]
    fn build_matches_historical_constructors() {
        // The registry under the default config must equal the historical
        // `dlvp_default()` / `dlvp_with_cap()` / `paper_default()`
        // constructions — compared here through a short simulation since
        // schemes are not `PartialEq`.
        let cfg = SimConfig::paper_default();
        let t = lvp_workloads::by_name("aifirf")
            .expect("workload")
            .trace(8_000);
        for kind in SchemeKind::all().into_iter().chain([SchemeKind::Dvtage]) {
            let boxed = lvp_uarch::simulate(&t, kind.build(&cfg));
            let concrete = match kind {
                SchemeKind::Baseline => lvp_uarch::simulate(&t, NoVp),
                SchemeKind::Dlvp => lvp_uarch::simulate(&t, crate::engine::dlvp_default()),
                SchemeKind::Cap => lvp_uarch::simulate(&t, crate::engine::dlvp_with_cap()),
                SchemeKind::Vtage => lvp_uarch::simulate(&t, Vtage::paper_default()),
                SchemeKind::Tournament => lvp_uarch::simulate(&t, Tournament::new()),
                SchemeKind::Dvtage => lvp_uarch::simulate(&t, Dvtage::paper_default()),
            };
            assert_eq!(boxed, concrete, "{} diverged", kind.name());
        }
    }
}
