//! Declarative synthesis profiles.
//!
//! A [`SynthProfile`] is the *declared intent* of a fuzzing campaign: how
//! many load sites a program gets, the mix of address-predictability
//! classes among them, how often a load is paired with a may-aliasing
//! store, how deep the branch paths feeding path-dependent loads go, and
//! how the alias regions are laid out in the data segment. Together with a
//! seed it fully determines a program (`synth::plan` + `synth::build`), and
//! the soundness check holds the *achieved* mix (as judged by
//! `lvp_analysis`) against the declared one.

use lvp_json::json_struct;

/// Declarative knobs for the program synthesizer.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthProfile {
    /// Stable profile name (keys golden corpora and CLI flags).
    pub name: String,
    /// Load sites per program (1..=8; each site contributes one load,
    /// unanalyzable sites add one constant helper load for the pointer).
    pub loads: usize,
    /// Load-class mix weights in the order constant / strided /
    /// path-dependent / unanalyzable. Zero disables a class.
    pub mix: [u32; 4],
    /// Allowed absolute deviation between the declared class fractions and
    /// the fractions the analyzer reports (helper loads skew toward
    /// constant, so leave headroom).
    pub mix_tolerance: f64,
    /// Fraction of load sites paired with a store the alias pass must
    /// report as may-conflicting (0.0..=1.0). Non-conflicting sites may
    /// still get a store into a provably disjoint region.
    pub store_conflict_density: f64,
    /// Maximum diamond depth feeding a path-dependent load: depth `d`
    /// selects among `2^d` leaf addresses.
    pub branch_path_depth: usize,
    /// Alias-region layout: 8-byte words per region (power of two). Each
    /// site owns one load region and, if storing disjointly, one store
    /// region; regions never overlap by construction.
    pub region_words: u64,
    /// Outer-loop iterations: every site executes this many times, so it
    /// bounds the dynamic instruction count and decides whether the
    /// predictor's confidence thresholds are reachable.
    pub iterations: u64,
}

impl SynthProfile {
    /// Checks the profile is inside the ranges the synthesizer supports.
    pub fn validate(&self) -> Result<(), String> {
        if self.loads == 0 || self.loads > 8 {
            return Err(format!("loads must be 1..=8, got {}", self.loads));
        }
        if self.mix.iter().all(|&w| w == 0) {
            return Err("mix weights must not all be zero".into());
        }
        if !(0.0..=1.0).contains(&self.store_conflict_density) {
            return Err(format!(
                "store_conflict_density must be in 0..=1, got {}",
                self.store_conflict_density
            ));
        }
        if !(0.0..=1.0).contains(&self.mix_tolerance) {
            return Err(format!(
                "mix_tolerance must be in 0..=1, got {}",
                self.mix_tolerance
            ));
        }
        if self.branch_path_depth == 0 || self.branch_path_depth > 3 {
            return Err(format!(
                "branch_path_depth must be 1..=3, got {}",
                self.branch_path_depth
            ));
        }
        if !self.region_words.is_power_of_two() || self.region_words < 16 {
            return Err(format!(
                "region_words must be a power of two >= 16, got {}",
                self.region_words
            ));
        }
        if self.region_words < (1u64 << self.branch_path_depth) {
            return Err("region_words too small for branch_path_depth leaves".into());
        }
        if self.iterations == 0 {
            return Err("iterations must be positive".into());
        }
        Ok(())
    }

    /// The named preset catalogue.
    pub fn preset(name: &str) -> Option<SynthProfile> {
        let p = match name {
            "smoke" => SynthProfile {
                name: "smoke".into(),
                loads: 5,
                mix: [3, 2, 1, 0],
                mix_tolerance: 0.25,
                store_conflict_density: 0.4,
                branch_path_depth: 1,
                region_words: 16,
                iterations: 300,
            },
            "store_conflict" => SynthProfile {
                name: "store_conflict".into(),
                loads: 7,
                mix: [4, 2, 1, 0],
                mix_tolerance: 0.25,
                store_conflict_density: 0.75,
                branch_path_depth: 1,
                region_words: 16,
                iterations: 400,
            },
            "path_heavy" => SynthProfile {
                name: "path_heavy".into(),
                loads: 6,
                mix: [1, 1, 4, 0],
                mix_tolerance: 0.25,
                store_conflict_density: 0.3,
                branch_path_depth: 3,
                region_words: 16,
                iterations: 350,
            },
            "strided" => SynthProfile {
                name: "strided".into(),
                loads: 6,
                mix: [1, 5, 0, 0],
                mix_tolerance: 0.25,
                store_conflict_density: 0.5,
                branch_path_depth: 1,
                region_words: 32,
                iterations: 400,
            },
            "mixed" => SynthProfile {
                name: "mixed".into(),
                loads: 8,
                mix: [3, 2, 2, 1],
                mix_tolerance: 0.3,
                store_conflict_density: 0.5,
                branch_path_depth: 2,
                region_words: 16,
                iterations: 350,
            },
            // Analyzer-guided: weighted toward the sites the dependence
            // pass finds hardest (unanalyzable pointer loads) and densest
            // in may/must-conflicting stores, to exercise the R5-R7 rules
            // and the static-verdict pruning of the oracle.
            "guided" => SynthProfile {
                name: "guided".into(),
                loads: 8,
                mix: [2, 1, 1, 4],
                mix_tolerance: 0.35,
                store_conflict_density: 0.9,
                branch_path_depth: 2,
                region_words: 16,
                iterations: 400,
            },
            _ => return None,
        };
        Some(p)
    }

    /// Names accepted by [`SynthProfile::preset`], in catalogue order.
    pub fn preset_names() -> [&'static str; 6] {
        [
            "smoke",
            "store_conflict",
            "path_heavy",
            "strided",
            "mixed",
            "guided",
        ]
    }

    /// Declared class fractions (normalized mix weights), in class order.
    pub fn declared_fractions(&self) -> [f64; 4] {
        let total: u32 = self.mix.iter().sum();
        self.mix.map(|w| w as f64 / total.max(1) as f64)
    }
}

json_struct!(SynthProfile {
    name,
    loads,
    mix,
    mix_tolerance,
    store_conflict_density,
    branch_path_depth,
    region_words,
    iterations,
});

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_json::ToJson;

    #[test]
    fn presets_validate() {
        for name in SynthProfile::preset_names() {
            let p = SynthProfile::preset(name).expect("preset exists");
            assert_eq!(p.name, name);
            p.validate().expect("preset validates");
        }
        assert!(SynthProfile::preset("nonesuch").is_none());
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let base = SynthProfile::preset("smoke").expect("preset");
        let cases: Vec<(&str, SynthProfile)> = vec![
            (
                "loads",
                SynthProfile {
                    loads: 0,
                    ..base.clone()
                },
            ),
            (
                "loads",
                SynthProfile {
                    loads: 9,
                    ..base.clone()
                },
            ),
            (
                "mix",
                SynthProfile {
                    mix: [0; 4],
                    ..base.clone()
                },
            ),
            (
                "density",
                SynthProfile {
                    store_conflict_density: 1.5,
                    ..base.clone()
                },
            ),
            (
                "depth",
                SynthProfile {
                    branch_path_depth: 4,
                    ..base.clone()
                },
            ),
            (
                "region",
                SynthProfile {
                    region_words: 24,
                    ..base.clone()
                },
            ),
            (
                "iterations",
                SynthProfile {
                    iterations: 0,
                    ..base.clone()
                },
            ),
        ];
        for (what, p) in cases {
            assert!(p.validate().is_err(), "{what} should be rejected");
        }
    }

    #[test]
    fn declared_fractions_normalize() {
        let p = SynthProfile::preset("strided").expect("preset");
        let f = p.declared_fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(f[1] > f[0]);
    }

    #[test]
    fn profile_json_is_deterministic() {
        let p = SynthProfile::preset("mixed").expect("preset");
        assert_eq!(p.to_json().pretty(), p.to_json().pretty());
        assert!(p.to_json().pretty().contains("store_conflict_density"));
    }
}
