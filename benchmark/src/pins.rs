//! Pinned expected outputs (`benchmark/pins.json`), written by
//! `benchmark pin` and checked by every run.
//!
//! * `figs_all`: a digest of every rendered spec. `pin` refuses to write one
//!   unless the rendering equals the committed `results/<name>.txt` byte for
//!   byte, so a matching digest means a matching file.
//! * `sampled_long`: a digest of every sampled job outcome, and the
//!   full-detail IPC of the same job, from which the sampling error is
//!   computed.

use crate::report::Tally;
use lvp_bench::{JobResult, RenderedSpec, SchemeKind};
use lvp_json::{Json, ToJson};
use std::collections::BTreeMap;
use std::path::Path;

/// Where the pins live, relative to the repository root.
pub const PINS_PATH: &str = "benchmark/pins.json";

/// FNV-1a 64 of `bytes`, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// One pinned sampled job.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledPin {
    pub workload: String,
    pub scheme: String,
    /// Digest of the sampled outcome's compact JSON.
    pub digest: String,
    /// IPC of the same job simulated in full detail.
    pub full_ipc: f64,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pins {
    /// Spec name → digest of its rendered text.
    pub figs: BTreeMap<String, String>,
    /// In matrix job order.
    pub sampled: Vec<SampledPin>,
}

impl Pins {
    pub fn load(path: &Path) -> Result<Pins, String> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            format!(
                "cannot read {}: {e} (run `benchmark/run.sh pin`)",
                path.display()
            )
        })?;
        let j = Json::parse(&text).map_err(|e| format!("malformed {}: {e}", path.display()))?;
        Pins::from_json(&j)
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "figs_all",
                Json::obj(self.figs.iter().map(|(k, v)| (k.clone(), v.to_json()))),
            ),
            (
                "sampled_long",
                Json::Array(
                    self.sampled
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("workload", p.workload.to_json()),
                                ("scheme", p.scheme.to_json()),
                                ("digest", p.digest.to_json()),
                                ("full_ipc", p.full_ipc.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Pins, String> {
        let figs = match j.get("figs_all") {
            Some(Json::Object(pairs)) => pairs
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|d| (k.clone(), d.to_string()))
                        .ok_or_else(|| format!("figs_all pin '{k}' is not a string"))
                })
                .collect::<Result<_, _>>()?,
            _ => return Err("pins have no 'figs_all' object".to_string()),
        };
        let sampled = j
            .get("sampled_long")
            .and_then(Json::as_array)
            .ok_or("pins have no 'sampled_long' list")?
            .iter()
            .map(|p| {
                let s = |k: &str| {
                    p.get(k)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("a sampled_long pin has no '{k}'"))
                };
                Ok(SampledPin {
                    workload: s("workload")?,
                    scheme: s("scheme")?,
                    digest: s("digest")?,
                    full_ipc: p
                        .get("full_ipc")
                        .and_then(Json::as_f64)
                        .ok_or("a sampled_long pin has no 'full_ipc'")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Pins { figs, sampled })
    }

    /// Checks every rendered spec against its pinned digest, one operation
    /// per spec.
    pub fn check_figs(&self, rendered: &[RenderedSpec], tally: &mut Tally) {
        for r in rendered {
            let got = digest(r.text.as_bytes());
            let want = self.figs.get(r.name);
            tally.check(want == Some(&got), || {
                format!("{}: rendered digest {got}, pinned {want:?}", r.name)
            });
        }
    }

    /// Checks every sampled job against its pin, one operation per job, and
    /// returns the sampling errors against the pinned full-detail IPCs:
    /// `(mean |sampled - full| / full IPC, mean error of the DLVP/baseline
    /// speedup)`, both in percent. Jobs with no pin count as failed.
    pub fn check_sampled(&self, jobs: &[JobResult], tally: &mut Tally) -> (f64, f64) {
        let mut ipc_err = Vec::new();
        // (workload, scheme) -> (sampled IPC, full-detail IPC)
        let mut ipcs: BTreeMap<(&str, &str), (f64, f64)> = BTreeMap::new();
        for (i, job) in jobs.iter().enumerate() {
            let got = digest(job.outcome.to_json().compact().as_bytes());
            let pin = self
                .sampled
                .get(i)
                .filter(|p| p.workload == job.spec.workload && p.scheme == job.spec.scheme.name());
            tally.check(pin.is_some_and(|p| p.digest == got), || {
                format!(
                    "{}/{}: sampled digest {got}, pinned {:?}",
                    job.spec.workload,
                    job.spec.scheme.name(),
                    pin.map(|p| &p.digest)
                )
            });
            let Some(pin) = pin else { continue };
            let sampled = job.outcome.stats.ipc();
            ipc_err.push((sampled - pin.full_ipc).abs() / pin.full_ipc * 100.0);
            ipcs.insert((&pin.workload, &pin.scheme), (sampled, pin.full_ipc));
        }
        let (base, dlvp) = (SchemeKind::Baseline.name(), SchemeKind::Dlvp.name());
        let speedup_err: Vec<f64> = ipcs
            .iter()
            .filter(|((_, scheme), _)| *scheme == base)
            .filter_map(|(&(w, _), &(bs, bf))| {
                let &(ds, df) = ipcs.get(&(w, dlvp))?;
                let (sampled, full) = (ds / bs, df / bf);
                Some((sampled - full).abs() / full * 100.0)
            })
            .collect();
        (mean(&ipc_err), mean(&speedup_err))
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_bench::{run_matrix, ConfigVariant, MatrixSpec};

    fn tiny_matrix() -> Vec<JobResult> {
        run_matrix(
            &MatrixSpec {
                workloads: vec!["aifirf".to_string()],
                schemes: vec![SchemeKind::Baseline, SchemeKind::Dlvp],
                variants: vec![ConfigVariant::Default],
                budget: 3_000,
                sample: None,
            },
            1,
        )
        .jobs
    }

    fn pins_for(jobs: &[JobResult]) -> Pins {
        Pins {
            figs: BTreeMap::from([("fig_x".to_string(), digest(b"text"))]),
            sampled: jobs
                .iter()
                .map(|j| SampledPin {
                    workload: j.spec.workload.clone(),
                    scheme: j.spec.scheme.name().to_string(),
                    digest: digest(j.outcome.to_json().compact().as_bytes()),
                    full_ipc: j.outcome.stats.ipc(),
                })
                .collect(),
        }
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn matching_pins_pass_with_zero_error() {
        let jobs = tiny_matrix();
        let mut tally = Tally::default();
        let (ipc, speedup) = pins_for(&jobs).check_sampled(&jobs, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (2, 0));
        assert_eq!((ipc, speedup), (0.0, 0.0));
        let text = pins_for(&jobs).to_json().pretty();
        let back = Pins::from_json(&Json::parse(&text).expect("json")).expect("pins");
        assert_eq!(back, pins_for(&jobs), "pins round-trip");
    }

    #[test]
    fn corrupted_pin_yields_failures() {
        let jobs = tiny_matrix();
        let mut pins = pins_for(&jobs);
        pins.sampled[1].digest = "0000000000000000".to_string();
        let mut tally = Tally::default();
        pins.check_sampled(&jobs, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.notes[0].contains("aifirf/DLVP"));

        // A pin list that is too short fails the unpinned job, too.
        pins.sampled.truncate(1);
        let mut tally = Tally::default();
        pins.check_sampled(&jobs, &mut tally);
        assert_eq!(tally.failed, 1);

        let rendered = [RenderedSpec {
            name: "fig_x",
            text: "texT".to_string(),
        }];
        let mut tally = Tally::default();
        pins_for(&jobs).check_figs(&rendered, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (1, 1));
    }
}
