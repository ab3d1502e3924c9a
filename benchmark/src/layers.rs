//! Per-layer measurement for the traced run.
//!
//! Two sources, both recorded from this crate around public calls into each
//! layer (spans inside `Core::step` are future work):
//!
//! * **Spans of the traced timed phase.** Each request (a `figs` round, a
//!   matrix round, a served batch) runs under its own [`PhaseRecorder`].
//!   The library's `trace:<workload>` spans are emulator work (emu) and its
//!   `job:<...>` spans are cycle-level simulation (uarch); worker lanes are
//!   `1..`, lane 0 is the coordinator. Exported to `spans.json` with every
//!   span name prefixed by its request id.
//! * **A layer replay** over the workload's own traces, timing one layer at
//!   a time: `Trace::fingerprint`, `evaluate_standalone` with PAP and CAP,
//!   `MemoryHierarchy::access_data` over every load and store, `run_scheme`
//!   per scheme on a prefix of the first traces, and the store and JSON
//!   round trip of the resulting outcomes.

use crate::report::Metric;
use crate::stats::median;
use lvp_bench::{run_scheme, sim_request_doc, ConfigVariant, PoolStats, SchemeKind, SchemeOutcome};
use lvp_json::{Json, ToJson};
use lvp_obs::{PhaseRecorder, PhaseSpan};
use lvp_store::SimService;
use lvp_trace::{Trace, TraceRecord};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One traced request.
pub struct Request {
    pub id: String,
    /// Request start, nanoseconds after the traced phase began.
    pub offset_ns: u64,
    pub wall_ns: u64,
    /// Worker lanes the request could use.
    pub workers: usize,
    /// Spans, timed from the request start.
    pub spans: Vec<PhaseSpan>,
}

/// Runs `f` as one traced request under a fresh recorder.
pub fn traced<T>(
    id: String,
    workers: usize,
    phase_start: Instant,
    f: impl FnOnce(&PhaseRecorder) -> T,
) -> (T, Request) {
    let offset_ns = phase_start.elapsed().as_nanos() as u64;
    let rec = PhaseRecorder::new();
    let out = f(&rec);
    let wall_ns = rec.total_ns();
    let request = Request {
        id,
        offset_ns,
        wall_ns,
        workers,
        spans: rec.spans(),
    };
    (out, request)
}

fn worker_spans(r: &Request) -> impl Iterator<Item = &PhaseSpan> {
    r.spans.iter().filter(|s| s.lane > 0 && s.depth == 0)
}

/// Wall time covered by at least one worker span.
fn covered_ns(r: &Request) -> u64 {
    let mut iv: Vec<(u64, u64)> = worker_spans(r)
        .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
        .collect();
    iv.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Straggler time: in each pool phase (a lane-0 span holding worker spans;
/// the whole request when there is none), the time from the first worker
/// running out of work to the end of the phase.
fn tail_ns(r: &Request) -> u64 {
    let inside = |s: &PhaseSpan, (a, b): (u64, u64)| s.start_ns >= a && s.start_ns < b;
    let mut phases: Vec<(u64, u64)> = r
        .spans
        .iter()
        .filter(|s| s.lane == 0 && s.depth == 0)
        .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
        .filter(|&p| worker_spans(r).any(|s| inside(s, p)))
        .collect();
    if phases.is_empty() {
        phases.push((0, r.wall_ns));
    }
    phases
        .into_iter()
        .map(|(a, b)| {
            let mut last_end = vec![None; r.workers + 1];
            for s in worker_spans(r).filter(|s| inside(s, (a, b))) {
                let end = s.start_ns + s.dur_ns;
                let slot = &mut last_end[(s.lane as usize).min(r.workers)];
                *slot = Some(slot.map_or(end, |e: u64| e.max(end)));
            }
            let first_idle = last_end.iter().flatten().min().copied().unwrap_or(a);
            b.saturating_sub(first_idle)
        })
        .sum()
}

/// Per-layer metrics from the spans of the traced timed phase. `budget` is
/// the instructions each simulation job was asked for.
pub fn span_metrics(reqs: &[Request], budget: u64) -> Vec<Metric> {
    let n = reqs.len().max(1) as f64;
    let (mut emu_ns, mut emu_instr, mut emu_calls) = (0u64, 0u64, 0usize);
    let (mut uarch_ns, mut jobs) = (0u64, 0u64);
    for s in reqs.iter().flat_map(|r| &r.spans) {
        if s.name.starts_with("trace:") {
            emu_ns += s.dur_ns;
            emu_instr += s.instructions;
            emu_calls += 1;
        } else if s.name.starts_with("job:") {
            uarch_ns += s.dur_ns;
            jobs += 1;
        }
    }
    let per_req = |f: &dyn Fn(&Request) -> f64| reqs.iter().map(f).sum::<f64>() / n;
    let secs = |ns: u64| ns as f64 / 1e9;
    vec![
        Metric::new(
            "emu.ns_per_instr",
            emu_ns as f64 / emu_instr.max(1) as f64,
            "ns",
            emu_calls,
        ),
        Metric::new("emu.calls", emu_calls as f64 / n, "count", reqs.len()),
        Metric::new("emu.busy_s", secs(emu_ns) / n, "s", reqs.len()),
        Metric::new(
            "uarch.ns_per_instr",
            uarch_ns as f64 / (jobs * budget).max(1) as f64,
            "ns",
            jobs as usize,
        ),
        Metric::new("uarch.busy_s", secs(uarch_ns) / n, "s", reqs.len()),
        Metric::new(
            "runner.pool_occupancy",
            per_req(&|r| PoolStats::from_spans(&r.spans, r.workers, r.wall_ns).occupancy),
            "ratio",
            reqs.len(),
        ),
        Metric::new(
            "runner.tail_s",
            per_req(&|r| secs(tail_ns(r))),
            "s",
            reqs.len(),
        ),
        Metric::new(
            "runner.unattributed_s",
            per_req(&|r| secs(r.wall_ns.saturating_sub(covered_ns(r)))),
            "s",
            reqs.len(),
        ),
    ]
}

/// Writes every request's spans as a Chrome host trace, each span name
/// prefixed with its request id.
pub fn write_spans(path: &Path, reqs: &[Request]) -> Result<(), String> {
    let spans: Vec<PhaseSpan> = reqs
        .iter()
        .flat_map(|r| {
            r.spans.iter().map(move |s| PhaseSpan {
                name: format!("{}:{}", r.id, s.name),
                start_ns: r.offset_ns + s.start_ns,
                ..s.clone()
            })
        })
        .collect();
    crate::report::write_json(path, &lvp_obs::host_trace(&spans))
}

/// `obs.trace_overhead_pct`: the traced phase's cost relative to the
/// untraced one, in percent.
pub fn overhead_metric(untraced_ms: f64, traced_ms: f64, n: usize) -> Metric {
    Metric::new(
        "obs.trace_overhead_pct",
        (traced_ms / untraced_ms - 1.0) * 100.0,
        "%",
        n,
    )
}

/// Instructions of each probe trace that `run_scheme` replays per scheme.
pub const PROBE_INSTRS: usize = 100_000;
/// How many of the workload's traces the per-scheme probe uses.
pub const PROBE_TRACES: usize = 4;
/// Times each outcome is encoded and decoded for the JSON timings.
const JSON_REPS: usize = 5;

/// Metric-name suffix for a scheme.
fn scheme_key(k: SchemeKind) -> &'static str {
    match k {
        SchemeKind::Tournament => "dlvp_vtage",
        other => other.label(),
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

/// The layer replay over `names` traced at `budget`, one trace held at a
/// time. `store_dir` must not exist yet; the store probe writes there.
pub fn replay(names: &[&str], budget: u64, store_dir: &Path) -> Result<Vec<Metric>, String> {
    let cfg = ConfigVariant::Default.config();
    let schemes = SchemeKind::all();
    let (mut fp_ns, mut records, mut extra_words) = (0u64, 0u64, 0u64);
    let (mut pap_ns, mut cap_ns, mut loads) = (0u64, 0u64, 0u64);
    let (mut mem_ns, mut accesses) = (0u64, 0u64);
    let mut scheme_ns = [0u64; 5];
    let mut probe_instr = 0u64;
    let mut outcomes: Vec<(u64, usize, SchemeOutcome)> = Vec::new();

    for (i, name) in names.iter().enumerate() {
        let trace = lvp_workloads::by_name(name)
            .ok_or_else(|| format!("unknown workload '{name}'"))?
            .trace(budget);
        records += trace.len() as u64;
        extra_words += trace
            .records()
            .iter()
            .map(|r| r.extra_values.as_ref().map_or(0, |e| e.len() as u64))
            .sum::<u64>();

        let t = Instant::now();
        black_box(trace.fingerprint());
        fp_ns += ns_since(t);

        let mut pap = dlvp::Pap::new(cfg.pap);
        let t = Instant::now();
        let eval = black_box(dlvp::evaluate_standalone(&trace, &mut pap));
        pap_ns += ns_since(t);
        loads += eval.loads;
        let mut cap = dlvp::Cap::new(cfg.cap);
        let t = Instant::now();
        black_box(dlvp::evaluate_standalone(&trace, &mut cap));
        cap_ns += ns_since(t);

        let mut mem = lvp_mem::MemoryHierarchy::new(cfg.core.mem);
        let t = Instant::now();
        for r in trace.records() {
            let is_load = r.inst.is_load();
            if is_load || r.inst.is_store() {
                black_box(mem.access_data(r.pc, r.eff_addr, is_load));
                accesses += 1;
            }
        }
        mem_ns += ns_since(t);

        if i < PROBE_TRACES {
            let len = trace.len().min(PROBE_INSTRS);
            let prefix = Trace::from_records(trace.records()[..len].to_vec());
            drop(trace);
            let fp = prefix.fingerprint();
            probe_instr += len as u64;
            for (k, &scheme) in schemes.iter().enumerate() {
                let t = Instant::now();
                let outcome = black_box(run_scheme(&prefix, scheme, &cfg));
                scheme_ns[k] += ns_since(t);
                outcomes.push((fp, len, outcome));
            }
        }
    }

    // Store: record every probe outcome into a fresh on-disk store, then
    // look each up through a second service (a cold memo, so from disk).
    let writer = SimService::open(store_dir).map_err(|e| format!("store: {e}"))?;
    let mut keyed = Vec::new();
    let mut record_ns = Vec::new();
    for (fp, len, o) in &outcomes {
        let key = writer.key(&sim_request_doc(*fp, *len as u64, o.scheme.name(), &cfg));
        let payload = o.to_json();
        let t = Instant::now();
        writer
            .record(&key, &payload)
            .map_err(|e| format!("store record: {e}"))?;
        record_ns.push(ns_since(t));
        keyed.push((key, payload));
    }
    let reader = SimService::open(store_dir).map_err(|e| format!("store: {e}"))?;
    let mut lookup_ns = Vec::new();
    for (key, payload) in &keyed {
        let t = Instant::now();
        let got = reader.lookup(key);
        lookup_ns.push(ns_since(t));
        if got.as_ref() != Some(payload) {
            return Err(format!(
                "store probe: lookup of {key} did not return what was recorded"
            ));
        }
    }

    // JSON: encode each outcome to its compact payload and decode it back.
    let (mut encode_ns, mut decode_ns, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    for (_, _, o) in &outcomes {
        for _ in 0..JSON_REPS {
            let t = Instant::now();
            let text = black_box(o.to_json().compact());
            encode_ns.push(ns_since(t));
            let t = Instant::now();
            let back = Json::parse(&text)
                .map_err(|e| e.to_string())
                .and_then(|j| SchemeOutcome::from_json(&j).map_err(|e| e.to_string()));
            decode_ns.push(ns_since(t));
            if back.as_ref() != Ok(o) {
                return Err(format!(
                    "json probe: {} outcome did not round-trip",
                    o.scheme.name()
                ));
            }
            bytes += text.len();
        }
    }
    let payload_bytes = bytes as f64 / encode_ns.len().max(1) as f64;

    let n_traces = names.len();
    let mut m = vec![
        Metric::new(
            "trace.fingerprint_ns_per_instr",
            fp_ns as f64 / records.max(1) as f64,
            "ns",
            n_traces,
        ),
        Metric::new(
            "trace.resident_bytes_per_record",
            std::mem::size_of::<TraceRecord>() as f64
                + 8.0 * extra_words as f64 / records.max(1) as f64,
            "bytes",
            n_traces,
        ),
        Metric::new(
            "dlvp.pap_ns_per_load",
            pap_ns as f64 / loads.max(1) as f64,
            "ns",
            n_traces,
        ),
        Metric::new(
            "dlvp.cap_ns_per_load",
            cap_ns as f64 / loads.max(1) as f64,
            "ns",
            n_traces,
        ),
        Metric::new(
            "mem.access_ns",
            mem_ns as f64 / accesses.max(1) as f64,
            "ns",
            n_traces,
        ),
    ];
    let probes = names.len().min(PROBE_TRACES);
    let per_instr = |k: usize| scheme_ns[k] as f64 / probe_instr.max(1) as f64;
    for (k, &scheme) in schemes.iter().enumerate() {
        m.push(Metric::new(
            &format!("uarch.ns_per_instr.{}", scheme_key(scheme)),
            per_instr(k),
            "ns",
            probes,
        ));
    }
    for (k, &scheme) in schemes.iter().enumerate().skip(1) {
        m.push(Metric::new(
            &format!("dlvp.overhead_ns_per_instr.{}", scheme_key(scheme)),
            per_instr(k) - per_instr(0),
            "ns",
            probes,
        ));
    }
    m.extend([
        Metric::new(
            "store.lookup_us_p50",
            median(&us(&lookup_ns)),
            "us",
            lookup_ns.len(),
        ),
        Metric::new(
            "store.record_us_p50",
            median(&us(&record_ns)),
            "us",
            record_ns.len(),
        ),
        Metric::new(
            "json.encode_us_p50",
            median(&us(&encode_ns)),
            "us",
            encode_ns.len(),
        ),
        Metric::new(
            "json.decode_us_p50",
            median(&us(&decode_ns)),
            "us",
            decode_ns.len(),
        ),
        Metric::new("json.payload_bytes", payload_bytes, "bytes", outcomes.len()),
    ]);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, lane: u32, start_ns: u64, dur_ns: u64) -> PhaseSpan {
        PhaseSpan {
            name: name.to_string(),
            lane,
            depth: 0,
            start_ns,
            dur_ns,
            sim_cycles: 0,
            instructions: 100,
            jobs: 1,
        }
    }

    #[test]
    fn span_metrics_attribute_pool_time() {
        // Two workers; a pool phase 0..100 in which worker 1 idles from 60.
        let r = Request {
            id: "r0".into(),
            offset_ns: 0,
            wall_ns: 120,
            workers: 2,
            spans: vec![
                span("simulate", 0, 0, 100),
                span("trace:a", 1, 0, 60),
                span("job:a/default/DLVP", 2, 0, 50),
                span("job:a/default/baseline", 2, 50, 50),
            ],
        };
        assert_eq!(covered_ns(&r), 100);
        assert_eq!(tail_ns(&r), 40, "lane 1 ran dry at 60, phase ended at 100");
        let m = span_metrics(&[r], 100);
        let get = |n: &str| m.iter().find(|x| x.name == n).expect(n).value;
        assert_eq!(get("emu.calls"), 1.0);
        assert_eq!(get("emu.ns_per_instr"), 0.6);
        assert_eq!(
            get("uarch.ns_per_instr"),
            0.5,
            "100 ns over 2 jobs x 100 instrs"
        );
        assert!((get("runner.pool_occupancy") - 160.0 / 240.0).abs() < 1e-12);
        assert!((get("runner.unattributed_s") - 20e-9).abs() < 1e-18);
    }
}
