//! Host-side phase profiling: a hierarchical wall-clock profiler for the
//! *simulator itself* (trace building, job execution, rendering, export),
//! as opposed to the simulated machine the rest of this crate observes.
//!
//! Host timing is inherently non-deterministic, so nothing from this module
//! may flow into a deterministic artifact (golden stats, figure text,
//! Chrome simulation traces, lifecycle reports). Profiler output goes to
//! stderr or into explicitly-requested telemetry files only.
//!
//! ## The phase model
//!
//! A profiled run is a forest of **spans**. Each span lives on a **lane**
//! (lane 0 is the coordinating thread; worker `i` of a pool records on lane
//! `i + 1`), carries wall-clock `start_ns`/`dur_ns`, and accumulates three
//! host-side work counters: simulated cycles, committed instructions, and
//! jobs. Spans on one lane nest: a span opened while another is open on the
//! same lane is its child (`depth` + 1). Together the spans answer "where
//! did the wall-clock go, per worker, and how much simulated work did each
//! second buy" — the `sim_cycles_per_sec` number the perf gate watches.
//!
//! ## Zero cost when disabled
//!
//! Recording goes through [`PhaseSink`], whose `const ENABLED` follows the
//! event-sink monomorphization pattern (`EventSink`/`NullSink`): with
//! [`NullPhases`] every guard and charge compiles to nothing and allocates
//! nothing, so harness code can thread a sink unconditionally. The
//! recording implementation is [`PhaseRecorder`], which is `Sync` and safe
//! to share across a scoped worker pool.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use lvp_json::json_struct;

/// Simulated million-instructions-per-second for a run that committed
/// `instructions` in `wall` of host time. Zero when `wall` is zero.
pub fn mips(instructions: u64, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        instructions as f64 / secs / 1.0e6
    }
}

/// Simulated cycles per wall-clock second — the throughput number the
/// `bench --check` regression gate compares. Zero when `wall_ns` is zero.
pub fn sim_cycles_per_sec(sim_cycles: u64, wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        0.0
    } else {
        sim_cycles as f64 / (wall_ns as f64 / 1e9)
    }
}

/// One recorded host phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpan {
    /// Phase label, e.g. `simulate` or `job:perlbmk/default/DLVP`.
    pub name: String,
    /// Lane the span was recorded on (0 = coordinator, `i + 1` = worker `i`).
    pub lane: u32,
    /// Nesting depth within the lane (0 = top level).
    pub depth: u32,
    /// Wall-clock start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Simulated cycles attributed to this span.
    pub sim_cycles: u64,
    /// Committed instructions attributed to this span.
    pub instructions: u64,
    /// Jobs (work items) attributed to this span.
    pub jobs: u64,
}

impl PhaseSpan {
    /// The span's simulated-cycles-per-second throughput.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        sim_cycles_per_sec(self.sim_cycles, self.dur_ns)
    }
}

json_struct!(PhaseSpan {
    name,
    lane,
    depth,
    start_ns,
    dur_ns,
    sim_cycles,
    instructions,
    jobs,
});

/// The host-phase recording interface. `ENABLED` is `const` so that with
/// [`NullPhases`] every call site monomorphizes to nothing — the same
/// zero-cost contract `EventSink`/`NullSink` gives the simulated-machine
/// event stream.
pub trait PhaseSink: Sync {
    /// Whether this sink records anything at all.
    const ENABLED: bool;

    /// Opens a span on `lane` and returns its id.
    fn open(&self, lane: u32, name: &str) -> u64;

    /// Adds work counters to an open or closed span.
    fn charge(&self, id: u64, sim_cycles: u64, instructions: u64, jobs: u64);

    /// Closes a span, fixing its duration. Closing an already-closed span
    /// is a no-op (the first close wins).
    fn close(&self, id: u64);

    /// Opens an RAII-guarded span: the span closes when the guard drops (or
    /// on an explicit, idempotent [`PhaseGuard::finish`]).
    fn span(&self, lane: u32, name: &str) -> PhaseGuard<'_, Self>
    where
        Self: Sized,
    {
        let id = if Self::ENABLED {
            self.open(lane, name)
        } else {
            0
        };
        PhaseGuard {
            sink: self,
            id,
            open: Self::ENABLED,
        }
    }

    /// Runs `f` inside a span named `name` on `lane`.
    fn time<T>(&self, lane: u32, name: &str, f: impl FnOnce() -> T) -> T
    where
        Self: Sized,
    {
        let _guard = self.span(lane, name);
        f()
    }
}

/// RAII span guard: closes its span on drop. `finish` is explicit and
/// idempotent — a guard finished twice (or finished and then dropped)
/// closes the span exactly once.
pub struct PhaseGuard<'a, P: PhaseSink> {
    sink: &'a P,
    id: u64,
    open: bool,
}

impl<P: PhaseSink> PhaseGuard<'_, P> {
    /// Attributes work counters to the guarded span.
    pub fn charge(&self, sim_cycles: u64, instructions: u64, jobs: u64) {
        if P::ENABLED {
            self.sink.charge(self.id, sim_cycles, instructions, jobs);
        }
    }

    /// Closes the span now. Safe to call more than once.
    pub fn finish(&mut self) {
        if P::ENABLED && self.open {
            self.open = false;
            self.sink.close(self.id);
        }
    }
}

impl<P: PhaseSink> Drop for PhaseGuard<'_, P> {
    fn drop(&mut self) {
        self.finish();
    }
}

/// The disabled sink: records nothing, allocates nothing. All methods are
/// no-ops that the optimizer erases behind `ENABLED = false` guards.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullPhases;

impl PhaseSink for NullPhases {
    const ENABLED: bool = false;

    fn open(&self, _lane: u32, _name: &str) -> u64 {
        0
    }

    fn charge(&self, _id: u64, _sim_cycles: u64, _instructions: u64, _jobs: u64) {}

    fn close(&self, _id: u64) {}
}

struct SpanState {
    span: PhaseSpan,
    open: bool,
}

#[derive(Default)]
struct RecorderState {
    spans: Vec<SpanState>,
    /// Per-lane stack of open span indices (nesting).
    lanes: Vec<Vec<usize>>,
}

/// The recording sink: a shared, lock-protected span store. One instance is
/// shared by the coordinator and every pool worker; contention is at span
/// granularity (one lock per open/close/charge), far coarser than the
/// simulation work inside a span.
pub struct PhaseRecorder {
    t0: Instant,
    inner: Mutex<RecorderState>,
}

impl Default for PhaseRecorder {
    fn default() -> PhaseRecorder {
        PhaseRecorder::new()
    }
}

impl PhaseRecorder {
    /// A new recorder; its clock starts now.
    pub fn new() -> PhaseRecorder {
        PhaseRecorder {
            t0: Instant::now(),
            inner: Mutex::new(RecorderState::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderState> {
        self.inner.lock().expect("phase recorder lock poisoned")
    }

    /// Wall-clock nanoseconds since the recorder was created.
    pub fn total_ns(&self) -> u64 {
        self.now_ns()
    }

    /// Number of lanes that recorded at least one span.
    pub fn lane_count(&self) -> u32 {
        self.lock().lanes.len() as u32
    }

    /// Snapshot of every span in open order. Spans still open get their
    /// duration-so-far.
    pub fn spans(&self) -> Vec<PhaseSpan> {
        let now = self.now_ns();
        self.lock()
            .spans
            .iter()
            .map(|s| {
                let mut span = s.span.clone();
                if s.open {
                    span.dur_ns = now.saturating_sub(span.start_ns);
                }
                span
            })
            .collect()
    }

    /// Human-readable report: the lane-0 phase tree with per-phase share of
    /// total wall-clock, plus simulated MIPS for `instructions` committed
    /// instructions. Stderr-facing (never a deterministic artifact).
    pub fn report(&self, instructions: u64) -> String {
        let total_ns = self.total_ns().max(1);
        let mut out = String::from("host profile:\n");
        for span in self.spans().iter().filter(|s| s.lane == 0) {
            let share = 100.0 * span.dur_ns as f64 / total_ns as f64;
            out.push_str(&format!(
                "  {:<24} {:>9.3} ms  {share:>5.1}%\n",
                format!("{}{}", "  ".repeat(span.depth as usize), span.name),
                span.dur_ns as f64 / 1e6,
            ));
        }
        out.push_str(&format!(
            "  total                    {:>9.3} ms  sim {:.2} MIPS\n",
            total_ns as f64 / 1e6,
            mips(instructions, Duration::from_nanos(total_ns)),
        ));
        out
    }
}

impl PhaseSink for PhaseRecorder {
    const ENABLED: bool = true;

    fn open(&self, lane: u32, name: &str) -> u64 {
        let start_ns = self.now_ns();
        let mut st = self.lock();
        let lane_idx = lane as usize;
        if st.lanes.len() <= lane_idx {
            st.lanes.resize_with(lane_idx + 1, Vec::new);
        }
        let depth = st.lanes[lane_idx].len() as u32;
        let id = st.spans.len();
        st.spans.push(SpanState {
            span: PhaseSpan {
                name: name.to_string(),
                lane,
                depth,
                start_ns,
                dur_ns: 0,
                sim_cycles: 0,
                instructions: 0,
                jobs: 0,
            },
            open: true,
        });
        st.lanes[lane_idx].push(id);
        id as u64
    }

    fn charge(&self, id: u64, sim_cycles: u64, instructions: u64, jobs: u64) {
        let mut st = self.lock();
        if let Some(s) = st.spans.get_mut(id as usize) {
            s.span.sim_cycles += sim_cycles;
            s.span.instructions += instructions;
            s.span.jobs += jobs;
        }
    }

    fn close(&self, id: u64) {
        let end_ns = self.now_ns();
        let mut st = self.lock();
        let Some(s) = st.spans.get_mut(id as usize) else {
            return;
        };
        if !s.open {
            return;
        }
        s.open = false;
        s.span.dur_ns = end_ns.saturating_sub(s.span.start_ns);
        let lane_idx = s.span.lane as usize;
        if let Some(stack) = st.lanes.get_mut(lane_idx) {
            stack.retain(|&open_id| open_id != id as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_json::{FromJson, Json, ToJson};

    #[test]
    fn mips_is_zero_without_time() {
        assert_eq!(mips(1_000_000, Duration::ZERO), 0.0);
        let m = mips(2_000_000, Duration::from_secs(1));
        assert!((m - 2.0).abs() < 1e-9);
        assert_eq!(sim_cycles_per_sec(5, 0), 0.0);
        let r = sim_cycles_per_sec(3_000_000, 1_500_000_000);
        assert!((r - 2_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn spans_nest_per_lane() {
        let rec = PhaseRecorder::new();
        {
            let _outer = rec.span(0, "outer");
            {
                let _inner = rec.span(0, "inner");
                // A span on another lane does not nest under lane 0.
                let _worker = rec.span(3, "worker-job");
            }
            let _sibling = rec.span(0, "sibling");
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span recorded");
        assert_eq!(by_name("outer").depth, 0);
        assert_eq!(by_name("inner").depth, 1);
        assert_eq!(by_name("sibling").depth, 1);
        assert_eq!(by_name("worker-job").depth, 0);
        assert_eq!(by_name("worker-job").lane, 3);
        assert_eq!(rec.lane_count(), 4);
        // Everything closed; durations are monotone (outer covers inner).
        assert!(by_name("outer").dur_ns >= by_name("inner").dur_ns);
    }

    #[test]
    fn double_finish_closes_once() {
        let rec = PhaseRecorder::new();
        let mut g = rec.span(0, "phase");
        std::thread::sleep(Duration::from_millis(2));
        g.finish();
        let dur_at_finish = rec.spans()[0].dur_ns;
        assert!(dur_at_finish > 0);
        std::thread::sleep(Duration::from_millis(2));
        g.finish(); // explicit double finish
        drop(g); // and the implicit one
        assert_eq!(
            rec.spans()[0].dur_ns,
            dur_at_finish,
            "re-finishing must not restamp the duration"
        );
        // A new span after the double-finish starts at depth 0 again.
        rec.span(0, "next").finish();
        assert_eq!(rec.spans()[1].depth, 0);
    }

    #[test]
    fn charges_accumulate() {
        let rec = PhaseRecorder::new();
        let mut g = rec.span(1, "job:x");
        g.charge(100, 40, 1);
        g.charge(50, 10, 1);
        g.finish();
        let s = &rec.spans()[0];
        assert_eq!(
            (s.sim_cycles, s.instructions, s.jobs, s.lane),
            (150, 50, 2, 1)
        );
        assert!(s.sim_cycles_per_sec() > 0.0);
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = NullPhases;
        let mut g = sink.span(0, "never-recorded");
        g.charge(1, 2, 3);
        g.finish();
        let v = sink.time(0, "also-never", || 41 + 1);
        assert_eq!(v, 42);
        const { assert!(!NullPhases::ENABLED) };
        assert_eq!(sink.open(9, "x"), 0);
    }

    #[test]
    fn span_json_round_trips() {
        let span = PhaseSpan {
            name: "job:perlbmk/default/DLVP".into(),
            lane: 2,
            depth: 1,
            start_ns: 12_345,
            dur_ns: 67_890,
            sim_cycles: 23_000,
            instructions: 50_000,
            jobs: 1,
        };
        let parsed = PhaseSpan::from_json(&span.to_json()).expect("round-trips");
        assert_eq!(parsed, span);
        assert!(PhaseSpan::from_json(&Json::obj([("name", "x".to_json())])).is_err());
    }

    #[test]
    fn report_names_phases_and_mips() {
        let rec = PhaseRecorder::new();
        rec.time(0, "simulate", || {
            std::thread::sleep(Duration::from_millis(2))
        });
        rec.time(0, "export", || ());
        let r = rec.report(1_000_000);
        assert!(r.contains("simulate"));
        assert!(r.contains("export"));
        assert!(r.contains("total"));
        assert!(r.contains("MIPS"));
    }
}
