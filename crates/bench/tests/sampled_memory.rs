//! Every simulation and every workload profile streams its records from
//! the emulator instead of building a trace, so its memory does not depend
//! on its budget. A counting global allocator tracks live heap bytes and
//! their peak; a sampled matrix, an unsampled one and the profile-reading
//! specs over 2N instructions must each peak within a fixed margin of the
//! same run over N (a resident trace would add ~72 bytes per record). The
//! tests share one process-wide counter, so they run one at a time.

use lvp_bench::runner::{run_matrix, MatrixSpec};
use lvp_bench::{
    run_specs, simulate_cached, ExecutedWork, Progress, Provenance, SchemeKind, SimPoint,
};
use lvp_obs::NullPhases;
use lvp_store::SimService;
use lvp_uarch::{SampleSpec, SimConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak live heap while `f` runs, above the live heap when it started.
fn peak_during(f: impl FnOnce()) -> usize {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed) - start
}

const SPEC: SampleSpec = SampleSpec {
    ff: 5_000,
    warmup: 1_000,
    detail: 1_000,
    period: 20_000,
};

fn matrix(budget: u64) -> MatrixSpec {
    MatrixSpec {
        workloads: vec!["aifirf".into(), "nat".into()],
        schemes: vec![SchemeKind::Baseline, SchemeKind::Dlvp],
        variants: vec![lvp_bench::ConfigVariant::Default],
        budget,
        sample: Some(SPEC),
    }
}

/// What a 100k-record trace would hold is ~7 MB; allow a seventh of it.
const MARGIN: usize = 1 << 20;

#[test]
fn sampled_matrix_peak_heap_does_not_grow_with_the_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const N: u64 = 100_000;
    run_matrix(&matrix(N), 1);
    let at_n = peak_during(|| {
        run_matrix(&matrix(N), 1);
    });
    let at_2n = peak_during(|| {
        run_matrix(&matrix(2 * N), 1);
    });
    assert!(
        at_2n <= at_n + MARGIN,
        "peak live heap grew with the budget: {at_n} B at {N}, {at_2n} B at {}",
        2 * N
    );
}

#[test]
fn an_enabled_service_streams_sampled_items_and_answers_a_rerun_from_the_store() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let items = [
        ("aifirf", SchemeKind::Baseline),
        ("aifirf", SchemeKind::Dlvp),
        ("nat", SchemeKind::Vtage),
    ];
    let run = |service: &SimService| {
        simulate_cached(
            service,
            &items,
            |&(workload, scheme)| SimPoint {
                workload,
                budget: 30_000,
                scheme,
                config: SimConfig {
                    sample: Some(SPEC),
                    ..SimConfig::default()
                },
            },
            2,
            &NullPhases,
            &Progress::off(),
        )
    };
    let service = SimService::in_memory();
    let cold = run(&service);
    assert_eq!(cold.provenance, [Provenance::Computed; 3]);
    assert_eq!(cold.executed.jobs, 3);

    let warm = run(&service);
    assert_eq!(warm.provenance, [Provenance::Store; 3]);
    assert_eq!(warm.executed, ExecutedWork::default());
    assert_eq!(warm.keys, cold.keys);
    assert_eq!(warm.results, cold.results);

    let disabled = run(&SimService::disabled());
    assert_eq!(disabled.results, cold.results);
}

#[test]
fn unsampled_matrix_peak_heap_does_not_grow_with_the_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const N: u64 = 100_000;
    let unsampled = |budget| MatrixSpec {
        sample: None,
        ..matrix(budget)
    };
    run_matrix(&unsampled(N), 1);
    let at_n = peak_during(|| {
        run_matrix(&unsampled(N), 1);
    });
    let at_2n = peak_during(|| {
        run_matrix(&unsampled(2 * N), 1);
    });
    assert!(
        at_2n <= at_n + MARGIN,
        "peak live heap grew with the budget: {at_n} B at {N}, {at_2n} B at {}",
        2 * N
    );
}

#[test]
fn profile_renders_peak_heap_does_not_grow_with_the_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Every workload is profiled; a resident trace of each would add
    // ~57 MB between the two budgets.
    const N: u64 = 20_000;
    let specs: Vec<_> = ["fig01_conflicts", "fig04_addr_pred", "table03_workloads"]
        .iter()
        .map(|n| lvp_bench::specs::by_name(n).expect("registered spec"))
        .collect();
    run_specs(&specs, N, 1);
    let at_n = peak_during(|| {
        run_specs(&specs, N, 1);
    });
    let at_2n = peak_during(|| {
        run_specs(&specs, 2 * N, 1);
    });
    assert!(
        at_2n <= at_n + MARGIN,
        "peak live heap grew with the budget: {at_n} B at {N}, {at_2n} B at {}",
        2 * N
    );
}
