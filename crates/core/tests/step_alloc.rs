//! Steady-state zero-allocation contract of `Core::step`: once a looping
//! kernel has warmed every per-PC and per-granule table, simulating more
//! instructions must not touch the heap. A counting global allocator wraps
//! the system one; a run over 2N instructions must allocate exactly as often
//! as a run over N, for the baseline and for every value-prediction scheme.
//! The counter is per thread, so concurrently running tests cannot charge
//! their allocations to the thread under test.

use dlvp::{dlvp_default, dlvp_with_cap, Dvtage, Tournament, Vtage};
use lvp_emu::Emulator;
use lvp_isa::{Asm, MemSize, Reg};
use lvp_trace::Trace;
use lvp_uarch::{
    Core, CoreConfig, ExecInfo, FetchCtx, FetchSlot, NoVp, RenamePrediction, VpScheme, VpVerdict,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: allocations during thread-local teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A loop over a fixed working set that exercises every step path: stable
/// and store-fed loads, a load pair and a vector load (multi-chunk values),
/// stores, a call/return, an indirect call and a patterned conditional
/// branch.
fn kernel(n: u64) -> Trace {
    let base = 0x20_0000;
    let mut a = Asm::new(0x1000);
    a.data_u64(base, &[7, 11, 13, 0, 0, 0, 17, 19]);
    a.mov(Reg::X0, base);
    a.mov(Reg::X5, 0);
    let main = a.new_label();
    a.b(main);
    let func_addr = a.pc();
    let func = a.here();
    a.ldr(Reg::X6, Reg::X0, 24, MemSize::X);
    a.addi(Reg::X6, Reg::X6, 1);
    a.str_(Reg::X6, Reg::X0, 24, MemSize::X);
    a.ret();
    a.place(main);
    a.mov(Reg::X9, func_addr);
    let top = a.here();
    a.ldr(Reg::X1, Reg::X0, 0, MemSize::X);
    a.ldp(Reg::X2, Reg::X3, Reg::X0, 8);
    a.addi(Reg::X5, Reg::X5, 1);
    a.andi(Reg::X7, Reg::X5, 3);
    a.str_(Reg::X5, Reg::X0, 32, MemSize::X);
    a.ldr(Reg::X8, Reg::X0, 32, MemSize::X);
    a.vld(Reg::X10, Reg::X0, 48);
    a.bl(func);
    a.blr(Reg::X9);
    let skip = a.new_label();
    a.cbz(Reg::X7, skip);
    a.addi(Reg::X11, Reg::X11, 1);
    a.place(skip);
    a.b(top);
    let trace = Emulator::new(a.build()).run(n).trace;
    assert_eq!(trace.len() as u64, n, "the kernel loops forever");
    trace
}

/// Heap allocations of one full run — core construction, every step and
/// the final stats — over `trace`, fed to the core a slice at a time the
/// way a record stream feeds it.
fn run_allocations<S: VpScheme>(scheme: S, trace: &Trace) -> u64 {
    let before = allocations();
    let mut core = Core::new(CoreConfig::default(), scheme);
    for chunk in trace.records().chunks(4_096) {
        core.feed(chunk);
    }
    let finished = core.finish();
    let after = allocations();
    std::hint::black_box(finished);
    after - before
}

fn assert_steady_state_allocation_free<S: VpScheme>(name: &str, make: impl Fn() -> S) {
    const N: u64 = 20_000;
    let short = kernel(N);
    let long = kernel(2 * N);
    let (scheme_short, scheme_long) = (make(), make());
    let a = run_allocations(scheme_short, &short);
    let b = run_allocations(scheme_long, &long);
    assert!(
        a > 0,
        "{name}: construction allocates, so the counter must see it"
    );
    assert_eq!(
        a,
        b,
        "{name}: {N} more steady-state steps allocated {} more times",
        b as i64 - a as i64
    );
}

#[test]
fn baseline_steps_allocation_free() {
    assert_steady_state_allocation_free("baseline", || NoVp);
}

#[test]
fn vtage_steps_allocation_free() {
    assert_steady_state_allocation_free("VTAGE", Vtage::paper_default);
}

#[test]
fn dlvp_steps_allocation_free() {
    assert_steady_state_allocation_free("DLVP", dlvp_default);
    assert_steady_state_allocation_free("CAP", dlvp_with_cap);
}

#[test]
fn tournament_steps_allocation_free() {
    assert_steady_state_allocation_free("DLVP+VTAGE", Tournament::new);
}

#[test]
fn dvtage_steps_allocation_free() {
    assert_steady_state_allocation_free("D-VTAGE", Dvtage::paper_default);
}

/// A scheme that heap-allocates once per executed instruction.
struct AllocatingVp;

impl VpScheme for AllocatingVp {
    fn name(&self) -> &'static str {
        "allocating"
    }

    fn on_fetch(&mut self, _slot: &FetchSlot, _ctx: &mut FetchCtx<'_>) {}

    fn prediction_at_rename(&mut self, _seq: u64, _rename: u64) -> Option<RenamePrediction> {
        None
    }

    fn on_execute(&mut self, info: &ExecInfo<'_>) -> VpVerdict {
        std::hint::black_box(info.values.to_vec());
        VpVerdict::NONE
    }
}

#[test]
fn counter_sees_per_step_allocations_as_a_control() {
    // Without this, the equalities above could hold vacuously.
    const N: u64 = 5_000;
    let a = run_allocations(AllocatingVp, &kernel(N));
    let b = run_allocations(AllocatingVp, &kernel(2 * N));
    assert!(
        b >= a + N,
        "{N} more allocating steps must be counted: {a} vs {b}"
    );
}
