//! The trace-driven, cycle-level out-of-order core model.
//!
//! The engine makes one in-order pass over the dynamic trace, assigning each
//! instruction a fetch, rename, issue, execute and commit cycle under the
//! structural constraints of paper Table 4 (widths, ROB/IQ/LDQ/STQ
//! occupancy, physical registers, execution lanes) and the behavioural ones
//! (branch mispredictions redirect fetch at resolve time, MDP-missed memory
//! ordering violations flush, value-predicted loads release their consumers
//! at rename, value mispredictions flush after a 1-cycle confirm penalty).
//!
//! Because the trace contains only correct-path instructions, flushes are
//! modelled as fetch redirects: everything younger simply refetches after
//! the resolve cycle, which is exactly the timing effect of a squash.
//!
//! The per-instruction path is allocation-free in steady state and reads no
//! SipHash map: what a step needs of an instruction (class, branch kind,
//! access width, source and destination registers) is decoded once per
//! static PC into a per-core predecode table, per-PC load counters live
//! densely beside it until the run folds them into [`SimStats::per_pc`],
//! register, value and granule bookkeeping use fixed arrays, stack lists
//! and [`U64Map`]s, and the occupancy queues are FIFOs plus one
//! `CycleQueue`.

use crate::config::{BranchPredictorKind, CoreConfig, RecoveryMode};
use crate::cycleq::CycleQueue;
use crate::lanes::LaneTracker;
use crate::mdp::{MdpConfig, StoreSets};
use crate::stats::{PcLoadStats, SimStats};
use crate::u64map::U64Map;
use crate::vp::{ExecInfo, FetchCtx, FetchSlot, VpScheme};
use crate::vpe::{InjectOutcome, Vpe};
use lvp_branch::{Btb, GlobalHistory, Gshare, Ittage, Ras, Tage};
use lvp_isa::{BranchKind, Dests, Instruction, OpClass, Reg};
use lvp_mem::MemoryHierarchy;
use lvp_obs::{EventSink, InjectBlock, NullSink, ObsEvent, RedirectCause, VerifyOutcome};
use lvp_trace::{Trace, TraceRecord, ValueBuf, MAX_CHUNKS};
use std::collections::VecDeque;

/// The conditional-branch direction predictor behind the config knob.
#[derive(Debug)]
enum DirectionPredictor {
    Tage(Box<Tage>),
    Gshare(Box<Gshare>),
}

impl DirectionPredictor {
    fn new(kind: BranchPredictorKind) -> DirectionPredictor {
        match kind {
            BranchPredictorKind::Tage => DirectionPredictor::Tage(Box::new(Tage::default_32kb())),
            BranchPredictorKind::Gshare => {
                DirectionPredictor::Gshare(Box::new(Gshare::default_16k()))
            }
        }
    }

    /// Has `hist` maintain the folds this predictor reads.
    fn track_history(&mut self, hist: &mut GlobalHistory) {
        if let DirectionPredictor::Tage(t) = self {
            t.track_history(hist);
        }
    }

    /// Predicts under `hist`, trains with the actual outcome, and returns
    /// the predicted direction. The caller pushes the outcome into `hist`.
    fn predict_and_update(&mut self, pc: u64, hist: &GlobalHistory, taken: bool) -> bool {
        match self {
            DirectionPredictor::Tage(t) => {
                let p = t.predict(pc, hist);
                t.update(pc, hist, taken, p);
                p.taken
            }
            DirectionPredictor::Gshare(g) => {
                let p = g.predict(pc, hist);
                g.update(pc, hist, taken);
                p
            }
        }
    }
}

/// What a step needs of one static instruction, decoded once per PC.
#[derive(Debug, Clone, Copy)]
struct Decoded {
    /// The instruction this entry was decoded from (a PC whose record
    /// carries a different instruction is re-decoded).
    inst: Instruction,
    op_class: OpClass,
    branch: Option<BranchKind>,
    is_load: bool,
    is_store: bool,
    /// Access width in bytes (8 for non-memory instructions).
    mem_bytes: u64,
    n_sources: u8,
    sources: [Reg; 4],
    dests: Dests,
    /// This PC's slot in [`Predecode::loads`] (`u32::MAX`: never a load).
    load_slot: u32,
}

impl Decoded {
    fn new(inst: Instruction, load_slot: u32) -> Decoded {
        let mut sources = [Reg::ZR; 4];
        let mut n_sources = 0;
        for r in inst.sources().into_iter().flatten() {
            sources[n_sources] = r;
            n_sources += 1;
        }
        Decoded {
            inst,
            op_class: inst.op_class(),
            branch: inst.branch_kind(),
            is_load: inst.is_load(),
            is_store: inst.is_store(),
            mem_bytes: inst.mem_bytes().unwrap_or(8),
            n_sources: n_sources as u8,
            sources,
            dests: inst.dests(),
            load_slot,
        }
    }

    fn sources(&self) -> &[Reg] {
        &self.sources[..self.n_sources as usize]
    }
}

/// The per-core predecode table: one [`Decoded`] per static PC, plus the
/// dense per-static-load counters behind [`SimStats::per_pc`]. Decoding
/// happens on a PC's first step (or when its record's instruction differs
/// from the decoded one).
///
/// A PC finds its entry by direct index, not by hashing: the PC space is
/// cut into pages of [`Predecode::PAGE_SLOTS`] word-aligned PCs, each page
/// a block of `u32` slots in `slots`, and a step on the page of the
/// previous step indexes `slots` straight away. Only a step onto another
/// page probes the page map. A PC's two low bits are part of its page key,
/// so unaligned PCs get pages of their own and no two PCs share a slot.
#[derive(Debug)]
struct Predecode {
    /// Page key → offset of that page's block in `slots`.
    pages: U64Map<u32>,
    /// Per PC of every page seen: its index in `entries`, or [`Self::EMPTY`].
    slots: Vec<u32>,
    /// The page key of the last lookup and its block offset.
    page: (u64, usize),
    entries: Vec<Decoded>,
    /// Per static load PC, in first-execution order.
    loads: Vec<(u64, PcLoadStats)>,
}

impl Default for Predecode {
    fn default() -> Predecode {
        Predecode {
            pages: U64Map::default(),
            slots: Vec::new(),
            // No PC has this key (page keys stay below 2^54).
            page: (u64::MAX, 0),
            entries: Vec::new(),
            loads: Vec::new(),
        }
    }
}

impl Predecode {
    /// Word-aligned PCs per page (a 4 KiB code page).
    const PAGE_SLOTS: usize = 1024;
    /// A slot no entry has claimed yet.
    const EMPTY: u32 = u32::MAX;

    /// `pc`'s page key and slot within the page.
    #[inline]
    fn split(pc: u64) -> (u64, usize) {
        (
            ((pc >> 12) << 2) | (pc & 3),
            (pc >> 2) as usize % Self::PAGE_SLOTS,
        )
    }

    /// The index in `entries` of `pc`'s entry, decoding `inst` unless the
    /// cached entry was decoded from it.
    #[inline]
    fn lookup(&mut self, pc: u64, inst: Instruction) -> usize {
        let (key, offset) = Self::split(pc);
        if key != self.page.0 {
            self.enter_page(key);
        }
        let slot = self.page.1 + offset;
        let i = self.slots[slot] as usize;
        match self.entries.get(i) {
            Some(d) if d.inst == inst => i,
            _ => self.decode(slot, pc, inst),
        }
    }

    /// Makes `key`'s page current, giving it a block of slots on its first
    /// visit.
    fn enter_page(&mut self, key: u64) {
        let next = self.slots.len() as u32;
        let base = *self.pages.entry(key).or_insert(next) as usize;
        if base == self.slots.len() {
            self.slots.resize(base + Self::PAGE_SLOTS, Self::EMPTY);
        }
        self.page = (key, base);
    }

    /// Decodes `inst` into `slot`'s entry (allocating it on the PC's first
    /// step) and returns the entry's index.
    #[cold]
    fn decode(&mut self, slot: usize, pc: u64, inst: Instruction) -> usize {
        let i = self.slots[slot] as usize;
        // First step at `pc`, or another instruction there. The counters
        // belong to the PC, so a re-decode keeps its load slot.
        let mut load_slot = self.entries.get(i).map_or(u32::MAX, |d| d.load_slot);
        if load_slot == u32::MAX && inst.is_load() {
            load_slot = self.loads.len() as u32;
            self.loads.push((pc, PcLoadStats::default()));
        }
        let d = Decoded::new(inst, load_slot);
        match self.entries.get_mut(i) {
            Some(e) => {
                *e = d;
                i
            }
            None => {
                self.slots[slot] = self.entries.len() as u32;
                self.entries.push(d);
                self.entries.len() - 1
            }
        }
    }
}

/// Youngest store bookkeeping per 8-byte granule.
#[derive(Debug, Clone, Copy)]
struct StoreInfo {
    seq: u64,
    pc: u64,
    exec_cycle: u64,
    commit_cycle: u64,
}

/// The core model, generic over the value-prediction scheme and the
/// observability sink. The sink defaults to [`NullSink`], whose
/// `ENABLED = false` constant folds every emission site away, so an
/// untraced `Core` is exactly the pre-observability machine — byte-identical
/// stats, no recording overhead.
pub struct Core<S: VpScheme, K: EventSink = NullSink> {
    cfg: CoreConfig,
    mem: MemoryHierarchy,
    direction: DirectionPredictor,
    btb: Option<Btb>,
    ittage: Ittage,
    ras: Ras,
    /// The one global branch history: the direction predictor, ITTAGE and
    /// the scheme all read it, and only a conditional branch pushes it.
    hist: GlobalHistory,
    mdp: StoreSets,
    lanes: LaneTracker,
    scheme: S,
    stats: SimStats,

    // fetch state
    next_fetch_cycle: u64,
    group_fga: u64,
    group_cycle: u64,
    group_count: u32,
    group_loads: u32,
    group_break: bool,

    // rename/commit pacing
    rename_cycle_cursor: u64,
    rename_in_cycle: u32,
    commit_cycle_cursor: u64,
    commit_in_cycle: u32,

    // occupancy (entries hold the cycle the slot frees). Commit cycles are
    // non-decreasing in program order, so the queues freed at commit
    // (ROB, LDQ, STQ, PRF) are FIFOs; the IQ frees at issue, out of order,
    // but never before the last cycle it freed.
    rob: VecDeque<u64>,
    iq: CycleQueue,
    ldq: VecDeque<u64>,
    stq: VecDeque<u64>,
    prf: VecDeque<u64>,
    vpe: Vpe,

    predecode: Predecode,
    /// Assembly space for multi-chunk records' values (see
    /// [`TraceRecord::values`]).
    value_buf: ValueBuf,
    reg_avail: [u64; Reg::COUNT],
    granule_stores: U64Map<StoreInfo>,
    /// Rename cycles of the last `fetch_buffer` instructions: fetch of
    /// instruction `i` cannot precede the rename of instruction
    /// `i - fetch_buffer` (finite fetch/decode queue).
    rename_hist: VecDeque<u64>,
    fetch_bound: u64,
    /// Host-side busy-loop iterations per step (0 = off). A pure wall-clock
    /// tax for the `bench --inject-slowdown` regression-gate proof: it
    /// burns host time inside the hot step loop without reading or writing
    /// any simulated state, so stats stay bit-identical. Deliberately not
    /// part of [`CoreConfig`] — it must never serialize into an artifact.
    host_spin: u32,
    /// Observability sink; purely write-only from the core's point of view.
    sink: K,
}

impl<S: VpScheme> Core<S> {
    /// Builds an untraced core around `scheme`.
    pub fn new(cfg: CoreConfig, scheme: S) -> Core<S> {
        Core::with_sink(cfg, scheme, NullSink)
    }
}

impl<S: VpScheme, K: EventSink> Core<S, K> {
    /// Builds a core around `scheme` that records lifecycle events into
    /// `sink`.
    pub fn with_sink(cfg: CoreConfig, mut scheme: S, sink: K) -> Core<S, K> {
        let mut hist = GlobalHistory::new();
        let mut direction = DirectionPredictor::new(cfg.branch_predictor);
        direction.track_history(&mut hist);
        let mut ittage = Ittage::default_32kb();
        ittage.track_history(&mut hist);
        scheme.track_history(&mut hist);
        Core {
            mem: MemoryHierarchy::new(cfg.mem),
            direction,
            btb: cfg.btb.map(Btb::new),
            ittage,
            ras: Ras::default_16(),
            hist,
            mdp: StoreSets::new(MdpConfig::default()),
            lanes: LaneTracker::new(cfg.ls_lanes, cfg.generic_lanes),
            scheme,
            stats: SimStats::default(),
            next_fetch_cycle: 0,
            group_fga: u64::MAX,
            group_cycle: 0,
            group_count: 0,
            group_loads: 0,
            group_break: true,
            rename_cycle_cursor: 0,
            rename_in_cycle: 0,
            commit_cycle_cursor: 0,
            commit_in_cycle: 0,
            rob: VecDeque::new(),
            iq: CycleQueue::new(),
            ldq: VecDeque::new(),
            stq: VecDeque::new(),
            prf: VecDeque::new(),
            vpe: Vpe::new(cfg.pvt_entries, cfg.vp_per_cycle),
            predecode: Predecode::default(),
            value_buf: [0; MAX_CHUNKS],
            reg_avail: [0; Reg::COUNT],
            granule_stores: U64Map::default(),
            rename_hist: VecDeque::new(),
            fetch_bound: 0,
            host_spin: 0,
            sink,
            cfg,
        }
    }

    /// Injects `iters` busy-loop iterations into every step — a deliberate
    /// host-side slowdown that leaves all simulated state untouched. Used by
    /// `bench --inject-slowdown` to prove the throughput regression gate
    /// bites; see the `host_spin` field.
    pub fn set_host_spin(&mut self, iters: u32) {
        self.host_spin = iters;
    }

    /// Access to the scheme (for post-run counters).
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// Runs the whole trace and returns the statistics.
    pub fn run(self, trace: &Trace) -> SimStats {
        self.run_traced(trace).0
    }

    /// Runs the trace and also returns the scheme for counter inspection.
    pub fn run_with_scheme(self, trace: &Trace) -> (SimStats, S) {
        let (stats, scheme, _) = self.run_traced(trace);
        (stats, scheme)
    }

    /// Runs the trace and returns the statistics, the scheme and the sink
    /// (holding whatever the sink recorded).
    pub fn run_traced(mut self, trace: &Trace) -> (SimStats, S, K) {
        self.feed(trace.records());
        self.finish()
    }

    /// Steps the core through `records`, the next stretch of its record
    /// stream. A stream fed in any number of slices ends exactly as it
    /// would fed whole: the core keeps no per-call state.
    pub fn feed(&mut self, records: &[TraceRecord]) {
        for rec in records {
            self.step(rec);
        }
    }

    /// Ends the run: returns the statistics, the scheme and the sink
    /// (holding whatever the sink recorded).
    pub fn finish(mut self) -> (SimStats, S, K) {
        self.stats.cycles = self.commit_cycle_cursor;
        self.stats.mem = self.mem.stats();
        let vpe = self.vpe.stats();
        self.stats.pvt_writes = vpe.pvt_writes;
        self.stats.pvt_reads = vpe.pvt_reads;
        self.stats.prf_reads = vpe.prf_reads;
        self.stats.per_pc.extend(self.predecode.loads.drain(..));
        (self.stats, self.scheme, self.sink)
    }

    // ------------------------------------------------------------------
    fn step(&mut self, rec: &TraceRecord) {
        if self.host_spin > 0 {
            // Wall-clock tax only: no simulated state is read or written.
            let mut x = 0u64;
            for i in 0..self.host_spin as u64 {
                x = std::hint::black_box(x ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            }
            std::hint::black_box(x);
        }
        self.stats.instructions += 1;
        let inst = rec.inst;
        let di = self.predecode.lookup(rec.pc, inst);
        let d = &self.predecode.entries[di];
        let is_load = d.is_load;
        let is_store = d.is_store;
        if is_load {
            self.stats.loads += 1;
        }
        if is_store {
            self.stats.stores += 1;
        }

        // ---- fetch ----------------------------------------------------
        // Front-end backpressure: the fetch/decode queue holds at most
        // `fetch_buffer` instructions, so this instruction cannot be fetched
        // before instruction (seq - fetch_buffer) renamed.
        if self.rename_hist.len() >= self.cfg.fetch_buffer {
            let bound = self.rename_hist.pop_front().expect("rename_hist nonempty");
            self.fetch_bound = self.fetch_bound.max(bound);
        }
        let fga = rec.pc & !15;
        if self.group_break
            || fga != self.group_fga
            || self.group_count >= self.cfg.frontend_width
            || self.fetch_bound > self.group_cycle
        {
            let mut cycle = self.next_fetch_cycle.max(self.fetch_bound);
            let ilat = self.mem.fetch_inst(rec.pc);
            if ilat > 1 {
                cycle += (ilat - 1) as u64;
            }
            self.group_fga = fga;
            self.group_cycle = cycle;
            self.group_count = 0;
            self.group_loads = 0;
            self.group_break = false;
            self.next_fetch_cycle = cycle + 1;
        }
        let fetch_cycle = self.group_cycle;
        let slot = FetchSlot {
            seq: rec.seq,
            pc: rec.pc,
            fga,
            index_in_group: self.group_count,
            load_index_in_group: self.group_loads,
            inst,
            dest_chunks: d.dests.len() as u32,
        };
        self.group_count += 1;
        if is_load {
            self.group_loads += 1;
        }

        {
            let mut ctx = FetchCtx {
                cycle: fetch_cycle,
                expected_rename: fetch_cycle + self.cfg.fetch_to_rename as u64,
                history: &self.hist,
                lanes: &mut self.lanes,
                mem: &mut self.mem,
                sink: lvp_obs::SinkHandle::new(&mut self.sink),
            };
            self.scheme.on_fetch(&slot, &mut ctx);
        }

        // ---- branch prediction at fetch -------------------------------
        // (Outcome applied at resolve time, below.)
        let mut branch_mispredicted = false;
        if let Some(kind) = d.branch {
            self.stats.branches += 1;
            let taken = rec.taken();
            match kind {
                BranchKind::Conditional => {
                    let predicted = self.direction.predict_and_update(rec.pc, &self.hist, taken);
                    branch_mispredicted = predicted != taken;
                    // A correctly-predicted-taken branch still needs its
                    // target from the BTB when one is modelled.
                    if !branch_mispredicted && taken {
                        if let Some(btb) = &mut self.btb {
                            if btb.lookup(rec.pc) != Some(rec.next_pc) {
                                branch_mispredicted = true;
                            }
                            btb.update(rec.pc, rec.next_pc);
                        }
                    }
                    if branch_mispredicted {
                        self.stats.branch_mispredicts += 1;
                    }
                    self.hist.push(taken);
                }
                BranchKind::Direct => {
                    // Perfect BTB by default; finite when configured.
                    if let Some(btb) = &mut self.btb {
                        if btb.lookup(rec.pc) != Some(rec.next_pc) {
                            branch_mispredicted = true;
                            self.stats.branch_mispredicts += 1;
                        }
                        btb.update(rec.pc, rec.next_pc);
                    }
                }
                BranchKind::Call => {
                    self.ras.push(rec.pc + 4);
                }
                BranchKind::Return => {
                    let predicted = self.ras.pop();
                    if predicted != Some(rec.next_pc) {
                        branch_mispredicted = true;
                        self.stats.return_mispredicts += 1;
                    }
                }
                BranchKind::Indirect | BranchKind::IndirectCall => {
                    let predicted = self.ittage.predict(rec.pc, &self.hist);
                    if predicted != Some(rec.next_pc) {
                        branch_mispredicted = true;
                        self.stats.indirect_mispredicts += 1;
                    }
                    self.ittage.update(rec.pc, &self.hist, rec.next_pc);
                    if kind == BranchKind::IndirectCall {
                        self.ras.push(rec.pc + 4);
                    }
                }
            }
            // A taken branch ends its fetch group.
            if taken {
                self.group_break = true;
            }
        }

        // ---- rename ----------------------------------------------------
        let mut rename_cycle = fetch_cycle + self.cfg.fetch_to_rename as u64;
        rename_cycle = rename_cycle.max(self.rename_cycle_cursor);
        // Structural stalls: ROB / LDQ / STQ / PRF / IQ.
        while self.rob.len() >= self.cfg.rob_entries {
            let free = self.rob.pop_front().expect("rob nonempty");
            rename_cycle = rename_cycle.max(free + 1);
        }
        if is_load {
            while self.ldq.len() >= self.cfg.ldq_entries {
                let free = self.ldq.pop_front().expect("ldq nonempty");
                rename_cycle = rename_cycle.max(free + 1);
            }
        }
        if is_store {
            while self.stq.len() >= self.cfg.stq_entries {
                let free = self.stq.pop_front().expect("stq nonempty");
                rename_cycle = rename_cycle.max(free + 1);
            }
        }
        let dests = &d.dests;
        let prf_cap = self.cfg.physical_regs - Reg::COUNT;
        for _ in 0..dests.len() {
            if self.prf.len() >= prf_cap {
                let free = self.prf.pop_front().expect("prf nonempty");
                rename_cycle = rename_cycle.max(free + 1);
            }
        }
        while self.iq.len() >= self.cfg.iq_entries {
            let free = self.iq.pop().expect("iq nonempty");
            rename_cycle = rename_cycle.max(free + 1);
        }
        // Rename width pacing.
        if rename_cycle > self.rename_cycle_cursor {
            self.rename_cycle_cursor = rename_cycle;
            self.rename_in_cycle = 0;
        }
        self.rename_in_cycle += 1;
        if self.rename_in_cycle > self.cfg.frontend_width {
            self.rename_cycle_cursor += 1;
            self.rename_in_cycle = 1;
        }
        let rename_cycle = self.rename_cycle_cursor;
        self.rename_hist.push_back(rename_cycle);
        // Queue occupancy sampled at rename, for the retire event. Folded
        // away (and the tuple never built) under NullSink.
        let occupancy = if K::ENABLED {
            (
                self.rob.len() as u32,
                self.iq.len() as u32,
                self.ldq.len() as u32,
                self.stq.len() as u32,
            )
        } else {
            (0, 0, 0, 0)
        };

        // ---- value prediction injection decision -----------------------
        let mut injected = false;
        if !dests.is_empty() && d.branch.is_none() {
            if let Some(_pred) = self.scheme.prediction_at_rename(rec.seq, rename_cycle) {
                match self.vpe.admit(rename_cycle, dests.len()) {
                    InjectOutcome::Injected => {
                        injected = true;
                        if K::ENABLED {
                            self.sink.emit(ObsEvent::RenameInject {
                                seq: rec.seq,
                                pc: rec.pc,
                                cycle: rename_cycle,
                            });
                        }
                    }
                    InjectOutcome::PvtFull => {
                        self.stats.vp_pvt_full += 1;
                        if K::ENABLED {
                            self.sink.emit(ObsEvent::InjectBlocked {
                                seq: rec.seq,
                                pc: rec.pc,
                                cycle: rename_cycle,
                                reason: InjectBlock::PvtFull,
                            });
                        }
                    }
                    InjectOutcome::PortLimit => {
                        self.stats.vp_late += 1;
                        if K::ENABLED {
                            self.sink.emit(ObsEvent::InjectBlocked {
                                seq: rec.seq,
                                pc: rec.pc,
                                cycle: rename_cycle,
                                reason: InjectBlock::PortLimit,
                            });
                        }
                    }
                }
            }
        }

        // ---- sources ready ---------------------------------------------
        let mut src_ready = 0u64;
        for src in d.sources() {
            src_ready = src_ready.max(self.reg_avail[src.index()]);
        }

        // ---- issue & execute -------------------------------------------
        let earliest_issue = (rename_cycle + self.cfg.rename_to_issue as u64).max(src_ready);
        let issue_cycle = match d.op_class {
            OpClass::Load | OpClass::Store => self.lanes.book_ls(earliest_issue),
            _ => self.lanes.book_generic(earliest_issue),
        };
        self.iq.push(issue_cycle);
        let mut exec_start = issue_cycle + 1;

        let mut conflicting_store_commit: Option<u64> = None;
        let mut violation_redirect: Option<u64> = None;
        let mut l1_way: Option<u8> = None;
        let complete;
        match d.op_class {
            OpClass::Load => {
                // MDP: wait on a predicted in-flight store dependence.
                if let Some(dep) = self.mdp.load_dependence(rec.pc, rec.seq) {
                    if dep.exec_cycle > exec_start {
                        if K::ENABLED {
                            self.sink.emit(ObsEvent::MdpDelay {
                                seq: rec.seq,
                                pc: rec.pc,
                                cycle: exec_start,
                                until: dep.exec_cycle + 1,
                            });
                        }
                        exec_start = dep.exec_cycle + 1;
                        self.stats.mdp_delays += 1;
                    }
                }
                // Youngest older overlapping store.
                let mut newest: Option<StoreInfo> = None;
                for g in granules(rec.eff_addr, d.mem_bytes) {
                    if let Some(&s) = self.granule_stores.get(&g) {
                        if s.seq < rec.seq && newest.is_none_or(|n| s.seq > n.seq) {
                            newest = Some(s);
                        }
                    }
                }
                if let Some(s) = newest {
                    conflicting_store_commit = Some(s.commit_cycle);
                }
                complete = match newest {
                    Some(s) if s.commit_cycle > exec_start => {
                        // The store is still in flight at load execute.
                        if s.exec_cycle <= exec_start {
                            // Address known: store-to-load forwarding.
                            exec_start + self.cfg.lat_forward as u64
                        } else {
                            // The load would have executed before the store's
                            // address was known: memory-ordering violation.
                            self.stats.ordering_violations += 1;
                            self.mdp.train_violation(s.pc, rec.pc);
                            violation_redirect = Some(s.exec_cycle + 1);
                            s.exec_cycle + 1 + self.cfg.lat_forward as u64
                        }
                    }
                    _ => {
                        let access = self.mem.access_data(rec.pc, rec.eff_addr, true);
                        l1_way = Some(access.l1_way as u8);
                        exec_start + access.latency as u64
                    }
                };
            }
            OpClass::Store => {
                // Address generation + STQ write; cache updated at commit.
                complete = exec_start + 1;
            }
            OpClass::Branch => complete = exec_start + self.cfg.lat_branch as u64,
            OpClass::IntMul => complete = exec_start + self.cfg.lat_int_mul as u64,
            OpClass::IntDiv => complete = exec_start + self.cfg.lat_int_div as u64,
            OpClass::FpAlu => complete = exec_start + self.cfg.lat_fp_alu as u64,
            OpClass::FpDiv => complete = exec_start + self.cfg.lat_fp_div as u64,
            OpClass::IntAlu | OpClass::Other => complete = exec_start + self.cfg.lat_int_alu as u64,
        }

        // ---- per-PC load breakdown --------------------------------------
        if is_load {
            let pcs = &mut self.predecode.loads[d.load_slot as usize].1;
            pcs.executions += 1;
            if conflicting_store_commit.is_some() {
                pcs.conflict_exposed += 1;
            }
            if violation_redirect.is_some() {
                pcs.ordering_violations += 1;
            }
        }

        // ---- scheme verdict ---------------------------------------------
        let info = ExecInfo {
            seq: rec.seq,
            pc: rec.pc,
            inst,
            eff_addr: rec.eff_addr,
            values: rec.values(&mut self.value_buf),
            exec_cycle: exec_start,
            conflicting_store_commit,
            l1_way,
            was_injected: injected,
        };
        let verdict = self.scheme.on_execute(&info);

        // ---- apply prediction effects ------------------------------------
        let mut dest_avail = complete;
        let mut vp_redirect: Option<u64> = None;
        if injected && verdict.predicted {
            // The verify event mirrors the per-PC accounting below exactly,
            // so a traced run's lifecycle report reconciles count-for-count
            // with `SimStats::per_pc`.
            if K::ENABLED {
                let outcome = if verdict.correct {
                    VerifyOutcome::Correct
                } else {
                    match self.cfg.recovery {
                        RecoveryMode::Flush => VerifyOutcome::Flush,
                        RecoveryMode::OracleReplay => VerifyOutcome::Replay,
                    }
                };
                self.sink.emit(ObsEvent::Verify {
                    seq: rec.seq,
                    pc: rec.pc,
                    cycle: complete,
                    outcome,
                    conflict: conflicting_store_commit.is_some(),
                    is_load,
                });
            }
            if is_load {
                let pcs = &mut self.predecode.loads[d.load_slot as usize].1;
                pcs.injected += 1;
                if verdict.correct {
                    pcs.correct += 1;
                } else if conflicting_store_commit.is_some() {
                    pcs.conflict_squashes += 1;
                }
            }
            match self.cfg.recovery {
                RecoveryMode::Flush => {
                    self.stats.vp_predicted += 1;
                    if is_load {
                        self.stats.vp_predicted_loads += 1;
                    }
                    self.vpe.allocate(dests, complete);
                    if verdict.correct {
                        self.stats.vp_correct += 1;
                        dest_avail = rename_cycle;
                    } else {
                        self.stats.vp_flushes += 1;
                        vp_redirect = Some(complete + self.cfg.value_check_penalty as u64 + 1);
                    }
                }
                RecoveryMode::OracleReplay => {
                    self.stats.vp_predicted += 1;
                    if is_load {
                        self.stats.vp_predicted_loads += 1;
                    }
                    if verdict.correct {
                        self.stats.vp_correct += 1;
                        self.vpe.allocate(dests, complete);
                        dest_avail = rename_cycle;
                    } else {
                        // Oracle replay: as if never predicted.
                        self.stats.vp_replays += 1;
                    }
                }
            }
        }

        // ---- write back -------------------------------------------------
        for r in dests.iter() {
            self.reg_avail[r.index()] = dest_avail;
        }
        self.stats.prf_writes += dests.len() as u64;
        // Route operand reads between the PVT and the PRF (predicted bits).
        for &src in d.sources() {
            self.vpe.note_source_read(src, issue_cycle);
        }

        // ---- commit ------------------------------------------------------
        let mut commit_cycle = (complete + 1).max(self.commit_cycle_cursor);
        if commit_cycle > self.commit_cycle_cursor {
            self.commit_cycle_cursor = commit_cycle;
            self.commit_in_cycle = 0;
        }
        self.commit_in_cycle += 1;
        if self.commit_in_cycle > self.cfg.backend_width {
            self.commit_cycle_cursor += 1;
            self.commit_in_cycle = 1;
            commit_cycle = self.commit_cycle_cursor;
        }

        self.rob.push_back(commit_cycle);
        if is_load {
            self.ldq.push_back(commit_cycle);
        }
        if is_store {
            self.stq.push_back(commit_cycle);
            // Store becomes architecturally visible (and fills the cache) at
            // commit.
            self.mem.access_data(rec.pc, rec.eff_addr, false);
            let si = StoreInfo {
                seq: rec.seq,
                pc: rec.pc,
                exec_cycle: exec_start,
                commit_cycle,
            };
            for g in granules(rec.eff_addr, d.mem_bytes) {
                self.granule_stores.insert(g, si);
            }
            if let Some(prev) = self.mdp.store_dispatched(rec.pc, rec.seq, exec_start) {
                let _ = prev; // store-store ordering not modelled
            }
        }
        debug_assert!(self.prf.back().is_none_or(|&last| last <= commit_cycle));
        for _ in 0..dests.len() {
            self.prf.push_back(commit_cycle);
        }

        if K::ENABLED {
            self.sink.emit(ObsEvent::Retire {
                seq: rec.seq,
                pc: rec.pc,
                is_load,
                is_store,
                eff_addr: rec.eff_addr,
                fetch: fetch_cycle,
                rename: rename_cycle,
                issue: issue_cycle,
                execute: exec_start,
                complete,
                commit: commit_cycle,
                rob: occupancy.0,
                iq: occupancy.1,
                ldq: occupancy.2,
                stq: occupancy.3,
            });
        }

        // ---- redirects (branch / violation / value misprediction) --------
        if branch_mispredicted {
            self.stats.misp_resolve_sum += complete.saturating_sub(fetch_cycle);
            if K::ENABLED {
                self.sink.emit(ObsEvent::Redirect {
                    cycle: complete + 1,
                    cause: RedirectCause::Branch,
                });
            }
            self.redirect(complete + 1);
        }
        if let Some(r) = violation_redirect {
            if K::ENABLED {
                self.sink.emit(ObsEvent::Redirect {
                    cycle: r,
                    cause: RedirectCause::OrderingViolation,
                });
            }
            self.redirect(r);
        }
        if let Some(r) = vp_redirect {
            if K::ENABLED {
                self.sink.emit(ObsEvent::Redirect {
                    cycle: r,
                    cause: RedirectCause::ValueMisprediction,
                });
            }
            self.redirect(r);
        }
    }

    fn redirect(&mut self, cycle: u64) {
        if cycle > self.next_fetch_cycle {
            self.next_fetch_cycle = cycle;
        }
        self.group_break = true;
    }
}

fn granules(addr: u64, bytes: u64) -> impl Iterator<Item = u64> {
    let first = addr >> 3;
    let last = (addr + bytes.max(1) - 1) >> 3;
    first..=last
}

/// Convenience: run `trace` on a default-configured core with `scheme`.
pub fn simulate<S: VpScheme>(trace: &Trace, scheme: S) -> SimStats {
    Core::new(CoreConfig::default(), scheme).run(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vp::{NoVp, OracleLoadVp};
    use lvp_emu::Emulator;
    use lvp_isa::{Asm, MemSize};

    fn chase_trace(n: u64) -> Trace {
        // A pointer-chase: every load depends on the previous one, so value
        // prediction has maximal leverage.
        let mut a = Asm::new(0x1000);
        // ring of 64 nodes, 64 bytes apart
        let base = 0x10_0000u64;
        let nodes: Vec<u64> = (0..64).map(|i| base + ((i + 1) % 64) * 64).collect();
        let mut words = Vec::new();
        for (i, &next) in nodes.iter().enumerate() {
            words.push(next);
            let _ = i;
        }
        // nodes are 64B apart: place next pointers at base + i*64
        for (i, w) in words.iter().enumerate() {
            a.data_u64(base + (i as u64) * 64, &[*w]);
        }
        a.mov(Reg::X0, base);
        let top = a.here();
        a.ldr(Reg::X0, Reg::X0, 0, MemSize::X);
        a.b(top);
        Emulator::new(a.build()).run(n).trace
    }

    fn alu_trace(n: u64) -> Trace {
        let mut a = Asm::new(0x1000);
        a.mov(Reg::X1, 1);
        let top = a.here();
        a.addi(Reg::X1, Reg::X1, 1);
        a.addi(Reg::X2, Reg::X1, 2);
        a.addi(Reg::X3, Reg::X2, 3);
        a.b(top);
        Emulator::new(a.build()).run(n).trace
    }

    #[test]
    fn ipc_is_positive_and_bounded() {
        let t = alu_trace(10_000);
        let s = simulate(&t, NoVp);
        assert!(s.cycles > 0);
        let ipc = s.ipc();
        assert!(ipc > 0.2, "ipc {ipc}");
        assert!(ipc <= 8.0, "ipc cannot exceed machine width, got {ipc}");
    }

    #[test]
    fn serial_chase_is_memory_bound() {
        let t = chase_trace(4_000);
        let s = simulate(&t, NoVp);
        // Every iteration serializes on an L1 hit (2 cycles) + AGU etc.
        assert!(s.ipc() < 1.5, "chase should be slow, got {}", s.ipc());
    }

    #[test]
    fn oracle_value_prediction_speeds_up_chase() {
        let t = chase_trace(4_000);
        let base = simulate(&t, NoVp);
        let vp = simulate(&t, OracleLoadVp::default());
        let speedup = vp.speedup_over(&base);
        assert!(
            speedup > 1.2,
            "oracle VP must break the chain, got {speedup}"
        );
        assert!(vp.vp_predicted_loads > 0);
        assert!((vp.accuracy() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn perfectly_biased_branches_do_not_redirect() {
        let t = alu_trace(8_000);
        let s = simulate(&t, NoVp);
        // The single backward branch is always taken: a handful of cold
        // mispredicts at most.
        assert!(s.branch_mispredicts < 10, "got {}", s.branch_mispredicts);
    }

    #[test]
    fn store_load_forwarding_and_violations() {
        // A loop that stores then immediately loads the same address.
        let mut a = Asm::new(0x1000);
        a.mov(Reg::X0, 0x8000);
        a.mov(Reg::X1, 0);
        let top = a.here();
        a.addi(Reg::X1, Reg::X1, 1);
        a.str_(Reg::X1, Reg::X0, 0, MemSize::X);
        a.ldr(Reg::X2, Reg::X0, 0, MemSize::X);
        a.add(Reg::X3, Reg::X2, Reg::X1);
        a.b(top);
        let t = Emulator::new(a.build()).run(8_000).trace;
        let s = simulate(&t, NoVp);
        // Early iterations violate; the MDP then learns the dependence.
        assert!(s.ordering_violations > 0, "expected initial violations");
        assert!(s.mdp_delays > 0, "MDP should learn to delay the load");
        assert!(
            s.ordering_violations < s.loads / 4,
            "violations should be rare after training: {} of {}",
            s.ordering_violations,
            s.loads
        );
    }

    #[test]
    fn commit_width_bounds_ipc() {
        let t = alu_trace(20_000);
        let s = simulate(&t, NoVp);
        assert!(s.instructions as f64 / s.cycles as f64 <= 8.0);
    }

    #[test]
    fn a_pc_whose_instruction_changes_is_re_decoded_and_keeps_its_counters() {
        // Hand-built records can put different instructions at one PC; the
        // predecode table must follow the record and per-PC counters must
        // stay per PC.
        let ldr = Instruction::Ldr {
            rd: Reg::X1,
            rn: Reg::X0,
            offset: 0,
            size: MemSize::X,
        };
        let add = Instruction::AluImm {
            op: lvp_isa::AluOp::Add,
            rd: Reg::X2,
            rn: Reg::X2,
            imm: 1,
        };
        let rec = |pc: u64, inst: Instruction| TraceRecord {
            seq: 0,
            pc,
            inst,
            next_pc: pc + 4,
            eff_addr: if inst.is_load() { 0x8000 } else { 0 },
            value: 0,
            extra_values: None,
        };
        let t: Trace = [
            rec(0x100, ldr),
            rec(0x104, add),
            rec(0x100, add),
            rec(0x104, ldr),
            rec(0x100, ldr),
        ]
        .into_iter()
        .collect();
        let s = simulate(&t, NoVp);
        assert_eq!(s.loads, 3);
        assert_eq!(s.per_pc.len(), 2);
        assert_eq!(s.per_pc[&0x100].executions, 2);
        assert_eq!(s.per_pc[&0x104].executions, 1);
    }

    #[test]
    fn predecode_re_decodes_in_place_and_never_aliases_pcs() {
        let ldr = Instruction::Ldr {
            rd: Reg::X1,
            rn: Reg::X0,
            offset: 0,
            size: MemSize::X,
        };
        let add = Instruction::AluImm {
            op: lvp_isa::AluOp::Add,
            rd: Reg::X2,
            rn: Reg::X2,
            imm: 1,
        };
        let mut p = Predecode::default();
        // A changed instruction is re-decoded in the same entry and keeps
        // the PC's load slot.
        let i = p.lookup(0x100, ldr);
        assert_eq!(p.lookup(0x100, add), i);
        assert_eq!(p.entries[i].inst, add);
        assert_eq!(p.lookup(0x100, ldr), i);
        assert_eq!((p.entries[i].load_slot, p.loads.len()), (0, 1));

        // The same in-page offset on other pages (near, far, at the top of
        // the address space) and unaligned PCs in the same word: every PC
        // gets an entry and a load slot of its own, and finds them again.
        let pcs = [
            0x100,
            0x100 + 4096,
            0x100 + (1 << 40),
            0x101,
            0x103,
            0x105,
            u64::MAX - 0xfff + 0x100,
            u64::MAX,
        ];
        let entries: Vec<usize> = pcs.iter().map(|&pc| p.lookup(pc, ldr)).collect();
        for (a, &ea) in entries.iter().enumerate() {
            assert_eq!(p.lookup(pcs[a], ldr), ea, "{:#x} found again", pcs[a]);
            for &eb in &entries[a + 1..] {
                assert_ne!(ea, eb, "{:#x} shares an entry", pcs[a]);
            }
        }
        let load_pcs: Vec<u64> = p.loads.iter().map(|&(pc, _)| pc).collect();
        assert_eq!(load_pcs, pcs);
    }

    #[test]
    fn stats_count_instruction_classes() {
        let t = chase_trace(1_000);
        let s = simulate(&t, NoVp);
        assert_eq!(s.instructions, 1_000);
        assert!(s.loads > 400);
        assert!(s.branches > 400);
    }
}
