//! Trace record and trace container types.

use lvp_isa::{Instruction, Reg};

/// Most 64-bit value chunks one record can carry: one per architectural
/// register, the widest `LDM`/`STM`.
pub const MAX_CHUNKS: usize = Reg::COUNT;

/// Scratch space [`TraceRecord::values`] assembles multi-chunk records in.
pub type ValueBuf = [u64; MAX_CHUNKS];

/// One dynamically executed instruction.
///
/// Multi-destination loads (LDP/LDM/VLD) carry their first loaded 64-bit
/// chunk in [`TraceRecord::value`] and the remaining chunks in
/// [`TraceRecord::extra_values`]; single-destination records leave the latter
/// `None` so the common case stays allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Dynamic sequence number (0-based, dense).
    pub seq: u64,
    /// Instruction address.
    pub pc: u64,
    /// The decoded instruction.
    pub inst: Instruction,
    /// Address of the next dynamically executed instruction (branch outcome).
    pub next_pc: u64,
    /// Effective memory address (0 when the instruction is not a memory op).
    pub eff_addr: u64,
    /// First loaded 64-bit chunk (loads), or the first stored chunk (stores),
    /// zero-extended for sub-word accesses. Zero for non-memory ops.
    pub value: u64,
    /// Remaining loaded/stored 64-bit chunks for multi-destination ops.
    pub extra_values: Option<Box<[u64]>>,
}

impl TraceRecord {
    /// Whether this record is a taken control transfer.
    pub fn taken(&self) -> bool {
        self.next_pc != self.pc.wrapping_add(lvp_isa::INST_BYTES)
    }

    /// All loaded/stored 64-bit chunks in order. A single-chunk record is
    /// viewed in place; a multi-chunk one is assembled in `buf`, so the
    /// call never allocates.
    ///
    /// # Panics
    ///
    /// Panics if the record carries more than [`MAX_CHUNKS`] chunks.
    pub fn values<'a>(&'a self, buf: &'a mut ValueBuf) -> &'a [u64] {
        match &self.extra_values {
            None => std::slice::from_ref(&self.value),
            Some(extra) => {
                let n = extra.len() + 1;
                buf[0] = self.value;
                buf[1..n].copy_from_slice(extra);
                &buf[..n]
            }
        }
    }

    /// Convenience view for load records, used by the standalone predictor
    /// evaluations.
    pub fn as_load(&self) -> Option<LoadView> {
        if self.inst.is_load() {
            Some(LoadView {
                seq: self.seq,
                pc: self.pc,
                addr: self.eff_addr,
                bytes: self.inst.mem_bytes().unwrap_or(8),
                value: self.value,
            })
        } else {
            None
        }
    }
}

/// Flat view of a dynamic load, used by standalone (timing-free) predictor
/// evaluation such as the Figure 4 harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadView {
    pub seq: u64,
    pub pc: u64,
    pub addr: u64,
    pub bytes: u64,
    pub value: u64,
}

/// An ordered dynamic trace with summary counters.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Creates a trace from records, asserting dense sequence numbers.
    ///
    /// # Panics
    ///
    /// Panics if sequence numbers are not `0..n`.
    pub fn from_records(records: Vec<TraceRecord>) -> Trace {
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "trace sequence numbers must be dense");
        }
        Trace { records }
    }

    /// Appends a record, assigning the next sequence number.
    pub fn push(&mut self, mut rec: TraceRecord) {
        rec.seq = self.records.len() as u64;
        self.records.push(rec);
    }

    /// All records in program order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterator over dynamic loads.
    pub fn loads(&self) -> impl Iterator<Item = LoadView> + '_ {
        self.records.iter().filter_map(TraceRecord::as_load)
    }

    /// Count of dynamic loads.
    pub fn load_count(&self) -> usize {
        self.records.iter().filter(|r| r.inst.is_load()).count()
    }

    /// Count of dynamic stores.
    pub fn store_count(&self) -> usize {
        self.records.iter().filter(|r| r.inst.is_store()).count()
    }

    /// Count of dynamic branches.
    pub fn branch_count(&self) -> usize {
        self.records.iter().filter(|r| r.inst.is_branch()).count()
    }

    /// Empties the trace, keeping its allocation for the next fill.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// FNV-1a hash over every record's architectural content (pc, encoded
    /// instruction, next pc, effective address, all values): the
    /// [`Fingerprinter`] fold over the records.
    ///
    /// This is the workload component of a content-addressed store key: a
    /// workload-generator edit that changes what a trace contains changes
    /// the fingerprint, so stale cached results become unreachable without
    /// any manual invalidation.
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fingerprinter::new();
        for r in &self.records {
            f.push(r);
        }
        f.finish()
    }
}

/// One FNV-1a step per little-endian byte of `x`.
fn mix(h: &mut u64, x: u64) {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for b in x.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(PRIME);
    }
}

/// [`Trace::fingerprint`] one record at a time, so a record stream is
/// fingerprinted without being stored. The hash is a plain left fold with
/// no length prefix: pushing a trace's records in order and calling
/// [`Fingerprinter::finish`] gives exactly `Trace::fingerprint()`.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    h: u64,
    /// Scratch for each record's encoded instruction words.
    words: Vec<u32>,
}

impl Default for Fingerprinter {
    fn default() -> Fingerprinter {
        Fingerprinter {
            h: 0xcbf2_9ce4_8422_2325,
            words: Vec::new(),
        }
    }
}

impl Fingerprinter {
    /// The fingerprint of an empty record sequence.
    pub fn new() -> Fingerprinter {
        Fingerprinter::default()
    }

    /// Folds the next record into the hash.
    pub fn push(&mut self, r: &TraceRecord) {
        let h = &mut self.h;
        mix(h, r.pc);
        self.words.clear();
        lvp_isa::encode(r.inst, &mut self.words);
        mix(h, self.words.len() as u64);
        for &w in &self.words {
            mix(h, u64::from(w));
        }
        mix(h, r.next_pc);
        mix(h, r.eff_addr);
        mix(h, r.value);
        match &r.extra_values {
            Some(extra) => {
                mix(h, extra.len() as u64);
                for &v in extra.iter() {
                    mix(h, v);
                }
            }
            None => mix(h, 0),
        }
    }

    /// The fingerprint of the records pushed so far.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

impl FromIterator<TraceRecord> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Trace {
        let mut t = Trace::new();
        for r in iter {
            t.push(r);
        }
        t
    }
}

impl Extend<TraceRecord> for Trace {
    fn extend<I: IntoIterator<Item = TraceRecord>>(&mut self, iter: I) {
        for r in iter {
            self.push(r);
        }
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use lvp_isa::{Instruction, MemSize, Reg};

    /// Builds a load record (for analytics tests).
    pub fn load(pc: u64, addr: u64, value: u64) -> TraceRecord {
        TraceRecord {
            seq: 0,
            pc,
            inst: Instruction::Ldr {
                rd: Reg::X1,
                rn: Reg::X0,
                offset: 0,
                size: MemSize::X,
            },
            next_pc: pc + 4,
            eff_addr: addr,
            value,
            extra_values: None,
        }
    }

    /// Builds a store record.
    pub fn store(pc: u64, addr: u64, value: u64) -> TraceRecord {
        TraceRecord {
            seq: 0,
            pc,
            inst: Instruction::Str {
                rt: Reg::X1,
                rn: Reg::X0,
                offset: 0,
                size: MemSize::X,
            },
            next_pc: pc + 4,
            eff_addr: addr,
            value,
            extra_values: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::*;
    use super::*;
    use lvp_isa::Instruction;

    #[test]
    fn push_assigns_dense_seq() {
        let mut t = Trace::new();
        t.push(load(0x100, 0x8000, 1));
        t.push(store(0x104, 0x8000, 2));
        assert_eq!(t.records()[0].seq, 0);
        assert_eq!(t.records()[1].seq, 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.load_count(), 1);
        assert_eq!(t.store_count(), 1);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn from_records_checks_density() {
        let mut r = load(0, 0, 0);
        r.seq = 5;
        let _ = Trace::from_records(vec![r]);
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let base = || -> Trace {
            vec![load(0x100, 0x8000, 1), store(0x104, 0x8000, 2)]
                .into_iter()
                .collect()
        };
        assert_eq!(base().fingerprint(), base().fingerprint());
        // Any architectural change perturbs the fingerprint.
        let mut changed = base();
        changed.push(load(0x108, 0x8010, 3));
        assert_ne!(base().fingerprint(), changed.fingerprint());
        let different_value: Trace = vec![load(0x100, 0x8000, 9), store(0x104, 0x8000, 2)]
            .into_iter()
            .collect();
        assert_ne!(base().fingerprint(), different_value.fingerprint());
        // extra_values participate (None vs empty-adjacent cases).
        let mut with_extra = base();
        with_extra.records[0].extra_values = Some(vec![5].into_boxed_slice());
        assert_ne!(base().fingerprint(), with_extra.fingerprint());
    }

    #[test]
    fn taken_detection() {
        let mut r = load(0x100, 0, 0);
        assert!(!r.taken());
        r.inst = Instruction::B { target: 0x200 };
        r.next_pc = 0x200;
        assert!(r.taken());
    }

    #[test]
    fn load_view_exposes_fields() {
        let t: Trace = vec![load(0x10, 0xdead0, 7)].into_iter().collect();
        let views: Vec<_> = t.loads().collect();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].addr, 0xdead0);
        assert_eq!(views[0].value, 7);
        assert_eq!(views[0].bytes, 8);
    }

    #[test]
    fn values_include_extras() {
        let mut buf = [0; MAX_CHUNKS];
        let mut r = load(0, 0, 1);
        r.extra_values = Some(vec![2, 3].into_boxed_slice());
        assert_eq!(r.values(&mut buf), [1, 2, 3]);
        assert_eq!(load(0, 0, 9).values(&mut buf), [9]);
        r.extra_values = Some(vec![7; MAX_CHUNKS - 1].into_boxed_slice());
        assert_eq!(r.values(&mut buf).len(), MAX_CHUNKS);
    }

    #[test]
    fn record_layout_stays_compact() {
        // Long traces hold millions of records resident: predecoded
        // per-instruction metadata belongs to the consumer's per-PC tables,
        // never to the dynamic record.
        assert_eq!(std::mem::size_of::<Instruction>(), 16);
        assert_eq!(std::mem::size_of::<TraceRecord>(), 72);
    }

    #[test]
    fn store_is_not_a_load_view() {
        assert!(store(0, 0, 0).as_load().is_none());
        let ret = TraceRecord {
            seq: 0,
            pc: 0,
            inst: Instruction::Ret,
            next_pc: 0x40,
            eff_addr: 0,
            value: 0,
            extra_values: None,
        };
        assert!(ret.as_load().is_none());
        assert!(ret.taken());
    }
}
