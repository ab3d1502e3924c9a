//! The store→load conflict graph.
//!
//! For every load the path-insensitive alias pass already records the set
//! of stores that *may* overlap it ([`crate::LoadInfo::conflicting_stores`]
//! — that set stays the sound authority and is never pruned here). This
//! module annotates each such (store, load) pair with the path contexts
//! (from [`crate::paths`]) under which the overlap is actually possible,
//! and upgrades an edge to **must-conflict** when the refinement proves the
//! load reads granules the store writes on *every* enumerated path: both
//! addresses constant, the load's granules contained in the store's, on
//! every context of a complete summary. Must-edges feed gate rule R5 (an
//! exercised must-edge has to show dynamic `conflict_exposed`) and the
//! exposure lower bound in [`crate::bounds`].

use crate::alias::Region;
use crate::paths::PathSummary;
use crate::ProgramAnalysis;
use std::collections::BTreeMap;

/// How certain the conflict is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// The regions may overlap on at least one path (or the analysis could
    /// not rule it out).
    May,
    /// On every enumerated path the load reads granules the store writes.
    Must,
}

impl EdgeKind {
    /// Stable lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::May => "may",
            EdgeKind::Must => "must",
        }
    }
}

/// One (load, store) conflict edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictEdge {
    /// PC of the load.
    pub load_pc: u64,
    /// PC of the store.
    pub store_pc: u64,
    /// May vs must.
    pub kind: EdgeKind,
    /// Indices into the load's [`PathSummary::contexts`] under which the
    /// refined load region overlaps the store region. Empty means the
    /// refinement found no overlapping context but the path-insensitive
    /// may-set still claims one (bounded-depth refinement never prunes).
    pub contexts: Vec<usize>,
}

/// All conflict edges of one program, sorted by `(load_pc, store_pc)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConflictGraph {
    /// Edges in `(load_pc, store_pc)` order.
    pub edges: Vec<ConflictEdge>,
}

impl ConflictGraph {
    /// Edges whose load is `load_pc`.
    pub fn edges_of(&self, load_pc: u64) -> impl Iterator<Item = &ConflictEdge> {
        self.edges.iter().filter(move |e| e.load_pc == load_pc)
    }

    /// All must-conflict edges.
    pub fn must_edges(&self) -> impl Iterator<Item = &ConflictEdge> {
        self.edges.iter().filter(|e| e.kind == EdgeKind::Must)
    }
}

/// Granule range of a constant access, `None` on address-space wrap.
fn const_granules(addr: u64, bytes: u64) -> Option<(u64, u64)> {
    let last = addr.checked_add(bytes.max(1) - 1)?;
    Some((addr >> 3, last >> 3))
}

/// Builds the conflict graph. `summaries` must parallel `analysis.loads`
/// (one summary per load, same order — [`crate::DepAnalysis`] guarantees
/// this).
pub fn build(analysis: &ProgramAnalysis, summaries: &[PathSummary]) -> ConflictGraph {
    assert_eq!(
        summaries.len(),
        analysis.loads.len(),
        "one path summary per load"
    );
    let stores: BTreeMap<u64, &crate::StoreInfo> =
        analysis.stores.iter().map(|s| (s.pc, s)).collect();
    let df = analysis.dataflow();
    let mut edges = Vec::new();
    for (load, summary) in analysis.loads.iter().zip(summaries) {
        debug_assert_eq!(load.pc, summary.pc);
        for &store_pc in &load.conflicting_stores {
            let Some(store) = stores.get(&store_pc) else {
                continue;
            };
            let contexts: Vec<usize> = summary
                .contexts
                .iter()
                .enumerate()
                .filter(|(_, c)| Region::from_abs(c.addr, load.bytes).overlaps(store.region))
                .map(|(i, _)| i)
                .collect();
            let store_const = df.addr_value(store.index).as_const();
            let must = summary.complete
                && !summary.contexts.is_empty()
                && contexts.len() == summary.contexts.len()
                && store_const.is_some_and(|sa| {
                    let Some(sg) = const_granules(sa, store.bytes) else {
                        return false;
                    };
                    summary.contexts.iter().all(|c| {
                        c.addr.as_const().is_some_and(|la| {
                            const_granules(la, load.bytes)
                                .is_some_and(|lg| lg.0 >= sg.0 && lg.1 <= sg.1)
                        })
                    })
                });
            edges.push(ConflictEdge {
                load_pc: load.pc,
                store_pc,
                kind: if must { EdgeKind::Must } else { EdgeKind::May },
                contexts,
            });
        }
    }
    edges.sort_by_key(|e| (e.load_pc, e.store_pc));
    ConflictGraph { edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::{PathConfig, PathEnumerator};
    use crate::Cfg;
    use lvp_isa::{Asm, MemSize, Reg};

    fn graph_of(program: &lvp_isa::Program) -> (ProgramAnalysis, ConflictGraph) {
        let pa = ProgramAnalysis::analyze(program);
        let cfg = Cfg::build(program);
        let en = PathEnumerator::new(program, &cfg, pa.dataflow(), PathConfig::default());
        let summaries: Vec<_> = pa.loads.iter().map(|l| en.summarize(l.index)).collect();
        let g = build(&pa, &summaries);
        (pa, g)
    }

    #[test]
    fn same_cell_store_is_a_must_edge() {
        // Load and store hit the same constant cell inside a loop.
        let mut a = Asm::new(0x1000);
        a.mov(Reg::X0, 0x8000);
        let top = a.here();
        a.ldr(Reg::X1, Reg::X0, 0, MemSize::X);
        a.addi(Reg::X1, Reg::X1, 1);
        a.str_(Reg::X1, Reg::X0, 0, MemSize::X);
        a.cbnz(Reg::X1, top);
        a.halt();
        let (pa, g) = graph_of(&a.build());
        assert_eq!(pa.loads.len(), 1);
        let edges: Vec<_> = g.edges_of(pa.loads[0].pc).collect();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].kind, EdgeKind::Must);
        assert!(!edges[0].contexts.is_empty());
    }

    #[test]
    fn disjoint_constant_store_contributes_no_edge() {
        let mut a = Asm::new(0x1000);
        a.mov(Reg::X0, 0x8000);
        a.mov(Reg::X2, 0x9000);
        let top = a.here();
        a.ldr(Reg::X1, Reg::X0, 0, MemSize::X);
        a.str_(Reg::X1, Reg::X2, 0, MemSize::X);
        a.cbnz(Reg::X1, top);
        a.halt();
        let (pa, g) = graph_of(&a.build());
        assert!(g.edges_of(pa.loads[0].pc).next().is_none());
        assert!(pa.loads[0].conflict_free());
    }

    #[test]
    fn path_dependent_overlap_is_may_with_context_subset() {
        // The store hits only one of the diamond's two leaf cells, so the
        // edge is May and covers a strict subset of the load's contexts.
        let mut a = Asm::new(0x1000);
        a.mov(Reg::X2, 0);
        let top = a.here();
        a.andi(Reg::X3, Reg::X2, 1);
        let else_ = a.new_label();
        let join = a.new_label();
        a.cbz(Reg::X3, else_);
        a.mov(Reg::X1, 0x9000);
        a.b(join);
        a.place(else_);
        a.mov(Reg::X1, 0x9100);
        a.place(join);
        a.ldr(Reg::X4, Reg::X1, 0, MemSize::X);
        a.mov(Reg::X5, 0x9000);
        a.str_(Reg::X4, Reg::X5, 0, MemSize::X); // conflicts with leaf 0 only
        a.addi(Reg::X2, Reg::X2, 1);
        a.cbnz(Reg::X2, top);
        a.halt();
        let (pa, g) = graph_of(&a.build());
        let load = pa
            .loads
            .iter()
            .find(|l| l.class == crate::LoadClass::PathDependent)
            .expect("path-dependent load");
        let edges: Vec<_> = g.edges_of(load.pc).collect();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].kind, EdgeKind::May);
        assert!(!edges[0].contexts.is_empty());
    }

    #[test]
    fn graph_is_deterministic() {
        let mut a = Asm::new(0x1000);
        a.mov(Reg::X0, 0x8000);
        let top = a.here();
        a.ldr(Reg::X1, Reg::X0, 0, MemSize::X);
        a.str_(Reg::X1, Reg::X0, 8, MemSize::X);
        a.cbnz(Reg::X1, top);
        a.halt();
        let p = a.build();
        assert_eq!(graph_of(&p).1, graph_of(&p).1);
    }
}
