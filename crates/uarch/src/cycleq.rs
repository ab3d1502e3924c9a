//! A min-queue of cycle numbers for the issue queue's occupancy.
//!
//! The issue queue frees its entries at issue, out of program order, so
//! it needs a min-priority queue. But no cycle pushed into it lies before
//! the last one popped — an instruction renames after the IQ slot it waited
//! for frees, and issues after it renames — so the queue can be a circular
//! array of per-cycle counts starting at the last popped cycle: a push is
//! one increment, and pops scan forward, so the scanning over a whole run
//! adds up to its cycle count.

/// A min-queue of `u64` cycles, none smaller than the last cycle popped.
#[derive(Debug, Clone)]
pub(crate) struct CycleQueue {
    /// Entries per cycle, indexed by `cycle & (counts.len() - 1)`; covers
    /// the window `[base, base + counts.len())`.
    counts: Vec<u32>,
    /// The last cycle popped (every queued cycle is `>= base`).
    base: u64,
    len: usize,
}

impl Default for CycleQueue {
    fn default() -> CycleQueue {
        CycleQueue {
            counts: vec![0; 256],
            base: 0,
            len: 0,
        }
    }
}

impl CycleQueue {
    /// An empty queue.
    pub(crate) fn new() -> CycleQueue {
        CycleQueue::default()
    }

    /// Number of queued cycles.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn slot(&self, cycle: u64) -> usize {
        (cycle as usize) & (self.counts.len() - 1)
    }

    /// Queues `cycle`, which must not precede the last cycle popped.
    pub(crate) fn push(&mut self, cycle: u64) {
        debug_assert!(
            cycle >= self.base,
            "cycle queue is monotone: pushed {cycle} after popping {}",
            self.base
        );
        let reach = cycle - self.base;
        if reach >= self.counts.len() as u64 {
            self.grow(reach);
        }
        let s = self.slot(cycle);
        self.counts[s] += 1;
        self.len += 1;
    }

    /// Removes and returns the earliest queued cycle.
    pub(crate) fn pop(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        loop {
            let s = self.slot(self.base);
            if self.counts[s] > 0 {
                self.counts[s] -= 1;
                self.len -= 1;
                return Some(self.base);
            }
            self.base += 1;
        }
    }

    /// Widens the window to reach `base + reach`.
    fn grow(&mut self, reach: u64) {
        let size = (reach as usize + 1).next_power_of_two();
        let mut counts = vec![0; size];
        for offset in 0..self.counts.len() as u64 {
            let cycle = self.base + offset;
            counts[(cycle as usize) & (size - 1)] = self.counts[self.slot(cycle)];
        }
        self.counts = counts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_order_like_a_binary_heap() {
        // A monotone workload: pushes never precede the last pop; the
        // occasional far push forces the window to grow.
        let mut q = CycleQueue::new();
        let mut reference = BinaryHeap::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut floor = 0u64;
        for step in 0..50_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let ahead = if x.is_multiple_of(997) {
                x % 5000
            } else {
                x % 300
            };
            q.push(floor + ahead);
            reference.push(Reverse(floor + ahead));
            if step % 3 != 0 {
                let Reverse(want) = reference.pop().expect("nonempty");
                assert_eq!(q.pop(), Some(want), "step {step}");
                floor = want;
            }
            assert_eq!(q.len(), reference.len());
        }
        while let Some(Reverse(want)) = reference.pop() {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn a_drained_queue_still_accepts_the_last_popped_cycle() {
        let mut q = CycleQueue::new();
        q.push(9);
        q.push(7);
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), Some(9));
        assert_eq!(q.pop(), None);
        q.push(2_000);
        q.push(9);
        assert_eq!(q.pop(), Some(9));
        assert_eq!(q.pop(), Some(2_000));
        assert_eq!(q.len(), 0);
    }
}
