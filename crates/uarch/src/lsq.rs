//! The in-flight store queue: what a load orders against.
//!
//! Loads wait until every older store address is known, forward from the
//! youngest older store with an exact address/width match, and stall on a
//! partial overlap (see the memory-ordering notes in [`crate::core`]). The
//! queue keeps just enough of each in-flight store for that decision —
//! `(seq, address, width)` in age order, five words an entry — so a load's
//! ordering check scans only its older stores instead of every older ROB
//! entry.

use crate::dyninstr::{RobRef, Seq};
use std::collections::VecDeque;

/// One in-flight store, as memory ordering sees it.
#[derive(Debug, Clone, Copy)]
struct SqEntry {
    /// The store's ROB entry.
    rob: RobRef,
    /// Effective address; `None` until address generation.
    addr: Option<u64>,
    /// Access width in bytes.
    bytes: u64,
}

/// Memory-ordering verdict for a load, on addresses alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SqVerdict {
    /// An older store has an unknown address or partially overlaps.
    Blocked,
    /// The youngest older store with an exact address/width match.
    Forward(RobRef),
    /// No older store overlaps: read the memory system.
    Memory,
}

/// The in-flight stores in age order: pushed at dispatch, popped at the
/// front on commit and at the back on squash.
#[derive(Debug, Default)]
pub(crate) struct StoreQueue {
    entries: VecDeque<SqEntry>,
}

impl StoreQueue {
    /// Number of in-flight stores (the store-queue occupancy).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Appends a just-dispatched store of `bytes` bytes; its address is
    /// unknown until [`StoreQueue::set_addr`].
    pub(crate) fn push(&mut self, rob: RobRef, bytes: u64) {
        debug_assert!(self.entries.back().is_none_or(|b| b.rob.seq < rob.seq));
        self.entries.push_back(SqEntry { rob, addr: None, bytes });
    }

    /// Records the generated address of the in-flight store `seq`.
    pub(crate) fn set_addr(&mut self, seq: Seq, addr: u64) {
        let i = self.entries.partition_point(|s| s.rob.seq < seq);
        debug_assert_eq!(self.entries.get(i).map(|s| s.rob.seq), Some(seq), "store is queued");
        self.entries[i].addr = Some(addr);
    }

    /// Removes the oldest store, which is committing as `seq`.
    pub(crate) fn pop_committed(&mut self, seq: Seq) {
        let s = self.entries.pop_front();
        debug_assert_eq!(s.map(|s| s.rob.seq), Some(seq), "stores commit in age order");
    }

    /// Drops every store younger than `seq` (a squash).
    pub(crate) fn squash_younger_than(&mut self, seq: Seq) {
        while self.entries.back().is_some_and(|s| s.rob.seq > seq) {
            self.entries.pop_back();
        }
    }

    /// Ordering verdict for the load `load_seq` reading `bytes` bytes at
    /// `addr`: the first older store with an unknown address blocks, any
    /// partial overlap blocks, and otherwise the youngest exact match
    /// forwards. Whether that store's data is ready is the caller's
    /// question.
    pub(crate) fn check(&self, load_seq: Seq, addr: u64, bytes: u64) -> SqVerdict {
        let hi = addr.wrapping_add(bytes);
        let mut forward = None;
        for s in &self.entries {
            if s.rob.seq >= load_seq {
                break;
            }
            let Some(sa) = s.addr else { return SqVerdict::Blocked };
            let s_hi = sa.wrapping_add(s.bytes);
            if !(sa < hi && addr < s_hi) {
                continue;
            }
            if sa == addr && s.bytes == bytes {
                forward = Some(s.rob); // youngest exact match wins
            } else {
                return SqVerdict::Blocked; // wait for the store to drain
            }
        }
        forward.map_or(SqVerdict::Memory, SqVerdict::Forward)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(seq: Seq) -> RobRef {
        RobRef { seq, pos: seq }
    }

    /// Stores at seqs 1, 3, 5 (8 bytes at 0x100, 4 bytes at 0x200, 8 bytes
    /// at 0x100), all with known addresses.
    fn queue() -> StoreQueue {
        let mut q = StoreQueue::default();
        for (seq, addr, bytes) in [(1, 0x100, 8), (3, 0x200, 4), (5, 0x100, 8)] {
            q.push(r(seq), bytes);
            q.set_addr(seq, addr);
        }
        q
    }

    #[test]
    fn unknown_older_address_blocks() {
        let mut q = queue();
        q.push(r(7), 8);
        // Any load younger than the unresolved store waits, whatever it reads.
        assert_eq!(q.check(8, 0x900, 8), SqVerdict::Blocked);
        // Older loads do not see it.
        assert_eq!(q.check(6, 0x900, 8), SqVerdict::Memory);
        q.set_addr(7, 0x300);
        assert_eq!(q.check(8, 0x900, 8), SqVerdict::Memory);
    }

    #[test]
    fn partial_overlap_blocks() {
        let q = queue();
        // Narrower load inside the 4-byte store at 0x200.
        assert_eq!(q.check(4, 0x202, 2), SqVerdict::Blocked);
        // Same address, different width.
        assert_eq!(q.check(4, 0x200, 8), SqVerdict::Blocked);
        // Straddling the end of the store at 0x100.
        assert_eq!(q.check(2, 0x104, 8), SqVerdict::Blocked);
        // Adjacent but disjoint.
        assert_eq!(q.check(4, 0x204, 4), SqVerdict::Memory);
    }

    #[test]
    fn youngest_exact_match_forwards() {
        let q = queue();
        assert_eq!(q.check(9, 0x100, 8), SqVerdict::Forward(r(5)), "the youngest older match wins");
        assert_eq!(
            q.check(4, 0x100, 8),
            SqVerdict::Forward(r(1)),
            "stores younger than the load are invisible"
        );
        assert_eq!(q.check(1, 0x100, 8), SqVerdict::Memory, "a store does not order itself");
    }

    #[test]
    fn squash_drops_younger_stores() {
        let mut q = queue();
        q.push(r(7), 8); // unknown address
        q.squash_younger_than(4);
        assert_eq!(q.len(), 2);
        // Both the unknown-address store and the younger exact match left.
        assert_eq!(q.check(9, 0x100, 8), SqVerdict::Forward(r(1)));
        q.pop_committed(1);
        assert_eq!(q.check(9, 0x100, 8), SqVerdict::Memory);
        assert_eq!(q.len(), 1);
    }
}
