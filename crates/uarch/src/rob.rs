//! The reorder buffer: a ring of [`DynInstr`] entries, plus the issue
//! stage's ready set as a bitmap over the same ring.
//!
//! Entries live in place for their whole stay. Dispatch initialises the
//! next free entry, and commit and squash retire entries by moving the
//! head or the tail, so an 800-byte `DynInstr` is never moved in or out.
//! The ring grows by doubling up to the ROB size, so a run that never
//! fills the ROB never allocates all of it. Entries are addressed by ROB
//! index (0 = oldest); each also has a dense *position* (see
//! [`crate::dyninstr::RobRef`]): entry `i` sits at position
//! `head_pos() + i`.

use crate::dyninstr::DynInstr;
use levioso_isa::Instr;
use std::ops::{Index, IndexMut};

/// The in-flight instructions in age order.
#[derive(Debug)]
pub(crate) struct Rob {
    /// The ring (all of it in use whenever it grows).
    ring: Vec<DynInstr>,
    /// The ROB size: the ring's final length.
    capacity: usize,
    /// Ring slot of the oldest entry.
    head_slot: usize,
    /// Dense position of the oldest entry.
    head_pos: u64,
    /// Number of entries in flight.
    len: usize,
    /// Ready-set bitmap, one bit per ring slot: dispatched entries whose
    /// operands are ready (stores: whose base is ready).
    ready: Vec<u64>,
}

impl Rob {
    /// An empty ROB with `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Self {
        Rob { ring: Vec::new(), capacity, head_slot: 0, head_pos: 0, len: 0, ready: Vec::new() }
    }

    /// Doubles the ring (at least 16 entries, at most the capacity),
    /// moving the entries, oldest first, to its start.
    fn grow(&mut self) {
        debug_assert_eq!(self.len, self.ring.len(), "the ring grows only when full");
        let size = (2 * self.ring.len()).max(16).min(self.capacity);
        let mut ready = vec![0u64; size.div_ceil(64)];
        for i in 0..self.len {
            let s = self.slot(i);
            if self.ready[s / 64] & (1u64 << (s % 64)) != 0 {
                ready[i / 64] |= 1u64 << (i % 64);
            }
        }
        self.ring.rotate_left(self.head_slot);
        self.ring.resize(size, DynInstr::new(0, 0, Instr::Nop));
        self.ready = ready;
        self.head_slot = 0;
    }

    /// Number of entries in flight.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the ROB is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dense position of the oldest entry (of the next one dispatched,
    /// when empty).
    pub(crate) fn head_pos(&self) -> u64 {
        self.head_pos
    }

    /// The oldest entry.
    pub(crate) fn front(&self) -> Option<&DynInstr> {
        (self.len > 0).then(|| &self.ring[self.head_slot])
    }

    /// The youngest entry.
    pub(crate) fn back(&self) -> Option<&DynInstr> {
        self.len.checked_sub(1).map(|i| &self[i])
    }

    /// Ring slot of ROB index `idx`.
    #[inline]
    fn slot(&self, idx: usize) -> usize {
        debug_assert!(idx < self.len, "ROB index {idx} out of {} entries", self.len);
        let s = self.head_slot + idx;
        if s >= self.ring.len() {
            s - self.ring.len()
        } else {
            s
        }
    }

    /// Appends a freshly dispatched instruction and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the ROB is full.
    pub(crate) fn push_back(&mut self, seq: u64, pc: u32, instr: Instr) -> &mut DynInstr {
        if self.len == self.ring.len() {
            assert!(self.len < self.capacity, "ROB overflow");
            self.grow();
        }
        self.len += 1;
        let s = self.slot(self.len - 1);
        self.ring[s] = DynInstr::new(seq, pc, instr);
        &mut self.ring[s]
    }

    /// Retires the oldest entry (commit).
    pub(crate) fn pop_front(&mut self) {
        let s = self.head_slot;
        self.release(s);
        self.head_slot = if s + 1 == self.ring.len() { 0 } else { s + 1 };
        self.head_pos += 1;
        self.len -= 1;
    }

    /// Removes the youngest entry (squash).
    pub(crate) fn pop_back(&mut self) {
        let s = self.slot(self.len - 1);
        self.release(s);
        self.len -= 1;
    }

    /// Leaves the ring slot `s`: drops its ready bit and its predictor
    /// checkpoint (the only field that owns heap memory).
    fn release(&mut self, s: usize) {
        self.ready[s / 64] &= !(1u64 << (s % 64));
        self.ring[s].checkpoint = None;
    }

    /// Adds ROB index `idx` to the ready set.
    pub(crate) fn set_ready(&mut self, idx: usize) {
        let s = self.slot(idx);
        self.ready[s / 64] |= 1u64 << (s % 64);
    }

    /// Removes ROB index `idx` from the ready set.
    pub(crate) fn clear_ready(&mut self, idx: usize) {
        let s = self.slot(idx);
        self.ready[s / 64] &= !(1u64 << (s % 64));
    }

    /// Calls `f` with the ROB index of every ready entry, oldest first,
    /// until it returns `false`.
    pub(crate) fn for_each_ready(&self, mut f: impl FnMut(usize) -> bool) {
        let cap = self.ring.len();
        let h = self.head_slot;
        // Slots h..cap hold ROB indices 0..cap-h; slots 0..h the rest.
        for (lo, hi, to_idx) in [(h, cap, 0usize.wrapping_sub(h)), (0, h, cap - h)] {
            let mut w = lo / 64;
            while w * 64 < hi {
                let mut bits = self.ready[w];
                if w * 64 < lo {
                    bits &= !0u64 << (lo % 64);
                }
                if (w + 1) * 64 > hi {
                    bits &= (1u64 << (hi % 64)) - 1;
                }
                while bits != 0 {
                    let s = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if !f(s.wrapping_add(to_idx)) {
                        return;
                    }
                }
                w += 1;
            }
        }
    }
}

impl Index<usize> for Rob {
    type Output = DynInstr;

    #[inline]
    fn index(&self, idx: usize) -> &DynInstr {
        &self.ring[self.slot(idx)]
    }
}

impl IndexMut<usize> for Rob {
    #[inline]
    fn index_mut(&mut self, idx: usize) -> &mut DynInstr {
        let s = self.slot(idx);
        &mut self.ring[s]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready_of(rob: &Rob) -> Vec<usize> {
        let mut v = Vec::new();
        rob.for_each_ready(|i| {
            v.push(i);
            true
        });
        v
    }

    #[test]
    fn growth_keeps_order_and_ready_bits_across_a_wrap() {
        let mut rob = Rob::new(64);
        for seq in 0..16 {
            rob.push_back(seq, 0, Instr::Nop);
        }
        for _ in 0..10 {
            rob.pop_front();
        }
        for seq in 16..26 {
            rob.push_back(seq, 0, Instr::Nop); // wraps within 16 slots
        }
        rob.set_ready(0);
        rob.set_ready(15);
        rob.push_back(26, 0, Instr::Nop); // full: grows to 32
        assert_eq!(rob.ring.len(), 32);
        assert_eq!(
            (0..rob.len()).map(|i| rob[i].seq).collect::<Vec<_>>(),
            (10..27).collect::<Vec<_>>()
        );
        assert_eq!(ready_of(&rob), vec![0, 15]);
        assert_eq!(rob.head_pos(), 10);
    }

    #[test]
    fn small_rob_grows_straight_to_its_size() {
        let mut rob = Rob::new(5);
        for seq in 0..5 {
            rob.push_back(seq, 0, Instr::Nop);
        }
        assert_eq!(rob.ring.len(), 5);
        assert_eq!(rob.back().map(|e| e.seq), Some(4));
    }

    #[test]
    fn ring_wraps_and_keeps_age_order() {
        let mut rob = Rob::new(130); // three bitmap words, the last partial
        for seq in 0..120 {
            rob.push_back(seq, 0, Instr::Nop);
            if seq % 7 == 0 {
                rob.set_ready(seq as usize);
            }
        }
        assert_eq!(rob.ring.len(), 128, "grown by doubling from 16");
        for _ in 0..100 {
            rob.pop_front();
        }
        for seq in 120..230 {
            rob.push_back(seq, 0, Instr::Nop);
        }
        assert_eq!(rob.ring.len(), 130, "grown to the capacity, not past it");
        // Ready bits survive growth: seqs 105, 112, 119 are still ready.
        assert_eq!(ready_of(&rob), vec![5, 12, 19]);
        for i in [5, 12, 19] {
            rob.clear_ready(i);
        }
        assert_eq!(rob.len(), 130);
        assert_eq!(rob.head_pos(), 100);
        assert_eq!(rob.front().map(|e| e.seq), Some(100));
        assert_eq!(rob.back().map(|e| e.seq), Some(229));
        for i in 0..rob.len() {
            assert_eq!(rob[i].seq, 100 + i as u64);
        }
        // The ready set walks the wrapped ring oldest first.
        for i in [129, 0, 29, 30, 31, 64, 1] {
            rob.set_ready(i);
        }
        assert_eq!(ready_of(&rob), vec![0, 1, 29, 30, 31, 64, 129]);
        rob.clear_ready(30);
        let mut first = Vec::new();
        rob.for_each_ready(|i| {
            first.push(i);
            first.len() < 3
        });
        assert_eq!(first, vec![0, 1, 29], "the walk stops when asked");
        // Retiring entries drops their ready bits.
        rob.pop_back();
        rob.pop_front();
        assert_eq!(ready_of(&rob), vec![0, 28, 30, 63]);
    }
}
