//! Differential-checking oracle: the original `Vec<Seq>`/`BTreeMap`
//! implementation of the speculation-tracking sets, run side-by-side with
//! the [`crate::specmask`] bitmask path.
//!
//! Enabled by [`crate::Simulator::enable_reference_checking`] (tests only;
//! the hooks are no-ops when disabled). At every dispatch, store-to-load
//! forward, and commit the oracle recomputes what the scan-based
//! implementation would have produced and asserts the mask path agrees:
//!
//! * `shadow` and `ann_deps` must match the reference **exactly**;
//! * `lev_deps` may drop dependencies that had already *resolved* at a
//!   store-forwarding merge (their wait contribution moves to the
//!   `fwd_true_wait` scalar), so the mask set must be a subset of the
//!   reference with every dropped element resolved, and must agree exactly
//!   on the still-unresolved part — the part every policy predicate reads;
//! * `taint_roots` may drop roots that are no longer live loads (a dead
//!   root is permanently inactive), so the mask set must be a subset with
//!   every dropped element dead, and the STT activity *verdict* must agree;
//! * at commit, the F1 wait statistics (`shadow`/`true` wait cycles)
//!   computed from per-slot resolve cycles must equal the reference values
//!   computed from the unbounded seq-keyed map.
//!
//! It also keeps the scan-based versions of the core's two O(1) lookup
//! paths and asserts that they agree on every call:
//!
//! * every [`crate::dyninstr::RobRef`] resolution must find the entry a
//!   binary search of the ROB by sequence number finds;
//! * every load's store-queue ordering verdict must equal the full-ROB
//!   scan over all older entries.

use crate::core::LsqVerdict;
use crate::dyninstr::{DynInstr, Seq};
use crate::policy::SpecView;
use crate::rob::Rob;
use crate::specmask::SlotTable;
use levioso_isa::{DepSet, Instr, MemWidth};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};

/// Reference (old-implementation) per-instruction sets.
#[derive(Debug, Clone)]
struct RefInstr {
    shadow: Vec<Seq>,
    lev_deps: Vec<Seq>,
    taint_roots: Vec<Seq>,
    is_load: bool,
    done: bool,
}

/// The oracle state: exactly the maps the scan-based simulator kept.
#[derive(Debug, Default)]
pub(crate) struct RefSets {
    /// Unresolved control instructions: seq → (pc, is_indirect).
    unresolved: BTreeMap<Seq, (u32, bool)>,
    /// Resolution cycles, never pruned (the unbounded map the slot table
    /// replaces — fine for an oracle that only lives in tests).
    resolve_cycle: HashMap<Seq, u64>,
    /// Reference sets for every in-flight instruction.
    instrs: BTreeMap<Seq, RefInstr>,
    /// Number of equivalence assertions evaluated.
    pub(crate) events_checked: u64,
    /// Number of ROB-handle resolutions checked against the binary search.
    pub(crate) lookups_checked: Cell<u64>,
    /// Load ordering verdicts checked against the full-ROB scan, by kind:
    /// `[blocked, forward, memory]`.
    pub(crate) lsq_checked: Cell<[u64; 3]>,
}

/// The pre-handle ROB lookup: a binary search by sequence number (the
/// ROB is ascending in `seq` but has gaps where squashes were).
fn reference_rob_index(rob: &Rob, seq: Seq) -> Option<usize> {
    let (mut lo, mut hi) = (0, rob.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if rob[mid].seq < seq {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (lo < rob.len() && rob[lo].seq == seq).then_some(lo)
}

/// The pre-store-queue memory-ordering check: walks every ROB entry older
/// than the load at `idx`.
fn reference_lsq_check(rob: &Rob, idx: usize, addr: u64, width: MemWidth) -> LsqVerdict {
    let lo = addr;
    let hi = addr.wrapping_add(width.bytes());
    let mut forward: Option<usize> = None;
    for j in 0..idx {
        let s = &rob[j];
        let Instr::Store { width: sw, .. } = s.instr else { continue };
        let Some(sa) = s.mem_addr else {
            return LsqVerdict::Blocked; // unknown older store address
        };
        let s_hi = sa.wrapping_add(sw.bytes());
        if !(sa < hi && lo < s_hi) {
            continue;
        }
        if sa == addr && sw.bytes() == width.bytes() {
            forward = Some(j); // youngest exact match wins
        } else {
            return LsqVerdict::Blocked; // partial overlap
        }
    }
    match forward {
        Some(j) if rob[j].srcs[1].state.value().is_some() => LsqVerdict::Forward(j),
        Some(_) => LsqVerdict::Blocked, // data not yet available
        None => LsqVerdict::Memory,
    }
}

/// Merges sorted `extra` into sorted `dst`, deduplicating (the old
/// implementation's set-union primitive).
fn merge_sorted(dst: &mut Vec<Seq>, extra: &[Seq]) {
    if extra.is_empty() {
        return;
    }
    dst.extend_from_slice(extra);
    dst.sort_unstable();
    dst.dedup();
}

impl RefSets {
    pub(crate) fn new() -> Self {
        RefSets::default()
    }

    /// Checks one handle resolution: `found` (the core's O(1) answer for
    /// the entry `seq`) must equal the binary search's.
    pub(crate) fn check_lookup(&self, rob: &Rob, seq: Seq, found: Option<usize>) {
        let expected = reference_rob_index(rob, seq);
        assert_eq!(found, expected, "ROB lookup of seq={seq} diverged from the binary search");
        self.lookups_checked.set(self.lookups_checked.get() + 1);
    }

    /// Checks one load ordering verdict: the store-queue `verdict` for the
    /// load at ROB index `idx` must equal the full-ROB scan's.
    pub(crate) fn check_lsq(
        &self,
        rob: &Rob,
        idx: usize,
        addr: u64,
        width: MemWidth,
        verdict: LsqVerdict,
    ) {
        let expected = reference_lsq_check(rob, idx, addr, width);
        assert_eq!(
            verdict, expected,
            "load seq={} at {addr:#x}: store-queue verdict diverged from the full-ROB scan",
            rob[idx].seq
        );
        let mut counts = self.lsq_checked.get();
        counts[match verdict {
            LsqVerdict::Blocked => 0,
            LsqVerdict::Forward(_) => 1,
            LsqVerdict::Memory => 2,
        }] += 1;
        self.lsq_checked.set(counts);
    }

    /// Old STT root-activity predicate: a root is active while it is still
    /// in flight and either has not executed or is itself shadowed by an
    /// unresolved control instruction.
    fn taint_active(&self, root: Seq) -> bool {
        match self.instrs.get(&root) {
            Some(i) => !i.done || i.shadow.iter().any(|s| self.unresolved.contains_key(s)),
            None => false,
        }
    }

    fn assert_taint_equivalent(
        &self,
        what: &str,
        e: &DynInstr,
        ref_taint: &[Seq],
        slots: &SlotTable,
        view: &SpecView<'_>,
    ) {
        let mask_taint = slots.mask_seqs(&e.taint_roots);
        for s in &mask_taint {
            assert!(
                ref_taint.contains(s),
                "{what} seq={}: mask taint root {s} missing from reference {ref_taint:?}",
                e.seq
            );
        }
        for s in ref_taint {
            if !mask_taint.contains(s) {
                let live_load = self.instrs.get(s).is_some_and(|i| i.is_load);
                assert!(
                    !live_load,
                    "{what} seq={}: mask dropped taint root {s} which is still a live load",
                    e.seq
                );
            }
        }
        let ref_active = ref_taint.iter().any(|&r| self.taint_active(r));
        let mask_active = view.any_taint_active(&e.taint_roots);
        assert_eq!(
            ref_active, mask_active,
            "{what} seq={}: STT activity verdict diverged (ref {ref_taint:?}, mask {mask_taint:?})",
            e.seq
        );
    }

    fn assert_lev_equivalent(&self, what: &str, e: &DynInstr, ref_lev: &[Seq], slots: &SlotTable) {
        let mask_lev = slots.mask_seqs(&e.lev_deps);
        for s in &mask_lev {
            assert!(
                ref_lev.contains(s),
                "{what} seq={}: mask lev dep {s} missing from reference {ref_lev:?}",
                e.seq
            );
        }
        for s in ref_lev {
            let unresolved = self.unresolved.contains_key(s);
            if mask_lev.contains(s) {
                continue;
            }
            assert!(
                !unresolved,
                "{what} seq={}: mask dropped lev dep {s} which is still unresolved",
                e.seq
            );
            assert!(
                self.resolve_cycle.contains_key(s) || !self.instrs.contains_key(s),
                "{what} seq={}: dropped lev dep {s} neither resolved nor retired",
                e.seq
            );
        }
        // The policy-visible (unresolved) part must match exactly.
        let ref_hot: Vec<Seq> =
            ref_lev.iter().copied().filter(|s| self.unresolved.contains_key(s)).collect();
        let mask_hot: Vec<Seq> =
            mask_lev.iter().copied().filter(|s| self.unresolved.contains_key(s)).collect();
        assert_eq!(ref_hot, mask_hot, "{what} seq={}: unresolved lev deps diverged", e.seq);
    }

    /// Called after an instruction is renamed (its sets are final for
    /// dispatch). `ann` is the program's static annotation for this pc and
    /// `inherit` the producers each operand renamed through.
    pub(crate) fn on_dispatch(
        &mut self,
        e: &DynInstr,
        ann: Option<&DepSet>,
        inherit: &[Option<Seq>; 2],
        slots: &SlotTable,
        view: &SpecView<'_>,
    ) {
        // Recompute the sets the way the old implementation did.
        let shadow: Vec<Seq> = self.unresolved.keys().copied().collect();
        let ann_deps: Vec<Seq> = match ann {
            Some(DepSet::Exact(static_deps)) => self
                .unresolved
                .iter()
                .filter(|(_, &(pc, indirect))| indirect || static_deps.binary_search(&pc).is_ok())
                .map(|(&s, _)| s)
                .collect(),
            Some(DepSet::AllOlder) | None => shadow.clone(),
        };
        let mut lev_deps = ann_deps.clone();
        let mut taint_roots: Vec<Seq> = Vec::new();
        for p in inherit.iter().flatten() {
            let prod = self.instrs.get(p).expect("renamed producer is in flight");
            let lev: Vec<Seq> =
                prod.lev_deps.iter().copied().filter(|s| self.unresolved.contains_key(s)).collect();
            let prod_taint = prod.taint_roots.clone();
            let prod_is_load = prod.is_load;
            merge_sorted(&mut lev_deps, &lev);
            merge_sorted(&mut taint_roots, &prod_taint);
            if prod_is_load {
                merge_sorted(&mut taint_roots, &[*p]);
            }
        }

        assert_eq!(shadow, slots.mask_seqs(&e.shadow), "dispatch seq={}: shadow diverged", e.seq);
        assert_eq!(
            ann_deps,
            slots.mask_seqs(&e.ann_deps),
            "dispatch seq={}: ann_deps diverged",
            e.seq
        );
        // At rename both paths filter inherited deps by unresolved-ness, so
        // the full sets still agree exactly (divergence only begins at
        // store-forwarding merges).
        self.assert_lev_equivalent("dispatch", e, &lev_deps, slots);
        assert_eq!(
            lev_deps,
            slots.mask_seqs(&e.lev_deps),
            "dispatch seq={}: lev_deps diverged",
            e.seq
        );
        self.assert_taint_equivalent("dispatch", e, &taint_roots, slots, view);
        self.events_checked += 1;

        self.instrs.insert(
            e.seq,
            RefInstr { shadow, lev_deps, taint_roots, is_load: e.instr.is_load(), done: false },
        );
        if e.is_spec_source() {
            self.unresolved.insert(e.seq, (e.pc, e.instr.is_indirect()));
        }
    }

    /// Called after a store-to-load forward merged the store's sets into
    /// the load's.
    pub(crate) fn on_forward(
        &mut self,
        load_seq: Seq,
        store_seq: Seq,
        e: &DynInstr,
        slots: &SlotTable,
        view: &SpecView<'_>,
    ) {
        let (s_lev, s_taint) = {
            let s = self.instrs.get(&store_seq).expect("forwarding store is in flight");
            (s.lev_deps.clone(), s.taint_roots.clone())
        };
        let (ref_lev, ref_taint) = {
            let l = self.instrs.get_mut(&load_seq).expect("forwarded load is in flight");
            merge_sorted(&mut l.lev_deps, &s_lev);
            merge_sorted(&mut l.taint_roots, &s_taint);
            (l.lev_deps.clone(), l.taint_roots.clone())
        };
        self.assert_lev_equivalent("forward", e, &ref_lev, slots);
        self.assert_taint_equivalent("forward", e, &ref_taint, slots, view);
        self.events_checked += 1;
    }

    /// Called when a control instruction resolves.
    pub(crate) fn on_resolve(&mut self, seq: Seq, cycle: u64) {
        self.unresolved.remove(&seq);
        self.resolve_cycle.insert(seq, cycle);
    }

    /// Called when a load finishes executing.
    pub(crate) fn on_load_done(&mut self, seq: Seq) {
        if let Some(i) = self.instrs.get_mut(&seq) {
            i.done = true;
        }
    }

    /// Called after the core squashed everything younger than `seq`.
    pub(crate) fn on_squash_younger(&mut self, seq: Seq) {
        let _ = self.instrs.split_off(&(seq + 1));
        let _ = self.unresolved.split_off(&(seq + 1));
    }

    /// Called at commit, with the slot-table F1 wait statistics the core
    /// computed (`None` when the instruction never became operand-ready).
    pub(crate) fn on_commit(&mut self, e: &DynInstr, waits: Option<(u64, u64)>) {
        if let Some((sw, tw)) = waits {
            let ready = e.first_ready_cycle.expect("waits imply readiness");
            let i = self.instrs.get(&e.seq).expect("committing instruction is tracked");
            let wait = |deps: &[Seq]| {
                deps.iter()
                    .filter_map(|s| self.resolve_cycle.get(s))
                    .map(|&r| r.saturating_sub(ready))
                    .max()
                    .unwrap_or(0)
            };
            let ref_sw = wait(&i.shadow);
            let ref_tw = wait(&i.lev_deps);
            assert_eq!(ref_sw, sw, "commit seq={}: shadow wait cycles diverged", e.seq);
            assert_eq!(
                ref_tw, tw,
                "commit seq={}: true wait cycles diverged (fwd_true_wait={})",
                e.seq, e.fwd_true_wait
            );
            self.events_checked += 1;
        }
        self.instrs.remove(&e.seq);
    }
}
