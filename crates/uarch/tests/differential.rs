//! Differential test of the bitmask speculation-set fast path against the
//! original `Vec<Seq>` reference semantics.
//!
//! [`Simulator::enable_reference_checking`] runs the pre-optimization
//! implementation (per-instruction sorted `Vec<Seq>` shadow / Levioso /
//! taint sets, `resolve_cycle` map) side-by-side with the production
//! bitmask path, asserting set equivalence at every dispatch, forward,
//! resolve, and commit. This file drives that oracle with randomized
//! programs and policies that consult *every* dependency-set flavour, and
//! additionally asserts that a checked run and an unchecked run produce
//! identical statistics and architectural state — i.e. the oracle observes
//! without perturbing.
//!
//! The oracle also keeps the scan-based lookups the core replaced — the
//! binary search of the ROB by sequence number and the full-ROB store scan
//! of a load's memory-ordering check — and asserts that every O(1) ROB
//! handle resolution and every store-queue verdict equals them. Targeted
//! programs below make each store-queue rule (unknown older address,
//! partial overlap, youngest exact match, squash) actually fire under it.
//!
//! A separate test pins the slot-table state bound: speculation bookkeeping
//! is O(ROB), never O(dynamic instructions), which is the leak the old
//! `resolve_cycle: HashMap` had.

use levioso_isa::reg::*;
use levioso_isa::{AluOp, Annotations, BranchCond, DepSet, Instr, Machine, MemWidth, Program, Reg};
use levioso_support::{Gen, Rng};
use levioso_uarch::policy::{Gate, LoadMode, SpecView, SpeculationPolicy, UnsafeBaseline};
use levioso_uarch::{CoreConfig, DynInstr, SimStats, Simulator};

/// Delays transmits on the conservative shadow (execute-delay shape).
#[derive(Debug)]
struct ShadowDelay;

impl SpeculationPolicy for ShadowDelay {
    fn name(&self) -> &'static str {
        "shadow-delay"
    }

    fn may_transmit(&self, instr: &DynInstr, view: &SpecView<'_>) -> Gate {
        if view.any_unresolved(&instr.shadow) {
            Gate::Delay
        } else {
            Gate::Allow
        }
    }
}

/// Delays transmits until every shadowing control instruction *commits*
/// (commit-delay shape; exercises `any_uncommitted` and thus the live
/// control-slot mask).
#[derive(Debug)]
struct CommitShadowDelay;

impl SpeculationPolicy for CommitShadowDelay {
    fn name(&self) -> &'static str {
        "commit-shadow-delay"
    }

    fn may_transmit(&self, instr: &DynInstr, view: &SpecView<'_>) -> Gate {
        if view.any_uncommitted(&instr.shadow) {
            Gate::Delay
        } else {
            Gate::Allow
        }
    }
}

/// Delays transmits with tainted operands (STT shape; exercises taint
/// roots, load-done tracking, and forwarding taint inheritance).
#[derive(Debug)]
struct TaintDelay;

impl SpeculationPolicy for TaintDelay {
    fn name(&self) -> &'static str {
        "taint-delay"
    }

    fn may_transmit(&self, instr: &DynInstr, view: &SpecView<'_>) -> Gate {
        if view.any_taint_active(&instr.taint_roots) {
            Gate::Delay
        } else {
            Gate::Allow
        }
    }
}

/// Levioso shape: delays transmits on the true-dependency set
/// (annotation instances closed over dataflow), and serves speculative
/// loads hit-only while annotation dependencies are pending — together
/// touching `lev_deps`, `ann_deps`, and the hit-only issue path.
#[derive(Debug)]
struct LevDelay;

impl SpeculationPolicy for LevDelay {
    fn name(&self) -> &'static str {
        "lev-delay"
    }

    fn may_transmit(&self, instr: &DynInstr, view: &SpecView<'_>) -> Gate {
        if view.any_unresolved(&instr.lev_deps) {
            Gate::Delay
        } else {
            Gate::Allow
        }
    }

    fn load_mode(&self, instr: &DynInstr, view: &SpecView<'_>) -> LoadMode {
        if view.any_unresolved(&instr.ann_deps) {
            LoadMode::HitOnly
        } else {
            LoadMode::Normal
        }
    }
}

const POOL_BASE: i64 = 0x1000;

fn small_reg(g: &mut Gen) -> Reg {
    if g.bool_any() {
        Reg::new(g.u8_in(10..18))
    } else {
        Reg::new(g.u8_in(5..8))
    }
}

const WIDTHS: [MemWidth; 4] = [MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D];

#[derive(Debug, Clone)]
enum Op {
    Alu(AluOp, Reg, Reg, Reg),
    Imm(AluOp, Reg, Reg, i64),
    Load(MemWidth, bool, Reg, i64),
    Store(MemWidth, Reg, i64),
    FwdBranch(BranchCond, Reg, Reg, u8),
}

fn arb_op(g: &mut Gen) -> Op {
    const ALU: [AluOp; 8] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Xor,
        AluOp::And,
        AluOp::Or,
        AluOp::Mul,
        AluOp::Sltu,
        AluOp::Sra,
    ];
    const BRANCH: [BranchCond; 3] = [BranchCond::Eq, BranchCond::Ne, BranchCond::Lt];
    // Branch-heavier than the LSQ stress mix: speculation sets are the
    // object under test, so keep many of them live at once.
    match g.weighted(&[3, 2, 3, 3, 3]) {
        0 => Op::Alu(*g.pick(&ALU), small_reg(g), small_reg(g), small_reg(g)),
        1 => Op::Imm(*g.pick(&ALU), small_reg(g), small_reg(g), g.i64_in(-64..64)),
        2 => Op::Load(*g.pick(&WIDTHS), g.bool_any(), small_reg(g), g.i64_in(0..40)),
        3 => Op::Store(*g.pick(&WIDTHS), small_reg(g), g.i64_in(0..40)),
        _ => Op::FwdBranch(*g.pick(&BRANCH), small_reg(g), small_reg(g), g.u8_in(1..6)),
    }
}

/// Lowers the op list into a halting program (same shape as the LSQ
/// stress generator: `gp` holds the pool base, branches only skip
/// forward).
fn lower(ops: &[Op]) -> Program {
    let mut instrs: Vec<Instr> =
        vec![Instr::AluImm { op: AluOp::Add, rd: GP, rs1: ZERO, imm: POOL_BASE }];
    let base = instrs.len() as u32;
    let n = ops.len() as u32;
    for (k, op) in ops.iter().enumerate() {
        let at = base + k as u32;
        instrs.push(match *op {
            Op::Alu(op, rd, rs1, rs2) => Instr::Alu { op, rd, rs1, rs2 },
            Op::Imm(op, rd, rs1, imm) => Instr::AluImm { op, rd, rs1, imm },
            Op::Load(width, signed, rd, offset) => {
                Instr::Load { width, signed, rd, base: GP, offset }
            }
            Op::Store(width, src, offset) => Instr::Store { width, src, base: GP, offset },
            Op::FwdBranch(cond, rs1, rs2, skip) => {
                Instr::Branch { cond, rs1, rs2, target: (at + 1 + skip as u32).min(base + n) }
            }
        });
    }
    instrs.push(Instr::Halt);
    Program::new("differential", instrs)
}

/// Random (but well-formed) annotations: exact sets drawn from the actual
/// branch indices, the conservative fallback, or empty. Soundness of the
/// annotations is irrelevant here — policies only *delay*, never change
/// dataflow — so random sets maximize coverage of the ann/lev plumbing.
fn arb_annotations(g: &mut Gen, p: &Program) -> Annotations {
    let branch_idxs: Vec<u32> = p
        .instrs
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i, Instr::Branch { .. }))
        .map(|(k, _)| k as u32)
        .collect();
    let sets = (0..p.instrs.len())
        .map(|_| match g.weighted(&[3, 1, 2]) {
            0 if !branch_idxs.is_empty() => {
                let mut v: Vec<u32> =
                    (0..g.usize_in(1..4)).map(|_| *g.pick(&branch_idxs)).collect();
                v.sort_unstable();
                v.dedup();
                DepSet::Exact(v)
            }
            1 => DepSet::AllOlder,
            _ => DepSet::empty(),
        })
        .collect();
    Annotations::new(sets)
}

fn seed_regs(sim: &mut Simulator, seed: i64) {
    for r in 10..18 {
        sim.set_reg(Reg::new(r), seed.wrapping_mul(r as i64 + 3));
    }
}

/// What the oracle checked during one run.
#[derive(Debug, Clone, Copy, Default)]
struct Checked {
    events: u64,
    lookups: u64,
    /// Load ordering verdicts, `[blocked, forward, memory]`.
    lsq: [u64; 3],
}

fn run_once(
    p: &Program,
    seed: i64,
    policy: &dyn SpeculationPolicy,
    config: &CoreConfig,
    check: bool,
) -> (SimStats, u64, Checked) {
    let mut sim = Simulator::new(p, config.clone());
    if check {
        sim.enable_reference_checking();
    }
    seed_regs(&mut sim, seed);
    let stats =
        sim.run(policy).unwrap_or_else(|e| panic!("{}: {e}\n{}", policy.name(), p.to_asm_string()));
    let checked = Checked {
        events: sim.reference_events_checked(),
        lookups: sim.reference_lookups_checked(),
        lsq: sim.reference_lsq_verdicts(),
    };
    (stats, sim.arch_fingerprint(), checked)
}

levioso_support::props! {
    cases = 64;

    /// The bitmask fast path is equivalent to the Vec-based reference
    /// semantics: the in-simulator oracle asserts per-event set
    /// equivalence, and the checked run's observable results are
    /// bit-identical to the unchecked run's.
    fn bitmask_sets_match_vec_reference(g) {
        let count = g.usize_in(4..60);
        let ops: Vec<Op> = (0..count).map(|_| arb_op(g)).collect();
        let seed = g.i64_in(-1000..1000);
        let mut p = lower(&ops);
        p.annotations = Some(arb_annotations(g, &p));
        g.note("seed", &seed);
        g.note("asm", &p.to_asm_string());
        g.note("annotations", &p.annotations);

        // Architectural cross-check against the reference interpreter.
        let golden = {
            let mut m = Machine::new();
            for r in 10..18 {
                m.set_reg(Reg::new(r), seed.wrapping_mul(r as i64 + 3));
            }
            m.run(&p, 1_000_000).expect("forward-branch programs halt");
            m.arch_fingerprint()
        };

        let default = CoreConfig::default();
        let mut tiny = CoreConfig::default().with_rob_size(16);
        tiny.fetch_width = 2;
        tiny.dispatch_width = 2;
        tiny.issue_width = 2;
        tiny.commit_width = 2;
        tiny.iq_size = 8;
        tiny.alu_count = 1;
        tiny.load_ports = 1;
        tiny.store_ports = 1;

        let policies: [&dyn SpeculationPolicy; 5] =
            [&UnsafeBaseline, &ShadowDelay, &CommitShadowDelay, &TaintDelay, &LevDelay];
        for config in [&default, &tiny] {
            for policy in policies {
                let (plain_stats, plain_fp, _) = run_once(&p, seed, policy, config, false);
                let (ref_stats, ref_fp, checked) = run_once(&p, seed, policy, config, true);
                assert!(checked.events > 0, "{}: oracle observed no events", policy.name());
                assert!(checked.lookups > 0, "{}: oracle checked no ROB lookups", policy.name());
                assert_eq!(plain_fp, golden, "{}: wrong architectural state", policy.name());
                assert_eq!(ref_fp, golden, "{}: oracle perturbed results", policy.name());
                assert_eq!(
                    plain_stats,
                    ref_stats,
                    "{}: oracle perturbed statistics",
                    policy.name()
                );
            }
        }
    }
}

/// Runs `asm` (with `mem` preloaded) under the oracle on the default
/// core, cross-checks the final state against the interpreter, and
/// returns `a0`, the statistics and what the oracle checked.
fn checked_lsq_run(asm: &str, mem: &[(u64, i64)]) -> (i64, SimStats, Checked) {
    let p = levioso_isa::assemble("lsq", asm).expect("assembles");
    let mut machine = Machine::new();
    let mut sim = Simulator::new(&p, CoreConfig::default());
    sim.enable_reference_checking();
    for &(a, v) in mem {
        machine.mem.write_i64(a, v);
        sim.mem.write_i64(a, v);
    }
    machine.run(&p, 1_000_000).expect("interpreter halts");
    let stats = sim.run(&UnsafeBaseline).expect("simulator halts");
    assert_eq!(sim.arch_fingerprint(), machine.arch_fingerprint(), "architectural state");
    let checked = Checked {
        events: sim.reference_events_checked(),
        lookups: sim.reference_lookups_checked(),
        lsq: sim.reference_lsq_verdicts(),
    };
    (sim.reg(A0), stats, checked)
}

/// A store whose address waits on a cache miss blocks a younger load to
/// an unrelated address until the address is known.
#[test]
fn store_queue_unknown_older_address_blocks() {
    let (a0, _, checked) = checked_lsq_run(
        r"
        li   a2, 0x300000
        li   a3, 0x200000
        li   t1, 5
        ld   t0, 0(a2)
        sd   t1, 0(t0)
        ld   a0, 8(a3)
        halt
    ",
        &[(0x30_0000, 0x20_0000), (0x20_0008, 7)],
    );
    assert_eq!(a0, 7);
    let [blocked, _, memory] = checked.lsq;
    assert!(blocked > 0, "the load never waited on the unknown address: {checked:?}");
    assert!(memory > 0, "the load never read memory: {checked:?}");
}

/// A load inside a wider older store waits for the store to drain.
#[test]
fn store_queue_partial_overlap_blocks() {
    let (a0, _, checked) = checked_lsq_run(
        r"
        li   a1, 0x200000
        li   t1, 0x1122334455667788
        sd   t1, 0(a1)
        lw   a0, 4(a1)
        halt
    ",
        &[],
    );
    assert_eq!(a0, 0x1122_3344);
    let [blocked, forward, memory] = checked.lsq;
    assert!(blocked > 0 && memory > 0, "expected block then memory read: {checked:?}");
    assert_eq!(forward, 0, "a partial overlap never forwards: {checked:?}");
}

/// Of two older exact matches, the younger store forwards. A cache miss
/// at the ROB head keeps both stores from committing, so the load sees
/// both.
#[test]
fn store_queue_youngest_exact_match_forwards() {
    let (a0, _, checked) = checked_lsq_run(
        r"
        li   a1, 0x200000
        li   a2, 0x300000
        li   t1, 5
        li   t2, 9
        ld   t3, 0(a2)
        sd   t1, 0(a1)
        sd   t2, 0(a1)
        ld   a0, 0(a1)
        halt
    ",
        &[],
    );
    assert_eq!(a0, 9);
    assert!(checked.lsq[1] > 0, "the load never forwarded: {checked:?}");
}

/// A wrong-path store forwards to a wrong-path load, then the squash
/// drops it: the correct-path load reads memory.
#[test]
fn store_queue_squash_drops_younger_stores() {
    let (a0, stats, checked) = checked_lsq_run(
        r"
        li   a1, 0x200000
        li   a2, 0x300000
        li   t5, 99
        ld   t0, 0(a2)
        bnez t0, skip
        sd   t5, 0(a1)
        ld   t6, 0(a1)
    skip:
        ld   a0, 0(a1)
        halt
    ",
        &[(0x30_0000, 1), (0x20_0000, 3)],
    );
    assert_eq!(a0, 3, "the squashed store must not reach the correct path");
    assert!(stats.mispredicts > 0 && stats.squashed > 0, "the branch must mispredict");
    let [_, forward, memory] = checked.lsq;
    assert!(forward > 0, "the wrong-path load never forwarded: {checked:?}");
    assert!(memory > 0, "the correct-path load never read memory: {checked:?}");
}

/// Speculation bookkeeping stays O(ROB): a branch-and-load-heavy loop
/// retires orders of magnitude more instructions than the ROB holds, yet
/// the slot table's high-water mark never exceeds its fixed 2×ROB
/// capacity (the old `resolve_cycle: HashMap<Seq, u64>` grew with every
/// control instruction ever dispatched).
#[test]
fn speculation_state_is_bounded_by_rob_size() {
    let p = levioso_isa::assemble(
        "looped",
        r"
        li   t0, 3000
        li   a1, 0x100000
    loop:
        ld   t1, 0(a1)
        bnez t1, skip
        addi a2, a2, 1
    skip:
        ld   t2, 8(a1)
        beqz t2, over
        addi a3, a3, 1
    over:
        addi t0, t0, -1
        bnez t0, loop
        halt
    ",
    )
    .expect("assembles");
    let config = CoreConfig::default();
    let rob = config.rob_size;
    let mut sim = Simulator::new(&p, config);
    sim.mem.write_i64(0x10_0000, 1);
    let stats = sim.run(&LevDelay).expect("runs");
    assert!(
        stats.committed as usize > 20 * rob,
        "loop must retire far more than one ROB of instructions (got {})",
        stats.committed
    );
    let (watermark, capacity) = sim.spec_slot_watermark();
    assert_eq!(capacity, 2 * rob);
    assert!(watermark <= capacity, "slot watermark {watermark} exceeded capacity {capacity}");
    assert!(watermark > 0, "the loop speculates, so slots must have been used");
}
