//! Integration tests for the out-of-order core: architectural equivalence
//! with the reference interpreter, timing sanity, and — crucially — the
//! transient-execution side-effect substrate the security study rests on.

use levioso_isa::{assemble, reg::*, Machine, Program};
use levioso_uarch::{CoreConfig, SimError, Simulator, UnsafeBaseline};

/// Runs `program` on both the interpreter and the simulator (same initial
/// memory image) and asserts identical final architectural state.
fn assert_equivalent(program: &Program, init_mem: &[(u64, i64)]) -> levioso_uarch::SimStats {
    let mut machine = Machine::new();
    for &(a, v) in init_mem {
        machine.mem.write_i64(a, v);
    }
    machine.run(program, 50_000_000).expect("interpreter run");

    let mut sim = Simulator::new(program, CoreConfig::default());
    for &(a, v) in init_mem {
        sim.mem.write_i64(a, v);
    }
    let stats = sim.run(&UnsafeBaseline).expect("simulator run");

    for r in levioso_isa::Reg::all() {
        assert_eq!(sim.reg(r), machine.reg(r), "register {r} differs");
    }
    assert_eq!(
        sim.arch_fingerprint(),
        machine.arch_fingerprint(),
        "architectural state fingerprint differs"
    );
    assert_eq!(stats.committed, machine.retired(), "retired instruction count differs");
    stats
}

#[test]
fn straight_line_equivalence() {
    let p = assemble(
        "t",
        r"
        li   a0, 7
        li   a1, 9
        mul  a2, a0, a1
        div  a3, a2, a0
        rem  a4, a2, a1
        sub  a5, a2, a3
        halt
    ",
    )
    .unwrap();
    assert_equivalent(&p, &[]);
}

#[test]
fn loop_equivalence_and_ipc() {
    let p = assemble(
        "t",
        r"
        li   a0, 1000
        li   a1, 0
    loop:
        add  a1, a1, a0
        addi a0, a0, -1
        bnez a0, loop
        halt
    ",
    )
    .unwrap();
    let stats = assert_equivalent(&p, &[]);
    // A predictable loop on an 8-wide core must exceed 1 IPC comfortably.
    assert!(stats.ipc() > 1.0, "ipc {} too low for a trivial loop", stats.ipc());
    assert!(stats.mispredicts <= 24, "trivial loop should mispredict only during gshare warmup");
}

#[test]
fn memory_and_forwarding_equivalence() {
    let p = assemble(
        "t",
        r"
        li   t0, 0x1000
        li   t1, -123
        sd   t1, 0(t0)      # store then immediately load back: forwarding
        ld   t2, 0(t0)
        sb   t1, 64(t0)     # byte store
        lbu  t3, 64(t0)
        lb   t4, 64(t0)
        sw   t2, 128(t0)    # partial-overlap pattern: word store, byte load
        lb   t5, 129(t0)
        halt
    ",
    )
    .unwrap();
    assert_equivalent(&p, &[]);
}

#[test]
fn data_dependent_branches_equivalence() {
    // Branch outcomes depend on loaded data: exercises misprediction,
    // squash, and RAT recovery.
    let data: Vec<(u64, i64)> =
        (0..64).map(|i| (0x2000 + 8 * i, ((i * 2654435761u64) % 97) as i64 - 48)).collect();
    let p = assemble(
        "t",
        r"
        li   a0, 0x2000
        li   a1, 64
        li   a2, 0          # positives
        li   a3, 0          # sum of positives
    loop:
        ld   t0, 0(a0)
        blez t0, skip
        addi a2, a2, 1
        add  a3, a3, t0
    skip:
        addi a0, a0, 8
        addi a1, a1, -1
        bnez a1, loop
        halt
    ",
    )
    .unwrap();
    let stats = assert_equivalent(&p, &data);
    assert!(stats.mispredicts > 0, "pseudo-random filter must mispredict sometimes");
    assert!(stats.squashed > 0);
}

#[test]
fn call_ret_equivalence() {
    let p = assemble(
        "t",
        r"
        li   a0, 3
        li   a1, 0
    loop:
        call bump
        addi a0, a0, -1
        bnez a0, loop
        halt
    bump:
        addi a1, a1, 10
        ret
    ",
    )
    .unwrap();
    let stats = assert_equivalent(&p, &[]);
    // RAS should make the returns essentially free.
    assert!(stats.mispredicts <= 4, "returns should be RAS-predicted");
}

#[test]
fn indirect_jump_with_no_prediction_stalls_but_completes() {
    let p = assemble(
        "t",
        r"
        li   t0, 4       # absolute instruction index of `target`
        jr   t0
        halt             # skipped
        halt             # skipped
    target:
        li   a0, 99
        halt
    ",
    )
    .unwrap();
    assert_equivalent(&p, &[]);
}

#[test]
fn rdcycle_measures_load_latency() {
    // fence; t0=rdcycle; ld; t1=rdcycle — the delta must reflect a DRAM
    // miss the first time and an L1 hit the second time.
    let p = assemble(
        "t",
        r"
        li   a1, 0x8000
        rdcycle t0
        ld   a2, 0(a1)
        rdcycle t1
        ld   a3, 0(a1)
        rdcycle t2
        sub  a4, t1, t0    # cold latency
        sub  a5, t2, t1    # warm latency
        halt
    ",
    )
    .unwrap();
    let mut sim = Simulator::new(&p, CoreConfig::default());
    sim.run(&UnsafeBaseline).unwrap();
    let cold = sim.reg(A4);
    let warm = sim.reg(A5);
    assert!(cold > 100, "cold access should pay DRAM latency, measured {cold}");
    assert!(warm < 20, "warm access should be an L1 hit, measured {warm}");
    assert!(cold > warm + 50, "cold {cold} vs warm {warm} must be clearly separable");
}

#[test]
fn transient_wrong_path_load_fills_cache() {
    // The Spectre substrate: a load on the mispredicted path is squashed
    // but its cache fill persists.
    const COND: u64 = 0x10_0000;
    const PROBE: u64 = 0x20_0000;
    let p = assemble(
        "t",
        r"
        li   a1, 0x100000
        li   a2, 0x200000
        ld   t0, 0(a1)       # slow (cold) condition load
        bnez t0, skip        # predicted not-taken (cold counters), actually taken
        ld   t3, 0(a2)       # transient: never commits
    skip:
        halt
    ",
    )
    .unwrap();
    let mut sim = Simulator::new(&p, CoreConfig::default());
    sim.mem.write_i64(COND, 1); // branch is actually taken
    sim.run(&UnsafeBaseline).unwrap();
    assert_eq!(sim.reg(T3), 0, "transient load never updates architectural state");
    assert!(sim.stats().mispredicts >= 1);
    assert!(
        sim.hierarchy().contains(PROBE),
        "squashed load's cache fill must persist (this is the side channel)"
    );

    // Control run: when the branch is correctly predicted not-taken and
    // actually not taken, the load commits and also fills the cache.
    let mut sim2 = Simulator::new(&p, CoreConfig::default());
    sim2.mem.write_i64(COND, 0);
    sim2.run(&UnsafeBaseline).unwrap();
    assert!(sim2.hierarchy().contains(PROBE));
}

#[test]
fn flush_evicts_line() {
    let p = assemble(
        "t",
        r"
        li   a1, 0x8000
        ld   a2, 0(a1)     # fill
        fence
        flush 0(a1)
        fence
        rdcycle t0
        ld   a3, 0(a1)     # must miss again
        rdcycle t1
        sub  a4, t1, t0
        halt
    ",
    )
    .unwrap();
    let mut sim = Simulator::new(&p, CoreConfig::default());
    sim.run(&UnsafeBaseline).unwrap();
    assert!(sim.reg(A4) > 100, "flushed line must re-miss, measured {}", sim.reg(A4));
}

#[test]
fn missing_halt_is_an_error() {
    let p = assemble("t", "li a0, 1\nli a1, 2").unwrap();
    let mut sim = Simulator::new(&p, CoreConfig::default());
    assert!(matches!(sim.run(&UnsafeBaseline), Err(SimError::PcOutOfRange { .. })));
}

#[test]
fn infinite_loop_hits_cycle_limit() {
    let p = assemble("t", "x: j x\nhalt").unwrap();
    let config = CoreConfig { max_cycles: 10_000, ..CoreConfig::default() };
    let mut sim = Simulator::new(&p, config);
    assert_eq!(sim.run(&UnsafeBaseline), Err(SimError::CycleLimit { max_cycles: 10_000 }));
}

#[test]
fn out_of_range_rob_is_a_named_error() {
    let p = assemble("t", "li a0, 1\nhalt").unwrap();
    // Too large for the speculation masks (construction used to panic),
    // and empty (the front end used to spin to the cycle limit).
    for rob in [levioso_uarch::MAX_ROB_SIZE + 1, 0] {
        let mut sim = Simulator::new(&p, CoreConfig::default().with_rob_size(rob));
        let err = sim.run(&UnsafeBaseline).unwrap_err();
        assert_eq!(err, SimError::Config(levioso_uarch::ConfigError::RobSize { rob_size: rob }));
        assert_eq!(sim.stats().cycles, 0, "nothing is simulated");
    }
}

#[test]
fn small_rob_still_correct() {
    let mut config = CoreConfig::default().with_rob_size(16);
    config.iq_size = 8;
    let p = assemble(
        "t",
        r"
        li   a0, 200
        li   a1, 0
        li   a2, 0x4000
    loop:
        sd   a1, 0(a2)
        ld   t0, 0(a2)
        add  a1, t0, a0
        addi a0, a0, -1
        bnez a0, loop
        halt
    ",
    )
    .unwrap();
    let mut machine = Machine::new();
    machine.run(&p, 1_000_000).unwrap();
    let mut sim = Simulator::new(&p, config);
    sim.run(&UnsafeBaseline).unwrap();
    assert_eq!(sim.arch_fingerprint(), machine.arch_fingerprint());
}

#[test]
fn mlp_is_exploited_for_independent_loads() {
    // Eight independent cold loads should overlap (memory-level
    // parallelism), taking far less than 8 × DRAM latency.
    let p = assemble(
        "t",
        r"
        li   a1, 0x100000
        rdcycle t0
        ld   a2, 0(a1)
        ld   a3, 4096(a1)
        ld   a4, 8192(a1)
        ld   a5, 12288(a1)
        ld   a6, 16384(a1)
        ld   a7, 20480(a1)
        ld   s2, 24576(a1)
        ld   s3, 28672(a1)
        rdcycle t1
        sub  s4, t1, t0
        halt
    ",
    )
    .unwrap();
    let mut sim = Simulator::new(&p, CoreConfig::default());
    sim.run(&UnsafeBaseline).unwrap();
    let elapsed = sim.reg(S4);
    assert!(elapsed < 2 * 138, "8 independent misses must overlap; measured {elapsed} cycles");
}

#[test]
fn dependent_loads_serialize() {
    // A pointer chase cannot overlap: each load's address depends on the
    // previous load's value.
    const BASE: u64 = 0x30_0000;
    let p = assemble(
        "t",
        r"
        li   a1, 0x300000
        rdcycle t0
        ld   a1, 0(a1)
        ld   a1, 0(a1)
        ld   a1, 0(a1)
        ld   a1, 0(a1)
        rdcycle t1
        sub  a2, t1, t0
        halt
    ",
    )
    .unwrap();
    let mut sim = Simulator::new(&p, CoreConfig::default());
    // Each node points to the next, 1 MiB apart (always cold).
    for i in 0..4u64 {
        sim.mem.write_i64(BASE + i * 0x10_0000, (BASE + (i + 1) * 0x10_0000) as i64);
    }
    sim.run(&UnsafeBaseline).unwrap();
    let elapsed = sim.reg(A2);
    assert!(elapsed > 4 * 138 - 20, "dependent misses must serialize; measured {elapsed}");
}

#[test]
fn mshr_limit_bounds_memory_level_parallelism() {
    // With a single MSHR, eight independent cold loads serialize; the
    // default 16 MSHRs let them overlap. Same program, same data — only
    // the structural limit changes.
    let p = assemble(
        "t",
        r"
        li   a1, 0x100000
        rdcycle t0
        ld   a2, 0(a1)
        ld   a3, 4096(a1)
        ld   a4, 8192(a1)
        ld   a5, 12288(a1)
        ld   a6, 16384(a1)
        ld   a7, 20480(a1)
        ld   s2, 24576(a1)
        ld   s3, 28672(a1)
        rdcycle t1
        sub  s4, t1, t0
        halt
    ",
    )
    .unwrap();
    let run = |mshrs: usize| {
        let config = CoreConfig { mshr_count: mshrs, ..CoreConfig::default() };
        let mut sim = Simulator::new(&p, config);
        sim.run(&UnsafeBaseline).unwrap();
        sim.reg(S4)
    };
    let parallel = run(16);
    let serial = run(1);
    assert!(parallel < 2 * 138, "16 MSHRs: misses overlap ({parallel})");
    assert!(serial > 8 * 120, "1 MSHR: misses serialize ({serial})");
}
