//! Allocation budget of the kernel's walks: heap allocations of a whole
//! check against a bound logarithmic in its transitions, counted — never
//! timed — by a counting global allocator, so the numbers repeat exactly on
//! any host. `Engine::Undo` allocates only
//! while its tables grow; `Engine::Dpor` recycles its frame buffers and
//! keeps its dominance table flat, which leaves growth too (the walk this
//! replaced made ≈ 9.5 allocations per transition on these cells). The
//! same allocator tracks live bytes, which bounds what building and running
//! a 256- or 1024-process instance may cost.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use modelcheck::{check, CheckConfig, Engine};
use simlocks::{build_mutex, build_ordering, run_to_completion, FenceMask, LockKind, ObjectKind};
use wbmem::{MemoryModel, ProcId, SoloOutcome};

thread_local! {
    /// Allocations made by this thread (tests run on threads of their
    /// own, and the sequential engines on their caller's).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not yet freed, and the highest
    /// that figure has been.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let live = LIVE.with(|l| {
        l.set(l.get() + bytes);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

fn shrank(bytes: usize) {
    // Saturating: a block freed here may have been allocated by the
    // harness thread that spawned the test.
    LIVE.with(|l| l.set(l.get().saturating_sub(bytes)));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is arithmetic on
// const-initialised, destructor-free thread-local `Cell`s, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        grew(layout.size());
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        shrank(layout.size());
        grew(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Assert that one full PSO mutex check of `lock` at `n` processes under
/// `engine` makes at most `a`·log₂(transitions) + `b` allocations: a walk
/// allocates to double its tables, so the count grows with the logarithm
/// of the walk. An absolute budget, because a ratio to the transition
/// count rises whenever a sharper reduction shrinks the walk.
fn assert_allocates_only_to_grow(
    label: &str,
    (lock, n): (LockKind, usize),
    engine: Engine,
    (a, b): (u64, u64),
) {
    let machine = build_mutex(lock, n, FenceMask::ALL).machine(MemoryModel::Pso);
    let config = CheckConfig {
        check_termination: false,
        max_states: 1_000_000,
        ..CheckConfig::default()
    }
    .with_engine(engine);
    let before = ALLOCATIONS.with(Cell::get);
    let verdict = check(&machine, &config);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert!(verdict.is_ok(), "{}", verdict.label());
    let transitions = verdict.stats().transitions;
    let budget = a * u64::from(transitions.ilog2()) + b;
    println!("{label}: {allocations} allocations over {transitions} transitions");
    assert!(
        allocations <= budget,
        "{label}: {allocations} allocations over {transitions} transitions, budget {budget}"
    );
}

#[test]
fn the_exhaustive_walk_allocates_only_to_grow_its_tables() {
    // Recorded: 92 allocations over 34 500 transitions — about six tables
    // (visited set, arena, stack, trail, …) doubling fifteen times.
    assert_allocates_only_to_grow("ttas4_pso undo", (LockKind::Ttas, 4), Engine::Undo, (8, 0));
}

#[test]
fn the_oracle_allocates_about_once_per_state() {
    // The oracle clones a machine per transition, into a spent one it
    // keeps for reuse, and allocates a choice vector per state: about one
    // allocation per state (10 090 over 9 796 states when recorded). It
    // made 157 400 when every transition cloned a fresh machine.
    let machine = build_mutex(LockKind::Ttas, 4, FenceMask::ALL).machine(MemoryModel::Pso);
    let config = CheckConfig {
        check_termination: false,
        max_states: 1_000_000,
        ..CheckConfig::default()
    }
    .with_engine(Engine::CloneDfs);
    let before = ALLOCATIONS.with(Cell::get);
    let verdict = check(&machine, &config);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert!(verdict.is_ok(), "{}", verdict.label());
    let states = verdict.stats().states as u64;
    println!("ttas4_pso clone_dfs: {allocations} allocations over {states} states");
    assert!(
        allocations * 2 <= states * 3,
        "ttas4_pso clone_dfs: {allocations} allocations over {states} states"
    );
}

#[test]
fn the_reduced_walk_stays_within_its_allocation_budget() {
    // Recorded at the commit that stopped ample sets falling back for a
    // return: gt_f23 1 493 allocations over 26 830 transitions, tournament4
    // 1 053 over 72 573. `b` pays for what the reduction adds per DFS
    // depth rather than per doubling: a frame's three small buffers, sized
    // once and recycled from then on.
    let dpor = Engine::Dpor {
        reorder_bound: None,
    };
    for (label, cell) in [
        ("gt_f23_pso dpor", (LockKind::Gt { f: 2 }, 3)),
        ("tournament4_pso dpor", (LockKind::Tournament, 4)),
    ] {
        assert_allocates_only_to_grow(label, cell, dpor, (32, 1400));
    }
}

/// Peak live heap bytes above the caller's of whatever `run` builds and
/// drops.
fn peak_live_bytes(run: impl FnOnce()) -> usize {
    let live_before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live_before));
    run();
    PEAK.with(Cell::get) - live_before
}

/// Peak live heap bytes of `benchmark/`'s `gt_f2_256.contended` cell —
/// build the 256-process counter, round-robin it to completion under PSO —
/// recorded with this allocator at the commit that stopped `assemble()`
/// from building access summaries (10 644 736 at its parent: 256 programs
/// × two per-pc tables of register bitsets that no unreduced run reads).
const GT_F2_256_PEAK_BYTES: usize = 3_508_480;

#[test]
fn a_256_process_run_stays_within_its_recorded_peak() {
    let peak = peak_live_bytes(|| {
        let mut machine = build_ordering(LockKind::Gt { f: 2 }, 256, ObjectKind::Counter)
            .machine(MemoryModel::Pso);
        assert!(run_to_completion(&mut machine, 50_000_000));
    });
    println!("gt_f2_256 contended: peak {peak} live bytes");
    assert!(
        peak * 4 <= GT_F2_256_PEAK_BYTES * 5,
        "gt_f2_256 contended: peak {peak} bytes, recorded {GT_F2_256_PEAK_BYTES}"
    );
}

#[test]
fn building_gt_f4_at_n_1024_and_one_solo_passage_stay_under_32_mb() {
    // One of E2's rows, which never constructs a model checker. With two
    // register bitsets per pc in each of the 1024 programs it peaked near
    // 200 MB.
    let peak = peak_live_bytes(|| {
        let mut machine = build_ordering(LockKind::Gt { f: 4 }, 1024, ObjectKind::Counter)
            .machine(MemoryModel::Pso);
        let outcome = machine.run_solo(ProcId(0), 100_000_000);
        assert!(matches!(outcome, SoloOutcome::Terminates { .. }));
    });
    println!("gt_f4_1024 build + solo passage: peak {peak} live bytes");
    assert!(peak < 32_000_000, "gt_f4_1024 solo: peak {peak} bytes");
}
