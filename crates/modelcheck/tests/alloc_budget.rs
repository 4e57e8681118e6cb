//! Allocation budget of the kernel's walks: heap allocations of a whole
//! check against a bound logarithmic in its transitions, counted — never
//! timed — by a counting global allocator, so the numbers repeat exactly on
//! any host. `Engine::Undo` allocates only
//! while its tables grow, crash steps included; `Engine::Dpor` recycles its
//! frame buffers and keeps its dominance table flat, which leaves growth
//! too (the walk this replaced made ≈ 9.5 allocations per transition on
//! these cells). The allocator also counts the bytes `realloc` had to
//! carry over — the old size of every reallocation — which a table grown
//! in segments that never move does not add to. It tracks live bytes too,
//! which bounds what building and running a 256- or 1024-process instance
//! may cost.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use modelcheck::{check, CheckConfig, Engine};
use simlocks::{build_mutex, build_ordering, run_to_completion, FenceMask, LockKind, ObjectKind};
use wbmem::{CrashSemantics, MemoryModel, ProcId, SoloOutcome};

thread_local! {
    /// Allocations made by this thread (tests run on threads of their
    /// own, and the sequential engines on their caller's).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread's reallocations carried over: the old size of
    /// each, whether or not the block moved.
    static MOVED: Cell<u64> = const { Cell::new(0) };
    /// Allocations and reallocations by this thread of at least
    /// [`LARGE`] bytes.
    static LARGE_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not yet freed, and the highest
    /// that figure has been.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// An allocation a table makes, never a frame or a small buffer.
const LARGE: usize = 64 << 10;

fn grew(bytes: usize) {
    if bytes >= LARGE {
        LARGE_ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
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
        MOVED.with(|n| n.set(n.get() + layout.size() as u64));
        shrank(layout.size());
        grew(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A mutex check under `engine` without the termination check.
fn mutex_check(engine: Engine) -> CheckConfig {
    CheckConfig {
        check_termination: false,
        max_states: 1_000_000,
        ..CheckConfig::default()
    }
    .with_engine(engine)
}

/// Assert that one full PSO check of `lock` at `n` processes under
/// `config` makes at most `a`·log₂(transitions) + `b` allocations: a walk
/// allocates to double its tables, so the count grows with the logarithm
/// of the walk. An absolute budget, because a ratio to the transition
/// count rises whenever a sharper reduction shrinks the walk. Returns the
/// bytes its reallocations carried over.
fn assert_allocates_only_to_grow(
    label: &str,
    (lock, n): (LockKind, usize),
    config: &CheckConfig,
    (a, b): (u64, u64),
) -> u64 {
    let machine = build_mutex(lock, n, FenceMask::ALL).machine(MemoryModel::Pso);
    let before = (ALLOCATIONS.with(Cell::get), MOVED.with(Cell::get));
    let verdict = check(&machine, config);
    let allocations = ALLOCATIONS.with(Cell::get) - before.0;
    let moved = MOVED.with(Cell::get) - before.1;
    assert!(verdict.is_ok(), "{}", verdict.label());
    let transitions = verdict.stats().transitions;
    let budget = a * u64::from(transitions.ilog2()) + b;
    println!(
        "{label}: {allocations} allocations over {transitions} transitions, {moved} bytes moved"
    );
    assert!(
        allocations <= budget,
        "{label}: {allocations} allocations over {transitions} transitions, budget {budget}"
    );
    moved
}

#[test]
fn the_exhaustive_walk_allocates_only_to_grow_its_tables() {
    // Recorded: 92 allocations over 34 500 transitions — about six tables
    // (visited set, arena, stack, trail, …) doubling fifteen times.
    let config = mutex_check(Engine::Undo);
    assert_allocates_only_to_grow("ttas4_pso undo", (LockKind::Ttas, 4), &config, (8, 0));
}

#[test]
fn crash_steps_allocate_only_to_grow_the_trail() {
    // One discarding crash per process on the recoverable Bakery lock, on
    // ttas4's budget. Recorded: 87 allocations over 25 669 transitions;
    // 6 175 while every recorded crash boxed its pre-image and the wiped
    // buffer was replaced by a fresh one.
    let config = mutex_check(Engine::Undo).with_crashes(CrashSemantics::DiscardBuffer, 1);
    let cell = (LockKind::RecoverableBakery, 2);
    assert_allocates_only_to_grow("rbakery2_pso undo crash1", cell, &config, (8, 0));
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
    //
    // Bytes moved by `realloc` have bounds of their own: the dominance
    // table, the on-stack counts and the state index grow in segments that
    // never move, which leaves the DFS stack, the choice arena and the
    // frames' small buffers. Recorded: gt_f23 48 824, tournament4 54 816;
    // 848 664 and 5 048 192 while the dominance table grew by `realloc`.
    let config = mutex_check(Engine::Dpor {
        reorder_bound: None,
    });
    for (label, cell, max_moved) in [
        ("gt_f23_pso dpor", (LockKind::Gt { f: 2 }, 3), 56 << 10),
        ("tournament4_pso dpor", (LockKind::Tournament, 4), 64 << 10),
    ] {
        let moved = assert_allocates_only_to_grow(label, cell, &config, (32, 1400));
        assert!(
            moved <= max_moved,
            "{label}: {moved} bytes moved by realloc, bound {max_moved}"
        );
    }
}

/// On a thread of its own, which starts with no tables to reuse: PSO
/// checks of the fully fenced `cells` under `config`, in order. Returns
/// the last check's allocations of at least [`LARGE`] bytes and the bytes
/// its reallocations carried over.
fn last_of_checks_on_a_new_thread(cells: &[(LockKind, usize)], config: &CheckConfig) -> (u64, u64) {
    let (cells, config) = (cells.to_vec(), config.clone());
    std::thread::spawn(move || {
        let mut last = (0, 0);
        for (lock, n) in cells {
            let machine = build_mutex(lock, n, FenceMask::ALL).machine(MemoryModel::Pso);
            let before = (LARGE_ALLOCATIONS.with(Cell::get), MOVED.with(Cell::get));
            let verdict = check(&machine, &config);
            assert!(verdict.is_ok(), "{}", verdict.label());
            last = (
                LARGE_ALLOCATIONS.with(Cell::get) - before.0,
                MOVED.with(Cell::get) - before.1,
            );
        }
        last
    })
    .join()
    .expect("the checks run")
}

#[test]
fn a_second_check_on_the_thread_allocates_no_table() {
    // A check leaves its per-state tables to the next check on its
    // thread, so a check no larger than the one before it allocates no
    // table: nothing of 64 KiB or more. Without the thread's spare, each
    // of these second checks would allocate its state index and its
    // segments again. What `realloc` still carries over is the DFS
    // stack's, the frames' small buffers' and the machine's undo trail's
    // growth, which a check on a new thread moves too: the tables add
    // nothing to it.
    let dpor = mutex_check(Engine::Dpor {
        reorder_bound: None,
    });
    let undo = mutex_check(Engine::Undo);
    let (tournament4, gt_f23, filter3) = (
        (LockKind::Tournament, 4),
        (LockKind::Gt { f: 2 }, 3),
        (LockKind::Filter, 3),
    );
    for (label, first, second, config) in [
        (
            "gt_f23_pso dpor after tournament4_pso dpor",
            tournament4,
            gt_f23,
            &dpor,
        ),
        (
            "filter3_pso undo after filter3_pso undo",
            filter3,
            filter3,
            &undo,
        ),
    ] {
        let (large, moved) = last_of_checks_on_a_new_thread(&[first, second], config);
        let (_, moved_alone) = last_of_checks_on_a_new_thread(&[second], config);
        println!(
            "{label}: {large} allocations of >= {LARGE} bytes, {moved} bytes moved \
             ({moved_alone} on a new thread)"
        );
        assert_eq!(large, 0, "{label}: allocations of >= {LARGE} bytes");
        assert!(
            moved <= moved_alone,
            "{label}: {moved} bytes moved by realloc, {moved_alone} on a new thread"
        );
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
