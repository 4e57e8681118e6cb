//! Allocation budget of the kernel's walks: heap allocations per executed
//! transition, counted — never timed — by a counting global allocator, so
//! the numbers repeat exactly on any host. `Engine::Undo` allocates only
//! while its tables grow; `Engine::Dpor` recycles its frame buffers and
//! keeps its dominance table flat, which leaves growth too (the walk this
//! replaced made ≈ 9.5 allocations per transition on these cells).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use modelcheck::{check, CheckConfig, Engine};
use simlocks::{build_mutex, FenceMask, LockKind};
use wbmem::MemoryModel;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their
    /// own, and the sequential engines on their caller's).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a bump of a
// const-initialised, destructor-free thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations per transition of one full PSO mutex check of `lock` at
/// `n` processes under `engine`.
fn allocations_per_transition(lock: LockKind, n: usize, engine: Engine) -> f64 {
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
    allocations as f64 / verdict.stats().transitions as f64
}

#[test]
fn the_exhaustive_walk_allocates_only_to_grow_its_tables() {
    let per_transition = allocations_per_transition(LockKind::Ttas, 4, Engine::Undo);
    assert!(per_transition < 0.05, "ttas4_pso undo: {per_transition:.3}");
}

#[test]
fn the_reduced_walk_stays_within_its_allocation_budget() {
    let dpor = Engine::Dpor {
        reorder_bound: None,
    };
    for (label, lock, n) in [
        ("gt_f23_pso", LockKind::Gt { f: 2 }, 3),
        ("tournament4_pso", LockKind::Tournament, 4),
    ] {
        let per_transition = allocations_per_transition(lock, n, dpor);
        assert!(per_transition <= 2.5, "{label} dpor: {per_transition:.3}");
    }
}
