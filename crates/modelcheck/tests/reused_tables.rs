//! A check leaves its per-state tables — the state index, the termination
//! graph's lists, the dominance table and the on-stack counts — emptied
//! but allocated to the next check on its thread, once they take 1 MiB.
//! Nothing of the check before may show: on the n = 2 matrix (every lock
//! fully fenced, the fence-free Peterson and Bakery, a crashing TTAS) ×
//! SC/TSO/PSO × `Undo`/`Dpor`/`Dpor` bound 1 × termination on and off, a
//! check run right after another on its thread returns what it returns on
//! a thread of its own: the same verdict, `Stats` and `MetricsSnapshot`,
//! and the same counterexample schedule and alternates. Each thread first
//! runs gt_f23 `Dpor` (1.5 MB of tables), so from then on every check
//! reuses that storage. The check before each cell is mcs3 under the same
//! engine and termination setting, which fills every table the cell uses
//! with more states than the cell has, and is run three ways: to its end,
//! stopped by `max_states`, and panicking in its invariant. The first two
//! leave states on the reduction's stack; the third drops its tables as it
//! unwinds.

use std::cell::Cell;
use std::sync::{Once, OnceLock};

use modelcheck::{check, CheckConfig, CheckError, Engine, Verdict};
use simlocks::{build_mutex, FenceMask, LockKind};
use wbmem::{CrashSemantics, Machine, MemoryModel, SchedElem};

type Vm = Machine<fencevm::VmProc>;

/// One check of the matrix: a machine, its config, and a name.
struct Case {
    name: String,
    machine: Vm,
    config: CheckConfig,
}

fn engines() -> [Engine; 3] {
    [
        Engine::Undo,
        Engine::Dpor {
            reorder_bound: None,
        },
        Engine::Dpor {
            reorder_bound: Some(1),
        },
    ]
}

fn config(engine: Engine, check_termination: bool) -> CheckConfig {
    CheckConfig {
        check_termination,
        max_states: 1_000_000,
        ..CheckConfig::default()
    }
    .with_engine(engine)
}

fn matrix() -> Vec<Case> {
    let kinds = [
        LockKind::Peterson,
        LockKind::Bakery,
        LockKind::BakeryPaperListing,
        LockKind::Tournament,
        LockKind::Gt { f: 2 },
        LockKind::Ttas,
        LockKind::Mcs,
        LockKind::Filter,
        LockKind::RecoverableTtas,
        LockKind::RecoverableBakery,
    ];
    let mut instances: Vec<_> = kinds
        .iter()
        .map(|&kind| (build_mutex(kind, 2, FenceMask::ALL), None))
        .collect();
    for kind in [LockKind::Peterson, LockKind::Bakery] {
        instances.push((build_mutex(kind, 2, FenceMask::NONE), None));
    }
    let crash = (CrashSemantics::DiscardBuffer, 1);
    instances.push((build_mutex(LockKind::Ttas, 2, FenceMask::ALL), Some(crash)));
    let mut cells = Vec::new();
    for (inst, crashes) in &instances {
        for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
            for engine in engines() {
                for termination in [false, true] {
                    let mut config = config(engine, termination);
                    if let Some((semantics, max)) = *crashes {
                        config = config.with_crashes(semantics, max);
                    }
                    cells.push(Case {
                        name: format!(
                            "{}{}/{model}/{engine:?}/termination={termination}",
                            inst.name,
                            if crashes.is_some() { "+crash" } else { "" },
                        ),
                        machine: inst.machine(model),
                        config,
                    });
                }
            }
        }
    }
    cells
}

/// What a check returns, `elapsed` aside (`Stats`' equality ignores it).
type Outcome = (
    &'static str,
    modelcheck::Stats,
    Option<(Vec<SchedElem>, Vec<Vec<SchedElem>>)>,
);

fn outcome(v: &Verdict) -> Outcome {
    let cex = v
        .counterexample()
        .map(|c| (c.schedule.clone(), c.alternates.clone()));
    (v.label(), v.stats(), cex)
}

/// Every cell of the matrix, each on a thread of its own.
fn on_new_threads() -> &'static [Outcome] {
    static ALONE: OnceLock<Vec<Outcome>> = OnceLock::new();
    ALONE.get_or_init(|| {
        let cells = matrix();
        std::thread::scope(|scope| {
            cells
                .iter()
                .map(|cell| {
                    scope
                        .spawn(|| outcome(&check(&cell.machine, &cell.config)))
                        .join()
                })
                .map(|joined| joined.expect("a check on its own thread"))
                .collect()
        })
    })
}

/// How the check before a cell ends.
#[derive(Clone, Copy, Debug)]
enum Before {
    Finished,
    StateLimit,
    Panicked,
}

/// The mcs3 invariant that panics at its [`PANIC_AT`]-th state.
const PANIC_AT: u32 = 600;
const PANIC_MESSAGE: &str = "the invariant panics on purpose";

thread_local! {
    static INVARIANT_CALLS: Cell<u32> = const { Cell::new(0) };
}

fn panicking_invariant(_: &[u64]) -> bool {
    let calls = INVARIANT_CALLS.with(|n| {
        n.set(n.get() + 1);
        n.get()
    });
    assert!(calls != PANIC_AT, "{PANIC_MESSAGE}");
    true
}

/// Keep the deliberate panics out of the test output.
fn quiet_deliberate_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info.payload().downcast_ref::<String>();
            if !message.is_some_and(|m| m.contains(PANIC_MESSAGE)) {
                default(info);
            }
        }));
    });
}

/// On one thread, gt_f23, then mcs3 ended as `before` says before each
/// cell: every cell must return what it returned on a thread of its own.
fn each_cell_after(before: Before) {
    quiet_deliberate_panics();
    let cells = matrix();
    assert_eq!(cells.len(), 13 * 3 * 3 * 2);
    let alone = on_new_threads();
    let gt_f23 = build_mutex(LockKind::Gt { f: 2 }, 3, FenceMask::ALL).machine(MemoryModel::Pso);
    let dpor = config(
        Engine::Dpor {
            reorder_bound: None,
        },
        false,
    );
    assert!(check(&gt_f23, &dpor).is_ok());
    let mcs3 = build_mutex(LockKind::Mcs, 3, FenceMask::ALL).machine(MemoryModel::Pso);
    for (cell, alone) in cells.iter().zip(alone) {
        let mut first = cell
            .config
            .clone()
            .with_crashes(CrashSemantics::DiscardBuffer, 0);
        match before {
            Before::Finished => {}
            Before::StateLimit => first.max_states = 500,
            Before::Panicked => {
                INVARIANT_CALLS.with(|n| n.set(0));
                first = first.with_invariant(panicking_invariant);
            }
        }
        let v = check(&mcs3, &first);
        match (before, &v) {
            (Before::Finished, Verdict::Ok(stats)) => assert!(
                stats.states > alone.1.states,
                "{}: mcs3 is larger ({} states)",
                cell.name,
                stats.states
            ),
            (Before::StateLimit, Verdict::StateLimit(_)) => {}
            (Before::Panicked, Verdict::Error(_, CheckError::Panic(m))) => {
                assert!(m.contains(PANIC_MESSAGE), "{m}");
            }
            _ => panic!("{}: mcs3 {before:?} returned {}", cell.name, v.label()),
        }
        let reused = outcome(&check(&cell.machine, &cell.config));
        assert_eq!(
            &reused, alone,
            "{}: after mcs3 {before:?} against on a thread of its own",
            cell.name
        );
    }
}

#[test]
fn a_check_after_a_larger_one_is_the_check_on_a_new_thread() {
    each_cell_after(Before::Finished);
}

#[test]
fn a_check_after_one_stopped_by_max_states_is_the_check_on_a_new_thread() {
    each_cell_after(Before::StateLimit);
}

#[test]
fn a_check_after_one_whose_invariant_panicked_is_the_check_on_a_new_thread() {
    each_cell_after(Before::Panicked);
}
