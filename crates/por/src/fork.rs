//! Fork points: serialized DFS continuations for work stealing.
//!
//! The work-stealing DPOR engine (`modelcheck`'s `Engine::ParallelDpor`)
//! lets a busy worker donate the *unexplored remainder* of one of its
//! DFS frames instead of letting peers idle. A donation must carry
//! everything the reduced search tracked for that frame — the sleep set
//! it was entered with, the siblings already taken (the candidates put
//! to sleep in later children), the ample-excluded choices (owed to the
//! cycle proviso), and the remaining reorder budget — plus a **replay
//! path**: the schedule from the root to the frame's state, which is how
//! the thief re-materializes the state on its own machine (undo tokens
//! cannot cross machines). [`ForkPoint`] is that serialization.
//!
//! Handing a fork point over is an exact continuation relocation: the
//! thief explores precisely the `(choices, excluded, sleep, taken,
//! remaining)` tuple the owner would have, from the same state, with the
//! same pruning rules — which is why the reduction's soundness argument
//! is indifferent to *which* thread runs the remainder (see DESIGN.md).
//!
//! [`ForkQueue`] is the bounded MPMC channel the fork points travel
//! through. It deliberately stays a mutexed deque: donations happen at
//! the workers' poll cadence (hundreds of steps apart), so the queue is
//! never hot — the per-transition hot path is the fingerprint table
//! ([`crate::fptable`]), which is the structure that must be lock-free.
//! The queue additionally tracks how many workers are mid-task, giving
//! distributed termination detection: when the queue is empty **and** no
//! worker is busy, no new work can ever appear, and every blocked
//! [`take`](ForkQueue::take) returns `None`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

use wbmem::{Footprint, SchedElem};

use crate::sleep::SleepSet;

/// The unexplored remainder of one DFS frame, serialized for transfer to
/// another worker. See the module docs; field semantics mirror the
/// sequential DPOR engine's frame.
#[derive(Clone, Debug, Default)]
pub struct ForkPoint {
    /// Schedule from the root state to this frame's state. The thief
    /// replays it (every element must step) to re-materialize the state;
    /// the prefix states also re-seed the thief's on-stack set so the
    /// cycle proviso keeps firing exactly as it would have for the owner.
    pub path: Vec<SchedElem>,
    /// Sleep set the frame was entered with.
    pub sleep: SleepSet,
    /// Siblings already explored from this frame, with the footprints
    /// they had when taken.
    pub taken: Vec<(SchedElem, Footprint)>,
    /// Choices still to explore, in the owner's exploration order.
    pub choices: Vec<SchedElem>,
    /// Ample-excluded choices, reinstated if the cycle proviso fires.
    pub excluded: Vec<SchedElem>,
    /// Remaining reorder budget on entry to the frame's state.
    pub remaining: u32,
}

struct QueueState {
    tasks: VecDeque<ForkPoint>,
    /// Workers currently holding a task taken from the queue.
    working: usize,
    closed: bool,
}

/// Bounded MPMC queue of [`ForkPoint`]s with termination detection; see
/// the module docs.
pub struct ForkQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    cap: usize,
}

impl ForkQueue {
    /// An empty queue holding at most `cap` pending fork points.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                tasks: VecDeque::new(),
                working: 0,
                closed: false,
            }),
            available: Condvar::new(),
            cap: cap.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publish a fork point. Returns it back as `Err` when the queue is
    /// full or closed, so the donor can fold the work back into its own
    /// frame instead of losing it.
    ///
    /// # Errors
    ///
    /// The rejected fork point, unchanged. The large `Err` is the point:
    /// handing the value back lets the donor restore its frame by move
    /// instead of cloning the path/choices up front.
    #[allow(clippy::result_large_err)]
    pub fn publish(&self, fork: ForkPoint) -> Result<(), ForkPoint> {
        let mut s = self.lock();
        if s.closed || s.tasks.len() >= self.cap {
            return Err(fork);
        }
        s.tasks.push_back(fork);
        drop(s);
        self.available.notify_one();
        Ok(())
    }

    /// Whether donating now would help: pending work has fallen below
    /// `low_water` and the queue still has room. Donors poll this before
    /// paying for a path snapshot.
    #[must_use]
    pub fn wants_work(&self, low_water: usize) -> bool {
        let s = self.lock();
        !s.closed && s.tasks.len() < low_water.min(self.cap)
    }

    /// Pending fork points (racy; for frontier accounting).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().tasks.len()
    }

    /// Whether no fork point is pending (racy; see [`len`](Self::len)).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take a task, blocking while the queue is empty but some worker is
    /// still busy (it may yet publish). Returns `None` when the queue is
    /// closed or when no task is pending and no worker is busy — global
    /// termination. A `Some` return marks the caller busy until it calls
    /// [`done`](Self::done).
    pub fn take(&self) -> Option<ForkPoint> {
        let mut s = self.lock();
        loop {
            if s.closed {
                return None;
            }
            if let Some(t) = s.tasks.pop_front() {
                s.working += 1;
                return Some(t);
            }
            if s.working == 0 {
                return None;
            }
            s = self
                .available
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Mark a task taken via [`take`](Self::take) finished. Wakes every
    /// waiter when this was the last busy worker and nothing is pending
    /// (they all observe termination and return `None`).
    pub fn done(&self) {
        let mut s = self.lock();
        s.working = s.working.saturating_sub(1);
        let drained = s.working == 0 && s.tasks.is_empty();
        drop(s);
        if drained {
            self.available.notify_all();
        }
    }

    /// Close the queue: every current and future [`take`](Self::take)
    /// returns `None` and publishes are rejected. Used on cancellation
    /// (violation found, state limit, deadline, panic). Pending tasks are
    /// *kept* — they are unexplored frontier, and a checkpoint wants them;
    /// [`drain`](Self::drain) collects them.
    pub fn close(&self) {
        let mut s = self.lock();
        s.closed = true;
        drop(s);
        self.available.notify_all();
    }

    /// Close the queue and return every pending fork point. The pending
    /// tasks are exactly the donated-but-never-stolen frontier, which a
    /// checkpoint must persist alongside the workers' own open frames.
    #[must_use]
    pub fn drain(&self) -> Vec<ForkPoint> {
        let mut s = self.lock();
        s.closed = true;
        let pending = s.tasks.drain(..).collect();
        drop(s);
        self.available.notify_all();
        pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn fork(n: u32) -> ForkPoint {
        ForkPoint {
            path: Vec::new(),
            sleep: SleepSet::new(),
            taken: Vec::new(),
            choices: Vec::new(),
            excluded: Vec::new(),
            remaining: n,
        }
    }

    #[test]
    fn bounded_publish() {
        let q = ForkQueue::new(2);
        assert!(q.wants_work(2));
        assert!(q.publish(fork(0)).is_ok());
        assert!(q.publish(fork(1)).is_ok());
        assert!(!q.wants_work(2));
        let rejected = q.publish(fork(2)).unwrap_err();
        assert_eq!(rejected.remaining, 2, "rejected fork comes back");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn take_returns_none_on_termination() {
        let q = ForkQueue::new(4);
        q.publish(fork(7)).unwrap();
        let t = q.take().expect("seeded task");
        assert_eq!(t.remaining, 7);
        // The only busy worker finishes without publishing: terminated.
        q.done();
        assert!(q.take().is_none());
    }

    #[test]
    fn close_keeps_pending_and_unblocks() {
        let q = ForkQueue::new(4);
        q.publish(fork(0)).unwrap();
        q.close();
        assert!(q.take().is_none(), "closed queue yields no tasks");
        assert!(q.publish(fork(1)).is_err(), "closed queue rejects");
        let pending = q.drain();
        assert_eq!(pending.len(), 1, "close preserves the frontier");
        assert_eq!(pending[0].remaining, 0);
    }

    #[test]
    fn drain_closes_and_returns_pending() {
        let q = ForkQueue::new(4);
        q.publish(fork(3)).unwrap();
        q.publish(fork(4)).unwrap();
        let pending = q.drain();
        assert_eq!(
            pending.iter().map(|f| f.remaining).collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert!(q.take().is_none(), "drain closes the queue");
        assert!(q.drain().is_empty(), "second drain finds nothing");
    }

    #[test]
    fn blocked_takers_see_late_publishes() {
        let q = ForkQueue::new(8);
        q.publish(fork(0)).unwrap();
        let taken = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    while let Some(t) = q.take() {
                        // The first task fans out two more; all must be
                        // drained before anyone observes termination.
                        if t.remaining == 0 {
                            q.publish(fork(1)).unwrap();
                            q.publish(fork(1)).unwrap();
                        }
                        taken.fetch_add(1, Ordering::SeqCst);
                        q.done();
                    }
                });
            }
        });
        assert_eq!(taken.load(Ordering::SeqCst), 3);
    }
}
