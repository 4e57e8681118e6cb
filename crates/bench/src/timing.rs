//! Wall-clock measurement on a shared host, for the two places that time
//! anything: `exp e14` (engines × cells) and `exp guards`.
//!
//! Two pieces: [`Spent`] (wall-clock of a call next to the process
//! CPU-seconds it used, so a core that was not there is visible) and
//! [`paired_rounds`] / [`paired_ratio`] (two sides timed in alternating
//! rounds so they share whatever the machine was doing, compared round by
//! round).

use std::time::{Duration, Instant};

/// User + system CPU-seconds this process has used so far, over all of its
/// threads including those that have exited: fields 14 and 15 of
/// `/proc/self/stat`, in clock ticks. Linux reports them in `USER_HZ`,
/// which is 100 on every architecture it runs on, so a reading is good to
/// 10 ms — time spans that are long against that. `0.0` where there is no
/// `/proc`.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Field 2 is the command in parentheses and may itself hold spaces.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks = after_comm.split_whitespace().skip(11).take(2);
    ticks.filter_map(|t| t.parse::<f64>().ok()).sum::<f64>() / USER_HZ
}

/// What some timed calls cost: wall-clock, and the CPU-seconds the process
/// used meanwhile.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Spent {
    pub wall: Duration,
    pub cpu: f64,
}

impl Spent {
    /// Run `f` and measure it. The CPU readings sit outside the wall-clock
    /// window, so reading `/proc` is not part of the time.
    pub fn of(f: impl FnOnce()) -> Spent {
        let cpu = cpu_seconds();
        let start = Instant::now();
        f();
        let wall = start.elapsed();
        Spent {
            wall,
            cpu: cpu_seconds() - cpu,
        }
    }

    /// CPU-seconds per wall-second: the number of cores the calls kept
    /// busy. A speed-up over a sequential run cannot exceed it.
    pub fn utilisation(self) -> f64 {
        self.cpu / self.wall.as_secs_f64().max(1e-12)
    }
}

impl std::ops::AddAssign for Spent {
    fn add_assign(&mut self, other: Spent) {
        self.wall += other.wall;
        self.cpu += other.cpu;
    }
}

/// `rounds` pairs of `(num, den)` timings, after one uncounted warm-up call
/// of `den`. A round's two timings are adjacent in time and share whatever
/// the machine was doing; the order alternates because drift *within* a
/// round would otherwise always penalise the side that runs second.
pub fn paired_rounds(
    rounds: usize,
    mut num: impl FnMut() -> Duration,
    mut den: impl FnMut() -> Duration,
) -> Vec<(Duration, Duration)> {
    den(); // warm-up
    let round = |round| {
        if round % 2 == 0 {
            let n = num();
            (n, den())
        } else {
            let d = den();
            (num(), d)
        }
    };
    (0..rounds).map(round).collect()
}

/// The median of a non-empty `xs` (the upper one of an even count).
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median of per-round `num/den` wall-clock ratios over [`paired_rounds`].
/// Per-round ratios cancel slow load drift,
/// whereas comparing each side's best-of-rounds lets one lucky quiet
/// window inflate the ratio for the whole run.
pub fn paired_ratio(
    rounds: usize,
    num: impl FnMut() -> Duration,
    den: impl FnMut() -> Duration,
) -> f64 {
    let pairs = paired_rounds(rounds, num, den);
    let ratio = |&(n, d): &(Duration, Duration)| n.as_secs_f64() / d.as_secs_f64().max(1e-12);
    median(pairs.iter().map(ratio).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    const MS: fn(u64) -> Duration = Duration::from_millis;

    #[test]
    fn paired_ratio_is_the_median_of_per_round_ratios_over_alternating_rounds() {
        // The calls in the order they happen: 'n' and 'd'.
        let order = RefCell::new(String::new());
        let mut nums = [MS(10), MS(90), MS(40), MS(20), MS(30)].into_iter();
        // The first `den` value is the warm-up: were it counted, it would
        // be a ratio of its own.
        let mut dens = [MS(1), MS(10), MS(30), MS(20), MS(5), MS(10)].into_iter();
        let ratio = paired_ratio(
            5,
            || {
                order.borrow_mut().push('n');
                nums.next().expect("one num per round")
            },
            || {
                order.borrow_mut().push('d');
                dens.next().expect("one den per round and the warm-up")
            },
        );
        assert_eq!(
            order.borrow().as_str(),
            "d nd dn nd dn nd".replace(' ', ""),
            "warm-up first, then the side that goes first alternates"
        );
        // Per-round ratios 1, 3, 2, 4, 3: a mean would read 2.6, the ratio
        // of the two sides' minima 2.
        assert!((ratio - 3.0).abs() < 1e-9, "median of ratios, got {ratio}");
    }

    #[test]
    fn cpu_seconds_advances_with_work() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        let spent = Spent::of(|| {
            let start = Instant::now();
            let mut x = 0u64;
            while start.elapsed() < MS(200) {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
        });
        // No upper bound: the other tests of this process run beside it.
        assert!(spent.cpu > 0.0, "200 ms of spinning is 20 ticks: {spent:?}");
        assert!(spent.utilisation() > 0.0);
    }
}
