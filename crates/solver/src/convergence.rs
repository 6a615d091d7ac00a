//! Convergence-check scheduling (§4, after Saltz, Naik & Nicol) and the
//! one loop that runs a schedule.
//!
//! Checking convergence costs a local pass plus a global combine, so a
//! production solver checks *periodically*, accepting a bounded overshoot.
//! [`CheckPolicy`] generates a fixed check schedule and [`CheckScheduler`]
//! is the interface a schedule answers to, including `parspeed-exec`'s
//! rate-estimating `AdaptiveChecker`; `parspeed-core::convergence` prices
//! a schedule.
//!
//! [`run_schedule`] is the one loop that decides when every solve stops.
//! All six solvers run on it and only say, through [`Stepper`], how
//! their iterate advances and what it measures at a check:
//! [`JacobiSolver`](crate::JacobiSolver) and `parspeed-exec`'s
//! `PartitionedJacobi` advance in blocks and keep snapshots;
//! [`SorSolver`](crate::SorSolver) steps one in-place sweep,
//! [`RedBlackSolver`](crate::RedBlackSolver) both colour half-sweeps,
//! [`MultigridSolver`](crate::MultigridSolver) one V-cycle and
//! [`CgSolver`](crate::CgSolver) one CG iteration, each a closure over
//! its own state that keeps no snapshots. The loop steps in blocks that
//! never cross the next check, so the gap until the next check is also
//! the budget the communication-avoiding loops spend (block-of-k temporal
//! tiling and deep-halo sub-iteration blocks), and no iterate between
//! checks is wasted. It counts iterations and checks, resumes from a
//! surviving [`Checkpoint`] and fast-forwards the schedule to it,
//! snapshots every k-th check before the cap, and drops a converged
//! solve's snapshot.

use crate::checkpoint::{Checkpoint, CheckpointCtx};
use crate::SolveStatus;

/// When to perform convergence checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckPolicy {
    /// Check at iterations `d, 2d, 3d, …`.
    Every(usize),
    /// Check at `start`, then grow the interval geometrically by `factor`
    /// up to `max_interval` — cheap early (when convergence is far) and
    /// responsive late.
    Geometric {
        /// First check iteration.
        start: usize,
        /// Interval growth factor (> 1).
        factor: f64,
        /// Largest allowed interval between checks.
        max_interval: usize,
    },
}

impl CheckPolicy {
    /// A reasonable geometric default: first check at 8, ×1.5 growth,
    /// intervals capped at 256 iterations.
    pub fn geometric() -> Self {
        CheckPolicy::Geometric { start: 8, factor: 1.5, max_interval: 256 }
    }

    /// The first iteration at which to check.
    pub fn first_check(&self) -> usize {
        match self {
            CheckPolicy::Every(d) => {
                assert!(*d >= 1, "period must be ≥ 1");
                *d
            }
            CheckPolicy::Geometric { start, .. } => (*start).max(1),
        }
    }

    /// Given the iteration of the previous check, the iteration of the
    /// next one (strictly increasing). A check past `usize::MAX` never
    /// comes: the sum saturates there, so a solve under such a schedule
    /// checks at its cap.
    ///
    /// For [`CheckPolicy::Geometric`] the growth rule is
    /// `next = last + clamp(⌈last·(factor − 1)⌉, 1, max_interval)` (with
    /// `last` floored at `start`): while the cap is not binding this is
    /// `next ≈ last·factor`, i.e. check *iterations* grow geometrically,
    /// and once `last·(factor − 1)` exceeds `max_interval` the schedule
    /// becomes arithmetic with gap `max_interval`.
    pub fn next_check(&self, last: usize) -> usize {
        match self {
            CheckPolicy::Every(d) => last.saturating_add(*d.max(&1)),
            CheckPolicy::Geometric { factor, max_interval, start } => {
                assert!(*factor > 1.0, "geometric factor must exceed 1");
                let prev_interval = last.max(*start) as f64;
                let interval =
                    ((prev_interval * (factor - 1.0)).ceil() as usize).clamp(1, *max_interval);
                last.saturating_add(interval)
            }
        }
    }

    /// The full schedule up to `max_iters`, for inspection and tests.
    pub fn schedule(&self, max_iters: usize) -> Vec<usize> {
        let mut v = Vec::new();
        let mut k = self.first_check();
        while k <= max_iters {
            v.push(k);
            if k == usize::MAX {
                break;
            }
            k = self.next_check(k);
        }
        v
    }
}

/// A convergence-check schedule that may react to observed residuals.
pub trait CheckScheduler {
    /// The first iteration at which to check.
    fn first_check(&mut self) -> usize;

    /// Given that iteration `checked_at` observed max-norm difference
    /// `diff` (not yet converged at tolerance `tol`), the next check
    /// iteration. Must be strictly greater than `checked_at`.
    fn next_after(&mut self, checked_at: usize, diff: f64, tol: f64) -> usize;
}

impl CheckScheduler for CheckPolicy {
    fn first_check(&mut self) -> usize {
        CheckPolicy::first_check(self)
    }

    fn next_after(&mut self, checked_at: usize, _diff: f64, _tol: f64) -> usize {
        self.next_check(checked_at)
    }
}

/// Outcome of a [`run_schedule`] solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveRun {
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Iterations performed, including those run before a resumed
    /// snapshot was taken.
    pub iterations: usize,
    /// Convergence checks performed, counted the same way.
    pub checks: usize,
    /// The [`Stepper`]'s convergence measure at the last check (infinite
    /// when no check ran).
    pub final_diff: f64,
}

impl From<SolveRun> for SolveStatus {
    fn from(run: SolveRun) -> Self {
        SolveStatus {
            converged: run.converged,
            iterations: run.iterations,
            final_diff: run.final_diff,
        }
    }
}

/// One solve's iterate, as [`run_schedule`] drives it.
///
/// A stepper that keeps no snapshots writes only [`advance`]; any
/// `FnMut(block, at_check) -> f64` closure is one.
///
/// [`advance`]: Stepper::advance
pub trait Stepper {
    /// Advances `block ≥ 1` iterations. When `at_check` is set, returns
    /// the solver's convergence measure after the last of them, the value
    /// [`run_schedule`] compares with `tol` (the max-norm update
    /// difference for the Jacobi family); the value is ignored otherwise.
    fn advance(&mut self, block: usize, at_check: bool) -> f64;

    /// A snapshot of the current iterate, taken at `iteration` after
    /// `checks` convergence checks, or `None` (the default) when this
    /// solve keeps no snapshots.
    fn capture(&self, _iteration: usize, _checks: usize) -> Option<Checkpoint> {
        None
    }

    /// Installs `cp` as the current iterate if it fits this solve;
    /// returns whether it did. The default declines every snapshot, so
    /// the solve starts from iteration 0.
    fn restore(&mut self, _cp: &Checkpoint) -> bool {
        false
    }
}

impl<F: FnMut(usize, bool) -> f64> Stepper for F {
    fn advance(&mut self, block: usize, at_check: bool) -> f64 {
        self(block, at_check)
    }
}

/// Runs `stepper` under `scheduler` until its convergence measure at a
/// scheduled check falls below `tol`, or `max_iters` is reached (which
/// also checks). Each [`Stepper::advance`] covers at most `max_block`
/// iterations and never crosses the next check, so only the block
/// landing on a check pays for the reduction. Iteration 0 is never
/// checked: with `max_iters = 0` the solve answers unconverged with an
/// infinite difference, so a solver that knows its measure before any
/// step answers that case itself.
///
/// With a checkpoint context, a surviving snapshot for `ctx.key` is
/// restored first and the schedule fast-forwarded to it. A
/// [`CheckPolicy`] is a pure function of the iteration count, so the
/// resumed solve checks, converges and snapshots exactly where the
/// uninterrupted one did. Every `ctx.policy.every`-th check before the
/// cap snapshots the iterate (if the stepper captures one); a converged
/// solve removes its snapshot, a capped one keeps it so that a retry
/// with a larger budget resumes. The second return is the iteration the
/// solve resumed from (`None` when it started fresh).
pub fn run_schedule(
    stepper: &mut dyn Stepper,
    scheduler: &mut dyn CheckScheduler,
    tol: f64,
    max_iters: usize,
    max_block: usize,
    ctx: Option<CheckpointCtx<'_>>,
) -> (SolveRun, Option<usize>) {
    assert!(max_block >= 1, "blocks advance at least one iteration");
    let (mut done, mut checks, mut resumed_from) = (0, 0, None);
    if let Some(ctx) = ctx {
        if let Some(cp) = ctx.store.load(ctx.key) {
            if cp.iteration > 0 && cp.iteration <= max_iters && stepper.restore(&cp) {
                (done, checks, resumed_from) = (cp.iteration, cp.checks, Some(cp.iteration));
                ctx.store.note_resume();
            }
        }
    }
    let mut diff = f64::INFINITY;
    let mut next_check = scheduler.first_check();
    while next_check <= done {
        next_check = scheduler.next_after(next_check, diff, tol);
    }
    let mut checks_since_snapshot = 0;
    while done < max_iters {
        let target = next_check.min(max_iters).max(done + 1);
        let block = (target - done).min(max_block);
        let at_check = done + block == target;
        let d = stepper.advance(block, at_check);
        done += block;
        if !at_check {
            continue;
        }
        checks += 1;
        diff = d;
        if diff < tol {
            if let Some(ctx) = ctx {
                ctx.store.remove(ctx.key);
            }
            let run = SolveRun { converged: true, iterations: done, checks, final_diff: diff };
            return (run, resumed_from);
        }
        while next_check <= done {
            next_check = scheduler.next_after(next_check, diff, tol);
        }
        if let Some(ctx) = ctx {
            if done < max_iters {
                checks_since_snapshot += 1;
                if checks_since_snapshot >= ctx.policy.every {
                    checks_since_snapshot = 0;
                    if let Some(cp) = stepper.capture(done, checks) {
                        ctx.store.save(ctx.key, cp);
                    }
                }
            }
        }
    }
    (SolveRun { converged: false, iterations: done, checks, final_diff: diff }, resumed_from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_d_is_arithmetic() {
        let p = CheckPolicy::Every(25);
        assert_eq!(p.schedule(100), vec![25, 50, 75, 100]);
    }

    #[test]
    fn every_one_checks_each_iteration() {
        let p = CheckPolicy::Every(1);
        assert_eq!(p.schedule(5), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn geometric_grows_then_caps() {
        let p = CheckPolicy::Geometric { start: 10, factor: 2.0, max_interval: 50 };
        let s = p.schedule(400);
        // Checks at 10, 20, 40, 80, 130, 180, …: iterations double
        // (factor 2) until the gap hits the 50-iteration cap at 80, after
        // which the schedule is arithmetic — gaps 10, 20, 40, 50, 50, ….
        assert_eq!(&s[..5], &[10, 20, 40, 80, 130]);
        for w in s.windows(2) {
            assert!(w[1] > w[0]);
            assert!(w[1] - w[0] <= 50);
        }
    }

    #[test]
    fn geometric_default_is_sparse_but_responsive() {
        let s = CheckPolicy::geometric().schedule(10_000);
        assert!(s.len() < 60, "too many checks: {}", s.len());
        // No gap exceeds the cap.
        for w in s.windows(2) {
            assert!(w[1] - w[0] <= 256);
        }
    }

    #[test]
    fn schedules_are_strictly_increasing() {
        for p in [CheckPolicy::Every(7), CheckPolicy::geometric()] {
            let s = p.schedule(1000);
            for w in s.windows(2) {
                assert!(w[1] > w[0], "{p:?}");
            }
        }
    }

    /// Records every block it is asked to advance; its update difference
    /// halves each iteration from 1.
    struct Halving {
        done: usize,
        blocks: Vec<(usize, bool)>,
    }

    impl Stepper for Halving {
        fn advance(&mut self, block: usize, at_check: bool) -> f64 {
            self.done += block;
            self.blocks.push((block, at_check));
            0.5f64.powi(self.done as i32 - 1)
        }

        fn capture(&self, iteration: usize, checks: usize) -> Option<Checkpoint> {
            Some(Checkpoint { iteration, checks, rows: 0, cols: 0, interior: Vec::new() })
        }

        fn restore(&mut self, cp: &Checkpoint) -> bool {
            self.done = cp.iteration;
            true
        }
    }

    #[test]
    fn blocks_end_on_checks_and_the_cap_checks_too() {
        let mut s = Halving { done: 0, blocks: Vec::new() };
        let (run, from) = run_schedule(&mut s, &mut CheckPolicy::Every(5), 0.0, 12, 3, None);
        assert_eq!(from, None);
        assert_eq!(
            run,
            SolveRun { converged: false, iterations: 12, checks: 3, final_diff: 0.5f64.powi(11) }
        );
        let expected = [(3, false), (2, true), (3, false), (2, true), (2, true)];
        assert_eq!(s.blocks, expected);
    }

    #[test]
    fn a_resume_fast_forwards_the_schedule_and_a_converged_solve_cleans_up() {
        use crate::checkpoint::{CheckpointPolicy, CheckpointStore};
        let store = CheckpointStore::new(1);
        let ctx = CheckpointCtx { store: &store, policy: CheckpointPolicy::every(2), key: 1 };
        // Capped at 17: checks at 4, 8, 12, 16 and the cap; snapshots at 8 and 16.
        let mut first = Halving { done: 0, blocks: Vec::new() };
        let (run, _) = run_schedule(&mut first, &mut CheckPolicy::Every(4), 1e-5, 17, 8, Some(ctx));
        assert_eq!((run.converged, run.checks), (false, 5));
        assert_eq!(store.taken(), 2);
        assert_eq!(store.load(1).map(|cp| (cp.iteration, cp.checks)), Some((16, 4)));
        // The resume continues at 16 with the next check at 20, where
        // 2^-19 < 1e-5 converges and removes the snapshot.
        let mut second = Halving { done: 0, blocks: Vec::new() };
        let (run, from) =
            run_schedule(&mut second, &mut CheckPolicy::Every(4), 1e-5, 100, 8, Some(ctx));
        assert_eq!(from, Some(16));
        assert_eq!(second.blocks, [(4, true)]);
        assert_eq!(
            run,
            SolveRun { converged: true, iterations: 20, checks: 5, final_diff: 0.5f64.powi(19) }
        );
        assert!(store.is_empty());
        assert_eq!(store.resumes(), 1);
    }

    #[test]
    fn a_check_past_usize_max_saturates_so_the_cap_checks() {
        let mut huge = CheckPolicy::Geometric { start: 1, factor: 1e300, max_interval: usize::MAX };
        assert_eq!(huge.next_check(1), usize::MAX);
        assert_eq!(CheckPolicy::Every(usize::MAX).next_check(1), usize::MAX);
        assert_eq!(CheckPolicy::Every(3).next_check(usize::MAX - 1), usize::MAX);
        assert_eq!(CheckPolicy::Every(usize::MAX).schedule(usize::MAX), [usize::MAX]);
        // Checks at 1, then at the cap: the next scheduled check never comes.
        let mut s = Halving { done: 0, blocks: Vec::new() };
        let (run, _) = run_schedule(&mut s, &mut huge, 0.0, 3, 8, None);
        assert_eq!((run.iterations, run.checks), (3, 2));
        assert_eq!(s.blocks, [(1, true), (2, true)]);
    }

    /// Keeps the default `capture` and `restore`, so it declines snapshots.
    struct Fresh(Halving);

    impl Stepper for Fresh {
        fn advance(&mut self, block: usize, at_check: bool) -> f64 {
            self.0.advance(block, at_check)
        }
    }

    #[test]
    fn a_stepper_that_declines_snapshots_starts_fresh_and_saves_nothing() {
        use crate::checkpoint::{CheckpointPolicy, CheckpointStore};
        let store = CheckpointStore::new(1);
        let stale = Checkpoint { iteration: 4, checks: 2, rows: 0, cols: 0, interior: Vec::new() };
        store.save(1, stale);
        let taken = store.taken();
        let ctx = CheckpointCtx { store: &store, policy: CheckpointPolicy::every(1), key: 1 };
        let mut s = Fresh(Halving { done: 0, blocks: Vec::new() });
        let (run, from) = run_schedule(&mut s, &mut CheckPolicy::Every(2), 0.0, 6, 8, Some(ctx));
        assert_eq!(from, None);
        assert_eq!(store.resumes(), 0);
        assert_eq!(store.taken(), taken);
        assert_eq!(s.0.blocks, [(2, true), (2, true), (2, true)]);
        assert_eq!((run.iterations, run.checks), (6, 3));
        assert_eq!(store.load(1).map(|cp| cp.iteration), Some(4), "nothing overwrote it");
    }

    #[test]
    #[should_panic(expected = "period must be ≥ 1")]
    fn rejects_zero_period() {
        let _ = CheckPolicy::Every(0).first_check();
    }
}
