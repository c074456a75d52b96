//! Contention-aware speculation governor: the posture switch that keeps
//! the pipelined executor honest when speculation stops paying.
//!
//! The paper's premise is that speculative pipelining must *degrade
//! gracefully* toward sequential execution, and that a violated
//! speculation serializes (§3.2). What only run time can know is whether
//! the loop's iterations *conflict*: then squash rates explode, and every
//! squash wastes a body execution plus a rollback. The governor answers
//! with a posture, never with a window of its own:
//!
//! * **Pipelined** — no governor limit: the board's lane windows (§3.1's
//!   bounded queues) alone bound run-ahead, exactly as in an ungoverned
//!   run. Conflicts shrink nothing; only a misspeculation rate at or
//!   above the configured ceiling collapses the loop, taken over the
//!   frontier outcomes since the probe, the last [`HISTORY`] of them. A
//!   graduated probe's clean commits count, so a storm that starts right
//!   after one collapses within a few conflicts, not a history's worth.
//! * **Degraded** — whoever holds the frontier runs its tasks inline
//!   through the substrate, for `reprobe_period` commits.
//! * **Probing** — pipelined at most [`PROBE_WINDOW`] tasks past the
//!   frontier, with a fresh rate history. One conflict re-degrades it on
//!   the spot; [`PROBE_LEN`] clean commits make it pipelined. A run
//!   opens the way it re-opens, as a probe.
//! * **Held** — a plan with **one seat in total** has nobody to overlap
//!   with, so it runs inline for the whole run and never probes.
//!
//! The governor decides how far ahead tasks run, never when a squashed
//! one comes back: every squashed attempt goes straight back in line.
//! It reads no clock (whether a task is long enough to hand off is
//! decided before the run, from `VersionedJob::grain`), so every
//! decision is a pure function of the commit/conflict sequence the
//! frontier feeds in: a replay job (`JobSpec::mem == None`) reports the
//! same [`GovernorStats`] on every run, and so does the simulator twin.
//! It is also trace-free: it returns [`GovernorEvent`]s for the caller
//! to turn into `TraceEvent`s, so both share one controller.

use serde::{Deserialize, Serialize};

/// Clean commits that end a probe. Until then one conflict collapses
/// the loop on the spot: a storm that is still live must cost a handful
/// of squashes, not a history's worth.
const PROBE_LEN: u32 = 4;

/// Tasks a probe may run past the commit frontier. Large enough to
/// expose real overlap, small enough that a storm probe squashes only a
/// handful of tasks before the governor re-degrades.
const PROBE_WINDOW: u32 = 4;

/// Frontier outcomes the misspeculation rate is taken over: one per bit
/// of `Governor::history`.
const HISTORY: u32 = u32::BITS;

/// Knobs for the speculation governor — the two that a test or a caller
/// really varies; the probe's shape and the rate history are constants
/// of this module. Plain integers, so the config stays `Copy + Eq` and
/// serializes into run manifests.
///
/// The default is calibrated against the PR 6 ungoverned baseline
/// (BENCHMARKS.md): storm workloads (vpr, twolf, parser) run ~40-50%
/// conflict rates at 8 threads, so the degrade ceiling sits well below
/// that while staying above the noise floor of clean workloads, and
/// the reprobe period is long enough that a storm's probes — a few
/// squashes each — stay a low single-digit percent of its commits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GovernorConfig {
    /// Windowed misspeculation ceiling in permille (conflicts per 1000
    /// outcomes over the sliding history). Sustained rates at or above
    /// this collapse the loop to sequential issue.
    pub degrade_ceiling: u32,
    /// Inline commits between a collapse and the next probe. Clamped
    /// to ≥ 1.
    pub reprobe_period: u32,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        Self {
            degrade_ceiling: 250,
            reprobe_period: 2048,
        }
    }
}

/// Counters the governor accumulates over a run, reported in
/// `NativeReport::governor` next to `MemStats` and `RecoveryCounts`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GovernorStats {
    /// Always 0: no window is walked; kept while the benchmark reads it.
    pub shrinks: u64,
    /// Always 0: no window is walked; kept while the benchmark reads it.
    pub grows: u64,
    /// Collapses to degraded (sequential-issue) mode. A one-seat plan
    /// held inline is a posture, not a collapse, and is not counted.
    pub degrades: u64,
    /// Speculation re-probes attempted from degraded mode (the probe a
    /// run opens with is not one).
    pub reprobes: u64,
    /// Always 0: a squashed attempt is never held back; kept while the
    /// benchmark reads it.
    pub backoffs: u64,
    /// Tasks committed while degraded (a one-seat plan's whole run).
    pub degraded_commits: u64,
}

/// A governor decision the caller should surface as a trace event,
/// stamped with whatever task/timestamp context it has.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum GovernorEvent {
    /// Collapsed to sequential issue at the given windowed rate.
    Degrade { rate_permille: u32 },
    /// Left degraded mode to probe speculation at the given window.
    Reprobe { window: u32 },
}

/// The governor's posture (module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Bounded by the board alone.
    Pipelined,
    /// At most [`PROBE_WINDOW`] ahead; `left` clean commits to go.
    Probing { left: u32 },
    /// Inline; `left` commits until the next probe.
    Degraded { left: u32 },
    /// Inline to the end of the run.
    Held,
}

/// The per-run posture switch. One instance lives in the commit unit
/// (native) or the frontier loop (simulator twin); all inputs arrive in
/// commit-frontier order.
#[derive(Debug)]
pub(crate) struct Governor {
    cfg: GovernorConfig,
    mode: Mode,
    /// The latest frontier outcomes, newest in bit 0 (1 = conflict).
    history: u32,
    /// Outcomes in `history` since the last probe, at most [`HISTORY`].
    recorded: u32,
    stats: GovernorStats,
}

impl Governor {
    /// A controller for one run of a plan with `seats` seats in total
    /// (what the plan calls cores, summed over its stages). One seat is
    /// held inline to the end; any wider plan opens as a probe.
    pub(crate) fn new(cfg: GovernorConfig, seats: usize) -> Self {
        let mut governor = Self {
            cfg,
            mode: Mode::Held,
            history: 0,
            recorded: 0,
            stats: GovernorStats::default(),
        };
        if seats > 1 {
            governor.probe();
        }
        governor
    }

    /// How many tasks past the commit frontier may be admitted: none
    /// while inline, [`PROBE_WINDOW`] while probing, and `None` — no
    /// governor limit, the board's lane windows alone — while pipelined.
    pub(crate) fn window(&self) -> Option<u32> {
        match self.mode {
            Mode::Held | Mode::Degraded { .. } => Some(0),
            Mode::Probing { .. } => Some(PROBE_WINDOW),
            Mode::Pipelined => None,
        }
    }

    /// Whether the loop is collapsed to sequential inline issue.
    pub(crate) fn degraded(&self) -> bool {
        self.window() == Some(0)
    }

    /// Snapshot of the counters.
    pub(crate) fn stats(&self) -> GovernorStats {
        self.stats
    }

    fn record_outcome(&mut self, conflict: bool) {
        self.history = self.history << 1 | u32::from(conflict);
        self.recorded = (self.recorded + 1).min(HISTORY);
    }

    fn rate_permille(&self) -> u32 {
        (self.history.count_ones() * 1000)
            .checked_div(self.recorded)
            .unwrap_or(0)
    }

    fn degrade(&mut self) -> GovernorEvent {
        self.mode = Mode::Degraded {
            left: self.cfg.reprobe_period.max(1),
        };
        self.stats.degrades += 1;
        GovernorEvent::Degrade {
            rate_permille: self.rate_permille(),
        }
    }

    /// The one entry into pipelining, taken when a run opens and after
    /// every degraded stretch: a small window, a fresh rate history.
    fn probe(&mut self) {
        self.mode = Mode::Probing { left: PROBE_LEN };
        (self.history, self.recorded) = (0, 0);
    }

    /// Feeds one conflict squash (a `MemoryConflict`, or a replayed
    /// misspeculation) into the controller. Only speculation failures
    /// feed it; panic squashes stay with the commit unit's retry budget
    /// so the two mechanisms compose instead of fighting.
    pub(crate) fn on_conflict(&mut self) -> Option<GovernorEvent> {
        match self.mode {
            Mode::Pipelined => {
                self.record_outcome(true);
                (self.rate_permille() >= self.cfg.degrade_ceiling).then(|| self.degrade())
            }
            // One conflict during a probe proves the storm is still
            // live: drop straight back.
            Mode::Probing { .. } => {
                self.record_outcome(true);
                Some(self.degrade())
            }
            // Stragglers from before the collapse; already sequential.
            Mode::Degraded { .. } | Mode::Held => None,
        }
    }

    /// Feeds `count` committed tasks into the controller — a whole
    /// batch-drained frontier run in one call. The automaton still steps
    /// once per task, since probe length and reprobe cadence are counted
    /// in commits. Only a conflict ends a pipelined posture, so a batch
    /// holds at most one decision: a re-probe.
    pub(crate) fn on_commit(&mut self, count: u64) -> Option<GovernorEvent> {
        let mut event = None;
        for _ in 0..count {
            match &mut self.mode {
                Mode::Held => self.stats.degraded_commits += 1,
                Mode::Degraded { left } => {
                    *left -= 1;
                    let reprobe = *left == 0;
                    self.stats.degraded_commits += 1;
                    if reprobe {
                        self.probe();
                        self.stats.reprobes += 1;
                        event = Some(GovernorEvent::Reprobe {
                            window: PROBE_WINDOW,
                        });
                    }
                }
                // A probe conflict re-degrades on the spot, so a probe
                // that reaches its last commit was clean throughout.
                Mode::Probing { left } => {
                    *left -= 1;
                    if *left == 0 {
                        self.mode = Mode::Pipelined;
                    }
                    self.record_outcome(false);
                }
                Mode::Pipelined => self.record_outcome(false),
            }
        }
        event
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::faults::splitmix64;

    /// A plan wide enough to pipeline.
    const SEATS: usize = 4;

    fn storm(g: &mut Governor, conflicts: u32) {
        for _ in 0..conflicts {
            let _ = g.on_conflict();
        }
    }

    fn commit(g: &mut Governor, count: u32) {
        let _ = g.on_commit(u64::from(count));
    }

    /// A fresh governor past its opening probe, pipelined.
    fn promoted(cfg: GovernorConfig) -> Governor {
        let mut g = Governor::new(cfg, SEATS);
        commit(&mut g, PROBE_LEN);
        assert_eq!(g.mode, Mode::Pipelined, "a clean probe graduates");
        g
    }

    #[test]
    fn a_governed_run_opens_as_a_probe() {
        const OPENING: (Mode, Option<u32>) =
            (Mode::Probing { left: PROBE_LEN }, Some(PROBE_WINDOW));
        let cfg = GovernorConfig::default();
        let mut g = Governor::new(cfg, 2);
        assert!(!g.degraded(), "two seats can overlap: pipelined at once");
        assert_eq!((g.mode, g.window()), OPENING);
        // One conflict collapses the opening probe, like any probe ...
        let rate_permille = 1000; // one outcome, a conflict
        assert_eq!(
            g.on_conflict(),
            Some(GovernorEvent::Degrade { rate_permille })
        );
        assert!(g.degraded());
        assert_eq!(g.window(), Some(0), "inline: admission closed");
        // ... and the run re-opens through the very same entry.
        commit(&mut g, cfg.reprobe_period);
        assert_eq!((g.mode, g.window()), OPENING);
        commit(&mut g, PROBE_LEN);
        // A clean probe leaves the bound to the board.
        assert_eq!((g.mode, g.window()), (Mode::Pipelined, None));
        let stats = g.stats();
        // The opening probe is not a re-probe.
        assert_eq!((stats.degrades, stats.reprobes), (1, 1));
        assert_eq!(stats.degraded_commits, u64::from(cfg.reprobe_period));
    }

    #[test]
    fn a_one_seat_plan_is_held_inline_and_never_probes() {
        let cfg = GovernorConfig::default();
        for seats in [0, 1] {
            let mut g = Governor::new(cfg, seats);
            for _ in 0..3 * cfg.reprobe_period {
                assert!(g.degraded() && g.window() == Some(0));
                assert_eq!(g.on_commit(1), None, "nothing to decide");
            }
            assert_eq!(g.on_conflict(), None, "a straggler changes nothing");
            let held = GovernorStats {
                degraded_commits: 3 * u64::from(cfg.reprobe_period),
                ..GovernorStats::default()
            };
            assert_eq!(g.stats(), held, "a posture: no collapse, no probe");
        }
    }

    #[test]
    fn the_same_conflict_sequence_gives_the_same_decisions() {
        // A seeded mix of commit batches and conflicts — storms, quiet
        // stretches — fed to two
        // controllers, the second one commit at a time.
        let cfg = GovernorConfig {
            reprobe_period: 16,
            ..GovernorConfig::default()
        };
        let (mut a, mut b) = (Governor::new(cfg, SEATS), Governor::new(cfg, SEATS));
        let mut pipelined = 0;
        for step in 0..4_000u32 {
            let r = splitmix64(u64::from(step));
            if r % 8 < 3 + u64::from(step / 500 % 2) * 4 {
                assert_eq!(a.on_conflict(), b.on_conflict());
            } else {
                let count = 1 + (r >> 8) % 5;
                let single: Vec<_> = (0..count).filter_map(|_| b.on_commit(1)).collect();
                let batch: Vec<_> = a.on_commit(count).into_iter().collect();
                assert_eq!(batch, single, "a batch is its commits");
            }
            assert_eq!((a.window(), a.mode), (b.window(), b.mode), "step {step}");
            pipelined += u32::from(a.mode == Mode::Pipelined);
        }
        assert_eq!(a.stats(), b.stats());
        // The script reached every posture it is meant to pin.
        let stats = a.stats();
        assert!(pipelined > 0, "never graduated a probe");
        assert!(stats.degrades > 1 && stats.reprobes > 0, "{stats:?}");
        assert_eq!((stats.shrinks, stats.grows), (0, 0), "no window walks");
    }

    #[test]
    fn fast_pipeline_stays_normal_through_reviews() {
        let cfg = GovernorConfig::default();
        let mut g = Governor::new(cfg, SEATS);
        // Two reprobe periods of clean commits: nothing reviews them.
        for _ in 0..2 * cfg.reprobe_period {
            commit(&mut g, 1);
            assert!(!g.degraded(), "a clean pipeline is never collapsed");
        }
        assert_eq!(g.window(), None, "the board alone bounds it");
    }

    #[test]
    fn only_the_rate_collapses_a_pipelined_run() {
        let cfg = GovernorConfig::default();
        let mut g = promoted(cfg);
        // A conflict every 8 commits (125‰, under the 250‰ ceiling):
        // nothing shrinks, nothing collapses.
        for i in 1..=10_000u32 {
            if i % 8 == 0 {
                assert_eq!(g.on_conflict(), None, "commit {i}");
            }
            commit(&mut g, 1);
            assert_eq!((g.mode, g.window()), (Mode::Pipelined, None), "commit {i}");
        }
        // A sustained storm still collapses it.
        storm(&mut g, HISTORY);
        assert!(g.degraded(), "a sustained storm must degrade");
        let stats = g.stats();
        assert_eq!((stats.degrades, stats.reprobes), (1, 0), "{stats:?}");
    }

    #[test]
    fn sustained_storm_degrades_and_probe_conflict_redegrades() {
        let cfg = GovernorConfig::default();
        let mut g = promoted(cfg);
        storm(&mut g, HISTORY + 4);
        assert!(g.degraded(), "a sustained storm must degrade");
        assert_eq!(g.window(), Some(0));
        // reprobe_period degraded commits later, the governor probes.
        commit(&mut g, cfg.reprobe_period);
        assert!(!g.degraded(), "reprobe leaves degraded mode");
        assert_eq!(
            g.window(),
            Some(PROBE_WINDOW),
            "probes pipeline a small window"
        );
        // One conflict during the probe re-degrades immediately.
        let _ = g.on_conflict();
        assert!(g.degraded(), "probe conflict re-degrades without dithering");
        let stats = g.stats();
        assert_eq!((stats.degrades, stats.reprobes), (2, 1), "{stats:?}");
    }

    #[test]
    fn clean_probe_returns_to_normal_growth() {
        // "Normal" is the pipelined posture: a clean probe returns the
        // bound to the board.
        let cfg = GovernorConfig::default();
        let mut g = promoted(cfg);
        storm(&mut g, HISTORY + 4);
        commit(&mut g, cfg.reprobe_period);
        commit(&mut g, PROBE_LEN - 1);
        assert_eq!(g.window(), Some(PROBE_WINDOW), "one clean commit short");
        commit(&mut g, 1);
        assert_eq!((g.mode, g.window()), (Mode::Pipelined, None));
    }

    #[test]
    fn degenerate_configs_are_clamped() {
        let cfg = GovernorConfig {
            reprobe_period: 0,
            ..GovernorConfig::default()
        };
        let mut g = promoted(cfg);
        storm(&mut g, HISTORY);
        assert!(g.degraded());
        commit(&mut g, 1);
        assert!(!g.degraded(), "a zero reprobe period clamps to 1");
        assert_eq!(g.stats().reprobes, 1);
    }
}
