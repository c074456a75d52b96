//! Contention-aware speculation governor: the feedback controller that
//! keeps the pipelined executor honest when speculation stops paying.
//!
//! The paper's premise is that speculative pipelining must *degrade
//! gracefully* toward sequential execution when speculation stops
//! paying. What only run time can know is whether the loop's
//! iterations *conflict*: tasks race on the same addresses, squash
//! rates explode, and every squash wastes a body execution plus a
//! rollback. The governor handles that with two mechanisms layered on
//! the commit frontier:
//!
//! 1. **Runahead throttling** — a dynamic speculation-window cap over
//!    how far past the commit frontier tasks may dispatch. The cap
//!    follows AIMD with hysteresis: a conflict shrinks it
//!    multiplicatively (once per cooldown period, so a burst counts as
//!    one signal), a full window of clean commits grows it additively.
//! 2. **Graceful degradation** — the governor collapses to
//!    effectively-sequential issue (whoever holds the frontier runs its
//!    tasks inline through the substrate) when the windowed misspeculation
//!    rate stays above a configurable ceiling, or when AIMD walks the
//!    window down to 1 (a window-1 *pipelined* loop pays cross-thread
//!    dispatch for zero speculation, so inline issue strictly
//!    dominates it). `reprobe_period` inline commits later it probes: a
//!    small pipelined window that one conflict collapses again and
//!    [`PROBE_LEN`] clean commits graduate to AIMD growth.
//!
//! The governor decides how far ahead tasks run, never when a squashed
//! one comes back: every squashed attempt goes straight back in line,
//! the paper's misspeculation-as-serialization.
//!
//! A run **opens the way it re-opens**, as a probe, and the governor
//! reads no clock: whether a task is long enough to hand off is decided
//! before the run, from the job's measured iteration time
//! (`VersionedJob::grain`), so a conflict-free loop whose tasks are still
//! too short is *not* protected here any more. One static rule stands in
//! for the one case where racing the pipeline against inline issue had a
//! foregone winner: a plan with **one seat in total** has nobody to
//! overlap with, and a configured maximum window of 1 leaves nothing to
//! speculate, so either is held inline for the whole run and never
//! probes.
//!
//! Every decision — window moves, collapses, probes — is therefore a
//! pure function of the commit/conflict sequence the frontier feeds in:
//! a replay job (`JobSpec::mem == None`) reports the same
//! [`GovernorStats`] on every run, and so does the simulator twin (a
//! conflict-driven job's sequence is real races, so its counters move
//! with timing; its bytes never do). The governor is also trace-free: it
//! returns [`GovernorEvent`]s for the caller to turn into `TraceEvent`s,
//! so both share one controller.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Clean commits that end a probe. Until then one conflict collapses
/// the loop on the spot: a storm that is still live must cost a handful
/// of squashes, not an AIMD walk down from a grown window.
const PROBE_LEN: u32 = 4;

/// Window cap a probe pipelines at (clamped to the configured max).
/// Large enough to expose real overlap, small enough that a storm
/// probe squashes only a handful of tasks before the governor
/// re-degrades.
const PROBE_WINDOW: u32 = 4;

/// Percent of the window *kept* on a conflict burst (multiplicative
/// decrease): halve it.
const SHRINK_PERCENT: u64 = 50;

/// Additive window growth after a full clean window of commits.
const GROW: u32 = 4;

/// Sliding-window length (frontier outcomes) of the misspeculation
/// rate.
const HISTORY: usize = 32;

/// Knobs for the speculation governor — the three that a test or a
/// caller really varies; the AIMD step sizes and the rate history are
/// constants of this module.
/// All fields are plain integers so the config stays `Copy + Eq` and
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
    /// Maximum speculation window (tasks in flight past the commit
    /// frontier). The dynamic cap lives in `[1, window]`. Clamped to
    /// ≥ 1.
    pub window: u32,
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
            window: 64,
            degrade_ceiling: 250,
            reprobe_period: 2048,
        }
    }
}

impl GovernorConfig {
    /// Effective maximum window after clamping (≥ 1).
    fn max_window(&self) -> u32 {
        self.window.max(1)
    }

    /// Effective reprobe period after clamping (≥ 1).
    fn period(&self) -> u32 {
        self.reprobe_period.max(1)
    }
}

/// Counters the governor accumulates over a run, reported in
/// `NativeReport::governor` next to `MemStats` and `RecoveryCounts`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GovernorStats {
    /// Multiplicative window shrinks (throttle-down decisions).
    pub shrinks: u64,
    /// Additive window grows (throttle-up decisions).
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
    /// Speculation window when the run finished.
    pub final_window: u32,
    /// Smallest speculation window the run ever reached.
    pub min_window: u32,
}

/// A governor decision the caller should surface as a trace event,
/// stamped with whatever task/timestamp context it has.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum GovernorEvent {
    /// The window cap moved (either direction).
    Throttle { from: u32, to: u32 },
    /// Collapsed to sequential issue at the given windowed rate.
    Degrade { rate_permille: u32 },
    /// Left degraded mode to probe speculation at the given window.
    Reprobe { window: u32 },
}

/// Controller mode. `Probing` exists so one conflict right after a
/// probe opens drops straight back to degraded instead of oscillating
/// at a small pipelined window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Pipelined dispatch under the dynamic window cap.
    Normal,
    /// Pipelined at a small window; `left` clean commits until `Normal`.
    Probing { left: u32 },
    /// Sequential inline issue; `left` commits until the next probe.
    Degraded { left: u32 },
    /// Sequential inline issue to the end of the run: the plan has one
    /// seat or the window one slot, so a total order is all it can
    /// execute anyway.
    Held,
}

/// The per-run feedback controller. One instance lives in the commit
/// unit (native) or the frontier loop (simulator twin); all inputs
/// arrive in commit-frontier order.
#[derive(Debug)]
pub(crate) struct Governor {
    cfg: GovernorConfig,
    /// Current speculation window cap, in [1, cfg.window].
    window: u32,
    mode: Mode,
    /// Sliding window of frontier outcomes (true = conflict squash).
    outcomes: VecDeque<bool>,
    conflicts_in_history: u32,
    /// Consecutive clean commits since the last conflict.
    clean_streak: u32,
    /// Commits remaining before another shrink may fire (hysteresis).
    cooldown: u32,
    stats: GovernorStats,
}

impl Governor {
    /// A controller for one run of a plan with `seats` seats in total
    /// (what the plan calls cores, summed over its stages). One seat, or
    /// a maximum window of 1, is held inline to the end; any wider plan
    /// opens as a probe.
    pub(crate) fn new(cfg: GovernorConfig, seats: usize) -> Self {
        let mut governor = Self {
            cfg,
            window: 1,
            mode: Mode::Held,
            outcomes: VecDeque::with_capacity(HISTORY),
            conflicts_in_history: 0,
            clean_streak: 0,
            cooldown: 0,
            stats: GovernorStats {
                final_window: 1,
                min_window: 1,
                ..GovernorStats::default()
            },
        };
        if seats > 1 && cfg.max_window() > 1 {
            governor.probe();
            governor.stats.min_window = governor.window;
        }
        governor
    }

    /// Current speculation window cap (always ≥ 1).
    pub(crate) fn window(&self) -> u32 {
        self.window
    }

    /// Whether the loop is collapsed to sequential inline issue.
    pub(crate) fn degraded(&self) -> bool {
        matches!(self.mode, Mode::Degraded { .. } | Mode::Held)
    }

    /// Snapshot of the counters with the final window stamped in.
    pub(crate) fn stats(&self) -> GovernorStats {
        GovernorStats {
            final_window: self.window,
            ..self.stats
        }
    }

    fn record_outcome(&mut self, conflict: bool) {
        if self.outcomes.len() == HISTORY && self.outcomes.pop_front() == Some(true) {
            self.conflicts_in_history -= 1;
        }
        self.outcomes.push_back(conflict);
        if conflict {
            self.conflicts_in_history += 1;
        }
    }

    fn rate_permille(&self) -> u32 {
        if self.outcomes.is_empty() {
            return 0;
        }
        let len = u32::try_from(self.outcomes.len()).unwrap_or(u32::MAX);
        self.conflicts_in_history.saturating_mul(1000) / len
    }

    fn set_window(&mut self, to: u32) {
        self.window = to.clamp(1, self.cfg.max_window());
        self.stats.min_window = self.stats.min_window.min(self.window);
    }

    fn enter_degraded(&mut self, events: &mut Vec<GovernorEvent>) {
        let rate = self.rate_permille();
        self.mode = Mode::Degraded {
            left: self.cfg.period(),
        };
        self.set_window(1);
        self.stats.degrades += 1;
        events.push(GovernorEvent::Degrade {
            rate_permille: rate,
        });
    }

    /// The one entry into pipelining, taken when a run opens and after
    /// every degraded stretch: a small window, a fresh rate history.
    fn probe(&mut self) {
        self.mode = Mode::Probing { left: PROBE_LEN };
        self.set_window(PROBE_WINDOW);
        self.outcomes.clear();
        self.conflicts_in_history = 0;
    }

    /// Feeds one conflict squash (a `MemoryConflict`, or a replayed
    /// misspeculation) into the controller. The squashed attempt itself
    /// goes straight back in line, whatever the governor's mode.
    ///
    /// Only speculation failures feed this path; panic squashes stay
    /// with the commit unit's retry budget so the two mechanisms compose
    /// instead of fighting.
    pub(crate) fn on_conflict(&mut self) -> Vec<GovernorEvent> {
        let mut events = Vec::new();
        self.clean_streak = 0;
        match self.mode {
            Mode::Normal => {
                self.record_outcome(true);
                if self.cooldown == 0 {
                    let from = self.window;
                    let kept = u64::from(self.window) * SHRINK_PERCENT / 100;
                    self.set_window(u32::try_from(kept).unwrap_or(1).max(1));
                    if self.window != from {
                        self.stats.shrinks += 1;
                        events.push(GovernorEvent::Throttle {
                            from,
                            to: self.window,
                        });
                    }
                    self.cooldown = self.window;
                }
                // The floor and the rate route into degradation
                // (module docs, mechanism 2).
                if self.window == 1
                    || (self.outcomes.len() == HISTORY
                        && self.rate_permille() >= self.cfg.degrade_ceiling)
                {
                    self.enter_degraded(&mut events);
                }
            }
            // One conflict during a probe proves the storm is still
            // live: drop straight back, no walk down through cooldowns.
            Mode::Probing { .. } => {
                self.record_outcome(true);
                self.enter_degraded(&mut events);
            }
            // Stragglers from before the collapse; already sequential.
            Mode::Degraded { .. } | Mode::Held => {}
        }
        events
    }

    /// Feeds `count` committed tasks into the controller — a whole
    /// batch-drained frontier run in one call. The automaton still steps
    /// once per task: window growth, probe length and reprobe cadence are
    /// all counted in commits.
    pub(crate) fn on_commit(&mut self, count: u64) -> Vec<GovernorEvent> {
        let mut events = Vec::new();
        for _ in 0..count {
            self.commit_one(&mut events);
        }
        events
    }

    fn commit_one(&mut self, events: &mut Vec<GovernorEvent>) {
        self.cooldown = self.cooldown.saturating_sub(1);
        match &mut self.mode {
            Mode::Held => self.stats.degraded_commits += 1,
            Mode::Degraded { left } => {
                *left = left.saturating_sub(1);
                let reprobe = *left == 0;
                self.stats.degraded_commits += 1;
                if reprobe {
                    self.probe();
                    self.stats.reprobes += 1;
                    events.push(GovernorEvent::Reprobe {
                        window: self.window,
                    });
                }
            }
            Mode::Probing { left } => {
                // A probe conflict re-degrades on the spot, so a probe
                // that reaches its last commit was clean throughout.
                *left = left.saturating_sub(1);
                let done = *left == 0;
                self.record_outcome(false);
                if done {
                    self.mode = Mode::Normal;
                    self.clean_streak = 0;
                }
            }
            Mode::Normal => {
                self.record_outcome(false);
                self.clean_streak += 1;
                if self.clean_streak >= self.window && self.window < self.cfg.max_window() {
                    let from = self.window;
                    self.set_window(self.window.saturating_add(GROW));
                    self.clean_streak = 0;
                    self.stats.grows += 1;
                    events.push(GovernorEvent::Throttle {
                        from,
                        to: self.window,
                    });
                }
            }
        }
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

    /// A fresh governor past its opening probe, in Normal mode.
    fn promoted(cfg: GovernorConfig) -> Governor {
        let mut g = Governor::new(cfg, SEATS);
        commit(&mut g, PROBE_LEN);
        assert_eq!(g.mode, Mode::Normal, "a clean probe graduates");
        g
    }

    /// Grows the window to the configured max with clean commits.
    fn grow_to_max(g: &mut Governor) {
        commit(g, 1_000);
        assert_eq!(g.window(), g.cfg.max_window(), "never reached the max");
    }

    #[test]
    fn a_governed_run_opens_as_a_probe() {
        const OPENING: (Mode, u32) = (Mode::Probing { left: PROBE_LEN }, PROBE_WINDOW);
        let cfg = GovernorConfig::default();
        let mut g = Governor::new(cfg, 2);
        assert!(!g.degraded(), "two seats can overlap: pipelined at once");
        assert_eq!((g.mode, g.window()), OPENING);
        // One conflict collapses the opening probe, like any probe ...
        let events = g.on_conflict();
        let rate_permille = 1000; // one outcome, a conflict
        assert_eq!(events, [GovernorEvent::Degrade { rate_permille }]);
        assert!(g.degraded());
        // ... and the run re-opens through the very same entry.
        commit(&mut g, cfg.reprobe_period);
        assert_eq!((g.mode, g.window()), OPENING);
        commit(&mut g, PROBE_LEN);
        // The probe window carries into Normal.
        assert_eq!((g.mode, g.window()), (Mode::Normal, PROBE_WINDOW));
        let stats = g.stats();
        // The opening probe is not a re-probe.
        assert_eq!((stats.degrades, stats.reprobes), (1, 1));
        assert_eq!(stats.degraded_commits, u64::from(cfg.reprobe_period));
        assert_eq!(stats.min_window, 1);
        // A run that never conflicts never dips below its opening window.
        assert_eq!(promoted(cfg).stats().min_window, PROBE_WINDOW);
    }

    #[test]
    fn a_one_seat_plan_is_held_inline_and_never_probes() {
        let cfg = GovernorConfig::default();
        for seats in [0, 1] {
            let mut g = Governor::new(cfg, seats);
            for _ in 0..3 * cfg.reprobe_period {
                assert!(g.degraded() && g.window() == 1);
                assert_eq!(g.on_commit(1), [], "nothing to decide");
            }
            assert_eq!(g.on_conflict(), [], "a straggler changes nothing");
            let held = GovernorStats {
                degraded_commits: 3 * u64::from(cfg.reprobe_period),
                final_window: 1,
                min_window: 1,
                ..GovernorStats::default()
            };
            assert_eq!(g.stats(), held, "a posture: no collapse, no probe");
        }
    }

    #[test]
    fn a_window_of_one_is_held_inline_and_never_pipelines() {
        // A window-1 pipeline pays cross-thread dispatch for zero
        // speculation and never conflicts, so nothing would ever
        // collapse it: the constructor has to.
        let cfg = GovernorConfig {
            window: 1,
            ..GovernorConfig::default()
        };
        let mut g = Governor::new(cfg, SEATS);
        assert!(g.degraded(), "nothing to speculate: inline from the start");
        commit(&mut g, 3 * cfg.reprobe_period);
        assert!(g.degraded() && g.window() == 1, "and never probes");
        let held = GovernorStats {
            degraded_commits: 3 * u64::from(cfg.reprobe_period),
            final_window: 1,
            min_window: 1,
            ..GovernorStats::default()
        };
        assert_eq!(g.stats(), held, "a posture: no collapse, no probe");
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
        for step in 0..4_000u32 {
            let r = splitmix64(u64::from(step));
            if r % 8 < 3 + u64::from(step / 500 % 2) * 4 {
                assert_eq!(a.on_conflict(), b.on_conflict());
            } else {
                let count = 1 + (r >> 8) % 5;
                let single: Vec<_> = (0..count).flat_map(|_| b.on_commit(1)).collect();
                assert_eq!(a.on_commit(count), single, "a batch is its commits");
            }
            assert_eq!((a.window(), a.mode), (b.window(), b.mode), "step {step}");
        }
        assert_eq!(a.stats(), b.stats());
        // The script reached every mechanism it is meant to pin.
        let stats = a.stats();
        assert!(stats.shrinks > 0 && stats.grows > 0, "{stats:?}");
        assert!(stats.degrades > 1 && stats.reprobes > 0, "{stats:?}");
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
        assert_eq!(g.window(), cfg.window, "clean commits grow to the max");
    }

    #[test]
    fn window_never_leaves_bounds() {
        let cfg = GovernorConfig {
            window: 16,
            ..GovernorConfig::default()
        };
        let mut g = promoted(cfg);
        grow_to_max(&mut g);
        // Hammer conflicts: window must shrink but never drop below 1.
        for _ in 0..500 {
            let _ = g.on_conflict();
            assert!(g.window() >= 1, "window fell below 1");
        }
        // Hammer clean commits: the post-storm reprobe graduates and
        // growth resumes, but never past the max.
        for _ in 0..20_000 {
            commit(&mut g, 1);
            assert!(g.window() <= 16, "window exceeded the configured max");
        }
        assert_eq!(g.window(), 16, "sustained clean commits restore the max");
        let stats = g.stats();
        assert!(stats.shrinks >= 1 && stats.grows >= 1);
        assert_eq!((stats.min_window, stats.final_window), (1, 16));
    }

    #[test]
    fn shrink_has_hysteresis() {
        let mut g = promoted(GovernorConfig {
            window: 64,
            degrade_ceiling: 1001, // rate alone never degrades here
            ..GovernorConfig::default()
        });
        grow_to_max(&mut g);
        let _ = g.on_conflict();
        assert_eq!(g.window(), 32, "first conflict halves the window");
        // A burst inside the cooldown is one signal, not many.
        let _ = g.on_conflict();
        let _ = g.on_conflict();
        assert_eq!(g.window(), 32, "burst within cooldown shrinks once");
        commit(&mut g, 32);
        // The clean run both expires the cooldown and earns one growth
        // step (32 -> 36); the re-armed shrink then halves from there.
        let grown = g.window();
        assert!(grown > 32, "a clean window's worth of commits grows");
        let _ = g.on_conflict();
        assert_eq!(g.window(), grown / 2, "cooldown expiry re-arms the shrink");
    }

    #[test]
    fn sustained_storm_degrades_and_probe_conflict_redegrades() {
        let cfg = GovernorConfig::default();
        let mut g = promoted(cfg);
        storm(&mut g, HISTORY as u32 + 4);
        assert!(g.degraded(), "a sustained storm must degrade");
        assert_eq!(g.window(), 1);
        // reprobe_period degraded commits later, the governor probes.
        commit(&mut g, cfg.reprobe_period);
        assert!(!g.degraded(), "reprobe leaves degraded mode");
        assert_eq!(g.window(), PROBE_WINDOW, "probes pipeline a small window");
        // One conflict during the probe re-degrades immediately.
        let _ = g.on_conflict();
        assert!(g.degraded(), "probe conflict re-degrades without dithering");
        let stats = g.stats();
        assert_eq!((stats.degrades, stats.reprobes), (2, 1), "{stats:?}");
    }

    #[test]
    fn clean_probe_returns_to_normal_growth() {
        let cfg = GovernorConfig::default();
        let mut g = promoted(cfg);
        storm(&mut g, HISTORY as u32 + 4);
        commit(&mut g, cfg.reprobe_period);
        commit(&mut g, PROBE_LEN);
        assert!(!g.degraded());
        // Normal mode now grows additively toward the max again.
        let before = g.window();
        commit(&mut g, before);
        assert!(g.window() > before, "clean windows grow the cap");
    }

    #[test]
    fn degenerate_configs_are_clamped() {
        let cfg = GovernorConfig {
            window: 0,
            reprobe_period: 0,
            ..GovernorConfig::default()
        };
        let mut g = Governor::new(cfg, SEATS);
        assert_eq!(g.window(), 1, "zero max window clamps to 1");
        let _ = g.on_conflict();
        assert_eq!(g.window(), 1);
        commit(&mut g, 10);
        assert_eq!(g.window(), 1, "window never exceeds the clamped max");
    }
}
