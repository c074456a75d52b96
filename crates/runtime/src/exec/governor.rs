//! Contention-aware speculation governor: the feedback controller that
//! keeps the pipelined executor honest when speculation stops paying.
//!
//! The paper's premise is that speculative pipelining must *degrade
//! gracefully* toward sequential execution when speculation stops
//! paying — never below it. Two failure shapes matter:
//!
//! * **conflict storms** — tasks race on the same addresses, squash
//!   rates explode, and every squash wastes a body execution plus a
//!   rollback; and
//! * **sub-granularity loops** — task bodies are so short that
//!   cross-thread dispatch costs more than the work itself, so even a
//!   conflict-free pipeline runs below 1× sequential.
//!
//! The governor handles both with four mechanisms layered on the
//! commit frontier:
//!
//! 1. **Runahead throttling** — a dynamic speculation-window cap over
//!    how far past the commit frontier tasks may dispatch. The cap
//!    follows AIMD with hysteresis: a conflict shrinks it
//!    multiplicatively (once per cooldown period, so a burst counts as
//!    one signal), a full window of clean commits grows it additively.
//! 2. **Per-address squash backoff** — a task squashed by a
//!    `MemoryConflict` on a hot address is redispatched after a
//!    jittered exponential delay (measured in absorbed-completion
//!    ticks). Past a heat threshold the task is *parked* behind the
//!    conflicting committer instead of re-racing it.
//! 3. **Graceful degradation** — the governor collapses to
//!    effectively-sequential issue (whoever holds the frontier runs its
//!    tasks inline through the substrate) when the windowed misspeculation
//!    rate stays above a configurable ceiling, or when AIMD walks the
//!    window down to 1 (a window-1 *pipelined* loop pays cross-thread
//!    dispatch for zero speculation, so inline issue strictly
//!    dominates it).
//! 4. **Throughput pay-off checks** — speculation must *earn* the
//!    pipeline. The run starts with a degraded warm-up stretch that
//!    measures sequential inter-commit time, then periodically probes
//!    a small pipelined window. A probe that commits slower than the
//!    sequential estimate — or that conflicts at all — drops straight
//!    back to degraded; one that keeps up graduates to normal
//!    pipelining, where periodic reviews keep comparing. This is what
//!    bounds the whole run at roughly ≥ 1× sequential even for loops
//!    whose tasks are too small to ever win.
//!
//! Backoff *decisions* (delay ticks, park targets, jitter) are a pure
//! seeded function of `(task, attempt, address)` — deterministic given
//! the observed conflict sequence. The pay-off checks consume a caller
//! supplied clock: the native executor feeds wall time (making governed
//! native scheduling timing-dependent, like the substrate's conflict
//! counts, while the committed output stays byte-identical), and the
//! simulator twin feeds virtual time, which keeps simulated governor
//! runs fully deterministic.
//!
//! The governor is deliberately trace-free: it returns
//! [`GovernorEvent`]s and lets the caller translate them into
//! `TraceEvent`s, so the native executor and the simulator twin share
//! one controller.

use std::collections::{HashMap, VecDeque};

use serde::{Deserialize, Serialize};

use super::faults::splitmix64;
use crate::profile::ConflictProfile;

/// Commits a speculation probe runs before its throughput verdict.
/// Short on purpose: a probe pays worker wakeups, cross-thread
/// dispatch, and a straggler drain, so with `reprobe_period` degraded
/// commits between probes the probe tax on a loop that never profits
/// from speculation stays in the low single-digit percent.
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

/// Base redispatch delay, in absorbed-completion ticks, for a
/// conflict-squashed task, and the ceiling its exponential ramp stops
/// at.
const BACKOFF_BASE: u64 = 2;
const MAX_BACKOFF: u64 = 64;

/// Sliding-window length (frontier outcomes) of the misspeculation
/// rate.
const HISTORY: usize = 32;

/// Seed of the deterministic backoff jitter.
const JITTER_SEED: u64 = 0x5ec_90b3;

/// Knobs for the speculation governor — the four that a preset, the
/// tuner or a test really varies; the AIMD step sizes, the backoff ramp,
/// the rate history and the jitter seed are constants of this module.
/// All fields are plain integers so the config stays `Copy + Eq` and
/// serializes into run manifests.
///
/// The default is calibrated against the PR 6 ungoverned baseline
/// (BENCHMARKS.md): storm workloads (vpr, twolf, parser) run ~40-50%
/// conflict rates at 8 threads, so the degrade ceiling sits well below
/// that while staying above the noise floor of clean workloads, and
/// the reprobe period is long enough that probe overhead cannot drag a
/// degraded loop below ~0.9× sequential.
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
    /// Commits to run degraded (inline, window=1) before re-probing
    /// speculation; also the length of the initial calibration stretch
    /// and the review cadence while pipelined. Clamped to ≥ 1.
    pub reprobe_period: u32,
    /// Squashes on one address before the next victim is parked behind
    /// the conflicting committer instead of re-raced with a delay.
    pub park_threshold: u32,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        Self {
            window: 64,
            degrade_ceiling: 250,
            reprobe_period: 2048,
            park_threshold: 3,
        }
    }
}

impl GovernorConfig {
    /// Returns the config with the maximum speculation window replaced.
    #[must_use]
    pub fn with_window(mut self, window: u32) -> Self {
        self.window = window;
        self
    }

    /// A preset derived from a static [`ConflictProfile`], so a
    /// governed run starts near the steady state the AIMD controller
    /// would otherwise search for from the default window.
    ///
    /// The mapping is monotone in the predicted density `d` (permille,
    /// at the profile's replication factor):
    ///
    /// * the initial window cap approximates the AIMD fixed point — a
    ///   conflict roughly every `1/d` commits supports a window of
    ///   about `1000 / (4·d)` before shrinks outpace grows — clamped
    ///   to `[1, default window]`;
    /// * hot loops (`d` ≥ 150‰) park after the first repeat squash
    ///   instead of re-racing, and storm loops (`d` ≥ the degrade
    ///   ceiling) double the reprobe period, since probes there are
    ///   nearly certain to lose their throughput verdict.
    ///
    /// A quiet profile (no conflict-carrying region) returns the
    /// default config unchanged.
    ///
    /// ```
    /// use seqpar_runtime::{ConflictProfile, GovernorConfig, RegionConflict};
    ///
    /// // A storm-grade loop: ~67% of iterations conflict at width 6.
    /// let hot = ConflictProfile::new(
    ///     vec![RegionConflict {
    ///         region: "rows".to_string(),
    ///         carried_freq: 0.2,
    ///         accesses: 4,
    ///     }],
    ///     100,
    /// )
    /// .scaled(6);
    /// let preset = GovernorConfig::preset_for(&hot);
    /// // The window collapses to the AIMD fixed point instead of the
    /// // cold-start 64 (1000 / (4 · 672) rounds to zero; clamped to 1) ...
    /// assert_eq!(preset.window, 1);
    /// // ... repeat squash victims park immediately ...
    /// assert_eq!(preset.park_threshold, 1);
    /// // ... and storm-grade density doubles the reprobe period.
    /// assert_eq!(preset.reprobe_period, GovernorConfig::default().reprobe_period * 2);
    ///
    /// // Quiet loops keep the cold-start defaults.
    /// let quiet = ConflictProfile::new(vec![], 100);
    /// assert_eq!(GovernorConfig::preset_for(&quiet), GovernorConfig::default());
    /// ```
    #[must_use]
    pub fn preset_for(profile: &ConflictProfile) -> Self {
        let base = Self::default();
        let d = profile.density_permille();
        if d == 0 {
            return base;
        }
        let window = (1000 / (4 * d.max(1))).clamp(1, base.window);
        let park_threshold = if d >= 150 {
            1
        } else if d >= 50 {
            2
        } else {
            base.park_threshold
        };
        let reprobe_period = if d >= base.degrade_ceiling {
            base.reprobe_period * 2
        } else {
            base.reprobe_period
        };
        Self {
            window,
            park_threshold,
            reprobe_period,
            ..base
        }
    }

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
    /// Collapses to degraded (sequential-issue) mode. The initial
    /// calibration stretch is a posture, not a collapse, and is not
    /// counted here.
    pub degrades: u64,
    /// Speculation re-probes attempted from degraded mode.
    pub reprobes: u64,
    /// Conflict redispatches delayed by exponential backoff.
    pub backoffs: u64,
    /// Conflict redispatches parked behind the conflicting committer.
    pub parks: u64,
    /// Tasks committed inline while degraded (calibration included).
    pub degraded_commits: u64,
    /// Speculation window when the run finished.
    pub final_window: u32,
    /// Smallest speculation window the run ever reached. Always 1 for
    /// a governed run (the warm-up stretch runs at window 1).
    pub min_window: u32,
}

/// How a conflict-squashed task should be redispatched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BackoffDecision {
    /// Requeue immediately (frontier task, or no backoff warranted).
    Immediate,
    /// Requeue after this many absorbed-completion ticks.
    Delay(u64),
    /// Hold until the named task has committed (serialize behind it).
    Park { behind: u32 },
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

/// Controller mode. `Probing` exists so one conflict (or a losing
/// throughput verdict) right after a re-probe drops straight back to
/// degraded instead of oscillating at a small pipelined window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Pipelined dispatch under the dynamic window cap; `since` counts
    /// commits since entry, for the periodic throughput review.
    Normal { since: u32 },
    /// Pipelined at a small window; `left` commits until the verdict.
    Probing { left: u32 },
    /// Sequential inline issue; `left` commits until the next probe.
    Degraded { left: u32 },
}

/// Exponential moving average over inter-commit gaps, `7/8` decay.
fn ema(prev: Option<u64>, sample: u64) -> u64 {
    match prev {
        None => sample,
        Some(p) => (p.saturating_mul(7).saturating_add(sample)) / 8,
    }
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
    /// Squash counts per conflicting address (the "hot address" map).
    heat: HashMap<u64, u32>,
    /// EMA of inter-commit time while degraded (sequential estimate).
    seq_gap: Option<u64>,
    /// Average inter-commit time over the current pipelined stretch:
    /// `(now - stretch_t0) / stretch_n`. Pipelined commits arrive in
    /// bursts (the frontier drains several buffered completions at
    /// once), so a per-gap EMA would be dominated by near-zero
    /// intra-burst gaps and flatter any throughput verdict; elapsed
    /// time over the whole stretch — including the pipeline fill paid
    /// at its start — is what actually competes with sequential issue.
    pipe_gap: Option<u64>,
    /// Clock value when the current pipelined stretch began (the commit
    /// that launched the probe, or the last periodic review).
    stretch_t0: Option<u64>,
    /// Commits since `stretch_t0`.
    stretch_n: u64,
    /// Clock value of the last commit fed in.
    last_commit: Option<u64>,
    /// Set across mode switches: the next gap spans two regimes and
    /// would poison whichever EMA it landed in.
    skip_sample: bool,
    stats: GovernorStats,
}

impl Governor {
    pub(crate) fn new(cfg: GovernorConfig) -> Self {
        Self {
            cfg,
            // The run opens with a degraded calibration stretch: window
            // 1, inline issue, measuring the sequential commit rate the
            // pay-off checks compare against. Speculation starts when
            // the first probe earns it.
            window: 1,
            mode: Mode::Degraded { left: cfg.period() },
            outcomes: VecDeque::with_capacity(HISTORY),
            conflicts_in_history: 0,
            clean_streak: 0,
            cooldown: 0,
            heat: HashMap::new(),
            seq_gap: None,
            pipe_gap: None,
            stretch_t0: None,
            stretch_n: 0,
            last_commit: None,
            skip_sample: false,
            stats: GovernorStats {
                final_window: 1,
                min_window: 1,
                ..GovernorStats::default()
            },
        }
    }

    /// Current speculation window cap (always ≥ 1).
    pub(crate) fn window(&self) -> u32 {
        self.window
    }

    /// Whether the loop is collapsed to sequential inline issue.
    pub(crate) fn degraded(&self) -> bool {
        matches!(self.mode, Mode::Degraded { .. })
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
        self.outcomes.clear();
        self.conflicts_in_history = 0;
        self.skip_sample = true;
        self.stats.degrades += 1;
        events.push(GovernorEvent::Degrade {
            rate_permille: rate,
        });
    }

    /// Whether pipelined commits are keeping up with the sequential
    /// estimate. Missing data on either side gives speculation the
    /// benefit of the doubt.
    fn pipeline_pays(&self) -> bool {
        // The pipelined gap must beat the sequential estimate by a
        // clear margin (>= 1/9, i.e. about 11% faster), not merely tie
        // it. A probe's verdict averages a handful of noisy samples;
        // without the margin, jitter on a loop with no real overlap win
        // intermittently promotes, and the pipelined stretch that
        // follows runs below the sequential baseline until the next
        // periodic review catches it. Ties go to sequential — a real
        // pipeline win scales with worker count and clears the margin
        // by construction.
        match (self.pipe_gap, self.seq_gap) {
            (Some(pipe), Some(seq)) => pipe.saturating_mul(9) <= seq.saturating_mul(8),
            _ => true,
        }
    }

    /// Feeds one conflict squash (a `MemoryConflict` at or before the
    /// frontier) into the controller. `addr` is the conflicting address
    /// when the substrate recorded one, `by` the squashing task,
    /// `at_frontier` whether the victim is the next task to commit
    /// (frontier tasks always redispatch immediately — delaying the
    /// frontier would stall the pipeline for nothing).
    ///
    /// Only speculation failures feed this path; fault-recovery
    /// squashes (panics, corruption, spurious) stay with the
    /// commit unit's retry budget so the two mechanisms compose instead
    /// of fighting.
    pub(crate) fn on_conflict(
        &mut self,
        task: u32,
        attempt: u32,
        addr: Option<u64>,
        by: Option<u32>,
        at_frontier: bool,
    ) -> (BackoffDecision, Vec<GovernorEvent>) {
        let mut events = Vec::new();
        self.clean_streak = 0;
        match self.mode {
            Mode::Normal { .. } => {
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
                // Two routes into degradation. Rate: a full history
                // above the misspeculation ceiling. Floor: AIMD walked
                // the window down to 1 — a window-1 *pipelined* loop
                // pays cross-thread dispatch for zero speculation, so
                // inline sequential issue strictly dominates it.
                if self.window == 1
                    || (self.outcomes.len() == HISTORY
                        && self.rate_permille() >= self.cfg.degrade_ceiling)
                {
                    self.enter_degraded(&mut events);
                }
            }
            // One conflict during a probe proves the storm is still
            // live: drop straight back instead of oscillating at a
            // small pipelined window (which runs below sequential).
            Mode::Probing { .. } => self.enter_degraded(&mut events),
            // Stragglers from before the collapse; already sequential.
            Mode::Degraded { .. } => {}
        }

        let decision = if at_frontier || self.degraded() {
            BackoffDecision::Immediate
        } else {
            let heat = match addr {
                Some(a) => {
                    let h = self.heat.entry(a).or_insert(0);
                    *h += 1;
                    *h
                }
                // No recorded address: scale off the replay count.
                None => attempt.saturating_add(1),
            };
            if heat > self.cfg.park_threshold {
                if let Some(behind) = by {
                    self.stats.parks += 1;
                    return (BackoffDecision::Park { behind }, events);
                }
            }
            let exp = heat.saturating_sub(1).min(16);
            let raw = BACKOFF_BASE << exp;
            let jitter = splitmix64(
                JITTER_SEED
                    ^ u64::from(task).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ u64::from(attempt).wrapping_mul(0xBF58_476D_1CE4_E5B9),
            ) % (BACKOFF_BASE + 1);
            self.stats.backoffs += 1;
            BackoffDecision::Delay(raw.min(MAX_BACKOFF) + jitter)
        };
        (decision, events)
    }

    /// Feeds a whole batch-drained frontier run into the controller in
    /// one call — the commit frontier pays one governor update per
    /// *batch* instead of per task. Internally this advances the
    /// automaton once per committed task (window growth, degradation
    /// reviews, and reprobe cadence are all counted in commits, so the
    /// per-commit stepping must be preserved bit-for-bit); only the
    /// clock is shared, which is faithful: a batch drains within one
    /// frontier pass, so its commits are effectively simultaneous.
    pub(crate) fn on_commit_batch(&mut self, count: u64, now: u64) -> Vec<GovernorEvent> {
        let mut events = Vec::new();
        for _ in 0..count {
            events.extend(self.on_commit(now));
        }
        events
    }

    /// Feeds one committed task into the controller. `now` is a
    /// monotonic clock in arbitrary units — wall nanoseconds from the
    /// native executor, virtual time from the simulator twin — used for
    /// the throughput pay-off checks.
    pub(crate) fn on_commit(&mut self, now: u64) -> Vec<GovernorEvent> {
        let mut events = Vec::new();
        self.cooldown = self.cooldown.saturating_sub(1);
        let gap = match (self.last_commit, self.skip_sample) {
            (Some(prev), false) => Some(now.saturating_sub(prev)),
            _ => None,
        };
        self.last_commit = Some(now);
        self.skip_sample = false;
        if let Some(g) = gap {
            if self.degraded() {
                self.seq_gap = Some(ema(self.seq_gap, g));
            }
        }
        if !self.degraded() {
            if let Some(t0) = self.stretch_t0 {
                self.stretch_n += 1;
                self.pipe_gap = Some(now.saturating_sub(t0) / self.stretch_n);
            }
        }
        match &mut self.mode {
            Mode::Degraded { left } => {
                *left = left.saturating_sub(1);
                let probe = *left == 0;
                self.stats.degraded_commits += 1;
                if probe {
                    // Probe speculation: pipeline a small window and
                    // measure it fresh against the sequential estimate.
                    self.mode = Mode::Probing { left: PROBE_LEN };
                    self.set_window(PROBE_WINDOW);
                    self.outcomes.clear();
                    self.conflicts_in_history = 0;
                    self.pipe_gap = None;
                    self.stretch_t0 = Some(now);
                    self.stretch_n = 0;
                    self.skip_sample = true;
                    self.stats.reprobes += 1;
                    events.push(GovernorEvent::Reprobe {
                        window: self.window,
                    });
                }
            }
            Mode::Probing { left } => {
                *left = left.saturating_sub(1);
                let done = *left == 0;
                self.record_outcome(false);
                if done {
                    // The conflict check already passed (a probe
                    // conflict re-degrades on the spot); the verdict
                    // left is throughput.
                    if self.pipeline_pays() {
                        self.mode = Mode::Normal { since: 0 };
                        self.clean_streak = 0;
                        self.stretch_t0 = Some(now);
                        self.stretch_n = 0;
                    } else {
                        self.enter_degraded(&mut events);
                    }
                }
            }
            Mode::Normal { since } => {
                *since += 1;
                let review = *since % self.cfg.period() == 0;
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
                // Periodic review: conflicts aside, a pipeline that
                // commits slower than the sequential estimate is not
                // paying for its dispatch — collapse it.
                if review {
                    if self.pipeline_pays() {
                        self.stretch_t0 = Some(now);
                        self.stretch_n = 0;
                    } else {
                        self.enter_degraded(&mut events);
                    }
                }
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic clock: every `tick` advances `gap` units and feeds
    /// one commit.
    struct Clock {
        now: u64,
    }

    impl Clock {
        fn new() -> Self {
            Self { now: 0 }
        }

        fn commit(&mut self, g: &mut Governor, gap: u64) -> Vec<GovernorEvent> {
            self.now += gap;
            g.on_commit(self.now)
        }
    }

    fn storm(g: &mut Governor, conflicts: u32) {
        for t in 0..conflicts {
            let _ = g.on_conflict(t, 0, Some(u64::from(t % 4)), Some(t.wrapping_sub(1)), false);
        }
    }

    /// Drives a fresh governor through warm-up and a winning probe into
    /// Normal mode (pipelined gaps at half the sequential estimate: a
    /// clear win over the promotion margin).
    fn promote(g: &mut Governor, clock: &mut Clock) {
        let period = g.cfg.period();
        for _ in 0..period {
            let _ = clock.commit(g, 10);
        }
        assert!(!g.degraded(), "warm-up must end in a probe");
        for _ in 0..PROBE_LEN {
            let _ = clock.commit(g, 5);
        }
        assert!(
            matches!(g.mode, Mode::Normal { .. }),
            "a clearly faster probe must graduate to Normal"
        );
    }

    #[test]
    fn tied_probe_stays_degraded() {
        // Equal throughput must NOT promote: with no real overlap win,
        // pipelining only adds dispatch cost, and probe samples are too
        // noisy to trust a tie.
        let cfg = GovernorConfig::default();
        let mut g = Governor::new(cfg);
        let mut clock = Clock::new();
        for _ in 0..cfg.reprobe_period {
            let _ = clock.commit(&mut g, 10);
        }
        assert!(!g.degraded(), "warm-up must end in a probe");
        for _ in 0..PROBE_LEN {
            let _ = clock.commit(&mut g, 10);
        }
        assert!(g.degraded(), "an equal-throughput probe collapses back");
        assert_eq!(g.stats().degrades, 1);
    }

    /// Grows the window to the configured max with clean commits fast
    /// enough to keep clearing the periodic throughput review.
    fn grow_to_max(g: &mut Governor, clock: &mut Clock) {
        for _ in 0..20_000 {
            if g.window() == g.cfg.max_window() {
                return;
            }
            let _ = clock.commit(g, 5);
        }
        panic!("window never reached the max");
    }

    #[test]
    fn run_starts_degraded_and_speculation_must_earn_the_pipeline() {
        let cfg = GovernorConfig::default();
        let mut g = Governor::new(cfg);
        assert!(g.degraded(), "calibration posture is degraded");
        assert_eq!(g.window(), 1);
        let mut clock = Clock::new();
        promote(&mut g, &mut clock);
        assert_eq!(g.window(), PROBE_WINDOW, "probe window carries into Normal");
        let stats = g.stats();
        assert_eq!(stats.reprobes, 1);
        assert_eq!(stats.degrades, 0, "the initial posture is not a collapse");
        assert_eq!(stats.degraded_commits, u64::from(cfg.reprobe_period));
    }

    #[test]
    fn slow_pipeline_redegrades_without_any_conflicts() {
        // The sub-granularity case: zero conflicts, but pipelined
        // commits take 4x the sequential gap — the probe must fail on
        // throughput alone.
        let cfg = GovernorConfig::default();
        let mut g = Governor::new(cfg);
        let mut clock = Clock::new();
        for _ in 0..cfg.reprobe_period {
            let _ = clock.commit(&mut g, 10);
        }
        assert!(!g.degraded(), "probing after warm-up");
        for _ in 0..PROBE_LEN {
            let _ = clock.commit(&mut g, 40);
        }
        assert!(g.degraded(), "a losing probe collapses back");
        let stats = g.stats();
        assert_eq!(stats.degrades, 1);
        assert_eq!(stats.reprobes, 1);
        assert_eq!(g.window(), 1);
    }

    #[test]
    fn fast_pipeline_stays_normal_through_reviews() {
        let cfg = GovernorConfig::default();
        let mut g = Governor::new(cfg);
        let mut clock = Clock::new();
        for _ in 0..cfg.reprobe_period {
            let _ = clock.commit(&mut g, 10);
        }
        // Probe and two full review periods at 3x the sequential speed.
        for _ in 0..(PROBE_LEN + 2 * cfg.reprobe_period) {
            let _ = clock.commit(&mut g, 3);
            assert!(!g.degraded(), "a paying pipeline is never collapsed");
        }
        assert_eq!(g.window(), cfg.window, "clean commits grow to the max");
    }

    #[test]
    fn window_never_leaves_bounds() {
        let cfg = GovernorConfig::default().with_window(16);
        let mut g = Governor::new(cfg);
        let mut clock = Clock::new();
        promote(&mut g, &mut clock);
        grow_to_max(&mut g, &mut clock);
        // Hammer conflicts: window must shrink but never drop below 1.
        for t in 0..500 {
            let _ = g.on_conflict(t, 1, Some(7), Some(t.saturating_sub(1)), false);
            assert!(g.window() >= 1, "window fell below 1");
        }
        // Hammer clean commits: window must grow but never exceed max.
        // Model a loop whose pipeline genuinely runs 2x the sequential
        // pace, so the post-storm reprobe clears the promotion margin
        // and growth resumes.
        for _ in 0..20_000 {
            let gap = if g.degraded() { 10 } else { 5 };
            let _ = clock.commit(&mut g, gap);
            assert!(g.window() <= 16, "window exceeded the configured max");
        }
        assert_eq!(g.window(), 16, "sustained clean commits restore the max");
        let stats = g.stats();
        assert!(stats.shrinks >= 1);
        assert!(stats.grows >= 1);
        assert_eq!(stats.min_window, 1);
        assert_eq!(stats.final_window, 16);
    }

    #[test]
    fn shrink_has_hysteresis() {
        let mut g = Governor::new(GovernorConfig {
            window: 64,
            degrade_ceiling: 1001, // rate alone never degrades here
            ..GovernorConfig::default()
        });
        let mut clock = Clock::new();
        promote(&mut g, &mut clock);
        grow_to_max(&mut g, &mut clock);
        let _ = g.on_conflict(0, 0, Some(1), None, false);
        assert_eq!(g.window(), 32, "first conflict halves the window");
        // A burst inside the cooldown is one signal, not many.
        let _ = g.on_conflict(1, 0, Some(1), None, false);
        let _ = g.on_conflict(2, 0, Some(1), None, false);
        assert_eq!(g.window(), 32, "burst within cooldown shrinks once");
        for _ in 0..32 {
            let _ = clock.commit(&mut g, 10);
        }
        // The clean run both expires the cooldown and earns one growth
        // step (32 -> 36); the re-armed shrink then halves from there.
        let grown = g.window();
        assert!(grown > 32, "a clean window's worth of commits grows");
        let _ = g.on_conflict(3, 0, Some(1), None, false);
        assert_eq!(g.window(), grown / 2, "cooldown expiry re-arms the shrink");
    }

    #[test]
    fn sustained_storm_degrades_and_probe_conflict_redegrades() {
        let cfg = GovernorConfig::default();
        let mut g = Governor::new(cfg);
        let mut clock = Clock::new();
        promote(&mut g, &mut clock);
        storm(&mut g, HISTORY as u32 + 4);
        assert!(g.degraded(), "a sustained storm must degrade");
        assert_eq!(g.window(), 1);
        // reprobe_period degraded commits later, the governor probes.
        for _ in 0..cfg.reprobe_period {
            let _ = clock.commit(&mut g, 10);
        }
        assert!(!g.degraded(), "reprobe leaves degraded mode");
        assert_eq!(g.window(), PROBE_WINDOW, "probes pipeline a small window");
        // One conflict during the probe re-degrades immediately.
        let _ = g.on_conflict(999, 0, Some(1), Some(998), false);
        assert!(g.degraded(), "probe conflict re-degrades without dithering");
        let stats = g.stats();
        assert!(stats.degrades >= 2);
        assert_eq!(stats.reprobes, 2, "warm-up probe plus the storm reprobe");
    }

    #[test]
    fn clean_probe_returns_to_normal_growth() {
        let cfg = GovernorConfig::default();
        let mut g = Governor::new(cfg);
        let mut clock = Clock::new();
        promote(&mut g, &mut clock);
        storm(&mut g, HISTORY as u32 + 4);
        for _ in 0..cfg.reprobe_period {
            let _ = clock.commit(&mut g, 10);
        }
        // Survive the probe cleanly, clearly faster than sequential.
        for _ in 0..PROBE_LEN {
            let _ = clock.commit(&mut g, 5);
        }
        assert!(!g.degraded());
        // Normal mode now grows additively toward the max again.
        let before = g.window();
        for _ in 0..u64::from(before) {
            let _ = clock.commit(&mut g, 10);
        }
        assert!(g.window() > before, "clean windows grow the cap");
    }

    #[test]
    fn hot_address_escalates_to_park() {
        let cfg = GovernorConfig::default();
        let mut g = Governor::new(cfg);
        let mut clock = Clock::new();
        promote(&mut g, &mut clock);
        let mut delays = Vec::new();
        for attempt in 0..cfg.park_threshold {
            let (d, _) = g.on_conflict(10, attempt, Some(42), Some(9), false);
            match d {
                BackoffDecision::Delay(t) => delays.push(t),
                other => panic!("expected a delay below the threshold, got {other:?}"),
            }
        }
        assert!(
            delays
                .windows(2)
                .all(|w| w[0] <= w[1] || w[1] >= BACKOFF_BASE),
            "delays follow an exponential (jittered) ramp: {delays:?}"
        );
        let (d, _) = g.on_conflict(10, cfg.park_threshold, Some(42), Some(9), false);
        assert_eq!(
            d,
            BackoffDecision::Park { behind: 9 },
            "past the threshold the victim serializes behind the committer"
        );
        assert_eq!(g.stats().parks, 1);
    }

    #[test]
    fn frontier_conflicts_redispatch_immediately() {
        let mut g = Governor::new(GovernorConfig::default());
        let mut clock = Clock::new();
        promote(&mut g, &mut clock);
        let (d, _) = g.on_conflict(0, 0, Some(1), None, true);
        assert_eq!(d, BackoffDecision::Immediate, "never delay the frontier");
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let run = || {
            let mut g = Governor::new(GovernorConfig::default());
            let mut clock = Clock::new();
            promote(&mut g, &mut clock);
            g.on_conflict(3, 1, Some(5), None, false).0
        };
        assert_eq!(run(), run(), "same seed, same decision");
        assert!(
            matches!(run(), BackoffDecision::Delay(_)),
            "a first non-frontier conflict backs off"
        );
    }

    #[test]
    fn degenerate_configs_are_clamped() {
        let mut g = Governor::new(GovernorConfig {
            window: 0,
            reprobe_period: 0,
            ..GovernorConfig::default()
        });
        assert_eq!(g.window(), 1, "zero max window clamps to 1");
        let _ = g.on_conflict(0, 0, None, None, false);
        assert_eq!(g.window(), 1);
        let mut clock = Clock::new();
        for _ in 0..10 {
            let _ = clock.commit(&mut g, 10);
        }
        assert_eq!(g.window(), 1, "window never exceeds the clamped max");
    }

    fn profile_with_density(freq: f64, replication: usize) -> ConflictProfile {
        ConflictProfile::new(
            vec![crate::profile::RegionConflict {
                region: "acc".to_string(),
                carried_freq: freq,
                accesses: 2,
            }],
            1000,
        )
        .scaled(replication)
    }

    #[test]
    fn preset_for_quiet_profile_is_the_default() {
        let quiet = ConflictProfile::new(vec![], 1000).scaled(8);
        assert_eq!(
            GovernorConfig::preset_for(&quiet),
            GovernorConfig::default()
        );
    }

    #[test]
    fn preset_window_shrinks_monotonically_with_density() {
        let cold = GovernorConfig::preset_for(&profile_with_density(0.01, 2));
        let warm = GovernorConfig::preset_for(&profile_with_density(0.02, 4));
        let storm = GovernorConfig::preset_for(&profile_with_density(1.0, 8));
        assert!(cold.window >= warm.window && warm.window > storm.window);
        assert_eq!(storm.window, 1, "a certain-conflict loop starts at 1");
        assert_eq!(storm.park_threshold, 1, "storms park on the first repeat");
        assert_eq!(
            storm.reprobe_period,
            GovernorConfig::default().reprobe_period * 2
        );
        // Every preset stays inside the default's envelope.
        for cfg in [cold, warm, storm] {
            assert!(cfg.window >= 1 && cfg.window <= GovernorConfig::default().window);
            assert_eq!(
                cfg.degrade_ceiling,
                GovernorConfig::default().degrade_ceiling
            );
        }
    }
}
