//! Execution plans: which core(s) run each pipeline stage.

use crate::json;

/// How one stage's tasks are placed on cores.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StageAssignment {
    /// Every task of the stage runs, in iteration order, on one core.
    ///
    /// This is the paper's phase A / phase C pattern: sequential stages
    /// carrying loop-carried dependences stay on a single core.
    Serial {
        /// The core hosting the stage.
        core: usize,
    },
    /// Tasks are assigned dynamically to whichever of `cores` has the
    /// least work enqueued (paper §3.2) — the replicated parallel stage.
    Parallel {
        /// The pool of cores sharing the stage.
        cores: Vec<usize>,
    },
    /// Tasks are assigned statically round-robin by iteration number —
    /// the ablation baseline against the dynamic least-loaded heuristic.
    RoundRobin {
        /// The pool of cores sharing the stage.
        cores: Vec<usize>,
    },
}

impl StageAssignment {
    /// A serial assignment on `core`.
    pub fn serial(core: usize) -> Self {
        StageAssignment::Serial { core }
    }

    /// A parallel assignment over `cores`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty.
    pub fn parallel(cores: Vec<usize>) -> Self {
        assert!(
            !cores.is_empty(),
            "a parallel stage needs at least one core"
        );
        StageAssignment::Parallel { cores }
    }

    /// A static round-robin assignment over `cores`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty.
    pub fn round_robin(cores: Vec<usize>) -> Self {
        assert!(
            !cores.is_empty(),
            "a parallel stage needs at least one core"
        );
        StageAssignment::RoundRobin { cores }
    }

    /// The cores this assignment may use.
    pub fn cores(&self) -> Vec<usize> {
        match self {
            StageAssignment::Serial { core } => vec![*core],
            StageAssignment::Parallel { cores } | StageAssignment::RoundRobin { cores } => {
                cores.clone()
            }
        }
    }

    /// The highest core index referenced.
    pub fn max_core(&self) -> usize {
        match self {
            StageAssignment::Serial { core } => *core,
            StageAssignment::Parallel { cores } | StageAssignment::RoundRobin { cores } => {
                cores.iter().copied().max().unwrap_or(0)
            }
        }
    }
}

/// The per-stage placement for one parallelized loop.
///
/// Equality compares the stage assignments only; the lint stamp (see
/// [`ExecutionPlan::stamp_linted`]) is bookkeeping, not identity.
#[derive(Clone, Debug)]
pub struct ExecutionPlan {
    stages: Vec<StageAssignment>,
    /// Whether the plan passed the static soundness lint. The stages
    /// are private and `stamp_linted` is the only `&mut self` method, so
    /// a stamped plan keeps the shape the lint saw.
    linted: bool,
}

impl PartialEq for ExecutionPlan {
    fn eq(&self, other: &Self) -> bool {
        self.stages == other.stages
    }
}

// Equality is over the stage assignments only (see `PartialEq`), and
// `StageAssignment` equality is total.
impl Eq for ExecutionPlan {}

impl ExecutionPlan {
    /// Creates a plan from per-stage assignments (index = stage id).
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    pub fn new(stages: Vec<StageAssignment>) -> Self {
        assert!(!stages.is_empty(), "a plan needs at least one stage");
        Self {
            stages,
            linted: false,
        }
    }

    /// The classic A/B/C plan of §3.2 for a machine with `cores` cores:
    /// phase A serial on core 0, phase C serial on the last core, phase B
    /// replicated across the remaining cores (or sharing core 0 on small
    /// machines).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn three_phase(cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        match cores {
            1 => Self::new(vec![
                StageAssignment::serial(0),
                StageAssignment::parallel(vec![0]),
                StageAssignment::serial(0),
            ]),
            2 => Self::new(vec![
                StageAssignment::serial(0),
                StageAssignment::parallel(vec![1]),
                StageAssignment::serial(0),
            ]),
            3 => Self::new(vec![
                StageAssignment::serial(0),
                StageAssignment::parallel(vec![1]),
                StageAssignment::serial(2),
            ]),
            n => Self::new(vec![
                StageAssignment::serial(0),
                StageAssignment::parallel((1..n - 1).collect()),
                StageAssignment::serial(n - 1),
            ]),
        }
    }

    /// The A/B/C plan with a *statically* scheduled phase B (round-robin
    /// by iteration) — the ablation baseline for the paper's dynamic
    /// least-loaded assignment.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn three_phase_static(cores: usize) -> Self {
        let dynamic = Self::three_phase(cores);
        let stages = dynamic
            .stages
            .into_iter()
            .map(|s| match s {
                StageAssignment::Parallel { cores } => StageAssignment::RoundRobin { cores },
                other => other,
            })
            .collect();
        Self::new(stages)
    }

    /// A TLS-style plan: one stage, iterations spread across all cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn tls(cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        Self::new(vec![StageAssignment::parallel((0..cores).collect())])
    }

    /// The assignment of `stage`.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn stage(&self, stage: u8) -> &StageAssignment {
        &self.stages[stage as usize]
    }

    /// The number of stages.
    pub fn stage_count(&self) -> u8 {
        self.stages.len() as u8
    }

    /// The first stage whose core pool is empty, if any.
    ///
    /// The [`StageAssignment::parallel`]/[`StageAssignment::round_robin`]
    /// constructors reject empty pools, but a plan can still arrive with
    /// one through a raw enum literal; the simulator and the native
    /// executor both validate with this instead of panicking
    /// mid-schedule.
    pub fn first_empty_stage(&self) -> Option<u8> {
        self.stages.iter().enumerate().find_map(|(i, s)| match s {
            StageAssignment::Serial { .. } => None,
            StageAssignment::Parallel { cores } | StageAssignment::RoundRobin { cores } => {
                cores.is_empty().then_some(i as u8)
            }
        })
    }

    /// The number of cores the plan requires (highest index + 1).
    pub fn cores_required(&self) -> usize {
        self.stages
            .iter()
            .map(StageAssignment::max_core)
            .max()
            .unwrap_or(0)
            + 1
    }

    /// A structural fingerprint of the stage assignments (FNV-1a over
    /// the assignment kinds and core indices). Two plans with equal
    /// stage structure have equal fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = 0xcbf29ce484222325u64;
        let mut mix = |v: u64| {
            hash ^= v;
            hash = hash.wrapping_mul(0x100000001b3);
        };
        for s in &self.stages {
            match s {
                StageAssignment::Serial { core } => {
                    mix(1);
                    mix(*core as u64);
                }
                StageAssignment::Parallel { cores } => {
                    mix(2);
                    for c in cores {
                        mix(*c as u64);
                    }
                }
                StageAssignment::RoundRobin { cores } => {
                    mix(3);
                    for c in cores {
                        mix(*c as u64);
                    }
                }
            }
            mix(u64::MAX); // stage separator
        }
        hash
    }

    /// Records that this plan passed the static soundness lint.
    pub fn stamp_linted(&mut self) {
        self.linted = true;
    }

    /// Whether the plan carries a lint stamp.
    pub fn is_linted(&self) -> bool {
        self.linted
    }

    /// Writes the stage assignments as the JSON array persisted
    /// inside plan artifacts (see `AUTOTUNING.md` for the schema):
    /// `[{"kind": "serial", "core": 0}, {"kind": "parallel",
    /// "cores": [1, 2]}, ...]`. The lint stamp is deliberately not
    /// serialized — a loaded plan must be re-linted before it can claim
    /// a stamp.
    pub fn stages_to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let pool = |cores: &[usize]| {
                cores
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            match s {
                StageAssignment::Serial { core } => {
                    out.push_str(&format!("{{\"kind\": \"serial\", \"core\": {core}}}"));
                }
                StageAssignment::Parallel { cores } => {
                    out.push_str(&format!(
                        "{{\"kind\": \"parallel\", \"cores\": [{}]}}",
                        pool(cores)
                    ));
                }
                StageAssignment::RoundRobin { cores } => {
                    out.push_str(&format!(
                        "{{\"kind\": \"round_robin\", \"cores\": [{}]}}",
                        pool(cores)
                    ));
                }
            }
        }
        out.push(']');
        out
    }

    /// Rebuilds a plan from the parsed `"stages"` array of a plan
    /// artifact — the loading half of [`ExecutionPlan::stages_to_json`].
    /// The result is unstamped: artifact loaders re-lint and re-stamp
    /// via the parallelizer before execution.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural defect: a
    /// non-array value, an unknown stage kind, a missing or non-integer
    /// core index, or an empty plan or core pool.
    pub fn from_json_value(stages: &json::Value) -> Result<Self, String> {
        let arr = stages.as_array().ok_or("stages is not an array")?;
        if arr.is_empty() {
            return Err("a plan needs at least one stage".to_string());
        }
        let core_of = |v: &json::Value| -> Result<usize, String> {
            let n = v.as_f64().ok_or("core index is not a number")?;
            if n.fract() != 0.0 || n < 0.0 {
                return Err(format!("core index {n} is not a non-negative integer"));
            }
            Ok(n as usize)
        };
        let pool_of = |s: &json::Value| -> Result<Vec<usize>, String> {
            let cores = s
                .get("cores")
                .and_then(json::Value::as_array)
                .ok_or("pooled stage missing cores array")?;
            if cores.is_empty() {
                return Err("a parallel stage needs at least one core".to_string());
            }
            cores.iter().map(core_of).collect()
        };
        let mut out = Vec::with_capacity(arr.len());
        for (i, s) in arr.iter().enumerate() {
            let kind = s
                .get("kind")
                .and_then(json::Value::as_str)
                .ok_or_else(|| format!("stage {i} missing kind"))?;
            let assignment = match kind {
                "serial" => StageAssignment::serial(core_of(
                    s.get("core")
                        .ok_or_else(|| format!("stage {i} missing core"))?,
                )?),
                "parallel" => StageAssignment::Parallel { cores: pool_of(s)? },
                "round_robin" => StageAssignment::RoundRobin { cores: pool_of(s)? },
                other => return Err(format!("stage {i} has unknown kind {other:?}")),
            };
            out.push(assignment);
        }
        Ok(Self::new(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_phase_splits_cores_sensibly() {
        let p = ExecutionPlan::three_phase(8);
        assert_eq!(p.stage_count(), 3);
        assert_eq!(p.stage(0), &StageAssignment::serial(0));
        assert_eq!(p.stage(1).cores(), (1..7).collect::<Vec<_>>());
        assert_eq!(p.stage(2), &StageAssignment::serial(7));
        assert_eq!(p.cores_required(), 8);
    }

    #[test]
    fn three_phase_degenerates_gracefully_on_small_machines() {
        let p1 = ExecutionPlan::three_phase(1);
        assert_eq!(p1.cores_required(), 1);
        let p2 = ExecutionPlan::three_phase(2);
        assert_eq!(p2.cores_required(), 2);
        let p3 = ExecutionPlan::three_phase(3);
        assert_eq!(p3.cores_required(), 3);
    }

    #[test]
    fn tls_plan_uses_every_core_in_one_stage() {
        let p = ExecutionPlan::tls(4);
        assert_eq!(p.stage_count(), 1);
        assert_eq!(p.stage(0).cores(), vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn parallel_assignment_rejects_empty_pool() {
        StageAssignment::parallel(vec![]);
    }

    #[test]
    fn max_core_reports_highest_index() {
        assert_eq!(StageAssignment::serial(5).max_core(), 5);
        assert_eq!(StageAssignment::parallel(vec![2, 9, 4]).max_core(), 9);
    }

    #[test]
    fn lint_stamp_tracks_plan_structure() {
        let mut p = ExecutionPlan::three_phase(4);
        assert!(!p.is_linted());
        p.stamp_linted();
        assert!(p.is_linted());
        // Structurally equal plans fingerprint identically; different
        // shapes do not.
        assert_eq!(p.fingerprint(), ExecutionPlan::three_phase(4).fingerprint());
        assert_ne!(p.fingerprint(), ExecutionPlan::three_phase(5).fingerprint());
        assert_ne!(p.fingerprint(), ExecutionPlan::tls(4).fingerprint());
    }

    #[test]
    fn equality_ignores_the_lint_stamp() {
        let plain = ExecutionPlan::three_phase(4);
        let mut stamped = ExecutionPlan::three_phase(4);
        stamped.stamp_linted();
        assert_eq!(plain, stamped);
    }

    #[test]
    fn plan_json_round_trips_and_loads_unstamped() {
        let mut plan = ExecutionPlan::new(vec![
            StageAssignment::serial(0),
            StageAssignment::parallel(vec![1, 2, 3]),
            StageAssignment::round_robin(vec![4]),
        ]);
        plan.stamp_linted();
        let text = plan.stages_to_json();
        let parsed = crate::json::parse(&text).expect("fragment parses");
        let loaded = ExecutionPlan::from_json_value(&parsed).expect("loads");
        assert_eq!(loaded, plan, "stage structure survives the round trip");
        assert_eq!(loaded.fingerprint(), plan.fingerprint());
        assert!(!loaded.is_linted(), "loaded plans must be re-linted");
    }

    #[test]
    fn plan_json_loader_rejects_malformed_stages() {
        let bad = |text: &str| {
            let v = crate::json::parse(text).expect("test input parses");
            ExecutionPlan::from_json_value(&v).unwrap_err()
        };
        assert!(bad("{}").contains("not an array"));
        assert!(bad("[]").contains("at least one stage"));
        assert!(bad("[{\"kind\": \"magic\"}]").contains("unknown kind"));
        assert!(bad("[{\"kind\": \"serial\"}]").contains("missing core"));
        assert!(bad("[{\"kind\": \"serial\", \"core\": 1.5}]").contains("integer"));
        assert!(bad("[{\"kind\": \"parallel\", \"cores\": []}]").contains("at least one core"));
    }

    #[test]
    fn first_empty_stage_finds_raw_empty_pools() {
        assert_eq!(ExecutionPlan::three_phase(4).first_empty_stage(), None);
        let raw = ExecutionPlan::new(vec![
            StageAssignment::serial(0),
            StageAssignment::Parallel { cores: vec![] },
            StageAssignment::serial(1),
        ]);
        assert_eq!(raw.first_empty_stage(), Some(1));
        let rr = ExecutionPlan::new(vec![StageAssignment::RoundRobin { cores: vec![] }]);
        assert_eq!(rr.first_empty_stage(), Some(0));
    }
}
