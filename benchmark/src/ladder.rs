//! The grain ladder: seeded synthetic loops whose bodies do nothing but
//! spin, so that native wall − sequential wall is handoff and commit
//! cost alone, at four grains from ~0.2 µs to ~0.8 ms per task.
//!
//! The loops are built here, not in `crates/workloads`, because they are
//! benchmark inputs: `--seed` decides every iteration's length and which
//! iterations write the carried slot, and the program under test only
//! ever sees the resulting [`VersionedJob`].

use crate::spans::BodySpans;
use seqpar::{IterationRecord, IterationTrace};
use seqpar_workloads::{Prng, VersionedJob};
use std::sync::Arc;

/// One grain of the ladder: `iters` tasks of about `rounds` xorshift
/// rounds each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rung {
    pub name: &'static str,
    pub rounds: u32,
    pub iters: u32,
}

/// The four grains. Task counts shrink as bodies grow so every rung
/// costs a comparable slice of a round.
pub const RUNGS: [Rung; 4] = [
    Rung {
        name: "g64",
        rounds: 64,
        iters: 20_000,
    },
    Rung {
        name: "g1k",
        rounds: 1024,
        iters: 8_000,
    },
    Rung {
        name: "g16k",
        rounds: 16_384,
        iters: 2_000,
    },
    Rung {
        name: "g256k",
        rounds: 262_144,
        iters: 200,
    },
];

/// Whether a rung threads loop-carried state through versioned memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// `slots = 0`: no substrate traffic at all.
    Clean,
    /// `slots = 1`: every task reads and writes one accumulator; the
    /// write is non-silent on a seeded 1-in-16 of iterations.
    Carried,
}

impl Variant {
    pub const ALL: [Variant; 2] = [Variant::Clean, Variant::Carried];

    pub fn suffix(self) -> &'static str {
        match self {
            Variant::Clean => "clean",
            Variant::Carried => "carried",
        }
    }
}

/// `g64.clean`, `g64.carried`, … in ladder order.
pub fn rung_names() -> Vec<String> {
    RUNGS
        .iter()
        .flat_map(|r| Variant::ALL.map(|v| format!("{}.{}", r.name, v.suffix())))
        .collect()
}

/// What one iteration does: spin `rounds` times from `start`, and (on
/// carried rungs) fold the result into the accumulator when `writes`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IterInput {
    pub start: u64,
    pub rounds: u32,
    pub writes: bool,
}

/// The inputs of one rung: a pure function of `(seed, rung)`. Lengths
/// are drawn uniformly from 0.5× to 1.5× the rung's nominal rounds.
pub fn inputs(seed: u64, rung: Rung) -> Vec<IterInput> {
    let salt = u64::from(rung.rounds) << 32 | u64::from(rung.iters);
    let mut rng = Prng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt);
    (0..rung.iters)
        .map(|_| IterInput {
            start: rng.next_u64() | 1,
            rounds: rung.rounds / 2 + rng.below(u64::from(rung.rounds) + 1) as u32,
            writes: rng.below(16) == 0,
        })
        .collect()
}

/// The ladder's whole body: a dependent xorshift chain the compiler can
/// neither vectorise nor shorten.
#[inline(never)]
pub fn spin(mut x: u64, rounds: u32) -> u64 {
    for _ in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Builds one rung as a [`VersionedJob`]. With `spans`, every task body
/// records a `body` span — the traced run's way of splitting `exec.run`
/// into body time and everything else.
pub fn build(seed: u64, rung: Rung, variant: Variant, spans: Option<BodySpans>) -> VersionedJob {
    let inputs = Arc::new(inputs(seed, rung));
    let trace: IterationTrace = inputs
        .iter()
        .map(|i| IterationRecord::new(0, u64::from(i.rounds), 0))
        .collect();
    let compute = {
        let inputs = Arc::clone(&inputs);
        move |iter: u64| {
            let input = inputs[iter as usize];
            let started = spans.as_ref().map(|_| std::time::Instant::now());
            let out = spin(input.start, input.rounds);
            if let (Some(spans), Some(started)) = (&spans, started) {
                spans.record(started);
            }
            (out.to_le_bytes().to_vec(), u64::from(input.rounds))
        }
    };
    let slots = match variant {
        Variant::Clean => 0,
        Variant::Carried => 1,
    };
    let fold = move |iter: u64, bytes: &[u8], state: &mut [u64]| {
        if let Some(acc) = state.first_mut() {
            if inputs[iter as usize].writes {
                let out = u64::from_le_bytes(bytes.try_into().expect("8 output bytes"));
                // `| 1` keeps the addend non-zero, so the write is never silent.
                *acc = acc.wrapping_add(out | 1);
            }
        }
    };
    VersionedJob::accumulating(trace, compute, slots, fold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqpar_runtime::{ExecConfig, ExecutionPlan};

    const TINY: Rung = Rung {
        name: "tiny",
        rounds: 16,
        iters: 300,
    };

    #[test]
    fn inputs_are_a_pure_function_of_seed_and_rung() {
        assert_eq!(inputs(7, TINY), inputs(7, TINY));
        assert_ne!(inputs(7, TINY), inputs(8, TINY));
        assert_ne!(inputs(7, TINY)[..200], inputs(7, RUNGS[0])[..200]);
    }

    #[test]
    fn lengths_stay_within_half_to_one_and_a_half_of_nominal() {
        for rung in RUNGS {
            let inputs = inputs(3, rung);
            assert_eq!(inputs.len(), rung.iters as usize);
            assert!(inputs
                .iter()
                .all(|i| i.rounds >= rung.rounds / 2 && i.rounds <= rung.rounds / 2 * 3));
        }
        let writers = inputs(3, RUNGS[0]).iter().filter(|i| i.writes).count();
        assert!(
            (800..1700).contains(&writers),
            "1-in-16 of 20000, got {writers}"
        );
    }

    #[test]
    fn oracle_equals_body_with_and_without_a_carried_slot() {
        for variant in Variant::ALL {
            let job = build(11, TINY, variant, None);
            let oracle = job.sequential();
            let (report, _mem) = job
                .execute(&ExecutionPlan::tls(1), ExecConfig::default())
                .expect("tiny rung runs");
            assert_eq!(report.output, oracle.output, "{variant:?}");
            let record = 8 * match variant {
                Variant::Clean => 1,
                Variant::Carried => 2,
            };
            assert_eq!(oracle.output.len(), TINY.iters as usize * record);
        }
    }

    #[test]
    fn same_seed_same_bytes() {
        let a = build(5, TINY, Variant::Carried, None).sequential().output;
        let b = build(5, TINY, Variant::Carried, None).sequential().output;
        let c = build(6, TINY, Variant::Carried, None).sequential().output;
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rung_names_are_the_eight_the_metrics_use() {
        let names = rung_names();
        assert_eq!(names.len(), 8);
        assert_eq!(names[0], "g64.clean");
        assert_eq!(names[7], "g256k.carried");
    }
}
