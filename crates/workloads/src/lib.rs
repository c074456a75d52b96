//! SPEC CINT2000-style workload kernels for the `seqpar` framework.
//!
//! The paper's case study (§4) parallelizes the eleven C benchmarks of
//! SPEC CINT2000. The SPEC sources and inputs are proprietary, so this
//! crate reimplements, for each benchmark, *the hot loop the paper
//! parallelizes* as a real Rust kernel with the same dependence
//! structure — a real LZ77 compressor for 164.gzip, a real
//! Burrows–Wheeler pipeline for 256.bzip2, a real alpha-beta searcher for
//! 186.crafty, a real B-tree database for 255.vortex, and so on (see
//! `DESIGN.md` for the substitution argument).
//!
//! Every workload exposes:
//!
//! * the **kernel** itself — an ordinary sequential Rust API, unit-tested
//!   for functional correctness (compressors round-trip, the MCF solver
//!   is optimal on known instances, …);
//! * an instrumented run producing an [`seqpar::IterationTrace`]: one
//!   record per iteration of the parallelized loop with measured phase
//!   costs (work counters incremented by the kernel as it really
//!   executes) and the dynamic dependence events that occurred — the
//!   direct analogue of the paper's native timing + memory profiling
//!   (§3.1);
//! * an **IR model** of the hot loop, carrying the paper's annotations,
//!   that the `seqpar` compiler pipeline can analyze and partition;
//! * its [`meta::WorkloadMeta`] row for regenerating Table 1.
//!
//! # Example
//!
//! ```
//! use seqpar_workloads::{all_workloads, InputSize, Workload};
//!
//! let suite = all_workloads();
//! assert_eq!(suite.len(), 11);
//! for w in suite.iter().take(2) {
//!     let trace = w.trace(InputSize::Test);
//!     assert!(!trace.is_empty(), "{} produced no iterations", w.meta().spec_id);
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bzip2;
pub mod common;
pub mod crafty;
pub mod gap;
pub mod gcc;
pub mod gzip;
pub mod mcf;
pub mod meta;
pub mod native;
pub mod parser;
pub mod perlbmk;
pub mod twolf;
pub mod vortex;
pub mod vpr;

pub use common::{stage_labels, InputSize, Prng, WorkMeter, Workload};
pub use meta::WorkloadMeta;
pub use native::{KernelLoop, SequentialRun, VersionedJob};

/// All eleven workloads, in SPEC numbering order.
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(gzip::Gzip),
        Box::new(vpr::Vpr),
        Box::new(gcc::Gcc),
        Box::new(mcf::Mcf),
        Box::new(crafty::Crafty),
        Box::new(parser::Parser),
        Box::new(perlbmk::Perlbmk),
        Box::new(gap::Gap),
        Box::new(vortex::Vortex),
        Box::new(bzip2::Bzip2),
        Box::new(twolf::Twolf),
    ]
}

/// Looks up a workload by SPEC id (e.g. `"164.gzip"`) or short name
/// (e.g. `"gzip"`).
pub fn workload_by_name(name: &str) -> Option<Box<dyn Workload>> {
    all_workloads()
        .into_iter()
        .find(|w| w.meta().spec_id == name || w.meta().name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_all_eleven_benchmarks() {
        let ids: Vec<&str> = all_workloads().iter().map(|w| w.meta().spec_id).collect();
        assert_eq!(
            ids,
            vec![
                "164.gzip",
                "175.vpr",
                "176.gcc",
                "181.mcf",
                "186.crafty",
                "197.parser",
                "253.perlbmk",
                "254.gap",
                "255.vortex",
                "256.bzip2",
                "300.twolf",
            ]
        );
    }

    #[test]
    fn lookup_by_either_name_form() {
        assert!(workload_by_name("164.gzip").is_some());
        assert!(workload_by_name("twolf").is_some());
        assert!(workload_by_name("999.nope").is_none());
    }
}
