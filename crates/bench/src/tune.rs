//! Bench-side glue for the feedback-directed plan autotuner.
//!
//! The search itself lives in `seqpar_analysis::tune` and only ever
//! sees task graphs and lint reports; this module supplies what the
//! analysis crate cannot reach — real workloads and the native
//! executor. [`TunableWorkload::prepare`] assembles a [`TuneInput`]
//! from a workload's IR model and recorded trace; the search's cheapest
//! row is its answer, recomputed by every process that asks.
//! [`TunableWorkload::run_native`] runs every row of the scored table
//! (the untuned default first) through the native table's instrument
//! ([`native_kernel`]): rotated repeats against the sequential loop,
//! every run byte-checked, a capacity certificate around the rows. The
//! runs are published beside the costs and decide nothing. The
//! `seqpar-tune` binary drives these entry points; `AUTOTUNING.md`
//! documents the whole story.

use crate::native::{native_kernel, NativeKernel};
use seqpar::ParallelizedLoop;
use seqpar_analysis::tune::{tune, Candidate, TuneConfig, TuneError, TuneInput, TuneResult};
use seqpar_runtime::ExecutionPlan;
use seqpar_workloads::{InputSize, Workload};

/// One workload prepared for tuning: the analysis-side search input,
/// the parallelizer result that mints lint-stamped plans, and the
/// workload and size the native pass runs.
#[derive(Debug)]
pub struct TunableWorkload<'w> {
    workload: &'w dyn Workload,
    size: InputSize,
    result: ParallelizedLoop,
    input: TuneInput,
}

impl<'w> TunableWorkload<'w> {
    /// Parallelizes `w`'s IR model and packages everything the tuner
    /// and the native pass need. Uses `allow_unsound` so that a
    /// deny-level partition reaches the tuner's own refusal path
    /// ([`TuneError::UnsoundPartition`]) with its finding count intact
    /// instead of failing here.
    ///
    /// # Panics
    ///
    /// Panics if the workload's IR model does not parallelize at all —
    /// every workload in the suite must.
    pub fn prepare(w: &'w dyn Workload, size: InputSize) -> Self {
        let result = crate::parallelize_model(w);
        let trace = w.trace(size);
        let profile = result.conflict_profile();
        let input = TuneInput {
            workload: w.meta().spec_id.to_string(),
            dswp_graph: trace.task_graph(),
            tls_graph: trace.tls_task_graph(),
            pipeline_stages: result.stage_plan().clone(),
            tls_stages: result.tls_stage_plan(),
            partition_report: result.lint_report().clone(),
            conflict_profile: (!profile.is_quiet()).then(|| profile.clone()),
        };
        Self {
            workload: w,
            size,
            result,
            input,
        }
    }

    /// Benchmark SPEC id.
    pub fn spec_id(&self) -> &'static str {
        self.workload.meta().spec_id
    }

    /// The assembled search input.
    pub fn input(&self) -> &TuneInput {
        &self.input
    }

    /// Runs the deterministic search over this workload's plan space.
    ///
    /// # Errors
    ///
    /// Propagates [`TuneError`] from the search (unsound partition, or
    /// a simulator rejection).
    pub fn tune(&self, config: &TuneConfig) -> Result<TuneResult, TuneError> {
        tune(&self.input, config)
    }

    /// Mints the lint-stamped execution plan for one candidate:
    /// [`ParallelizedLoop::plan`] at the candidate's width, the plan the
    /// candidate scored in the simulator, now carrying the lint stamp.
    ///
    /// # Panics
    ///
    /// Panics if the plan lost its lint stamp — running an unaudited
    /// plan would be meaningless.
    pub fn mint_plan(&self, candidate: &Candidate) -> ExecutionPlan {
        let plan = self.result.plan(candidate.width);
        assert!(
            plan.is_linted(),
            "{}: tuned plan failed the lint re-audit at mint time",
            self.spec_id()
        );
        plan
    }

    /// Runs every row of `result`'s table natively, in table order, the
    /// untuned default first: each row's minted plan through
    /// [`native_kernel`], under the default executor configuration.
    ///
    /// # Panics
    ///
    /// Panics if any run breaks sequential semantics — a tuned plan must
    /// never trade correctness for speed.
    pub fn run_native(&self, result: &TuneResult) -> NativeKernel {
        let plans: Vec<ExecutionPlan> = result
            .rows
            .iter()
            .map(|row| self.mint_plan(&row.candidate))
            .collect();
        native_kernel(self.workload, self.size, &plans, None)
    }
}

/// Renders a search the way `seqpar-tune` prints it: the summary line,
/// every row's simulator cost — beside its sequential ÷ native ratio,
/// median `[IQR]`, when `native` ran the rows — the kernel's capacity
/// certificate, and the winner, the cheapest row.
pub fn render(result: &TuneResult, native: Option<&NativeKernel>) -> String {
    let winner = result.best.candidate;
    let mut out = format!(
        "## {}: {} rows, baseline cost {:.0} -> best cost {:.0}\n",
        result.workload,
        result.rows.len(),
        result.baseline.score.cost,
        result.best.score.cost
    );
    let native_col = if native.is_some() {
        format!("  {:>13}", "seq/native")
    } else {
        String::new()
    };
    out.push_str(&format!("  width      sim cost{native_col}\n"));
    for (i, row) in result.rows.iter().enumerate() {
        let c = row.candidate;
        out.push_str(&format!("  {:>5}  {:>12.0}", c.width, row.score.cost));
        if let Some(kernel) = native {
            out.push_str(&format!("  {:>13}", kernel.rows[i].native.to_string()));
        }
        if i == 0 {
            out.push_str("  [default]");
        }
        if c == winner {
            out.push_str("  [winner]");
        }
        out.push('\n');
    }
    if let Some(kernel) = native {
        out.push_str(&format!("certificate: {}\n", kernel.certificate()));
    }
    out.push_str(&format!("winner: tls width {}\n", winner.width));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqpar_workloads::workload_by_name;

    #[test]
    fn minted_plans_match_searched_shapes_and_carry_stamps() {
        let w = workload_by_name("164.gzip").expect("gzip exists");
        let tunable = TunableWorkload::prepare(w.as_ref(), InputSize::Test);
        for threads in [1usize, 2, 4, 8] {
            for c in Candidate::space(threads) {
                let plan = tunable.mint_plan(&c);
                assert_eq!(plan, c.plan(), "{c:?} at {threads}");
                assert!(plan.is_linted(), "{c:?} stamps at {threads}");
            }
        }
    }

    #[test]
    fn tune_workload_validates_natively_and_marks_one_winner() {
        let w = workload_by_name("164.gzip").expect("gzip exists");
        let config = TuneConfig {
            threads: 4,
            ..TuneConfig::default()
        };
        let tunable = TunableWorkload::prepare(w.as_ref(), InputSize::Test);
        let result = tunable.tune(&config).unwrap();
        let kernel = tunable.run_native(&result);
        // One native row per table row, in the table's order, the
        // default first.
        let widths: Vec<usize> = kernel.rows.iter().map(|r| r.width).collect();
        let table: Vec<usize> = result.rows.iter().map(|r| r.candidate.width).collect();
        assert_eq!(widths, table);
        assert_eq!(result.rows[0].candidate, Candidate::default_for(4));
        assert!(kernel.rows.iter().all(|r| r.native.median > 0.0));
        // `[winner]` marks the cheapest row, and only it.
        let rendered = render(&result, Some(&kernel));
        assert!(rendered.starts_with("## 164.gzip: 4 rows,"), "{rendered}");
        let marked: Vec<&str> = rendered
            .lines()
            .filter(|l| l.contains("[winner]"))
            .collect();
        assert_eq!(marked.len(), 1, "{rendered}");
        let width = marked[0].split_whitespace().next().unwrap();
        assert_eq!(width, result.best.candidate.width.to_string(), "{rendered}");
        assert!(
            rendered.contains(&format!("winner: tls width {width}\n")),
            "{rendered}"
        );
        assert!(rendered.contains("certificate: "), "{rendered}");
    }

    /// Every shape a 4-core budget allows, on the suite's stormiest
    /// loop: the native pass byte-checks every run of every width (a
    /// mismatch panics), so a returned kernel is every width checked.
    #[test]
    fn validation_is_byte_checked_even_for_exotic_knobs() {
        let w = workload_by_name("175.vpr").expect("vpr exists");
        let tunable = TunableWorkload::prepare(w.as_ref(), InputSize::Test);
        let config = TuneConfig {
            threads: 4,
            ..TuneConfig::default()
        };
        let result = tunable.tune(&config).unwrap();
        let kernel = tunable.run_native(&result);
        let widths: Vec<usize> = kernel.rows.iter().map(|r| r.width).collect();
        let space: Vec<usize> = Candidate::space(4).iter().map(|c| c.width).collect();
        assert_eq!(widths, space);
    }
}
