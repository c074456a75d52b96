//! Layer probes: microbenchmarks of the public operations the pipelined
//! path is built from, so that a per-task overhead seen end to end can be
//! matched to the layer that charged it. Each probe takes at least 30
//! samples and is summarised as minimum / median / MAD — a mean would let
//! one descheduled sample on a shared two-core box move the number.

use crate::ladder::{self, Rung, Variant};
use crate::metrics::Measured;
use crate::stats::{quantile_sorted, summarize, Summary};
use crossbeam::channel::bounded;
use seqpar_runtime::{Engine, ExecConfig, ExecutionPlan, GovernorConfig};
use seqpar_specmem::{Addr, ConcurrentVersionedMemory, VersionId};
use std::hint::black_box;
use std::time::Instant;

/// How much each probe measures.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Samples per probe.
    pub samples: usize,
    /// Versions per substrate sample: every op is timed down a chain
    /// this long.
    pub chain: u64,
}

impl Scale {
    /// What the benchmark runs. (The tests use a shorter chain: 4096
    /// versions make `read`/`write` walk long lists, which takes a
    /// minute unoptimised.)
    pub const FULL: Scale = Scale {
        samples: 30,
        chain: 4096,
    };
}

/// Keeps a probed operation's result alive so the call cannot be elided.
fn sink<T>(value: T) {
    black_box(value);
}

/// Per-operation cost of `ops` operations run by `f`, in nanoseconds.
fn ns_per_op(ops: u64, f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_nanos() as f64 / ops as f64
}

/// Collected probe results: the median goes out as the metric, the full
/// summary into the report.
#[derive(Debug, Default)]
pub struct ProbeReport {
    pub rows: Vec<(String, Summary)>,
}

impl ProbeReport {
    fn add(&mut self, name: &str, samples: &[f64]) {
        self.rows.push((name.to_string(), summarize(samples)));
    }

    pub fn write_into(&self, measured: &mut Measured) {
        for (name, s) in &self.rows {
            measured.insert(name.clone(), s.median);
        }
    }

    pub fn lines(&self) -> Vec<String> {
        self.rows
            .iter()
            .map(|(name, s)| {
                format!(
                    "probe {name:<40} min {:>10.1}  median {:>10.1}  MAD {:>8.1}  n {}",
                    s.min, s.median, s.mad, s.n
                )
            })
            .collect()
    }
}

/// The channel every task crosses twice: an uncontended send+recv on one
/// thread, and a two-thread ping-pong over `bounded(1)` (lock, wake,
/// switch), with its tail.
fn channel(report: &mut ProbeReport, scale: Scale) {
    const PAIRS: u64 = 20_000;
    let (tx, rx) = bounded::<u64>(1);
    let uncontended: Vec<f64> = (0..scale.samples)
        .map(|_| {
            ns_per_op(PAIRS, || {
                for i in 0..PAIRS {
                    tx.send(i).expect("receiver alive");
                    black_box(rx.recv().expect("sender alive"));
                }
            })
        })
        .collect();
    report.add("crossbeam.channel_uncontended_ns", &uncontended);

    const TRIPS: usize = 4000;
    let (ping_tx, ping_rx) = bounded::<u64>(1);
    let (pong_tx, pong_rx) = bounded::<u64>(1);
    let mut trips: Vec<f64> = std::thread::scope(|scope| {
        scope.spawn(move || {
            for v in ping_rx.iter() {
                if pong_tx.send(v).is_err() {
                    break;
                }
            }
        });
        let trips = (0..TRIPS as u64 + 200)
            .map(|i| {
                let started = Instant::now();
                ping_tx.send(i).expect("echo thread alive");
                black_box(pong_rx.recv().expect("echo thread alive"));
                started.elapsed().as_nanos() as f64
            })
            .skip(200)
            .collect();
        drop(ping_tx);
        trips
    });
    report.add("crossbeam.channel_roundtrip_ns", &trips);
    trips.sort_by(f64::total_cmp);
    report.rows.push((
        "crossbeam.channel_roundtrip_p99_ns".to_string(),
        Summary {
            median: quantile_sorted(&trips, 0.99),
            ..summarize(&trips)
        },
    ));
}

const BASE: Addr = Addr(0);

fn private(v: u64) -> Addr {
    Addr(1_000_000 + v)
}

/// A memory whose `BASE` holds a committed 7, with versions `1..=chain`
/// open on top of it.
fn open_chain(chain: u64) -> (ConcurrentVersionedMemory, f64) {
    let mem = ConcurrentVersionedMemory::new();
    mem.begin(VersionId(0));
    mem.write(VersionId(0), BASE, 7);
    mem.try_commit(VersionId(0))
        .expect("the only version commits");
    let begin = ns_per_op(chain, || {
        for v in 1..=chain {
            mem.begin(VersionId(v));
        }
    });
    (mem, begin)
}

/// Single-thread cost of every public substrate operation down a chain
/// of open versions, plus the inline fast path's whole cycle.
fn substrate(report: &mut ProbeReport, scale: Scale) {
    let chain_len = scale.chain;
    let names = [
        "begin_ns",
        "read_ns",
        "write_ns",
        "forwarded_read_ns",
        "silent_write_ns",
        "commit_check_ns",
        "try_commit_ns",
        "commit_batch16_ns_per_version",
        "rollback_ns",
        "inline_cycle_ns",
    ];
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(scale.samples); names.len()];
    let versions = || (1..=chain_len).map(VersionId);
    for _ in 0..scale.samples {
        let (mem, begin) = open_chain(chain_len);
        let per_op = [
            begin,
            ns_per_op(chain_len, || {
                versions().for_each(|v| sink(mem.read(v, BASE)))
            }),
            ns_per_op(chain_len, || {
                versions().for_each(|v| sink(mem.write(v, private(v.0), v.0)))
            }),
            // Version v reads what v − 1 wrote and has not committed.
            ns_per_op(chain_len - 1, || {
                versions()
                    .skip(1)
                    .for_each(|v| sink(mem.read(v, private(v.0 - 1))));
            }),
            ns_per_op(chain_len, || {
                versions().for_each(|v| sink(mem.write(v, BASE, 7)))
            }),
            ns_per_op(chain_len, || {
                versions().for_each(|v| sink(mem.commit_check(v)))
            }),
            ns_per_op(chain_len, || {
                versions().for_each(|v| mem.try_commit(v).expect("in-order commit"));
            }),
        ];
        for (slot, ns) in per_op.into_iter().enumerate() {
            samples[slot].push(ns);
        }

        let (mem, _) = open_chain(chain_len);
        versions().for_each(|v| sink(mem.write(v, private(v.0), v.0)));
        let chain: Vec<VersionId> = versions().collect();
        samples[7].push(ns_per_op(chain_len, || {
            for batch in chain.chunks(16) {
                let (ready, stopped) = mem.commit_check_batch(batch);
                assert!(
                    ready == batch.len() && stopped.is_none(),
                    "batch is committable"
                );
                let (published, stopped) = mem.try_commit_batch(batch);
                assert!(
                    published.len() == batch.len() && stopped.is_none(),
                    "batch commits"
                );
            }
        }));

        let (mem, _) = open_chain(chain_len);
        versions().for_each(|v| sink(mem.write(v, private(v.0), v.0)));
        samples[8].push(ns_per_op(chain_len, || {
            // Newest first, so no rollback has a later version to squash.
            versions().rev().for_each(|v| sink(mem.rollback(v)));
        }));

        let mem = ConcurrentVersionedMemory::new();
        samples[9].push(ns_per_op(chain_len, || {
            for v in (0..chain_len).map(VersionId) {
                assert!(mem.try_begin_inline(v), "memory is quiescent");
                let x = mem.read(v, BASE);
                sink(mem.write(v, BASE, x + 1));
                mem.commit_inline(v);
            }
            mem.end_inline();
        }));
        assert_eq!(
            mem.committed(BASE),
            Some(chain_len),
            "inline stretch published"
        );
    }
    for (name, samples) in names.iter().zip(&samples) {
        report.add(&format!("specmem.{name}"), samples);
    }
}

/// What it costs to push a task that does nothing through the executor:
/// inline (the default governor keeps the loop on the caller's thread)
/// and handed off (ungoverned: dispatch, channel, worker, channel,
/// commit).
fn empty_task(report: &mut ProbeReport, scale: Scale, engine: &Engine, workers: usize, seed: u64) {
    let plan = ExecutionPlan::tls(workers);
    let mut probe = |name: &str, iters: u32, config: &ExecConfig| {
        let rung = Rung {
            name: "empty",
            rounds: 0,
            iters,
        };
        let job = ladder::build(seed, rung, Variant::Clean, None);
        let expected = job.sequential().output;
        let samples: Vec<f64> = (0..scale.samples)
            .map(|_| {
                let (spec, _mem) = job.job_spec(&plan, config.clone());
                let started = Instant::now();
                let run = engine.run(&spec).expect("empty-body job runs");
                let ns = started.elapsed().as_nanos() as f64 / f64::from(iters);
                assert_eq!(run.output, expected, "empty-body job diverged");
                ns
            })
            .collect();
        report.add(name, &samples);
    };
    let governed = ExecConfig::default().with_governor(GovernorConfig::default());
    probe("exec.inline_ns_per_task", 20_000, &governed);
    probe("exec.handoff_ns_per_task", 4_000, &ExecConfig::default());
}

/// Runs every probe.
pub fn run_all(scale: Scale, engine: &Engine, workers: usize, seed: u64) -> ProbeReport {
    let mut report = ProbeReport::default();
    channel(&mut report, scale);
    substrate(&mut report, scale);
    empty_task(&mut report, scale, engine, workers, seed);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqpar_runtime::EngineConfig;

    #[test]
    fn every_probe_reports_positive_medians_under_catalogue_names() {
        let engine = Engine::new(EngineConfig::with_workers(1));
        let scale = Scale {
            samples: 3,
            chain: 128,
        };
        let report = run_all(scale, &engine, 1, 1);
        let mut measured = Measured::new();
        report.write_into(&mut measured);
        let catalogue: Vec<String> = crate::metrics::per_layer()
            .into_iter()
            .map(|d| d.name)
            .collect();
        assert_eq!(measured.len(), 15);
        for (name, value) in &measured {
            assert!(
                catalogue.contains(name),
                "`{name}` is not a per-layer metric"
            );
            assert!(*value > 0.0, "`{name}` = {value}");
        }
        assert!(report
            .rows
            .iter()
            .all(|(_, s)| s.n >= scale.samples && s.min <= s.median));
        assert!(
            measured["crossbeam.channel_roundtrip_p99_ns"]
                >= measured["crossbeam.channel_roundtrip_ns"]
        );
    }
}
